"""Span tracer that wraps the program's public functions from outside.

Every public function of the traced ``effham`` modules, and the dense
linear-algebra entry points of ``numpy.linalg`` and ``scipy.linalg``, is
replaced at *every* module attribute that binds it, so calls between
layers (``effham.floquet.iterate_bloch`` as well as
``effham.bloch.iterate_bloch``) are seen.  Nothing under ``src/`` changes:
:meth:`Tracer.install` patches module attributes and
:meth:`Tracer.uninstall` puts the originals back.

A span is recorded only while :attr:`Tracer.recording` is set, so oracle
code that also calls ``numpy.linalg`` between problems is not counted.
Spans stay in memory; :meth:`Tracer.write_spans` writes them at the end.
A layer's self time is its span's duration minus the time its child spans
cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# Program layers, named after the modules that define them.
LAYERS = ("cli", "floquet", "dynamics", "partition", "bloch", "effective",
          "schriefferwolff", "matrixkit")

# Dense linear-algebra entry points and the operation each one counts as.
LAPACK_ENTRIES = {
    "numpy.linalg": {
        "svd": "svd", "eigh": "eigh", "eigvalsh": "eigh", "eig": "eig",
        "eigvals": "eig", "solve": "solve", "inv": "inv", "norm": "norm2",
    },
    "scipy.linalg": {
        "svd": "svd", "svdvals": "svd", "eigh": "eigh", "eigvalsh": "eigh",
        "eig_banded": "eigh", "eigvals_banded": "eigh", "eig": "eig",
        "eigvals": "eig", "solve": "solve", "lu_factor": "solve",
        "lu_solve": "solve", "cho_factor": "solve", "cho_solve": "solve",
        "solve_banded": "solve", "solve_triangular": "solve", "inv": "inv",
        "norm": "norm2", "expm": "expm",
    },
}
LAPACK_OPS = ("svd", "eigh", "eig", "solve", "inv", "norm2", "expm")

# Spans whose stacked eigendecompositions are counted as time substeps.
SUBSTEP_OWNERS = {"floquet.monodromy": "floquet.monodromy_substeps",
                  "dynamics.evolve_periodic": "dynamics.substeps"}
# Routes that return one result per auto-cutoff search.
LADDER_ROUTES = ("floquet.quasi_energies_diag",
                 "floquet.quasi_energies_effective")


def operand_signature(args, kwargs) -> tuple:
    """Shape, dtype kind and item size of each array operand of a call.

    A ``(factor, pivots)`` pair, as ``lu_solve`` takes, stands for its
    factor.  The flag says whether an SVD was asked for its vectors.
    """
    operands = []
    for value in args:
        if isinstance(value, tuple) and value:
            value = value[0]
        shape = getattr(value, "shape", None)
        if shape is not None:
            operands.append((shape, value.dtype.kind, value.dtype.itemsize))
    want_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    return tuple(operands), bool(want_uv)


def flops_computed(op: str, entry: str, operands, want_uv: bool) -> float:
    """Textbook real-flop count of one call, from its operand shapes alone.

    These are computed leading terms (Golub and Van Loan), not measured:
    they compare two versions of the program by the dense work they ask
    for.  A complex multiply-add counts as four real ones; the expm count
    is the Pade-13 evaluation without squarings, which depend on values.
    """
    if not operands:
        return 0.0
    shape, kind, _ = operands[0]
    if len(shape) < 2:
        return 0.0
    batch = math.prod(shape[:-2])
    m, n = shape[-2], shape[-1]
    big, small = max(m, n), min(m, n)
    rhs = operands[1][0] if len(operands) > 1 else ()
    nrhs = rhs[-1] if len(rhs) >= 2 else 1
    if op == "svd" and want_uv and entry != "svdvals":
        per = 4 * big * big * small + 8 * big * small ** 2 + 9 * small ** 3
    elif op in ("svd", "norm2"):
        per = 4 * big * small ** 2 - 4 * small ** 3 / 3
    elif op == "eigh" and entry in ("eig_banded", "eigvals_banded"):
        per = 6 * n * n * max(m - 1, 1) + 9 * n ** 3 * (entry == "eig_banded")
    elif op == "eigh":
        per = 4 * n ** 3 / 3 if entry == "eigvalsh" else 9 * n ** 3
    elif op == "eig":
        per = 10 * n ** 3 if entry == "eigvals" else 25 * n ** 3
    elif op == "solve":
        per = {"lu_factor": 2 * n ** 3 / 3, "cho_factor": n ** 3 / 3,
               "lu_solve": 2 * n * n * nrhs, "cho_solve": 2 * n * n * nrhs,
               "solve_triangular": n * n * nrhs,
               "solve_banded": 2 * n * (m - 1) * (m - 1 + nrhs),
               }.get(entry, 2 * n ** 3 / 3 + 2 * n * n * nrhs)
    elif op == "inv":
        per = 2 * n ** 3
    else:  # expm
        per = 12 * n ** 3 + 8 * n ** 3 / 3
    return float(batch * per * (4 if kind == "c" else 1))


def bytes_computed(operands) -> int:
    """Bytes of the array operands of one call, from their shapes."""
    return sum(math.prod(shape) * itemsize for shape, _, itemsize in operands)


class Tracer:
    """Records spans and counters for wrapped functions.

    Counters are keyed by metric name; ``self_s`` accumulates per layer
    and per LAPACK operation.  One tracer is created per traced run.
    """

    def __init__(self) -> None:
        self.recording = False
        self.problem = -1
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ladder_dim_max = 0
        # (op, entry, operand signature) -> calls; costed when the run ends.
        self.lapack_calls: Counter = Counter()
        self._next_id = 0
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, op: str | None, entry: str):
        tracer = self
        keys = [f"{layer}.self_s", f"{layer}.calls"]
        if op is not None:
            keys += [f"lapack.{op}.self_s", f"lapack.{op}.calls"]

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [name, 0.0, tracer._next_id]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(frame, keys, start, end)
            if op is not None:
                tracer._count_lapack(op, entry, args, kwargs)
            else:
                tracer._count_layer(name, result)
            return result

        return functools.wraps(fn)(traced)

    def _close(self, frame, keys, start: float, end: float) -> None:
        duration = end - start
        parent = None
        if self._stack:
            parent = self._stack[-1][2]
            self._stack[-1][1] += duration
        self_time = duration - frame[1]
        counts = self.counts
        for i in range(0, len(keys), 2):
            counts[keys[i]] += self_time
            counts[keys[i + 1]] += 1
        self.spans.append((self.problem, frame[2], parent, frame[0], start, end,
                           self_time))

    def _count_layer(self, name: str, result) -> None:
        if name == "bloch.bloch_map":
            self.counts["bloch.sweeps"] += 1
        elif name == "floquet.build_floquet":
            self.counts["floquet.ladder_builds"] += 1
            # From the fields, so a lazily built dense matrix is not forced.
            self.ladder_dim_max = max(self.ladder_dim_max,
                                      (2 * result.cutoff + 1) * result.dim)
        elif name in LADDER_ROUTES:
            self.counts["floquet.ladder_results"] += 1

    def _count_lapack(self, op: str, entry: str, args, kwargs) -> None:
        self.lapack_calls[op, entry, operand_signature(args, kwargs)] += 1
        a = args[0] if args else None
        if op == "eigh" and len(getattr(a, "shape", ())) >= 3:
            for frame in reversed(self._stack):
                counter = SUBSTEP_OWNERS.get(frame[0])
                if counter is not None:
                    self.counts[counter] += math.prod(a.shape[:-2])
                    break

    def _lapack_wrapper(self, fn, entry: str, op: str):
        name = f"lapack.{op}"
        if op != "norm2":
            return self._wrap(fn, name, "lapack", op, entry)
        inner = self._wrap(fn, name, "lapack", op, entry)

        # Only the matrix 2-norm is a decomposition; other norms pass through.
        @functools.wraps(fn)
        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) >= 2:
                return inner(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)

        return norm

    def install(self) -> None:
        """Wrap every traced function at every attribute that binds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"effham.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}", layer,
                                                  None, attr)
        for modname, entries in LAPACK_ENTRIES.items():
            module = importlib.import_module(modname)
            for attr, op in entries.items():
                fn = getattr(module, attr, None)
                if fn is not None and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._lapack_wrapper(fn, attr, op)
        targets = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "effham"
                                         or name.startswith("effham.")
                                         or name in LAPACK_ENTRIES)]
        for module in targets:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values from the recorded counters."""
        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS + ("lapack",):
            out[f"{layer}.calls"] = int(c[f"{layer}.calls"])
            out[f"{layer}.self_s"] = c[f"{layer}.self_s"]
        for op in LAPACK_OPS:
            out[f"lapack.{op}.calls"] = int(c[f"lapack.{op}.calls"])
        out["lapack.svd.self_s"] = c["lapack.svd.self_s"]
        out["lapack.eigh.self_s"] = c["lapack.eigh.self_s"]
        out["lapack.flops_computed"] = sum(
            count * flops_computed(op, entry, *signature)
            for (op, entry, signature), count in self.lapack_calls.items())
        out["lapack.bytes_computed"] = sum(
            count * bytes_computed(signature[0])
            for (op, entry, signature), count in self.lapack_calls.items())
        out["bloch.sweeps"] = int(c["bloch.sweeps"])
        builds = int(c["floquet.ladder_builds"])
        out["floquet.ladder_builds"] = builds
        out["floquet.cutoff_useful_ratio"] = (
            c["floquet.ladder_results"] / builds if builds else 0.0)
        out["floquet.ladder_dim_max"] = self.ladder_dim_max
        out["floquet.monodromy_substeps"] = int(c["floquet.monodromy_substeps"])
        out["dynamics.substeps"] = int(c["dynamics.substeps"])
        out["cli.bytes_out"] = int(c["cli.bytes_out"])
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for problem, span, parent, name, start, end, self_time in self.spans:
                fh.write(json.dumps({
                    "problem": problem, "span": span, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "self_s": self_time}) + "\n")
