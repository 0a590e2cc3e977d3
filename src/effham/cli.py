"""Command-line interface: model files in, reports and tables out.

Model files are JSON objects holding exactly one of three kinds: a dense
hermitian matrix with a slow-index list, a three-level preset (two nearly
degenerate ground states coupled to one far-detuned excited state), or a
periodic-drive spec given by Fourier components.  Reports are JSON, time
series and sweeps are CSV; every float is printed with 17 significant
digits so output is reproducible byte for byte and parses back to the
identical double.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, matrixkit, partition
from .bloch import adiabatic_embedding, embedding_from_matrix, iterate_bloch
from .dynamics import StateVector, evolve_constant, evolve_periodic, populations
from .effective import (
    hermitian_effective,
    nonhermitian_effective,
    second_order_hamiltonian,
)
from .errors import ToolkitError
from .floquet import (
    FloquetSpec,
    _ladder_quasi_energies,
    first_order_floquet_hamiltonian,
    fold_quasienergy,
    quasi_energies_monodromy,
)
from .partition import coupling_scales, partition_hamiltonian, spectral_gap
from .schriefferwolff import _effective_route, _linearized_block, _tan_svd

__all__ = ["main"]

PARSE_ERROR = 2
NUMERICAL_ERROR = 3


class ModelFormatError(ValueError):
    """Model file is structurally invalid."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _float_token(x: float) -> str:
    """17 significant digits, ``0`` for either zero, else nan/inf/-inf."""
    if math.isfinite(x):
        return format(x, ".17g") if x else "0"
    if x != x:
        return "nan"
    return "inf" if x > 0 else "-inf"


def format_float(x: float) -> str:
    """Shortest-but-exact decimal: round-trips any finite double.

    Negative zero is normalized to ``0`` so conjugated entries cannot
    introduce a ``-0`` that JSON would read back as an integer; non-finite
    values become the JSON strings ``"nan"``, ``"inf"`` and ``"-inf"``.
    """
    x = float(x)
    token = _float_token(x)
    return token if math.isfinite(x) else f'"{token}"'


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _is_scalar(value) -> bool:
    return value is None or isinstance(
        value, (bool, int, float, str, np.integer, np.floating))


def _flat_size(value) -> int:
    if _is_scalar(value):
        return 1
    if isinstance(value, (list, tuple)):
        return sum(_flat_size(v) for v in value)
    return 10**6


def dumps_json(value, indent: int = 0) -> str:
    """Serialize with stable key order and 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if _is_scalar(value):
        return _json_scalar(value)
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(_is_scalar(v) or isinstance(v, (list, tuple)) for v in items) \
                and _flat_size(items) <= 8:
            return "[" + ", ".join(dumps_json(v, 0) for v in items) + "]"
        body = ",\n".join(inner + dumps_json(v, indent + 1) for v in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 1)}"
            for k, v in value.items())
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m: np.ndarray) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in arr]


def vector_to_json(v: np.ndarray) -> list:
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def parse_complex_entry(value) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in value)):
        return complex(float(value[0]), float(value[1]))
    raise ModelFormatError(
        f"expected a number or a [re, im] pair, got {value!r}")


def _real_entry(value, name: str) -> float:
    """``value`` as a float; a nonzero imaginary part is rejected."""
    z = complex(value)
    if z.imag != 0.0:
        raise ModelFormatError(f"{name} must be real, got {z}")
    return z.real


def parse_matrix_entry(value, name: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"{name} must be a non-empty list of rows")
    rows = []
    width = None
    for row in value:
        if not isinstance(row, list):
            raise ModelFormatError(f"{name} rows must be lists")
        parsed = [parse_complex_entry(x) for x in row]
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise ModelFormatError(f"{name} rows have inconsistent lengths")
        rows.append(parsed)
    return np.asarray(rows, dtype=complex)


# ---------------------------------------------------------------------------
# model files


@dataclass
class Model:
    """Parsed model file: exactly one kind is populated."""

    kind: str
    hamiltonian: np.ndarray | None = None
    slow_indices: tuple[int, ...] = ()
    labels: tuple[str, ...] = ()
    params: dict | None = None
    floquet: FloquetSpec | None = None


def three_level_matrix(detuning: float, gap: float, rabi_a: complex,
                       rabi_b: complex) -> np.ndarray:
    """Three-level Hamiltonian: split ground doublet plus excited state.

    Ground states at -detuning/2 and +detuning/2, excited state at
    ``gap``, couplings ``rabi_a`` and ``rabi_b`` entering with the
    conventional factor 1/2.
    """
    return np.array([
        [-0.5 * detuning, 0.0, 0.5 * np.conj(rabi_a)],
        [0.0, 0.5 * detuning, 0.5 * np.conj(rabi_b)],
        [0.5 * rabi_a, 0.5 * rabi_b, gap],
    ], dtype=complex)


LAMBDA_DEFAULTS = {"detuning": -0.0175, "gap": 1.0,
                   "rabi_a": 0.4 + 0.0j, "rabi_b": 0.3 + 0.0j}
DRIVEN_QUBIT_DEFAULTS = {"drive_frequency": 10.0, "coupling": 1.0 + 0.0j,
                         "detuning": 0.0}


def _with_overrides(defaults: dict, params: dict | None, what: str) -> dict:
    unknown = set(params or {}) - set(defaults)
    if unknown:
        raise ModelFormatError(f"unknown {what} parameters: {sorted(unknown)}")
    return {**defaults, **(params or {})}


def _lambda_value(name: str, x) -> float | complex:
    """``x`` as the type of ``LAMBDA_DEFAULTS[name]``: the Rabi couplings
    are complex, detuning and gap real."""
    if isinstance(LAMBDA_DEFAULTS[name], complex):
        return complex(x)
    return _real_entry(x, name)


def lambda_model_dict(params: dict | None = None) -> dict:
    p = _with_overrides(LAMBDA_DEFAULTS, params, "three-level")
    values = {k: _lambda_value(k, x) for k, x in p.items()}
    return {"lambda_system": {
        k: complex_to_json(x) if isinstance(x, complex) else x
        for k, x in values.items()}}


def _floquet_dict(dim: int, drive_frequency: float, comps: dict) -> dict:
    return {"floquet": {"dim": dim, "drive_frequency": drive_frequency,
                        "components": {str(k): matrix_to_json(comps[k])
                                       for k in sorted(comps)}}}


def driven_qubit_dict(params: dict | None = None) -> dict:
    p = _with_overrides(DRIVEN_QUBIT_DEFAULTS, params, "driven-qubit")
    g = complex(p["coupling"])
    delta = _real_entry(p["detuning"], "detuning")
    omega = _real_entry(p["drive_frequency"], "drive_frequency")
    return _floquet_dict(2, omega, {
        -1: [[0.0, g], [0.0, 0.0]],
        0: [[0.5 * delta, 0.0], [0.0, -0.5 * delta]],
        1: [[0.0, 0.0], [np.conj(g), 0.0]]})


def _parse_lambda(payload: dict) -> Model:
    if not isinstance(payload, dict) or set(payload) != set(LAMBDA_DEFAULTS):
        raise ModelFormatError(
            f"lambda_system needs exactly the keys {sorted(LAMBDA_DEFAULTS)}")
    params = {k: _lambda_value(k, parse_complex_entry(payload[k]))
              for k in LAMBDA_DEFAULTS}
    h = three_level_matrix(**params)
    return Model(kind="lambda_system", hamiltonian=h, slow_indices=(0, 1),
                 labels=("g_a", "g_b", "e"), params=params)


def _parse_matrix_model(payload: dict) -> Model:
    if not isinstance(payload, dict) or set(payload) != {"hamiltonian",
                                                         "slow_indices"}:
        raise ModelFormatError(
            "matrix model needs exactly the keys hamiltonian and slow_indices")
    h = parse_matrix_entry(payload["hamiltonian"], "hamiltonian")
    idx = payload["slow_indices"]
    if (not isinstance(idx, list) or not idx
            or not all(isinstance(i, int) and not isinstance(i, bool)
                       for i in idx)):
        raise ModelFormatError("slow_indices must be a non-empty integer list")
    labels = tuple(f"c{i}" for i in range(h.shape[0]))
    return Model(kind="matrix", hamiltonian=h,
                 slow_indices=tuple(int(i) for i in idx), labels=labels)


def _parse_floquet(payload: dict) -> Model:
    required = {"dim", "drive_frequency", "components"}
    if not isinstance(payload, dict) or set(payload) != required:
        raise ModelFormatError(
            f"floquet model needs exactly the keys {sorted(required)}")
    dim = payload["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModelFormatError("floquet dim must be a positive integer")
    freq = _real_entry(parse_complex_entry(payload["drive_frequency"]),
                       "drive_frequency")
    comps_in = payload["components"]
    if not isinstance(comps_in, dict) or not comps_in:
        raise ModelFormatError(
            "floquet components must be a non-empty object keyed by harmonic")
    comps: dict[int, np.ndarray] = {}
    for key, val in comps_in.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ModelFormatError(
                f"harmonic key {key!r} is not an integer") from None
        comps[k] = parse_matrix_entry(val, f"component {key}")
    spec = FloquetSpec(dim=dim, drive_frequency=freq, components=comps)
    return Model(kind="floquet", floquet=spec,
                 labels=tuple(f"c{i}" for i in range(dim)))


def model_from_dict(data) -> Model:
    if not isinstance(data, dict):
        raise ModelFormatError("model file must hold a JSON object")
    present = [k for k in ("matrix", "lambda_system", "floquet") if k in data]
    if len(present) != 1:
        raise ModelFormatError(
            f"model must contain exactly one of matrix, lambda_system, "
            f"floquet; found {present or 'none'}")
    kind = present[0]
    if kind == "matrix":
        return _parse_matrix_model(data[kind])
    if kind == "lambda_system":
        return _parse_lambda(data[kind])
    return _parse_floquet(data[kind])


def load_model(path: str) -> Model:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(data)


def model_to_dict(model: Model) -> dict:
    if model.kind == "matrix":
        return {"matrix": {
            "hamiltonian": matrix_to_json(model.hamiltonian),
            "slow_indices": [int(i) for i in model.slow_indices],
        }}
    if model.kind == "lambda_system":
        return lambda_model_dict(model.params)
    spec = model.floquet
    return _floquet_dict(spec.dim, spec.drive_frequency, spec.components)


# ---------------------------------------------------------------------------
# shared command plumbing


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise ModelFormatError(f"cannot write output: {exc}") from exc


def _fmt_cell(x) -> str:
    """CSV cell: strings as given, ``None`` empty, floats as bare tokens."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return _float_token(float(x))


def _csv(rows) -> str:
    """CSV table, header first, every cell through :func:`_fmt_cell`."""
    return "".join(",".join(_fmt_cell(x) for x in row) + "\n" for row in rows)


def _comma_list(text: str, what: str) -> list[str]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ModelFormatError(f"no {what} requested")
    return tokens


def _parse_complex(text: str, what: str) -> complex:
    """A complex number written with ``i`` or ``j``, e.g. ``0.5-0.8i``;
    only a trailing ``i`` is the imaginary unit, so ``inf`` stays ``inf``."""
    text = text.strip()
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError as exc:
        raise ModelFormatError(f"cannot parse {what}: {exc}") from exc


_PERTURB = re.compile(r"^perturb(\d+)$")


def _route_name(method: str, order: int | None = None) -> str:
    """Effective-route name of a command-line method: ``sw_first`` for
    ``sw``, ``bloch_order_<k>`` for ``perturb<k>`` or for ``perturb`` with
    ``order`` k, the method itself otherwise."""
    match = _PERTURB.match(method)
    if match or method == "perturb":
        return f"bloch_order_{int(match[1]) if match else order}"
    return "sw_first" if method == "sw" else method


def _solve_once(ph, args):
    """Effective operator and embedding of ``solve``'s method."""
    name = _route_name(args.method, args.order)
    op, be = _effective_route(name, args.tol)(ph)
    if be is None:  # a closed form: report the embedding it implies
        be = (adiabatic_embedding(ph) if name == "adiabatic" else
              embedding_from_matrix(ph, _tan_svd(_linearized_block(ph))[0]))
    return op, be


def _sweep(args, names, header, cells) -> int:
    """CSV table of one ``name:lo:hi:steps`` sweep over ``names``: each
    row is the value and ``cells(name, value)``, under ``header``.  The
    first failing point aborts the sweep with its own error, so the table
    is written only after every point has succeeded."""
    parts = args.sweep.split(":")
    if len(parts) != 4:
        raise ModelFormatError("sweep must look like name:lo:hi:steps")
    name, lo, hi, steps = parts
    try:
        lo_f, hi_f, n = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ModelFormatError(f"bad sweep bounds: {exc}") from exc
    if not (math.isfinite(lo_f) and math.isfinite(hi_f)):
        raise ModelFormatError("sweep bounds must be finite")
    if n < 1:
        raise ModelFormatError("sweep needs at least one step")
    if name not in names:
        raise ModelFormatError(f"unknown sweep parameter {name!r}")
    rows = [[name, *header]] + [[value, *cells(name, value)]
                                for value in np.linspace(lo_f, hi_f, n)]
    _write_text(args.out, _csv(rows))
    return 0


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    model = load_model(args.model)
    if model.kind == "floquet":
        raise ModelFormatError(
            "periodic models are handled by the floquet command")
    if args.sweep:
        return _solve_sweep(args, model)
    ph = partition_hamiltonian(model.hamiltonian, model.slow_indices)
    scales, gap = coupling_scales(ph), spectral_gap(ph)
    print(f"epsilon = {scales.epsilon:.6g}, "
          f"epsilon_prime = {scales.epsilon_prime:.6g}, "
          f"spectral_gap = {gap:.6g}", file=sys.stderr)
    if scales.radius is None:
        print("warning: contraction hypothesis violated; no certified "
              "invariant ball", file=sys.stderr)
    else:
        print(f"invariant-ball radius = {scales.radius:.6g}", file=sys.stderr)
    op, be = _solve_once(ph, args)
    full = matrixkit.hermitian_eig(model.hamiltonian).values
    report = {
        "tool": "effham",
        "version": __version__,
        "command": "solve",
        "model": model.kind,
        "method": args.method,
        "slow_dim": ph.slow_dim,
        "fast_dim": ph.fast_dim,
        "effective_hamiltonian": matrix_to_json(op.matrix),
        "hermitian": bool(op.hermitian),
        "spectrum": vector_to_json(np.real(op.spectrum())),
        "bloch_residual": float(be.residual),
        "epsilon": scales.epsilon,
        "epsilon_prime": scales.epsilon_prime,
        "radius": scales.radius,
        "radius_small": scales.radius_small,
        "spectral_gap": gap,
        "full_spectrum": vector_to_json(full),
    }
    _write_text(args.out, dumps_json(report) + "\n")
    return 0


def _solve_sweep(args, model: Model) -> int:
    if model.kind != "lambda_system":
        raise ModelFormatError("solve sweeps are defined for lambda_system "
                               "models only")

    def cells(name: str, value: float) -> list:
        h = three_level_matrix(
            **{**model.params, name: _lambda_value(name, value)})
        ph = partition_hamiltonian(h, model.slow_indices)
        scales = coupling_scales(ph)
        op, be = _solve_once(ph, args)
        return [*np.real(op.spectrum()), be.residual, scales.epsilon,
                scales.epsilon_prime, scales.radius]

    header = [f"eig_{i}" for i in range(len(model.slow_indices))] + [
        "bloch_residual", "epsilon", "epsilon_prime", "radius"]
    return _sweep(args, LAMBDA_DEFAULTS, header, cells)


# ---------------------------------------------------------------------------
# simulate


_GEN_PATTERN = re.compile(r"^(adiabatic|second|sw|iterate(\d+)|herm(\d+))$")


def _generator(ph, token: str) -> np.ndarray:
    """Slow-sector generator matrix named by a ``simulate`` token."""
    match = _GEN_PATTERN.match(token)
    if match is None:
        raise ModelFormatError(f"unknown generator {token!r}")
    if token in ("adiabatic", "sw"):
        return _effective_route(_route_name(token))(ph)[0].matrix
    if token == "second":
        return second_order_hamiltonian(ph).matrix
    be = iterate_bloch(ph, tol=0.0, max_iter=int(match[2] or match[3]),
                       require_convergence=False)
    effective = (nonhermitian_effective if token.startswith("iterate")
                 else hermitian_effective)
    return effective(ph, be).matrix


def _series_csv(series) -> str:
    header = ["t"] + [f"pop_{lab}" for lab in series.labels] + ["norm"]
    return _csv([header] + [[t, *pops, norm] for t, pops, norm in zip(
        series.times.tolist(), populations(series).tolist(),
        series.norms().tolist())])


def _parse_psi0(text: str | None, dim: int) -> np.ndarray:
    if text is None:
        out = np.zeros(dim, dtype=complex)
        out[0] = 1.0
        return out
    vals = [_parse_complex(part, "--psi0") for part in text.split(",")]
    if len(vals) != dim:
        raise ModelFormatError(
            f"--psi0 has {len(vals)} components, model needs {dim}")
    return np.asarray(vals, dtype=complex)


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    if args.samples < 2:
        raise ModelFormatError("need at least two samples")
    if not 0.0 < args.tmax < math.inf:
        raise ModelFormatError("tmax must be positive and finite")
    times = np.linspace(0.0, args.tmax, args.samples)
    tokens = _comma_list(args.generators, "generators")
    if model.kind == "floquet":
        if tokens != ["exact"]:
            raise ModelFormatError(
                "periodic models support only the exact generator")
        psi0 = _parse_psi0(args.psi0, model.floquet.dim)
        series = evolve_periodic(model.floquet,
                                 StateVector(psi0, model.labels), times)
        chunks = {"exact": _series_csv(series)}
    else:
        h = model.hamiltonian
        psi0 = _parse_psi0(args.psi0, h.shape[0])
        if any(token != "exact" for token in tokens):
            ph = partition_hamiltonian(h, model.slow_indices)
            # Slow generators take psi0's slow components as given.
            slow = StateVector(psi0[list(ph.slow_indices)],
                               tuple(model.labels[i] for i in ph.slow_indices))
        else:  # exact alone needs the matrix checks, not the partition
            h = partition._checked_hamiltonian(h)
        chunks = {}
        for token in tokens:
            series = (evolve_constant(h, StateVector(psi0, model.labels), times)
                      if token == "exact" else
                      evolve_constant(_generator(ph, token), slow, times))
            chunks[token] = _series_csv(series)
    if args.out is None or args.out == "-":
        _write_text(args.out, "".join(f"# generator: {token}\n{chunks[token]}"
                                      for token in tokens))
    else:
        for token in tokens:
            _write_text(f"{args.out}_{token}.csv", chunks[token])
    return 0


# ---------------------------------------------------------------------------
# floquet


_QUASI_PATTERN = re.compile(
    r"^(monodromy|hf1|diag|adiabatic|sw|iterate|perturb\d+)$")


def _cutoff_free_values(token: str, spec: FloquetSpec, steps) -> np.ndarray:
    if token == "monodromy":
        return quasi_energies_monodromy(spec, steps).values
    h = first_order_floquet_hamiltonian(spec)
    return np.sort(fold_quasienergy(matrixkit.hermitian_eig(h).values,
                                    spec.drive_frequency))


def _quasi_rows(tokens, spec: FloquetSpec, steps, cutoff):
    """Quasi-energies per token and their largest deviation from the first.
    Every token is checked before any work; the cutoff-free rows come
    first, then one ladder loop serves every ladder token."""
    methods = {}  # token -> ladder-loop method, None if cutoff-free
    for token in tokens:
        if _QUASI_PATTERN.match(token) is None:
            raise ModelFormatError(f"unknown quasi-energy method {token!r}")
        methods[token] = (None if token in ("monodromy", "hf1")
                          else _route_name(token))
        if methods[token] not in (None, "diag"):
            _effective_route(methods[token])  # checks the order of perturb<k>
    free = {token: _cutoff_free_values(token, spec, steps)
            for token, method in methods.items() if method is None}
    ladder = _ladder_quasi_energies(spec, filter(None, methods.values()), cutoff)
    rows = [free[t] if methods[t] is None else ladder[methods[t]][0]
            for t in tokens]
    return [(values, float(np.max(np.abs(values - rows[0]))))
            for values in rows]


def _scaled_spec(spec: FloquetSpec, name: str, value: float) -> FloquetSpec:
    if name == "drive_frequency":
        return replace(spec, drive_frequency=value)
    # "scale" multiplies the drive harmonics, "h0_scale" the static part.
    return replace(spec, components={
        k: m * value if (k == 0) == (name == "h0_scale") else m
        for k, m in spec.components.items()})


def cmd_floquet(args) -> int:
    model = load_model(args.model)
    if model.kind != "floquet":
        raise ModelFormatError("the floquet command needs a floquet model")
    spec = model.floquet
    tokens = _comma_list(args.methods, "methods")
    d = spec.dim
    if args.sweep is None:
        rows = _quasi_rows(tokens, spec, args.steps, args.cutoff)
        _write_text(args.out, _csv(
            [["method", *(f"q_{i}" for i in range(d)), "max_dev"]]
            + [[token, *values, dev]
               for token, (values, dev) in zip(tokens, rows)]))
        return 0

    def cells(name: str, value: float) -> list:
        swept = _scaled_spec(spec, name, float(value))
        rows = _quasi_rows(tokens, swept, args.steps, args.cutoff)
        return [x for values, dev in rows for x in (*values, dev)]

    header = [f"{token}_{col}" for token in tokens
              for col in [*(f"q{i}" for i in range(d)), "dev"]]
    names = ("drive_frequency", "scale", "h0_scale")
    return _sweep(args, names, header, cells)


# ---------------------------------------------------------------------------
# export


PRESETS = {"lambda": lambda_model_dict, "driven-qubit": driven_qubit_dict}


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ModelFormatError(f"override {pair!r} must look like key=value")
        key, _, raw = pair.partition("=")
        out[key.strip()] = _parse_complex(raw, f"override {pair!r}")
    return out


def cmd_export(args) -> int:
    text = dumps_json(PRESETS[args.preset](_parse_overrides(args.set))) + "\n"
    try:  # write only what the loader accepts
        model_from_dict(json.loads(text))
    except ValueError as exc:
        raise ModelFormatError(f"exported model would not load: {exc}") from exc
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effham",
        description="Effective slow-sector Hamiltonians, quasi-energies, "
                    "and supporting dynamics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="effective Hamiltonian report for a partitioned model")
    p_solve.add_argument("model")
    p_solve.add_argument("--method", default="adiabatic",
                         choices=["adiabatic", "iterate", "perturb", "sw"])
    p_solve.add_argument("--order", type=int, default=4,
                         help="series order for --method perturb")
    p_solve.add_argument("--tol", type=float, default=1e-12,
                         help="residual tolerance for --method iterate")
    p_solve.add_argument("--sweep", default=None,
                         help="name:lo:hi:steps parameter sweep (CSV output)")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="time evolution to CSV")
    p_sim.add_argument("model")
    p_sim.add_argument("--tmax", type=float, required=True)
    p_sim.add_argument("--samples", type=int, default=2001)
    p_sim.add_argument("--psi0", default=None,
                       help="comma-separated complex amplitudes at t = 0")
    p_sim.add_argument("--generators", default="exact",
                       help="comma list: exact, adiabatic, second, sw, "
                            "iterate<k>, herm<k>")
    p_sim.add_argument("--out", default=None,
                       help="file prefix; stdout when omitted")
    p_sim.set_defaults(func=cmd_simulate)

    p_flo = sub.add_parser("floquet", help="quasi-energy table to CSV")
    p_flo.add_argument("model")
    p_flo.add_argument("--methods", default="monodromy,diag,adiabatic",
                       help="comma list: monodromy, diag, adiabatic, sw, "
                            "iterate, perturb<k>, hf1")
    p_flo.add_argument("--steps", type=int, default=None,
                       help="fourth-order steps per period (two "
                            "exponentials each)")
    p_flo.add_argument("--cutoff", type=int, default=None,
                       help="harmonic cutoff; doubled automatically if unset")
    p_flo.add_argument("--sweep", default=None,
                       help="name:lo:hi:steps with name drive_frequency, "
                            "scale, or h0_scale")
    p_flo.add_argument("--out", default=None)
    p_flo.set_defaults(func=cmd_floquet)

    p_exp = sub.add_parser("export", help="write a preset model file")
    p_exp.add_argument("--preset", required=True, choices=list(PRESETS))
    p_exp.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a preset parameter (repeatable)")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ModelFormatError and rejected input values
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
