"""Seeded workloads: input generators, the timed problem, and its oracle.

Each workload produces its inputs in blocks.  A block holds a fixed number
of problems of each class, shuffled by the seed, so the class shares are
exact in every block and the latency percentiles fall
inside one class (see ``classes`` on each workload).  ``run`` is the only
code that is timed; ``check`` is the oracle and runs afterwards.  Oracles
compute their references with numpy alone and never call the routine
under test.

Outcomes of ``check``: ``None`` when the problem is correct, ``LEAK`` for
an input whose documented error escapes the command line as a traceback
(a known defect, reported separately), otherwise a message saying what
failed.
"""
from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

LEAK = "leak"

# Tolerances of the oracles.
ITERATE_TOL = 1e-9      # converged routes against numpy, relative to the gap
HERMITIAN_TOL = 1e-12   # largest |M - M^dagger| entry, relative to |M|
ROTATION_TOL = 1e-9     # unitarity and block-diagonalization of the rotation
FLOQUET_TOL = 1e-6      # quasi-energies against the benchmark's propagator
EVOLVE_TOL = 1e-10      # evolve_periodic beyond twice its scheme's own error
CLI_TOL = 1e-9          # populations and converged values parsed from the CLI
# Approximate routes: spectral error <= g * eps'^2 * x**k with x = eps + 2 eps'
# and g = 1 / ||fast^-1||.  Calibrated on 650 seeded instances, the largest
# observed ratios are 0.28 (k=1), 0.25 (k=2) and 0.004 (k=6).
APPROX_ORDER = {"adiabatic": 1, "sw_first": 2, "perturbative4": 6}


@dataclass
class Case:
    """One generated problem: its class and the inputs the program gets."""

    cls: str
    data: dict = field(default_factory=dict)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def approx_bound(gap: float, eps: float, eps_prime: float, route: str) -> float:
    x = eps + 2.0 * eps_prime
    return gap * eps_prime ** 2 * x ** APPROX_ORDER[route]


def _random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_hermitian(rng, n, norm):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    return norm * h / np.linalg.norm(h, 2)


def _random_coupling(rng, rows, cols, norm):
    c = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return norm * c / np.linalg.norm(c, 2)


def _shuffled_classes(rng, classes):
    labels = [name for name, count in classes for _ in range(count)]
    return [labels[i] for i in rng.permutation(len(labels))]


def _max_hermitian_defect(m):
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T))) / max(1.0, float(np.max(np.abs(m))))


def slow_reference(h, p, eps, eps_prime, gap):
    """The p eigenvalues of ``h`` that belong to the slow sector.

    By Weyl's inequality the slow family lies within ``(eps + eps') g`` of
    zero and the fast family at least ``(1 - eps') g`` away, so the p
    eigenvalues of least magnitude are the slow ones whenever
    ``eps + 2 eps' < 1``.  Raises ``ValueError`` if the computed spectrum
    does not show that separation.
    """
    ev = np.linalg.eigvalsh(h)
    order = np.argsort(np.abs(ev))
    inner = abs(ev[order[p - 1]])
    outer = abs(ev[order[p]]) if ev.size > p else math.inf
    if inner > (eps + eps_prime) * gap * (1 + 1e-9) or outer < (1 - eps_prime) * gap * (1 - 1e-9):
        raise ValueError("generated spectrum is not separated into sectors")
    return np.sort(ev[order[:p]])


# ---------------------------------------------------------------------------
# embed-dense


class EmbedDense:
    """Static partitions given as full hermitian matrices.

    Classes (per block of 25): ``singular`` 1 (4%) with an exactly
    singular fast block, ``p2q16`` 3 (12%), ``p4q64`` 16 (64%) and
    ``p8q256`` 5 (20%).  Latency grows with size, so p50 falls at the
    median of ``p4q64`` (16-80%) and p90 at the median of ``p8q256``
    (80-100%): a class median moves least when outside load slows a
    minority of the samples.
    """

    name = "embed-dense"
    entry_module = "effham"
    classes = [("singular", 1), ("p2q16", 3), ("p4q64", 16), ("p8q256", 5)]
    SIZES = {"p2q16": (2, 16), "p4q64": (4, 64), "p8q256": (8, 256)}
    TINY_SIZES = {"p2q16": (2, 6), "p4q64": (3, 10), "p8q256": (4, 16)}
    EPS = (0.18, 0.22)           # ||fast^-1|| ||slow||
    EPS_PRIME_SHARE = (0.33, 0.37)  # eps' as a share of (1 - eps) / 2
    GAP = (0.5, 2.0)             # smallest |eigenvalue| of the fast block

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.sizes = self.TINY_SIZES if tiny else self.SIZES
        import effham
        self.lib = effham

    def params(self) -> dict:
        return {"classes": dict(self.classes), "sizes": self.sizes,
                "eps": self.EPS, "eps_prime_share": self.EPS_PRIME_SHARE,
                "gap": self.GAP, "perturbative_order": 4,
                "approx_bound": "g*eps'^2*(eps+2eps')^k, k=" + json.dumps(APPROX_ORDER)}

    def block(self, index: int) -> list[Case]:
        rng = np.random.default_rng([self.seed, index])
        cases = []
        for k, cls in enumerate(_shuffled_classes(rng, self.classes)):
            if cls == "singular":
                p, q = self.sizes["p2q16" if index % 2 else "p4q64"]
            else:
                p, q = self.sizes[cls]
            cases.append(self._make(rng, cls, p, q))
        return cases

    def _make(self, rng, cls, p, q) -> Case:
        gap = rng.uniform(*self.GAP)
        eps = rng.uniform(*self.EPS)
        eps_prime = rng.uniform(*self.EPS_PRIME_SHARE) * (1.0 - eps) / 2.0
        mags = gap * (1.0 + rng.uniform(0.0, 1.0, q))
        mags[0] = gap
        lam = rng.choice([-1.0, 1.0], q) * mags
        if cls == "singular":
            lam[0] = 0.0
        u = _random_unitary(rng, q)
        fast = (u * lam) @ u.conj().T
        fast = 0.5 * (fast + fast.conj().T)
        slow = _random_hermitian(rng, p, eps * gap)
        coupling = _random_coupling(rng, q, p, eps_prime * gap)
        n = p + q
        perm = rng.permutation(n)
        si, fi = np.sort(perm[:p]), np.sort(perm[p:])
        h = np.zeros((n, n), dtype=complex)
        h[np.ix_(si, si)] = slow
        h[np.ix_(fi, fi)] = fast
        h[np.ix_(fi, si)] = coupling
        h[np.ix_(si, fi)] = coupling.conj().T
        return Case(cls, {"h": h, "slow": [int(i) for i in si], "fast": fi,
                          "eps": eps, "eps_prime": eps_prime, "gap": gap})

    def run(self, case: Case):
        e = self.lib
        ph = e.partition_hamiltonian(case.data["h"], case.data["slow"])
        scales = e.coupling_scales(ph)
        adiabatic = e.adiabatic_hamiltonian(ph)
        series = e.hermitian_effective(ph, e.perturbative_bloch(ph, 4))
        embedding = e.iterate_bloch(ph)
        converged = e.hermitian_effective(ph, embedding)
        spectrum = converged.spectrum()
        sw = e.sw_first_order_hamiltonian(ph)
        generator = e.generator_from_embedding(embedding)
        return {"scales": scales, "adiabatic": adiabatic.matrix,
                "perturbative4": series.matrix, "converged": converged.matrix,
                "spectrum": spectrum, "sw_first": sw.matrix,
                "rotation": generator.rotation}

    def check(self, case: Case, outcome) -> str | None:
        d = case.data
        if case.cls == "singular":
            if isinstance(outcome, self.lib.SingularFastBlock):
                return None
            return f"expected SingularFastBlock, got {outcome!r:.80}"
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        p = len(d["slow"])
        eps, eps_prime, gap = d["eps"], d["eps_prime"], d["gap"]
        ref = slow_reference(d["h"], p, eps, eps_prime, gap)
        scales = outcome["scales"]
        if (abs(scales.epsilon - eps) > 1e-9 * eps
                or abs(scales.epsilon_prime - eps_prime) > 1e-9 * eps_prime
                or scales.radius is None):
            return "coupling scales disagree with the generated ones"
        if np.max(np.abs(np.sort(outcome["spectrum"]) - ref)) > ITERATE_TOL * gap:
            return "iterate spectrum differs from eigvalsh of the full matrix"
        for route in ("converged",) + tuple(APPROX_ORDER):
            m = outcome[route]
            if _max_hermitian_defect(m) > HERMITIAN_TOL:
                return f"{route} operator is not hermitian"
            if route in APPROX_ORDER:
                err = np.max(np.abs(np.linalg.eigvalsh(m) - ref))
                if err > approx_bound(gap, eps, eps_prime, route):
                    return f"{route} spectrum error {err:.3e} above its bound"
        rot = outcome["rotation"]
        n = rot.shape[0]
        if np.max(np.abs(rot.conj().T @ rot - np.eye(n))) > ROTATION_TOL:
            return "rotation is not unitary"
        order = list(d["slow"]) + list(d["fast"])
        part = d["h"][np.ix_(order, order)]
        rotated = rot.conj().T @ part @ rot
        if np.max(np.abs(rotated[p:, :p])) > ROTATION_TOL * gap:
            return "rotation does not block-diagonalize the operator"
        return None


# ---------------------------------------------------------------------------
# floquet-drive


def _propagator_period(comps, omega, steps):
    """One-period propagator by midpoint piecewise exponentials, in numpy."""
    period = 2.0 * np.pi / omega
    h = period / steps
    mids = (np.arange(steps) + 0.5) * h
    d = next(iter(comps.values())).shape[0]
    hams = np.zeros((steps, d, d), dtype=complex)
    for k, comp in comps.items():
        hams += np.exp(-1j * k * omega * mids)[:, None, None] * comp
    vals, vecs = np.linalg.eigh(hams)
    steps_u = (vecs * np.exp(-1j * vals * h)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    u = np.eye(d, dtype=complex)
    for step in steps_u:
        u = step @ u
    return u


def _quasi_from_propagator(u, omega):
    angles = np.angle(np.linalg.eigvals(u))
    return np.sort(_fold(-angles * omega / (2.0 * np.pi), omega))


def _fold(x, omega):
    x = np.asarray(x, dtype=float)
    return x - omega * np.floor(x / omega + 0.5)


def _zone_distance(a, b, omega):
    """Largest distance between two sorted quasi-energy lists on the zone circle."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(_fold(a - b, omega))))


class FloquetDrive:
    """Periodic drives with one or two harmonics.

    Classes (per block of 25): ``resonant`` 1 (4%), a drive with a spectator
    state at energy exactly one drive quantum, so the fast sector of the
    harmonic ladder is exactly singular; ``d2`` 3 (12%), d=2, one
    harmonic, auto-cutoff ends at 8; ``d4`` 16 (64%), d=4, two harmonics,
    ends at 16; ``d8`` 5 (20%), d=8, two harmonics, ends at 16.  p50 falls
    at the median of ``d4`` (16-80%) and p90 at the median of ``d8``
    (80-100%).  No class ends at cutoff 32: drives strong
    enough to need it make ``iterate_bloch`` diverge on the ladder.
    """

    name = "floquet-drive"
    entry_module = "effham"
    classes = [("resonant", 1), ("d2", 3), ("d4", 16), ("d8", 5)]
    # dim, harmonics, drive-frequency range, first-harmonic norm
    SPECS = {"d2": (2, 1, (10.0, 12.0), 1.0), "d4": (4, 2, (7.0, 9.0), 1.5),
             "d8": (8, 2, (14.0, 18.0), 2.0)}
    TINY_SPECS = {"d2": (2, 1, (10.0, 12.0), 1.0), "d4": (2, 2, (10.0, 12.0), 1.0),
                  "d8": (3, 1, (12.0, 14.0), 1.0)}
    PERIODS = 16
    TINY_PERIODS = 2
    REFERENCE_STEPS = 2048

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.specs = self.TINY_SPECS if tiny else self.SPECS
        self.periods = self.TINY_PERIODS if tiny else self.PERIODS
        import effham
        self.lib = effham

    def params(self) -> dict:
        return {"classes": dict(self.classes),
                "specs": {k: {"dim": v[0], "harmonics": v[1], "omega": v[2],
                              "first_harmonic_norm": v[3]}
                          for k, v in self.specs.items()},
                "static_norm": 1.0, "periods": self.periods,
                "reference_steps": self.REFERENCE_STEPS}

    def block(self, index: int) -> list[Case]:
        rng = np.random.default_rng([self.seed, index])
        return [self._make(rng, cls)
                for cls in _shuffled_classes(rng, self.classes)]

    def _make(self, rng, cls) -> Case:
        if cls == "resonant":
            d, omega = 2, float(rng.integers(8, 13))
            drive = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            # State 0 sits at exactly one drive quantum and is not driven.
            comps = {0: np.diag([omega, rng.uniform(-1.0, 1.0)]).astype(complex),
                     1: np.array([[0, 0], [0, drive]], dtype=complex)}
            comps[-1] = comps[1].conj().T
            return Case(cls, {"dim": d, "omega": omega, "comps": comps})
        d, harmonics, omega_range, norm = self.specs[cls]
        omega = rng.uniform(*omega_range)
        comps = {0: _random_hermitian(rng, d, 1.0)}
        for k in range(1, harmonics + 1):
            comps[k] = _random_coupling(rng, d, d, norm / k)
            comps[-k] = comps[k].conj().T
        return Case(cls, {"dim": d, "omega": omega, "comps": comps,
                          "start": int(rng.integers(d))})

    def run(self, case: Case):
        e = self.lib
        d = case.data
        spec = e.FloquetSpec(dim=d["dim"], drive_frequency=d["omega"],
                             components=d["comps"])
        if case.cls == "resonant":
            raised = []
            for call in (lambda: e.quasi_energies_effective(spec, "adiabatic"),
                         lambda: e.quasi_energies_effective(spec, "iterate",
                                                            cutoff=8)):
                try:
                    call()
                    raised.append(None)
                except e.SingularFastBlock as exc:
                    raised.append(exc)
            return raised
        diag = e.quasi_energies_diag(spec)
        adiabatic = e.quasi_energies_effective(spec, "adiabatic")
        iterate = e.quasi_energies_effective(spec, "iterate", cutoff=diag.cutoff)
        mono = e.quasi_energies_monodromy(spec)
        start = np.zeros(d["dim"], dtype=complex)
        start[d["start"]] = 1.0
        series = e.evolve_periodic(spec, e.StateVector(start),
                                   np.arange(self.periods + 1) * spec.period)
        return {"diag": diag.values, "adiabatic": adiabatic.values,
                "iterate": iterate.values, "monodromy": mono.values,
                "amplitudes": series.amplitudes}

    def check(self, case: Case, outcome) -> str | None:
        d = case.data
        if case.cls == "resonant":
            if (isinstance(outcome, list)
                    and all(isinstance(x, self.lib.SingularFastBlock) for x in outcome)):
                return None
            return f"expected SingularFastBlock from both routes, got {outcome!r:.80}"
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        omega, dim = d["omega"], d["dim"]
        u_period = _propagator_period(d["comps"], omega, self.REFERENCE_STEPS)
        reference = _quasi_from_propagator(u_period, omega)
        for route in ("diag", "iterate", "monodromy"):
            if _zone_distance(outcome[route], reference, omega) > FLOQUET_TOL:
                return f"{route} quasi-energies disagree with the propagator"
        if _zone_distance(outcome["iterate"], outcome["diag"], omega) > ITERATE_TOL:
            return "iterate and diag quasi-energies disagree"
        ad = np.asarray(outcome["adiabatic"])
        if ad.shape != (dim,) or not np.all(np.abs(ad) <= omega / 2):
            return "adiabatic quasi-energies are outside the zone"
        # The program's scheme has 256 midpoint substeps per period; the
        # gap between a 256-step and a finer propagator bounds its error.
        coarse = _propagator_period(d["comps"], omega, 256)
        start = np.zeros(dim, dtype=complex)
        start[d["start"]] = 1.0
        if outcome["amplitudes"].shape != (self.periods + 1, dim):
            return "evolve_periodic returned the wrong number of samples"
        fine_psi, coarse_psi = start.copy(), start.copy()
        err = scheme = 0.0
        for amplitudes in outcome["amplitudes"]:
            err = max(err, float(np.max(np.abs(amplitudes - fine_psi))))
            scheme = max(scheme, float(np.max(np.abs(coarse_psi - fine_psi))))
            fine_psi, coarse_psi = u_period @ fine_psi, coarse @ coarse_psi
        if err > 2.0 * scheme + EVOLVE_TOL:
            return f"evolve_periodic departs from the propagator by {err:.2e}"
        return None


# ---------------------------------------------------------------------------
# cli-small


def _lambda_doc(det, gap, ra, rb):
    return {"lambda_system": {"detuning": det, "gap": gap,
                              "rabi_a": [ra.real, ra.imag],
                              "rabi_b": [rb.real, rb.imag]}}


def _lambda_matrix(det, gap, ra, rb):
    return np.array([[-0.5 * det, 0, 0.5 * np.conj(ra)],
                     [0, 0.5 * det, 0.5 * np.conj(rb)],
                     [0.5 * ra, 0.5 * rb, gap]], dtype=complex)


def _qubit_comps(g, delta):
    return {-1: np.array([[0, g], [0, 0]], dtype=complex),
            0: np.array([[0.5 * delta, 0], [0, -0.5 * delta]], dtype=complex),
            1: np.array([[0, 0], [np.conj(g), 0]], dtype=complex)}


def _qubit_doc(omega, g, delta):
    comps = _qubit_comps(g, delta)
    return {"floquet": {"dim": 2, "drive_frequency": omega, "components": {
        str(k): [[[complex(x).real, complex(x).imag] for x in row] for row in m]
        for k, m in comps.items()}}}


def _lambda_scales(det, gap, ra, rb):
    eps = 0.5 * abs(det) / gap
    eps_prime = 0.5 * math.hypot(abs(ra), abs(rb)) / gap
    return eps, eps_prime


def _parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class CliSmall:
    """Three-level and driven-qubit model files through ``effham.cli.main``.

    Classes (per block of 50): ``malformed`` 5 (10%) whose correct
    outcome is exit code 2 or 3, among them one of each documented leak;
    ``solve`` 12 (24%), three with each ``--method``; ``simulate`` 16
    (32%); ``floquet`` 7 (14%); ``sweep`` 10 (20%).  Measured latencies
    rise in that order, so p50 falls at the median of ``simulate``
    (34-66%) and p90 at the median of ``sweep`` (80-100%).
    """

    name = "cli-small"
    entry_module = "effham.cli"
    classes = [("malformed", 5), ("solve", 12), ("simulate", 16),
               ("floquet", 7), ("sweep", 10)]
    METHODS = ("adiabatic", "iterate", "perturb", "sw")
    SWEEP_POINTS = 24
    SAMPLES = 201
    TMAX = 100.0
    # Inputs whose ValueError escapes main today instead of exit code 2.
    LEAKS = ("nan_entry", "nonpositive_frequency", "floquet_steps_10")
    MALFORMED = {  # variant -> expected exit code
        "bad_json": 2, "missing_key": 2, "ragged_rows": 2, "unknown_method": 2,
        "floquet_on_lambda": 2, "one_sided_component": 3, "not_hermitian": 3,
        "singular_fast_block": 3}

    def __init__(self, seed: int, tiny: bool = False, *, workdir: str):
        self.seed = seed
        self.sweep_points = 3 if tiny else self.SWEEP_POINTS
        self.samples = 11 if tiny else self.SAMPLES
        self.workdir = workdir
        import effham.cli
        self.cli = effham.cli

    def params(self) -> dict:
        return {"classes": dict(self.classes), "methods": self.METHODS,
                "sweep_points": self.sweep_points, "samples": self.samples,
                "tmax": self.TMAX, "detuning": (-0.05, 0.05), "gap": (0.8, 1.5),
                "rabi": (0.1, 0.4), "qubit_omega": (8.0, 12.0),
                "qubit_coupling": (0.3, 1.0), "leaks": self.LEAKS,
                "malformed": self.MALFORMED}

    def _lambda_params(self, rng):
        det = float(rng.uniform(-0.05, 0.05))
        gap = float(rng.uniform(0.8, 1.5))
        ra, rb = (complex(rng.uniform(0.1, 0.4) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                  for _ in range(2))
        return det, gap, ra, rb

    def _qubit_params(self, rng):
        return (float(rng.uniform(8.0, 12.0)),
                complex(rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))),
                float(rng.uniform(-1.0, 1.0)))

    def block(self, index: int) -> list[Case]:
        rng = np.random.default_rng([self.seed, index])
        labels = _shuffled_classes(rng, self.classes)
        malformed = list(self.LEAKS) + [
            str(v) for v in rng.choice(sorted(self.MALFORMED), 2, replace=False)]
        rng.shuffle(malformed)
        methods = list(self.METHODS) * (dict(self.classes)["solve"] // len(self.METHODS))
        rng.shuffle(methods)
        cases = []
        for k, cls in enumerate(labels):
            path = os.path.join(self.workdir, f"model-{index}-{k}.json")
            if cls == "malformed":
                case, text = self._malformed(rng, malformed.pop(), path)
            elif cls == "floquet":
                omega, g, delta = self._qubit_params(rng)
                text = json.dumps(_qubit_doc(omega, g, delta))
                case = Case(cls, {"argv": ["floquet", path, "--methods",
                                           "monodromy,diag,adiabatic"],
                                  "qubit": (omega, g, delta)})
            else:
                lam = self._lambda_params(rng)
                text = json.dumps(_lambda_doc(*lam))
                if cls == "solve":
                    argv = ["solve", path, "--method", methods.pop()]
                elif cls == "sweep":
                    name = ("rabi_a", "rabi_b")[int(rng.integers(2))]
                    lo, hi = sorted(float(x) for x in rng.uniform(0.1, 0.4, 2))
                    argv = ["solve", path, "--method", "iterate", "--sweep",
                            f"{name}:{lo!r}:{hi!r}:{self.sweep_points}"]
                else:
                    argv = ["simulate", path, "--tmax", repr(self.TMAX),
                            "--samples", str(self.samples),
                            "--generators", "exact,adiabatic"]
                case = Case(cls, {"argv": argv, "lambda": lam})
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            cases.append(case)
        return cases

    def _malformed(self, rng, variant, path) -> tuple[Case, str]:
        det, gap, ra, rb = self._lambda_params(rng)
        lam = _lambda_doc(det, gap, ra, rb)
        omega, g, delta = self._qubit_params(rng)
        argv = ["solve", path]
        if variant == "bad_json":
            text = json.dumps(lam)[:-3]
        elif variant == "missing_key":
            del lam["lambda_system"]["gap"]
            text = json.dumps(lam)
        elif variant == "ragged_rows":
            text = json.dumps({"matrix": {"hamiltonian": [[1, 0, 0], [0, 1]],
                                          "slow_indices": [0]}})
        elif variant == "unknown_method":
            text = json.dumps(lam)
            argv += ["--method", "exact"]
        elif variant == "floquet_on_lambda":
            text = json.dumps(lam)
            argv = ["floquet", path]
        elif variant == "one_sided_component":
            doc = _qubit_doc(omega, g, delta)
            del doc["floquet"]["components"]["-1"]
            text = json.dumps(doc)
            argv = ["floquet", path]
        elif variant == "not_hermitian":
            h = _lambda_matrix(det, gap, ra, rb)
            h[0, 2] += 0.1
            text = json.dumps({"matrix": {
                "hamiltonian": [[[z.real, z.imag] for z in row] for row in h],
                "slow_indices": [0, 1]}})
        elif variant == "singular_fast_block":
            h = _lambda_matrix(det, 0.0, ra, rb)
            text = json.dumps({"matrix": {
                "hamiltonian": [[[z.real, z.imag] for z in row] for row in h],
                "slow_indices": [0, 1]}})
        elif variant == "nan_entry":
            h = _lambda_matrix(det, gap, ra, rb).real.tolist()
            h[2][2] = float("nan")
            text = json.dumps({"matrix": {"hamiltonian": h, "slow_indices": [0, 1]}})
        elif variant == "nonpositive_frequency":
            text = json.dumps(_qubit_doc(-omega, g, delta))
            argv = ["floquet", path]
        elif variant == "floquet_steps_10":
            # A drive strong enough that ten steps leave step*||H|| above 0.1.
            strong = g / abs(g) * rng.uniform(1.0, 1.5)
            text = json.dumps(_qubit_doc(rng.uniform(8.0, 9.0), strong, delta))
            argv = ["floquet", path, "--methods", "monodromy", "--steps", "10"]
        else:  # pragma: no cover - variants are a closed list
            raise ValueError(variant)
        return Case("malformed", {"argv": argv, "variant": variant}), text

    def run(self, case: Case):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(case.data["argv"])
            except SystemExit as exc:
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    def check(self, case: Case, outcome) -> str | None:
        d = case.data
        if case.cls == "malformed":
            variant = d["variant"]
            expected = 2 if variant in self.LEAKS else self.MALFORMED[variant]
            if isinstance(outcome, CliResult) and outcome.code == expected:
                return None
            if variant in self.LEAKS and type(outcome) is ValueError:
                return LEAK
            return f"{variant}: expected exit {expected}, got {outcome!r:.80}"
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        if outcome.code != 0:
            return f"exit code {outcome.code}: {outcome.stderr[-200:]}"
        try:
            return getattr(self, f"_check_{case.cls}")(d, outcome.stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparsable {case.cls} output: {exc}"

    def _check_solve(self, d, stdout):
        report = json.loads(stdout)
        det, gap, ra, rb = d["lambda"]
        h = _lambda_matrix(det, gap, ra, rb)
        eps, eps_prime = _lambda_scales(det, gap, ra, rb)
        ref = slow_reference(h, 2, eps, eps_prime, gap)
        full = np.linalg.eigvalsh(h)
        if np.max(np.abs(np.asarray(report["full_spectrum"]) - full)) > CLI_TOL:
            return "full_spectrum differs from eigvalsh"
        if (abs(report["epsilon"] - eps) > 1e-12 * max(eps, 1e-300) + 1e-15
                or abs(report["epsilon_prime"] - eps_prime) > 1e-12 * eps_prime):
            return "epsilon values differ from numpy"
        m = np.array([[complex(*z) for z in row]
                      for row in report["effective_hamiltonian"]])
        if not report["hermitian"] or _max_hermitian_defect(m) > HERMITIAN_TOL:
            return "effective hamiltonian is not hermitian"
        spectrum = np.asarray(report["spectrum"])
        if np.max(np.abs(spectrum - np.linalg.eigvalsh(m))) > CLI_TOL:
            return "reported spectrum is not that of the reported matrix"
        method = d["argv"][3]
        if method == "iterate":
            bound = ITERATE_TOL * gap
        else:
            route = {"adiabatic": "adiabatic", "perturb": "perturbative4",
                     "sw": "sw_first"}[method]
            bound = approx_bound(gap, eps, eps_prime, route)
        if np.max(np.abs(spectrum - ref)) > bound:
            return f"{method} spectrum error above its bound"
        return None

    def _check_sweep(self, d, stdout):
        header, rows = _parse_csv(stdout)
        name, lo, hi, count = d["argv"][-1].split(":")
        if header != [name, "eig_0", "eig_1", "bloch_residual", "epsilon",
                      "epsilon_prime", "radius"] or len(rows) != int(count):
            return "sweep table has the wrong shape"
        det, gap, ra, rb = d["lambda"]
        for value, row in zip(np.linspace(float(lo), float(hi), int(count)), rows):
            if float(row[0]) != float(value):
                return "sweep parameter values differ from linspace"
            params = {"rabi_a": ra, "rabi_b": rb}
            params[name] = complex(float(value))
            eps, eps_prime = _lambda_scales(det, gap, params["rabi_a"], params["rabi_b"])
            h = _lambda_matrix(det, gap, params["rabi_a"], params["rabi_b"])
            ref = slow_reference(h, 2, eps, eps_prime, gap)
            got = np.array([float(x) for x in row[1:3]])
            if np.max(np.abs(got - ref)) > ITERATE_TOL * gap:
                return "sweep eigenvalues differ from eigvalsh"
            if abs(float(row[5]) - eps_prime) > 1e-12 * eps_prime:
                return "sweep epsilon_prime differs from numpy"
        return None

    def _check_simulate(self, d, stdout):
        det, gap, ra, rb = d["lambda"]
        h = _lambda_matrix(det, gap, ra, rb)
        slow, coupling = h[:2, :2], h[2:, :2]
        generators = {"exact": (h, np.array([1, 0, 0], dtype=complex)),
                      "adiabatic": (slow - coupling.conj().T @ coupling / gap,
                                    np.array([1, 0], dtype=complex))}
        sections = stdout.split("# generator: ")[1:]
        if [s.split("\n", 1)[0] for s in sections] != list(generators):
            return "simulate output has the wrong sections"
        times = np.linspace(0.0, self.TMAX, self.samples)
        for section, (gen, psi0) in zip(sections, generators.values()):
            header, rows = _parse_csv(section.split("\n", 1)[1])
            table = np.array([[float(x) for x in row] for row in rows])
            vals, vecs = np.linalg.eigh(gen)
            amps = (np.exp(-1j * np.outer(times, vals)) * (vecs.conj().T @ psi0)) @ vecs.T
            if table.shape != (times.size, psi0.size + 2):
                return "simulate table has the wrong shape"
            if (np.max(np.abs(table[:, 0] - times)) > 0
                    or np.max(np.abs(table[:, 1:-1] - np.abs(amps) ** 2)) > CLI_TOL
                    or np.max(np.abs(table[:, -1] - 1.0)) > CLI_TOL):
                return "populations differ from numpy evolution"
        return None

    def _check_floquet(self, d, stdout):
        omega, g, delta = d["qubit"]
        header, rows = _parse_csv(stdout)
        if header != ["method", "q_0", "q_1", "max_dev"] or [r[0] for r in rows] != [
                "monodromy", "diag", "adiabatic"]:
            return "floquet table has the wrong shape"
        values = {r[0]: np.array([float(x) for x in r[1:3]]) for r in rows}
        reference = _quasi_from_propagator(
            _propagator_period(_qubit_comps(g, delta), omega,
                               FloquetDrive.REFERENCE_STEPS), omega)
        for route in ("monodromy", "diag"):
            if _zone_distance(values[route], reference, omega) > FLOQUET_TOL:
                return f"{route} quasi-energies disagree with the propagator"
        for r in rows:
            dev = float(np.max(np.abs(values[r[0]] - values["monodromy"])))
            if abs(float(r[3]) - dev) > 1e-15 * max(1.0, omega):
                return "max_dev column does not match the table"
        if not np.all(np.abs(values["adiabatic"]) <= omega / 2):
            return "adiabatic quasi-energies are outside the zone"
        return None


WORKLOADS = {w.name: w for w in (EmbedDense, FloquetDrive, CliSmall)}
