"""Time-periodic Hamiltonians: harmonic lattice operator and quasi-energies.

A periodic drive ``H(t) = sum_k H_k exp(-i k w t)`` with ``H_k^dagger =
H_{-k}`` is represented by its Fourier components.  Truncating the harmonic
index at a cutoff ``N`` yields a finite hermitian operator on ``2N + 1``
copies of the system whose central (zero-harmonic) block plays the role of
the slow sector, so every static elimination tool in this package applies.
Quasi-energies are computed three independent ways: eigenphases of the
integrated one-period propagator, direct diagonalization of the truncated
operator, and elimination down to an effective zero-harmonic block.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrixkit
# perfbench's selftest checks that its tracer patches this binding too.
from .bloch import iterate_bloch  # noqa: F401
from .errors import (
    ConvergenceFailure,
    CutoffTooSmall,
    NonUnitaryMonodromy,
    NotHermitian,
    SeriesDiverging,
    ShapeMismatch,
    SingularFastBlock,
)
from .partition import PartitionedHamiltonian, partition_hamiltonian
from .schriefferwolff import _effective_route

__all__ = [
    "FloquetSpec",
    "TruncatedFloquetOperator",
    "QuasiEnergySet",
    "build_floquet",
    "floquet_partition",
    "fold_quasienergy",
    "monodromy",
    "quasi_energies_monodromy",
    "quasi_energies_diag",
    "quasi_energies_effective",
    "restricted_inverse_series",
    "first_order_floquet_hamiltonian",
]

# Smallest zero-harmonic weight gap at which quasi_energies_diag picks states.
ZERO_HARMONIC_WEIGHT_GAP = 1e-6
# The automatic cutoff doubles until a method's folded values move at most
# CUTOFF_TARGET between two cutoffs, or for diag sooner, once its truncation
# certificate (_truncation_bound) is at most CUTOFF_TARGET; it gives up past
# CUTOFF_CAP.
CUTOFF_TARGET = 1e-10
CUTOFF_CAP = 256


@dataclass
class FloquetSpec:
    """Fourier data of a periodic Hamiltonian.

    ``components[k]`` is the coefficient of ``exp(-i k w t)``; hermiticity
    of ``H(t)`` requires ``components[k]^dagger == components[-k]``, which
    is validated on construction (a one-sided component is rejected).  The
    zero component may be omitted and is then treated as zero.
    """

    dim: int
    drive_frequency: float
    components: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ShapeMismatch(f"dimension must be positive, got {self.dim}")
        if not self.drive_frequency > 0.0:
            raise ValueError(
                f"drive frequency must be positive, got {self.drive_frequency}")
        clean: dict[int, np.ndarray] = {}
        for k, comp in self.components.items():
            arr = matrixkit.as_matrix(comp, f"component {k}")
            if arr.shape != (self.dim, self.dim):
                raise ShapeMismatch(
                    f"component {k} has shape {arr.shape}, expected "
                    f"({self.dim}, {self.dim})")
            clean[int(k)] = arr
        for k, arr in clean.items():
            partner = clean.get(-k)
            if partner is None:
                raise NotHermitian(
                    f"component {k} has no adjoint partner at harmonic {-k}")
            excess = matrixkit._hermiticity_excess(arr, matrixkit.HERM_TOL,
                                                   partner)
            if excess is not None:
                raise NotHermitian(
                    f"components {k} and {-k} are not mutually adjoint "
                    f"(deviation {excess[0]:.3e})", deviation=excess[0])
        self.components = clean

    @property
    def max_harmonic(self) -> int:
        return max((abs(k) for k in self.components), default=0)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.drive_frequency

    def component(self, k: int) -> np.ndarray:
        """Fourier component ``k``, zero if absent."""
        comp = self.components.get(int(k))
        if comp is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return comp

    def hamiltonian_at(self, times) -> np.ndarray:
        """``H(t)`` sampled at a scalar or an array of times."""
        t = np.asarray(times, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros((t.size, self.dim, self.dim), dtype=complex)
        w = self.drive_frequency
        for k, comp in sorted(self.components.items()):
            out += np.exp(-1j * k * w * t)[:, None, None] * comp[None, :, :]
        return out[0] if scalar else out

    def norm_bound(self) -> float:
        """Upper bound ``sum_k ||H_k||`` on ``||H(t)||``."""
        return float(sum(matrixkit.spectral_norm(c)
                         for c in self.components.values()))


@dataclass(frozen=True)
class TruncatedFloquetOperator:
    """Hermitian operator on the harmonic lattice truncated at ``cutoff``.

    Block ``(m', m)`` holds the Fourier component ``m' - m``, and block
    ``(m, m)`` is shifted by ``-m * drive_frequency``.  Harmonics run over
    ``-cutoff .. cutoff``; component ``i`` of harmonic ``m`` sits at row
    ``(m + cutoff) * dim + i``.
    """

    matrix: np.ndarray
    cutoff: int
    dim: int
    drive_frequency: float

    @property
    def harmonics(self) -> range:
        return range(-self.cutoff, self.cutoff + 1)

    @property
    def zero_harmonic_indices(self) -> tuple[int, ...]:
        start = self.cutoff * self.dim
        return tuple(range(start, start + self.dim))

    def block(self, row_harmonic: int, col_harmonic: int) -> np.ndarray:
        n, d = self.cutoff, self.dim
        if not (-n <= row_harmonic <= n and -n <= col_harmonic <= n):
            raise ShapeMismatch(
                f"harmonic pair ({row_harmonic}, {col_harmonic}) outside "
                f"cutoff {n}")
        r = (row_harmonic + n) * d
        c = (col_harmonic + n) * d
        return self.matrix[r:r + d, c:c + d]


@dataclass(frozen=True)
class QuasiEnergySet:
    """Quasi-energies folded into ``(-w/2, w/2]`` and sorted ascending;
    the monodromy method records its ``steps`` and ``unitarity_defect``,
    the ladder methods their ``cutoff``, and ``diag`` its
    ``truncation_bound`` at that cutoff (inf where uncertified)."""

    values: np.ndarray
    method: str
    drive_frequency: float
    cutoff: int | None = None
    steps: int | None = None
    unitarity_defect: float | None = None
    truncation_bound: float | None = None


def build_floquet(spec: FloquetSpec,
                  cutoff: int) -> TruncatedFloquetOperator:
    """Assemble the truncated harmonic-lattice operator.

    ``cutoff`` must reach the highest harmonic present in the drive
    (:class:`CutoffTooSmall` otherwise); the assembled matrix is
    hermitized so the pairing tolerance of the components cannot leak
    into downstream hermiticity checks.
    """
    if cutoff < 1:
        raise CutoffTooSmall(f"cutoff must be >= 1, got {cutoff}")
    if cutoff < spec.max_harmonic:
        raise CutoffTooSmall(
            f"cutoff {cutoff} cannot hold harmonic {spec.max_harmonic}")
    d = spec.dim
    n_blocks = 2 * cutoff + 1
    size = n_blocks * d
    out = np.zeros((size, size), dtype=complex)
    for k, comp in sorted(spec.components.items()):
        # block (m + k, m) for every m with both harmonics inside the cutoff
        for m in range(max(-cutoff, -cutoff - k), min(cutoff, cutoff - k) + 1):
            r, c = (m + k + cutoff) * d, (m + cutoff) * d
            out[r:r + d, c:c + d] += comp
    shifts = -spec.drive_frequency * np.arange(-cutoff, cutoff + 1)
    out[np.arange(size), np.arange(size)] += np.repeat(shifts, d)
    return TruncatedFloquetOperator(matrix=matrixkit.hermitize(out),
                                    cutoff=cutoff, dim=d,
                                    drive_frequency=spec.drive_frequency)


def floquet_partition(tfo: TruncatedFloquetOperator) -> PartitionedHamiltonian:
    """Partition the truncated operator along its zero-harmonic block.

    A singular fast sector signals a resonance between the zero-harmonic
    spectrum and a shifted copy; the offending harmonic is attached to the
    raised :class:`SingularFastBlock`.
    """
    try:
        return partition_hamiltonian(tfo.matrix, tfo.zero_harmonic_indices)
    except SingularFastBlock as exc:
        central = matrixkit.hermitian_eig(tfo.block(0, 0)).values
        w = tfo.drive_frequency
        best_gap, best_m = min((float(np.min(np.abs(central - m * w))), m)
                               for m in tfo.harmonics if m != 0)
        raise SingularFastBlock(
            f"fast sector is resonant: zero-harmonic spectrum approaches "
            f"harmonic {best_m} within {best_gap:.3e}",
            condition=exc.condition, harmonic=best_m) from exc


def fold_quasienergy(values, drive_frequency: float):
    """Fold energies into the zone ``(-w/2, w/2]``; idempotent."""
    if not drive_frequency > 0.0:
        raise ValueError(
            f"drive frequency must be positive, got {drive_frequency}")
    x = np.asarray(values, dtype=float)
    w = drive_frequency
    folded = x - w * np.floor(x / w + 0.5)
    # Rounding can leave a value just past either edge; shifting it by w is
    # exact there (Sterbenz), which also makes folding idempotent.
    folded = np.where(folded <= -0.5 * w, folded + w, folded)
    folded = np.where(folded > 0.5 * w, folded - w, folded)
    return float(folded) if x.ndim == 0 else folded


# Two-exponential commutator-free scheme of order 4 (Alvermann & Fehske,
# J. Comput. Phys. 230, 5930 (2011)): Gauss nodes 1/2 -+ sqrt(3)/6 and
# weights (3 -+ 2 sqrt(3))/12.
_CF4_NODES = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
_CF4_WEIGHTS = ((3.0 - 2.0 * np.sqrt(3.0)) / 12.0,
                (3.0 + 2.0 * np.sqrt(3.0)) / 12.0)


def _exp_product(generators: np.ndarray, h: float) -> np.ndarray:
    """Ordered product ``exp(-i h G_{n-1}) ... exp(-i h G_0)`` of a stack of
    hermitian generators, from one batched ``eigh`` and a pairwise tree."""
    vals, vecs = np.linalg.eigh(generators)
    cur = (vecs * np.exp(-1j * vals * h)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    while cur.shape[0] > 1:
        n = cur.shape[0]
        m = n // 2
        prod = cur[1:2 * m:2] @ cur[0:2 * m:2]
        if n % 2:
            prod = np.concatenate([prod, cur[2 * m:]], axis=0)
        cur = prod
    return cur[0]


def _cf4_propagator(spec: FloquetSpec, start: float, stop: float,
                    steps: int) -> np.ndarray:
    """Ordered product of ``steps`` equal fourth-order commutator-free steps
    covering ``[start, stop]``, two exponentials each (see :func:`monodromy`)."""
    h = (stop - start) / steps
    # start + k h first, then + c h: this order fixes monodromy's rounding.
    nodes = start + np.arange(steps) * h + h * _CF4_NODES[:, None]
    h1, h2 = spec.hamiltonian_at(nodes.ravel()).reshape(
        2, steps, spec.dim, spec.dim)
    a1, a2 = _CF4_WEIGHTS
    gens = np.empty((2 * steps, spec.dim, spec.dim), dtype=complex)
    gens[0::2] = a2 * h1 + a1 * h2  # acts first in each step
    gens[1::2] = a1 * h1 + a2 * h2
    return _exp_product(gens, h)


def _steps_per_period(norm_period: float, minimum: int) -> int:
    """``max(minimum, ceil(10 ||H|| T))`` steps, ``norm_period = ||H|| T``."""
    return int(max(minimum, np.ceil(10.0 * norm_period)))


def monodromy(spec: FloquetSpec, steps: int | None = None, *,
              _report: dict | None = None) -> np.ndarray:
    """One-period propagator by the fourth-order commutator-free scheme.

    Each of the ``steps`` steps of length ``h`` samples ``H_1, H_2`` at the
    Gauss nodes ``1/2 -+ sqrt(3)/6`` of the step and applies
    ``exp(-i h (a_2 H_1 + a_1 H_2))`` then ``exp(-i h (a_1 H_1 + a_2 H_2))``
    with ``a_{1,2} = (3 -+ 2 sqrt(3))/12``: two exponentials per step, each
    through a hermitian eigendecomposition, so every factor is unitary to
    rounding.  ``steps`` defaults to ``max(256, ceil(10 ||H|| T))`` with
    ``||H||`` bounded by :meth:`FloquetSpec.norm_bound`; any count that
    leaves ``h * ||H||`` above 0.1 is rejected with ValueError.  Raises
    :class:`NonUnitaryMonodromy` when ``||U^dagger U - 1||`` exceeds 1e-8;
    ``_report``, if given, receives the step count used and that defect.
    """
    period = spec.period
    bound = max(spec.norm_bound(), 1e-30)
    if steps is None:
        steps = _steps_per_period(bound * period, 256)
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    h = period / steps
    if h * bound > 0.1 + 1e-12:
        raise ValueError(
            f"{steps} steps leave step*||H|| = {h * bound:.3e} above 0.1; "
            f"refine the grid")
    u = _cf4_propagator(spec, 0.0, period, steps)
    defect = matrixkit.spectral_norm(
        u.conj().T @ u - np.eye(spec.dim))
    if defect > 1e-8:
        raise NonUnitaryMonodromy(
            f"one-period propagator unitarity defect {defect:.3e} exceeds 1e-08")
    if _report is not None:
        _report.update(steps=steps, unitarity_defect=defect)
    return u


def quasi_energies_monodromy(spec: FloquetSpec,
                             steps: int | None = None) -> QuasiEnergySet:
    """Quasi-energies from the eigenphases of :func:`monodromy`.

    The propagator takes ``steps`` fourth-order commutator-free steps (two
    exponentials each), by default ``max(256, ceil(10 ||H|| T))``; a count
    that leaves ``step * ||H||`` above 0.1 raises ValueError.  Records the
    step count used and the propagator's unitarity defect."""
    # Through the public name, so perfbench's tracer counts these substeps
    # as monodromy substeps; the step count is validated there, once.
    report: dict = {}
    u = monodromy(spec, steps, _report=report)
    eigvals = np.linalg.eigvals(u)
    # Unitary input: eigenvalues sit on the unit circle to rounding.
    angles = np.angle(eigvals)
    energies = fold_quasienergy(
        -angles * spec.drive_frequency / (2.0 * np.pi), spec.drive_frequency)
    return QuasiEnergySet(values=np.sort(energies), method="monodromy",
                          drive_frequency=spec.drive_frequency, **report)


def _truncation_bound(spec: FloquetSpec, tfo: TruncatedFloquetOperator,
                      values: np.ndarray, vectors: np.ndarray) -> float:
    """Largest bound on the distance from a picked ladder eigenvalue to the
    exact quasi-energy it stands for; inf unless every pair is certified.

    Extend the eigenpair ``(mu_i, v_i)`` of the ladder truncated at ``N`` by
    zero to the infinite ladder, whose spectrum is ``{e_j + m w}`` over the
    ``d`` exact quasi-energies ``e_j`` and all integers ``m``.  Inside the
    cutoff ``(H - mu_i) v_i`` vanishes, so its norm is the leakage

        r_i = || sum_k H_k v_{i,m} ||  over harmonics |m + k| > N,

    fed only by the ``K`` edge blocks at each end (``K`` the highest
    harmonic), and ``mu_i`` is still the Rayleigh quotient of ``v_i``.
    Each interval ``mu_j +- r_j`` then holds a point of the spectrum.  With
    ``|x|_w`` the distance from ``x`` to the nearest multiple of ``w``, let

        eta_i = min(w - r_i, min_{j != i} (|mu_i - mu_j|_w - r_j)).

    If ``eta_i > r_i`` for every ``i``, the ``d`` intervals are disjoint
    modulo ``w``, so each holds exactly one of the ``d`` quasi-energies per
    period: the picked values stand for distinct quasi-energies, and every
    point of the spectrum but the one within ``r_i`` of ``mu_i`` lies at
    least ``eta_i`` away.  The Kato-Temple inequality (Parlett, *The
    Symmetric Eigenvalue Problem*, ch. 10) then bounds the error of
    ``mu_i`` by ``r_i^2 / eta_i``.  An exact eigenvector (``r_i = 0``) has
    error 0 whatever its gap, so the check ``eta_i > r_i`` runs over the
    pairs with ``r_i > 0`` only.  The counting above still holds: exact
    values that coincide modulo ``w`` are points of the spectrum counted
    by multiplicity, one per picked eigenvector, as those are orthonormal;
    the undriven ladder, whose picked pairs are all exact, is certified
    with bound 0 even where its quasi-energies are degenerate.  Rounding
    in the eigensolver is not counted.
    """
    n, k_max = tfo.cutoff, spec.max_harmonic
    blocks = vectors.reshape(2 * n + 1, tfo.dim, -1)  # blocks[m + N] = v_m
    leak2 = 0.0
    # Edge blocks ordered inwards-out: v_{s(N-K+1)} .. v_{sN} for side s.
    edges = ((1, blocks[2 * n + 1 - k_max:]), (-1, blocks[k_max - 1::-1]))
    for side, edge in edges:
        beyond = np.zeros_like(edge)  # harmonics s(N+1) .. s(N+K)
        for k in range(1, k_max + 1):
            beyond[:k] += spec.component(side * k) @ edge[k_max - k:]
        leak2 = leak2 + np.sum(np.abs(beyond) ** 2, axis=(0, 1))
    r = np.sqrt(leak2)
    w = tfo.drive_frequency
    diff = values[:, None] - values[None, :]
    gaps = np.abs(diff - w * np.round(diff / w)) - r[None, :]
    np.fill_diagonal(gaps, w - r)
    eta = gaps.min(axis=1)
    live = r > 0.0
    if np.any(eta[live] <= r[live]):
        return np.inf
    return float(np.max(r[live] ** 2 / eta[live], initial=0.0))


def _diag_energies(spec: FloquetSpec,
                   tfo: TruncatedFloquetOperator) -> tuple[np.ndarray, float]:
    """Ladder eigenvalues of largest zero-harmonic weight, one per state,
    and their :func:`_truncation_bound`."""
    ed = matrixkit.hermitian_eig(tfo.matrix)
    rows = np.asarray(tfo.zero_harmonic_indices)
    picked = matrixkit._heaviest_columns(
        ed.vectors[rows, :], tfo.dim, ZERO_HARMONIC_WEIGHT_GAP, "zero-harmonic")
    values = ed.values[picked]
    return values, _truncation_bound(spec, tfo, values, ed.vectors[:, picked])


def _ladder_quasi_energies(spec: FloquetSpec, methods,
                           cutoff: int | None = None) -> dict:
    """``{method: (values, cutoff, truncation_bound)}`` for ``diag`` and
    effective method names, all checked before any ladder; the bound is
    None for effective methods.  Each cutoff builds one ladder for the
    unfinished methods, in order, partitions it at most once and releases
    it once no ``diag`` is left to read it; each method stops at its own
    cutoff, as in :func:`quasi_energies_diag`."""
    routes = {m: None if m == "diag" else _effective_route(m) for m in methods}
    n = max(4, 2 * spec.max_harmonic) if cutoff is None else cutoff
    done, prev = {}, {}
    while len(done) < len(routes):
        tfo, ph = build_floquet(spec, n), None
        todo = [m for m in routes if m not in done]
        for i, method in enumerate(todo):
            route, bound = routes[method], None
            if route is None:
                energies, bound = _diag_energies(spec, tfo)
            else:
                if ph is None:
                    ph = floquet_partition(tfo)
                    if "diag" not in todo[i:]:
                        tfo = None  # no diag left to read the dense ladder
                energies = route(ph)[0].spectrum()
            values = np.sort(fold_quasienergy(energies, spec.drive_frequency))
            if (cutoff is not None
                    or (bound is not None and bound <= CUTOFF_TARGET)
                    or (method in prev and float(np.max(np.abs(
                        values - prev[method]))) <= CUTOFF_TARGET)):
                done[method] = (values, n, bound)
            elif 2 * n > CUTOFF_CAP:
                raise ConvergenceFailure("quasi-energies still moving at "
                                         f"harmonic cutoff {CUTOFF_CAP}")
            prev[method] = values
        tfo = ph = None  # one ladder alive at a time
        n *= 2
    return done


def quasi_energies_diag(spec: FloquetSpec,
                        cutoff: int | None = None) -> QuasiEnergySet:
    """Quasi-energies from direct diagonalization of the truncated operator.

    One eigenvalue is kept per system state, chosen by largest
    zero-harmonic weight (:class:`OracleAmbiguous` if the weight gap is
    below ``ZERO_HARMONIC_WEIGHT_GAP``), and ``truncation_bound`` records
    the largest Kato-Temple bound on their distance from the exact
    quasi-energies, read off the eigenvectors' edge blocks
    (:func:`_truncation_bound`).  With ``cutoff=None`` the cutoff doubles
    until that bound is at most ``CUTOFF_TARGET`` or the folded values move
    at most ``CUTOFF_TARGET`` from the previous cutoff, whichever comes
    first (:class:`ConvergenceFailure` at ``CUTOFF_CAP``).  This is the
    ladder loop of every Floquet method, run for ``diag`` alone (no
    partition).
    """
    values, used, bound = _ladder_quasi_energies(spec, ["diag"], cutoff)["diag"]
    return QuasiEnergySet(values=values, method="floquet_diag",
                          drive_frequency=spec.drive_frequency, cutoff=used,
                          truncation_bound=bound)


def quasi_energies_effective(spec: FloquetSpec, method: str = "adiabatic", *,
                             cutoff: int | None = None) -> QuasiEnergySet:
    """Quasi-energies from elimination down to the zero-harmonic block.

    ``method`` selects the effective operator: ``adiabatic``, ``sw_first``,
    ``iterate`` (fixed point to :func:`iterate_bloch`'s default ``tol``),
    or ``bloch_order_<k>`` (series through order ``k``, from 1 to
    ``bloch.MAX_SERIES_ORDER``); any other name raises ValueError before a
    ladder is built.  The ladder loop of :func:`quasi_energies_diag` runs
    for this one method and stops only when two cutoffs agree: an effective
    spectrum is not an exact one, so no truncation certificate is taken.
    """
    _effective_route(method)  # also rejects "diag", which only the loop takes
    values, used, _ = _ladder_quasi_energies(spec, [method], cutoff)[method]
    return QuasiEnergySet(values=values, method=f"effective_{method}",
                          drive_frequency=spec.drive_frequency, cutoff=used)


def restricted_inverse_series(tfo: TruncatedFloquetOperator,
                              order: int) -> np.ndarray:
    """Inverse-frequency series for the inverse of the fast sector.

    Splits the fast block as ``-w K + V`` where ``K`` holds the harmonic
    numbers and ``V`` everything else, then sums

        sum_{l=0}^{order} -(1/w) (K^-1 V / w)^l K^-1 ,

    whose leading term is ``-1/(m w)`` per harmonic ``m``.  Raises
    :class:`SeriesDiverging` as soon as a term grows in norm over its
    predecessor.
    """
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    w = tfo.drive_frequency
    k = np.repeat([float(m) for m in tfo.harmonics if m != 0], tfo.dim)
    k_inv = k ** -1
    zero = list(tfo.zero_harmonic_indices)
    # fast = -w K + V, so V = fast + w K.
    v = np.delete(np.delete(tfo.matrix, zero, 0), zero, 1)
    v[np.diag_indices(k.size)] += w * k
    term = np.diag(-k_inv / w).astype(complex)
    total = term.copy()
    prev_norm = matrixkit.spectral_norm(term)
    for l in range(1, order + 1):
        term = (k_inv[:, None] * (v @ term)) / w
        norm = matrixkit.spectral_norm(term)
        if norm > prev_norm:
            raise SeriesDiverging(
                f"series term {l} has norm {norm:.3e}, up from "
                f"{prev_norm:.3e}; the drive frequency is too small")
        total += term
        prev_norm = norm
    return total


def first_order_floquet_hamiltonian(spec: FloquetSpec) -> np.ndarray:
    """Leading high-frequency effective Hamiltonian.

    ``H_0 - (1/w) sum_{k != 0} (1/k) H_{-k} H_k``; the correction collects
    commutators ``[H_{-k}, H_k] / k`` over positive ``k``.
    """
    out = spec.component(0).copy()
    w = spec.drive_frequency
    for k in sorted(spec.components):
        if k == 0:
            continue
        out -= spec.components[-k] @ spec.components[k] / (w * k)
    return matrixkit.hermitize(out)
