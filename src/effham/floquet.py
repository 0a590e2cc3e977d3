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
from .bloch import iterate_bloch, perturbative_bloch
from .effective import (adiabatic_hamiltonian, hermitian_effective)
from .errors import (
    ConvergenceFailure,
    CutoffTooSmall,
    NonUnitaryMonodromy,
    NotHermitian,
    OracleAmbiguous,
    SeriesDiverging,
    ShapeMismatch,
    SingularFastBlock,
)
from .partition import PartitionedHamiltonian, partition_hamiltonian
from .schriefferwolff import sw_first_order_hamiltonian

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
            excess = matrixkit._hermiticity_excess(
                arr, matrixkit.HERM_TOL, arr.conj().T - partner)
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
    the monodromy method records its ``steps`` and ``unitarity_defect``."""

    values: np.ndarray
    method: str
    drive_frequency: float
    cutoff: int | None = None
    steps: int | None = None
    unitarity_defect: float | None = None


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
        for m in range(-cutoff, cutoff + 1):
            mp = m + k
            if -cutoff <= mp <= cutoff:
                r = (mp + cutoff) * d
                c = (m + cutoff) * d
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
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    w = drive_frequency
    folded = x - w * np.floor(x / w + 0.5)
    # Rounding can leave a value just past either edge; shifting it by w is
    # exact there (Sterbenz), which also makes folding idempotent.
    folded = np.where(folded <= -0.5 * w, folded + w, folded)
    folded = np.where(folded > 0.5 * w, folded - w, folded)
    return float(folded[0]) if scalar else folded


def _propagator(spec: FloquetSpec, start: float, stop: float,
                count: int) -> np.ndarray:
    """Ordered product of ``count`` midpoint-sampled exponentials covering
    ``[start, stop]``, from one batched ``eigh`` and a pairwise tree."""
    h = (stop - start) / count
    mids = start + (np.arange(count) + 0.5) * h
    vals, vecs = np.linalg.eigh(spec.hamiltonian_at(mids))
    cur = (vecs * np.exp(-1j * vals * h)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    while cur.shape[0] > 1:
        n = cur.shape[0]
        m = n // 2
        prod = cur[1:2 * m:2] @ cur[0:2 * m:2]
        if n % 2:
            prod = np.concatenate([prod, cur[2 * m:]], axis=0)
        cur = prod
    return cur[0]


def monodromy(spec: FloquetSpec, steps: int | None = None, *,
              _report: dict | None = None) -> np.ndarray:
    """One-period propagator by midpoint-sampled piecewise exponentials.

    Each substep is exponentiated through a hermitian eigendecomposition,
    so every factor is unitary to rounding; the step count must keep
    ``step * ||H||`` at or below 0.1 and defaults to well inside that.
    The overall second-order accuracy of midpoint sampling is what limits
    quasi-energy precision.  Raises :class:`NonUnitaryMonodromy` when
    ``||U^dagger U - 1||`` exceeds 1e-8; ``_report``, if given, receives
    the step count used and that defect.
    """
    period = spec.period
    bound = max(spec.norm_bound(), 1e-30)
    if steps is None:
        steps = int(max(4096, np.ceil(40.0 * bound * period)))
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if (period / steps) * bound > 0.1 + 1e-12:
        raise ValueError(
            f"{steps} steps leave step*||H|| = "
            f"{(period / steps) * bound:.3e} above 0.1; refine the grid")
    u = _propagator(spec, 0.0, period, steps)
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
    """Quasi-energies from the one-period propagator; records the step
    count used and the propagator's unitarity defect."""
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


def _diag_values(spec: FloquetSpec, cutoff: int,
                 overlap_gap: float = 1e-6) -> np.ndarray:
    tfo = build_floquet(spec, cutoff)
    ed = matrixkit.hermitian_eig(tfo.matrix)
    rows = np.asarray(tfo.zero_harmonic_indices)
    weights = np.sum(np.abs(ed.vectors[rows, :]) ** 2, axis=0)
    order = np.argsort(weights)[::-1]
    d = spec.dim
    gap = float(weights[order[d - 1]] - weights[order[d]])
    if gap < overlap_gap:
        raise OracleAmbiguous(
            f"zero-harmonic weight gap {gap:.3e} below {overlap_gap:.1e}; "
            f"cannot single out one quasi-energy per state")
    chosen = ed.values[np.sort(order[:d])]
    return np.sort(fold_quasienergy(chosen, spec.drive_frequency))


def _auto_cutoff(spec: FloquetSpec, evaluate, target: float = 1e-10,
                 cap: int = 256) -> tuple[np.ndarray, int]:
    """Double the cutoff until the folded values move less than ``target``."""
    cutoff = max(4, 2 * spec.max_harmonic)
    prev = evaluate(cutoff)
    while 2 * cutoff <= cap:
        cutoff *= 2
        cur = evaluate(cutoff)
        if float(np.max(np.abs(cur - prev))) <= target:
            return cur, cutoff
        prev = cur
    raise ConvergenceFailure(
        f"quasi-energies still moving at harmonic cutoff {cap}")


def quasi_energies_diag(spec: FloquetSpec,
                        cutoff: int | None = None) -> QuasiEnergySet:
    """Quasi-energies from direct diagonalization of the truncated operator.

    One eigenvalue is kept per system state, chosen by largest
    zero-harmonic weight.  With ``cutoff=None`` the cutoff is doubled until
    the folded values settle to 1e-10 (:class:`ConvergenceFailure` at 256).
    """
    if cutoff is None:
        values, used = _auto_cutoff(spec, lambda n: _diag_values(spec, n))
    else:
        values, used = _diag_values(spec, cutoff), cutoff
    return QuasiEnergySet(values=values, method="floquet_diag",
                          drive_frequency=spec.drive_frequency, cutoff=used)


def _effective_values(spec: FloquetSpec, cutoff: int, method: str,
                      tol: float) -> np.ndarray:
    tfo = build_floquet(spec, cutoff)
    ph = floquet_partition(tfo)
    if method == "adiabatic":
        op = adiabatic_hamiltonian(ph)
    elif method == "sw_first":
        op = sw_first_order_hamiltonian(ph)
    elif method == "iterate":
        op = hermitian_effective(ph, iterate_bloch(ph, tol=tol))
    elif method.startswith("bloch_order_"):
        order = int(method.removeprefix("bloch_order_"))
        op = hermitian_effective(ph, perturbative_bloch(ph, order))
    else:
        raise ValueError(
            f"unknown effective method {method!r}; expected adiabatic, "
            f"sw_first, iterate, or bloch_order_<k>")
    energies = matrixkit.hermitian_eig(op.matrix).values
    return np.sort(fold_quasienergy(energies, spec.drive_frequency))


def quasi_energies_effective(spec: FloquetSpec, method: str = "adiabatic", *,
                             cutoff: int | None = None,
                             tol: float = 1e-12) -> QuasiEnergySet:
    """Quasi-energies from elimination down to the zero-harmonic block.

    ``method`` selects the effective operator: ``adiabatic``, ``sw_first``,
    ``iterate`` (fixed point to ``tol``), or ``bloch_order_<k>`` (series
    through order ``k``).  Cutoff handling as in :func:`quasi_energies_diag`.
    """
    if cutoff is None:
        values, used = _auto_cutoff(
            spec, lambda n: _effective_values(spec, n, method, tol))
    else:
        values, used = _effective_values(spec, cutoff, method, tol), cutoff
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
    n, d, w = tfo.cutoff, tfo.dim, tfo.drive_frequency
    fast_harmonics = [m for m in tfo.harmonics if m != 0]
    k_inv = np.repeat(np.asarray(fast_harmonics, dtype=float) ** -1, d)
    slow_rows = set(tfo.zero_harmonic_indices)
    rows = [i for i in range(tfo.matrix.shape[0]) if i not in slow_rows]
    fast = tfo.matrix[np.ix_(rows, rows)]
    # fast = -w K + V, so V = fast + w K.
    v = fast.copy()
    v[np.arange(len(rows)), np.arange(len(rows))] += w * np.repeat(
        np.asarray(fast_harmonics, dtype=float), d)
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
