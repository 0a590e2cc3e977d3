"""Block partition of a hermitian operator into slow and fast sectors.

A partition splits a hermitian matrix ``H`` into the slow-sector block, the
fast-sector block, and the coupling between them.  All downstream solvers
work in the partitioned ordering (slow components first); the original index
placement is kept so the full operator can be rebuilt exactly.
Every use of the fast block (gate, inverse norm, spectrum, solves) reads
one cached eigendecomposition, :attr:`PartitionedHamiltonian.fast_eig`;
every use of the slow spectrum reads :attr:`PartitionedHamiltonian.slow_eig`,
and every use of the first-order (linearized) decoupling block reads one
cached Sylvester solve, :attr:`PartitionedHamiltonian.first_order_block`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matrixkit
from .errors import EmptyPartition, ShapeMismatch, SingularFastBlock

__all__ = [
    "PartitionedHamiltonian",
    "CouplingScales",
    "partition_hamiltonian",
    "coupling_scales",
    "invariance_radius",
    "spectral_gap",
]

# Smallest min|lam| / max|lam| the fast block may have.
RCOND_LIMIT = 1e-12
# Hermiticity tolerance of the input, stricter than matrixkit.HERM_TOL.
HERM_TOL = 1e-12


@dataclass(frozen=True)
class PartitionedHamiltonian:
    """Hermitian operator split into slow/fast blocks.

    ``slow_block`` is the p x p restriction to the slow sector,
    ``fast_block`` the q x q restriction to the fast sector, and
    ``coupling`` the q x p block mapping slow components to fast ones.
    Index tuples record where each sector lives in the original matrix.
    The fast eigendecomposition ``V diag(lam) V^dagger`` (:attr:`fast_eig`),
    ``V^dagger coupling`` (:attr:`eig_coupling`), the slow
    eigendecomposition (:attr:`slow_eig`) and :attr:`first_order_block` are
    cached on first use.
    """

    slow_block: np.ndarray
    fast_block: np.ndarray
    coupling: np.ndarray
    slow_indices: tuple[int, ...]
    fast_indices: tuple[int, ...]

    @property
    def slow_dim(self) -> int:
        return self.slow_block.shape[0]

    @property
    def fast_dim(self) -> int:
        return self.fast_block.shape[0]

    @property
    def dim(self) -> int:
        return self.slow_dim + self.fast_dim

    @cached_property
    def fast_eig(self) -> matrixkit.EigenDecomposition:
        """Eigendecomposition of the (hermitian) fast block, computed once.

        The first evaluation is the invertibility gate: it raises
        :class:`SingularFastBlock` when ``min|lam| / max|lam| < RCOND_LIMIT``
        with condition ``max|lam| / min|lam|``, ``inf`` on an exact zero.
        """
        values, vectors = np.linalg.eigh(self.fast_block)
        mags = np.abs(values)
        small, large = float(np.min(mags)), float(np.max(mags))
        if large == 0.0 or small / large < RCOND_LIMIT:
            cond = np.inf if small == 0.0 else large / small
            raise SingularFastBlock(
                f"fast block is singular to working precision "
                f"(condition {cond:.3e}, rcond limit {RCOND_LIMIT:.1e})",
                condition=cond)
        return matrixkit.EigenDecomposition(values=values, vectors=vectors,
                                            hermitian=True)

    @cached_property
    def slow_eig(self) -> matrixkit.EigenDecomposition:
        """Eigendecomposition of the slow block, computed once."""
        return matrixkit.hermitian_eig(self.slow_block)

    @cached_property
    def eig_coupling(self) -> np.ndarray:
        """Coupling in the fast eigenbasis, ``V^dagger @ coupling``, computed
        once; ``fast_block^-1 @ coupling`` is ``V (eig_coupling / lam)``."""
        return self.fast_eig.vectors.conj().T @ self.coupling

    @cached_property
    def first_order_block(self) -> np.ndarray:
        """``G`` solving ``G @ slow_block - fast_block @ G = coupling``
        (the linearized decoupling condition), computed once; the spectra
        must be ``matrixkit.GAP_TOL`` apart (:class:`SpectraOverlap`)."""
        return matrixkit.sylvester_solve(self.slow_eig, self.fast_eig,
                                         self.coupling)

    @property
    def block_matrix(self) -> np.ndarray:
        """Full operator in partitioned ordering, slow components first."""
        p, q = self.slow_dim, self.fast_dim
        out = np.zeros((p + q, p + q), dtype=complex)
        out[:p, :p] = self.slow_block
        out[p:, p:] = self.fast_block
        out[p:, :p] = self.coupling
        out[:p, p:] = self.coupling.conj().T
        return out

    def reassemble(self) -> np.ndarray:
        """Rebuild the operator with every entry at its original index."""
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        slow = np.asarray(self.slow_indices)
        fast = np.asarray(self.fast_indices)
        out[np.ix_(slow, slow)] = self.slow_block
        out[np.ix_(fast, fast)] = self.fast_block
        out[np.ix_(fast, slow)] = self.coupling
        out[np.ix_(slow, fast)] = self.coupling.conj().T
        return out


def _checked_hamiltonian(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a square complex array, hermitian to ``HERM_TOL``."""
    h = matrixkit._require_square(matrixkit.as_matrix(matrix, "hamiltonian"),
                                  "hamiltonian")
    return matrixkit.require_hermitian(h, tol=HERM_TOL, name="hamiltonian")


def partition_hamiltonian(matrix: np.ndarray,
                          slow_indices) -> PartitionedHamiltonian:
    """Partition a hermitian matrix along the given slow indices.

    Parameters
    ----------
    matrix:
        Square hermitian matrix (validated to ``HERM_TOL``).
    slow_indices:
        Indices of the slow sector; the complement becomes the fast sector.
        Both sectors must be non-empty, and the fast block must be
        invertible (the gate of :attr:`PartitionedHamiltonian.fast_eig`)
        or :class:`SingularFastBlock` is raised, because every elimination
        formula divides by it.
    """
    h = _checked_hamiltonian(matrix)
    n = h.shape[0]
    slow = sorted({int(i) for i in slow_indices})
    for i in slow:
        if i < 0 or i >= n:
            raise ShapeMismatch(
                f"slow index {i} outside matrix of dimension {n}")
    fast = [i for i in range(n) if i not in set(slow)]
    if not slow or not fast:
        raise EmptyPartition(
            f"partition must leave both sectors non-empty "
            f"(slow {len(slow)}, fast {len(fast)} of {n})")
    ph = PartitionedHamiltonian(
        slow_block=h[np.ix_(slow, slow)],
        fast_block=h[np.ix_(fast, fast)],
        coupling=h[np.ix_(fast, slow)],
        slow_indices=tuple(slow),
        fast_indices=tuple(fast),
    )
    ph.fast_eig  # the invertibility gate
    return ph


@dataclass(frozen=True)
class CouplingScales:
    """Dimensionless strength of the slow block and of the coupling.

    ``epsilon`` is ``||fast_block^-1|| * ||slow_block||`` and
    ``epsilon_prime`` is ``||fast_block^-1|| * ||coupling||``, in the
    spectral norm.  When the
    contraction hypothesis ``epsilon < 1`` and
    ``epsilon_prime <= (1 - epsilon)/2`` holds, ``radius`` is the certified
    invariant-ball radius of the fixed-point map and ``radius_small`` its
    reciprocal companion root; both are ``None`` otherwise.
    """

    epsilon: float
    epsilon_prime: float
    radius: float | None
    radius_small: float | None


def invariance_radius(epsilon: float,
                      epsilon_prime: float) -> tuple[float, float] | None:
    """Invariant-ball radii for given coupling scales, or ``None``.

    Returns ``(radius, radius_small)`` with ``radius >= 1 >= radius_small``
    and ``radius * radius_small == 1``.  A decoupled system
    (``epsilon_prime == 0``) gets an infinite radius.
    """
    if not (0.0 <= epsilon < 1.0):
        return None
    if epsilon_prime < 0.0 or epsilon_prime > 0.5 * (1.0 - epsilon):
        return None
    if epsilon_prime == 0.0:
        return (np.inf, 0.0)
    t = (1.0 - epsilon) / (2.0 * epsilon_prime)
    large = t + np.sqrt(max(t * t - 1.0, 0.0))
    return (float(large), float(1.0 / large))


def coupling_scales(ph: PartitionedHamiltonian) -> CouplingScales:
    """Coupling scales and invariant-ball radii.

    Every norm is the spectral norm; ``||fast_block^-1||`` is
    ``1 / min|lam|``.
    """
    inv_norm = np.max(1.0 / np.abs(ph.fast_eig.values))
    eps = inv_norm * matrixkit.spectral_norm(ph.slow_block)
    eps_prime = inv_norm * matrixkit.spectral_norm(ph.coupling)
    radii = invariance_radius(eps, eps_prime)
    large, small = radii if radii is not None else (None, None)
    return CouplingScales(
        epsilon=float(eps),
        epsilon_prime=float(eps_prime),
        radius=large,
        radius_small=small,
    )


def spectral_gap(ph: PartitionedHamiltonian) -> float:
    """Smallest distance between slow-block and fast-block eigenvalues.

    Diagnostic only: a healthy elimination regime keeps this gap large
    compared to the coupling, but no routine enforces that.
    """
    slow = ph.slow_eig.values
    fast = ph.fast_eig.values
    return float(np.min(np.abs(slow[:, None] - fast[None, :])))
