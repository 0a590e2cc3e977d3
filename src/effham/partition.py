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

Matrices may carry leading axes, shape ``(..., n, n)``: a stack of
operators split along one index set is one partition whose blocks, cached
decompositions and scales are stacked the same way.  Every slice equals
the result for that matrix alone, bit for bit.
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
    Each block may carry the same leading axes (a stack of partitions with
    one index split), and so do the cached values.  The fast
    eigendecomposition ``V diag(lam) V^dagger`` (:attr:`fast_eig`),
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
        return self.slow_block.shape[-1]

    @property
    def fast_dim(self) -> int:
        return self.fast_block.shape[-1]

    @property
    def dim(self) -> int:
        return self.slow_dim + self.fast_dim

    @cached_property
    def fast_eig(self) -> matrixkit.EigenDecomposition:
        """Eigendecomposition of the (hermitian) fast block, computed once.

        The first evaluation is the invertibility gate: it raises
        :class:`SingularFastBlock` when ``min|lam| / max|lam| < RCOND_LIMIT``
        with condition ``max|lam| / min|lam|``, ``inf`` on an exact zero,
        for the first such block of a stack.
        """
        values, vectors = np.linalg.eigh(self.fast_block)
        mags = np.abs(values)
        small, large = mags.min(axis=-1), mags.max(axis=-1)
        # An all-zero block (large == 0) has small == 0: ratio 0, singular.
        i = matrixkit._first_failing(
            small / np.where(large == 0.0, 1.0, large) < RCOND_LIMIT)
        if i is not None:
            cond = np.inf if small[i] == 0.0 else float(large[i] / small[i])
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
        return matrixkit._adjoint(self.fast_eig.vectors) @ self.coupling

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
        out = np.zeros((*self.coupling.shape[:-2], p + q, p + q), dtype=complex)
        out[..., :p, :p] = self.slow_block
        out[..., p:, p:] = self.fast_block
        out[..., p:, :p] = self.coupling
        out[..., :p, p:] = matrixkit._adjoint(self.coupling)
        return out

    def reassemble(self) -> np.ndarray:
        """Rebuild the operator with every entry at its original index."""
        n = self.dim
        out = np.zeros((*self.coupling.shape[:-2], n, n), dtype=complex)
        slow, fast = self.slow_indices, self.fast_indices
        out[(..., *np.ix_(slow, slow))] = self.slow_block
        out[(..., *np.ix_(fast, fast))] = self.fast_block
        out[(..., *np.ix_(fast, slow))] = self.coupling
        out[(..., *np.ix_(slow, fast))] = matrixkit._adjoint(self.coupling)
        return out


def _checked_hamiltonian(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a complex array of shape ``(..., n, n)``, hermitian to
    ``HERM_TOL``."""
    h = matrixkit._require_square(matrixkit._as_stack(matrix, "hamiltonian"),
                                  "hamiltonian")
    return matrixkit.require_hermitian(h, tol=HERM_TOL, name="hamiltonian")


def partition_hamiltonian(matrix: np.ndarray,
                          slow_indices) -> PartitionedHamiltonian:
    """Partition a hermitian matrix, or a stack of them, along the given
    slow indices.

    Parameters
    ----------
    matrix:
        Square hermitian matrix (validated to ``HERM_TOL``), or a stack of
        them of shape ``(..., n, n)``, each partitioned alike.
    slow_indices:
        Indices of the slow sector; the complement becomes the fast sector.
        Both sectors must be non-empty, and the fast block must be
        invertible (the gate of :attr:`PartitionedHamiltonian.fast_eig`)
        or :class:`SingularFastBlock` is raised, because every elimination
        formula divides by it.
    """
    h = _checked_hamiltonian(matrix)
    n = h.shape[-1]
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
    # C order keeps each block of a stack laid out as the block of one
    # matrix, so that products of a stack match the products of its slices.
    def block(rows, cols):
        return np.ascontiguousarray(h[(..., *np.ix_(rows, cols))])

    ph = PartitionedHamiltonian(
        slow_block=block(slow, slow),
        fast_block=block(fast, fast),
        coupling=block(fast, slow),
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
    reciprocal companion root; both are ``None`` otherwise.  For a stacked
    partition every field is an array over the leading axes, the radii
    object arrays holding a float or ``None`` per partition.
    """

    epsilon: float | np.ndarray
    epsilon_prime: float | np.ndarray
    radius: float | np.ndarray | None
    radius_small: float | np.ndarray | None


def _ball(epsilon, epsilon_prime):
    """Where the contraction hypothesis holds, and the two radii there."""
    eps = np.asarray(epsilon, dtype=float)
    eps_prime = np.asarray(epsilon_prime, dtype=float)
    holds = ((0.0 <= eps) & (eps < 1.0)
             & ~((eps_prime < 0.0) | (eps_prime > 0.5 * (1.0 - eps))))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (1.0 - eps) / (2.0 * eps_prime)
        large = np.where(eps_prime == 0.0, np.inf,
                         t + np.sqrt(np.maximum(t * t - 1.0, 0.0)))
        return holds, large, 1.0 / large


def invariance_radius(epsilon, epsilon_prime):
    """Invariant-ball radii for given coupling scales, or ``None``.

    Returns ``(radius, radius_small)`` with ``radius >= 1 >= radius_small``
    and ``radius * radius_small == 1``.  A decoupled system
    (``epsilon_prime == 0``) gets an infinite radius.  Array arguments
    broadcast: the result is then an object array holding that pair, or
    ``None``, per entry.
    """
    holds, large, small = _ball(epsilon, epsilon_prime)
    out = np.empty(holds.shape, dtype=object)
    for i in np.ndindex(holds.shape):
        out[i] = (float(large[i]), float(small[i])) if holds[i] else None
    return out[()]


def coupling_scales(ph: PartitionedHamiltonian) -> CouplingScales:
    """Coupling scales and invariant-ball radii, per partition of a stack.

    Every norm is the spectral norm; ``||fast_block^-1||`` is
    ``1 / min|lam|``.
    """
    inv_norm = (1.0 / np.abs(ph.fast_eig.values)).max(axis=-1)
    eps = inv_norm * matrixkit.spectral_norm(ph.slow_block)
    eps_prime = inv_norm * matrixkit.spectral_norm(ph.coupling)
    holds, large, small = _ball(eps, eps_prime)
    return CouplingScales(
        epsilon=matrixkit._per_matrix(eps),
        epsilon_prime=matrixkit._per_matrix(eps_prime),
        radius=np.where(holds, large, None)[()],
        radius_small=np.where(holds, small, None)[()],
    )


def spectral_gap(ph: PartitionedHamiltonian):
    """Smallest distance between slow-block and fast-block eigenvalues,
    per partition of a stack.

    Diagnostic only: a healthy elimination regime keeps this gap large
    compared to the coupling, but no routine enforces that.
    """
    slow = ph.slow_eig.values
    fast = ph.fast_eig.values
    return matrixkit._per_matrix(np.min(
        np.abs(slow[..., :, None] - fast[..., None, :]), axis=(-2, -1)))
