"""Solvers for the slow-subspace embedding block.

The embedding block is the q x p matrix ``B`` that maps slow-sector
amplitudes to the fast-sector amplitudes of the exact invariant subspace.
It satisfies the quadratic block equation

    coupling + fast_block @ B = B @ slow_block + B @ coupling^dagger @ B,

whose residual norm is the figure of merit used throughout.  This module
provides the leading-order (adiabatic) solution, a fixed-point iteration,
a perturbative series in inverse powers of the fast block, and an
eigenvector-based exact solver used as an independent oracle.

The solvers work in the eigenbasis of the fast block, ``fast_block =
V diag(lam) V^dagger``.  With ``C = V^dagger coupling`` and ``X = V^dagger
B`` the equation is ``lam X = rhs(X) = -C + X slow_block + X (C^dagger X)``:
the inverse fast block is a division, and ``lam X - rhs(X)`` is a defect
with the norm of the bare one, each O(q p^2).  Returned blocks and series
terms are bare, and every reported residual is :func:`bloch_residual`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit
from .errors import ConvergenceFailure, Diverged, OracleAmbiguous, ShapeMismatch
from .partition import PartitionedHamiltonian

__all__ = [
    "BlochEmbedding",
    "bloch_map",
    "bloch_residual",
    "adiabatic_embedding",
    "iterate_bloch",
    "perturbative_bloch",
    "exact_embedding",
    "embedding_from_matrix",
]

# Smallest slow-weight gap at which exact_embedding assigns eigenvectors.
SLOW_WEIGHT_GAP = 1e-2
# Highest order perturbative_bloch sums: the series costs O(order^2)
# products, and on converging problems order 64 is already at rounding.
MAX_SERIES_ORDER = 64


@dataclass(frozen=True)
class BlochEmbedding:
    """Embedding block with provenance.

    ``matrix`` is the q x p embedding block, ``residual`` the spectral norm
    of the block-equation defect, ``method`` one of ``adiabatic``,
    ``iterative``, ``perturbative``, ``sw_exact`` or ``custom``, and
    ``order_or_iterations`` the series order or iteration count that
    produced it.  Perturbative embeddings also carry their individual
    series terms.
    """

    matrix: np.ndarray
    residual: float
    method: str
    order_or_iterations: int
    terms: tuple[np.ndarray, ...] | None = None


def _check_block(ph: PartitionedHamiltonian, candidate: np.ndarray) -> np.ndarray:
    cand = np.asarray(candidate, dtype=complex)
    if cand.shape != (ph.fast_dim, ph.slow_dim):
        raise ShapeMismatch(
            f"embedding block has shape {cand.shape}, expected "
            f"({ph.fast_dim}, {ph.slow_dim})")
    return cand


def _check_series_order(order: int) -> int:
    """``order``, or ValueError unless ``1 <= order <= MAX_SERIES_ORDER``."""
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    if order > MAX_SERIES_ORDER:
        raise ValueError(
            f"series order must be <= {MAX_SERIES_ORDER}, got {order}")
    return order


def _eig_rhs(ph: PartitionedHamiltonian, block: np.ndarray) -> np.ndarray:
    """``rhs(X)`` of the block equation in the fast eigenbasis (module
    docstring); the defect of ``X`` is ``lam X - rhs(X)``."""
    c = ph.eig_coupling
    return -c + block @ ph.slow_block + block @ (c.conj().T @ block)


def bloch_map(ph: PartitionedHamiltonian, candidate: np.ndarray) -> np.ndarray:
    """One application of the fixed-point map whose fixed points solve
    the block equation.

    Maps ``B`` to ``fast_block^-1 (-coupling + B @ slow_block
    + B @ coupling^dagger @ B)``.
    """
    cand = _check_block(ph, candidate)
    ed = ph.fast_eig
    rhs = _eig_rhs(ph, ed.vectors.conj().T @ cand)
    return ed.vectors @ (rhs / ed.values[:, None])


def bloch_residual(ph: PartitionedHamiltonian, candidate: np.ndarray) -> float:
    """Spectral norm of the block-equation defect of a candidate embedding."""
    cand = _check_block(ph, candidate)
    defect = (ph.coupling + ph.fast_block @ cand - cand @ ph.slow_block
              - cand @ (ph.coupling.conj().T @ cand))
    return matrixkit.spectral_norm(defect)


def adiabatic_embedding(ph: PartitionedHamiltonian) -> BlochEmbedding:
    """Leading-order embedding ``-fast_block^-1 @ coupling``."""
    ed = ph.fast_eig
    block = -(ed.vectors @ (ph.eig_coupling / ed.values[:, None]))
    return BlochEmbedding(matrix=block, residual=bloch_residual(ph, block),
                          method="adiabatic", order_or_iterations=0)


def iterate_bloch(ph: PartitionedHamiltonian, *, tol: float = 1e-12,
                  max_iter: int = 64, seed: np.ndarray | None = None,
                  require_convergence: bool = True) -> BlochEmbedding:
    """Fixed-point iteration for the embedding block.

    Starts from the adiabatic embedding (or ``seed``) and applies
    :func:`bloch_map` until the residual is at or below ``tol``, an absolute
    threshold, capped at ``max_iter`` sweeps.

    Sweeps run in the fast eigenbasis (module docstring); one right-hand
    side per sweep gives the next iterate and the defect of the current
    one, which decides convergence and the guards below.  The reported
    ``residual`` is the bare :func:`bloch_residual` of the result.

    Raises
    ------
    Diverged
        If the residual grows past a million times its initial value or
        stops being finite.
    ConvergenceFailure
        If the cap is reached without convergence and
        ``require_convergence`` is set; with it cleared the best iterate
        reached is returned instead, which is how fixed-depth iterates
        for diagnostics are produced.
    ValueError
        Before any sweep, if ``tol`` is negative or not finite, or
        ``max_iter`` is negative.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    ed = ph.fast_eig
    lam = ed.values[:, None]
    start = None if seed is None else _check_block(ph, seed).copy()
    block = (-(ph.eig_coupling / lam) if start is None
             else ed.vectors.conj().T @ start)
    rhs = _eig_rhs(ph, block)
    initial = resid = matrixkit.spectral_norm(lam * block - rhs)
    done = 0
    while resid > tol:
        if done >= max_iter:
            if require_convergence:
                raise ConvergenceFailure(
                    f"residual {resid:.3e} above {tol:.1e} after {max_iter} sweeps")
            break
        done += 1
        block = rhs / lam
        if not np.all(np.isfinite(block)):
            raise Diverged(f"iteration produced non-finite entries at sweep {done}")
        rhs = _eig_rhs(ph, block)
        resid = matrixkit.spectral_norm(lam * block - rhs)
        if resid > 1e6 * initial:
            raise Diverged(
                f"residual grew to {resid:.3e} from {initial:.3e} "
                f"at sweep {done}")
    matrix = start if done == 0 and start is not None else ed.vectors @ block
    return BlochEmbedding(matrix=matrix, residual=bloch_residual(ph, matrix),
                          method="iterative", order_or_iterations=done)


def perturbative_bloch(ph: PartitionedHamiltonian, order: int) -> BlochEmbedding:
    """Partial sum of the inverse-fast-block series for the embedding.

    Term 1 is the adiabatic block; term ``k+1`` collects everything of
    combined order ``k+1`` in ``slow_block`` and pairs of couplings:

        term[k+1] = fast_block^-1 (term[k] @ slow_block
                    + sum_{l=1}^{k-1} term[k-l] @ coupling^dagger @ term[l]).

    The terms are built in the fast eigenbasis and converted to bare
    coordinates together, by one product.  Returns the embedding summing
    terms 1..``order`` with the terms kept for scaling diagnostics.
    ``order`` must lie in ``1..MAX_SERIES_ORDER`` (ValueError otherwise,
    before any product).
    """
    _check_series_order(order)
    ed = ph.fast_eig
    lam = ed.values[:, None]
    coupling_t = ph.eig_coupling.conj().T
    terms: list[np.ndarray] = [-(ph.eig_coupling / lam)]
    for k in range(1, order):
        rhs = terms[k - 1] @ ph.slow_block
        for l in range(1, k):
            rhs = rhs + terms[k - l - 1] @ (coupling_t @ terms[l - 1])
        terms.append(rhs / lam)
    bare = ed.vectors @ np.stack(terms)
    total = np.sum(bare, axis=0)
    return BlochEmbedding(matrix=total, residual=bloch_residual(ph, total),
                          method="perturbative", order_or_iterations=order,
                          terms=tuple(bare))


def exact_embedding(ph: PartitionedHamiltonian) -> BlochEmbedding:
    """Exact embedding read off the eigenvectors of the full operator.

    Diagonalizes the partitioned operator, greedily assigns the p
    eigenvectors with the largest slow-sector weight to the slow family,
    and solves for the block mapping their slow components to their fast
    components.  Independent of every other solver here, so it serves as
    the reference oracle.

    Raises
    ------
    OracleAmbiguous
        If the weight gap between the selected family and the rest is
        below ``SLOW_WEIGHT_GAP``, or if the slow components of the family do
        not span the slow sector.
    """
    p = ph.slow_dim
    ed = matrixkit.hermitian_eig(ph.block_matrix)
    chosen = matrixkit._heaviest_columns(ed.vectors[:p], p, SLOW_WEIGHT_GAP,
                                         "slow-sector")
    slow_parts = ed.vectors[:p, chosen]
    fast_parts = ed.vectors[p:, chosen]
    sv = np.linalg.svd(slow_parts, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < 1e-10:
        raise OracleAmbiguous(
            "slow components of the selected eigenvector family are rank "
            "deficient; the embedding block is not defined")
    # fast_parts = block @ slow_parts, solved through the transposes.
    block = np.linalg.solve(slow_parts.T, fast_parts.T).T
    return BlochEmbedding(matrix=block, residual=bloch_residual(ph, block),
                          method="sw_exact", order_or_iterations=0)


def embedding_from_matrix(ph: PartitionedHamiltonian,
                          matrix: np.ndarray) -> BlochEmbedding:
    """Wrap an externally supplied block with its residual."""
    block = _check_block(ph, matrix)
    return BlochEmbedding(matrix=block, residual=bloch_residual(ph, block),
                          method="custom", order_or_iterations=0)
