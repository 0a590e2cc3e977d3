"""Effective slow-sector operators built from an embedding block.

Given a partition and an embedding block ``B``, the slow dynamics is
generated by ``slow_block + coupling^dagger @ B``.  That operator is not
hermitian for approximate ``B``; the hermitization here conjugates it with
the normalization factor ``(1 + B^dagger B)^(-1/2)``, which is hermitian for
any ``B`` and agrees with the exact rotated slow block when ``B`` solves the
block equation.

Every function here but :func:`reconstruct_full_eigenvector` takes a stacked
partition and embedding (blocks of shape ``(..., q, p)``) and returns the
stack of the operators each gets alone, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit
from .bloch import BlochEmbedding
from .errors import ShapeMismatch, ZeroVector
from .partition import PartitionedHamiltonian

__all__ = [
    "EffectiveOperator",
    "adiabatic_hamiltonian",
    "nonhermitian_effective",
    "hermitian_effective",
    "second_order_hamiltonian",
    "reconstruct_full_eigenvector",
]


@dataclass(frozen=True)
class EffectiveOperator:
    """Slow-sector operator with its hermiticity flag and provenance;
    ``matrix`` has shape ``(..., p, p)``, one operator per partition of a
    stack."""

    matrix: np.ndarray
    hermitian: bool
    source: str
    norm_factor: np.ndarray | None = None

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, shape ``(..., p)``: real ascending if hermitian, else
        sorted by real part."""
        if self.hermitian:
            return matrixkit.hermitian_eig(self.matrix).values
        return matrixkit.general_eig(self.matrix).values


def _block(embedding: BlochEmbedding | np.ndarray) -> np.ndarray:
    return np.asarray(embedding.matrix if isinstance(embedding, BlochEmbedding)
                      else embedding, dtype=complex)


def _source(embedding: BlochEmbedding | np.ndarray, prefix: str) -> str:
    if isinstance(embedding, BlochEmbedding):
        return f"{prefix}[{embedding.method}]"
    return f"{prefix}[custom]"


def adiabatic_hamiltonian(ph: PartitionedHamiltonian) -> EffectiveOperator:
    """Leading-order elimination
    ``slow_block - coupling^dagger @ fast_block^-1 @ coupling``."""
    c = ph.eig_coupling
    shift = matrixkit._adjoint(c) @ (c / ph.fast_eig.values[..., :, None])
    return EffectiveOperator(matrix=matrixkit.hermitize(ph.slow_block - shift),
                             hermitian=True, source="adiabatic")


def nonhermitian_effective(ph: PartitionedHamiltonian,
                           embedding: BlochEmbedding | np.ndarray) -> EffectiveOperator:
    """Raw slow generator ``slow_block + coupling^dagger @ B``.

    Exact eigenvalues when ``B`` solves the block equation, but hermitian
    only in that limit.
    """
    block = _block(embedding)
    matrix = ph.slow_block + matrixkit._adjoint(ph.coupling) @ block
    return EffectiveOperator(matrix=matrix, hermitian=False,
                             source=_source(embedding, "nonhermitian"))


def hermitian_effective(ph: PartitionedHamiltonian,
                        embedding: BlochEmbedding | np.ndarray) -> EffectiveOperator:
    """Hermitized slow generator for any embedding block.

    Conjugates ``slow_block + coupling^dagger B + B^dagger coupling
    + B^dagger fast_block B`` with ``(1 + B^dagger B)^(-1/2)``.  The result
    is hermitian for every ``B``; its eigenvalue error against the exact
    invariant-subspace spectrum is quadratic in the block-equation defect,
    one order better than the non-hermitian generator.  The normalization
    factor ``(1 + B^dagger B)^(1/2)`` is kept on the result.

    The result acts in the coordinates of the slow columns ``R[:, :p]`` of
    ``R = rotation_from_block(B)``, not in the bare slow levels: a state
    ``psi`` in partitioned (slow-first) order enters as
    ``R[:, :p]^dagger psi`` and is read back as ``R[:, :p] @ c``.  A
    stacked partition takes blocks of shape ``(..., q, p)`` and gives
    operators of shape ``(..., p, p)``.
    """
    block = _block(embedding)
    block_h = matrixkit._adjoint(block)
    core = (ph.slow_block + matrixkit._adjoint(ph.coupling) @ block
            + block_h @ ph.coupling + block_h @ ph.fast_block @ block)
    root, inv_root = matrixkit.posdef_roots(np.eye(ph.slow_dim)
                                            + block_h @ block)
    matrix = matrixkit.hermitize(inv_root @ matrixkit.hermitize(core) @ inv_root)
    return EffectiveOperator(matrix=matrix, hermitian=True,
                             source=_source(embedding, "hermitian"),
                             norm_factor=root)


def second_order_hamiltonian(ph: PartitionedHamiltonian) -> EffectiveOperator:
    """Next-to-leading elimination.

    Adds to the adiabatic result the symmetrized correction
    ``-(1/2) (coupling^dagger fast_block^-2 coupling @ slow_block + h.c.)``,
    one more order in the inverse fast block.
    """
    c = ph.eig_coupling
    lam = ph.fast_eig.values[..., :, None]
    inv_c = c / lam
    c_h = matrixkit._adjoint(c)
    first = ph.slow_block - c_h @ inv_c
    weight = c_h @ (inv_c / lam)
    matrix = first - 0.5 * (weight @ ph.slow_block + ph.slow_block @ weight)
    return EffectiveOperator(matrix=matrixkit.hermitize(matrix),
                             hermitian=True, source="second_order")


def reconstruct_full_eigenvector(ph: PartitionedHamiltonian,
                                 embedding: BlochEmbedding | np.ndarray,
                                 slow_vector: np.ndarray) -> np.ndarray:
    """Lift a slow-sector vector to a normalized full-space vector.

    Returns ``(alpha, B @ alpha)`` normalized, in partitioned ordering.
    For an exact embedding and an eigenvector ``alpha`` of the effective
    operator this is an eigenvector of the full operator.
    """
    block = _block(embedding)
    alpha = np.asarray(slow_vector, dtype=complex).ravel()
    if alpha.size != ph.slow_dim:
        raise ShapeMismatch(
            f"slow vector has {alpha.size} components, expected {ph.slow_dim}")
    full = np.concatenate([alpha, block @ alpha])
    norm = np.linalg.norm(full)
    if norm < 1e-150:
        raise ZeroVector("slow vector has zero norm; nothing to lift")
    return full / norm
