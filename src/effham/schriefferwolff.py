"""Block-rotation view of the slow/fast decoupling.

A unitary rotation built from the embedding block brings the partitioned
operator to block-diagonal form.  The generator is the anti-hermitian
matrix with off-diagonal block pair ``(-G^dagger, G)``; ``G`` relates to
the embedding block ``B`` through ``G = U arctan(S) V^dagger`` where
``B = U S V^dagger`` is the singular value decomposition.  The rotation is
always assembled in closed form from ``B``, never by exponentiating the
generator:

    R = [[1, -B^dagger], [B, 1]] @ diag((1 + B^dagger B)^(-1/2),
                                        (1 + B B^dagger)^(-1/2)).

Conjugating the partitioned operator with ``R`` reproduces the hermitized
effective operator in the slow corner exactly, and leaves an off-diagonal
block proportional to the block-equation defect.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit
from .bloch import BlochEmbedding, embedding_from_matrix
from .effective import EffectiveOperator
from .errors import ShapeMismatch, WidePrincipalAngle
from .partition import PartitionedHamiltonian

__all__ = [
    "SWGenerator",
    "rotation_from_block",
    "generator_from_embedding",
    "first_order_generator",
    "tanh_block",
    "embedding_from_generator",
    "sw_first_order_hamiltonian",
    "block_offdiagonal_norm",
]


@dataclass(frozen=True)
class SWGenerator:
    """Decoupling rotation and its generator block.

    ``block`` is the q x p generator block ``G`` (the full anti-hermitian
    generator is ``[[0, -G^dagger], [G, 0]]``), ``rotation`` the unitary it
    generates, and ``order`` either ``"exact"`` (built from an embedding
    block) or ``"first_order"`` (built from the linearized equation).
    """

    block: np.ndarray
    rotation: np.ndarray
    order: str

    @property
    def full_generator(self) -> np.ndarray:
        q, p = self.block.shape
        out = np.zeros((p + q, p + q), dtype=complex)
        out[p:, :p] = self.block
        out[:p, p:] = -self.block.conj().T
        return out


def _rotation_from_svd(b: np.ndarray, u: np.ndarray, s: np.ndarray,
                       vh: np.ndarray) -> np.ndarray:
    """Closed-form decoupling unitary for ``b`` given its thin SVD."""
    q, p = b.shape
    shrink = 1.0 / np.sqrt(1.0 + s * s) - 1.0
    slow_norm = np.eye(p) + (vh.conj().T * shrink) @ vh
    fast_norm = np.eye(q) + (u * shrink) @ u.conj().T
    out = np.zeros((p + q, p + q), dtype=complex)
    out[:p, :p] = slow_norm
    out[p:, :p] = b @ slow_norm
    out[:p, p:] = -b.conj().T @ fast_norm
    out[p:, p:] = fast_norm
    return out


def rotation_from_block(block: np.ndarray) -> np.ndarray:
    """Closed-form decoupling unitary for an embedding block."""
    b = np.asarray(block, dtype=complex)
    return _rotation_from_svd(b, *np.linalg.svd(b, full_matrices=False))


def generator_from_embedding(embedding: BlochEmbedding | np.ndarray) -> SWGenerator:
    """Generator whose rotation block-diagonalizes along the embedding.

    Applies ``arctan`` to the singular values of the embedding block; the
    rotation itself is assembled in closed form from the same thin SVD.
    """
    b = np.asarray(embedding.matrix if isinstance(embedding, BlochEmbedding)
                   else embedding, dtype=complex)
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    return SWGenerator(block=(u * np.arctan(s)) @ vh,
                       rotation=_rotation_from_svd(b, u, s, vh), order="exact")


def _tan_block(gen_block: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(gen_block, full_matrices=False)
    if s.size and s[0] >= 0.5 * np.pi:
        raise WidePrincipalAngle("generator has a principal angle >= pi/2")
    return (u * np.tan(s)) @ vh


def tanh_block(gen: SWGenerator) -> np.ndarray:
    """Embedding block reproducing ``gen``: ``tan`` of its singular values.

    Inverts :func:`generator_from_embedding`.  For a first-order generator
    this gives an embedding seed that resums the slow-block dependence of
    the linearized equation; it requires every principal angle below pi/2.
    """
    return _tan_block(gen.block)


def _linearized_block(ph: PartitionedHamiltonian) -> np.ndarray:
    return matrixkit.sylvester_solve(ph.slow_eig, ph.fast_eig, ph.coupling)


def first_order_generator(ph: PartitionedHamiltonian) -> SWGenerator:
    """Generator from the linearized decoupling condition.

    Solves ``G @ slow_block - fast_block @ G = coupling``, the equation
    obtained by keeping only terms linear in the coupling.  Requires
    slow/fast spectra at least ``matrixkit.GAP_TOL`` apart
    (:class:`SpectraOverlap` otherwise).  The
    attached rotation is the closed form for the matching embedding block
    ``tan`` (principal angles), so it is exactly unitary.
    """
    gen = _linearized_block(ph)
    return SWGenerator(block=gen, rotation=rotation_from_block(_tan_block(gen)),
                       order="first_order")


def embedding_from_generator(ph: PartitionedHamiltonian,
                             gen: SWGenerator) -> BlochEmbedding:
    """Embedding seeded by a generator through :func:`tanh_block`."""
    return embedding_from_matrix(ph, tanh_block(gen))


def sw_first_order_hamiltonian(ph: PartitionedHamiltonian) -> EffectiveOperator:
    """Second-order effective operator from the first-order generator.

    ``slow_block + (G^dagger @ coupling + coupling^dagger @ G) / 2`` with
    ``G`` from :func:`first_order_generator`.  Hermitian by construction
    and correct through second order in the coupling.
    """
    gen = _linearized_block(ph)
    matrix = ph.slow_block + 0.5 * (gen.conj().T @ ph.coupling
                                    + ph.coupling.conj().T @ gen)
    return EffectiveOperator(matrix=matrixkit.hermitize(matrix),
                             hermitian=True, source="sw_first")


def block_offdiagonal_norm(matrix: np.ndarray, gen: SWGenerator,
                           slow_dim: int) -> float:
    """Residual coupling after rotating a full operator.

    ``matrix`` must be given in partitioned ordering (slow components
    first).  Returns the spectral norm of the fast-to-slow block of
    ``R^dagger @ matrix @ R``; zero exactly when the rotation
    block-diagonalizes the operator.
    """
    m = matrixkit.as_matrix(matrix)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"operator must be square, got shape {m.shape}")
    if gen.rotation.shape != (n, n):
        raise ShapeMismatch(
            f"rotation acts on dimension {gen.rotation.shape[0]}, "
            f"operator has dimension {n}")
    if not 0 < slow_dim < n:
        raise ShapeMismatch(
            f"slow dimension {slow_dim} incompatible with operator size {n}")
    rotated = gen.rotation.conj().T @ m @ gen.rotation
    return matrixkit.spectral_norm(rotated[slow_dim:, :slow_dim])
