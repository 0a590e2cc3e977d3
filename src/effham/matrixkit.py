"""Dense linear-algebra kernels with validated contracts.

The heavy lifting is delegated to LAPACK through numpy; this module adds
the input validation, the failure taxonomy, and the convention fixes
(sorted spectra, gap-guarded Sylvester solves) that the rest of the package
relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DefectiveMatrix,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
    OracleAmbiguous,
    SpectraOverlap,
)

__all__ = [
    "EigenDecomposition",
    "as_matrix",
    "spectral_norm",
    "hermiticity_deviation",
    "hermitize",
    "require_hermitian",
    "hermitian_eig",
    "general_eig",
    "posdef_roots",
    "sylvester_solve",
    "pair_eigenvalues",
]

# Hermiticity tolerance, relative to max(1, ||a||), of every check here.
HERM_TOL = 1e-10
# Largest eigenbasis condition number general_eig accepts.
COND_LIMIT = 1e12
# Smallest slow/fast eigenvalue separation sylvester_solve divides by.
GAP_TOL = 1e-9


def as_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite, 2-D, complex array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value; 0.0, without an SVD, for a zero or empty one."""
    a = np.asarray(a, dtype=complex)
    if not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermiticity_deviation(a: np.ndarray) -> float:
    """Spectral norm of the anti-hermitian part residual ``a - a^dagger``."""
    a = np.asarray(a, dtype=complex)
    return spectral_norm(a - a.conj().T)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part ``(a + a^dagger) / 2``."""
    return 0.5 * (a + a.conj().T)


def _hermiticity_excess(a: np.ndarray, tol: float,
                        residual: np.ndarray | None = None):
    """``(||residual||, max(1, ||a||))`` if the first exceeds ``tol`` times
    the second, else None.  ``residual`` defaults to ``a - a^dagger``; an
    exact zero costs no SVD, and ``||a||`` is taken only past ``tol``."""
    dev = (hermiticity_deviation(a) if residual is None
           else spectral_norm(residual))
    if dev <= tol:
        return None
    scale = max(1.0, spectral_norm(a))
    return (dev, scale) if dev > tol * scale else None


def require_hermitian(a: np.ndarray, tol: float = HERM_TOL,
                      name: str = "matrix") -> np.ndarray:
    """Raise :class:`NotHermitian` unless ``a`` is hermitian within ``tol``.

    The deviation ``||a - a^dagger||`` is compared against
    ``tol * max(1, ||a||)`` so that the check is absolute for small matrices
    and relative for large ones.
    """
    excess = _hermiticity_excess(a, tol)
    if excess is not None:
        raise NotHermitian(
            f"{name} is not hermitian: deviation {excess[0]:.3e} exceeds "
            f"{tol:.1e} * {excess[1]:.3e}", deviation=excess[0])
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and eigenvectors, column ``i`` belonging to ``values[i]``.

    For hermitian input the values are real and ascending and the vectors
    are orthonormal; otherwise the values are sorted by real part (ties by
    imaginary part) and the vectors are normalized but not orthogonal.
    """

    values: np.ndarray
    vectors: np.ndarray
    hermitian: bool


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a matrix hermitian to ``HERM_TOL``, ascending."""
    a = _require_square(as_matrix(a))
    require_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
        raise ConvergenceFailure(f"hermitian eigensolver failed: {exc}") from exc
    return EigenDecomposition(values=values, vectors=vectors, hermitian=True)


def general_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a general matrix.

    Raises :class:`DefectiveMatrix` when the condition number of the
    eigenvector matrix exceeds ``COND_LIMIT``, too ill-conditioned to
    define a meaningful spectral decomposition.
    """
    a = _require_square(as_matrix(a))
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(f"general eigensolver failed: {exc}") from exc
    sv = np.linalg.svd(vectors, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > COND_LIMIT:
        cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
        raise DefectiveMatrix(
            f"eigenbasis condition number {cond:.3e} exceeds {COND_LIMIT:.1e}")
    order = np.lexsort((values.imag, values.real))
    return EigenDecomposition(values=values[order], vectors=vectors[:, order],
                              hermitian=False)


def _heaviest_columns(rows: np.ndarray, count: int, floor: float,
                      what: str) -> np.ndarray:
    """Ascending indices of the ``count`` columns of largest weight, the
    weight of a column being its summed ``|entry|^2`` over ``rows`` (the
    row subset of a set of eigenvectors, with more than ``count`` columns).

    Raises :class:`OracleAmbiguous` when the weight gap between the last
    chosen column and the next is below ``floor``.
    """
    weights = np.sum(np.abs(rows) ** 2, axis=0)
    order = np.argsort(weights)[::-1]
    gap = float(weights[order[count - 1]] - weights[order[count]])
    if gap < floor:
        raise OracleAmbiguous(
            f"{what} weight gap {gap:.3e} below {floor:.1e}; "
            f"eigenvectors cannot be assigned by weight")
    return np.sort(order[:count])


def posdef_roots(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian square root and inverse square root of a positive definite
    matrix, both from one eigendecomposition."""
    ed = hermitian_eig(a)
    if ed.values[0] <= 0.0:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {ed.values[0]:.3e} is not positive")
    root = np.sqrt(ed.values)
    return (hermitize((ed.vectors * root) @ ed.vectors.conj().T),
            hermitize((ed.vectors / root) @ ed.vectors.conj().T))


def sylvester_solve(slow: EigenDecomposition, fast: EigenDecomposition,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve ``x @ S - F @ x = rhs`` for hermitian ``S`` and ``F``.

    ``slow`` and ``fast`` are the eigendecompositions of ``S`` and ``F``; the
    equation is divided through by the eigenvalue differences, so the
    solution exists and is unique exactly when the two spectra are disjoint.
    :class:`SpectraOverlap` is raised when any eigenvalue pair comes closer
    than ``GAP_TOL``.
    """
    rhs = as_matrix(rhs, "right-hand side")
    shape = (fast.values.size, slow.values.size)
    if rhs.shape != shape:
        raise ShapeMismatch(
            f"right-hand side shape {rhs.shape} does not match {shape}")
    denom = slow.values[None, :] - fast.values[:, None]
    gap = float(np.min(np.abs(denom))) if denom.size else np.inf
    if gap < GAP_TOL:
        raise SpectraOverlap(
            f"slow and fast spectra are separated by only {gap:.3e} "
            f"(required {GAP_TOL:.1e})", gap=gap)
    mixed = fast.vectors.conj().T @ rhs @ slow.vectors
    return fast.vectors @ (mixed / denom) @ slow.vectors.conj().T


def pair_eigenvalues(candidates: np.ndarray,
                     reference: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Greedy one-to-one pairing of two equally long eigenvalue lists.

    Repeatedly matches the globally closest unmatched pair and returns the
    largest paired distance together with the index pairs
    ``(candidate_index, reference_index)``.
    """
    cand = np.asarray(candidates, dtype=complex).ravel()
    ref = np.asarray(reference, dtype=complex).ravel()
    if cand.shape != ref.shape:
        raise ShapeMismatch(
            f"cannot pair {cand.size} candidates with {ref.size} references")
    dist = np.abs(cand[:, None] - ref[None, :])
    pairs: list[tuple[int, int]] = []
    worst = 0.0
    free_c = list(range(cand.size))
    free_r = list(range(ref.size))
    while free_c:
        sub = dist[np.ix_(free_c, free_r)]
        k = int(np.argmin(sub))
        i, j = divmod(k, len(free_r))
        worst = max(worst, float(sub[i, j]))
        pairs.append((free_c[i], free_r[j]))
        free_c.pop(i)
        free_r.pop(j)
    pairs.sort()
    return worst, pairs
