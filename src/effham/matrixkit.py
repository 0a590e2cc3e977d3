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


def _as_stack(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite complex array of shape ``(..., m, n)``: one
    matrix, or a stack of them along the leading axes."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim < 2:
        raise ShapeMismatch(
            f"{name} must be a matrix or a stack of them, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite, 2-D, complex array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    return _as_stack(arr, name)


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _per_matrix(values):
    """One value per matrix: a Python scalar for one matrix (0-d), the array
    over the leading axes for a stack."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


def _first_failing(bad):
    """Index of the first matrix of a stack that fails a check (``bad``, a
    boolean array or numpy bool per matrix, in C order), ``()`` for one
    failing matrix, or None when none fails."""
    if not bad.any():
        return None
    return np.unravel_index(int(np.argmax(bad)), np.shape(bad))


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of ``a``, shape ``(..., m, n)``."""
    return a.conj().swapaxes(-1, -2)


def spectral_norm(a: np.ndarray):
    """Largest singular value of each matrix of ``a``, shape ``(..., m, n)``
    (:func:`_per_matrix`); zero or empty input gives 0.0 without an SVD."""
    a = np.asarray(a, dtype=complex)
    if not a.any():
        return _per_matrix(np.zeros(a.shape[:-2]))
    return _per_matrix(np.linalg.svd(a, compute_uv=False).max(axis=-1))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part ``(a + a^dagger) / 2`` of each matrix of ``a``, halved
    before the sum so that no finite hermitian input overflows."""
    return 0.5 * a + 0.5 * _adjoint(a)


def _hermiticity_excess(a: np.ndarray, tol: float,
                        partner: np.ndarray | None = None):
    """``(||a^dagger - partner||, max(1, ||a||))`` of the first matrix of
    ``a`` whose first entry is not within ``tol`` times the second, else
    None.  ``partner`` defaults to ``a`` (the residual is then formed as
    ``a - a^dagger``, of the same norm); an exact zero deviation costs no
    SVD, and ``||a||`` is taken only past ``tol``.  Where the residual or a
    norm overflows, both norms are taken of ``a`` and ``partner`` scaled by
    one power of two per matrix, which is exact: no SVD sees a non-finite
    matrix, no overflow passes, and the reported pair may read inf.
    Non-finite input raises ValueError."""
    a = np.asarray(a, dtype=complex)
    left, right = (a, _adjoint(a)) if partner is None else (_adjoint(a), partner)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = left - right
    if not residual.any():  # the common exact case, at no further cost
        return None
    dev = scale = np.inf
    if np.isfinite(residual).all():
        dev = np.asarray(spectral_norm(residual))
        if (dev <= tol).all():
            return None
        scale = np.fmax(1.0, spectral_norm(a))
    unit = 1.0
    if not (np.isfinite(dev).all() and np.isfinite(scale).all()):
        largest = np.max([np.abs(part).max(axis=(-2, -1), initial=0.0)
                          for m in (left, right) for part in (m.real, m.imag)],
                         axis=0)  # per matrix, of |re| and |im| of an entry
        if not np.isfinite(largest).all():
            raise ValueError("matrix contains non-finite entries")
        unit = np.ldexp(1.0, -np.frexp(largest)[1])  # largest * unit < 1
        u = unit[..., None, None]
        dev = np.asarray(spectral_norm(left * u - right * u))
        scale = np.fmax(unit, spectral_norm(a * u))
    i = _first_failing(~(dev <= tol * scale))
    if i is None:
        return None
    with np.errstate(over="ignore"):
        return float((dev / unit)[i]), float((scale / unit)[i])


def require_hermitian(a: np.ndarray, tol: float = HERM_TOL,
                      name: str = "matrix") -> np.ndarray:
    """Raise :class:`NotHermitian` unless every matrix of ``a``, shape
    ``(..., n, n)``, is hermitian within ``tol``.

    The deviation ``||a - a^dagger||`` is compared against
    ``tol * max(1, ||a||)`` so that the check is absolute for small matrices
    and relative for large ones; the first failing matrix is reported.
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
    imaginary part) and the vectors are normalized but not orthogonal.  A
    stack of matrices gives ``values`` of shape ``(..., n)`` and
    ``vectors`` of shape ``(..., n, n)``, one decomposition per matrix.
    """

    values: np.ndarray
    vectors: np.ndarray
    hermitian: bool


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of each matrix of ``a``, shape ``(..., n, n)``,
    hermitian to ``HERM_TOL``, ascending."""
    a = _require_square(_as_stack(a))
    require_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
        raise ConvergenceFailure(f"hermitian eigensolver failed: {exc}") from exc
    return EigenDecomposition(values=values, vectors=vectors, hermitian=True)


def general_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of each general matrix of ``a``, shape
    ``(..., n, n)``.

    Raises :class:`DefectiveMatrix` when the condition number of an
    eigenvector matrix exceeds ``COND_LIMIT``, too ill-conditioned to
    define a meaningful spectral decomposition.
    """
    a = _require_square(_as_stack(a))
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(f"general eigensolver failed: {exc}") from exc
    sv = np.linalg.svd(vectors, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = np.where(sv[..., -1] == 0.0, np.inf, sv[..., 0] / sv[..., -1])
    i = _first_failing(cond > COND_LIMIT)
    if i is not None:
        raise DefectiveMatrix(
            f"eigenbasis condition number {float(cond[i]):.3e} exceeds "
            f"{COND_LIMIT:.1e}")
    order = np.lexsort((values.imag, values.real), axis=-1)
    return EigenDecomposition(
        values=np.take_along_axis(values, order, axis=-1),
        vectors=np.take_along_axis(vectors, order[..., None, :], axis=-1),
        hermitian=False)


def _expm(a: np.ndarray) -> np.ndarray:
    """Exponential of a square matrix by scaling and squaring (Higham,
    SIAM J. Matrix Anal. Appl. 26, 1179 (2005)): the degree-18 Taylor
    polynomial of ``a / 2^s``, with ``2^s >= 1`` the least power of two
    above twice the 1-norm (so the remainder is below 1e-23 relative), squared
    ``s`` times.  A non-finite norm gives an all-nan matrix; an overflow
    while squaring gives inf or nan entries, under the caller's
    ``np.errstate``."""
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not np.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=complex)
    s = max(0, int(np.frexp(norm)[1]) + 1)  # norm < 2^e
    scaled = a * 0.5 ** s
    eye = np.eye(a.shape[0], dtype=complex)
    out = eye
    for k in range(18, 0, -1):  # Horner: 1 + x (1 + x/2 (1 + x/3 (...)))
        out = eye + (scaled @ out) / k
    for _ in range(s):
        out = out @ out
    return out


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
    """Hermitian square root and inverse square root of each positive
    definite matrix of ``a``, shape ``(..., n, n)``, both from one
    eigendecomposition."""
    ed = hermitian_eig(a)
    i = _first_failing(ed.values[..., 0] <= 0.0)
    if i is not None:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {ed.values[i][0]:.3e} is not positive")
    root = np.sqrt(ed.values)[..., None, :]
    back = _adjoint(ed.vectors)
    return (hermitize((ed.vectors * root) @ back),
            hermitize((ed.vectors / root) @ back))


def sylvester_solve(slow: EigenDecomposition, fast: EigenDecomposition,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve ``x @ S - F @ x = rhs`` for hermitian ``S`` and ``F``.

    ``slow`` and ``fast`` are the eigendecompositions of ``S`` and ``F``; the
    equation is divided through by the eigenvalue differences, so the
    solution exists and is unique exactly when the two spectra are disjoint.
    :class:`SpectraOverlap` is raised when any eigenvalue pair comes closer
    than ``GAP_TOL``.  Stacked decompositions and a right-hand side of
    shape ``(..., q, p)`` solve one equation per matrix.
    """
    rhs = _as_stack(rhs, "right-hand side")
    shape = (fast.values.shape[-1], slow.values.shape[-1])
    if rhs.shape[-2:] != shape:
        raise ShapeMismatch(
            f"right-hand side shape {rhs.shape} does not match {shape}")
    denom = slow.values[..., None, :] - fast.values[..., :, None]
    gap = np.min(np.abs(denom), axis=(-2, -1), initial=np.inf)
    i = _first_failing(gap < GAP_TOL)
    if i is not None:
        raise SpectraOverlap(
            f"slow and fast spectra are separated by only {gap[i]:.3e} "
            f"(required {GAP_TOL:.1e})", gap=float(gap[i]))
    mixed = _adjoint(fast.vectors) @ rhs @ slow.vectors
    return fast.vectors @ (mixed / denom) @ _adjoint(slow.vectors)


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
