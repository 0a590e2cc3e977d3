"""Linear-algebra kernel contracts: norms, decompositions, guards."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham import matrixkit as mk
from effham.errors import (
    DefectiveMatrix,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
    SpectraOverlap,
)
from ensembles import antihermitian_shift, random_hermitian


def test_norms_known_values():
    a = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert mk.spectral_norm(a) == pytest.approx(4.0)


def test_as_matrix_validation():
    with pytest.raises(ShapeMismatch):
        mk.as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        mk.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        mk.as_matrix(np.array([[1.0, np.inf * 1j], [0.0, 1.0]]))


def test_require_hermitian_reports_deviation():
    good = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -1.0]])
    mk.require_hermitian(good)
    bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(NotHermitian) as info:
        mk.require_hermitian(bad)
    assert info.value.deviation == pytest.approx(0.1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       norm=st.sampled_from([0.2, 1.0, 40.0]),
       ratio=st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.05, 1.5, 3.0]),
       tol=st.sampled_from([1e-12, 1e-10]))
def test_require_hermitian_matches_reference_formula(n, seed, norm, ratio,
                                                     tol):
    # Exactly hermitian h, moved off hermiticity to ``ratio`` times the
    # threshold tol * max(1, ||h||): both sides of it, and the exact case.
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n, norm)
    a = antihermitian_shift(rng, h, 0.5 * ratio * tol * max(1.0, norm))
    dev = np.linalg.norm(a - a.conj().T, 2)
    if dev <= tol * max(1.0, np.linalg.norm(a, 2)):
        assert mk.require_hermitian(a, tol=tol) is a
    else:
        with pytest.raises(NotHermitian) as info:
            mk.require_hermitian(a, tol=tol)
        assert info.value.deviation == dev


def test_hermitian_eig_sorted_and_reconstructs():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ed = mk.hermitian_eig(a)
    assert ed.hermitian
    assert np.allclose(ed.values, [-1.0, 1.0])
    rebuilt = (ed.vectors * ed.values) @ ed.vectors.conj().T
    assert np.linalg.norm(rebuilt - a) < 1e-14


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        mk.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_general_eig_sorted_by_real_part():
    a = np.array([[2.0, 5.0], [0.0, 1.0]], dtype=complex)
    ed = mk.general_eig(a)
    assert not ed.hermitian
    assert np.allclose(ed.values, [1.0, 2.0])


def test_general_eig_rejects_defective():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DefectiveMatrix):
        mk.general_eig(jordan)


def test_posdef_roots():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = b @ b.conj().T + 0.5 * np.eye(3)
    root, inv_root = mk.posdef_roots(a)
    assert np.linalg.norm(root @ root - a) < 1e-12
    assert np.linalg.norm(root @ inv_root - np.eye(3)) < 1e-12
    assert np.linalg.norm(root - root.conj().T) < 1e-14


def test_posdef_roots_reject_indefinite():
    indefinite = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveDefinite):
        mk.posdef_roots(indefinite)


def test_sylvester_solves_the_equation():
    rng = np.random.default_rng(11)
    slow = random_hermitian(rng, 2, scale=0.3)
    fast = random_hermitian(rng, 3) + 4.0 * np.eye(3)
    rhs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x = mk.sylvester_solve(mk.hermitian_eig(slow), mk.hermitian_eig(fast), rhs)
    assert np.linalg.norm(x @ slow - fast @ x - rhs) < 1e-12


def test_sylvester_rejects_overlapping_spectra():
    slow = np.array([[1.0]])
    fast = np.diag([1.0 + 1e-12, 5.0])
    with pytest.raises(SpectraOverlap) as info:
        mk.sylvester_solve(mk.hermitian_eig(slow), mk.hermitian_eig(fast),
                           np.ones((2, 1)))
    assert info.value.gap < 1e-9


def test_sylvester_shape_guard():
    with pytest.raises(ShapeMismatch):
        mk.sylvester_solve(mk.hermitian_eig(np.eye(2)),
                           mk.hermitian_eig(4.0 * np.eye(3)), np.ones((2, 3)))


def test_pair_eigenvalues_handles_permutations():
    ref = np.array([0.0, 1.0, 5.0])
    cand = np.array([5.0 + 1e-4, 0.0 - 2e-4, 1.0])
    worst, pairs = mk.pair_eigenvalues(cand, ref)
    assert worst == pytest.approx(2e-4)
    assert sorted(pairs) == [(0, 2), (1, 0), (2, 1)]


def test_pair_eigenvalues_shape_guard():
    with pytest.raises(ShapeMismatch):
        mk.pair_eigenvalues(np.ones(2), np.ones(3))


def test_random_hermitian_roundtrip_property():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 5.0)))
        ed = mk.hermitian_eig(h)
        rebuilt = (ed.vectors * ed.values) @ ed.vectors.conj().T
        assert np.linalg.norm(rebuilt - h) < 1e-12 * max(1.0, np.linalg.norm(h))
        assert np.all(np.diff(ed.values) >= 0.0)
