"""Linear-algebra kernel contracts: norms, decompositions, guards."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from effham import matrixkit as mk
from effham.bloch import iterate_bloch
from effham.cli import three_level_matrix
from effham.effective import nonhermitian_effective
from effham.errors import (
    DefectiveMatrix,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
    SpectraOverlap,
)
from effham.partition import partition_hamiltonian
from ensembles import antihermitian_shift, random_hermitian, rel_err


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


def test_require_hermitian_judges_huge_entries_without_overflow():
    # Entries past sqrt(max float) overflow a plain Frobenius or column
    # norm to inf; the verdict must still follow the spectral norms.
    with pytest.raises(NotHermitian) as info:
        mk.require_hermitian(np.array([[0.0, 1e200], [0.0, 0.0]]))
    assert info.value.deviation == pytest.approx(1e200)
    h = np.array([[1e200, 3e199 - 1e199j], [3e199 + 1e199j, -1e200]])
    assert mk.require_hermitian(h) is h
    near = h + np.array([[0.0, 1e187], [-1e187, 0.0]])
    assert mk.require_hermitian(near) is near


NEAR_OVERFLOW_SKEW = [np.array([[1e308, 1e308], [-1e308, 0.0]]),
                      np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])]
BIG = np.finfo(float).max


@pytest.mark.parametrize("a", NEAR_OVERFLOW_SKEW)
def test_require_hermitian_rejects_residuals_that_overflow(a, capfd):
    # a - a^dagger overflows to inf; its SVD read nan, and nan passed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian):
            mk.require_hermitian(a)
        stack = np.stack([np.eye(2), a])
        with pytest.raises(NotHermitian):
            mk.require_hermitian(stack)
        h = np.zeros((2, 3, 3), dtype=complex)
        h[..., 2, 2] = 3.0
        h[:, :2, :2] = stack
        with pytest.raises(NotHermitian):
            partition_hamiltonian(h, [0])
    assert capfd.readouterr().err == ""  # nothing from LAPACK


@pytest.mark.parametrize("h, slow", [
    ([[1e308, 1e308, 0], [1e308, -1e308, 0], [0, 0, 1]], [2]),
    ([[0, BIG, 0], [BIG, 0, 0], [0, 0, 1]], [2]),
    ([[1, 0, 0], [0, 0, 1j * BIG], [0, -1j * BIG, 0]], [0]),
    ([[BIG, 0, 1], [0, -BIG, 0], [1, 0, 0.5]], [2]),
])
def test_hermitian_matrices_near_overflow_pass_and_partition(h, slow):
    h = np.array(h, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mk.require_hermitian(h) is h
        assert np.array_equal(mk.hermitize(h), h)
        ph = partition_hamiltonian(h, slow)
        for block in (ph.slow_block, ph.fast_block, ph.coupling,
                      ph.fast_eig.values):
            assert np.isfinite(block).all()


def test_require_hermitian_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite"):
        mk.require_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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


def test_expm_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(29)
    worst = 0.0
    for n in range(1, 9):
        for norm in np.logspace(-8, 2, 11):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a *= norm / np.linalg.norm(a, 2)
            worst = max(worst, rel_err(mk._expm(a), scipy.linalg.expm(a)))
    assert worst <= 1e-12


def test_expm_matches_scipy_on_iterate_generators():
    # exp(-i G dt) for the non-hermitian iterate<k> generators that
    # simulate evolves, over a stack of 50 three-level variants.
    rng = np.random.default_rng(31)
    h = np.stack([three_level_matrix(
        detuning=rng.uniform(-0.05, 0.05), gap=rng.uniform(0.5, 2.0),
        rabi_a=rng.uniform(0.05, 0.6) * np.exp(1j * rng.uniform(0, 6.3)),
        rabi_b=rng.uniform(0.05, 0.6) * np.exp(1j * rng.uniform(0, 6.3)))
        for _ in range(50)])
    ph = partition_hamiltonian(h, (0, 1))
    worst = 0.0
    for k in range(1, 65):
        be = iterate_bloch(ph, tol=0.0, max_iter=k, require_convergence=False)
        for gen in nonhermitian_effective(ph, be).matrix:
            for dt in np.geomspace(0.025, 400.0, 3):
                a = -1j * gen * dt
                worst = max(worst, rel_err(mk._expm(a), scipy.linalg.expm(a)))
    assert worst <= 1e-13

