"""Effective slow-sector operators and eigenvector lifting."""
from __future__ import annotations

import numpy as np
import pytest

from effham.bloch import adiabatic_embedding, embedding_from_matrix, iterate_bloch
from effham.effective import (
    adiabatic_hamiltonian,
    hermitian_effective,
    nonhermitian_effective,
    reconstruct_full_eigenvector,
    second_order_hamiltonian,
)
from effham.errors import ShapeMismatch, ZeroVector
from effham.partition import PartitionedHamiltonian
from effham import matrixkit
from ensembles import fast_block_ensemble, lambda_partition, make_partition, rel_err

FULL_EIGS = (-0.05790167391504361, -0.0012484394101993715, 1.0591501133252428)


def test_adiabatic_hamiltonian_frozen_matrix():
    h1 = adiabatic_hamiltonian(lambda_partition())
    assert h1.hermitian
    assert h1.source == "adiabatic"
    # entries are exact rationals of the model parameters
    expected = np.array([[-0.03125, -0.03], [-0.03, -0.03125]])
    assert np.allclose(h1.matrix, expected, atol=1e-16)
    assert np.allclose(sorted(h1.spectrum()), [-0.06125, -0.00125], atol=1e-15)


def test_nonhermitian_on_adiabatic_block_matches_adiabatic():
    ph = lambda_partition()
    h = nonhermitian_effective(ph, adiabatic_embedding(ph))
    assert not h.hermitian
    assert h.source == "nonhermitian[adiabatic]"
    assert np.allclose(h.matrix, adiabatic_hamiltonian(ph).matrix, atol=1e-16)


def test_hermitian_effective_reproduces_slow_spectrum():
    ph = lambda_partition()
    heff = hermitian_effective(ph, iterate_bloch(ph))
    assert heff.hermitian
    assert np.linalg.norm(heff.matrix - heff.matrix.conj().T) < 1e-15
    vals = np.sort(heff.spectrum().real)
    assert vals[0] == pytest.approx(FULL_EIGS[0], abs=1e-12)
    assert vals[1] == pytest.approx(FULL_EIGS[1], abs=1e-12)
    assert heff.norm_factor is not None


def test_hermitian_effective_is_hermitian_for_any_block():
    rng = np.random.default_rng(31)
    for _ in range(10):
        ph = make_partition(rng, 2, 3, 0.1, 0.2)
        raw = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        heff = hermitian_effective(ph, embedding_from_matrix(ph, 0.3 * raw))
        assert np.linalg.norm(heff.matrix - heff.matrix.conj().T) < 1e-12


def test_norm_factor_squares_to_gram_matrix():
    ph = lambda_partition()
    be = iterate_bloch(ph)
    heff = hermitian_effective(ph, be)
    gram = np.eye(2) + be.matrix.conj().T @ be.matrix
    assert np.linalg.norm(heff.norm_factor @ heff.norm_factor - gram) < 1e-14


def test_second_order_frozen_matrix():
    h2 = second_order_hamiltonian(lambda_partition())
    assert h2.hermitian
    assert h2.source == "second_order"
    expected = np.array([[-0.03160000000000001, -0.03],
                         [-0.03, -0.031053125]])
    assert np.allclose(h2.matrix, expected, atol=1e-15)


def test_second_order_reduces_to_adiabatic_without_slow_block():
    ph = lambda_partition()
    flat = PartitionedHamiltonian(
        slow_block=np.zeros((2, 2)), fast_block=ph.fast_block,
        coupling=ph.coupling, slow_indices=ph.slow_indices,
        fast_indices=ph.fast_indices)
    h1 = adiabatic_hamiltonian(flat)
    h2 = second_order_hamiltonian(flat)
    assert np.allclose(h1.matrix, h2.matrix, atol=1e-16)


def test_reconstruct_full_eigenvector_residual():
    ph = lambda_partition()
    be = iterate_bloch(ph)
    h = nonhermitian_effective(ph, be)
    vals, vecs = np.linalg.eig(h.matrix)
    full = ph.block_matrix
    for i in range(2):
        lifted = reconstruct_full_eigenvector(ph, be, vecs[:, i])
        assert np.linalg.norm(lifted) == pytest.approx(1.0, abs=1e-14)
        resid = np.linalg.norm(full @ lifted - vals[i].real * lifted)
        assert resid < 1e-10


def test_reconstruct_decoupled_limit():
    ph = PartitionedHamiltonian(
        slow_block=np.diag([0.2, -0.1]), fast_block=2.0 * np.eye(1),
        coupling=np.zeros((1, 2)), slow_indices=(0, 1), fast_indices=(2,))
    be = iterate_bloch(ph)
    lifted = reconstruct_full_eigenvector(ph, be, np.array([1.0, 0.0]))
    assert np.allclose(lifted, [1.0, 0.0, 0.0], atol=1e-15)


def test_reconstruct_input_validation():
    ph = lambda_partition()
    be = iterate_bloch(ph)
    with pytest.raises(ShapeMismatch):
        reconstruct_full_eigenvector(ph, be, np.ones(3))
    with pytest.raises(ZeroVector):
        reconstruct_full_eigenvector(ph, be, np.zeros(2))


def test_pair_spectra_orders_by_distance():
    worst, _ = matrixkit.pair_eigenvalues(np.array([1.0, 5.0]),
                                          np.array([5.0 + 1e-3, 1.0 - 1e-3]))
    assert worst == pytest.approx(1e-3)


def test_eliminations_match_bare_formulas():
    for ph in fast_block_ensemble():
        inv_c = np.linalg.solve(ph.fast_block, ph.coupling)
        inv2_c = np.linalg.solve(ph.fast_block, inv_c)
        first = ph.slow_block - ph.coupling.conj().T @ inv_c
        weight = ph.coupling.conj().T @ inv2_c
        second = first - 0.5 * (weight @ ph.slow_block + ph.slow_block @ weight)
        assert rel_err(adiabatic_hamiltonian(ph).matrix,
                       matrixkit.hermitize(first)) < 1e-12
        assert rel_err(second_order_hamiltonian(ph).matrix,
                       matrixkit.hermitize(second)) < 1e-12


def test_gram_roots_come_from_one_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(17)
    p, q = 3, 6
    ph = make_partition(rng, p, q, 0.2, 0.3)
    ph.fast_eig
    eigh = np.linalg.eigh
    shapes = []

    def counted(a, *args, **kw):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for _ in range(5):
        b = rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))
        shapes.clear()
        op = hermitian_effective(ph, b)
        assert shapes == [(p, p)]
        # The two-call formulas: one eigendecomposition per root.
        gram = np.eye(p) + b.conj().T @ b
        vals, vecs = eigh(gram)
        root = matrixkit.hermitize((vecs * np.sqrt(vals)) @ vecs.conj().T)
        vals, vecs = eigh(gram)
        inv_root = matrixkit.hermitize((vecs / np.sqrt(vals)) @ vecs.conj().T)
        core = (ph.slow_block + ph.coupling.conj().T @ b
                + b.conj().T @ ph.coupling + b.conj().T @ ph.fast_block @ b)
        matrix = matrixkit.hermitize(
            inv_root @ matrixkit.hermitize(core) @ inv_root)
        assert rel_err(op.matrix, matrix) < 1e-14
        assert rel_err(op.norm_factor, root) < 1e-14


def test_nonhermitian_and_hermitized_spectra_agree_at_the_fixed_point():
    # The raw generator and its hermitization are similar matrices once the
    # embedding solves the block equation: one spectrum, real to rounding.
    worst_rel = worst_imag = 0.0
    for ph in [*fast_block_ensemble(), lambda_partition()]:
        be = iterate_bloch(ph)
        raw = nonhermitian_effective(ph, be).spectrum()
        herm = hermitian_effective(ph, be).spectrum()
        scale = np.max(np.abs(herm))
        worst_rel = max(worst_rel, np.max(np.abs(raw.real - herm)) / scale)
        worst_imag = max(worst_imag, np.max(np.abs(raw.imag)))
    assert worst_rel <= 1e-10
    assert worst_imag <= 1e-10
