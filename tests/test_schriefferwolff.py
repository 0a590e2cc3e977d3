"""Block-rotation (unitary decoupling) contracts."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from effham import matrixkit
from effham.bloch import bloch_residual, iterate_bloch
from effham.effective import hermitian_effective, second_order_hamiltonian
from effham.errors import ShapeMismatch, SpectraOverlap, WidePrincipalAngle
from effham.partition import PartitionedHamiltonian
from effham.schriefferwolff import (
    SWGenerator,
    block_offdiagonal_norm,
    embedding_from_generator,
    first_order_generator,
    generator_from_embedding,
    rotation_from_block,
    sw_first_order_hamiltonian,
)
from ensembles import (lambda_partition, make_partition, random_hermitian,
                       scaling_instance)


def test_scalar_generator_is_arctangent():
    gen = generator_from_embedding(np.array([[1.0]]))
    assert gen.block[0, 0] == pytest.approx(np.arctan(1.0))
    assert gen.order == "exact"


def test_rotation_is_unitary_for_random_blocks():
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = int(rng.integers(1, 5))
        p = int(rng.integers(1, 5))
        b = rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))
        r = rotation_from_block(b)
        n = p + q
        assert np.linalg.norm(r.conj().T @ r - np.eye(n)) < 1e-12


def test_rotation_matches_inverse_square_root_form():
    rng = np.random.default_rng(47)
    blocks = [iterate_bloch(scaling_instance()).matrix]
    for p in range(1, 5):
        for q in range(1, 9):
            ph = make_partition(rng, p, q, 0.2, 0.3)
            blocks.append(iterate_bloch(ph).matrix)
            blocks.append(2.0 * (rng.standard_normal((q, p))
                                 + 1j * rng.standard_normal((q, p))))
    for b in blocks:
        q, p = b.shape
        _, slow = matrixkit.posdef_roots(np.eye(p) + b.conj().T @ b)
        _, fast = matrixkit.posdef_roots(np.eye(q) + b @ b.conj().T)
        ref = np.block([[slow, -b.conj().T @ fast], [b @ slow, fast]])
        got = rotation_from_block(b)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_rotation_equals_exponentiated_generator():
    rng = np.random.default_rng(19)
    b = 0.7 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    gen = generator_from_embedding(b)
    direct = scipy.linalg.expm(gen.full_generator)
    assert np.linalg.norm(gen.rotation - direct) < 1e-12


def test_full_generator_is_antihermitian():
    gen = generator_from_embedding(np.array([[0.3, -0.2]]))
    s = gen.full_generator
    assert np.linalg.norm(s + s.conj().T) < 1e-15


def test_embedding_from_generator_inverts_generator_construction():
    rng = np.random.default_rng(43)
    b = 0.9 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    ph = make_partition(rng, 3, 2, 0.2, 0.3)
    gen = generator_from_embedding(b)
    be = embedding_from_generator(ph, gen)
    assert np.linalg.norm(be.matrix - b) < 1e-13
    assert be.residual == bloch_residual(ph, be.matrix)
    # The bare generator block is the same input.
    assert np.array_equal(embedding_from_generator(ph, gen.block).matrix,
                          be.matrix)


def test_embedding_from_generator_rejects_wide_principal_angle():
    ph = PartitionedHamiltonian(
        slow_block=np.array([[0.0]]), fast_block=np.array([[1.0]]),
        coupling=np.array([[0.1]]), slow_indices=(0,), fast_indices=(1,))
    gen = SWGenerator(block=np.array([[2.0]]), rotation=np.eye(2),
                      order="first_order")
    for arg in (gen, gen.block):
        with pytest.raises(WidePrincipalAngle):
            embedding_from_generator(ph, arg)


def test_first_order_block_is_solved_once_per_partition(monkeypatch):
    ph = lambda_partition()
    solve, calls = matrixkit.sylvester_solve, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(matrixkit, "sylvester_solve", counted)
    gen = first_order_generator(ph)
    sw_first_order_hamiltonian(ph)
    embedding_from_generator(ph, ph.first_order_block)
    assert len(calls) == 1
    assert gen.block is ph.first_order_block


def test_first_order_generator_frozen_solution():
    ph = lambda_partition()
    gen = first_order_generator(ph)
    assert gen.order == "first_order"
    assert gen.block[0, 0] == pytest.approx(-0.20176544766708704, abs=1e-13)
    assert gen.block[0, 1] == pytest.approx(-0.1486988847583643, abs=1e-13)
    defect = gen.block @ ph.slow_block - ph.fast_block @ gen.block - ph.coupling
    assert np.linalg.norm(defect) < 1e-13
    r = gen.rotation
    assert np.linalg.norm(r.conj().T @ r - np.eye(3)) < 1e-13


def test_first_order_generator_needs_disjoint_spectra():
    ph = PartitionedHamiltonian(
        slow_block=np.array([[1.0]]), fast_block=np.array([[1.0]]),
        coupling=np.array([[0.1]]), slow_indices=(0,), fast_indices=(1,))
    with pytest.raises(SpectraOverlap):
        first_order_generator(ph)


def test_embedding_from_generator_seeds_the_iteration():
    ph = lambda_partition()
    be = embedding_from_generator(ph, first_order_generator(ph))
    assert be.method == "custom"
    assert be.residual < 0.05
    refined = iterate_bloch(ph, seed=be.matrix)
    assert refined.residual <= 1e-12


def test_offdiagonal_norm_adiabatic_frozen():
    ph = lambda_partition()
    gen = generator_from_embedding(np.array([[-0.2, -0.15]]))
    off = block_offdiagonal_norm(ph.block_matrix, gen, ph.slow_dim)
    assert off == pytest.approx(0.014275533792188056, abs=1e-12)


def test_offdiagonal_vanishes_for_converged_embedding():
    ph = lambda_partition()
    be = iterate_bloch(ph)
    gen = generator_from_embedding(be)
    off = block_offdiagonal_norm(ph.block_matrix, gen, ph.slow_dim)
    assert off <= be.residual + 1e-15


def test_offdiagonal_bounded_by_block_residual():
    rng = np.random.default_rng(59)
    for _ in range(10):
        ph = make_partition(rng, 2, 2, 0.1, 0.15)
        raw = 0.4 * (rng.standard_normal((2, 2))
                     + 1j * rng.standard_normal((2, 2)))
        gen = generator_from_embedding(raw)
        off = block_offdiagonal_norm(ph.block_matrix, gen, 2)
        assert off <= bloch_residual(ph, raw) + 1e-12


def test_rotated_slow_corner_is_hermitian_effective():
    ph = lambda_partition()
    be = iterate_bloch(ph)
    gen = generator_from_embedding(be)
    rotated = gen.rotation.conj().T @ ph.block_matrix @ gen.rotation
    heff = hermitian_effective(ph, be)
    assert np.linalg.norm(rotated[:2, :2] - heff.matrix, 2) < 1e-14


def test_rotation_preserves_full_spectrum():
    ph = lambda_partition()
    gen = generator_from_embedding(iterate_bloch(ph))
    rotated = gen.rotation.conj().T @ ph.block_matrix @ gen.rotation
    a = np.linalg.eigvalsh(rotated)
    b = np.linalg.eigvalsh(ph.block_matrix)
    assert np.allclose(a, b, atol=1e-13)


def test_sw_first_order_hamiltonian_frozen():
    h = sw_first_order_hamiltonian(lambda_partition())
    assert h.hermitian
    assert h.source == "sw_first"
    expected = np.array([[-0.03160308953341741, -0.03000229705086796],
                         [-0.03000229705086796, -0.031054832713754643]])
    assert np.allclose(h.matrix, expected, atol=1e-14)


def test_sw_first_order_close_to_second_order():
    ph = lambda_partition()
    h_sw = sw_first_order_hamiltonian(ph).matrix
    h2 = second_order_hamiltonian(ph).matrix
    assert np.linalg.norm(h_sw - h2, 2) < 1e-5


def test_offdiagonal_norm_shape_guards():
    ph = lambda_partition()
    gen = generator_from_embedding(np.array([[-0.2, -0.15]]))
    with pytest.raises(ShapeMismatch):
        block_offdiagonal_norm(np.eye(4), gen, 2)
    with pytest.raises(ShapeMismatch):
        block_offdiagonal_norm(ph.block_matrix, gen, 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.integers(1, 4), q=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.1, 1.0, 30.0]),
       size=st.sampled_from([0.0, 0.05, 1.0, 10.0]))
def test_hermitized_operator_is_the_rotated_slow_corner(p, q, seed, scale,
                                                        size):
    # For any block B: hermitian_effective is hermitian, R =
    # rotation_from_block(B) is unitary, and the slow corner of
    # R^dagger H R is the hermitized operator.
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, p + q, scale)
    ph = PartitionedHamiltonian(
        slow_block=h[:p, :p], fast_block=h[p:, p:], coupling=h[p:, :p],
        slow_indices=tuple(range(p)), fast_indices=tuple(range(p, p + q)))
    b = size * (rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p)))
    op = hermitian_effective(ph, b)
    assert op.hermitian
    assert np.array_equal(op.matrix, op.matrix.conj().T)
    r = rotation_from_block(b)
    b_norm = np.linalg.norm(b, 2)
    defect = np.linalg.norm(r.conj().T @ r - np.eye(p + q), 2)
    assert defect <= 1e-13 * (1.0 + b_norm)
    corner = (r.conj().T @ ph.block_matrix @ r)[:p, :p]
    bound = 1e-13 * max(1.0, scale) * (1.0 + b_norm ** 2)
    assert np.linalg.norm(corner - op.matrix, 2) <= bound
