"""Block partitioning and coupling-scale diagnostics."""
from __future__ import annotations

import numpy as np
import pytest

try:  # numpy >= 2: np.linalg.norm calls this module's svd directly
    from numpy.linalg import _linalg as linalg_impl
except ImportError:  # numpy 1.x
    from numpy.linalg import linalg as linalg_impl

from effham.bloch import (
    adiabatic_embedding,
    bloch_map,
    iterate_bloch,
    perturbative_bloch,
)
from effham.effective import adiabatic_hamiltonian, hermitian_effective
from effham.errors import (
    EmptyPartition,
    NotHermitian,
    ShapeMismatch,
    SingularFastBlock,
)
from effham.partition import (
    coupling_scales,
    invariance_radius,
    partition_hamiltonian,
    spectral_gap,
)
from effham.schriefferwolff import (
    first_order_generator,
    generator_from_embedding,
    sw_first_order_hamiltonian,
)
from ensembles import (
    fast_block_ensemble,
    lambda_partition,
    make_partition,
    rel_err,
    scaling_instance,
)


def test_lambda_blocks():
    ph = lambda_partition()
    assert ph.slow_dim == 2
    assert ph.fast_dim == 1
    assert np.allclose(ph.slow_block, np.diag([0.00875, -0.00875]))
    assert np.allclose(ph.fast_block, [[1.0]])
    assert np.allclose(ph.coupling, [[0.2, 0.15]])


def test_lambda_coupling_scales_frozen():
    ph = lambda_partition()
    scales = coupling_scales(ph)
    assert scales.epsilon == pytest.approx(0.00875, abs=1e-16)
    assert scales.epsilon_prime == pytest.approx(0.25, abs=1e-15)
    assert scales.radius == pytest.approx(3.6943137311051104, abs=1e-12)
    assert scales.radius_small == pytest.approx(0.27068626889488939, abs=1e-13)
    assert spectral_gap(ph) == pytest.approx(0.99125, abs=1e-12)
    assert scales.radius * scales.radius_small == pytest.approx(1.0, abs=1e-12)


def test_invariance_radius_frozen_value():
    pair = invariance_radius(0.2, 0.3)
    assert pair is not None
    large, small = pair
    assert large == pytest.approx(2.2152504370215307, abs=1e-14)
    assert large * small == pytest.approx(1.0, abs=1e-14)


def test_invariance_radius_decoupled_limit():
    assert invariance_radius(0.5, 0.0) == (np.inf, 0.0)


def test_invariance_radius_outside_hypotheses():
    assert invariance_radius(1.0, 0.1) is None
    assert invariance_radius(0.4, 0.31) is None
    # boundary of the admissible region is still admissible
    pair = invariance_radius(0.4, 0.3)
    assert pair is not None
    assert pair[0] == pytest.approx(1.0)


def test_reassemble_is_exact_for_scattered_indices():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = 0.5 * (a + a.conj().T)
    ph = partition_hamiltonian(h, (3, 0))
    assert ph.slow_indices == (0, 3)
    assert ph.fast_indices == (1, 2, 4)
    assert np.array_equal(ph.reassemble(), h)
    assert ph.slow_block[0, 1] == h[0, 3]
    assert ph.coupling[0, 1] == h[1, 3]


def test_block_matrix_is_slow_first():
    ph = lambda_partition()
    block = ph.block_matrix
    assert np.allclose(block[:2, :2], ph.slow_block)
    assert np.allclose(block[2:, 2:], ph.fast_block)
    assert np.allclose(block[2:, :2], ph.coupling)
    assert np.allclose(block[:2, 2:], ph.coupling.conj().T)


def test_partition_index_validation():
    h = np.diag([0.0, 1.0, 2.0])
    ph = partition_hamiltonian(h, (1, 1, 0))
    assert ph.slow_indices == (0, 1)
    with pytest.raises(ShapeMismatch):
        partition_hamiltonian(h, (0, 3))
    with pytest.raises(ShapeMismatch):
        partition_hamiltonian(h, (-1,))
    with pytest.raises(EmptyPartition):
        partition_hamiltonian(h, ())
    with pytest.raises(EmptyPartition):
        partition_hamiltonian(h, (0, 1, 2))


def test_partition_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        partition_hamiltonian(np.array([[0.0, 1.0], [0.0, 2.0]]), (0,))


def test_partition_rejects_singular_fast_block():
    h = np.diag([1.0, 0.0])
    with pytest.raises(SingularFastBlock) as info:
        partition_hamiltonian(h, (0,))
    assert info.value.condition == np.inf


def test_partition_rejects_rank_deficient_fast_block():
    h = np.zeros((3, 3))
    h[1:, 1:] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(SingularFastBlock) as info:
        partition_hamiltonian(h, (0,))
    assert info.value.condition > 1e12


def test_fast_solves_match_dense_solve():
    rng = np.random.default_rng(37)
    for ph in fast_block_ensemble():
        q, p = ph.coupling.shape
        b = rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))
        ref = -np.linalg.solve(ph.fast_block, ph.coupling)
        assert rel_err(adiabatic_embedding(ph).matrix, ref) < 1e-12
        rhs = (-ph.coupling + b @ ph.slow_block
               + b @ ph.coupling.conj().T @ b)
        ref = np.linalg.solve(ph.fast_block, rhs)
        assert rel_err(bloch_map(ph, b), ref) < 1e-12


def test_scales_and_gap_match_dense_inverse():
    for ph in fast_block_ensemble():
        inv = np.linalg.inv(ph.fast_block)
        inv_norm = np.linalg.norm(inv, 2)
        scales = coupling_scales(ph)
        eps = inv_norm * np.linalg.norm(ph.slow_block, 2)
        eps_prime = inv_norm * np.linalg.norm(ph.coupling, 2)
        assert scales.epsilon == pytest.approx(eps, rel=1e-12)
        assert scales.epsilon_prime == pytest.approx(eps_prime, rel=1e-12)
        slow = np.linalg.eigvalsh(ph.slow_block)
        fast = np.linalg.eigvalsh(ph.fast_block)
        gap = np.min(np.abs(slow[:, None] - fast[None, :]))
        assert spectral_gap(ph) == pytest.approx(gap, rel=1e-12)


def test_fast_block_is_decomposed_once(monkeypatch):
    rng = np.random.default_rng(41)
    q = 64
    h = make_partition(rng, 4, q, 0.1, 0.2).block_matrix
    n = h.shape[0]
    seen = []
    for name in ("eigh", "svd", "solve", "inv"):
        def counted(*args, _name=name, _fn=getattr(linalg_impl, name), **kw):
            seen.append((_name, np.shape(args[0])))
            return _fn(*args, **kw)
        # Both bindings: spectral norms reach svd without np.linalg.svd.
        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(linalg_impl, name, counted)
    ph = partition_hamiltonian(h, range(4))
    coupling_scales(ph)
    adiabatic_hamiltonian(ph)
    perturbative_bloch(ph, 4)
    be = iterate_bloch(ph)
    hermitian_effective(ph, be)
    sw_first_order_hamiltonian(ph)
    before_generator = len(seen)
    generator_from_embedding(be)
    assert [name for name, shape in seen if shape == (q, q)] == ["eigh"]
    assert [name for name, shape in seen if shape == (n, n)] == []
    # One thin SVD of the block serves the generator and the rotation.
    assert seen[before_generator:] == [("svd", (q, 4))]


def test_slow_block_is_decomposed_once(monkeypatch):
    rng = np.random.default_rng(43)
    p = 4
    h = make_partition(rng, p, 64, 0.1, 0.2).block_matrix
    ph = partition_hamiltonian(h, range(p))
    seen = []

    def counted(a, *args, **kw):
        seen.append(np.shape(a))
        return linalg_impl.eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    coupling_scales(ph)
    sw_first_order_hamiltonian(ph)
    first_order_generator(ph)
    assert seen.count((p, p)) == 1


def test_coupling_scales_on_random_ensemble():
    rng = np.random.default_rng(29)
    for _ in range(25):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.02, 0.3))
        eps_prime = float(rng.uniform(0.02, 0.3))
        ph = make_partition(rng, p, q, eps, eps_prime)
        scales = coupling_scales(ph)
        assert scales.epsilon == pytest.approx(eps, rel=1e-10)
        assert scales.epsilon_prime == pytest.approx(eps_prime, rel=1e-10)
        if scales.radius is not None:
            assert scales.radius >= 1.0
            assert scales.radius * scales.radius_small == pytest.approx(1.0)


def test_partitioned_hamiltonian_is_frozen():
    ph = lambda_partition()
    with pytest.raises(AttributeError):
        ph.slow_block = np.zeros((2, 2))  # type: ignore[misc]
