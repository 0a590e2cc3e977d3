"""Decoupling-block solvers: fixed-point iteration and power series."""
from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from effham.bloch import (
    MAX_SERIES_ORDER,
    adiabatic_embedding,
    bloch_map,
    bloch_residual,
    embedding_from_matrix,
    exact_embedding,
    iterate_bloch,
    perturbative_bloch,
)
from effham.errors import ConvergenceFailure, Diverged, OracleAmbiguous
from effham.partition import PartitionedHamiltonian, partition_hamiltonian
from effham.schriefferwolff import embedding_from_generator, first_order_generator
from ensembles import (
    fast_block_ensemble,
    lambda_partition,
    make_partition,
    rel_err,
    scale_fast,
    scaling_instance,
)


def test_adiabatic_embedding_frozen_residual():
    ph = lambda_partition()
    be = adiabatic_embedding(ph)
    assert np.allclose(be.matrix, [[-0.2, -0.15]])
    assert be.residual == pytest.approx(0.01515866604454363, abs=1e-15)
    assert be.method == "adiabatic"


def test_bloch_map_fixed_point_definition():
    ph = lambda_partition()
    b = np.array([[-0.19040363520742531, -0.14046257522375913]])
    mapped = bloch_map(ph, b)
    assert np.linalg.norm(mapped - b) < 1e-12
    assert bloch_residual(ph, mapped) < 1e-11


def test_iterate_bloch_frozen_solution():
    be = iterate_bloch(lambda_partition())
    assert be.method == "iterative"
    assert be.order_or_iterations == 11
    assert be.residual == pytest.approx(8.758159877159219e-13, rel=1e-6)
    assert be.matrix[0, 0] == pytest.approx(-0.19040363520742531, abs=1e-12)
    assert be.matrix[0, 1] == pytest.approx(-0.14046257522375913, abs=1e-12)
    assert np.abs(be.matrix.imag).max() == 0.0


def test_iterate_bloch_capped_best_effort():
    be4 = iterate_bloch(lambda_partition(), tol=0.0, max_iter=4,
                        require_convergence=False)
    assert be4.order_or_iterations == 4
    assert be4.residual == pytest.approx(2.9091787688167753e-06, rel=1e-9)


def test_iterate_bloch_cap_raises_when_required():
    with pytest.raises(ConvergenceFailure):
        iterate_bloch(lambda_partition(), max_iter=3)


@pytest.mark.parametrize("kwargs, message", [
    ({"tol": float("nan")}, "tol must be finite and non-negative"),
    ({"tol": float("inf")}, "tol must be finite and non-negative"),
    ({"tol": -1.0}, "tol must be finite and non-negative"),
    ({"max_iter": -1}, "max_iter must be non-negative"),
])
def test_iterate_bloch_rejects_unmeetable_settings_before_sweeping(
        monkeypatch, kwargs, message):
    # A nan or infinite tol used to return the adiabatic block as
    # "iterative"; a negative one ran every sweep before failing.
    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr("effham.bloch._eig_rhs", no_sweep)
    with pytest.raises(ValueError, match=message):
        iterate_bloch(lambda_partition(), **kwargs)


def test_iterate_bloch_seeded_start():
    ph = lambda_partition()
    seed = embedding_from_generator(ph, first_order_generator(ph)).matrix
    be = iterate_bloch(ph, seed=seed)
    assert be.residual <= 1e-12
    converged = iterate_bloch(ph)
    assert np.linalg.norm(be.matrix - converged.matrix) < 1e-10


def test_iterate_bloch_divergence_guard():
    strong = PartitionedHamiltonian(
        slow_block=np.array([[0.5]]), fast_block=np.array([[1.0]]),
        coupling=np.array([[30.0]]), slow_indices=(0,), fast_indices=(1,))
    with pytest.raises(Diverged):
        iterate_bloch(strong)


def test_perturbative_order_one_is_adiabatic():
    ph = lambda_partition()
    series = perturbative_bloch(ph, 1)
    assert np.array_equal(series.matrix, adiabatic_embedding(ph).matrix)
    assert series.method == "perturbative"
    assert series.order_or_iterations == 1
    assert len(series.terms) == 1


def test_perturbative_terms_sum_to_matrix():
    series = perturbative_bloch(lambda_partition(), 4)
    assert len(series.terms) == 4
    assert np.allclose(sum(series.terms), series.matrix, atol=0.0)
    # the series at this order is already deep into the iterate-4 regime
    assert series.residual < 1e-2


def test_perturbative_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        perturbative_bloch(lambda_partition(), 0)


def test_term_norms_scale_with_inverse_gap_power():
    """Each series term has an exact inverse power law in the gap scale."""
    ph = scaling_instance()
    base = [np.linalg.norm(t, 2) for t in perturbative_bloch(ph, 4).terms]
    for s in (2.0, 8.0):
        scaled = [np.linalg.norm(t, 2)
                  for t in perturbative_bloch(scale_fast(ph, s), 4).terms]
        for k, (b, sc) in enumerate(zip(base, scaled), start=1):
            assert sc * s**k == pytest.approx(b, rel=1e-12)


def test_residual_decreases_along_the_series():
    # odd and even orders interleave two scales here, so compare stride 2
    ph = lambda_partition()
    resids = [perturbative_bloch(ph, k).residual for k in range(1, 7)]
    assert all(a > b for a, b in zip(resids, resids[2:]))


def test_exact_embedding_matches_fixed_point():
    ph = lambda_partition()
    be = exact_embedding(ph)
    assert be.residual < 1e-12
    assert be.matrix[0, 0] == pytest.approx(-0.19040363520797968, abs=1e-10)
    assert be.matrix[0, 1] == pytest.approx(-0.1404625752243136, abs=1e-10)
    iterated = iterate_bloch(ph)
    assert np.linalg.norm(be.matrix - iterated.matrix) < 1e-9


def test_exact_embedding_ambiguous_sector():
    # equal slow weight on both eigenvectors: no defensible assignment
    ph = partition_hamiltonian(np.array([[0.0, 1.0], [1.0, 0.01]]), (0,))
    with pytest.raises(OracleAmbiguous):
        exact_embedding(ph)


def test_embedding_from_matrix_records_custom_method():
    ph = lambda_partition()
    b = np.array([[-0.2, -0.15]])
    be = embedding_from_matrix(ph, b)
    assert be.method == "custom"
    assert be.residual == pytest.approx(bloch_residual(ph, b))


def test_iterate_bloch_on_random_ensemble():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        eps = float(rng.uniform(0.02, 0.25))
        eps_prime = float(rng.uniform(0.02, 0.5 * (0.5 - eps)))
        ph = make_partition(rng, p, q, eps, eps_prime)
        be = iterate_bloch(ph)
        assert be.residual <= 1e-12
        assert np.linalg.norm(bloch_map(ph, be.matrix) - be.matrix) < 1e-11


# Reference formulas in bare coordinates, with dense solves of the fast block.

def _bare_rhs(ph, b):
    return -ph.coupling + b @ ph.slow_block + b @ ph.coupling.conj().T @ b


def _bare_iterate(ph, tol=1e-12):
    block = -np.linalg.solve(ph.fast_block, ph.coupling)
    sweeps = 0
    while bloch_residual(ph, block) > tol:
        block = np.linalg.solve(ph.fast_block, _bare_rhs(ph, block))
        sweeps += 1
    return block, sweeps


def _bare_series(ph, order):
    terms = [-np.linalg.solve(ph.fast_block, ph.coupling)]
    for k in range(1, order):
        rhs = terms[k - 1] @ ph.slow_block
        for l in range(1, k):
            rhs = rhs + terms[k - l - 1] @ ph.coupling.conj().T @ terms[l - 1]
        terms.append(np.linalg.solve(ph.fast_block, rhs))
    return terms


def test_iterate_bloch_matches_bare_iteration():
    for ph in fast_block_ensemble():
        ref, sweeps = _bare_iterate(ph)
        be = iterate_bloch(ph)
        assert be.order_or_iterations == sweeps
        assert rel_err(be.matrix, ref) < 1e-12
        assert be.residual == bloch_residual(ph, be.matrix)


def test_perturbative_terms_match_bare_series():
    for ph in fast_block_ensemble():
        series = perturbative_bloch(ph, 5)
        for got, ref in zip(series.terms, _bare_series(ph, 5), strict=True):
            assert rel_err(got, ref) < 1e-12
        assert series.residual == bloch_residual(ph, series.matrix)
        adiabatic = adiabatic_embedding(ph)
        assert rel_err(adiabatic.matrix, _bare_series(ph, 1)[0]) < 1e-12
        assert adiabatic.residual == bloch_residual(ph, adiabatic.matrix)


class _CountingArray(np.ndarray):
    """Counts the matrix products that take it as an operand; elementwise
    results such as its conjugate keep counting."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountingArray) else x
                 for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            _CountingArray.products += 1
            return out
        return out.view(_CountingArray) if isinstance(out, np.ndarray) else out


def test_sweeps_take_no_product_with_a_fast_sized_operand():
    base = make_partition(np.random.default_rng(43), 3, 32, 0.2, 0.2)
    counts = []
    for max_iter in (3, 12):
        ph = dataclasses.replace(
            base, fast_block=base.fast_block.view(_CountingArray))
        ed = base.fast_eig
        ph.__dict__["fast_eig"] = dataclasses.replace(
            ed, vectors=ed.vectors.view(_CountingArray))
        _CountingArray.products = 0
        be = iterate_bloch(ph, tol=0.0, max_iter=max_iter,
                           require_convergence=False)
        assert be.order_or_iterations == max_iter
        counts.append(_CountingArray.products)
    assert counts[0] == counts[1] > 0


def test_series_order_is_checked_before_any_product():
    ph = lambda_partition()
    top = perturbative_bloch(ph, MAX_SERIES_ORDER)
    assert len(top.terms) == MAX_SERIES_ORDER
    # A partition with no attributes proves the check comes first.
    for order, message in ((0, ">= 1, got 0"), (MAX_SERIES_ORDER + 1,
                                               "<= 64, got 65")):
        with pytest.raises(ValueError, match=f"series order must be {message}"):
            perturbative_bloch(SimpleNamespace(), order)
