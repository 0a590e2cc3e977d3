"""A stack of matrices runs the elimination pipeline once: every stacked
call equals the stack of its per-matrix calls, bit for bit."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham import matrixkit as mk
from effham.bloch import (adiabatic_embedding, bloch_map, bloch_residual,
                          iterate_bloch, perturbative_bloch)
from effham.effective import hermitian_effective, nonhermitian_effective
from effham.errors import SingularFastBlock, ToolkitError
from effham.partition import (PartitionedHamiltonian, coupling_scales,
                              invariance_radius, partition_hamiltonian,
                              spectral_gap)
from effham.schriefferwolff import _effective_route, embedding_from_generator
from ensembles import make_partition

ROUTES = ("adiabatic", "sw_first", "iterate", "bloch_order_3")


def assert_slices(stacked, singles) -> None:
    """``stacked`` is the stack of ``singles``, bit for bit; scalars are
    compared by ``repr``, so a float stays a float, -0.0 differs from 0.0
    and ``None`` stays ``None``."""
    if isinstance(singles[0], np.ndarray):
        ref = np.stack(singles)
        assert (stacked.shape, stacked.dtype) == (ref.shape, ref.dtype)
        assert stacked.tobytes() == ref.tobytes()
    else:
        assert np.shape(stacked) == (len(singles),)
        assert [repr(x) for x in stacked.tolist()] == [repr(x) for x in singles]


def outcome(call, *args):
    """``call(*args)``, or the numerical error it raises."""
    try:
        return call(*args)
    except ToolkitError as exc:
        return exc


def assert_stacked_call(call, stacked_args, per_slice_args, fields) -> None:
    """The stacked call raises exactly when some slice raises alone;
    otherwise each field of its result is the stack of the slices'."""
    singles = [outcome(call, *args) for args in per_slice_args]
    if any(isinstance(s, ToolkitError) for s in singles):
        with pytest.raises(ToolkitError):
            call(*stacked_args)
        return
    result = call(*stacked_args)
    for field in fields:
        assert_slices(field(result), [field(s) for s in singles])


def scattered_stack(rng, p: int, q: int, count: int):
    """``count`` random hermitian (p+q)-matrices whose slow sector sits at
    random indices, with coupling scales on both sides of the contraction
    hypothesis, and those indices."""
    slow = tuple(sorted(int(i) for i in rng.choice(p + q, p, replace=False)))
    fast = tuple(i for i in range(p + q) if i not in slow)
    mats = []
    for _ in range(count):
        eps, eps_prime = rng.choice([0.05, 0.3, 0.55]), rng.choice([0.1, 0.3, 0.6])
        ph = make_partition(rng, p, q, eps, eps_prime,
                            gap=float(rng.uniform(0.5, 4.0)))
        mats.append(PartitionedHamiltonian(
            slow_block=ph.slow_block, fast_block=ph.fast_block,
            coupling=ph.coupling, slow_indices=slow,
            fast_indices=fast).reassemble())
    return np.stack(mats), slow


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.integers(1, 4), q=st.integers(1, 4), count=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_calls_equal_their_slices(p, q, count, seed):
    rng = np.random.default_rng(seed)
    h, slow = scattered_stack(rng, p, q, count)
    ph = partition_hamiltonian(h, slow)
    singles = [partition_hamiltonian(m, slow) for m in h]
    each = [(s,) for s in singles]

    # Partition blocks and cached decompositions.
    for name in ("slow_block", "fast_block", "coupling", "eig_coupling",
                 "block_matrix"):
        assert_slices(getattr(ph, name), [getattr(s, name) for s in singles])
    for name in ("fast_eig", "slow_eig"):
        assert_slices(getattr(ph, name).values,
                      [getattr(s, name).values for s in singles])
        assert_slices(getattr(ph, name).vectors,
                      [getattr(s, name).vectors for s in singles])
    assert_slices(ph.reassemble(), [s.reassemble() for s in singles])
    assert_stacked_call(lambda x: x.first_order_block, (ph,), each,
                        [lambda b: b])

    # Scales and radii; None stays None.
    scales = coupling_scales(ph)
    alone = [coupling_scales(s) for s in singles]
    for name in ("epsilon", "epsilon_prime", "radius", "radius_small"):
        assert_slices(getattr(scales, name), [getattr(a, name) for a in alone])
    assert_slices(invariance_radius(scales.epsilon, scales.epsilon_prime),
                  [invariance_radius(a.epsilon, a.epsilon_prime)
                   for a in alone])
    assert_slices(spectral_gap(ph), [spectral_gap(s) for s in singles])

    # Every route: operator, spectrum and embedding.
    for method in ROUTES:
        fields = [lambda r: r[0].matrix, lambda r: r[0].spectrum()]
        if method not in ("adiabatic", "sw_first"):  # no embedding otherwise
            fields += [lambda r: r[1].matrix, lambda r: r[1].residual]
        assert_stacked_call(_effective_route(method), (ph,), each, fields)
    assert_stacked_call(lambda x: iterate_bloch(x, tol=1e-6, max_iter=5,
                                                require_convergence=False),
                        (ph,), each, [lambda be: be.matrix,
                                      lambda be: be.residual,
                                      lambda be: be.order_or_iterations])
    terms = [lambda be, k=k: be.terms[k] for k in range(3)]
    assert_stacked_call(lambda x: perturbative_bloch(x, 3), (ph,), each, terms)

    # The residual embeddings of the closed-form routes.
    assert_stacked_call(adiabatic_embedding, (ph,), each,
                        [lambda be: be.matrix, lambda be: be.residual])
    assert_stacked_call(
        lambda x: embedding_from_generator(x, x.first_order_block), (ph,),
        each, [lambda be: be.matrix, lambda be: be.residual])

    # Arbitrary blocks: residual, map, both effective operators.
    b = 0.5 * (rng.standard_normal((count, q, p))
               + 1j * rng.standard_normal((count, q, p)))
    pairs = list(zip(singles, b))
    assert_slices(bloch_residual(ph, b),
                  [bloch_residual(s, x) for s, x in pairs])
    assert_slices(bloch_map(ph, b), [bloch_map(s, x) for s, x in pairs])
    assert_stacked_call(hermitian_effective, (ph, b), pairs, [
        lambda op: op.matrix, lambda op: op.norm_factor,
        lambda op: op.spectrum()])
    assert_stacked_call(lambda *a: nonhermitian_effective(*a).spectrum(),
                        (ph, b), pairs, [lambda v: v])

    # The matrixkit helpers underneath.
    assert_slices(mk.spectral_norm(b), [mk.spectral_norm(x) for x in b])
    assert_slices(mk.hermitize(h), [mk.hermitize(m) for m in h])
    gram = np.eye(p) + mk._adjoint(b) @ b
    for k in range(2):
        assert_slices(mk.posdef_roots(gram)[k],
                      [mk.posdef_roots(g)[k] for g in gram])
    assert_stacked_call(mk.sylvester_solve, (ph.slow_eig, ph.fast_eig, b),
                        [(s.slow_eig, s.fast_eig, x) for s, x in pairs],
                        [lambda x: x])


def test_a_singular_slice_fails_the_stack_with_its_own_message():
    # The fast levels of slice 2 are 1 and 1e-14: condition 1e14.
    coupling = np.kron([[0, 1], [1, 0]], np.full((2, 2), 0.05))
    h = np.stack([np.diag([0.1, -0.1, 1.0, level]) + coupling
                  for level in (2.0, 1.5, 1e-14, 0.0, 3.0)])
    with pytest.raises(SingularFastBlock) as stacked:
        partition_hamiltonian(h, (0, 1))
    failures = [outcome(partition_hamiltonian, m, (0, 1)) for m in h]
    first = next(i for i, f in enumerate(failures)
                 if isinstance(f, ToolkitError))
    assert first == 2
    assert str(stacked.value) == str(failures[2])
    assert stacked.value.condition == failures[2].condition != np.inf


def test_a_stacked_hermiticity_check_reports_the_first_failing_matrix():
    h = np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]],
                  [[1.0, 0.25], [0.0, 1.0]]]).astype(complex)
    with pytest.raises(ToolkitError) as stacked:
        mk.require_hermitian(h)
    with pytest.raises(ToolkitError) as alone:
        mk.require_hermitian(h[1])
    assert str(stacked.value) == str(alone.value)
