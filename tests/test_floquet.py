"""Harmonic-lattice operator, quasi-energies, and high-frequency limits."""
from __future__ import annotations

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham.bloch import iterate_bloch, perturbative_bloch
from effham.effective import (EffectiveOperator, adiabatic_hamiltonian,
                              hermitian_effective)
from effham.errors import (
    ConvergenceFailure,
    CutoffTooSmall,
    NotHermitian,
    OracleAmbiguous,
    SeriesDiverging,
    ShapeMismatch,
    SingularFastBlock,
    ToolkitError,
)
from effham.floquet import (
    CUTOFF_CAP,
    CUTOFF_TARGET,
    ZERO_HARMONIC_WEIGHT_GAP,
    FloquetSpec,
    _cf4_propagator,
    _ladder_quasi_energies,
    build_floquet,
    first_order_floquet_hamiltonian,
    floquet_partition,
    fold_quasienergy,
    monodromy,
    quasi_energies_diag,
    quasi_energies_effective,
    quasi_energies_monodromy,
    restricted_inverse_series,
)
from effham.schriefferwolff import (
    first_order_generator,
    sw_first_order_hamiltonian,
)
from ensembles import (antihermitian_shift, drive_class_ensemble, drive_ensemble,
                       midpoint_propagator, random_hermitian)

SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SM = SP.conj().T
SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# driven qubit at resonance: drive frequency 10, coupling 1, no detuning
RESONANT_EXACT = 0.09901951359278449


def resonant_spec(omega: float = 10.0, g: float = 1.0,
                  delta: float = 0.0) -> FloquetSpec:
    return FloquetSpec(dim=2, drive_frequency=omega,
                       components={-1: g * SP, 0: 0.5 * delta * SZ, 1: g * SM})


def two_harmonic_spec() -> FloquetSpec:
    return FloquetSpec(dim=2, drive_frequency=7.0,
                       components={0: 0.25 * SZ, -1: SP, 1: SM,
                                   -2: 0.35 * SX, 2: 0.35 * SX})


def test_spec_validation():
    with pytest.raises(NotHermitian):
        FloquetSpec(dim=2, drive_frequency=1.0, components={1: SM})
    with pytest.raises(NotHermitian):
        FloquetSpec(dim=2, drive_frequency=1.0,
                    components={-1: SP, 1: 1.5 * SM})
    with pytest.raises(ShapeMismatch):
        FloquetSpec(dim=3, drive_frequency=1.0, components={0: SZ})
    with pytest.raises(ValueError):
        FloquetSpec(dim=2, drive_frequency=0.0, components={0: SZ})


def test_spec_component_defaults_to_zero():
    spec = FloquetSpec(dim=2, drive_frequency=5.0,
                       components={-1: SP, 1: SM})
    assert np.array_equal(spec.component(0), np.zeros((2, 2)))
    assert spec.max_harmonic == 1
    assert spec.period == pytest.approx(2.0 * np.pi / 5.0)


def test_hamiltonian_at_matches_fourier_sum():
    spec = resonant_spec(omega=3.0, g=0.7, delta=0.4)
    t = 0.83
    expected = (0.2 * SZ + 0.7 * SP * np.exp(1j * 3.0 * t)
                + 0.7 * SM * np.exp(-1j * 3.0 * t))
    assert np.allclose(spec.hamiltonian_at(t), expected, atol=1e-15)
    batch = spec.hamiltonian_at(np.array([0.0, t]))
    assert batch.shape == (2, 2, 2)
    assert np.allclose(batch[1], expected, atol=1e-15)
    assert spec.norm_bound() == pytest.approx(0.2 + 0.7 + 0.7)


def test_build_floquet_block_structure():
    spec = resonant_spec(omega=10.0, g=1.0, delta=0.3)
    tfo = build_floquet(spec, 2)
    assert tfo.matrix.shape == (10, 10)
    assert np.linalg.norm(tfo.matrix - tfo.matrix.conj().T) == 0.0
    assert np.allclose(tfo.block(0, 0), 0.15 * SZ)
    assert np.allclose(tfo.block(1, 1), 0.15 * SZ - 10.0 * np.eye(2))
    assert np.allclose(tfo.block(-1, 0), SP)
    assert np.allclose(tfo.block(0, -1), SM)
    assert np.allclose(tfo.block(2, 0), 0.0)
    assert tfo.zero_harmonic_indices == (4, 5)
    with pytest.raises(ShapeMismatch):
        tfo.block(3, 0)


def test_build_floquet_cutoff_guards():
    with pytest.raises(CutoffTooSmall):
        build_floquet(resonant_spec(), 0)
    with pytest.raises(CutoffTooSmall):
        build_floquet(two_harmonic_spec(), 1)


def test_floquet_partition_slow_block_is_zero_harmonic():
    spec = resonant_spec(omega=10.0, g=1.0, delta=0.3)
    ph = floquet_partition(build_floquet(spec, 2))
    assert np.allclose(ph.slow_block, 0.15 * SZ)
    assert ph.slow_dim == 2
    assert ph.fast_dim == 8


def test_floquet_partition_flags_resonance_with_harmonic():
    # static level at +5 collides with the first shifted copy at w = 5
    spec = FloquetSpec(dim=2, drive_frequency=5.0, components={0: 5.0 * SZ})
    with pytest.raises(SingularFastBlock) as info:
        floquet_partition(build_floquet(spec, 2))
    assert info.value.harmonic in (-1, 1)
    assert info.value.condition == np.inf


def test_fold_quasienergy_frozen_and_idempotent():
    folded = fold_quasienergy([5.0, -5.0, 12.3, 0.2], 10.0)
    assert np.allclose(folded, [5.0, 5.0, 2.3, 0.2], atol=1e-12)
    assert np.allclose(fold_quasienergy(folded, 10.0), folded, atol=1e-15)
    assert fold_quasienergy(17.0, 10.0) == pytest.approx(-3.0)
    with pytest.raises(ValueError):
        fold_quasienergy([1.0], 0.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(w=st.floats(1e-2, 1e3), k=st.integers(-300, 300),
       frac=st.one_of(st.floats(-0.5, 0.5), st.sampled_from([-0.5, 0.5])),
       ulps=st.integers(-3, 3))
def test_fold_quasienergy_lands_in_zone_and_is_idempotent(w, k, frac, ulps):
    # x sits ``frac`` of a zone from the centre of zone ``k``, moved by a few
    # ulps, so zone edges (frac = +-0.5) are hit from both sides.
    x = (k + frac) * w
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    folded = fold_quasienergy(x, w)
    assert -0.5 * w < folded <= 0.5 * w
    assert fold_quasienergy(folded, w) == folded


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       norm=st.sampled_from([0.2, 1.0, 40.0]),
       ratio=st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.05, 1.5, 3.0]))
def test_spec_pair_check_matches_reference_formula(n, seed, norm, ratio):
    # H_-1 is H_1^dagger moved off by ``ratio`` times 1e-10 * max(1, ||H_1||);
    # each component is checked against its partner in insertion order.
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c *= norm / np.linalg.norm(c, 2)
    comps = {0: random_hermitian(rng, n), 1: c,
             -1: antihermitian_shift(rng, c.conj().T,
                                     ratio * 1e-10 * max(1.0, norm))}
    expected = None
    for k, arr in comps.items():
        dev = np.linalg.norm(arr.conj().T - comps[-k], 2)
        if dev > 1e-10 * max(1.0, np.linalg.norm(arr, 2)):
            expected = dev
            break
    if expected is None:
        FloquetSpec(dim=n, drive_frequency=3.0, components=comps)
    else:
        with pytest.raises(NotHermitian) as info:
            FloquetSpec(dim=n, drive_frequency=3.0, components=comps)
        assert info.value.deviation == expected


def test_spec_pair_check_holds_past_the_overflow_threshold():
    # H_1^dagger - H_-1 overflows to inf here; it once passed as adjoint.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian, match="not mutually adjoint"):
            FloquetSpec(dim=2, drive_frequency=10.0, components={
                1: 1e308 * SP, -1: -1e308 * SM})
        big = np.finfo(float).max
        FloquetSpec(dim=2, drive_frequency=10.0, components={
            1: big * SM, -1: big * SP, 0: big * SZ})


def test_monodromy_records_default_step_count():
    spec = resonant_spec()
    q = quasi_energies_monodromy(spec)
    assert q.steps == 256
    assert np.array_equal(q.values,
                          quasi_energies_monodromy(spec, steps=256).values)


def test_monodromy_validates_once_and_records_unitarity_defect(monkeypatch):
    spec = two_harmonic_spec()
    bounds = []
    norm_bound = FloquetSpec.norm_bound

    def counting_bound(self):
        bounds.append(self)
        return norm_bound(self)

    monkeypatch.setattr(FloquetSpec, "norm_bound", counting_bound)
    q = quasi_energies_monodromy(spec, steps=4096)
    assert len(bounds) == 1
    u = monodromy(spec, steps=4096)
    assert q.unitarity_defect == np.linalg.norm(
        u.conj().T @ u - np.eye(spec.dim), 2)
    assert 0.0 <= q.unitarity_defect <= 1e-8
    assert quasi_energies_diag(spec, cutoff=8).unitarity_defect is None


def test_monodromy_matches_closed_form():
    q = quasi_energies_monodromy(resonant_spec(), steps=40000)
    assert q.method == "monodromy"
    err = np.max(np.abs(q.values - [-RESONANT_EXACT, RESONANT_EXACT]))
    assert err < 1e-9


def _eigenphase_energies(u: np.ndarray, w: float) -> np.ndarray:
    return np.sort(fold_quasienergy(-np.angle(np.linalg.eigvals(u)) * w
                                    / (2.0 * np.pi), w))


def test_monodromy_fourth_order_step_convergence():
    spec = resonant_spec()
    target = np.array([-RESONANT_EXACT, RESONANT_EXACT])
    errs = [np.max(np.abs(quasi_energies_monodromy(spec, steps=n).values
                          - target))
            for n in (64, 128)]
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_cf4_propagator_is_fourth_order_off_zero():
    # evolve_periodic's heads and tails start inside a period, where
    # monodromy never starts; halving the step cuts the error 16x there too.
    for spec in list(drive_ensemble())[::2]:
        start, stop = 0.3 * spec.period, 1.1 * spec.period
        ref = _cf4_propagator(spec, start, stop, 2048)
        errs = [np.linalg.norm(_cf4_propagator(spec, start, stop, n) - ref, 2)
                for n in (16, 32)]
        assert 12.0 < errs[0] / errs[1] < 20.0


def test_default_monodromy_matches_diag_on_drive_ensemble():
    # The fourth-order default against the 4,096-step midpoint propagator
    # it replaced, both measured from diag at cutoff 64.
    for spec in drive_ensemble():
        w = spec.drive_frequency
        ref = quasi_energies_diag(spec, cutoff=64).values
        err = np.max(np.abs(quasi_energies_monodromy(spec).values - ref))
        midpoint = _eigenphase_energies(
            midpoint_propagator(spec, 0.0, spec.period, 4096), w)
        assert err <= 1e-9
        assert err <= np.max(np.abs(midpoint - ref))


def test_monodromy_rejects_coarse_grid():
    with pytest.raises(ValueError):
        monodromy(resonant_spec(), steps=3)


def test_monodromy_is_unitary():
    u = monodromy(two_harmonic_spec(), steps=4096)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-10


def test_diag_exact_at_minimal_cutoff_for_single_harmonic():
    q = quasi_energies_diag(resonant_spec(), cutoff=1)
    assert np.max(np.abs(q.values - [-RESONANT_EXACT, RESONANT_EXACT])) < 1e-12


def test_diag_auto_cutoff_settles():
    q = quasi_energies_diag(resonant_spec())
    assert q.method == "floquet_diag"
    # Certified at the first ladder: the rotating-wave ladder splits into
    # 2x2 blocks, so the picked eigenvectors leak nothing past cutoff 4.
    assert q.cutoff == 4 and q.truncation_bound <= CUTOFF_TARGET
    assert np.max(np.abs(q.values - [-RESONANT_EXACT, RESONANT_EXACT])) < 1e-12
    assert quasi_energies_effective(resonant_spec()).truncation_bound is None
    assert quasi_energies_monodromy(resonant_spec()).truncation_bound is None


def test_two_harmonic_cutoff_doubling_converges():
    spec = two_harmonic_spec()
    shifts = []
    prev = None
    for cutoff in (2, 4, 8, 16):
        values = quasi_energies_diag(spec, cutoff=cutoff).values
        if prev is not None:
            shifts.append(float(np.max(np.abs(values - prev))))
        prev = values
    assert shifts[0] == pytest.approx(6.448414259246915e-05, rel=1e-6)
    assert shifts[1] == pytest.approx(2.5398849301527804e-08, rel=1e-4)
    assert shifts[2] < 1e-12
    mono = quasi_energies_monodromy(spec, steps=60000)
    assert np.max(np.abs(mono.values - prev)) < 1e-9


def test_effective_methods_against_closed_form():
    spec = resonant_spec()
    target = np.array([-RESONANT_EXACT, RESONANT_EXACT])

    adiab = quasi_energies_effective(spec, "adiabatic")
    assert adiab.method == "effective_adiabatic"
    assert np.allclose(adiab.values, [-0.1, 0.1], atol=1e-12)

    fixed = quasi_energies_effective(spec, "iterate")
    assert np.max(np.abs(fixed.values - target)) < 1e-12

    sw = quasi_energies_effective(spec, "sw_first")
    assert np.allclose(sw.values, [-0.1, 0.1], atol=1e-12)

    series3 = quasi_energies_effective(spec, "bloch_order_3")
    assert np.max(np.abs(series3.values - target)) < 1e-8


def test_effective_detuned_rotation_closed_form():
    # drive frequency 10, coupling 1, detuning 0.5: the first-order
    # rotation gives delta/2 + g^2/(w + delta) exactly
    spec = resonant_spec(omega=10.0, g=1.0, delta=0.5)
    q = quasi_energies_effective(spec, "sw_first", cutoff=4)
    assert q.values[1] == pytest.approx(0.25 + 1.0 / 10.5, abs=1e-10)
    assert q.values[0] == pytest.approx(-0.25 - 1.0 / 10.5, abs=1e-10)


def test_effective_rejects_unknown_method():
    with pytest.raises(ValueError):
        quasi_energies_effective(resonant_spec(), "magnus_7")


def test_effective_method_is_validated_before_the_ladder(monkeypatch):
    import effham.floquet

    def no_ladder(*args, **kwargs):
        raise AssertionError("ladder built for an invalid method")

    monkeypatch.setattr(effham.floquet, "build_floquet", no_ladder)
    for method in ("magnus_7", "bloch_order_0", "bloch_order_65"):
        with pytest.raises(ValueError):
            quasi_energies_effective(resonant_spec(), method)


def test_auto_cutoff_gives_up_at_the_cap(monkeypatch):
    import effham.floquet

    # A route whose value drifts with the ladder size never settles.
    seen = []

    def never_settles(method):
        def route(ph):
            seen.append(ph.fast_dim // 2)
            return (EffectiveOperator(
                matrix=np.array([[1.0 / np.log(ph.fast_dim)]]),
                hermitian=True, source="drifting"), None)
        return route

    monkeypatch.setattr(effham.floquet, "_effective_route", never_settles)
    spec = FloquetSpec(dim=1, drive_frequency=10.0, components={0: [[0.3]]})
    with pytest.raises(ConvergenceFailure):
        _ladder_quasi_energies(spec, ["drifting"])
    assert seen == [4, 8, 16, 32, 64, 128, CUTOFF_CAP]


LADDER_METHODS = ("diag", "adiabatic", "sw_first", "iterate", "bloch_order_3")
ROUTES = {
    "adiabatic": adiabatic_hamiltonian,
    "sw_first": sw_first_order_hamiltonian,
    "iterate": lambda ph: hermitian_effective(ph, iterate_bloch(ph)),
    "bloch_order_3": lambda ph: hermitian_effective(ph, perturbative_bloch(ph, 3)),
}


def _oracle(spec: FloquetSpec, method: str, cutoff: int):
    """One method at one cutoff on a ladder of its own, spelled out:
    ``(values, truncation bound)``, the bound None for an effective method."""
    tfo = build_floquet(spec, cutoff)
    if method == "diag":
        energies, vectors = _oracle_pick(tfo)
        bound = _oracle_bound(spec, cutoff, energies, vectors)
    else:
        # eigh, not eigvalsh: the two LAPACK drivers differ in the last bits.
        energies = np.linalg.eigh(ROUTES[method](floquet_partition(tfo)).matrix)[0]
        bound = None
    return np.sort(fold_quasienergy(energies, spec.drive_frequency)), bound


def _oracle_pick(tfo):
    """Ladder eigenpairs of largest zero-harmonic weight, one per state."""
    values, vectors = np.linalg.eigh(tfo.matrix)
    rows = vectors[list(tfo.zero_harmonic_indices)]
    weights = np.sum(np.abs(rows) ** 2, axis=0)
    order = np.argsort(weights)[::-1]
    d = tfo.dim
    if weights[order[d - 1]] - weights[order[d]] < ZERO_HARMONIC_WEIGHT_GAP:
        raise OracleAmbiguous("zero-harmonic weights tie")
    picked = np.sort(order[:d])
    return values[picked], vectors[:, picked]


def _oracle_bound(spec: FloquetSpec, cutoff: int, mus, vectors) -> float:
    """Largest Kato-Temple truncation bound of the picked ladder eigenpairs,
    one harmonic and one pair at a time: leakage ``r`` past the cutoff,
    gap ``eta`` to the rest of the Floquet spectrum, ``r^2 / eta``."""
    d, w, top = spec.dim, spec.drive_frequency, spec.max_harmonic
    leaks = []
    for v in vectors.T:
        total = 0.0
        for t in [*range(-cutoff - top, -cutoff), *range(cutoff + 1, cutoff + top + 1)]:
            out = np.zeros(d, dtype=complex)
            for m in range(-cutoff, cutoff + 1):
                block = v[(m + cutoff) * d:(m + cutoff + 1) * d]
                out += spec.component(t - m) @ block
            total += float(np.vdot(out, out).real)
        leaks.append(np.sqrt(total))
    bounds = []
    for i, (mu, r) in enumerate(zip(mus, leaks)):
        eta = w - r
        for j, (nu, r_other) in enumerate(zip(mus, leaks)):
            if j != i:
                x = (mu - nu) % w
                eta = min(eta, min(x, w - x) - r_other)
        bounds.append(0.0 if r == 0.0 else r * r / eta if eta > r else np.inf)
    return max(bounds)


def _oracle_auto(spec: FloquetSpec, method: str, certified: bool = True):
    """``(values, cutoff)`` of the doubling cutoff, or ``(exception type,
    cutoff)`` where the method failed.  The loop stops when two cutoffs
    agree to ``CUTOFF_TARGET`` or, with ``certified``, when the truncation
    bound is at most ``CUTOFF_TARGET``."""
    n, prev = max(4, 2 * spec.max_harmonic), None
    while n <= CUTOFF_CAP:
        try:
            cur, bound = _oracle(spec, method, n)
        except ToolkitError as exc:
            return type(exc), n
        if certified and bound is not None and bound <= CUTOFF_TARGET:
            return cur, n
        if prev is not None and np.max(np.abs(cur - prev)) <= CUTOFF_TARGET:
            return cur, n
        prev, n = cur, 2 * n
    raise AssertionError("oracle did not settle")


LOOP_SPECS = [*drive_ensemble(), resonant_spec(), two_harmonic_spec(),
              resonant_spec(g=0.0, delta=20.0)]


@pytest.mark.parametrize("spec", LOOP_SPECS,
                         ids=[f"spec{i}" for i in range(len(LOOP_SPECS))])
def test_ladder_loop_matches_single_method_oracle(spec):
    expected = {m: _oracle_auto(spec, m) for m in LADDER_METHODS}
    failures = sorted((n, LADDER_METHODS.index(m), result)
                      for m, (result, n) in expected.items()
                      if isinstance(result, type))
    if failures:  # the first failure in (cutoff, method) order surfaces
        with pytest.raises(failures[0][2]):
            _ladder_quasi_energies(spec, LADDER_METHODS)
    else:
        got = _ladder_quasi_energies(spec, LADDER_METHODS)
        for method, (values, n) in expected.items():
            assert got[method][1] == n
            assert np.array_equal(got[method][0], values)
    for method, (result, n) in expected.items():
        single = (partial(quasi_energies_diag, spec) if method == "diag" else
                  partial(quasi_energies_effective, spec, method))
        if isinstance(result, type):
            with pytest.raises(result):
                single()
        else:
            q = single()
            assert q.cutoff == n and np.array_equal(q.values, result)
            assert (q.truncation_bound is None) == (method != "diag")


def test_diag_alone_never_partitions(monkeypatch):
    import effham.floquet

    def no_partition(tfo):
        raise AssertionError("diag partitioned the ladder")

    # Levels +-10 at drive frequency 10: every harmonic copy is degenerate,
    # so elimination is singular while direct diagonalization is not.
    monkeypatch.setattr(effham.floquet, "floquet_partition", no_partition)
    q = quasi_energies_diag(resonant_spec(g=0.0, delta=20.0))
    assert np.array_equal(q.values, [0.0, 0.0]) and q.cutoff == 4
    # No drive, no leakage: the certificate is zero although the two
    # quasi-energies coincide and leave no gap.
    assert q.truncation_bound == 0.0


CERT_SPECS = [*drive_ensemble(), *drive_class_ensemble()]


def _reference_values(spec: FloquetSpec, cutoff: int = 64) -> np.ndarray:
    """Quasi-energies at ``cutoff`` as Rayleigh quotients of the picked
    eigenvectors: the eigenvalues themselves carry rounding of order
    eps * ||ladder|| (about 1e-13 at cutoff 64), the quotients only of the
    blocks near the zero harmonic, where the eigenvectors' weight sits."""
    tfo = build_floquet(spec, cutoff)
    picked = _oracle_pick(tfo)[1]
    quotients = np.einsum("ij,ij->j", picked.conj(), tfo.matrix @ picked).real
    return np.sort(fold_quasienergy(quotients, spec.drive_frequency))


@pytest.mark.parametrize("spec", CERT_SPECS,
                         ids=[f"spec{i}" for i in range(len(CERT_SPECS))])
def test_truncation_bound_holds_and_never_lengthens_the_ladder(spec):
    q = quasi_energies_diag(spec)
    agreed, agreed_cutoff = _oracle_auto(spec, "diag", certified=False)
    assert q.cutoff <= agreed_cutoff
    assert np.max(np.abs(q.values - agreed)) <= CUTOFF_TARGET
    assert q.truncation_bound <= CUTOFF_TARGET or q.cutoff == agreed_cutoff
    # The bound covers truncation alone; the eigensolver adds rounding of a
    # few eps * ||ladder||, allowed for here.  Below the reported cutoff the
    # truncation error dominates, so those cutoffs test the bound itself.
    ref = _reference_values(spec)
    eps = np.finfo(float).eps
    for n in range(spec.max_harmonic, q.cutoff + 1):
        at_n = q if n == q.cutoff else quasi_energies_diag(spec, cutoff=n)
        oracle = _oracle(spec, "diag", n)[1]
        assert at_n.truncation_bound == pytest.approx(oracle, rel=1e-8)
        rounding = 8.0 * eps * np.linalg.norm(build_floquet(spec, n).matrix, 2)
        assert np.max(np.abs(at_n.values - ref)) <= at_n.truncation_bound + rounding


def test_restricted_series_leading_term():
    tfo = build_floquet(resonant_spec(), 3)
    s0 = restricted_inverse_series(tfo, 0)
    d = tfo.dim
    fast_harmonics = [m for m in tfo.harmonics if m != 0]
    for i, m in enumerate(fast_harmonics):
        block = s0[i * d:(i + 1) * d, i * d:(i + 1) * d]
        assert np.allclose(block, -np.eye(d) / (m * 10.0), atol=1e-16)
    off = s0.copy()
    for i in range(len(fast_harmonics)):
        off[i * d:(i + 1) * d, i * d:(i + 1) * d] = 0.0
    assert np.abs(off).max() == 0.0


def test_restricted_series_converges_to_direct_inverse():
    tfo = build_floquet(resonant_spec(), 6)
    ph = floquet_partition(tfo)
    series = restricted_inverse_series(tfo, 14)
    direct = np.linalg.inv(ph.fast_block)
    assert np.max(np.abs(series - direct)) < 1e-12


def test_restricted_series_diverges_at_low_frequency():
    tfo = build_floquet(resonant_spec(omega=0.5), 3)
    with pytest.raises(SeriesDiverging):
        restricted_inverse_series(tfo, 8)


def test_restricted_series_rejects_negative_order():
    with pytest.raises(ValueError):
        restricted_inverse_series(build_floquet(resonant_spec(), 2), -1)


def test_first_order_floquet_hamiltonian_resonant():
    h = first_order_floquet_hamiltonian(resonant_spec())
    assert np.allclose(h, np.diag([-0.1, 0.1]), atol=1e-15)


def test_first_order_floquet_hamiltonian_two_harmonic():
    # the +/-2 components commute with themselves, so they cancel and
    # only the ladder pair contributes: (1/4 - 1/7) sigma_z
    h = first_order_floquet_hamiltonian(two_harmonic_spec())
    assert np.allclose(h, (0.25 - 1.0 / 7.0) * SZ, atol=1e-15)


def test_first_order_matches_leading_elimination_of_reflected_drive():
    # eliminating the harmonic lattice of the k -> -k reflected drive with
    # the leading series inverse reproduces the first-order result exactly
    spec = two_harmonic_spec()
    reflected = FloquetSpec(
        dim=2, drive_frequency=spec.drive_frequency,
        components={-k: v for k, v in spec.components.items()})
    tfo = build_floquet(reflected, 3)
    ph = floquet_partition(tfo)
    s0 = restricted_inverse_series(tfo, 0)
    approx = ph.slow_block - ph.coupling.conj().T @ s0 @ ph.coupling
    assert np.max(np.abs(approx - first_order_floquet_hamiltonian(spec))) < 1e-15


def test_resonant_generator_block_structure():
    # at zero detuning the first-order generator only links neighbouring
    # harmonics, with weight g / w
    tfo = build_floquet(resonant_spec(), 2)
    ph = floquet_partition(tfo)
    gen = first_order_generator(ph)
    d = tfo.dim
    fast_harmonics = [m for m in tfo.harmonics if m != 0]
    r_minus = fast_harmonics.index(-1) * d
    r_plus = fast_harmonics.index(1) * d
    minus_block = gen.block[r_minus:r_minus + d]
    plus_block = gen.block[r_plus:r_plus + d]
    assert np.allclose(minus_block, [[0.0, -0.1], [0.0, 0.0]], atol=1e-13)
    assert np.allclose(plus_block, [[0.0, 0.0], [0.1, 0.0]], atol=1e-13)
    others = [m for m in fast_harmonics if m not in (-1, 1)]
    for m in others:
        r = fast_harmonics.index(m) * d
        assert np.abs(gen.block[r:r + d]).max() < 1e-13
