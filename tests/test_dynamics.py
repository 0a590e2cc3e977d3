"""Time evolution, filtering, and peak-shift diagnostics."""
from __future__ import annotations

import numpy as np
import pytest

from effham.dynamics import (
    SUBSTEPS_PER_PERIOD,
    StateVector,
    evolve_constant,
    evolve_periodic,
    interior_peak_times,
    low_pass,
    populations,
    secular_shift,
)
from effham.errors import (
    ConvergenceFailure,
    IndexOutOfRange,
    InsufficientPeaks,
    ShapeMismatch,
    WindowTooSmall,
    ZeroVector,
)
from effham import floquet
from effham.floquet import FloquetSpec, _propagator
from ensembles import drive_ensemble

SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SM = SP.conj().T
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_state_vector_validation():
    sv = StateVector(np.array([1.0, 1j]))
    assert sv.dim == 2
    assert sv.labels == ("c0", "c1")
    assert sv.norm() == pytest.approx(np.sqrt(2.0))
    named = StateVector(np.array([1.0]), labels=("g",))
    assert named.labels == ("g",)
    with pytest.raises(ZeroVector):
        StateVector(np.array([]))
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 1.0]))
    with pytest.raises(ShapeMismatch):
        StateVector(np.array([1.0, 0.0]), labels=("a",))


def test_constant_hermitian_matches_rabi_formula():
    # generator (g/2) sigma_x from the ground state: population
    # oscillates as sin^2(g t / 2)
    g = 0.8
    state = StateVector(np.array([1.0, 0.0]))
    t = np.linspace(0.0, 20.0, 101)
    series = evolve_constant(0.5 * g * SX, state, t)
    assert series.generator_kind == "hermitian_constant"
    pops = populations(series)
    assert np.allclose(pops[:, 1], np.sin(0.5 * g * t) ** 2, atol=1e-12)
    assert np.allclose(series.norms(), 1.0, atol=1e-12)


def test_constant_hermitian_accepts_unsorted_times():
    t = np.array([3.0, 0.5, 2.0])
    series = evolve_constant(SX, StateVector(np.array([1.0, 0.0])), t)
    ref = evolve_constant(SX, StateVector(np.array([1.0, 0.0])),
                          np.sort(t))
    assert np.allclose(series.amplitudes[1], ref.amplitudes[0], atol=1e-12)


def test_constant_nonhermitian_nilpotent_closed_form():
    # exp(-i A t) = 1 - i A t for a nilpotent generator
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    t = np.array([0.0, 0.5, 1.25])
    series = evolve_constant(a, StateVector(np.array([0.0, 1.0])), t)
    assert series.generator_kind == "nonhermitian_constant"
    expected = np.stack([np.array([-1j * ti, 1.0]) for ti in t])
    assert np.allclose(series.amplitudes, expected, atol=1e-12)


def test_constant_nonhermitian_requires_sorted_times():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        evolve_constant(a, StateVector(np.array([0.0, 1.0])),
                        np.array([1.0, 0.5]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate, times", [
    (1000.0, [0.0, 1.0]),                # one step overflows
    (100.0, np.arange(9.0)),             # growth overflows across steps
])
def test_constant_nonhermitian_overflow_raises(rate, times):
    a = np.diag([1j * rate, 0.0])
    with pytest.raises(ConvergenceFailure, match="overflowed"):
        evolve_constant(a, StateVector(np.array([1.0, 0.0])), times)


def test_constant_generator_shape_guards():
    with pytest.raises(ShapeMismatch):
        evolve_constant(np.ones((2, 3)), StateVector(np.array([1.0, 0.0])),
                        [0.0])
    with pytest.raises(ShapeMismatch):
        evolve_constant(SX, StateVector(np.array([1.0, 0.0, 0.0])), [0.0])


def test_periodic_strobe_matches_monodromy_powers():
    spec = FloquetSpec(dim=2, drive_frequency=10.0,
                       components={-1: SP, 0: np.zeros((2, 2), complex),
                                   1: SM})
    state = StateVector(np.array([1.0, 0.0]))
    strobe = np.arange(5) * spec.period
    series = evolve_periodic(spec, state, strobe)
    u = _propagator(spec, 0.0, spec.period, SUBSTEPS_PER_PERIOD)
    psi = state.amplitudes.copy()
    for k in range(5):
        assert np.linalg.norm(series.amplitudes[k] - psi) < 1e-10
        psi = u @ psi
    assert series.generator_kind == "periodic"


def test_periodic_whole_periods_take_the_nominal_substeps():
    # At w = 7.3, rounding in k*T - (k-1)*T once asked for 257 substeps.
    spec = FloquetSpec(dim=2, drive_frequency=7.3,
                       components={-1: 2.0 * SP, 0: 0.7 * SX, 1: 2.0 * SM})
    state = StateVector(np.array([0.6, 0.8j]))
    strobe = np.arange(17) * spec.period
    series = evolve_periodic(spec, state, strobe)
    u = _propagator(spec, 0.0, spec.period, SUBSTEPS_PER_PERIOD)
    psi = state.amplitudes.copy()
    for k in range(17):
        assert np.linalg.norm(series.amplitudes[k] - psi) < 1e-12
        psi = u @ psi


def _substep_loop(spec, psi, times):
    """Reference: each gap's midpoint exponentials from one batched eigh,
    applied to the state one substep at a time."""
    nominal = spec.period / SUBSTEPS_PER_PERIOD
    out = []
    current = 0.0
    for target in times:
        gap = target - current
        if gap > 0.0:
            count = int(max(1, np.ceil(gap / nominal - 1e-9)))
            h = gap / count
            mids = current + (np.arange(count) + 0.5) * h
            vals, vecs = np.linalg.eigh(spec.hamiltonian_at(mids))
            for lam, v in zip(vals, vecs):
                psi = v @ (np.exp(-1j * lam * h) * (v.conj().T @ psi))
            current = target
        out.append(psi)
    return np.array(out)


def test_periodic_matches_the_substep_loop():
    # Strobe grid, then a mixed grid: off-period samples, a repeated sample,
    # gaps of three and two whole periods, and a gap from a boundary that
    # takes 256 substeps but ends half a substep short of the next one.
    mixed = np.array([0.0, 0.37, 1.0, 1.0, 4.0,
                      5.0 - 0.5 / SUBSTEPS_PER_PERIOD, 5.25, 7.0, 9.0])
    for spec in drive_ensemble():
        start = np.zeros(spec.dim, dtype=complex)
        start[spec.dim - 1] = 1.0
        for grid in (np.arange(17), mixed):
            t = grid * spec.period
            series = evolve_periodic(spec, StateVector(start), t)
            ref = _substep_loop(spec, start, t)
            assert np.max(np.abs(series.amplitudes - ref)) < 1e-12


def test_periodic_long_gaps_take_bounded_substep_stacks(monkeypatch):
    # Gaps of many periods that start or end off the period grid are
    # advanced in slices; no eigh sees more than one period's substeps.
    eigh, shapes = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    grid = np.array([0.0, 3.3, 10.71, 11.0, 40.05, 40.1])
    for spec in list(drive_ensemble())[::2]:
        start = np.zeros(spec.dim, dtype=complex)
        start[0] = 1.0
        t = grid * spec.period
        ref = _substep_loop(spec, start, t)
        shapes.clear()
        monkeypatch.setattr(floquet.np.linalg, "eigh", counting_eigh)
        series = evolve_periodic(spec, StateVector(start), t)
        monkeypatch.undo()
        assert np.max(np.abs(series.amplitudes - ref)) < 1e-12
        assert max(shapes) == (SUBSTEPS_PER_PERIOD, spec.dim, spec.dim)


def test_periodic_strobe_decomposes_one_period_once(monkeypatch):
    spec = list(drive_ensemble())[2]
    eigh = np.linalg.eigh
    shapes = []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(floquet.np.linalg, "eigh", counting_eigh)
    start = np.zeros(spec.dim, dtype=complex)
    start[0] = 1.0
    evolve_periodic(spec, StateVector(start), np.arange(17) * spec.period)
    assert shapes == [(SUBSTEPS_PER_PERIOD, spec.dim, spec.dim)]


def test_periodic_with_static_drive_matches_constant():
    h0 = 0.3 * SX
    spec = FloquetSpec(dim=2, drive_frequency=5.0, components={0: h0})
    state = StateVector(np.array([1.0, 0.0]))
    t = np.linspace(0.0, 4.0, 9)
    a = evolve_periodic(spec, state, t)
    b = evolve_constant(h0, state, t)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10


def test_periodic_time_validation():
    spec = FloquetSpec(dim=2, drive_frequency=5.0, components={0: SX})
    state = StateVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        evolve_periodic(spec, state, [-1.0, 0.0])
    with pytest.raises(ValueError):
        evolve_periodic(spec, state, [1.0, 0.5])
    with pytest.raises(ShapeMismatch):
        evolve_periodic(spec, StateVector(np.array([1.0, 0.0, 0.0])), [0.0])


def test_populations_selects_components():
    state = StateVector(np.array([0.6, 0.8j]))
    series = evolve_constant(np.zeros((2, 2)), state, [0.0, 1.0])
    pops = populations(series, indices=[1])
    assert np.allclose(pops, 0.64)
    with pytest.raises(IndexOutOfRange):
        populations(series, indices=[2])


def test_low_pass_preserves_constant_and_linear():
    dt = 0.01
    t = np.arange(0.0, 40.0 + dt / 2, dt)
    flat = low_pass(np.full_like(t, 0.7), dt, 4.0)
    assert np.max(np.abs(flat - 0.7)) < 1e-12
    inner = slice(500, t.size - 500)
    linear = low_pass(2.0 * t, dt, 4.0)
    assert np.max(np.abs(linear[inner] - 2.0 * t[inner])) < 1e-10


def test_low_pass_attenuates_fast_tone():
    dt = 0.01
    t = np.arange(0.0, 40.0 + dt / 2, dt)
    tone = np.cos(2.0 * np.pi * t)
    smooth = low_pass(tone, dt, 4.0)
    inner = slice(500, t.size - 500)
    assert np.max(np.abs(smooth[inner])) < 0.05


def test_low_pass_filters_columns_independently():
    dt = 0.1
    t = np.arange(0.0, 20.0, dt)
    stacked = np.stack([np.full_like(t, 0.3), 1.5 * t], axis=1)
    out = low_pass(stacked, dt, 2.0)
    assert out.shape == stacked.shape
    assert np.max(np.abs(out[:, 0] - 0.3)) < 1e-12
    inner = slice(50, t.size - 50)
    assert np.max(np.abs(out[inner, 1] - 1.5 * t[inner])) < 1e-10


def test_low_pass_window_guard():
    with pytest.raises(WindowTooSmall):
        low_pass(np.ones(10), 1.0, 0.5)
    with pytest.raises(ValueError):
        low_pass(np.ones(10), 0.0, 1.0)


def test_interior_peak_refinement():
    t = np.linspace(0.0, 10.0, 28)
    vals = np.cos(t - 4.03) ** 2
    peaks = interior_peak_times(vals, t)
    assert peaks.size == 3
    for target in (4.03 - np.pi, 4.03, 4.03 + np.pi):
        assert min(abs(p - target) for p in peaks) < 0.01


def test_interior_peaks_exclude_boundaries():
    t = np.linspace(0.0, np.pi, 40)
    falling = np.cos(t)  # maximum exactly at the left boundary
    assert interior_peak_times(falling, t).size == 0


def test_interior_peaks_require_uniform_grid():
    t = np.array([0.0, 1.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        interior_peak_times(np.sin(t), t)


def test_secular_shift_frozen_synthetic_delay():
    dt = 0.01
    t = np.arange(0.0, 25.0 + dt / 2, dt)
    reference = np.cos(0.5 * (t - 3.0)) ** 2
    candidate = np.cos(0.5 * (t - 3.5)) ** 2
    shift = secular_shift(reference, candidate, t)
    assert shift == pytest.approx(-0.5, abs=1e-12)


def test_secular_shift_sign_convention():
    # candidate peaking early means a positive shift
    dt = 0.01
    t = np.arange(0.0, 25.0 + dt / 2, dt)
    reference = np.cos(0.5 * (t - 3.0)) ** 2
    early = np.cos(0.5 * (t - 2.7)) ** 2
    assert secular_shift(reference, early, t) == pytest.approx(0.3, abs=1e-12)


def test_secular_shift_needs_enough_peaks():
    dt = 0.01
    t = np.arange(0.0, 4.0, dt)
    reference = np.cos(0.5 * (t - 2.0)) ** 2
    with pytest.raises(InsufficientPeaks):
        secular_shift(reference, reference, t)


def test_secular_shift_rejects_mismatched_peak_counts():
    # unequal maxima counts mean the signals do not share one oscillation
    dt = 0.01
    t = np.arange(0.0, 40.0, dt)
    reference = np.cos(t) ** 2
    candidate = np.cos(1.5 * t) ** 2
    with pytest.raises(InsufficientPeaks, match="counts differ"):
        secular_shift(reference, candidate, t)
