"""Time evolution, populations, smoothing, and secular-shift diagnostics.

Constant generators are evolved exactly (hermitian ones through a single
eigendecomposition, general ones through one scaling-and-squaring
exponential per distinct time gap); periodic generators are evolved with
``SUBSTEPS_PER_PERIOD`` midpoint-sampled piecewise-constant steps per
period, and whole periods between samples reuse one cached one-period
propagator.  The analysis helpers extract component populations, remove
fast ripple with a moving average, and estimate the secular time shift
between two slowly oscillating signals by pairing their interior maxima.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrixkit
from .errors import (
    ConvergenceFailure,
    IndexOutOfRange,
    InsufficientPeaks,
    NonUnitaryStep,
    ShapeMismatch,
    WindowTooSmall,
    ZeroVector,
)
from .floquet import FloquetSpec, _propagator

__all__ = [
    "StateVector",
    "TimeSeries",
    "evolve_constant",
    "evolve_periodic",
    "populations",
    "low_pass",
    "interior_peak_times",
    "secular_shift",
]

# Fewest interior maxima secular_shift pairs in each signal.
MIN_PEAKS = 3
# Midpoint substeps per drive period of evolve_periodic.
SUBSTEPS_PER_PERIOD = 256


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"c{i}" for i in range(dim))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes with one label per component."""

    amplitudes: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.size == 0:
            raise ZeroVector("state vector has no components")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state vector contains non-finite amplitudes")
        labels = tuple(self.labels) if self.labels else _default_labels(amps.size)
        if len(labels) != amps.size:
            raise ShapeMismatch(
                f"{len(labels)} labels for {amps.size} amplitudes")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class TimeSeries:
    """Sampled evolution: ``amplitudes[i]`` is the state at ``times[i]``."""

    times: np.ndarray
    amplitudes: np.ndarray
    labels: tuple[str, ...]
    generator_kind: str

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.amplitudes, axis=1)


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float).ravel()
    if t.size == 0:
        raise ValueError("no sample times given")
    if not np.all(np.isfinite(t)):
        raise ValueError("sample times contain non-finite values")
    return t


def evolve_constant(matrix: np.ndarray, state: StateVector,
                    times) -> TimeSeries:
    """Evolve a state under a constant generator ``exp(-i A t)``.

    Generators hermitian to ``matrixkit.HERM_TOL`` are hermitized,
    diagonalized once and sampled at arbitrary times; general generators
    are advanced with stepped scaling-and-squaring exponentials, one per
    distinct time gap, which requires non-decreasing times.  Norm is
    preserved only in the hermitian case; a general generator whose
    evolution overflows raises :class:`ConvergenceFailure`.
    """
    a = matrixkit._require_square(matrixkit.as_matrix(matrix, "generator"),
                                  "generator")
    if state.dim != a.shape[0]:
        raise ShapeMismatch(
            f"state has {state.dim} components, generator acts on {a.shape[0]}")
    t = _check_times(times)
    psi0 = state.amplitudes
    if matrixkit._hermiticity_excess(a, matrixkit.HERM_TOL) is None:
        ed = matrixkit.hermitian_eig(matrixkit.hermitize(a))
        coeff = ed.vectors.conj().T @ psi0
        phases = np.exp(-1j * np.outer(t, ed.values))
        amps = phases * coeff[None, :] @ ed.vectors.T
        label = "hermitian_constant"
    else:
        if np.any(np.diff(t) < 0.0):
            raise ValueError(
                "non-hermitian generators require non-decreasing times")
        import scipy.linalg  # deferred: the only scipy use, and a slow import
        amps = np.empty((t.size, state.dim), dtype=complex)
        steppers: dict[float, np.ndarray] = {}
        # Overflow is reported once, below, instead of as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            psi = (scipy.linalg.expm(-1j * a * t[0]) @ psi0 if t[0] != 0.0
                   else psi0.copy())
            amps[0] = psi
            for i, dt in enumerate(np.diff(t)):
                if dt != 0.0:
                    if dt not in steppers:
                        steppers[dt] = scipy.linalg.expm(-1j * a * dt)
                    psi = steppers[dt] @ psi
                amps[i + 1] = psi
        if not np.all(np.isfinite(amps)):
            raise ConvergenceFailure(
                "non-hermitian evolution overflowed to non-finite amplitudes")
        label = "nonhermitian_constant"
    return TimeSeries(times=t, amplitudes=amps, labels=state.labels,
                      generator_kind=label)


def evolve_periodic(spec: FloquetSpec, state: StateVector,
                    times) -> TimeSeries:
    """Evolve a state under a periodic generator from ``t = 0``.

    Uses midpoint-sampled piecewise-constant exponentials with at least
    ``SUBSTEPS_PER_PERIOD`` substeps per drive period; sample times must be
    non-negative and non-decreasing.  A gap of ``m`` whole periods between
    period boundaries is advanced by ``U_T^m``, with ``U_T`` built once from
    exactly ``SUBSTEPS_PER_PERIOD`` substeps; any other gap by the product
    of its own substeps, in slices of at most ``SUBSTEPS_PER_PERIOD`` of
    them so memory stays bounded however long the gap.  Raises
    :class:`NonUnitaryStep` if the state norm drifts from its initial value
    by more than 1e-8.
    """
    if state.dim != spec.dim:
        raise ShapeMismatch(
            f"state has {state.dim} components, drive acts on {spec.dim}")
    t = _check_times(times)
    if t[0] < 0.0 or np.any(np.diff(t) < 0.0):
        raise ValueError("sample times must be non-negative and non-decreasing")
    nominal = spec.period / SUBSTEPS_PER_PERIOD
    phase = t / spec.period
    on_boundary = np.abs(phase - np.round(phase)) <= 1e-9 * np.maximum(1.0, phase)
    psi = state.amplitudes.copy()
    norm0 = float(np.linalg.norm(psi))
    if norm0 == 0.0:
        raise ZeroVector("cannot evolve a zero state")
    amps = np.empty((t.size, spec.dim), dtype=complex)
    u_period = None
    current, from_boundary = 0.0, True
    for i, target in enumerate(t):
        gap = target - current
        if gap > 0.0:
            # A whole period keeps SUBSTEPS_PER_PERIOD despite rounding.
            count = int(max(1, np.ceil(gap / nominal - 1e-9)))
            whole, rest = divmod(count, SUBSTEPS_PER_PERIOD)
            if rest == 0 and from_boundary and on_boundary[i]:
                if u_period is None:
                    u_period = _propagator(spec, 0.0, spec.period,
                                           SUBSTEPS_PER_PERIOD)
                for _ in range(whole):
                    psi = u_period @ psi
            else:
                h = gap / count
                for first in range(0, count, SUBSTEPS_PER_PERIOD):
                    n = min(SUBSTEPS_PER_PERIOD, count - first)
                    stop = (target if first + n == count
                            else current + (first + n) * h)
                    psi = _propagator(spec, current + first * h, stop, n) @ psi
            current, from_boundary = target, on_boundary[i]
        amps[i] = psi
        drift = abs(float(np.linalg.norm(psi)) / norm0 - 1.0)
        if drift > 1e-8:
            raise NonUnitaryStep(
                f"norm drifted by {drift:.3e} at t = {target:g}")
    return TimeSeries(times=t, amplitudes=amps, labels=state.labels,
                      generator_kind="periodic")


def populations(series: TimeSeries, indices=None) -> np.ndarray:
    """Squared amplitude of each requested component over time."""
    dim = series.amplitudes.shape[1]
    if indices is None:
        idx = list(range(dim))
    else:
        idx = [int(i) for i in indices]
        for i in idx:
            if i < 0 or i >= dim:
                raise IndexOutOfRange(
                    f"component {i} outside state dimension {dim}")
    return np.abs(series.amplitudes[:, idx]) ** 2


def low_pass(values: np.ndarray, dt: float, window: float) -> np.ndarray:
    """Centered moving average over a time window.

    The window is converted to an odd tap count ``2 * round(window / (2 dt))
    + 1``; edges are normalized by the actual number of contributing
    samples.  Within half a window (``round(window / (2 dt))`` samples) of
    either end the average is therefore one-sided and does not remove a
    ripple of period ``window``.  Columns of a 2-D input are filtered
    independently.
    """
    if not dt > 0.0:
        raise ValueError(f"sampling step must be positive, got {dt}")
    half = int(round(window / (2.0 * dt)))
    if half < 1:
        raise WindowTooSmall(
            f"window {window:g} spans no full sampling step {dt:g}")
    taps = np.ones(2 * half + 1)
    arr = np.asarray(values, dtype=float)
    squeeze = arr.ndim == 1
    arr = np.atleast_2d(arr.T).T if squeeze else arr
    if arr.ndim != 2:
        raise ShapeMismatch(f"values must be 1-D or 2-D, got shape {arr.shape}")
    counts = np.convolve(np.ones(arr.shape[0]), taps, mode="same")
    out = np.empty_like(arr)
    for j in range(arr.shape[1]):
        out[:, j] = np.convolve(arr[:, j], taps, mode="same") / counts
    return out[:, 0] if squeeze else out


def _require_uniform(times: np.ndarray) -> float:
    gaps = np.diff(times)
    if gaps.size == 0 or gaps[0] <= 0.0:
        raise ValueError("need at least two increasing sample times")
    if np.max(np.abs(gaps - gaps[0])) > 1e-9 * gaps[0]:
        raise ValueError("peak analysis requires a uniform time grid")
    return float(gaps[0])


def interior_peak_times(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Times of strict interior maxima, refined by local quadratic fits."""
    v = np.asarray(values, dtype=float).ravel()
    t = _check_times(times)
    if v.size != t.size:
        raise ShapeMismatch(f"{v.size} values for {t.size} times")
    dt = _require_uniform(t)
    core = np.arange(1, v.size - 1)
    mask = (v[core] > v[core - 1]) & (v[core] > v[core + 1])
    idx = core[mask]
    if idx.size == 0:
        return np.empty(0)
    left, mid, right = v[idx - 1], v[idx], v[idx + 1]
    curvature = left - 2.0 * mid + right
    offset = np.where(curvature != 0.0,
                      0.5 * (left - right) / curvature, 0.0)
    return t[idx] + offset * dt


def secular_shift(reference: np.ndarray, candidate: np.ndarray,
                  times: np.ndarray) -> float:
    """Mean arrival-time lead of reference maxima over candidate maxima.

    Both signals must show at least ``MIN_PEAKS`` interior maxima and the
    same number of them (:class:`InsufficientPeaks` otherwise — unequal
    counts mean the signals are not tracking the same oscillation); maxima
    are paired in order of occurrence.  A positive value means the
    candidate signal peaks early, that is, its oscillation runs fast
    against the reference.
    """
    t = _check_times(times)
    ref_peaks = interior_peak_times(reference, t)
    cand_peaks = interior_peak_times(candidate, t)
    if ref_peaks.size < MIN_PEAKS or cand_peaks.size < MIN_PEAKS:
        raise InsufficientPeaks(
            f"found {ref_peaks.size} reference and {cand_peaks.size} "
            f"candidate maxima, need {MIN_PEAKS} of each")
    if ref_peaks.size != cand_peaks.size:
        raise InsufficientPeaks(
            f"maxima counts differ ({ref_peaks.size} reference vs "
            f"{cand_peaks.size} candidate)")
    return float(np.mean(ref_peaks - cand_peaks))
