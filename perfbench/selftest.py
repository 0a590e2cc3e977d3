"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import LEAK, CliResult, CliSmall, EmbedDense, FloquetDrive  # noqa: E402


def _tiny(cls, tmp_path, seed=3):
    if cls is CliSmall:
        return cls(seed, tiny=True, workdir=str(tmp_path))
    return cls(seed, tiny=True)


@pytest.mark.parametrize("cls", [EmbedDense, FloquetDrive, CliSmall])
def test_tiny_smoke_run(cls, tmp_path):
    workload = _tiny(cls, tmp_path)
    run.warm_up(workload)
    tally = run.Tally()
    timing = run.timed_run(workload, 0.0, tally)
    assert tally.attempted == timing["samples"] >= run.MIN_PROBLEMS
    assert tally.failed == 0, tally.first_failures
    assert timing["latency_p50_ms"] <= timing["latency_p90_ms"]
    assert timing["problems_per_s"] > 0
    if cls is CliSmall:
        # One of each documented leak per block, until they exit with 2.
        assert tally.leaks in (0, 3 * timing["samples"] // run.block_size(workload))


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_tracer_self_time_of_nested_spans():
    tracer = Tracer()
    inner = tracer._wrap(lambda: _busy(0.002), "bloch.inner", "bloch", None, "inner")

    def outer_body():
        _busy(0.001)
        inner()
        inner()

    outer = tracer._wrap(outer_body, "partition.outer", "partition", None, "outer")
    tracer.recording = True
    outer()
    tracer.recording = False
    spans = {s[1]: s for s in tracer.spans}
    assert len(spans) == 3
    (outer_span,) = [s for s in spans.values() if s[3] == "partition.outer"]
    inner_spans = [s for s in spans.values() if s[3] == "bloch.inner"]
    assert all(s[2] == outer_span[1] for s in inner_spans)
    assert outer_span[2] is None
    inner_total = sum(s[5] - s[4] for s in inner_spans)
    outer_total = outer_span[5] - outer_span[4]
    assert tracer.counts["partition.self_s"] == pytest.approx(
        outer_total - inner_total, abs=1e-12)
    assert tracer.counts["bloch.self_s"] == pytest.approx(inner_total, abs=1e-12)
    assert (tracer.counts["partition.self_s"] + tracer.counts["bloch.self_s"]
            == pytest.approx(outer_total, abs=1e-12))
    assert tracer.counts["partition.calls"] == 1
    assert tracer.counts["bloch.calls"] == 2
    assert tracer.counts["partition.self_s"] >= 0.001
    assert tracer.counts["bloch.self_s"] >= 0.004


def test_tracer_restores_every_binding():
    import numpy.linalg

    import effham
    import effham.bloch
    import effham.floquet
    before = (effham.iterate_bloch, effham.floquet.iterate_bloch,
              numpy.linalg.svd)
    tracer = Tracer()
    tracer.install()
    try:
        assert effham.floquet.iterate_bloch is effham.bloch.iterate_bloch
        assert effham.iterate_bloch is effham.bloch.iterate_bloch
        assert effham.bloch.iterate_bloch is not before[0]
        assert numpy.linalg.svd is not before[2]
    finally:
        tracer.uninstall()
    assert (effham.iterate_bloch, effham.floquet.iterate_bloch,
            numpy.linalg.svd) == before


def _first(workload, cls_name):
    for index in range(10):
        for case in workload.block(index):
            if case.cls == cls_name:
                return case
    raise AssertionError(f"no {cls_name} case generated")


def test_oracles_reject_perturbed_results(tmp_path):
    embed = _tiny(EmbedDense, tmp_path)
    case = _first(embed, "p4q64")
    outcome = embed.run(case)
    assert embed.check(case, outcome) is None
    outcome["spectrum"] = outcome["spectrum"] + 1e-6
    assert embed.check(case, outcome) is not None
    outcome = embed.run(case)
    outcome["adiabatic"] = outcome["adiabatic"] + 1e-3j * np.triu(
        np.ones_like(outcome["adiabatic"]), 1)
    assert "hermitian" in embed.check(case, outcome)

    floquet = _tiny(FloquetDrive, tmp_path)
    case = _first(floquet, "d2")
    outcome = floquet.run(case)
    assert floquet.check(case, outcome) is None
    outcome["monodromy"] = outcome["monodromy"] + 1e-4
    assert floquet.check(case, outcome) is not None
    outcome = floquet.run(case)
    outcome["amplitudes"] = outcome["amplitudes"] * np.exp(1e-4j)
    assert "evolve_periodic" in floquet.check(case, outcome)

    cli = _tiny(CliSmall, tmp_path)
    case = _first(cli, "solve")
    outcome = cli.run(case)
    assert cli.check(case, outcome) is None
    report = json.loads(outcome.stdout)
    report["spectrum"][0] += 1e-6
    outcome.stdout = json.dumps(report)
    assert cli.check(case, outcome) is not None


def test_leak_is_reported_apart_from_failures(tmp_path):
    cli = _tiny(CliSmall, tmp_path)
    case = _first(cli, "malformed")
    case.data["variant"] = "nan_entry"
    assert cli.check(case, ValueError("matrix contains non-finite entries")) == LEAK
    assert cli.check(case, CliResult(2, "", "error: x")) is None
    assert cli.check(case, RuntimeError("other")) not in (None, LEAK)


@pytest.mark.parametrize("cls", [EmbedDense, FloquetDrive, CliSmall])
def test_traced_counts_repeat_for_the_same_seed(cls, tmp_path):
    def traced():
        workload = _tiny(cls, tmp_path)
        return run.traced_run(workload, run.Tally(), tmp_path / "spans.jsonl")

    first, second = traced(), traced()
    exact = [k for k in first if k != "trace.overhead_ratio" and not k.endswith("_s")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["lapack.flops_computed"] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
