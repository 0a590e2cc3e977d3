"""Benchmark of the effham package: seeded workloads, metrics, oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload embed-dense --seed 1 --seconds 20 --trace 0

``--workload`` is ``embed-dense``, ``floquet-drive``, ``cli-small`` or
``all``.  The load is a closed loop: one client in this process sends the
next problem only after the previous one completed.  BLAS is pinned to one
thread before numpy is imported.  A warm-up pass runs before timing, and
every oracle check runs outside the timed region.

With ``--trace 0`` the run measures the end-to-end metrics for at least
``--seconds`` of timed work, in whole blocks and at least 100 problems.
With ``--trace 1`` it runs a fixed list of problems, each untraced and
then traced, and reports the per-layer metrics; the spans are written to
``.perfbench_out/`` when the run ends.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

numpy, and the benchmark modules that import it, are imported inside the
functions that need them, after ``main`` has pinned the BLAS threads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PROBLEMS = 100      # so p90 has at least 10 samples beyond it
TRACE_PROBLEMS = 100    # fixed problem list of a traced run (whole blocks)
SETUP_STARTS = 11       # fresh interpreter starts behind setup_s
IMPORTTIME_STARTS = 3   # fresh interpreter starts behind import.*_s
WARMUP_BLOCK = 1_000_000  # block index whose problems warm the caches
HELD_OUT_SEED = 7919    # not used while the workloads were tuned
OUT_DIR = ".perfbench_out"


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(module: str, env: dict) -> list[float]:
    """Seconds from a fresh interpreter start until ``module`` is imported."""
    code = f"import {module}, time; print(repr(time.time()))"
    samples = []
    for _ in range(SETUP_STARTS):
        start = time.time()
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$")


def import_breakdown(text: str, entry: str) -> dict[str, float]:
    """Split the import of ``entry`` into numpy, scipy and the rest.

    ``-X importtime`` lists each import after the ones it caused, indented
    by depth.  numpy and scipy are the cumulative times of their outermost
    imports (everything they pulled in first); effham is the rest of the
    entry module's cumulative time, its own modules and the standard
    library they need.
    """
    rows = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line.rstrip())
        if match:
            rows.append((len(match.group(2)) // 2, match.group(3),
                         int(match.group(1)) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0}
    total = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        outer = {a.split(".")[0] for _, a in ancestors}
        if name == entry and not ancestors:
            total = cumulative
        elif package in totals and not outer & set(totals):
            totals[package] += cumulative
        ancestors.append((depth, name))
    return {"numpy": totals["numpy"], "scipy": totals["scipy"],
            "effham": total - totals["numpy"] - totals["scipy"]}


def measure_imports(module: str, env: dict) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_STARTS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               f"import {module}"], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        runs.append(import_breakdown(done.stderr, module))
    return {f"import.{k}_s": statistics.median(r[k] for r in runs) for k in runs[0]}


def run_case(workload, case):
    """Run one problem; an exception is its outcome."""
    try:
        return workload.run(case)
    except Exception as exc:  # handed to the oracle, which names it
        return exc


class Tally:
    """Oracle outcomes of the problems attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.leaks = 0
        self.first_failures: list[str] = []

    def check(self, workload, cases, outcomes) -> None:
        from workloads import LEAK
        for case, outcome in zip(cases, outcomes):
            self.attempted += 1
            status = workload.check(case, outcome)
            if status == LEAK:
                self.leaks += 1
            elif status is not None:
                self.failed += 1
                message = f"{case.cls}: {status}"
                if len(self.first_failures) < 5 and message not in self.first_failures:
                    self.first_failures.append(message)


def warm_up(workload) -> None:
    seen = set()
    for case in workload.block(WARMUP_BLOCK):
        if case.cls not in seen:
            seen.add(case.cls)
            run_case(workload, case)


def block_size(workload) -> int:
    return sum(count for _, count in workload.classes)


def timed_run(workload, seconds: float, tally: Tally) -> dict:
    """Closed loop over whole blocks until ``seconds`` of timed work.

    Every block has the same class mix, so its throughput is comparable
    across blocks; ``problems_per_s`` is the median over blocks, which
    keeps a burst of outside load in one block from moving it.
    """
    latencies: list[float] = []
    classes: list[str] = []
    block_rates: list[float] = []
    index = 0
    while len(latencies) < MIN_PROBLEMS or sum(latencies) < seconds:
        cases = workload.block(index)
        outcomes = []
        block_time = 0.0
        for case in cases:
            start = time.perf_counter()
            outcome = run_case(workload, case)
            latency = time.perf_counter() - start
            latencies.append(latency)
            block_time += latency
            outcomes.append(outcome)
            classes.append(case.cls)
        block_rates.append(len(cases) / block_time)
        tally.check(workload, cases, outcomes)
        index += 1
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    ordered = [latencies[i] for i in order]
    by_class: dict[str, list[float]] = {}
    for cls, latency in zip(classes, latencies):
        by_class.setdefault(cls, []).append(latency)
    return {
        "problems_per_s": statistics.median(block_rates),
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_p90_ms": 1e3 * statistics.quantiles(ordered, n=10,
                                                     method="inclusive")[8],
        "samples": len(latencies),
        "blocks": len(block_rates),
        # Which class holds the samples around each percentile.
        "p50_classes": sorted({classes[i] for i in order[len(order) // 2 - 1:
                                                         len(order) // 2 + 1]}),
        "p90_classes": sorted({classes[i] for i in order[9 * len(order) // 10 - 1:
                                                         9 * len(order) // 10 + 1]}),
        "class_p10_p50_p90_ms": {
            c: [round(1e3 * x, 3) for x in statistics.quantiles(
                v, n=10, method="inclusive")[::4]] for c, v in by_class.items()},
    }


def traced_run(workload, tally: Tally, spans_path: Path) -> dict:
    """Fixed problem list, each problem untraced and then traced.

    Running the pair back to back gives both the same machine state, so
    their wall-time ratio is the tracing overhead.
    """
    from tracer import Tracer
    from workloads import CliResult
    blocks = -(-TRACE_PROBLEMS // block_size(workload))
    cases = [c for i in range(blocks) for c in workload.block(i)]
    tracer = Tracer()
    untraced = traced = 0.0
    outcomes = []
    for i, case in enumerate(cases):
        start = time.perf_counter()
        outcomes.append(run_case(workload, case))
        untraced += time.perf_counter() - start
        tracer.problem = i
        tracer.install()
        try:
            start = time.perf_counter()
            tracer.recording = True
            outcome = run_case(workload, case)
        finally:
            tracer.recording = False
            tracer.uninstall()
        traced += time.perf_counter() - start
        outcomes.append(outcome)
        if isinstance(outcome, CliResult):
            tracer.counts["cli.bytes_out"] += len(outcome.stdout.encode())
    tally.check(workload, [c for c in cases for _ in range(2)], outcomes)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced / untraced
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    return metrics


def provenance(workload, args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
        "generator": workload.params(), "block_size": block_size(workload),
        "load": "closed loop, one client, one process",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
    }


def metric_units(root: Path, trace: bool) -> dict[str, str]:
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, args, root: Path) -> dict:
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    units = metric_units(root, bool(args.trace))
    env = _child_env(root / "src")
    workdir = root / OUT_DIR / f"models-{os.getpid()}"
    try:
        if name == "cli-small":
            workdir.mkdir(parents=True, exist_ok=True)
            workload = cls(args.seed, workdir=str(workdir))
        else:
            workload = cls(args.seed)
        print(json.dumps({"provenance": provenance(workload, args)}))
        warm_up(workload)
        tally = Tally()
        placement = {}
        if args.trace:
            values = traced_run(workload, tally, root / OUT_DIR /
                                f"spans-{name}-{args.seed}.jsonl")
            values |= measure_imports(cls.entry_module, env)
            samples = tally.attempted // 2
        else:
            values = timed_run(workload, args.seconds, tally)
            samples = values.pop("samples")
            placement = {k: values.pop(k) for k in ("blocks", "p50_classes",
                                                     "p90_classes", "class_p10_p50_p90_ms")}
            values["setup_s"] = statistics.median(
                measure_setup(cls.entry_module, env))
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    summary = {
        "workload": name, "samples": samples,
        "setup_starts": 0 if args.trace else SETUP_STARTS,
        "fail_ratio": tally.failed / tally.attempted,
        "leaks": tally.leaks, "leak_ratio": tally.leaks / tally.attempted,
        "first_failures": tally.first_failures, **placement,
    }
    print(json.dumps({"summary": summary}))
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    if not args.trace:
        # Zero on a healthy run, so it is reported here and not as a metric.
        rows.append(("fail_ratio", summary["fail_ratio"], "ratio"))
    for key, value, unit in rows:
        print(f"{name:14s} {key:30s} {value:>16.6g} {unit:6s} n={samples}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["embed-dense", "floquet-drive", "cli-small", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "effham" / "__init__.py").is_file():
        print("error: src/effham not found; run from the root of an effham "
              "checkout", file=sys.stderr)
        return 2
    # Pin BLAS before numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import effham
    if Path(effham.__file__).resolve().parent != (src / "effham").resolve():
        print(f"error: effham imported from {effham.__file__}, not {src}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, root)))
        return 0
    # One process per workload, so each has its own peak memory.
    results = {}
    for name in ("embed-dense", "floquet-drive", "cli-small"):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
