#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload compile --seed 0 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are
scaled to a reference host speed (``perfbench/hostspeed.py``).  Results
(and, for traced runs, every span) are also written under
``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up is repeated and its median reported, so one slow repeat
#: does not read as a set-up regression.
SETUP_REPEATS = 5

#: Advisor calibration cells replayed per traced sweep (with and
#: without the profiler) for ``prof.overhead_ratio``.
PROF_REPLAYS_PER_OP = 2

_clock = time.perf_counter

#: Workload-specific names of the generic metrics, for the
#: human-readable summary.
ALIASES = {
    "compile": {"op_ms_p50": "compile_ms_p50",
                "op_ms_tail": "compile_ms_p95",
                "work_per_s": "compile_kb_per_s"},
    "execute": {"op_ms_p50": "run_ms_p50", "op_ms_tail": "run_ms_p95",
                "cell_ms_geomean": "run_ms_geomean"},
    "fleet": {"work_per_s": "devices_per_s"},
    "advise": {"work_per_s": "advise_cells_per_s",
               "cell_ms_geomean": "advise_sweep_ms_geomean",
               "op_ms_tail": "advise_sweep_ms_p80"},
}

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms",
         "op_ms_tail": "ms", "cell_ms_geomean": "ms",
         "work_per_s": "work/s"}


def _bootstrap() -> None:
    """Put the checkout's ``src`` and root on the path, or exit 2."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no src/repro package under {ROOT}; run from "
              f"a full checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def provenance(workload: str, seed: int, seconds: int,
               trace: int) -> dict:
    commit = "unknown (not a git checkout)"
    # Only ask git about this checkout, never an enclosing repository.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True,
                timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "commit": commit,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "platform": platform.platform()}


def attempt(run, check):
    """Time one operation; returns ``(seconds, result, error)``."""
    started = _clock()
    try:
        result = run()
    except Exception as exc:  # a failed operation, counted, not fatal
        return _clock() - started, None, f"{type(exc).__name__}: {exc}"
    elapsed = _clock() - started
    return elapsed, result, check(result)


class Tally:
    """Operation outcomes and timings of one run.  Timed operations
    arrive scaled to the reference host speed (``hostspeed``); the raw
    times are kept alongside."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = []
        self.raw_times = []
        self.by_cell = {}
        self.work = 0.0

    def check(self, cell, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{cell.key}: {error}")

    def timed(self, cell, result, error):
        """Count one operation; returns the ``done(scaled, raw)``
        callback that records its time."""
        self.check(cell, error)
        work = cell.work(result) if error is None else 0.0

        def done(seconds, raw):
            self.work += work
            self.times.append(seconds)
            self.raw_times.append(raw)
            self.by_cell.setdefault(cell.key, []).append(seconds)
        return done


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally: Tally, setup_s: float, tail_q: int) -> dict:
    times = tally.times
    cell_medians = [statistics.median(ts) for ts in tally.by_cell.values()]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": quantile(times, tail_q) * 1e3,
        "cell_ms_geomean": geomean(cell_medians) * 1e3,
        "work_per_s": tally.work / sum(times),
    }


def engine_geomeans(tally: Tally) -> list:
    """``(run_ms_geomean_<engine>, value, cells)`` for the execute
    workload, whose cell keys are ``program/engine/checks``."""
    rows = []
    for engine in ("walk", "vm", "jit"):
        medians = [statistics.median(ts) for key, ts
                   in tally.by_cell.items()
                   if key.split("/")[1] == engine]
        rows.append((f"run_ms_geomean_{engine}",
                     geomean(medians) * 1e3, len(medians)))
    return rows


def measure(cells, seed: int, seconds: int, tally: Tally, speed) -> None:
    from perfbench.workloads import schedule

    deadline = _clock() + seconds
    for cell in schedule(cells, seed):
        if _clock() >= deadline:
            break
        elapsed, result, error = attempt(cell.run, cell.check)
        speed.add(elapsed, tally.timed(cell, result, error))
    speed.flush()


def measure_traced(cells, seed: int, seconds: int, tally: Tally, speed):
    """Alternate untraced and traced runs of each operation."""
    from perfbench import layers
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import replay_cell, schedule

    rec = SpanRecorder()
    sums = {"untraced": 0.0, "traced": 0.0, "profiled": 0.0,
            "unprofiled": 0.0}

    def add_to(key):
        def done(scaled, raw):
            sums[key] += scaled
        return done

    deadline = _clock() + seconds
    for op_id, cell in enumerate(schedule(cells, seed)):
        if _clock() >= deadline:
            break
        elapsed, result, error = attempt(cell.run, cell.check)
        tally.check(cell, error)
        speed.add(elapsed, add_to("untraced"))
        tasks = []
        patches = layers.install(rec, on_cell=tasks.append)
        try:
            elapsed, result, error = attempt(
                lambda: rec.run_op(op_id, cell.run), cell.check)
        finally:
            patches.restore()
        tally.check(cell, error)
        speed.add(elapsed, add_to("traced"))
        step = max(1, len(tasks) // PROF_REPLAYS_PER_OP)
        for task in tasks[::step][:PROF_REPLAYS_PER_OP]:
            speed.add(replay_cell(task, profiled=False),
                      add_to("unprofiled"))
            speed.add(replay_cell(task, profiled=True),
                      add_to("profiled"))
    speed.flush()

    def ratio(num, den):
        return sums[num] / sums[den] if sums[den] else 0.0
    return rec, {"trace.overhead_ratio": ratio("traced", "untraced"),
                 "prof.overhead_ratio": ratio("profiled", "unprofiled")}


def per_layer(rec, ratios: dict) -> dict:
    from perfbench import layers
    from perfbench.spans import ROOT as ROOT_SPAN, summarize

    summary = summarize(rec)
    metrics = layers.layer_metrics(summary, rec.counters)
    metrics.update(ratios)
    root_total = summary["root_total_s"]
    root_self = summary["busy_s"].get(ROOT_SPAN, 0.0)
    metrics["trace.spans"] = summary["spans"]
    metrics["trace.ledger_violations"] = summary["ledger_violations"]
    metrics["trace.coverage"] = (1.0 - root_self / root_total
                                 if root_total else 0.0)
    return metrics, summary


def _print_table(rows) -> None:
    print(f"  {'metric':<34} {'value':>14}  {'unit':<8} samples")
    for name, value, unit, samples in rows:
        print(f"  {name:<34} {value:>14.6g}  {unit:<8} {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    from perfbench.hostspeed import REFERENCE_S, HostSpeed
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    prov = provenance(workload.name, args.seed, args.seconds, args.trace)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in prov.items()))

    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        started = _clock()
        cells = workload.setup(args.seed)
        speed.add(_clock() - started, lambda scaled, raw:
                  setups.append(scaled))
        speed.flush()
    setup_s = statistics.median(setups)

    tally = Tally()
    # Warm-up: one untimed, checked pass, so lazy imports and caches
    # that every real run also has warm are not charged to one cell.
    for cell in cells:
        _, _, error = attempt(cell.run, cell.check)
        tally.check(cell, error)

    record = {"provenance": prov, "reference_s": REFERENCE_S}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}"
                                 f"-trace{args.trace}")
    correct = True
    if args.trace:
        from perfbench.spans import LEDGER_TOLERANCE_S, write_spans

        rec, ratios = measure_traced(cells, args.seed, args.seconds, tally,
                                     speed)
        metrics, summary = per_layer(rec, ratios)
        write_spans(rec, stem + ".spans")
        ledger_ok = summary["ledger_violations"] == 0
        correct = ledger_ok
        print(f"ledger: {summary['spans']} spans; children sum to their "
              f"parent within {LEDGER_TOLERANCE_S:g} s: "
              f"{'ok' if ledger_ok else 'VIOLATED'} (worst excess "
              f"{summary['ledger_worst_excess_s']:.3g} s); layers cover "
              f"{metrics['trace.coverage']:.1%} of traced op time")
        print(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f}"
              f" (traced / untraced wall time of the same operations)")
        _print_table((name, value, _layer_unit(name), "")
                     for name, value in metrics.items())
        record["per_layer"] = metrics
    else:
        measure(cells, args.seed, args.seconds, tally, speed)
        metrics = end_to_end(tally, setup_s, workload.tail_q)
        samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1,
                   "cell_ms_geomean": f"{len(tally.by_cell)} cells"}
        aliases = ALIASES.get(workload.name, {})
        rows = []
        for name, value in metrics.items():
            label = name
            if name in aliases:
                label = f"{name} ({aliases[name]})"
            if name == "op_ms_tail":
                label += f" [p{workload.tail_q}]"
            rows.append((label, value, UNITS[name],
                         samples.get(name, len(tally.times))))
        if workload.name == "execute":
            for name, value, cells in engine_geomeans(tally):
                rows.append((name, value, "ms", f"{cells} cells"))
        rows.append(("error_rate", tally.failed / tally.attempted,
                     "failed/attempted", tally.attempted))
        print(f"work unit: {workload.work_unit}")
        print(f"host speed: the reference kernel ran "
              f"{speed.factor():.2f}x its reference time (median of "
              f"{len(speed.kernels)}); raw op_ms_p50 "
              f"{statistics.median(tally.raw_times) * 1e3:.4g} ms")
        _print_table(rows)
        record["end_to_end"] = metrics
        record["raw_op_ms"] = [t * 1e3 for t in tally.raw_times]
        record["cell_median_ms"] = {
            key: statistics.median(ts) * 1e3
            for key, ts in sorted(tally.by_cell.items())}

    record["kernel_ms"] = [k * 1e3 for k in speed.kernels]
    for error in tally.errors:
        print(f"FAILED {error}")
    correct = correct and tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value,
                                 "unit": UNITS.get(name, _layer_unit(name))}
                          for name, value in metrics.items()}}
    record["result"] = result
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("busy_s"):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
