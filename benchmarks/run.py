#!/usr/bin/env python3
"""lossyad benchmark: one command for every workload.

    python3 benchmarks/run.py --workload fit-trend --seed 0 --seconds 40 --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured for --seconds; with --trace 1 the
per-layer ones from one traced set-up and round (see README.md). The full
result also goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_rdo_windows_per_s": "windows/s",
    "fit_ae_windows_per_s": "windows/s",
    "stream_windows_per_s": "windows/s",
    "eval_windows_per_s": "windows/s",
    "codec_symbols_per_s": "symbols/s",
    "coded_bits_per_symbol": "bits/symbol",
    "peak_rss_mib": "MiB",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _limit_blas_threads():
    """One process; BLAS threads no more than the CPUs this process may use.
    Must run before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    return int(n)


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload_cls, seed, seconds, work_dir):
    """Set-up and round, repeated until `seconds` have passed (at least once).

    Each metric is its slowest sample of the run: on a shared machine the
    CPU speed swings by up to 1.8x over tens of seconds, and the slowest sample
    repeats from run to run far better than a median or a total."""
    from workloads import Meter

    meter = Meter()
    workload = workload_cls(seed, work_dir)
    warm = Meter()   # the first set-up in a process runs cold; not timed
    workload.setup(warm)
    for _ in range(workload.warmup_rounds):
        workload.round(warm)
    meter.attempted += warm.attempted
    t0 = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - t0 < seconds:
        s0 = perf_counter()
        workload.setup(meter)
        meter.setup_s.append(perf_counter() - s0)
        workload.round(meter)
        rounds += 1
    elapsed = perf_counter() - t0
    workload.finish()
    values = {name: min(rates) for name, rates in meter.rates.items()}
    values["coded_bits_per_symbol"] = statistics.median(meter.bits_per_symbol)
    values["setup_s"] = max(meter.setup_s)
    values["peak_rss_mib"] = _peak_rss_mib()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    detail = {"rounds": rounds, "measured_s": elapsed,
              "setup_s_each": meter.setup_s, "rate_per_call": dict(meter.rates)}
    return meter.attempted, metrics, detail


def traced(workload_cls, seed, work_dir):
    """Per-layer metrics: a set-up and round to warm up, one with tracing
    off, then one with tracing on. The difference of the last two is the
    tracing overhead; the counts are per set-up and round, so they repeat
    exactly for a seed."""
    from layertrace import Tracer
    from workloads import Meter

    def setup_and_round(meter):
        workload = workload_cls(seed, work_dir)
        t0 = perf_counter()
        workload.setup(meter)
        workload.round(meter)
        return workload, perf_counter() - t0

    plain = Meter()
    setup_and_round(plain)
    _, untraced_s = setup_and_round(plain)
    tracer = Tracer().install()
    meter = Meter()
    try:
        workload, traced_s = setup_and_round(meter)
    finally:
        tracer.uninstall()
    workload.finish()
    layer = tracer.metrics(meter.work["stream_windows_per_s"])
    layer["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    metrics = {name: {"value": float(v), "unit": unit}
               for name, (v, unit) in layer.items()}
    detail = {"untraced_setup_round_s": untraced_s,
              "traced_setup_round_s": traced_s,
              "calls": dict(tracer.calls), "busy_s": dict(tracer.busy),
              "self_s": {k: tracer.self_s(k) for k in tracer.calls},
              "parent_child_calls": {f"{p}>{c}": n
                                     for (p, c), n in tracer.pairs.items()}}
    return plain.attempted + meter.attempted, metrics, detail


def main(argv=None):
    args = _parse_args(argv)
    threads = _limit_blas_threads()
    if not (ROOT / "src" / "lossyad").is_dir():
        print(f"benchmark: no lossyad package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from checks import CheckFailed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    work_dir = RESULTS_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    workload = WORKLOADS[args.workload]
    correct = True
    try:
        if args.trace:
            attempted, metrics, detail = traced(workload, args.seed, work_dir)
        else:
            attempted, metrics, detail = end_to_end(workload, args.seed,
                                                    args.seconds, work_dir)
    except CheckFailed as e:
        print(f"benchmark: check failed: {e}", file=sys.stderr)
        correct = False
        attempted, metrics, detail = 1, {}, {"check_failed": str(e)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": 0,
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "blas_threads": threads, "detail": detail},
        indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
