#!/usr/bin/env python3
"""Benchmark of the twobridge cusp-shape pipeline.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: census and hot_slopes (see README.md).  One client sends
requests in a closed loop from a single process: each request waits for the
previous one.  Every run starts fresh interpreters, so nothing cached
carries over between runs: SETUP_SAMPLES - 1 set-up-only workers run one
after the other, then the measuring worker, which runs whole rounds of its
workload's stream until ``--seconds`` have passed.

``setup_s`` is the median over these SETUP_SAMPLES set-ups of the time from
starting the interpreter to being ready for the first timed request.  With
``--trace 0`` the last line of output holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Metric names and units come from
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # this directory; imports nothing of twobridge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

# Set-ups per run, each in a fresh interpreter with the machine to itself:
# a set-up is mostly interpreter start and imports, a fraction of a second,
# so the median of several keeps one slow start from deciding setup_s.
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170.0
# The tail percentile leaves TAIL_BEYOND samples of a round beyond it, or a
# fifth of the round when a round is too small for that.
TAIL_BEYOND = 10
TAIL_SHARE = 5


class BenchmarkError(Exception):
    pass


def start_worker(args, setup_only: bool):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    return proc, started


def read_ready(proc, started) -> float:
    """Seconds from starting the worker to its ready line."""
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "ready":
        raise BenchmarkError("worker failed during set-up (exit code %s)" % proc.poll())
    return float(line[1]) - started


def finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker did not finish within %.0f s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError("worker exited with code %d" % proc.returncode)
    return out


def tail_latency(sorted_values, round_size):
    """(value, percentile) at the highest percentile that has at least
    min(TAIL_BEYOND, round_size // TAIL_SHARE) samples beyond it in one round
    of the stream (at least one).  A run holds whole rounds, so the
    percentile does not move with the run's length."""
    beyond = max(1, min(TAIL_BEYOND, round_size // TAIL_SHARE))
    kept = round_size - beyond
    rank = -(-kept * len(sorted_values) // round_size)  # nearest rank, exact
    return sorted_values[rank - 1], 100.0 * kept / round_size


def end_to_end(result: dict, setup_samples) -> tuple:
    records = result["records"]
    ok = [r for r in records if r[4] is None]
    # with no successful request the failed ones stand in, so values stay finite
    latencies = sorted(r[3] for r in (ok or records))
    tail, percentile = tail_latency(latencies, result["round_sizes"][0])
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "requests_per_s": len(ok) / result["timed_s"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "success_rate": len(ok) / len(records),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {
        "latency_samples": len(latencies),
        "latency_tail_percentile": round(percentile, 2),
        "error_rate": 1.0 - len(ok) / len(records),
        "failures": sorted({(r[1], r[4], r[5]) for r in records if r[4] is not None}),
        "setup_samples_s": setup_samples,
        "rounds": len(result["round_sizes"]),
        "timed_s": result["timed_s"],
        "repeat_share": result["repeat_share"],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twobridge" / "__init__.py").is_file():
        print("perfbench: no twobridge package under %s/src" % ROOT, file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    worker = None
    samples = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            worker = start_worker(args, setup_only=True)
            samples.append(read_ready(*worker))
            finish(worker[0], deadline)
        worker = start_worker(args, setup_only=False)
        samples.append(read_ready(*worker))
        result = json.loads(finish(worker[0], deadline).strip().splitlines()[-1])
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if worker is not None:
            if worker[0].poll() is None:
                worker[0].kill()
            worker[0].wait()

    metrics, detail = end_to_end(result, samples)
    detail["meta"] = result["meta"]
    detail["kernel_parity"] = result["kernel_parity"]
    correct = detail["error_rate"] == 0.0 and not result["kernel_parity"].startswith("mismatch")
    if args.trace:
        metrics = result["per_layer"]
        detail["defect_probes"] = result["defect_probes"]
        detail["spans_file"] = result["spans_file"]
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    meta = result["meta"]
    print("perfbench %s seed %d trace %d: %d requests in %d rounds, %.2f s timed; "
          "backend %s, python %s, mpmath %s, nproc %d, commit %s, source %s"
          % (args.workload, args.seed, args.trace, len(result["records"]),
             len(result["round_sizes"]),
             result["timed_s"], meta["backend"], meta["python"], meta["mpmath"],
             meta["nproc"], meta["commit"], meta["source_sha256"]))
    for m in wanted:
        print("  %-44s %16.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["records"]),
        "failed": sum(r[4] is not None for r in result["records"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
