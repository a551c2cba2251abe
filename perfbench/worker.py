#!/usr/bin/env python3
"""One benchmark run in a fresh interpreter, started by ``run.py``.

Standard output carries the protocol and nothing else: the line
``ready <time.monotonic()>`` once set-up is done, just before the first
timed request, and at the end one JSON line holding the run's records.
With ``--setup-only`` the worker exits after the ready line.

The worker imports twobridge from ``src/`` of the checkout it lives in and
refuses any other copy.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def import_package():
    package = SRC / "twobridge"
    if not (package / "__init__.py").is_file():
        raise SystemExit("perfbench: no twobridge package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import twobridge
    import twobridge.cli  # noqa: F401  (loads every layer before tracing)
    if Path(twobridge.__file__).resolve().parent != package.resolve():
        raise SystemExit("perfbench: imported twobridge from %s, not %s"
                         % (twobridge.__file__, package))


def metadata(seed: int) -> dict:
    import mpmath
    from twobridge import kernels
    digest = hashlib.sha256()
    for path in sorted((SRC / "twobridge").glob("*.py*")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


class Run:
    """Set-up state and request execution for one workload."""

    def __init__(self, workload: str, reference: dict):
        import calls
        self.calls = calls
        self.reference = reference
        self.out_dir = None
        if workload == "hot_slopes":
            self.out_dir = OUT_DIR / ("hot-%d" % os.getpid())
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def execute(self, request) -> dict:
        kind, slope, eps = request
        if kind == "batch":
            return self.calls.batch_row(slope, eps)
        return self.calls.subcommand(kind, slope, str(self.out_dir))

    def attempt(self, request):
        """(latency, None, None) on success, else (latency, failure class,
        message); the latency leaves out the correctness check."""
        start = time.perf_counter()
        try:
            result = self.execute(request)
        except Exception as exc:  # request boundary: record it and go on
            return time.perf_counter() - start, type(exc).__name__, str(exc)[:200]
        latency = time.perf_counter() - start
        reason = self.calls.check(result, self.reference["slopes"].get(request[1], {}))
        return (latency, None, None) if reason is None else (latency, "CheckFailed", reason)

    def close(self):
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)


def kernel_parity() -> str:
    """Compiled against pure-Python kernel on the evaluations of
    PARITY_SLOPES, after the timed phase of every run: same node count and
    totals within 1e-11."""
    import calls
    import workloads
    from twobridge import kernels, mcshane
    from twobridge.slopes import Slope
    if kernels.compiled_kernel is None:
        return "skipped: no compiled kernel"
    python, compiled = kernels.get_kernel("python"), kernels.get_kernel("compiled")
    for slope in workloads.PARITY_SLOPES:
        r, ev = Slope.parse(slope), calls.evaluation(slope)
        for j in (1, 2):
            a = mcshane.interval_series(r, ev, j, eps=1e-10, max_depth=300, kernel=python)
            b = mcshane.interval_series(r, ev, j, eps=1e-10, max_depth=300, kernel=compiled)
            if a.nodes != b.nodes or abs(a.value - b.value) >= 1e-11:
                return "mismatch on %s S%d: nodes %d/%d, values %r/%r" % (
                    slope, j, a.nodes, b.nodes, a.value, b.value)
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r" % args.workload)
    reference = workloads.load_reference()
    run = Run(args.workload, reference)
    stream = workloads.rounds(args.workload, args.seed, reference)
    print("ready %r" % time.monotonic(), flush=True)
    if args.setup_only:
        run.close()
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    records = []
    round_sizes = []
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    for rnd in stream:
        for request in rnd:
            sid = tracer.begin_request(len(records)) if tracer else None
            latency, failure, message = run.attempt(request)
            if tracer:
                tracer.end_request(sid)
            records.append([request[0], request[1], request[2], latency, failure, message])
        round_sizes.append(len(rnd))
        if time.perf_counter() >= deadline:
            break
    timed_s = time.perf_counter() - t0

    result = {
        "records": records,
        "round_sizes": round_sizes,
        "timed_s": timed_s,
        "repeat_share": workloads.repeat_share(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": metadata(args.seed),
    }
    if tracer:
        tracer.uninstall()
        layer = tracer.metrics()
        # compared with requests_per_s of an untraced run of the same seed,
        # which makes the same requests, this gives the tracing overhead
        layer["trace.requests_per_s"] = sum(r[4] is None for r in records) / timed_s
        probes = workloads.DEFECT_PROBES.get(args.workload, [])
        outcomes = [[req[0], req[1]] + list(run.attempt(req)[1:]) for req in probes]
        layer["defects.probed"] = len(outcomes)
        layer["defects.failing"] = sum(o[2] is not None for o in outcomes)
        result["per_layer"] = layer
        result["defect_probes"] = outcomes
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("spans-%s-%d.jsonl.gz" % (args.workload, args.seed))
        with gzip.open(spans_path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "parent", "request", "name", "start", "end"]) + "\n")
            for row in tracer.span_records():
                fh.write(json.dumps(row) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["kernel_parity"] = kernel_parity()
    run.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
