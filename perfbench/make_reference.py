#!/usr/bin/env python3
"""Regenerate ``reference.json``: reference outputs, work counts and strata.

For every slope a workload can draw this records the outputs the benchmark
checks (lambda_link, linking number, end-invariant case, cusp lambda_half,
...), computed by the program as it stands, together with the work one cold
``batch`` row does: the Stern-Brocot nodes ``kernels.explore`` visits, which
tracks its time to within about 15 % and, unlike a timing, repeats exactly.
The work counts define the strata that ``workloads`` draws from;
regenerating the file therefore redefines the benchmark.  Run from the
repository root (two worker processes, about five minutes):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

# Census work comes in levels: a batch row explores about LEVEL_NODES nodes
# per root candidate whose two census scans run to their node budget.
LEVEL_NODES = 300_000
CENSUS_TOP_LEVEL = 5     # levels 5 to 8 form one stratum (9/17 joins level 5) ...
CENSUS_HEAVY_LEVEL = 9   # ... and 9 up another: 17/24 and 7/24, about 10 s each


def _batch(slope):
    """(slope, batch row or None, failure or None, explore nodes)."""
    import calls
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        row = calls.batch_row(slope, workloads.BATCH_EPS)
        failure = calls.check(row, {})
    except Exception as exc:  # a defect, recorded as such
        row, failure = None, "%s: %s" % (type(exc).__name__, exc)
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    return slope, row, failure, counts["kernels.explore.scan_nodes"] + counts["kernels.explore.sum_nodes"]


def _hot(_):
    """Reference fields of the hot subcommands."""
    import calls
    out = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for slope in workloads.HOT_SLOPES:
            ref = out.setdefault(slope, {})
            for op in workloads.HOT_OPS:
                res = calls.subcommand(op, slope, tmp)
                reason = calls.check(res, {})
                if reason:
                    raise RuntimeError("hot %s %s fails: %s" % (op, slope, reason))
                if op == "identity":
                    ref["lambda_link"] = res["lambda_link"]
                elif op == "cusp":
                    ref["lambda_half"] = res["lambda_half"]
                elif op == "longitude":
                    ref["lk"], ref["class_b"] = res["lk_formula"], res["class_b"]
                else:
                    ref["case"], ref["gaps"] = res["case"], res["gaps"]
    return out


def census_level(nodes: int) -> int:
    level = round(nodes / LEVEL_NODES)
    return CENSUS_HEAVY_LEVEL if level >= CENSUS_HEAVY_LEVEL else min(level, CENSUS_TOP_LEVEL)


def level_strata(census, work) -> list:
    """One stratum per census_level, cheapest first."""
    levels = {}
    for s in sorted(census, key=work.get):
        levels.setdefault(census_level(work[s]), []).append(s)
    return [group for _, group in sorted(levels.items())]


def main():
    census = workloads.slopes_between(*workloads.CENSUS_P)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        extra = pool.map_async(_hot, [None])
        rows = pool.map(_batch, census, chunksize=1)
        extra = extra.get()[0]

    slopes, work = {}, {}
    for slope, row, reason, nodes in rows:
        if reason is not None:
            raise RuntimeError("census slope %s fails: %s" % (slope, reason))
        work[slope] = nodes
        slopes[slope] = {"lambda_link": row["lambda_link"], "lk": row["lk_formula"],
                         "case": row["case"], "nodes": nodes}
    for slope, fields in extra.items():
        ref = slopes.setdefault(slope, {})
        if "lambda_link" in ref and "lambda_link" in fields:
            gap = abs(complex(*ref["lambda_link"]) - complex(*fields["lambda_link"]))
            if gap > 1e-8:
                raise RuntimeError("lambda_link of %s disagrees across requests" % slope)
        ref.update({k: v for k, v in fields.items() if k not in ref})

    doc = {
        "about": "Reference outputs of twobridge for every slope a workload can draw, "
                 "generated by make_reference.py; nodes counts the kernels.explore "
                 "nodes of one batch row.",
        "slopes": {s: slopes[s] for s in sorted(slopes, key=lambda t: (int(t.split("/")[1]),
                                                                       int(t.split("/")[0])))},
        "strata": {"census": level_strata(census, work)},
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote %s: %d slopes, census strata %s"
          % (workloads.REFERENCE_PATH.name, len(doc["slopes"]),
             [len(s) for s in doc["strata"]["census"]]))

if __name__ == "__main__":
    main()
