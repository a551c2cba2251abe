"""Tests of the benchmark's own parts.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAKE_REFERENCE = {"strata": {"census": [
    ["2/5", "3/5"], ["2/7", "3/7", "4/7", "5/7"], ["3/8", "5/8", "2/9", "4/9"],
    ["5/9", "7/9", "3/10", "7/10", "2/11", "3/11", "4/11", "5/11", "6/11", "7/11"],
    ["8/11", "9/11", "5/12", "7/12"], ["2/13", "3/13", "11/13"], ["17/24", "7/24"],
]}}


def first_requests(workload, seed, reference, n):
    flat = itertools.chain.from_iterable(workloads.rounds(workload, seed, reference))
    return list(itertools.islice(flat, n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    a = first_requests(workload, 7, FAKE_REFERENCE, 8)
    b = first_requests(workload, 7, FAKE_REFERENCE, 8)
    c = first_requests(workload, 8, FAKE_REFERENCE, 8)
    assert a == b
    assert a != c


def test_census_rounds_are_stratified_samples_without_repeats():
    strata = workloads.census_strata(FAKE_REFERENCE)
    assert strata[-1] == [workloads.CENSUS_MEMORY_PEAK]
    assert workloads.CENSUS_MEMORY_PEAK not in strata[5]
    rounds = list(itertools.islice(workloads.rounds("census", 3, FAKE_REFERENCE), 3))
    for rnd in rounds:
        slopes = [req[1] for req in rnd]
        assert len(slopes) == len(set(slopes)) == sum(workloads.CENSUS_PICKS)
        for stratum, k in zip(strata, workloads.CENSUS_PICKS):
            assert sum(s in stratum for s in slopes) == k
    # every round draws the memory peak; a stratum repeats only once used up
    assert all(("batch", "11/13", workloads.BATCH_EPS) in rnd for rnd in rounds)
    first_two = [req[1] for rnd in rounds[:2] for req in rnd if req[1] in strata[6]]
    assert sorted(first_two) == sorted(strata[6])
    # five items at two a round: a fresh permutation after two rounds, the
    # fifth item of the first one left out, so no round repeats an item
    gen = workloads.stratified_rounds([["a", "b", "c", "d", "e"], ["x", "y"]], (2, 1),
                                      random.Random(1))
    three = list(itertools.islice(gen, 3))
    assert all(sum(i in "abcde" for i in r) == 2 and sum(i in "xy" for i in r) == 1
               and len(set(r)) == 3 for r in three)
    assert len({i for r in three[:2] for i in r}) == 6


def test_zipf_quotas():
    counts = workloads.zipf_quotas(16, 64)
    assert sum(counts) == 64
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 19 and min(counts) >= 1
    block = workloads.hot_block()
    assert len(block) == workloads.HOT_BLOCK
    ops = [op for op, _ in block]
    assert ops.count("longitude") + ops.count("cusp") >= 2 * (ops.count("identity") + ops.count("endinv")) - 2


def test_repeat_share():
    stream = [("identity", "2/5"), ("cusp", "3/7"), ("longitude", "2/5"), ("endinv", "2/5")]
    assert workloads.repeat_share(stream) == 0.5
    assert workloads.repeat_share([]) == 0.0
    block = first_requests("hot_slopes", 1, {}, workloads.HOT_BLOCK)
    distinct = len(workloads.HOT_SLOPES)
    assert workloads.repeat_share(block) == (workloads.HOT_BLOCK - distinct) / workloads.HOT_BLOCK
    two_blocks = first_requests("hot_slopes", 1, {}, 2 * workloads.HOT_BLOCK)
    assert workloads.repeat_share(two_blocks) == 1 - distinct / (2 * workloads.HOT_BLOCK)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_and_reentrant_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    traced = {}

    def inner(n):
        clock.advance(1)
        if n:
            traced["inner"](n - 1)  # re-enters the traced function
        clock.advance(1)

    def helper():  # untraced, like _explore_fan between kernel calls
        traced["inner"](0)
        clock.advance(1)
        traced["inner"](0)

    def outer():
        clock.advance(2)
        traced["inner"](1)
        clock.advance(3)
        helper()
        clock.advance(1)

    traced["inner"] = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    sid = tracer.begin_request(0)
    clock.advance(0.5)
    traced_outer()
    tracer.end_request(sid)

    own = {}
    for name_id, t in zip(tracer.name_of, tracer.self_times()):
        own[tracer.names[name_id]] = own.get(tracer.names[name_id], 0.0) + t
    # inner spans: 2 + 2 (the call that re-enters) + 2 + 2, outer keeps 2+3+1+1
    assert own == {"request": 0.5, "outer": 7.0, "inner": 8.0}
    assert list(tracer.parent) == [tracing.NO_SPAN, 0, 1, 2, 1, 1]
    assert set(tracer.request) == {0}
    assert sum(tracer.self_times()) == pytest.approx(15.5)
    rows = list(tracer.span_records())
    assert [r[3] for r in rows] == ["request", "outer", "inner", "inner", "inner", "inner"]


def test_errors_close_their_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.advance(1)
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert tracer.errors["boom"] == 1
    assert tracer.stack == []
    assert list(tracer.self_times()) == [1.0]


def test_install_wraps_every_reference_and_uninstall_restores():
    import twobridge.cli  # noqa: F401
    from twobridge import kernels, markoff, mcshane, slopes
    from twobridge.slopes import Slope
    original = (mcshane.cusp_shape, slopes.farey_chain, kernels.active_kernel.explore)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert markoff.farey_chain is slopes.farey_chain is not original[1]
        sid = tracer.begin_request(0)
        mcshane.cusp_shape(Slope(2, 5), eps=1e-8)
        tracer.end_request(sid)
    finally:
        tracer.uninstall()
    assert (mcshane.cusp_shape, slopes.farey_chain, kernels.active_kernel.explore) == original
    m = tracer.metrics()
    assert m["mcshane.cusp_shape.calls"] == 1
    assert m["markoff.select_geometric_root.calls"] == 1
    assert m["markoff.select.candidates"] >= m["markoff.select.survivors"] >= 1
    assert m["kernels.explore.scan_nodes"] > 0 and m["kernels.explore.sum_nodes"] > 0
    assert m["mcshane.interval_series.nodes"] == m["kernels.explore.sum_nodes"]
    assert 0.9 < m["trace.layer_share"] <= 1.0
    # 2/5 has parabolic fans: _explore_fan calls the kernel again on the same
    # CellOutcome between untraced steps; node deltas and self times still add up
    own = tracer.self_times()
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(m["trace.request_s"])


def test_kernel_parity_compares_backends_when_a_compiled_kernel_is_importable(monkeypatch):
    import worker
    from twobridge import kernels
    monkeypatch.setattr(kernels, "compiled_kernel", None)
    assert worker.kernel_parity() == "skipped: no compiled kernel"
    # the pure-Python kernel standing in for a compiled one agrees with itself
    monkeypatch.setattr(kernels, "compiled_kernel", kernels.python_kernel)
    assert worker.kernel_parity() == "ok"


def test_tail_latency_leaves_ten_samples_beyond_at_a_fixed_percentile():
    one_round = [float(i) for i in range(60)]
    assert run.tail_latency(one_round, 60) == (49.0, pytest.approx(100 * 50 / 60))
    two_rounds = sorted(one_round + one_round)
    value, percentile = run.tail_latency(two_rounds, 60)
    assert percentile == pytest.approx(100 * 50 / 60)
    assert sum(v > value for v in two_rounds) >= 20
    # a small round leaves a fifth of it beyond: the 4th highest of 15, p80
    assert run.tail_latency(one_round[:15], 15) == (11.0, 80.0)
    assert run.tail_latency(sorted(one_round[:15] * 3), 15) == (11.0, 80.0)
    assert run.tail_latency([1.0, 2.0], 2) == (1.0, 50.0)


def test_checks_reject_wrong_outputs():
    import calls
    good = {"lambda_link": [1.0, 2.0], "identity_residual": 1e-9,
            "finite_identity_residual": 1e-12, "form_disagreement": 1e-9,
            "partial": False, "lk_formula": 2, "lk_diagram": 2, "case": "generic"}
    ref = {"lambda_link": [1.0, 2.0], "lk": 2, "case": "generic"}
    assert calls.check(good, ref) is None
    assert calls.check(dict(good, lambda_link=[1.0, 2.0 + 1e-6]), ref) is not None
    assert calls.check(dict(good, identity_residual=2e-6), ref) is not None
    assert calls.check(dict(good, lk_diagram=3), ref) is not None
    assert calls.check(dict(good, partial=True), ref) is not None
    assert calls.check(dict(good, case="exceptional-1"), ref) is not None
    assert calls.check({"folds_ok": False, "lambda_half": [0, 1], "svg_bytes": 9}, {}) is not None


def test_benchmark_json_names_match_what_runs_report():
    import json
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    worker_extras = {"trace.requests_per_s", "defects.probed", "defects.failing"}
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.Tracer().metrics()) | worker_extras
    result = {"records": [["batch", "2/5", 1e-8, 0.5, None, None]], "timed_s": 0.5,
              "peak_rss_mb": 30.0, "round_sizes": [1], "repeat_share": 0.0}
    metrics, _ = run.end_to_end(result, [0.3, 0.4])
    assert {m["name"] for m in spec["end_to_end"]} == set(metrics)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
