"""Kernel lookup and raw kernel behaviour."""

import math

import pytest

from twobridge import kernels, mcshane
from twobridge.markoff import MarkoffEvaluation
from twobridge.mcshane import boundary_edge_sets
from twobridge.slopes import Slope


def test_backend_names():
    assert kernels.get_kernel() is kernels
    assert kernels.get_kernel("python") is kernels
    assert kernels.BACKEND == "python"


def test_unknown_backend():
    with pytest.raises(ValueError):
        kernels.get_kernel("fortran")


def _raw_explore(ev, edge, eps=1e-8, max_depth=120):
    out = kernels.CellOutcome()
    u, v = edge.s1, edge.s2
    kernels.explore(out, u.num, u.den, ev.phi(u), v.num, v.den, ev.phi(v),
                    ev.phi(edge.s0), 0, eps, max_depth)
    return out


def test_parabolic_cells_are_deferred():
    ev = MarkoffEvaluation(Slope(2, 5), complex(0.8660254037844387, -0.5))
    edges = boundary_edge_sets(Slope(2, 5))
    out = _raw_explore(ev, edges.e1[0])
    kinds = {item[0] for item in out.deferred}
    assert kernels.DEFER_MEDIANT in kinds  # the 1/5 parabolic fan


def test_elliptic_abort():
    ev = MarkoffEvaluation(Slope(2, 5), 1.5 + 0j)  # real trace: elliptic loops
    edges = boundary_edge_sets(Slope(2, 5))
    out = _raw_explore(ev, edges.e1[0])
    assert out.elliptic is not None


def test_every_kernel_call_looks_up_the_module_attribute(monkeypatch):
    """perfbench's tracer wraps ``kernels.active_kernel.explore`` by
    replacing the module attribute.  The census scans (eps = inf), the edge
    sums and the parabolic fans of 2/5 must all reach the wrapper, so the
    sum-mode nodes it sees are those ``interval_series`` reports."""
    explore, series = kernels.active_kernel.explore, mcshane.interval_series
    seen, series_nodes = [], []

    def counting(out, *args, **kwargs):
        before = out.nodes
        explore(out, *args, **kwargs)
        seen.append((args[8], out.nodes - before))

    def recording(*args, **kwargs):
        res = series(*args, **kwargs)
        series_nodes.append(res.nodes)
        return res

    monkeypatch.setattr(kernels.active_kernel, "explore", counting)
    monkeypatch.setattr(mcshane, "interval_series", recording)
    mcshane.cusp_shape(Slope(2, 5))
    sums = [n for eps, n in seen if eps != math.inf]
    assert 0 < len(sums) < len(seen) and len(series_nodes) == 2
    assert sum(sums) == sum(series_nodes)
