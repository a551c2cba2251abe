"""Kernel lookup and raw kernel behaviour."""

import math
import random

import pytest

from twobridge import kernels, mcshane
from twobridge.markoff import MarkoffEvaluation, polynomial_roots, trace_polynomial
from twobridge.mcshane import boundary_edge_sets
from twobridge.slopes import Slope, is_hyperbolic


def test_backend_names():
    assert kernels.get_kernel() is kernels
    assert kernels.get_kernel("python") is kernels
    assert kernels.BACKEND == "python"


def test_unknown_backend():
    with pytest.raises(ValueError):
        kernels.get_kernel("fortran")


def _raw_explore(ev, edge, eps=1e-8):
    out = kernels.CellOutcome()
    u, v = edge.s1, edge.s2
    kernels.explore(out, u.num, u.den, ev.phi(u), v.num, v.den, ev.phi(v),
                    ev.phi(edge.s0), 0, eps)
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


def test_scan_mode_evaluates_no_h(monkeypatch, evaluation_for):
    """The census scan (eps_share = inf) reads no sums, so it evaluates no
    h, and its census is unchanged."""
    r = Slope(5, 17)
    ev = evaluation_for(r)
    edges = boundary_edge_sets(r)
    census = mcshane.census_scan(ev, edges)

    def no_h(x):
        raise AssertionError("h evaluated in scan mode")

    monkeypatch.setattr(kernels, "h_func", no_h)
    assert mcshane.census_scan(ev, edges) == census


def _scan_pruned_cells(ev, edges, levels):
    """Cells of the scanned intervals, down to ``levels`` binary levels, on
    which the criterion C(SCAN_MODULUS) first holds: (u, phi_u, v, phi_v,
    phi_opp), u and v as (num, den)."""
    found = []
    stack = [((e.s1.num, e.s1.den), ev.phi(e.s1), (e.s2.num, e.s2.den),
              ev.phi(e.s2), ev.phi(e.s0), 0) for e in edges.e1 + edges.e2]
    while stack:
        u, phi_u, v, phi_v, phi_opp, level = stack.pop()
        if kernels._scan_prunes(phi_u, phi_v, phi_opp):
            found.append((u, phi_u, v, phi_v, phi_opp))
        elif level < levels:
            m, phi_m = (u[0] + v[0], u[1] + v[1]), phi_u * phi_v - phi_opp
            stack.append((u, phi_u, m, phi_m, phi_v, level + 1))
            stack.append((m, phi_m, v, phi_v, phi_u, level + 1))
    return found


def _walk_pruned_subtree(phi_u, phi_v, phi_opp, levels):
    """Every cell of the subtree keeps C(SCAN_MODULUS) and every mediant has
    |phi| > 2 + CENSUS_TOL, down to ``levels`` levels; a cell whose mediant
    passes 1e100 is not descended, as its children's products would
    overflow.  Returns the mediants checked."""
    stack = [(phi_u, phi_v, phi_opp, 1)]
    checked = 0
    while stack:
        phi_u, phi_v, phi_opp, level = stack.pop()
        assert kernels._scan_prunes(phi_u, phi_v, phi_opp)
        phi_m = phi_u * phi_v - phi_opp
        assert abs(phi_m) > 2.0 + kernels.CENSUS_TOL
        checked += 1
        if level < levels and abs(phi_m) < 1e100:
            stack.append((phi_u, phi_m, phi_v, level + 1))
            stack.append((phi_m, phi_v, phi_u, level + 1))
    return checked


def test_scan_pruning_is_sound():
    """C(T), T = SCAN_MODULUS, is inherited by both children and keeps every
    trace of the subtree above 2 (module docstring).  Cells on which the
    scan-mode kernel stops at its first node are sampled from every root
    class of twelve slopes with p <= 30, and each subtree is walked to
    depth 10."""
    rng = random.Random(11)
    slopes = [Slope(q, p) for p in range(5, 31) for q in range(1, p)
              if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]
    cells = []
    for r in rng.sample(slopes, 12):
        edges = boundary_edge_sets(r)
        for root in {z for z in polynomial_roots(trace_polynomial(r)) if z}:
            ev = MarkoffEvaluation(r, root, chain=edges.chain)
            found = _scan_pruned_cells(ev, edges, 6)
            cells += rng.sample(found, min(2, len(found)))
    assert len(cells) >= 200
    checked = 0
    for u, phi_u, v, phi_v, phi_opp in cells:
        out = kernels.CellOutcome()
        kernels.explore(out, u[0], u[1], phi_u, v[0], v[1], phi_v, phi_opp,
                        0, math.inf)
        assert out.nodes == 1 and not out.census and not out.deferred
        checked += _walk_pruned_subtree(phi_u, phi_v, phi_opp, 10)
    assert checked > 100 * len(cells)
