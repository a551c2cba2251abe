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


def test_explore_walks_parabolic_fans():
    """explore walks 1/5's parabolic fan itself: 1/5 joins the census at -2
    exactly, and the one call sums the whole cut-off interval of 2/5's E1
    edge to its tail bound, with nothing left for the caller."""
    r = Slope(2, 5)
    ev = MarkoffEvaluation(r, complex(0.8660254037844387, -0.5),
                           boundary_edge_sets(r))
    (edge,) = ev.edges.e1
    out = _raw_explore(ev, edge)
    assert (1, 5, -2 + 0j) in out.census
    s1 = out.total + sum(mcshane.h(ev.phi(s)) for s in (edge.s1, edge.s2))
    fin = mcshane.finite_edge_sums(r, ev, check=False)[0]
    assert abs(s1 - fin) <= out.tail <= 1e-8
    assert not out.depth_capped


def test_parabolic_fan_steps_count_against_the_node_budget(monkeypatch):
    """Every fan step is a node: with a budget of five, the cell (0/1, 1/5)
    of 2/5, opposite 1/4, stops in the fan around 1/5 after its own node
    and four steps."""
    ev = MarkoffEvaluation(Slope(2, 5), complex(0.8660254037844387, -0.5),
                           boundary_edge_sets(Slope(2, 5)))
    phi = [ev.phi(Slope(*s)) for s in ((0, 1), (1, 5), (1, 4))]
    assert kernels._near_parabolic(phi[1])
    monkeypatch.setattr(kernels, "NODE_BUDGET", 5)
    out = kernels.CellOutcome()
    kernels.explore(out, 0, 1, phi[0], 1, 5, phi[1], phi[2], 0, 1e-8)
    assert out.depth_capped and out.nodes == 6
    assert out.max_depth_seen == 4  # the fan's fourth vertex, 4/21


def test_elliptic_abort():
    """An elliptic endpoint of the root cell is recorded before any node is
    walked: with a real trace the fan around it would never grow."""
    # real trace: elliptic loops
    ev = MarkoffEvaluation(Slope(2, 5), 1.5 + 0j, boundary_edge_sets(Slope(2, 5)))
    out = _raw_explore(ev, ev.edges.e1[0])
    assert out.elliptic is not None
    assert out.nodes <= 1


def test_every_kernel_call_looks_up_the_module_attribute(monkeypatch):
    """perfbench's tracer wraps ``kernels.active_kernel.explore`` by
    replacing the module attribute.  The census scans (eps = inf) and the
    edge sums of 2/5, parabolic fans included, must all reach the wrapper,
    so the sum-mode nodes it sees are those ``interval_series`` reports."""
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
    census = mcshane.census_scan(ev)

    def no_h(x):
        raise AssertionError("h evaluated in scan mode")

    monkeypatch.setattr(kernels, "h_func", no_h)
    assert mcshane.census_scan(ev) == census


def _scan_prunes(phi_u, phi_v, phi_opp):
    """C(SCAN_MODULUS) on a cell (``kernels`` docstring)."""
    au, av = abs(phi_u), abs(phi_v)
    return (au >= kernels.SCAN_MODULUS and av >= kernels.SCAN_MODULUS
            and abs(phi_opp) <= 0.5 * au * av)


def _scan_pruned_cells(ev, edges, levels):
    """Cells of the scanned intervals, down to ``levels`` binary levels, on
    which the criterion C(SCAN_MODULUS) first holds: (u, phi_u, v, phi_v,
    phi_opp), u and v as (num, den)."""
    found = []
    stack = [((e.s1.num, e.s1.den), ev.phi(e.s1), (e.s2.num, e.s2.den),
              ev.phi(e.s2), ev.phi(e.s0), 0) for e in edges.e1 + edges.e2]
    while stack:
        u, phi_u, v, phi_v, phi_opp, level = stack.pop()
        if _scan_prunes(phi_u, phi_v, phi_opp):
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
        assert _scan_prunes(phi_u, phi_v, phi_opp)
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
            ev = MarkoffEvaluation(r, root, edges)
            found = _scan_pruned_cells(ev, edges, 6)
            cells += rng.sample(found, min(2, len(found)))
    assert len(cells) >= 200
    checked = 0
    for u, phi_u, v, phi_v, phi_opp in cells:
        out = kernels.CellOutcome()
        kernels.explore(out, u[0], u[1], phi_u, v[0], v[1], phi_v, phi_opp,
                        0, math.inf)
        assert out.nodes == 1 and not out.census
        checked += _walk_pruned_subtree(phi_u, phi_v, phi_opp, 10)
    assert checked > 100 * len(cells)
