"""Kernel lookup and raw kernel behaviour."""

import cmath
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


def _prunes(phi_u, phi_v, phi_opp, modulus=kernels.SCAN_MODULUS):
    """C(modulus) on a cell (``kernels`` docstring)."""
    au, av = abs(phi_u), abs(phi_v)
    return au >= modulus and av >= modulus and abs(phi_opp) <= 0.5 * au * av


def _pruned_cells(ev, edges, levels, modulus=kernels.SCAN_MODULUS):
    """Cells of the intervals, down to ``levels`` binary levels, on which
    the criterion C(modulus) first holds: (u, phi_u, v, phi_v, phi_opp),
    u and v as (num, den)."""
    found = []
    stack = [((e.s1.num, e.s1.den), ev.phi(e.s1), (e.s2.num, e.s2.den),
              ev.phi(e.s2), ev.phi(e.s0), 0) for e in edges.e1 + edges.e2]
    while stack:
        u, phi_u, v, phi_v, phi_opp, level = stack.pop()
        if _prunes(phi_u, phi_v, phi_opp, modulus):
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
        assert _prunes(phi_u, phi_v, phi_opp)
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
            found = _pruned_cells(ev, edges, 6)
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


def _walk(cell, share):
    u, phi_u, v, phi_v, phi_opp = cell
    out = kernels.CellOutcome()
    kernels.explore(out, u[0], u[1], phi_u, v[0], v[1], phi_v, phi_opp, 0,
                    share)
    return out


def test_sum_mode_stops_are_sound(monkeypatch, evaluation_for):
    """Every sum-mode stop leaves out at most the tail it charges.  On
    sampled census slopes, binary cells meeting C(8) are stopped by each
    of rule 1's charges in turn (the whole cell, then the part below its
    mediant), and every loxodromic fan that stopped by rule 2 in the two
    series is walked on from its last step; each is re-walked at 1e-6 of
    its own share."""
    stops = []
    lox_tail = kernels._lox_tail

    def recording(*args):
        rest = lox_tail(*args)
        if rest is not None:
            stops.append((args, rest))
        return rest

    monkeypatch.setattr(kernels, "_lox_tail", recording)
    rng = random.Random(25)
    slopes = [Slope(q, p) for p in range(5, 25) for q in range(1, p)
              if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]
    cells = []
    for r in rng.sample(slopes, 6):
        ev = evaluation_for(r)
        for j in (1, 2):
            mcshane.interval_series(r, ev, j, eps=1e-8)
        found = _pruned_cells(ev, ev.edges, 6, kernels.PRUNE_MODULUS)
        cells += rng.sample(found, min(10, len(found)))
    assert len(cells) >= 50 and len(stops) >= 50

    for cell in cells:
        phi_u, phi_v, phi_opp = cell[1], cell[3], cell[4]
        am2 = abs(phi_u * phi_v - phi_opp) ** 2
        whole = kernels.CELL_TAIL / am2
        below = kernels.BELOW_TAIL * (abs(phi_u) ** -2 + abs(phi_v) ** -2) / am2
        for charge in (whole, below):
            # the kernel rounds the charge differently, and holds back
            # 8 NODE_BUDGET 2^-53 (4.4e-9) of a walk's share for rounding
            share = charge * (1.0 + 1e-8)
            out, ref = _walk(cell, share), _walk(cell, 1e-6 * share)
            assert out.nodes == 1 and out.tail <= share
            assert abs(out.total - ref.total) <= out.tail + ref.tail

    for (t, mu, gamma_n, gamma_prev, half_share), (value, bound) in rng.sample(
            stops, 50):
        ref = _walk(((0, 1), t, (1, 1), gamma_n, gamma_prev), 1e-6 * half_share)
        assert ref.nodes > 1 and not ref.census
        assert abs(value - ref.total) <= bound + ref.tail


def _absolute_sums(phi_u, phi_v, phi_opp, levels):
    """(sum of |2h| over the mediant m of the cell and its subtree, the same
    below m), the subtree cut ``levels`` levels below m."""
    stack = [(phi_u, phi_v, phi_opp, 0)]
    total = top = 0.0
    while stack:
        phi_u, phi_v, phi_opp, level = stack.pop()
        phi_m = phi_u * phi_v - phi_opp
        term = abs(2.0 * kernels.h_func(phi_m))
        total += term
        if level == 0:
            top = term
        if level < levels:
            stack.append((phi_u, phi_m, phi_v, level + 1))
            stack.append((phi_m, phi_v, phi_u, level + 1))
    return total, total - top


def test_rule_one_holds_on_extreme_cells():
    """Rule 1's two charges bound the absolute sums of 2h over a cell and
    below its mediant on C(8) cells with |phi_opp| = |phi_u||phi_v|/2,
    aligned so that |m| = |phi_u||phi_v|/2 is as small as C(8) allows: the
    real cell (8, 8; 32), whose every mediant is the smallest its parents
    allow, and random ones with |phi| in [8, 24], each to depth 8."""
    rng = random.Random(8)
    cells = [(8.0 + 0j, 8.0 + 0j)]
    for _ in range(150):
        cells.append(tuple(rng.uniform(8.0, 24.0)
                           * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                           for _ in range(2)))
    for phi_u, phi_v in cells:
        phi_opp = 0.5 * phi_u * phi_v
        am2 = abs(phi_u * phi_v - phi_opp) ** 2
        whole, below = _absolute_sums(phi_u, phi_v, phi_opp, 8)
        assert whole <= kernels.CELL_TAIL / am2
        assert below <= kernels.BELOW_TAIL * (abs(phi_u) ** -2
                                              + abs(phi_v) ** -2) / am2
    whole, below = _absolute_sums(8.0, 8.0, 32.0, 8)
    assert whole * 32.0 ** 2 > 2.06
    assert below * 32.0 ** 2 / (2.0 / 8.0 ** 2) > 2.15


def test_walk_never_charges_past_its_share(evaluation_for):
    """A cell hands the share it leaves unspent to the next cell popped,
    and a fan gives back what its off-comb cells and its stop rule leave,
    so a walk may spend nearly all of its share, but never more, rounding
    included.  Cells of every kind (binary cells, fans around parabolic
    and loxodromic pivots) down to three levels below the edges of eight
    census slopes are walked at shares with random mantissas from 1e-12 to
    1e-3, and every tail is at most its share."""
    rng = random.Random(28)
    slopes = [Slope(q, p) for p in range(5, 25) for q in range(1, p)
              if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]
    cells = []
    for r in rng.sample(slopes, 8):
        ev = evaluation_for(r)
        stack = [((e.s1.num, e.s1.den), ev.phi(e.s1), (e.s2.num, e.s2.den),
                  ev.phi(e.s2), ev.phi(e.s0), 0) for e in ev.edges.e1 + ev.edges.e2]
        while stack:
            u, phi_u, v, phi_v, phi_opp, level = stack.pop()
            cells.append((u, phi_u, v, phi_v, phi_opp))
            if level < 3:
                m, phi_m = (u[0] + v[0], u[1] + v[1]), phi_u * phi_v - phi_opp
                stack.append((u, phi_u, m, phi_m, phi_v, level + 1))
                stack.append((m, phi_m, v, phi_v, phi_u, level + 1))
    for cell in rng.sample(cells, 300):
        share = 10.0 ** rng.uniform(-12, -3)
        out = _walk(cell, share)
        assert out.tail <= share and not out.depth_capped, (cell, share)
