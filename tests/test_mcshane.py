"""h-function, edge sums, the interval series and the identity reports."""

import cmath
import math
import random
import re

import pytest

from slope_oracles import opposite_vertex
from twobridge import kernels, mcshane
from twobridge.endinvariants import bowditch_L
from twobridge.errors import DomainError, InternalError, NotGeometricEvaluationError
from twobridge.markoff import (
    MarkoffEvaluation,
    geometric_evaluation,
    polynomial_roots,
    trace_polynomial,
)
from twobridge.mcshane import (
    boundary_edge_sets,
    census_scan,
    cusp_shape,
    finite_edge_sums,
    h,
    interval_series,
    psi,
)
from twobridge.slopes import (
    INFINITY,
    Slope,
    farey_chain,
    fundamental_intervals,
    is_hyperbolic,
    off_chain_census,
)

S25 = Slope(2, 5)
HYPERBOLIC_40 = [Slope(q, p) for p in range(3, 41) for q in range(1, p)
                 if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]


class TestH:
    def test_value_at_three(self):
        # (1 - sqrt(5)/3) / 2
        assert abs(h(3) - (1 - math.sqrt(5) / 3) / 2) < 1e-15

    def test_decay(self):
        # h(x) x^2 = 1 + 1/x^2 + O(1/x^4), to full relative accuracy: the
        # evaluation avoids the cancellation in 1 - sqrt(1 - 4/x^2)
        for x in (1e3, 1e5, 1e7, 1e100):
            assert abs(h(x) * x * x - 1) < 5 / x ** 2 + 1e-15
        # where x^2 overflows, h underflows to 0 rather than turning nan
        assert h(1e200) == 0 and h(complex(1e200, 1e199)) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            h(0.5)
        with pytest.raises(DomainError):
            h(-1.999)
        assert h(2.0) == 0.5
        assert h(-2.0) == 0.5

    def test_branch(self):
        random.seed(31)
        for _ in range(10_000):
            x = complex(random.uniform(-40, 40), random.uniform(-40, 40))
            if abs(x) < 2.5:
                continue
            s = cmath.sqrt(1 - 4 / (x * x))
            val = h(x)
            assert (1 - 2 * val).real >= 0  # Re sqrt >= 0 branch
            assert abs(val - kernels.h_func(x)) == 0


class TestEdgeSets:
    def test_counts(self):
        for r in (S25, Slope(5, 17), Slope(3, 8), Slope(7, 17)):
            edges = boundary_edge_sets(r)
            c = len(edges.triangles)
            assert len(edges.e1) + len(edges.e2) == c - 2
            assert len(edges.e1 + edges.e2 + (edges.e_minus, edges.e_plus)) == c

    def test_2_5_by_hand(self):
        edges = boundary_edge_sets(S25)
        assert len(edges.e1) == 1 and len(edges.e2) == 1
        e = edges.e1[0]
        assert (str(e.s1), str(e.s2), str(e.s0)) == ("0/1", "1/3", "1/2")
        e_minus, e_plus = edges.e_minus, edges.e_plus
        assert opposite_vertex(e_minus.s1, e_minus.s2, e_minus.s0) == INFINITY
        assert opposite_vertex(e_plus.s1, e_plus.s2, e_plus.s0) == S25

    def test_cutoffs_tile_intervals(self):
        """In the order the edge system lists them, the cut-off intervals
        [s1, s2] of E1 tile I1 and those of E2 tile I2, for every
        hyperbolic slope with p <= 40."""
        for r in HYPERBOLIC_40:
            edges = boundary_edge_sets(r)
            i1, i2 = fundamental_intervals(r)
            for group, interval in ((edges.e1, i1), (edges.e2, i2)):
                assert group[0].s1 == interval.left, r
                assert group[-1].s2 == interval.right, r
                for a, b in zip(group, group[1:]):
                    assert a.s2 == b.s1, r

    def test_edges_cross_from_head_to_tail(self):
        """Every edge <s1, s2> is ascending and lies on its head triangle,
        whose third vertex is s0; s3 is the vertex across <s1, s2>.  The
        tails of E1 and E2 lie off the chain, every inner triangle heads
        one of them, and e-, e+ come from sigma_1 (s3 = inf) and sigma_c
        (s3 = r).  For every hyperbolic slope with p <= 40."""
        def s3(e):
            return opposite_vertex(e.s1, e.s2, e.s0)

        for r in HYPERBOLIC_40:
            edges = boundary_edge_sets(r)
            triangles = edges.triangles
            chain_sets = {frozenset(t) for t in triangles}
            for e in edges.e1 + edges.e2 + (edges.e_minus, edges.e_plus):
                assert e.s1 < e.s2, (r, e)
                assert {e.s1, e.s2, e.s0} == set(triangles[e.head_index])
            for e in edges.e1 + edges.e2:
                assert frozenset((e.s1, e.s2, s3(e))) not in chain_sets, (r, e)
            assert sorted(e.head_index for e in edges.e1 + edges.e2) == \
                list(range(1, len(triangles) - 1))
            e_minus, e_plus = edges.e_minus, edges.e_plus
            assert (e_minus.head_index, s3(e_minus)) == (1, INFINITY)
            assert {e_minus.s1, e_minus.s2, s3(e_minus)} == set(triangles[0])
            assert (e_plus.head_index, s3(e_plus)) == (len(triangles) - 2, r)
            assert {e_plus.s1, e_plus.s2, s3(e_plus)} == set(triangles[-1])


class TestPsi:
    def test_exceptional_edges_are_one(self, evaluation_for):
        for r in (S25, Slope(5, 17), Slope(3, 8)):
            ev = evaluation_for(r)
            edges = boundary_edge_sets(r)
            assert abs(psi(edges.e_minus, ev) - 1) < 1e-9
            assert abs(psi(edges.e_plus, ev) - 1) < 1e-9

    def test_triangle_sum_is_algebraic(self):
        """The three inward psi values of a triangle sum to 1 for any
        nonvanishing Markoff triple, not only geometric ones."""
        random.seed(41)
        for _ in range(300):
            x = complex(random.uniform(0.5, 3), random.uniform(0.2, 3))
            ev = MarkoffEvaluation(S25, x, boundary_edge_sets(S25))
            den = random.randint(2, 40)
            num = random.randint(1, den - 1)
            if math.gcd(num, den) != 1:
                continue
            chain = farey_chain(Slope(num, den)) if is_hyperbolic(Slope(num, den)) else None
            tri = chain[random.randrange(len(chain))] if chain else None
            if tri is None:
                continue
            vals = [ev.phi(v) for v in tri]
            if min(abs(v) for v in vals) < 1e-6:
                continue
            x0, y0, z0 = vals
            total = x0 / (y0 * z0) + y0 / (x0 * z0) + z0 / (x0 * y0)
            assert abs(total - 1) < 1e-12 * max(1.0, abs(x0 * y0 * z0))


class TestFiniteSums:
    def test_identity_for_geometric_root(self, evaluation_for):
        for r in (S25, Slope(3, 7), Slope(5, 17), Slope(5, 12)):
            ev = evaluation_for(r)
            s1, s2 = finite_edge_sums(r, ev)
            assert abs(s1 + s2 + 1) < 1e-9

    def test_identity_for_any_root(self):
        """The -1 identity is algebraic: every nonzero root of the trace
        polynomial satisfies it, so it cannot discriminate roots."""
        poly = trace_polynomial(S25)
        for root in polynomial_roots(poly):
            if abs(root) < 1e-9:
                continue
            ev = MarkoffEvaluation(S25, root, boundary_edge_sets(S25))
            s1, s2 = finite_edge_sums(S25, ev, check=False)
            assert abs(s1 + s2 + 1) < 1e-9

    def test_figure_eight_value(self, ev25):
        s1, _ = finite_edge_sums(S25, ev25)
        lam_o = 2 * s1
        assert abs(lam_o - complex(-1, math.sqrt(3))) < 1e-12


class TestIntervalSeries:
    def test_agrees_with_finite_sums(self, evaluation_for):
        for rs in ((2, 5), (3, 7), (5, 17), (5, 12)):
            r = Slope(*rs)
            ev = evaluation_for(r)
            edges_sums = finite_edge_sums(r, ev)
            for j in (1, 2):
                res = interval_series(r, ev, j)
                assert abs(res.value - edges_sums[j - 1]) <= res.tail_bound + 1e-8

    def test_huge_eps_stays_shallow(self, ev25):
        shallow = interval_series(S25, ev25, 1, eps=1.0)
        deep = interval_series(S25, ev25, 1, eps=1e-8)
        assert 0 < shallow.tail_bound <= 1.0
        assert shallow.nodes < deep.nodes
        assert cmath.isfinite(shallow.value)

    @pytest.mark.parametrize("text", ["5/17", "11/23"])
    def test_tail_within_each_eps(self, text, evaluation_for):
        """The tail bound follows eps down and the value stays within it,
        also on 11/23, whose longest comb walks 320 steps at eps = 1e-8."""
        r = Slope.parse(text)
        ev = evaluation_for(r)
        fin = finite_edge_sums(r, ev)
        for j in (1, 2):
            nodes = 0
            for eps in (1e-4, 1e-6, 1e-8, 1e-10):
                res = interval_series(r, ev, j, eps=eps)
                assert res.tail_bound <= eps and not res.partial, (j, eps)
                assert abs(res.value - fin[j - 1]) <= eps, (j, eps)
                assert res.nodes >= nodes
                nodes = res.nodes

    @pytest.mark.parametrize("text, j", [("2/5", 1), ("3/7", 2), ("11/23", 2)])
    def test_value_within_tail_bound_at_small_eps(self, text, j, evaluation_for):
        """At eps = 1e-12 the series stays within its tail bound (about
        5e-13) of the finite edge sum; evaluating h as (1 - s)/2 put it
        1.6-1.8e-12 away, from cancellation at large traces."""
        r = Slope.parse(text)
        ev = evaluation_for(r)
        res = interval_series(r, ev, j, eps=1e-12)
        assert res.tail_bound <= 1e-12 and not res.partial
        assert abs(res.value - finite_edge_sums(r, ev)[j - 1]) <= res.tail_bound

    def test_sum_nodes_stay_pruned(self, evaluation_for):
        """Rules 1 and 2 of ``kernels`` and the carry of unspent share bound
        the work of the series: the two series of the 50 hyperbolic slopes
        with p <= 16, at the eps 1e-8 of ``cusp_shape``, walk at most
        51 638 nodes (68 530 when a cell's unspent share was lost, 198 630
        with the estimates rules 1 and 2 replaced)."""
        nodes = 0
        for r in HYPERBOLIC_40:
            if r.den <= 16:
                ev = evaluation_for(r)
                nodes += sum(interval_series(r, ev, j, eps=0.5e-8).nodes
                             for j in (1, 2))
        assert nodes <= 51_638

    def test_series_spend_at_most_eps(self, evaluation_for):
        """A series spends its eps, its cells handing on what they leave
        unspent, and never more: on every hyperbolic slope with p <= 24, at
        eps 1e-4, 1e-8 and 1e-12, each series' tail is at most eps and its
        value lies within the tail (and the 1e-8 slack of ``cusp_shape``
        for the finite sums' rounding) of the finite sum."""
        checked = 0
        for r in HYPERBOLIC_40:
            if r.den > 24:
                continue
            ev = evaluation_for(r)
            fin = finite_edge_sums(r, ev)
            for eps in (1e-4, 1e-8, 1e-12):
                for j in (1, 2):
                    res = interval_series(r, ev, j, eps=eps)
                    assert res.tail_bound <= eps and not res.partial, (r, j, eps)
                    assert abs(res.value - fin[j - 1]) <= res.tail_bound + 1e-8
            checked += 1
        assert checked == 134

    def test_scan_nodes_stay_pruned(self, monkeypatch):
        """Rejecting a class at its first small trace outside A(r) bounds
        the census scans of root selection: over the 50 hyperbolic slopes
        with p <= 16 they walk at most 8 336 nodes in all (39 800 when a
        class was rejected only once its census passed 64 slopes)."""
        nodes = 0
        explore = kernels.explore

        def counting(out, *args):
            nonlocal nodes
            before = out.nodes
            try:
                explore(out, *args)
            finally:
                if args[8] == math.inf:
                    nodes += out.nodes - before

        monkeypatch.setattr(kernels, "explore", counting)
        for r in HYPERBOLIC_40:
            if r.den <= 16:
                geometric_evaluation(r)
        assert nodes <= 8_336

    @pytest.mark.parametrize("text", ["2/47", "39/41"])
    def test_near_parabolic_series_meet_eps(self, text, evaluation_for):
        """Combs around loops with trace near +-2 walk about a thousand
        steps; summed to eps 5e-10 they close the identity to 1e-9."""
        r = Slope.parse(text)
        rep = cusp_shape(r, eps=5e-10, ev=evaluation_for(r))
        assert rep.identity_residual <= 1e-9
        assert rep.tail_bound_1 + rep.tail_bound_2 <= rep.eps
        assert not rep.partial

    def test_scan_census_matches_series(self, evaluation_for, report_for):
        """The one census scan finds the same slopes with |phi| <= 2 as the
        series that sums to eps, on every hyperbolic slope with p <= 24 that
        has an accidental parabolic: the scan walks their parabolic fans
        with the series' own fan walker."""
        checked = 0
        for p in range(5, 25):
            for q in range(1, p):
                r = Slope(q, p)
                if math.gcd(q, p) != 1 or not is_hyperbolic(r):
                    continue
                rep = report_for(r)
                if not rep.accidental_parabolics:
                    continue
                census = census_scan(evaluation_for(r))
                assert census == {s for s, _ in rep.slopes_small_trace}, r
                checked += 1
        assert checked == 38

    def test_scan_explores_off_comb_cells_of_fans(self, evaluation_for,
                                                  monkeypatch):
        """The census scan of 2/5 walks its parabolic fans with the kernel's
        own fan walker: the fans push off-comb cells below the edges' root
        cells, opposite the parabolic vertex, and the scan pops every one."""
        fan = kernels._fan
        pushed, stacks = [], []

        def recording(out, stack, *args):
            size = len(stack)
            left = fan(out, stack, *args)
            pushed.extend(stack[size:])
            stacks.append(stack)
            return left

        monkeypatch.setattr(kernels, "_fan", recording)
        census_scan(evaluation_for(S25))
        # a cell is (u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp,
        # depth, eps_share)
        assert pushed and all(cell[8] == math.inf for cell in pushed)
        assert any(cell[7] >= 1 and kernels._near_parabolic(cell[6])
                   for cell in pushed)
        assert not any(stacks)

    @staticmethod
    def _counted_scan(monkeypatch, ev, budget=None):
        """(census, or the NotGeometricEvaluationError raised, and the nodes
        explored) of one census scan, with ``kernels.NODE_BUDGET`` lowered
        to ``budget`` if given."""
        nodes = []
        explore = kernels.explore

        def counting(out, *args, **kw):
            before = out.nodes
            explore(out, *args, **kw)
            nodes.append(out.nodes - before)

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "explore", counting)
            if budget is not None:
                patch.setattr(kernels, "NODE_BUDGET", budget)
            try:
                result = census_scan(ev)
            except NotGeometricEvaluationError as exc:
                result = exc
        return result, sum(nodes)

    def _failing_scan(self, monkeypatch, r, root, budget=None):
        """(message, nodes explored) of a census scan that fails."""
        ev = MarkoffEvaluation(r, root, boundary_edge_sets(r))
        error, nodes = self._counted_scan(monkeypatch, ev, budget)
        assert isinstance(error, NotGeometricEvaluationError)
        return str(error), nodes

    @staticmethod
    def _scanned_rejects(ev):
        """Root classes rejected by the census scans, not by a cheaper check."""
        return [c.root for c in ev.selection.candidates if not c.passed
                and c.lambda_orbifold is not None and c.lambda_orbifold.imag > 1e-12]

    def test_scan_stops_at_first_trace_off_prediction(self, evaluation_for,
                                                       monkeypatch):
        """Every class that a census scan rejects on the hyperbolic slopes
        with p <= 16 is rejected at its first small trace off the chain
        and outside A(r): the error carries that slope, which lies off r's
        Farey chain and outside ``off_chain_census(r)``, and its trace,
        with |phi| <= 2 + CENSUS_TOL, and the reason names both and the
        nodes the scan spent.  Each takes under 100 nodes; 4/9's
        non-geometric class, which a census cap of 64 slopes stopped after
        784, takes 2."""
        scanned = 0
        for r in (s for s in HYPERBOLIC_40 if s.den <= 16):
            edges = evaluation_for(r).edges
            chain = {s for triangle in edges.triangles for s in triangle}
            allowed = off_chain_census(r)
            for root in self._scanned_rejects(evaluation_for(r)):
                ev = MarkoffEvaluation(r, root, edges)
                error, nodes = self._counted_scan(monkeypatch, ev)
                assert isinstance(error, NotGeometricEvaluationError), r
                s, trace = error.slope, error.value
                assert s not in chain and s not in allowed, (r, s)
                assert abs(trace) <= 2 + kernels.CENSUS_TOL, (r, s)
                assert abs(trace - ev.phi(s)) < 1e-9, (r, s)
                m = re.match(r"small trace (\S+) at (\S+), off the Farey chain "
                             r"and outside A\(r\) = \{(.*)\}, after (\d+) "
                             r"nodes", str(error))
                assert m, (r, str(error))
                assert complex(m.group(1)) == complex(format(trace, ".6g"))
                assert m.group(2) == str(s) and int(m.group(4)) == nodes < 100
                assert m.group(3) == ", ".join(map(str, sorted(allowed)))
                assert r != Slope(4, 9) or nodes == 2
                scanned += 1
        assert scanned == 50

    # 3/16's one scan-rejected class walks 67 nodes before its first trace
    # off the prediction, the most of any slope with p <= 16 that has one
    LONG_REJECT = Slope(3, 16)

    @pytest.mark.parametrize("budget", [10, 100, 1000])
    def test_scan_stops_at_node_budget(self, budget, evaluation_for, monkeypatch):
        """The budget also bounds the comb walks: a scan explores at most one
        node past it.  A budget above the nodes the unbudgeted scan of
        3/16's non-geometric class spends is not reached: its first small
        trace outside A(r) stops that scan first, after the same nodes as
        without a budget."""
        r = self.LONG_REJECT
        [root] = self._scanned_rejects(evaluation_for(r))
        _, total = self._failing_scan(monkeypatch, r, root)
        message, nodes = self._failing_scan(monkeypatch, r, root, budget)
        if budget < total:
            assert nodes <= budget + 1
            m = re.search(r"did not stabilise: (\d+) nodes spent of a budget "
                          r"of (\d+)", message)
            assert m and (int(m.group(1)), int(m.group(2))) == (nodes, budget)
        else:
            assert nodes == total
            assert message.startswith("small trace")

    def test_scan_stops_at_sampled_node_budgets(self, evaluation_for, monkeypatch):
        """The budgets sample the range below the nodes the unbudgeted scan
        of 3/16's non-geometric class spends before its first small trace
        outside A(r)."""
        r = self.LONG_REJECT
        [root] = self._scanned_rejects(evaluation_for(r))
        _, total = self._failing_scan(monkeypatch, r, root)
        budgets = range(1, total, max(1, total // 20))
        assert len(budgets) >= 10
        for budget in budgets:
            message, nodes = self._failing_scan(monkeypatch, r, root, budget)
            assert nodes <= budget + 1
            m = re.search(r"did not stabilise: (\d+) nodes spent of a budget "
                          r"of (\d+)", message)
            assert m and (int(m.group(1)), int(m.group(2))) == (nodes, budget)

    def test_scan_budget_bounds_the_fans(self, ev25, monkeypatch):
        """On 2/5's geometric class the budget also cuts the parabolic fans
        and their off-comb cells at most one node past it, for every budget
        up to the nodes the whole scan takes."""
        census, total = self._counted_scan(monkeypatch, ev25)
        assert census == census_scan(ev25) and total > 100
        for budget in range(1, total + 1, 7):
            monkeypatch.setattr(kernels, "NODE_BUDGET", budget)
            with pytest.raises(NotGeometricEvaluationError) as info:
                census_scan(ev25)
            m = re.search(r"(\d+) nodes spent of a budget of", str(info.value))
            assert budget <= int(m.group(1)) <= budget + 1

    @pytest.mark.parametrize("text, root, census", [
        ("2/241", complex(1.9993203604961594, -5.64057847790266e-06),
         {"0/1", "1/1", "1/120", "1/121", "1/241"}),
        ("2/255", complex(1.9993929319702117, -4.761632022400214e-06),
         {"0/1", "1/1", "1/127", "1/128", "1/255"}),
    ], ids=["2/241", "2/255"])
    def test_scan_passes_near_parabolic_geometric_roots(self, text, root, census):
        """The geometric roots of 2/241 and 2/255 (as ``polynomial_roots``
        gives them) lie near the parabolic value 2.  Their scans spend over
        600 000 nodes, nearly all on one fan around a trace near 2, and
        find a census of five, which holds the accidental parabolic
        ``bowditch_L`` lists."""
        r = Slope.parse(text)
        found = census_scan(MarkoffEvaluation(r, root, boundary_edge_sets(r)))
        assert {str(s) for s in found} == census
        assert set(bowditch_L(r, 0).extra_orbits) <= found

    def test_parabolic_census_figure_eight(self, ev25):
        res1 = interval_series(S25, ev25, 1)
        res2 = interval_series(S25, ev25, 2)
        paras = {str(s): v for s, v in res1.census + res2.census
                 if kernels._near_parabolic(v)}
        assert set(paras) == {"1/5", "3/5"}
        for v in paras.values():
            assert abs(abs(v.real) - 2) < 1e-11 and v.imag == 0

    def test_not_geometric_root_raises(self):
        # a real trace makes beta_0 itself elliptic on the nose
        ev = MarkoffEvaluation(S25, 1.5 + 0j, boundary_edge_sets(S25))
        with pytest.raises(NotGeometricEvaluationError):
            interval_series(S25, ev, 1)


def _series_census_off_chain(r, ev, rep):
    """The slopes off r's Farey chain among the small traces the two series
    of the identity report met."""
    chain = {s for triangle in ev.edges.triangles for s in triangle}
    return {s for s, _ in rep.slopes_small_trace} - chain


class TestPredictedCensus:
    """The series, which walk I1 u I2 with no census limit, find off r's
    Farey chain exactly the slopes of ``off_chain_census(r)``, the set the
    census scan rejects a root class outside of."""

    def test_census_is_predicted_up_to_p40(self, evaluation_for, report_for):
        for r in HYPERBOLIC_40:
            found = _series_census_off_chain(r, evaluation_for(r), report_for(r))
            assert found == off_chain_census(r), r

    @pytest.mark.slow
    def test_census_is_predicted_up_to_p64(self):
        checked = 0
        for p in range(41, 65):
            for q in range(1, p):
                r = Slope(q, p)
                if math.gcd(q, p) != 1 or not is_hyperbolic(r):
                    continue
                ev = geometric_evaluation(r)
                found = _series_census_off_chain(r, ev, cusp_shape(r, ev=ev))
                assert found == off_chain_census(r), r
                checked += 1
        assert checked == 1134 - len(HYPERBOLIC_40)


class TestFanTail:
    """The closed-form remainders of parabolic and loxodromic fans."""

    @staticmethod
    def _grid():
        for re_z in (32.0, 33.7, 50.5, 128.0, 1e3 + 0.25, 4.4e4, 1e6):
            for im_z in (-50.0, -7.5, -0.3, 0.0, 1.0, 12.25, 50.0):
                yield complex(re_z, im_z)

    def test_zeta_and_digamma_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30

        def rel(value, ref):
            return float(abs(mp.mpc(value) - ref) / abs(ref))

        for z in self._grid():
            mz = mp.mpc(z.real, z.imag)
            assert rel(kernels._hurwitz_zeta2(z), mp.zeta(2, mz)) <= 1e-14, z
            assert rel(kernels._hurwitz_zeta4(z), mp.zeta(4, mz)) <= 1e-14, z
            # the fans' shifts c/b have |c/b| of 0.5-0.9
            for shift in (0.5, 0.866 + 0.5j, 3j, 40.0):
                if min((z + shift).real, (z - shift).real) < kernels._FAN_MIN_RE:
                    continue
                ms = mp.mpc(shift.real, shift.imag)
                ref = mp.digamma(mz + ms) - mp.digamma(mz - ms)
                assert rel(kernels._digamma_difference(z, shift), ref) <= 1e-14, \
                    (z, shift)

    @pytest.mark.parametrize("a, b, n_stop", [
        (1.5 + 0.866j, 2.0, 64),
        (-0.5 + 2.7j, -2.0j, 64),
        (2.1 - 0.4j, 1.7 + 0.9j, 300),
    ])
    def test_closed_form_matches_nsum(self, a, b, n_stop):
        """Comb and off-comb first mediants beyond n_stop, against the
        direct sum of 2(a + bn)^-2 + 2(a + bn)^-4 + 2/m_n^2."""
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        A, B = mp.mpc(a.real, a.imag), mp.mpc(b.real, b.imag)

        def term(n):
            g = A + B * n
            x = A + B * (n - mp.mpf(1) / 2)
            m = x * x - B * B / 4 - 2
            return 2 / g ** 2 + 2 / g ** 4 + 2 / m ** 2

        ref = mp.nsum(term, [n_stop + 1, mp.inf], method="euler-maclaurin")
        value = kernels._fan_tail_value(a, b, n_stop)
        assert float(abs(mp.mpc(value) - ref)) <= 1e-15 * float(abs(ref))

    @pytest.mark.parametrize("p_coef, q_coef, mu, n_stop", [
        (1.3 - 0.4j, 0.7 + 2.1j, 1.02 * cmath.exp(0.3j), 200),
        (0.9 + 0.2j, -1.5 + 0.5j, 1.004 + 0.003j, 900),
        (2.0 + 1.0j, 0.5 - 0.5j, -1.1 + 0.35j, 40),
        (0.6 - 0.3j, 1.1 + 0.2j, 2.3 - 1.4j, 5),
        (1.0, 40.0 - 30.0j, 1.3 + 0.2j, 30),
    ])
    def test_loxodromic_closed_form_matches_nsum(self, p_coef, q_coef, mu,
                                                 n_stop):
        """Rule 2: the comb 2h(gamma_n) and the first mediants 2h(m_n)
        beyond n_stop, gamma_n = P mu^n + Q mu^-n and
        m_n = gamma_n gamma_{n-1} - t, summed at 30 digits, lie within the
        bound ``_lox_tail`` reports for its closed form, which also covers
        the subtrees below the m_n.  |mu| runs from 1.005 to 2.7, with t
        complex."""
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 30
        P, Q, M = (mp.mpc(z.real, z.imag) for z in (p_coef, q_coef, mu))
        T = M + 1 / M

        def gamma(n):
            return P * M ** n + Q * M ** -n

        def two_h(x):
            return 1 - mp.sqrt(1 - 4 / x ** 2)

        def term(n):
            return two_h(gamma(n)) + two_h(gamma(n) * gamma(n - 1) - T)

        ref = mp.nsum(term, [n_stop + 1, mp.inf])
        value, bound = kernels._lox_tail(complex(T), mu, complex(gamma(n_stop)),
                                         complex(gamma(n_stop - 1)), math.inf)
        assert float(abs(mp.mpc(value) - ref)) <= bound <= 1e-4 * abs(value)

    def test_low_argument_raises(self):
        with pytest.raises(InternalError):
            kernels._fan_tail_value(-30.0, 1.0, 40)

    @pytest.mark.parametrize("text", ["2/5", "3/7", "11/23"])
    def test_fans_stop_early(self, text, evaluation_for, monkeypatch):
        """Every parabolic fan at eps 1e-8 stops within twice _FAN_MIN_STEPS
        steps: its remainder falls like n^-5 (the comb-only zeta tail needed
        up to 1 102 steps).  Each fan step is one node of the kernel."""
        steps = []
        fan = kernels._fan

        def counting(out, stack, p_num, p_den, t, *args):
            before = out.nodes
            left = fan(out, stack, p_num, p_den, t, *args)
            if kernels._near_parabolic(t):
                steps.append(out.nodes - before)
            return left

        monkeypatch.setattr(kernels, "_fan", counting)
        r = Slope.parse(text)
        ev = evaluation_for(r)
        fin = finite_edge_sums(r, ev)
        for j in (1, 2):
            res = interval_series(r, ev, j, eps=1e-8)
            assert abs(res.value - fin[j - 1]) <= res.tail_bound <= 1e-8
        assert steps and max(steps) <= 2 * kernels._FAN_MIN_STEPS, steps


class TestCuspShape:
    def test_report_invariants(self, report_for):
        for rs in ((2, 5), (3, 7), (3, 8), (5, 17), (7, 17)):
            rep = report_for(Slope(*rs))
            assert rep.finite_identity_residual <= 1e-9
            assert rep.identity_residual <= 1e-6
            assert abs(rep.series_s1 - rep.finite_sum_e1) <= rep.tail_bound_1 + 1e-8
            assert abs(rep.series_s2 - rep.finite_sum_e2) <= rep.tail_bound_2 + 1e-8
            assert not rep.partial

    def test_figure_eight_modulus(self, report_for):
        rep = report_for(S25)
        assert abs(rep.lambda_link.imag - 2 * math.sqrt(3)) <= 1e-6
        assert abs(rep.lambda_link.real - (-2)) <= 1e-6
        assert abs(rep.lambda_orbifold - rep.lambda_link * rep.components / 2) < 1e-12

    def test_whitehead_forms_agree(self, report_for):
        rep = report_for(Slope(3, 8))
        assert rep.form_disagreement <= 2 * (rep.tail_bound_1 + rep.tail_bound_2) + 1e-8
        assert rep.components == 2

    def test_defect_slope_45_47_passes(self, report_for):
        """45/47 passes every acceptance rule, and its lambda is the mirror
        of 2/47's.  Both polynomials' roots certify in double precision
        once they are found in y = x^2."""
        rep = report_for(Slope(45, 47))
        assert rep.identity_residual <= 1e-6
        assert rep.finite_identity_residual <= 1e-9
        assert rep.form_disagreement <= 1e-6
        assert not rep.partial
        mirror = report_for(Slope(2, 47))
        assert abs(rep.lambda_link + mirror.lambda_link.conjugate()
                   + 4.0 / mirror.components) <= 1e-8

    def test_running_example(self, report_for):
        rep = report_for(Slope(5, 17))
        assert rep.identity_residual <= 1e-6

    def test_json_roundtrip(self, report_for):
        import json
        doc = report_for(S25).to_json()
        parsed = json.loads(json.dumps(doc))
        assert parsed["r"] == "2/5"
        assert parsed["components"] == 1
        assert len(parsed["lambda_link"]) == 2

    def test_edge_system_built_once(self, monkeypatch):
        from twobridge import mcshane
        calls = []
        build = mcshane.boundary_edge_sets

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(mcshane, "boundary_edge_sets", counting)
        cusp_shape(Slope(3, 7))
        assert len(calls) == 1

    def test_finite_sums_summed_once(self, monkeypatch):
        """cusp_shape reuses the finite edge sums the geometric-root filter
        kept on the selected evaluation: its check evaluates psi on e- and
        e+ only, and still rejects sums that break the -1 identity."""
        r = Slope(5, 17)
        ev = geometric_evaluation(r)
        sums = ev.finite_sums
        calls = []
        real_psi = mcshane.psi

        def counting(e, ev):
            calls.append(e)
            return real_psi(e, ev)

        monkeypatch.setattr(mcshane, "psi", counting)
        rep = cusp_shape(r, ev=ev)
        assert calls == [ev.edges.e_minus, ev.edges.e_plus]
        assert (rep.finite_sum_e1, rep.finite_sum_e2) == sums
        ev.finite_sums = (sums[0], sums[1] + 1e-6)
        with pytest.raises(InternalError, match="edge-sum identity violated"):
            cusp_shape(r, ev=ev)

    def test_non_hyperbolic_rejected(self):
        from twobridge.errors import NonHyperbolicError
        with pytest.raises(NonHyperbolicError):
            cusp_shape(Slope(1, 3))
