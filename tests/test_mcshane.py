"""h-function, edge sums, the interval series and the identity reports."""

import cmath
import math
import random
import re

import pytest

from twobridge import kernels
from twobridge.errors import DomainError, InternalError, NotGeometricEvaluationError
from twobridge.markoff import MarkoffEvaluation, polynomial_roots, trace_polynomial
from twobridge.mcshane import (
    boundary_edge_sets,
    census_scan,
    cusp_shape,
    finite_edge_sums,
    h,
    interval_series,
    psi,
)
from twobridge.slopes import Slope, farey_chain, is_hyperbolic

S25 = Slope(2, 5)


class TestH:
    def test_value_at_three(self):
        # (1 - sqrt(5)/3) / 2
        assert abs(h(3) - (1 - math.sqrt(5) / 3) / 2) < 1e-15

    def test_decay(self):
        # h(x) x^2 -> 1; the cancellation in 1 - sqrt(1 - 4/x^2) costs
        # relative accuracy ~ x^2 eps, hence the additive term
        for x in (1e3, 1e5, 1e7):
            assert abs(h(x) * x * x - 1) < 5 / x ** 2 + 1e-16 * x ** 2

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
            c = len(edges.chain)
            assert len(edges.e1) + len(edges.e2) == c - 2
            assert len(edges.all_edges) == c

    def test_2_5_by_hand(self):
        edges = boundary_edge_sets(S25)
        assert len(edges.e1) == 1 and len(edges.e2) == 1
        e = edges.e1[0]
        assert (str(e.s1), str(e.s2), str(e.s0)) == ("0/1", "1/3", "1/2")
        assert str(edges.e_minus.s3) == "inf"
        assert edges.e_plus.s3 == S25

    def test_cutoffs_tile_intervals(self):
        for r in (S25, Slope(5, 17), Slope(5, 12), Slope(9, 23)):
            edges = boundary_edge_sets(r)
            for group, interval in ((edges.e1, edges.i1), (edges.e2, edges.i2)):
                cuts = sorted((e.cutoff_interval() for e in group),
                              key=lambda i: i.left.as_fraction())
                assert cuts[0].left == interval.left
                assert cuts[-1].right == interval.right
                for a, b in zip(cuts, cuts[1:]):
                    assert a.right == b.left


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
            ev = MarkoffEvaluation(S25, x)
            den = random.randint(2, 40)
            num = random.randint(1, den - 1)
            if math.gcd(num, den) != 1:
                continue
            chain = farey_chain(Slope(num, den)) if is_hyperbolic(Slope(num, den)) else None
            tri = chain.triangles[random.randrange(len(chain))] if chain else None
            if tri is None:
                continue
            vals = [ev.phi(v) for v in tri.vertices]
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
            ev = MarkoffEvaluation(S25, root)
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

    def test_huge_eps_returns_shallow(self, ev25):
        res = interval_series(S25, ev25, 1, eps=1.0, max_depth=50)
        assert res.tail_bound > 0
        assert res.value == res.value  # finite, no assertion failure

    def test_tail_monotone_in_depth(self, evaluation_for):
        r = Slope(5, 17)
        ev = evaluation_for(r)
        tails = [interval_series(r, ev, 1, eps=1e-8, max_depth=d).tail_bound
                 for d in (30, 60, 120, 200)]
        for a, b in zip(tails, tails[1:]):
            assert b <= a + 1e-15

    def test_census_stabilises(self, evaluation_for):
        for rs in ((2, 5), (5, 17), (3, 8)):
            r = Slope(*rs)
            ev = evaluation_for(r)
            edges = boundary_edge_sets(r)
            assert census_scan(ev, edges, 15) == census_scan(ev, edges, 20)

    @staticmethod
    def _failing_scan(monkeypatch, r, root, **kwargs):
        """(message, nodes explored) of a depth-15 census scan that fails."""
        nodes = []
        explore = kernels.explore

        def counting(out, *args, **kw):
            explore(out, *args, **kw)
            nodes.append(out.nodes)

        edges = boundary_edge_sets(r)
        monkeypatch.setattr(kernels, "explore", counting)
        with pytest.raises(NotGeometricEvaluationError) as info:
            census_scan(MarkoffEvaluation(r, root, chain=edges.chain), edges, 15,
                        **kwargs)
        return str(info.value), sum(nodes)

    @staticmethod
    def _scanned_rejects(ev):
        """Root classes rejected by the census scans, not by a cheaper check."""
        return [c.root for c in ev.selection.candidates if not c.passed
                and c.lambda_orbifold is not None and c.lambda_orbifold.imag > 1e-12]

    def test_scan_stops_once_census_overflows(self, evaluation_for, monkeypatch):
        """4/9's non-geometric class is rejected within a few thousand nodes,
        not after exhausting the 150 000-node budget."""
        r = Slope(4, 9)
        [root] = self._scanned_rejects(evaluation_for(r))
        message, nodes = self._failing_scan(monkeypatch, r, root)
        assert nodes < 20_000
        m = re.match(r"census of small traces keeps growing: (\d+) slopes with "
                     r"\|phi\| <= 2 after (\d+) nodes", message)
        assert m and int(m.group(1)) > 64 and int(m.group(2)) == nodes

    @pytest.mark.parametrize("budget", [10, 100, 1000])
    def test_scan_stops_at_node_budget(self, budget, evaluation_for, monkeypatch):
        """The budget also bounds the comb walks: a scan explores at most one
        node past it."""
        r = Slope(4, 9)
        [root] = self._scanned_rejects(evaluation_for(r))
        message, nodes = self._failing_scan(monkeypatch, r, root, node_budget=budget)
        assert nodes <= budget + 1
        m = re.search(r"did not stabilise: (\d+) nodes spent of a budget of (\d+)",
                      message)
        assert m and (int(m.group(1)), int(m.group(2))) == (nodes, budget)

    def test_parabolic_census_figure_eight(self, ev25):
        res1 = interval_series(S25, ev25, 1)
        res2 = interval_series(S25, ev25, 2)
        paras = {str(s): v for s, v in res1.parabolic + res2.parabolic}
        assert set(paras) == {"1/5", "3/5"}
        for v in paras.values():
            assert abs(abs(v.real) - 2) < 1e-11 and v.imag == 0

    def test_not_geometric_root_raises(self):
        # a real trace makes beta_0 itself elliptic on the nose
        ev = MarkoffEvaluation(S25, 1.5 + 0j)
        with pytest.raises(NotGeometricEvaluationError):
            interval_series(S25, ev, 1)


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

    def test_non_hyperbolic_rejected(self):
        from twobridge.errors import NonHyperbolicError
        with pytest.raises(NonHyperbolicError):
            cusp_shape(Slope(1, 3))
