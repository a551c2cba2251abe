"""Zigzag layout, folds, longitude path and SVG output."""

import math
import xml.dom.minidom

import pytest

from slope_oracles import evaluate_cf
from twobridge.cusp_layout import (
    LayoutNotGeometricError,
    check_simply_folded,
    layout_cusp,
    render_svg,
)
from twobridge.errors import DomainError
from twobridge.markoff import MarkoffEvaluation
from twobridge.mcshane import DirectedFareyEdge, boundary_edge_sets, finite_edge_sums, psi
from twobridge.slopes import Slope, continued_fraction, is_hyperbolic

S25 = Slope(2, 5)
HALF = Slope(1, 2)
HYPERBOLIC_30 = [Slope(q, p) for p in range(3, 31) for q in range(1, p)
                 if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]
CASES = [(2, 5), (3, 7), (3, 8), (5, 17), (7, 17), (5, 12), (4, 13)]


@pytest.fixture(scope="module")
def layouts(evaluation_for):
    return {rs: layout_cusp(Slope(*rs), evaluation_for(Slope(*rs)))
            for rs in CASES}


class TestLayout:
    def test_differences_are_psi(self, layouts, evaluation_for):
        """Every consecutive vertex difference equals the complex
        probability of its dual directed edge."""
        for rs, layout in layouts.items():
            ev = evaluation_for(Slope(*rs))
            for line in layout.lines:
                for j in range(3):
                    s1, s2 = line.slope_at(j), line.slope_at(j + 1)
                    s0 = line.slope_at(j + 2)
                    edge = DirectedFareyEdge(
                        s1=s1, s2=s2, s0=s0,
                        head_index=line.triangle_index - 1,
                    )
                    diff = line.point(j + 1) - line.point(j)
                    assert abs(diff - psi(edge, ev)) <= 1e-9

    def test_period_translation(self, layouts):
        for layout in layouts.values():
            for line in layout.lines:
                assert abs(line.point(3) - line.point(0) - 1) < 1e-12
                assert abs(line.point(7) - line.point(1) - 2) < 1e-12

    def test_adjacent_lines_share_two_points(self, layouts):
        for layout in layouts.values():
            for a, b in zip(layout.lines, layout.lines[1:]):
                shared = 0
                for ja in range(3):
                    pa = a.point(ja)
                    for jb in range(3):
                        diff = pa - b.point(jb)
                        if abs(diff - round(diff.real)) < 1e-9 and \
                                a.slope_at(ja) == b.slope_at(jb):
                            shared += 1
                assert shared == 2

    def test_longitude_displacement(self, layouts, evaluation_for):
        for rs, layout in layouts.items():
            r = Slope(*rs)
            s1, _ = finite_edge_sums(r, evaluation_for(r))
            assert abs(layout.lambda_half - s1) <= 1e-9
            edges = boundary_edge_sets(r)
            assert len(layout.longitude_path) == len(edges.e1) + 1

    def test_longitude_on_layout(self, layouts):
        """Path vertices coincide with laid-out vertex instances mod the
        meridian translation."""
        for layout in layouts.values():
            by_index = {line.triangle_index: line for line in layout.lines}
            for s, p in zip(layout.longitude_slopes, layout.longitude_path):
                hit = False
                for line in layout.lines:
                    for j in range(3):
                        if line.slope_at(j) == s:
                            diff = p - line.point(j)
                            if abs(diff - round(diff.real)) < 1e-9:
                                hit = True
                assert hit, (s, p)

    def test_lines_follow_the_descent(self, evaluation_for):
        """Each line's slopes are its chain triangle's vertices, ascending,
        except sigma_2's, which are (1/2, 1, 0) when r > 1/2; for every
        hyperbolic slope with p <= 30."""
        for r in HYPERBOLIC_30:
            ev = evaluation_for(r)
            triangles = ev.edges.triangles
            lines = layout_cusp(r, ev).lines
            assert [line.triangle_index for line in lines] == \
                list(range(2, len(triangles)))
            for line in lines:
                expected = triangles[line.triangle_index - 1]
                if line.triangle_index == 2 and r > HALF:
                    expected = (HALF, Slope(1, 1), Slope(0, 1))
                assert line.slopes == expected, (r, line.triangle_index)


class TestFolds:
    def test_folds_at_the_dropped_vertices(self, evaluation_for):
        """sigma_2 folds at 1/2, the vertex it adds to sigma_1, and
        sigma_{c-1} at e+.s0, the vertex sigma_c drops from it; for every
        hyperbolic slope with p <= 30."""
        for r in HYPERBOLIC_30:
            ev = evaluation_for(r)
            triangles = ev.edges.triangles
            layout = layout_cusp(r, ev)
            assert layout.fold_minus.fold_slope == HALF
            dropped = set(triangles[-2]) - set(triangles[-1])
            assert {layout.fold_plus.fold_slope} == dropped == {ev.edges.e_plus.s0}

    def test_fold_slopes(self, layouts):
        for rs, layout in layouts.items():
            r = Slope(*rs)
            assert layout.fold_minus.fold_slope == Slope(1, 2)
            cf = continued_fraction(r)
            expected = evaluate_cf(cf[:-1] + (cf[-1] - 2,))
            assert layout.fold_plus.fold_slope == expected

    def test_fold_residuals(self, layouts):
        for layout in layouts.values():
            check_simply_folded(layout)  # raises if a fold fails
            assert layout.fold_minus.residual <= 1e-9
            assert layout.fold_plus.residual <= 1e-9

    def test_strip_containment(self, layouts):
        for rs, layout in layouts.items():
            lo = min(layout.l_minus, layout.l_plus) - 1e-9
            hi = max(layout.l_minus, layout.l_plus) + 1e-9
            for line in layout.lines:
                for p in line.points:
                    assert lo <= p.imag <= hi

    def test_non_geometric_root_fails_fold(self):
        bad = MarkoffEvaluation(S25, 1.1 + 0.6j, boundary_edge_sets(S25))
        layout = layout_cusp(S25, bad)
        with pytest.raises(LayoutNotGeometricError):
            check_simply_folded(layout)
        assert max(layout.fold_minus.residual,
                   layout.fold_plus.residual) >= 1e-3

    def test_layout_reuses_the_evaluation_edge_system(self, monkeypatch):
        """A cusp request builds r's edge system once: the root selection
        keeps it on the evaluation and the layout takes it from there."""
        from twobridge import cusp_layout, mcshane
        from twobridge.markoff import geometric_evaluation

        r = Slope(3, 7)
        ev = geometric_evaluation(r)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("edge system built again")

        # under any name cusp_layout might hold it by
        monkeypatch.setattr(mcshane, "boundary_edge_sets", no_rebuild)
        monkeypatch.setattr(cusp_layout, "boundary_edge_sets", no_rebuild,
                            raising=False)
        check_simply_folded(layout_cusp(r, ev))


class TestSvg:
    def test_deterministic(self, layouts):
        layout = layouts[(5, 17)]
        assert render_svg(layout) == render_svg(layout)

    def test_well_formed_and_complete(self, layouts):
        layout = layouts[(5, 17)]
        svg = render_svg(layout)
        xml.dom.minidom.parseString(svg)
        # c - 2 = 5 zigzag polylines plus the longitude
        assert svg.count("<polyline") == 6

    def test_default_viewport(self, layouts):
        svg = render_svg(layouts[(2, 5)])
        assert 'width="800" height="600"' in svg

    @pytest.mark.parametrize("periods", [0, -1, 0.5])
    def test_periods_below_one_rejected(self, layouts, periods):
        """Fewer than one period would draw empty zigzag polylines."""
        with pytest.raises(DomainError, match="periods"):
            render_svg(layouts[(2, 5)], periods=periods)

    def test_periods_up_to_the_plot_width(self, layouts):
        """At most 720 periods, one per pixel of the 800 - 2 * 40 pixel
        plot width; beyond that each period is under a pixel wide."""
        svg = render_svg(layouts[(2, 5)], periods=720)
        assert svg.count("<circle") == 2 * 721 + 2
        with pytest.raises(DomainError, match="at most 720"):
            render_svg(layouts[(2, 5)], periods=721)
