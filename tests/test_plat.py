"""Plat diagrams, orientations, linking numbers, longitude class."""

import math

from twobridge.plat import (
    build_plat,
    linking_number_diagram,
    linking_number_formula,
    longitude_class,
    longitude_json,
    pairwise_linking,
)
from twobridge.slopes import Slope, is_hyperbolic, num_components

S25 = Slope(2, 5)


def hyperbolic_slopes(pmax):
    for p in range(3, pmax + 1):
        for q in range(1, p):
            if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p)):
                yield Slope(q, p)


class TestBuildPlat:
    def test_components_match_denominator_parity(self):
        for p in range(2, 41):
            for q in range(1, p):
                if math.gcd(q, p) == 1:
                    d = build_plat(Slope(q, p))
                    assert d.components == num_components(Slope(q, p))

    def test_figure_eight_visits_all_strands(self):
        d = build_plat(S25)
        assert d.components == 1
        assert {c for cr in d.crossings for _, c in cr.passes} == {0}

    def test_hopf(self):
        d = build_plat(Slope(1, 2))
        assert d.components == 2
        assert len(d.crossings) == 2

    def test_knot_delta_orientation_invariant(self):
        for r in (S25, Slope(3, 7), Slope(4, 9), Slope(5, 17)):
            assert build_plat(r, "default").delta == build_plat(r, "reversed").delta

    def test_figure_eight_delta(self):
        assert build_plat(S25).delta == (1, 1)

    def test_whitehead_delta(self):
        assert build_plat(Slope(3, 8)).delta == (1, 1, 0)


class TestLinkingNumbers:
    def test_all_parallel_blocks_give_zero_for_odd_n(self):
        # delta = 0 everywhere wipes out the sum when n is odd
        for r in (Slope(1, 3), Slope(1, 5)):
            d = build_plat(r)
            if all(x == 0 for x in d.delta) and d.n % 2 == 1:
                assert linking_number_formula(r, diagram=d) == 0

    def test_figure_eight_value(self):
        # matches Re lambda(K(2/5)) = -2 (the cusp anchor)
        assert linking_number_formula(S25) == -2
        assert linking_number_diagram(S25) == -2

    def test_formula_equals_diagram(self):
        for r in hyperbolic_slopes(40):
            for orientation in ("default", "reversed"):
                assert (linking_number_formula(r, orientation)
                        == linking_number_diagram(r, orientation)), r

    def test_hopf_pairwise(self):
        d1 = build_plat(Slope(1, 2), "default")
        d2 = build_plat(Slope(1, 2), "reversed")
        assert abs(pairwise_linking(d1)) == 1
        assert pairwise_linking(d1) == -pairwise_linking(d2)

    def test_whitehead_pairwise_zero(self):
        for orientation in ("default", "reversed"):
            assert pairwise_linking(build_plat(Slope(3, 8), orientation)) == 0

    def test_torus_link_pairwise(self):
        assert abs(pairwise_linking(build_plat(Slope(1, 4)))) == 2
        assert abs(pairwise_linking(build_plat(Slope(1, 6)))) == 3


class TestLongitudeClass:
    def test_knot(self):
        cls = longitude_class(build_plat(S25))
        assert cls.components == 1
        assert cls.a == 1 and cls.b == cls.lk_ell_link == -2

    def test_link_integrality(self):
        for r in hyperbolic_slopes(40):
            if num_components(r) != 2:
                continue
            for orientation in ("default", "reversed"):
                cls = longitude_class(build_plat(r, orientation))
                assert 2 * cls.b == cls.lk_ell_link - 2 * cls.pairwise

    def test_remark_hypothesis_never_yields_a_knot(self):
        """All-even coefficients with odd length force an even denominator,
        so the simple knot formula of the remark never applies."""
        checked = 0
        for r in hyperbolic_slopes(60):
            cls = longitude_class(build_plat(r))
            if cls.remark_hypothesis:
                checked += 1
                assert num_components(r) == 2
        assert checked >= 2  # e.g. 5/12 = [2,2,2] and friends

    def test_json_schema(self):
        doc = longitude_json(S25)
        assert set(doc) == {"r", "n", "a", "orientation", "delta", "lk_formula",
                            "lk_diagram", "lk_pairwise", "class", "components",
                            "remark_all_even_odd_n"}
        assert doc["lk_formula"] == doc["lk_diagram"]
        assert doc["class"] == {"a": 1, "b": -2}
