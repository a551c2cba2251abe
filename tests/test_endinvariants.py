"""Limit-set membership, gap systems, Bowditch exceptional families."""

import json
import math
import random
from fractions import Fraction

import pytest

from slope_oracles import (
    interval_meets_limit_set,
    is_nullhomotopic,
    reduce_slope,
    reflect,
)
from twobridge.endinvariants import GapSystem, bowditch_L, gap_intervals
from twobridge.errors import DomainError, NonHyperbolicError
from twobridge.slopes import (
    INFINITY,
    Slope,
    fundamental_intervals,
    is_hyperbolic,
    reflection_in_edge,
)

S25 = Slope(2, 5)


def _gaps(system):
    """Each row of the system as (left, right, source, word_length,
    word_text), its endpoints as Slopes."""
    return [(Slope(xn, xd), Slope(yn, yd), source, length, text)
            for xn, xd, yn, yd, source, length, text in system.rows]


def _generators(r):
    """The four reflections of the slope group, by printed name."""
    i1, i2 = fundamental_intervals(r)
    gens = (reflection_in_edge(INFINITY, Slope(0, 1)),
            reflection_in_edge(INFINITY, Slope(1, 1)),
            reflection_in_edge(r, i1.right),
            reflection_in_edge(r, i2.left))
    return {str(g): g for g in gens}


def _letters(text):
    """The letter names of a printed word, in the order they act."""
    return [] if text == "<empty word>" else text.split(" . ")


@pytest.fixture
def exact_sums(monkeypatch):
    """The gap systems whose exact covered length is built while the test
    runs."""
    calls = []
    exact = GapSystem._covered

    def counted(system):
        calls.append(system)
        return exact(system)

    monkeypatch.setattr(GapSystem, "_covered", counted)
    return calls


class TestMembership:
    def test_parabolic_fixed_points(self):
        for r in (S25, Slope(3, 7), Slope(5, 12)):
            assert is_nullhomotopic(INFINITY, r)
            assert is_nullhomotopic(r, r)

    def test_interval_points_are_not_members(self):
        for r in (S25, Slope(3, 7)):
            assert not is_nullhomotopic(Slope(0, 1), r)
            assert not is_nullhomotopic(Slope(1, 1), r)

    def test_orbit_points_are_members(self):
        random.seed(13)
        for r in (S25, Slope(3, 8)):
            gens = tuple(_generators(r).values())
            for _ in range(25):
                s = r if random.random() < 0.5 else INFINITY
                for _ in range(6):
                    s = reflect(random.choice(gens), s)
                assert is_nullhomotopic(s, r)


class TestGapSystem:
    def test_depth_zero_is_the_fundamental_intervals(self):
        gaps = _gaps(gap_intervals(S25, 0))
        assert [(str(left), str(right)) for left, right, *_ in gaps] == [
            ("0/1", "1/3"), ("1/2", "1/1")]
        assert [length for *_, length, _ in gaps] == [0, 0]

    def test_monotone_coverage_below_one(self):
        for r in (S25, Slope(3, 7), Slope(5, 17)):
            prev = Fraction(0)
            for depth in range(0, 6):
                system = gap_intervals(r, depth)
                cov = system.covered_length()
                assert prev <= cov < 1
                prev = cov

    def test_gaps_disjoint_and_avoid_r(self):
        for r in (S25, Slope(3, 8), Slope(5, 17)):
            gaps = _gaps(gap_intervals(r, 5))
            for g1, g2 in zip(gaps, gaps[1:]):
                assert g1[1] <= g2[0]
            assert all(not left < r < right for left, right, *_ in gaps)

    def test_no_duplicate_gaps_to_depth_8(self):
        """Distinct reduced words give distinct, disjoint gaps (module
        docstring): 2 * 3^8 of them, and the overlap check passes."""
        for r in (S25, Slope(3, 7), Slope(3, 8), Slope(5, 17)):
            assert len(gap_intervals(r, 8).rows) == 2 * 3 ** 8

    def test_builds_no_farey_chain(self, count_farey_chains):
        """Gap systems and slope reduction need only the interval endpoints
        of the continued fraction."""
        r = Slope(5, 17)
        gap_intervals(r, 6)
        reduce_slope(Slope(7, 3), r)
        bowditch_L(S25, depth=0)
        assert count_farey_chains == []

    def test_gap_endpoints_reduce_to_interval_corners(self):
        r = S25
        i1, i2 = fundamental_intervals(r)
        corners = {i1.left, i1.right, i2.left, i2.right}
        for left, right, *_ in _gaps(gap_intervals(r, 4)):
            for end in (left, right):
                s0, _ = reduce_slope(end, r)
                assert s0 in corners

    def test_gap_members_are_not_end_invariants(self):
        for left, right, *_ in _gaps(gap_intervals(S25, 5))[:60]:
            mid = (left.as_fraction() + right.as_fraction()) / 2
            assert not is_nullhomotopic(Slope(mid.numerator, mid.denominator), S25)

    def test_words_map_sources_onto_gaps(self):
        """The printed word, applied letter by letter, maps the source
        interval's endpoints onto the gap's."""
        i1, i2 = fundamental_intervals(S25)
        ends = {1: (i1.left, i1.right), 2: (i2.left, i2.right)}
        gens = _generators(S25)
        for left, right, source, length, text in _gaps(gap_intervals(S25, 4)):
            image = set(ends[source])
            for name in _letters(text):
                image = {reflect(gens[name], s) for s in image}
            assert len(_letters(text)) == length
            assert image == {left, right}

    def test_counts_outer_letters_and_printed_length(self):
        """For every hyperbolic slope with p <= 21 and depth <= 5: 2 * 3^d
        gaps, every non-empty word ends (acts last) with R<r,r1> or
        R<r,r2>, and the printed covered length is the exact one, rounded."""
        for p in range(5, 22):
            for q in range(2, p - 1):
                r = Slope(q, p)
                if math.gcd(q, p) != 1 or not is_hyperbolic(r):
                    continue
                i1, i2 = fundamental_intervals(r)
                outer = {str(reflection_in_edge(r, i1.right)),
                         str(reflection_in_edge(r, i2.left))}
                for depth in range(6):
                    system = gap_intervals(r, depth)
                    assert len(system.rows) == 2 * 3 ** depth, (r, depth)
                    assert all(_letters(text)[-1] in outer
                               for *_, length, text in system.rows if length)
                    printed = json.loads(system.to_json_text())[
                        "covered_length_in_unit_interval"]
                    assert printed == float(system.covered_length()), (r, depth)

    def test_printed_covered_length_is_exact_sum_rounded(self):
        """The covered length ``to_json_text`` prints, ``_covered_float``,
        is N / D for the exact sum N/D of ``_covered``, for every
        hyperbolic slope with p <= 30 at depths 0 and 6."""
        for p in range(5, 31):
            for q in range(2, p - 1):
                r = Slope(q, p)
                if math.gcd(q, p) != 1 or not is_hyperbolic(r):
                    continue
                for depth in (0, 6):
                    system = gap_intervals(r, depth)
                    num, den = system._covered()
                    assert system._covered_float() == num / den, (r, depth)

    def test_fixed_point_sum_decides(self, exact_sums):
        """On 3/10 at depth 6, whose exact sum has a denominator of
        thousands of digits, the fixed-point sum decides the rounding."""
        gap_intervals(Slope(3, 10), 6).to_json_text()
        assert exact_sums == []

    def test_rounding_boundary_falls_back_to_exact_sum(self, exact_sums):
        """Two gaps of total 1/2 + 2^-54, halfway between 1/2 and the next
        double: the fixed-point bracket straddles the boundary, so the
        exact sum is built, and it rounds half to even, down to 1/2."""
        system = GapSystem(r=S25, depth=1, rows=(
            (0, 1, 1, 4, 1, 0, "<empty word>"),
            (1, 2, 3 * 2 ** 52 + 1, 2 ** 54, 2, 0, "<empty word>")))
        printed = json.loads(system.to_json_text())["covered_length_in_unit_interval"]
        assert exact_sums == [system]
        total = Fraction(1, 2) + Fraction(1, 2 ** 54)
        assert system.covered_length() == total
        assert printed == float(total) == 0.5

    def test_depth_cap(self):
        with pytest.raises(DomainError):
            gap_intervals(S25, 13)


class TestBowditchL:
    def test_exceptional_families(self):
        rep = bowditch_L(S25, depth=1)
        assert rep.case == "exceptional-1"
        assert tuple(str(s) for s in rep.extra_orbits) == ("1/5", "3/5")

        rep = bowditch_L(Slope(3, 7), depth=1)
        assert rep.case == "exceptional-2"
        assert tuple(str(s) for s in rep.extra_orbits) == ("4/7",)

        rep = bowditch_L(Slope(2, 9), depth=1)
        assert rep.case == "exceptional-3"
        assert tuple(str(s) for s in rep.extra_orbits) == ("1/9",)

        assert bowditch_L(Slope(5, 17), depth=1).case == "generic"

    def test_mirrored(self):
        rep = bowditch_L(Slope(3, 5), depth=1)
        assert rep.mirrored and rep.case == "exceptional-1"
        assert tuple(str(s) for s in rep.extra_orbits) == ("4/5", "2/5")

    def test_families_up_to_101(self):
        for n in range(3, 51):
            p = 2 * n + 1
            if p > 101:
                break
            rep = bowditch_L(Slope(n, p), depth=0)
            assert rep.case == "exceptional-2"
            assert rep.extra_orbits == (Slope(n + 1, p),)
            rep = bowditch_L(Slope(2, p), depth=0)
            assert rep.case == "exceptional-3"
            assert rep.extra_orbits == (Slope(1, p),)

    def test_extras_are_accidental_parabolics(self, evaluation_for):
        """The extra orbits sit inside the intervals with trace exactly +-2
        and are not in the limit set."""
        for rs in ((2, 5), (3, 7), (2, 9)):
            r = Slope(*rs)
            rep = bowditch_L(r, depth=0)
            ev = evaluation_for(r)
            for s in rep.extra_orbits:
                assert not is_nullhomotopic(s, r)
                v = ev.phi(s)
                assert min(abs(v - 2), abs(v + 2)) < 1e-9

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NonHyperbolicError):
            bowditch_L(Slope(1, 4))

    def test_json_text_is_json_dumps(self):
        """The direct writer gives json.dumps(doc, indent=2) byte for byte,
        for the document built here from the report's fields and rows,
        mirrored and exceptional slopes included, for p <= 13."""
        for p in range(5, 14):
            for q in range(2, p - 1):
                r = Slope(q, p)
                if math.gcd(q, p) != 1 or not is_hyperbolic(r):
                    continue
                for depth in range(7):
                    rep = bowditch_L(r, depth)
                    system = rep.gap_system
                    expected = {
                        "r": str(r),
                        "case": rep.case,
                        "extra_orbits": [str(s) for s in rep.extra_orbits],
                        "mirrored": rep.mirrored,
                        "gap_system": {
                            "r": str(system.r),
                            "depth": system.depth,
                            "covered_length_in_unit_interval":
                                float(system.covered_length()),
                            "gaps": [
                                {"interval": ["%d/%d" % (xn, xd),
                                              "%d/%d" % (yn, yd)],
                                 "source": source,
                                 "word": text,
                                 "word_length": length}
                                for xn, xd, yn, yd, source, length, text
                                in system.rows],
                        },
                    }
                    text = rep.to_json_text()
                    assert json.loads(text) == expected, (r, depth)
                    assert json.dumps(expected, indent=2) == text, (r, depth)


class TestIntervalQuery:
    def test_three_values(self):
        assert interval_meets_limit_set(S25, Slope(1, 3), Slope(1, 2)) == "yes"
        assert interval_meets_limit_set(S25, Slope(0, 1), Slope(1, 3)) == "no"
        # a thin window away from known parabolic points at small depth
        assert interval_meets_limit_set(
            S25, Slope(150, 401), Slope(151, 401), depth=2) == "unknown"

    def test_window_inside_a_depth_3_gap(self):
        u, v = Slope(16630, 45549), Slope(16631, 45549)
        assert interval_meets_limit_set(S25, u, v, depth=2) == "unknown"
        assert interval_meets_limit_set(S25, u, v, depth=3) == "no"
