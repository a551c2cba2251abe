"""Continued fractions, chains, intervals and slope reduction."""

import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from slope_oracles import (
    apply_word,
    contains,
    evaluate_cf,
    is_nullhomotopic,
    parity_split_parents,
    reduce_slope,
    reflect,
)
from twobridge.errors import NonHyperbolicError, SlopeError
from twobridge.slopes import (
    INFINITY,
    Slope,
    continued_fraction,
    farey_chain,
    fundamental_intervals,
    is_hyperbolic,
    num_components,
    off_chain_census,
    reflection_in_edge,
)

S25 = Slope(2, 5)


def proper_fractions():
    return st.tuples(st.integers(2, 300), st.integers(1, 299))


class TestSlopeBasics:
    def test_normalisation(self):
        assert Slope(4, 10) == S25
        assert Slope(-2, -5) == S25
        assert Slope(3, 0) == INFINITY

    def test_parse_and_str(self):
        assert str(Slope.parse("2/5")) == "2/5"
        assert Slope.parse("inf") == INFINITY
        assert str(INFINITY) == "inf"

    def test_order_rejects_infinity(self):
        with pytest.raises(SlopeError):
            INFINITY < S25  # noqa: B015

    def test_mediant_and_neighbors(self):
        assert Slope(1, 3).mediant(Slope(1, 2)) == S25
        assert Slope(1, 3).is_farey_neighbor(S25)
        assert not Slope(0, 1).is_farey_neighbor(S25)


class TestContinuedFraction:
    @pytest.mark.parametrize("r,coeffs", [
        (S25, (2, 2)),
        (Slope(5, 17), (3, 2, 2)),   # the running example slope
        (Slope(1, 2), (2,)),
        (Slope(3, 7), (2, 3)),
        (Slope(3, 8), (2, 1, 2)),
    ])
    def test_examples(self, r, coeffs):
        assert continued_fraction(r) == coeffs

    @pytest.mark.parametrize("coeffs,val", [
        ((2, 2), (2, 5)),
        ((3, 2), (2, 7)),      # evaluated by hand: 1/(3+1/2)
        ((3, 2, 1), (3, 10)),  # 1/(3+1/(2+1))
        ((2, 0), (0, 1)),      # truncation with a zero tail
    ])
    def test_evaluate(self, coeffs, val):
        assert evaluate_cf(coeffs) == Slope(*val)

    def test_roundtrip_small_denominators(self):
        for p in range(2, 101):
            for q in range(1, p):
                if math.gcd(q, p) == 1:
                    r = Slope(q, p)
                    cf = continued_fraction(r)
                    assert cf[-1] >= 2
                    assert evaluate_cf(cf) == r

    @given(proper_fractions())
    def test_roundtrip_property(self, pq):
        p, q = pq
        assume(0 < q < p and math.gcd(q, p) == 1)
        r = Slope(q, p)
        assert evaluate_cf(continued_fraction(r)) == r

    def test_rejects_out_of_range(self):
        with pytest.raises(SlopeError):
            continued_fraction(Slope(3, 2))
        with pytest.raises(SlopeError):
            continued_fraction(INFINITY)


class TestHyperbolicityAndComponents:
    def test_hyperbolicity(self):
        assert not is_hyperbolic(Slope(1, 3))
        assert is_hyperbolic(S25)
        assert is_hyperbolic(Slope(3, 7))
        assert not is_hyperbolic(Slope(6, 7))  # 6 = -1 mod 7

    def test_components(self):
        assert num_components(S25) == 1
        assert num_components(Slope(3, 8)) == 2
        assert num_components(Slope(1, 2)) == 2


class TestFareyChain:
    def test_chain_2_5(self):
        chain = farey_chain(S25)
        got = [tuple(str(v) for v in t) for t in chain]
        assert got == [
            ("0/1", "1/1", "inf"),
            ("0/1", "1/2", "1/1"),
            ("0/1", "1/3", "1/2"),
            ("1/3", "2/5", "1/2"),
        ]

    def test_chain_5_17_has_seven_triangles(self):
        chain = farey_chain(Slope(5, 17))
        assert len(chain) == 7  # c = 3 + 2 + 2
        assert S25 not in chain[-1]
        assert Slope(5, 17) in chain[-1]

    def test_chain_of_non_hyperbolic_1_2(self):
        chain = farey_chain(Slope(1, 2))
        assert len(chain) == 2

    def test_length_is_the_coefficient_sum(self):
        """The chain has sum(continued_fraction(r)) triangles, for every
        r in (0, 1) with p <= 60."""
        for p in range(2, 61):
            for q in range(1, p):
                if math.gcd(q, p) == 1:
                    r = Slope(q, p)
                    assert len(farey_chain(r)) == sum(continued_fraction(r)), r

    def test_consecutive_triangles_share_an_edge(self):
        for r in (S25, Slope(5, 17), Slope(7, 17), Slope(5, 12)):
            chain = farey_chain(r)
            for t1, t2 in zip(chain, chain[1:]):
                assert len(set(t1) & set(t2)) == 2

    def test_triangles_are_ascending_farey_triangles(self):
        """Every triple is ascending, inf last in the first, and its three
        pairs are Farey edges, for every r in (0, 1) with p <= 60; and the
        reflection in each of those edges has determinant -1."""
        for p in range(2, 61):
            for q in range(1, p):
                if math.gcd(q, p) != 1:
                    continue
                chain = farey_chain(Slope(q, p))
                assert chain[0] == (Slope(0, 1), Slope(1, 1), INFINITY)
                for lo, med, hi in chain:
                    assert lo < med and (hi.is_infinite or med < hi)
                    for u, v in ((lo, med), (med, hi), (lo, hi)):
                        assert u.is_farey_neighbor(v), (q, p, u, v)
                        a, b, c, d = reflection_in_edge(u, v).matrix
                        assert a * d - b * c == -1, (q, p, u, v)

    def test_inner_vertices_lie_in_unit_interval(self):
        for r in (S25, Slope(5, 17), Slope(7, 17)):
            chain = farey_chain(r)
            for t in chain[1:-1]:
                for v in t:
                    assert not v.is_infinite
                    assert Slope(0, 1) <= v <= Slope(1, 1)


class TestOffChainCensus:
    @pytest.mark.parametrize("r, census", [
        ("2/5", {"1/5", "3/5", "1/4", "2/3"}),
        ("3/5", {"4/5", "2/5", "1/3", "3/4"}),
        ("3/8", {"1/4"}),
        ("5/8", {"3/4"}),
        ("2/7", {"1/7"}),
        ("3/7", {"4/7"}),
        ("4/7", {"3/7"}),
        ("5/7", {"6/7"}),
        ("4/9", {"5/9"}),
        ("2/241", {"1/241"}),
        ("120/241", {"121/241"}),
        ("5/17", set()),
        ("3/10", set()),
    ])
    def test_values(self, r, census):
        assert {str(s) for s in off_chain_census(Slope.parse(r))} == census

    def test_mirror_and_place(self):
        """A(1 - r) = 1 - A(r), and A(r) lies in I1(r) u I2(r) off r's
        Farey chain, for every hyperbolic slope with p <= 64."""
        for p in range(3, 65):
            for q in range(1, p):
                r = Slope(q, p)
                if math.gcd(q, p) != 1 or not is_hyperbolic(r):
                    continue
                census = off_chain_census(r)
                mirror = off_chain_census(Slope(p - q, p))
                assert mirror == {Slope(s.den - s.num, s.den) for s in census}, r
                i1, i2 = fundamental_intervals(r)
                chain = {s for triangle in farey_chain(r) for s in triangle}
                for s in census:
                    assert contains(i1, s) or contains(i2, s), (r, s)
                    assert s not in chain, (r, s)

    def test_non_hyperbolic_raises(self):
        with pytest.raises(NonHyperbolicError):
            off_chain_census(Slope(1, 3))


def _neighbor_oracle(r):
    """Smallest-denominator Farey neighbours of r on each side, found by
    brute force; they bound the gap between the two fundamental intervals."""
    below = above = None
    for a in range(1, r.den + 1):
        for b in range(0, a + 1):
            if abs(r.num * a - r.den * b) == 1:
                v = Slope(b, a)
                if v < r and below is None:
                    below = v
                if v > r and above is None:
                    above = v
        if below is not None and above is not None:
            break
    return below, above


class TestFundamentalIntervals:
    @pytest.mark.parametrize("r,i1,i2", [
        ((5, 17), ((0, 1), (2, 7)), ((3, 10), (1, 1))),
        ((2, 5), ((0, 1), (1, 3)), ((1, 2), (1, 1))),
        # 3/7 = [2,3]: the parity formulas give [0,2/5] and [1/2,1]; checked
        # against the neighbour oracle below
        ((3, 7), ((0, 1), (2, 5)), ((1, 2), (1, 1))),
    ])
    def test_examples(self, r, i1, i2):
        a, b = fundamental_intervals(Slope(*r))
        assert (a.left, a.right) == (Slope(*i1[0]), Slope(*i1[1]))
        assert (b.left, b.right) == (Slope(*i2[0]), Slope(*i2[1]))

    def test_against_neighbor_oracle(self):
        for p in range(5, 40):
            for q in range(2, p):
                if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p)):
                    r = Slope(q, p)
                    i1, i2 = fundamental_intervals(r)
                    below, above = _neighbor_oracle(r)
                    assert i1.right == below
                    assert i2.left == above
                    assert not contains(i1, r) and not contains(i2, r)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NonHyperbolicError):
            fundamental_intervals(Slope(1, 3))

    def test_endpoints_are_the_final_triangle(self):
        """r1 and r2, found without building a chain, are the two vertices
        other than r of the last triangle of r's Farey chain."""
        checked = 0
        for p in range(5, 61):
            for q in range(2, p):
                r = Slope(q, p)
                if math.gcd(q, p) != 1 or not is_hyperbolic(r):
                    continue
                i1, i2 = fundamental_intervals(r)
                last = farey_chain(r)[-1]
                assert set(last) == {i1.right, r, i2.left}, r
                checked += 1
        assert checked == 984

    def test_against_parity_split_truncations(self):
        """r1 and r2 are the parity-split truncations of r's continued
        fraction, for every hyperbolic slope with p < 300."""
        checked = 0
        for p in range(5, 300):
            for q in range(2, p - 1):
                r = Slope(q, p)
                if math.gcd(q, p) != 1 or not is_hyperbolic(r):
                    continue
                i1, i2 = fundamental_intervals(r)
                assert (i1.right, i2.left) == parity_split_parents(r), r
                checked += 1
        assert checked == 26722

    @given(st.integers(5, 10**6), st.integers(2, 10**6))
    def test_parents_property(self, p, q):
        """For hyperbolic q/p with p up to 10^6, r1 < r < r2, r is the
        mediant of r1 and r2, and both are Farey neighbours of r."""
        q = q % p
        assume(math.gcd(q, p) == 1 and q not in (1, p - 1))
        r = Slope(q, p)
        i1, i2 = fundamental_intervals(r)
        r1, r2 = i1.right, i2.left
        assert r1 < r < r2
        assert r1.mediant(r2) == r
        assert r1.is_farey_neighbor(r) and r2.is_farey_neighbor(r)


def _group_generators(r):
    i1, i2 = fundamental_intervals(r)
    return (
        reflection_in_edge(INFINITY, Slope(0, 1)),
        reflection_in_edge(INFINITY, Slope(1, 1)),
        reflection_in_edge(r, i1.right),
        reflection_in_edge(r, i2.left),
    )


def generator_word_length(word):
    """Length of a reduction word in the four standard generators: a
    reflection over <inf, k> with k outside {0, 1} costs 2|k| + 1 letters."""
    total = 0
    for letter in word:
        u, v = letter.edge
        if u.is_infinite or v.is_infinite:
            k = (v if u.is_infinite else u).num
            total += 1 if k in (0, 1) else 2 * abs(k) + 1
        else:
            total += 1
    return total


def _orbit_ball(s, generators, length):
    """All slopes reachable from s by words of at most the given length."""
    frontier = {s}
    seen = {s}
    for _ in range(length):
        new = set()
        for t in frontier:
            for g in generators:
                u = reflect(g, t)
                if u not in seen:
                    seen.add(u)
                    new.add(u)
        frontier = new
    return seen


class TestReduceSlope:
    def test_already_reduced(self):
        s0, word = reduce_slope(Slope(1, 4), S25)
        assert s0 == Slope(1, 4) and len(word) == 0
        s0, word = reduce_slope(Slope(1, 1), S25)
        assert s0 == Slope(1, 1) and len(word) == 0

    def test_reflection_example(self):
        s0, word = reduce_slope(Slope(-1, 3), S25)
        assert s0 == Slope(1, 3)
        assert len(word) == 1
        assert word[0].matrix in ((1, 0, 0, -1), (-1, 0, 0, 1))
        assert apply_word(word, Slope(-1, 3)) == s0

    def test_word_maps_input_to_output(self):
        random.seed(5)
        for _ in range(50):
            den = random.randint(1, 60)
            num = random.randint(-120, 120)
            if math.gcd(abs(num), den) != 1:
                continue
            s = Slope(num, den)
            s0, word = reduce_slope(s, S25)
            assert apply_word(word, s) == s0

    def test_idempotent(self):
        random.seed(11)
        for _ in range(40):
            den = random.randint(1, 50)
            num = random.randint(-100, 100)
            if math.gcd(abs(num), den) != 1:
                continue
            s0, _ = reduce_slope(Slope(num, den), S25)
            s1, word = reduce_slope(s0, S25)
            assert s1 == s0 and len(word) == 0

    def test_letters_are_involutions(self):
        for r in (S25, Slope(3, 7)):
            for g in _group_generators(r):
                m = g.matrix
                sq = (
                    m[0] * m[0] + m[1] * m[2], m[0] * m[1] + m[1] * m[3],
                    m[2] * m[0] + m[3] * m[2], m[2] * m[1] + m[3] * m[3],
                )
                assert sq == (1, 0, 0, 1)

    def test_against_orbit_enumeration(self):
        """Reduction agrees with breadth-first orbit search and the reduced
        representative is unique in the explored ball."""
        random.seed(23)
        checked = 0
        for r in (S25, Slope(3, 7), Slope(3, 8)):
            i1, i2 = fundamental_intervals(r)
            gens = _group_generators(r)

            def reduced_members(ball):
                out = set()
                for t in ball:
                    if t.is_infinite or t == r or contains(i1, t) or contains(i2, t):
                        out.add(t)
                return out

            for _ in range(12):
                den = random.randint(1, 50)
                num = random.randint(-30, 80)
                if math.gcd(abs(num), den) != 1:
                    continue
                s = Slope(num, den)
                s0, word = reduce_slope(s, r)
                if generator_word_length(word) > 8:
                    continue  # the ball cannot certify this one
                ball = _orbit_ball(s, gens, 8)
                members = reduced_members(ball)
                assert s0 in members
                if s0 == r or s0.is_infinite:
                    # the orbits of r and inf may both meet a long ball
                    assert all(m == r or m.is_infinite for m in members)
                else:
                    assert members == {s0}
                checked += 1
        assert checked >= 10


class TestNullHomotopic:
    def test_examples(self):
        assert is_nullhomotopic(INFINITY, S25)
        assert is_nullhomotopic(S25, S25)
        assert not is_nullhomotopic(Slope(0, 1), S25)
