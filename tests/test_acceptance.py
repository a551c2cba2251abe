"""Acceptance suite: one test per criterion, each printing its pass line.

Every tolerance is pinned here, none deferred: run with ``pytest -v
tests/test_acceptance.py`` to get the per-criterion verdicts.
"""

import cmath
import json
import math
import random
from pathlib import Path

import pytest

from twobridge import plat
from twobridge.cusp_layout import check_simply_folded, layout_cusp
from twobridge.endinvariants import bowditch_L, gap_intervals
from twobridge.markoff import MarkoffEvaluation, trace_polynomial
from twobridge.mcshane import boundary_edge_sets, finite_edge_sums, h, psi
from twobridge.slopes import (
    INFINITY,
    Slope,
    fundamental_intervals,
    is_hyperbolic,
    opposite_vertex,
    reduce_slope,
    reflection_in_edge,
)

PMAX_IDENTITY = 30
PMAX_LINKING = 40


def hyperbolic_slopes(pmax):
    out = []
    for p in range(3, pmax + 1):
        for q in range(1, p):
            if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p)):
                out.append(Slope(q, p))
    return out


@pytest.fixture(scope="module")
def identity_reports(report_for):
    return {r: report_for(r) for r in hyperbolic_slopes(PMAX_IDENTITY)}


def test_criterion_01_main_identity(identity_reports):
    """|S1 + S2 + 1| <= 1e-6 for every hyperbolic slope with p <= 30."""
    worst = 0.0
    for r, rep in identity_reports.items():
        assert rep.eps == 1e-8
        assert rep.identity_residual <= 1e-6, (r, rep.identity_residual)
        worst = max(worst, rep.identity_residual)
    print("\n[PASS] criterion 1: main identity on %d slopes, worst residual %.2e"
          % (len(identity_reports), worst))


def test_criterion_02_finite_identity(identity_reports, evaluation_for):
    """Finite edge sums: E1+E2 sum to -1 and the full edge sum to 1."""
    worst_minus = worst_one = 0.0
    for r, rep in identity_reports.items():
        assert rep.finite_identity_residual <= 1e-9, r
        worst_minus = max(worst_minus, rep.finite_identity_residual)
        ev = evaluation_for(r)
        edges = boundary_edge_sets(r)
        total = (rep.finite_sum_e1 + rep.finite_sum_e2
                 + psi(edges.e_minus, ev) + psi(edges.e_plus, ev))
        assert abs(total - 1) <= 1e-9, r
        worst_one = max(worst_one, abs(total - 1))
    print("\n[PASS] criterion 2: finite identities, residuals %.2e / %.2e"
          % (worst_minus, worst_one))


def test_criterion_03_series_vs_finite(identity_reports):
    """|S_j - sum_{E_j} psi| <= tail_j + 1e-8 for both intervals."""
    for r, rep in identity_reports.items():
        assert abs(rep.series_s1 - rep.finite_sum_e1) <= rep.tail_bound_1 + 1e-8, r
        assert abs(rep.series_s2 - rep.finite_sum_e2) <= rep.tail_bound_2 + 1e-8, r
    print("\n[PASS] criterion 3: series within tail bounds on %d slopes"
          % len(identity_reports))


def test_criterion_04_figure_eight(identity_reports):
    """Trace polynomial, cusp modulus and longitude linking of K(2/5)."""
    r = Slope(2, 5)
    poly = trace_polynomial(r)
    # independent hand value: -x(x^4 - x^2 + 1)
    assert poly.coeffs == ((0, 0), (-1, 0), (0, 0), (1, 0), (0, 0), (-1, 0))
    rep = identity_reports[r]
    assert abs(rep.lambda_link.imag - 2 * math.sqrt(3)) <= 1e-6
    lk = plat.linking_number_formula(r)
    assert abs(rep.lambda_link.real - lk) <= 1e-6
    print("\n[PASS] criterion 4: figure-eight lambda=%.12f%+.12fi, lk=%d"
          % (rep.lambda_link.real, rep.lambda_link.imag, lk))


def test_criterion_05_two_expressions(identity_reports):
    """The I1-form and I2-form of lambda(K) agree within combined tails."""
    for rs in ((2, 5), (3, 7), (3, 8), (5, 17), (7, 17)):
        rep = identity_reports[Slope(*rs)]
        allowance = (4.0 / rep.components) * (rep.tail_bound_1
                                              + rep.tail_bound_2) + 1e-8
        assert rep.form_disagreement <= allowance, (rs, rep.form_disagreement)
    print("\n[PASS] criterion 5: both modulus expressions agree on 5 slopes")


def test_criterion_06_linking_oracle():
    """Formula and diagram count agree for p <= 40, both orientations."""
    count = 0
    for r in hyperbolic_slopes(PMAX_LINKING):
        for orientation in ("default", "reversed"):
            f = plat.linking_number_formula(r, orientation)
            d = plat.linking_number_diagram(r, orientation)
            assert f == d, (r, orientation, f, d)
            count += 1
    print("\n[PASS] criterion 6: linking formula == diagram count (%d checks)"
          % count)


def test_criterion_07_markoff_properties(evaluation_for):
    """Edge relation, triangle psi-sum, path independence, h branch and the
    h/length bridge, 1e4 random cases each."""
    rng = random.Random(20260811)
    ev = MarkoffEvaluation(Slope(2, 5), complex(1.2, -0.8))

    def random_slope(max_den):
        while True:
            den = rng.randint(2, max_den)
            num = rng.randint(1, den - 1)
            if math.gcd(num, den) == 1:
                return Slope(num, den)

    def parents(s):
        lo, hi = Slope(0, 1), Slope(1, 1)
        while True:
            med = lo.mediant(hi)
            if med == s:
                return lo, hi
            lo, hi = (lo, med) if s < med else (med, hi)

    n = 10_000
    for _ in range(n):  # edge relation
        s = random_slope(120)
        u, v = parents(s)
        lhs = ev.phi(opposite_vertex(u, v, s)) + ev.phi(s)
        rhs = ev.phi(u) * ev.phi(v)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    for _ in range(n):  # triangle psi-sum
        s = random_slope(120)
        u, v = parents(s)
        x, y, z = ev.phi(u), ev.phi(v), ev.phi(s)
        if min(abs(x), abs(y), abs(z)) < 1e-6:
            continue
        total = x / (y * z) + y / (x * z) + z / (x * y)
        assert abs(total - 1) <= 1e-12 * max(1.0, abs(x * y * z))

    checked = 0
    while checked < n:  # path independence through a deeper triangle
        s = random_slope(100)
        u, v = parents(s)
        if abs(ev.phi(u)) < 1e-2:
            continue
        alt = (ev.phi(u.mediant(s)) + ev.phi(v)) / ev.phi(u)
        assert abs(alt - ev.phi(s)) <= 1e-10 * max(1.0, abs(ev.phi(s)))
        checked += 1

    for _ in range(n):  # h branch
        x = complex(rng.uniform(-30, 30), rng.uniform(-30, 30))
        if abs(x) < 2.5:
            continue
        assert (1 - 2 * h(x)).real >= 0

    for _ in range(n):  # h(2 cosh(l/2)) = 1/(1 + e^l)
        l = complex(rng.uniform(0.1, 3), rng.uniform(-3, 3))
        lhs = h(2 * cmath.cosh(l / 2))
        assert abs(lhs - 1 / (1 + cmath.exp(l))) <= 1e-12
    print("\n[PASS] criterion 7: Markoff property suite, 5 x %d cases" % n)


def test_criterion_08_reduction_oracle():
    """reduce_slope against breadth-first orbit enumeration, word length 8,
    with the reduced representative unique in the explored ball."""
    rng = random.Random(99)
    bases = (Slope(2, 5), Slope(3, 7), Slope(3, 8), Slope(5, 17))
    per_base = 25
    total = 0
    for r in bases:
        i1, i2 = fundamental_intervals(r)
        gens = (
            reflection_in_edge(INFINITY, Slope(0, 1)),
            reflection_in_edge(INFINITY, Slope(1, 1)),
            reflection_in_edge(r, i1.right),
            reflection_in_edge(r, i2.left),
        )
        done = 0
        while done < per_base:
            den = rng.randint(1, 50)
            num = rng.randint(-20, 70)
            if math.gcd(abs(num), den) != 1:
                continue
            s = Slope(num, den)
            s0, word = reduce_slope(s, r)
            cost = 0
            for letter in word.letters:
                a, b = letter.edge
                if a.is_infinite or b.is_infinite:
                    k = (b if a.is_infinite else a).num
                    cost += 1 if k in (0, 1) else 2 * abs(k) + 1
                else:
                    cost += 1
            if cost > 8:
                continue
            ball = {s}
            frontier = {s}
            for _ in range(8):
                new = set()
                for t in frontier:
                    for g in gens:
                        u = g(t)
                        if u not in ball:
                            ball.add(u)
                            new.add(u)
                frontier = new
            members = {t for t in ball
                       if t.is_infinite or t == r
                       or i1.contains(t) or i2.contains(t)}
            assert s0 in members, (r, s)
            if s0 == r or s0.is_infinite:
                assert all(m == r or m.is_infinite for m in members), (r, s)
            else:
                assert members == {s0}, (r, s, members)
            done += 1
            total += 1
    print("\n[PASS] criterion 8: reduction matches orbit enumeration on %d slopes"
          % total)


def test_criterion_09_cusp_layout(evaluation_for):
    """Folds at 1/2 and [a1..an-2] to 1e-9; longitude displacement equals
    the E1 edge sum to 1e-9."""
    for rs in ((2, 5), (3, 7), (3, 8), (5, 17), (7, 17), (5, 12), (4, 13),
               (9, 23)):
        r = Slope(*rs)
        ev = evaluation_for(r)
        layout = layout_cusp(r, ev)
        report = check_simply_folded(layout, r, tol=1e-9)
        assert report["ok"]
        s1, _ = finite_edge_sums(r, ev)
        assert abs(layout.lambda_half - s1) <= 1e-9
    print("\n[PASS] criterion 9: folds and longitude displacement on 8 slopes")


def test_criterion_10_end_invariants():
    """Exceptional families for p <= 101 and gap-system sanity."""
    for n in range(3, 51):
        p = 2 * n + 1
        if p > 101:
            break
        assert bowditch_L(Slope(n, p), depth=0).case == "exceptional-2"
        assert bowditch_L(Slope(n, p), depth=0).extra_orbits == (Slope(n + 1, p),)
        assert bowditch_L(Slope(2, p), depth=0).case == "exceptional-3"
        assert bowditch_L(Slope(2, p), depth=0).extra_orbits == (Slope(1, p),)
        mirrored = bowditch_L(Slope(n + 1, p), depth=0)
        assert mirrored.mirrored and mirrored.case == "exceptional-2"
    assert bowditch_L(Slope(2, 5), depth=0).extra_orbits == (Slope(1, 5), Slope(3, 5))
    for rs in ((2, 5), (3, 7), (5, 17)):
        r = Slope(*rs)
        prev = None
        for depth in (0, 2, 4, 6):
            system = gap_intervals(r, depth)
            for g1, g2 in zip(system.gaps, system.gaps[1:]):
                assert g1.right <= g2.left
            assert all(not g.contains(r) for g in system.gaps)
            cov = system.covered_length()
            assert cov < 1
            if prev is not None:
                assert cov >= prev
            prev = cov
    print("\n[PASS] criterion 10: exceptional families to p <= 101, gaps sane")


def test_criterion_11_link_symmetries(identity_reports):
    """K(q'/p) = K(q/p) for q q' = 1 mod p, and K((p-q)/p) is the mirror of
    K(q/p): lambda(mirror) = -conj(lambda) - 4/components.  Composing the
    two, q q' = -1 mod p also gives the mirror.  All to 1e-8."""
    def mirrored(rep):
        return -rep.lambda_link.conjugate() - 4.0 / rep.components

    for r, rep in identity_reports.items():
        q, p = r.num, r.den
        inverse = identity_reports[Slope(pow(q, -1, p), p)]
        assert abs(inverse.lambda_link - rep.lambda_link) <= 1e-8, r
        mirror = identity_reports[Slope(p - q, p)]
        assert abs(mirror.lambda_link - mirrored(rep)) <= 1e-8, r
        mirror_inverse = identity_reports[Slope(p - pow(q, -1, p), p)]
        assert abs(mirror_inverse.lambda_link - mirrored(rep)) <= 1e-8, r
    print("\n[PASS] criterion 11: link symmetries on %d slopes" % len(identity_reports))


def test_criterion_12_lambda_matches_reference(identity_reports):
    """lambda_link equals the benchmark's reference output to 1e-8 on every
    slope it lists (the 134 census slopes, p <= 24)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())["slopes"]
    assert len(reference) == 134
    for text, ref in reference.items():
        rep = identity_reports[Slope.parse(text)]
        assert abs(rep.lambda_link - complex(*ref["lambda_link"])) <= 1e-8, text
    print("\n[PASS] criterion 12: lambda matches the reference on %d slopes"
          % len(reference))
