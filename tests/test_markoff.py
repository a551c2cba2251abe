"""Trace polynomials, roots and translation lengths."""

import cmath
import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from slope_oracles import opposite_vertex
from twobridge import kernels, markoff
from twobridge.errors import (
    DomainError,
    EllipticTraceError,
    InternalError,
    NoGeometricRootError,
    RootFindingError,
)
from twobridge.markoff import (
    MarkoffEvaluation,
    TracePolynomial,
    geometric_evaluation,
    polynomial_roots,
    select_geometric_root,
    trace_polynomial,
    translation_length,
)
from twobridge.mcshane import boundary_edge_sets, h
from twobridge.slopes import INFINITY, Slope, farey_chain, is_hyperbolic

S25 = Slope(2, 5)

def _sympy_trace_polynomial(r):
    """Independent symbolic oracle: the same chain recursion pushed through
    sympy's polynomial arithmetic."""
    x = sympy.Symbol("x")
    chain = farey_chain(r)
    values = {INFINITY: sympy.Integer(0), Slope(0, 1): x,
              Slope(1, 1): sympy.I * x}
    current = dict(values)
    for prev, tri in zip(chain, chain[1:]):
        (fresh,) = [v for v in tri if v not in prev]
        dropped = next(v for v in prev if v not in tri)
        kept = [v for v in tri if v != fresh]
        current = {
            kept[0]: current[kept[0]],
            kept[1]: current[kept[1]],
            fresh: sympy.expand(current[kept[0]] * current[kept[1]]
                                - current[dropped]),
        }
    return sympy.Poly(current[r], x)


class TestTracePolynomial:
    def test_figure_eight(self):
        poly = trace_polynomial(S25)
        # -x (x^4 - x^2 + 1)
        assert poly.coeffs == (0, -1, 0, 1, 0, -1)

    def test_always_divisible_by_x(self):
        for p in range(5, 21):
            for q in range(2, p):
                if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p)):
                    assert trace_polynomial(Slope(q, p)).coeffs[0] == 0

    def test_single_parity_up_to_p40(self):
        """x -> -x sends every trace to +-itself, so the nonzero coefficients
        of each trace polynomial sit at powers of x of one parity."""
        slopes = [Slope(q, p) for p in range(3, 41) for q in range(1, p)
                  if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]
        assert len(slopes) == 412
        for r in slopes:
            poly = trace_polynomial(r)
            assert len({k % 2 for k, c in enumerate(poly.coeffs) if c}) == 1

    def test_mixed_parity_raises(self):
        even = TracePolynomial([1, 0, -3])
        odd = TracePolynomial([0, 2, 0, -1])
        for poly in (even, odd):
            assert markoff._check_sign_symmetry(poly, S25) is poly
        mixed = TracePolynomial([0, 1, 1])  # x + x^2
        with pytest.raises(InternalError, match="mixes even and odd powers"):
            markoff._check_sign_symmetry(mixed, S25)

    @pytest.mark.parametrize("r", [(2, 5), (3, 7), (3, 8), (5, 17), (4, 13)])
    def test_sympy_oracle(self, r):
        """phi(q/p) = i^(q mod 2) psi(x), exactly, against the recursion on
        phi in sympy's Gaussian arithmetic."""
        poly = trace_polynomial(Slope(*r))
        oracle = _sympy_trace_polynomial(Slope(*r))
        x = oracle.gens[0]
        psi = sum(c * x ** k for k, c in enumerate(poly.coeffs))
        assert sympy.expand(sympy.I ** (r[0] % 2) * psi - oracle.as_expr()) == 0

    def test_symbolic_matches_numeric_recursion(self):
        """On every hyperbolic slope with p <= 64, the numeric walk
        ``MarkoffEvaluation.phi(r)`` at a random x equals
        i^(q mod 2) psi_r(x), the parity fact ``trace_polynomial`` rests on,
        to 1e-10 relative.  psi_r(x) is evaluated at 60 digits: Horner's
        rule in doubles on the expanded coefficients loses every digit on
        2/53."""
        random.seed(3)
        slopes = _hyperbolic(64)
        assert len(slopes) == 1134
        for r in slopes:
            poly = trace_polynomial(r)
            x = complex(random.uniform(0.5, 2), random.uniform(-1, 1))
            ev = MarkoffEvaluation(r, x, poly.edges)
            num = ev.phi(r)
            with mpmath.workdps(60):
                sym = complex(1j ** (r.num % 2) * mpmath.polyval(
                    [mpmath.mpf(c) for c in reversed(poly.coeffs)], mpmath.mpc(x)))
            assert abs(num - sym) <= 1e-10 * max(1.0, abs(sym)), r


class TestPolynomialRoots:
    def test_quartic(self):
        # x^4 - x^2 + 1: roots are the primitive 12th roots of unity
        poly = TracePolynomial([1, 0, -1, 0, 1])
        roots = sorted(polynomial_roots(poly), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        expected = sorted(
            [cmath.exp(1j * cmath.pi * k / 6) for k in (1, 5, 7, 11)],
            key=lambda z: (round(z.real, 6), round(z.imag, 6)),
        )
        for a, b in zip(roots, expected):
            assert abs(a - b) < 1e-12

    def test_exact_multiplicities(self):
        # x (x - 1)^3 (x^2 + 1)^2, neither even nor odd
        poly = TracePolynomial(_product([[0, 1]] + [[-1, 1]] * 3 + [[1, 0, 1]] * 2))
        roots = polynomial_roots(poly)
        assert roots.count(0j) == 1
        ones = [z for z in roots if abs(z - 1) < 1e-6]
        assert len(ones) == 3 and len(set(ones)) == 1 and abs(ones[0] - 1) < 1e-14
        for unit in (1j, -1j):
            near = [z for z in roots if abs(z - unit) < 1e-6]
            assert len(near) == 2 and len(set(near)) == 1

    def test_simple_cases(self):
        assert sorted(polynomial_roots(TracePolynomial([1, 0, 1])),
                      key=lambda z: z.imag) == [-1j, 1j]
        roots = polynomial_roots(TracePolynomial([0, -2, 1]))
        assert sorted(z.real for z in roots) == pytest.approx([0.0, 2.0])

    def test_residual_bound_and_numpy_crosscheck(self):
        for p in range(5, 26):
            qs = [q for q in range(2, p)
                  if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]
            if not qs:
                continue
            poly = trace_polynomial(Slope(qs[0], p))
            roots = polynomial_roots(poly)
            assert len(roots) == poly.degree
            bound = 1e-10 * poly.max_coeff_abs()
            for z in roots:
                value, _ = markoff._horner(poly.coeffs[::-1], z)
                assert abs(value) <= bound * (1 + abs(z)) ** poly.degree
            np_roots = np.roots([float(c) for c in reversed(poly.coeffs)])
            got = sorted(roots, key=lambda z: (round(z.real, 7), round(z.imag, 7)))
            want = sorted(np_roots, key=lambda z: (round(z.real, 7), round(z.imag, 7)))
            for a, b in zip(got, want):
                assert abs(a - b) < 1e-6 * (1 + abs(b))

    def test_polish_width_read_off_the_roots(self, monkeypatch):
        """The polish width is read off the double roots: _FIX_BITS on every
        trace polynomial with p <= 24 but one, and wider where the noise
        bound of a root asks for it, as on 3/56 and 5/56.  The one is the
        first attempt on 7/24's Q, whose approximations cluster at its
        triple root y = 1 and which fails before Q is split: 168 bits."""
        widths = []
        width = markoff._polish_width
        monkeypatch.setattr(markoff, "_polish_width", lambda poly, z: (
            widths.append((r, poly.degree, width(poly, z))) or widths[-1][2]))
        for r in _hyperbolic(24):
            polynomial_roots(trace_polynomial(r))
        assert {f for _, _, f in widths} == {markoff._FIX_BITS, 168}
        assert [(r, n) for r, n, f in widths if f == 168] == [(Slope(7, 24), 11)]
        assert [f for r, _, f in widths if r == Slope(7, 24)][0] == 168
        for r in (Slope(3, 56), Slope(5, 56)):
            widths.clear()
            polynomial_roots(trace_polynomial(r))
            assert [f for _, _, f in widths] == [192]

    @pytest.mark.parametrize("r", [(5, 27), (9, 17), (39, 41), (2, 47),
                                   (3, 43), (3, 46), (7, 47), (3, 56), (5, 56)])
    def test_roots_correctly_rounded(self, r):
        """Each root is the double nearest the exact root, at 80 digits
        (``_assert_correctly_rounded``).  On 2/47 the cluster near
        +-1.98218 +- 0.00076i is ill-conditioned in x: its roots certify in
        y = x^2, and each x = sqrt(y) is taken from the y polished against
        Q.  The roots
        of 3/43, 3/46 and 7/47 did not certify in double precision while
        Aberth evaluated Q by Horner's rule.  3/56 and 5/56 are polished at
        192 bits, read off their roots; at a fixed 160 bits two real roots
        of 5/56 come out with imaginary part 1.5e-36."""
        poly = trace_polynomial(Slope(*r))
        k = poly.content_power_of_x()
        roots = polynomial_roots(poly)
        assert roots[:k] == [0j] * k
        _assert_correctly_rounded(poly.shift_down(k), roots[k:], 80)
        if r == (5, 27):
            assert 1 + 0j in roots

    @pytest.mark.slow
    def test_roots_correctly_rounded_at_large_p(self):
        """Every root of 3/200 (degree 200 in x, coefficients of up to 132
        bits) is correctly rounded at 300 digits, and so each of its 64
        nonzero real roots has imaginary part exactly 0 (28 of them had
        parts of 2e-99 to 2e-81 while the width was not read off the
        roots)."""
        poly = trace_polynomial(Slope(3, 200))
        k = poly.content_power_of_x()
        roots = polynomial_roots(poly)
        assert roots[:k] == [0j] * k
        _assert_correctly_rounded(poly.shift_down(k), roots[k:], 300)
        assert sum(z.imag == 0 for z in roots[k:]) == 64

    def test_double_roots_certified_up_to_p30(self, monkeypatch):
        """Every Newton polish of a returned root y settles on its step
        test, and the roots certify, on every trace polynomial with p <= 30
        and on 43/45, 39/46, 45/47, 2/47, 42/47, 3/43, 3/46 and 7/47.
        Horner's double roots of the last five did not all settle or
        certify at 160 bits; the walk's do.  The only failed attempts are
        the first ones on 7/24's and 17/24's Q (11 polishes each) and on
        their gcds (y -+ 1)^2 (2 each), before each is split."""
        settled, attempt, failed = [], [], []
        newton = markoff._newton_fixed
        certify = markoff._certified_roots

        def recording(coeffs, a, b, f):
            result = newton(coeffs, a, b, f)
            attempt.append(result[2])
            return result

        def attempted(poly, coeffs, evaluate):
            attempt.clear()
            try:
                result = certify(poly, coeffs, evaluate)
            except RootFindingError:
                failed.append((r, poly.degree, len(attempt)))
                raise
            settled.extend(attempt)
            return result

        monkeypatch.setattr(markoff, "_newton_fixed", recording)
        monkeypatch.setattr(markoff, "_certified_roots", attempted)
        slopes = [Slope(q, p) for p in range(3, 31) for q in range(1, p)
                  if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]
        assert len(slopes) == 220
        slopes += [Slope(43, 45), Slope(39, 46), Slope(45, 47), Slope(2, 47),
                   Slope(42, 47), Slope(3, 43), Slope(3, 46), Slope(7, 47)]
        for r in slopes:
            poly = trace_polynomial(r)
            assert len(polynomial_roots(poly)) == poly.degree
        assert len(settled) == 2365 and all(settled)  # one per simple root y
        assert failed == [(Slope(7, 24), 11, 11), (Slope(7, 24), 2, 2),
                          (Slope(17, 24), 11, 11), (Slope(17, 24), 2, 2)]
        assert len(settled) + sum(n for _, _, n in failed) == 2391

    def test_duplicated_approximation_fails_certification(self, monkeypatch):
        """Two approximations of one root leave another root uncovered;
        their disks meet, whether the two are equal or merely close.  Q is
        solved in y with the walk, as ``polynomial_roots`` solves it
        (Aberth with Horner's rule does not converge on 2/53).  The disks
        evaluate Q only exactly: on 2/53 and 13/64 a double evaluation of
        Q(z_i) bounds no disk small enough to separate the roots."""

        def evaluated(*args):
            raise AssertionError("the disks evaluate Q in doubles")

        for r in ("3/7", "2/53", "13/64"):
            poly = trace_polynomial(Slope.parse(r))
            k = poly.content_power_of_x()
            q = TracePolynomial(poly.shift_down(k).coeffs[::2])
            assert markoff._squarefree_split(q)[1].degree == 0, r
            roots, _, _ = markoff._certified_roots(
                q, markoff._double_coeffs(q), markoff._walk(poly.edges.turns, k))
            with monkeypatch.context() as m:
                m.setattr(markoff, "_horner", evaluated)
                m.setattr(markoff, "_double_coeffs", evaluated)
                assert markoff._overlapping_disks(q, roots) == [], r
                for copy in (roots[0], roots[0] * (1 + 1e-9)):
                    assert (0, 1) in markoff._overlapping_disks(
                        q, [roots[0], copy] + roots[2:]), r

    def test_exact_residual_once_per_root(self, monkeypatch):
        """The disks bound |Q(z_i)| exactly once per root of each
        squarefree part, in the order the roots are certified, on every
        trace polynomial with p <= 24; 7/24 and 17/24 certify their
        squarefree part and their gcd."""
        bounded, certified = [], []
        exact = markoff._exact_residual
        monkeypatch.setattr(markoff, "_exact_residual", lambda poly, z: (
            bounded.append((poly.coeffs, z)) or exact(poly, z)))
        certify = markoff._certified_roots

        def recording(poly, coeffs, evaluate):
            result = certify(poly, coeffs, evaluate)
            certified.extend((poly.coeffs, z) for z in result[0])
            return result

        monkeypatch.setattr(markoff, "_certified_roots", recording)
        slopes = _hyperbolic(24)
        for r in slopes:
            polynomial_roots(trace_polynomial(r))
        assert len(bounded) > len(slopes) and bounded == certified

    def test_inseparable_roots_raise(self):
        """1 and 1 + 2**-60 round to the same double, and their double
        approximations lie about 1e-8 from 1, where Newton's polish moves
        linearly: a RootFindingError names both, with the width, and
        nothing is retried at a greater width."""
        e = 2 ** 60
        poly = TracePolynomial([e + 1, -(2 * e + 1), e])
        with pytest.raises(RootFindingError, match="did not settle in 6 steps "
                           "at 160 bits for 2 of 2 roots") as info:
            polynomial_roots(poly)
        named = info.value.partial_roots
        assert all(abs(z - 1) < 1e-7 for z in named)
        assert str(info.value).endswith(", ".join(format(z, ".6g") for z in named))

    def test_non_finite_root_fails_residual_check(self, monkeypatch):
        """A NaN among the polished roots of a squarefree part gets no exact
        residual bound (``float.as_integer_ratio`` would raise ValueError)
        but infinity, and its disk meets the others: the RootFindingError
        of the inclusion disks names it."""
        rounded = []
        round_fixed = markoff._round_fixed

        def first_nan(a, b, f):
            rounded.append(round_fixed(a, b, f))
            return complex("nan+nanj") if len(rounded) == 1 else rounded[-1]

        bounded = []
        exact = markoff._exact_residual
        monkeypatch.setattr(markoff, "_round_fixed", first_nan)
        monkeypatch.setattr(markoff, "_exact_residual", lambda poly, z: (
            bounded.append(z) or exact(poly, z)))
        with pytest.raises(RootFindingError, match=r"^inclusion disks overlap "
                           r"at 160 bits: nan\+nanj and \S+, nan\+nanj and ") as info:
            polynomial_roots(trace_polynomial(Slope(3, 7)))
        assert len(info.value.partial_roots) == 3
        assert cmath.isnan(info.value.partial_roots[0])
        assert bounded == rounded[1:]

    def test_non_finite_approximation_raises(self, monkeypatch):
        """A NaN among the double approximations bounds no polish width:
        a RootFindingError says so, and nothing restarts it.  Nor is P
        split: a walk that left double range is no cluster at a repeated
        root."""
        aberth = markoff._aberth

        def one_nan(coeffs, evaluate):
            return [complex("nan+nanj")] + aberth(coeffs, evaluate)[1:]

        def unreached(poly):
            raise AssertionError("split after a non-finite approximation")

        monkeypatch.setattr(markoff, "_aberth", one_nan)
        monkeypatch.setattr(markoff, "_squarefree_split", unreached)
        with pytest.raises(RootFindingError,
                           match="bound no polish width: 1 of 3 are not "
                                 "finite") as info:
            polynomial_roots(trace_polynomial(Slope(3, 7)))
        assert cmath.isnan(info.value.partial_roots[0])

    def test_exact_gcd_only_for_repeated_roots(self, monkeypatch):
        """The inclusion disks certify every other trace polynomial with
        p <= 30, which proves it squarefree, so only 7/24 and 17/24 run the
        exact split over Z: once on Q, and once on its gcd (y -+ 1)^2."""
        exact_split = markoff._squarefree_split
        calls = []

        def counted(poly):
            calls.append(r)
            return exact_split(poly)

        monkeypatch.setattr(markoff, "_squarefree_split", counted)
        for p in range(3, 31):
            for q in range(1, p):
                r = Slope(q, p)
                if math.gcd(q, p) == 1 and is_hyperbolic(r):
                    poly = trace_polynomial(r)
                    assert len(polynomial_roots(poly)) == poly.degree
        assert calls == [Slope(7, 24)] * 2 + [Slope(17, 24)] * 2

    def test_square_root_taken_only_from_a_settled_y(self, monkeypatch):
        """x is the fixed-point square root of y's polished value, and y's
        Newton polish settled on its step test.  On 42/47 and 2/47 every
        one of the 23 polishes settles, the clusters near y = -3.58
        included, and the root 1.8969000191973682j of 42/47 comes out
        exactly, real part +0.0."""
        settled = []
        newton = markoff._newton_fixed
        monkeypatch.setattr(markoff, "_newton_fixed", lambda *args: (
            settled.append(newton(*args)[2]) or newton(*args)))
        roots = {}
        for r in ("42/47", "2/47"):
            settled.clear()
            roots[r] = polynomial_roots(trace_polynomial(Slope.parse(r)))
            assert settled == [True] * 23
        root = 1.8969000191973682j
        [z] = [z for z in roots["42/47"] if z == root]
        assert math.copysign(1.0, z.real) == 1.0 and -root in roots["42/47"]

    @pytest.mark.parametrize("factors", [
        # 6 (y - 1)^2 (y + 1): a content that is not a unit
        [[6], [-1, 1], [-1, 1], [1, 1]],
        # 12 (y - 2)^3 (y^2 + 1)^2 (y + 3)
        [[12]] + [[-2, 1]] * 3 + [[1, 0, 1]] * 2 + [[3, 1]],
        # (3y^2 + 7)^2 (5y - 1): a repeated factor with no root in Q
        [[7, 0, 3]] * 2 + [[-1, 5]],
        # squarefree, content 4: the gcd is a unit
        [[4], [-1, 1], [1, 1]],
    ])
    def test_squarefree_split_matches_q_i(self, factors):
        """The exact split in Z[x] gives the squarefree part P / gcd(P, P')
        over Q, coefficient for coefficient, and a gcd whose monic associate
        is the monic gcd over Q (``_q_split``)."""
        poly = TracePolynomial(_product(factors))
        square_free, gcd = markoff._squarefree_split(poly)
        want_free, want_gcd = _q_split(poly)
        assert square_free.coeffs == want_free
        assert [Fraction(c, gcd.coeffs[-1]) for c in gcd.coeffs] == want_gcd

    def test_squarefree_split_of_repeated_trace_polynomials(self):
        """On 7/24 and 17/24, whose trace polynomials in y = x^2 have a
        repeated factor, the split agrees with Euclid over Q, and their
        roots keep their multiplicities."""
        for r in (Slope(7, 24), Slope(17, 24)):
            poly = trace_polynomial(r)
            poly = poly.shift_down(poly.content_power_of_x())
            base = TracePolynomial(poly.coeffs[::2])
            square_free, gcd = markoff._squarefree_split(base)
            assert (square_free.coeffs, gcd.degree) == (_q_split(base)[0], 2)
            roots = [z for z in polynomial_roots(trace_polynomial(r)) if z]
            assert len(roots) == poly.degree
            assert len(set(roots)) == len(roots) - 4  # two repeated y, +-x each

    def test_unsettled_polish_raises(self, monkeypatch):
        """A Newton polish of y that does not settle raises, with no polish
        of x to fall back on: with one Newton step allowed, neither root of
        2/5 in y settles, and a RootFindingError names both and the
        width."""
        monkeypatch.setattr(markoff, "_POLISH_ROUNDS", 1)
        with pytest.raises(RootFindingError,
                           match=r"did not settle in 1 steps at 160 bits "
                                 r"for 2 of 2 roots: \S+, \S+$") as info:
            polynomial_roots(trace_polynomial(Slope(2, 5)))
        assert len(info.value.partial_roots) == 2

    def test_residual_checked_once_per_sign_class(self, monkeypatch):
        """The exact residual behind the inclusion disks is bounded once
        per root y of Q, so once per pair x, -x of roots of P(x) = x Q(x^2);
        x = 0, split off exactly as a power of x, is not checked."""
        checked = []
        exact = markoff._exact_residual
        monkeypatch.setattr(markoff, "_exact_residual", lambda poly, z: (
            checked.append(z) or exact(poly, z)))
        roots = polynomial_roots(trace_polynomial(Slope(5, 17)))
        classes = {max(z, -z, key=markoff._representative_key) for z in roots}
        assert 0 in classes
        assert len(checked) == len(classes) - 1 < len(roots)
        for x in classes - {0}:
            assert min(abs(x * x - y) for y in checked) <= 1e-12 * abs(x * x)

    def test_huge_leading_coefficient_gives_distinct_roots(self):
        # p x^2 + x + 1, p = 2^64 - 59, is squarefree
        roots = polynomial_roots(TracePolynomial([1, 1, 2 ** 64 - 59]))
        assert len(set(roots)) == 2

    def test_repeated_factor_split_after_failed_certificate(self):
        """(x - 1)^3 (x + 2) (x^2 + x + 5), no trace polynomial: the
        approximations cluster at 1, the certificate fails, and the exact
        split gives x = 1 exactly, three times."""
        poly = TracePolynomial(_product([[-1, 1]] * 3 + [[2, 1], [5, 1, 1]]))
        roots = polynomial_roots(poly)
        assert len(roots) == 6 and roots.count(1 + 0j) == 3
        assert sum(abs(z - 1) < 1e-6 for z in roots) == 3

    def test_failed_certificate_of_squarefree_polynomial_reraises(
            self, monkeypatch):
        """On a squarefree trace polynomial whose disks are made to meet,
        the split finds a trivial gcd, once, and the certificate's own
        error is raised."""
        gcds = []
        split = markoff._squarefree_split
        monkeypatch.setattr(markoff, "_squarefree_split", lambda poly: (
            gcds.append(split(poly)[1].coeffs) or split(poly)))
        monkeypatch.setattr(markoff, "_overlapping_disks",
                            lambda poly, z: [(0, 1)])
        with pytest.raises(RootFindingError,
                           match="^inclusion disks overlap at 160 bits: "):
            polynomial_roots(trace_polynomial(Slope(3, 7)))
        assert len(gcds) == 1 and len(gcds[0]) == 1

    @pytest.mark.parametrize("name, stub, message", [
        ("_ABERTH_ROUNDS", 1, "did not converge in 1 rounds"),
        ("_aberth", lambda coeffs, evaluate, aberth=markoff._aberth: (
            lambda z: z[:1] + z[:-1])(aberth(coeffs, evaluate)), "coincide"),
        ("_POLISH_ROUNDS", 1, "did not settle in 1 steps"),
        ("_overlapping_disks", lambda poly, z: [(0, 1)],
         "inclusion disks overlap"),
    ], ids=["aberth", "coincident", "unsettled", "overlap"])
    def test_certificate_errors_carry_approximations(self, monkeypatch, name,
                                                     stub, message):
        """Each RootFindingError the split fallback catches carries the
        approximations, all of them finite here: the fallback reads them to
        tell a cluster at a repeated root from a walk that left double
        range."""
        monkeypatch.setattr(markoff, name, stub)
        with pytest.raises(RootFindingError, match=message) as info:
            polynomial_roots(trace_polynomial(Slope(3, 7)))
        approximations = info.value.partial_roots
        assert len(approximations) == 3
        assert all(map(cmath.isfinite, approximations))

    def test_repeated_factors_up_to_p64(self):
        """The fact the split fallback leans on: only 7/24 and 17/24 have a
        repeated factor in y among the hyperbolic slopes with p <= 64."""
        assert _repeated_factors(64) == {Slope(7, 24): (1, -2, 1),
                                         Slope(17, 24): (1, 2, 1)}

    @pytest.mark.slow
    def test_repeated_factors_up_to_p130(self):
        assert _repeated_factors(130) == {Slope(7, 24): (1, -2, 1),
                                          Slope(17, 24): (1, 2, 1)}

    def test_coefficient_past_double_range_named(self):
        """A coefficient past the largest double raises a RootFindingError
        that names its bit length, before anything is converted to a
        double (``float`` would raise OverflowError)."""
        poly = TracePolynomial([1, 0, 2 ** 1100])
        with pytest.raises(RootFindingError,
                           match="coefficient of 1101 bits lies past the "
                                 "1024-bit range of a double"):
            polynomial_roots(poly)

    def test_range_named_before_any_root_work(self, monkeypatch):
        """2/1601's coefficient of 1 105 bits is named before Aberth runs,
        and before any exact split."""
        def unreached(*args):
            raise AssertionError("root work before the range check")

        monkeypatch.setattr(markoff, "_aberth", unreached)
        monkeypatch.setattr(markoff, "_squarefree_split", unreached)
        with pytest.raises(RootFindingError, match="coefficient of 1105 bits"):
            polynomial_roots(trace_polynomial(Slope(2, 1601)))


def _repeated_factors(pmax):
    """{r: gcd(Q, Q')} over the hyperbolic slopes with p <= pmax whose Q,
    psi(r) / x^k in y = x^2, has a repeated factor; each gcd ascending,
    primitive, with a positive leading coefficient."""
    repeated = {}
    for r in _hyperbolic(pmax):
        poly = trace_polynomial(r)
        k = poly.content_power_of_x()
        q = TracePolynomial(poly.shift_down(k).coeffs[::2])
        gcd = markoff._squarefree_split(q)[1].coeffs
        if len(gcd) > 1:
            repeated[r] = tuple(c if gcd[-1] > 0 else -c for c in gcd)
    return repeated


def _product(factors):
    """The ascending int coefficients of the product of the ascending
    coefficient lists ``factors``."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _q_split(poly):
    """Reference for ``markoff._squarefree_split``, by Euclid over Q:
    (the coefficients of lcm(denominators) P / g, g the monic gcd of P and
    P', and those of g), ascending, as ints and Fractions."""
    def monic(a):
        return [c / a[-1] for c in a]

    def divmod_monic(a, b):
        a, quotient = list(a), [0] * (len(a) - len(b) + 1)
        for k in range(len(quotient) - 1, -1, -1):
            lead = quotient[k] = a[k + len(b) - 1]
            for i, c in enumerate(b):
                a[k + i] -= lead * c
        remainder = a[:len(b) - 1]
        while remainder and remainder[-1] == 0:
            remainder.pop()
        return quotient, remainder

    a = [Fraction(c) for c in poly.coeffs]
    b = [Fraction(c) for c in poly.derivative().coeffs]
    p = a
    while b:
        b = monic(b)
        a, b = b, divmod_monic(a, b)[1]
    gcd = monic(a)
    quotient = divmod_monic(p, gcd)[0]
    scale = math.lcm(*(c.denominator for c in quotient))
    return tuple(int(c * scale) for c in quotient), gcd


def _assert_correctly_rounded(poly, roots, digits):
    """Each of ``roots`` is the double nearest a root of ``poly``: Newton at
    ``digits`` digits from it, rounded once, gives it back, and no two
    refine onto the same root.  So a root whose exact value is real comes
    out with imaginary part exactly 0.  The mpmath coefficients are built
    inside ``workdps``: outside it mpmath rounds them to 53 bits."""
    limits = []
    with mpmath.workdps(digits):
        coeffs = [mpmath.mpf(c) for c in reversed(poly.coeffs)]
        for z in roots:
            w = mpmath.mpc(z)
            for _ in range(8):
                value, slope = mpmath.polyval(coeffs, w, derivative=True)
                w -= value / slope
            assert z == complex(w), z
            limits.append(w)
        assert all(abs(a - b) > 1e-30 for i, a in enumerate(limits)
                   for b in limits[:i])


class TestGeometricSelection:
    def test_figure_eight_root(self, ev25):
        assert abs(abs(ev25.root) - 1.0) < 1e-12
        assert min(abs(ev25.root - cmath.exp(1j * cmath.pi * k / 6))
                   for k in (1, 5, 7, 11)) < 1e-12
        # the selected class gives Im lambda(O) > 0
        from twobridge.mcshane import finite_edge_sums
        s1, _ = finite_edge_sums(S25, ev25)
        assert (2 * s1).imag > 0

    def test_zero_root_rejected(self):
        poly = trace_polynomial(S25)
        roots = polynomial_roots(poly)
        ev = select_geometric_root(roots, S25)
        for cand in ev.selection.candidates:
            if abs(cand.root) < 1e-9:
                assert not cand.passed

    def test_no_root_for_garbage(self):
        with pytest.raises(NoGeometricRootError) as info:
            select_geometric_root([0.2 + 0.1j], S25)
        [cand] = info.value.report.candidates
        assert not cand.passed and cand.reason.startswith("edge-sum")

    def test_scan_failure_names_its_cause(self, evaluation_for):
        """4/9's one scan-rejected class names the slope of its first small
        trace outside A(4/9) = {5/9} and the nodes its scan spent."""
        reasons = [c.reason for c in evaluation_for(Slope(4, 9)).selection.candidates
                   if not c.passed]
        off = re.compile(r"small trace \S+ at (\S+), off the Farey chain and "
                         r"outside A\(r\) = \{5/9\}, after (\d+) nodes")
        named = [m.groups() for m in map(off.match, reasons) if m]
        assert named == [("1/4", "2")]

    @pytest.mark.parametrize("r, exact", [((7, 24), 1), ((17, 24), 1j)])
    def test_exact_root_class_listed_once_and_rejected_unscanned(
            self, r, exact, evaluation_for, monkeypatch):
        """x = +-1 (7/24) and x = +-i (17/24) are multiple roots: one class
        each, rejected by a zero chain trace before any census scan."""
        from twobridge import mcshane
        r = Slope(*r)
        near = [c for c in evaluation_for(r).selection.candidates
                if min(abs(c.root - exact), abs(c.root + exact)) < 1e-4]
        assert len(near) == 1

        roots = [z for z in polynomial_roots(trace_polynomial(r))
                 if min(abs(z - exact), abs(z + exact)) < 1e-4]
        assert len(roots) > 2  # both signs, each with multiplicity

        def no_scan(*args, **kwargs):
            raise AssertionError("census_scan ran")

        monkeypatch.setattr(mcshane, "census_scan", no_scan)
        with pytest.raises(NoGeometricRootError) as info:
            select_geometric_root(roots, r)
        [cand] = info.value.report.candidates
        assert cand.root == exact and cand.reason.startswith("zero trace")

    @pytest.mark.parametrize("r, exact", [((5, 27), 1), ((22, 27), 1j)])
    def test_exact_simple_root_rejected_by_zero_trace(self, r, exact,
                                                      evaluation_for):
        """x = 1 (5/27) and x = i (22/27) are simple roots, found exactly; a
        chain trace vanishes there."""
        [cand] = [c for c in evaluation_for(Slope(*r)).selection.candidates
                  if c.root == exact]
        assert not cand.passed and cand.reason.startswith("zero trace")

    def test_chain_built_once(self, count_farey_chains):
        geometric_evaluation(Slope(5, 17))
        assert count_farey_chains == [Slope(5, 17)]

    def test_report_independent_of_root_order(self, monkeypatch):
        """The root classes are judged in the order of their
        representatives, so reversing the root finder's output leaves the
        selection report of 4/9, and the lines of a NoGeometricRootError,
        as they were."""
        r = Slope(4, 9)
        want = geometric_evaluation(r).selection
        keys = [markoff._representative_key(c.root) for c in want.candidates]
        assert keys == sorted(keys) and len(keys) > 2
        original = markoff.polynomial_roots
        monkeypatch.setattr(markoff, "polynomial_roots",
                            lambda poly: original(poly)[::-1])
        assert geometric_evaluation(r).selection == want

        roots = original(trace_polynomial(Slope(3, 7)))  # not 2/5's roots
        messages = set()
        for order in (roots, roots[::-1]):
            with pytest.raises(NoGeometricRootError) as info:
                select_geometric_root(order, S25)
            messages.add(str(info.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("r", [(3, 7), (5, 17), (3, 8), (5, 12)])
    def test_constraint_residual(self, r, evaluation_for):
        ev = evaluation_for(Slope(*r))
        assert abs(ev.phi(ev.r)) < 1e-9


class TestEvaluatePhi:
    def test_normalisation(self, ev25):
        assert ev25.phi(INFINITY) == 0
        assert ev25.phi(Slope(0, 1)) == ev25.root
        assert ev25.phi(Slope(1, 1)) == 1j * ev25.root

    def test_one_flip(self, ev25):
        assert abs(ev25.phi(Slope(1, 2)) - 1j * ev25.root ** 2) < 1e-14

    def test_defining_constraint(self, ev25):
        assert abs(ev25.phi(S25)) < 1e-10

    def test_outside_unit_interval(self, ev25):
        # integer fan: phi(k+1) = -phi(k-1)
        assert abs(ev25.phi(Slope(2, 1)) + ev25.root) < 1e-14
        assert abs(ev25.phi(Slope(-1, 1)) + 1j * ev25.root) < 1e-14
        v = ev25.phi(Slope(-2, 7))
        assert v == ev25.phi(Slope(-2, 7))  # cached and stable

    def test_path_independence(self, ev25):
        """phi from the canonical walk equals phi recovered through the edge
        relation from a deeper triangle, a genuinely different path."""
        random.seed(9)
        for _ in range(60):
            den = random.randint(2, 100)
            num = random.randint(1, den - 1)
            if math.gcd(num, den) != 1:
                continue
            s = Slope(num, den)
            direct = ev25.phi(s)
            # parents u, v of s in the Stern-Brocot tree: s = mediant(u, v)
            u, v = _stern_brocot_parents(s)
            sibling = ev25.phi(u) * ev25.phi(v) - ev25.phi(s)  # opposite vertex
            assert abs(sibling - ev25.phi(opposite_vertex(u, v, s))) < 1e-9 * max(1.0, abs(sibling))
            if abs(ev25.phi(u)) < 1e-3:
                continue  # null-homotopic slope: the division path degenerates
            deeper = ev25.phi(u.mediant(s))
            # in the triangle <u, mediant(u,s), s>: the edge <u, s> relation
            alt = (deeper + ev25.phi(v)) / ev25.phi(u)
            assert abs(alt - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_edge_relation_randomised(self):
        random.seed(17)
        ev = MarkoffEvaluation(S25, 1.1 - 0.7j, boundary_edge_sets(S25))
        count = 0
        while count < 200:
            den = random.randint(2, 60)
            num = random.randint(1, den - 1)
            if math.gcd(num, den) != 1:
                continue
            s = Slope(num, den)
            u, v = _stern_brocot_parents(s)
            lhs = ev.phi(opposite_vertex(u, v, s)) + ev.phi(s)
            rhs = ev.phi(u) * ev.phi(v)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            count += 1

    def test_markoff_equation_on_chain(self, evaluation_for):
        for r in (S25, Slope(5, 17), Slope(5, 12)):
            ev = evaluation_for(r)
            for tri in ev.edges.triangles:
                x, y, z = (ev.phi(v) for v in tri)
                scale = max(1.0, abs(x), abs(y), abs(z)) ** 3
                assert abs(x * x + y * y + z * z - x * y * z) <= 1e-10 * scale


def _stern_brocot_parents(s):
    lo, hi = Slope(0, 1), Slope(1, 1)
    if s == lo.mediant(hi):
        return lo, hi
    while True:
        med = lo.mediant(hi)
        if med == s:
            return lo, hi
        if s < med:
            hi = med
        else:
            lo = med


class TestTranslationLength:
    def test_parabolic(self):
        assert translation_length(2.0) == 0
        assert translation_length(-2.0 + 5e-12j) == 0

    def test_inverse_of_cosh(self):
        l = translation_length(2 * cmath.cosh(0.5 + 0.3j))
        assert abs(l - (1.0 + 0.6j)) < 1e-12

    def test_real_trace(self):
        l = translation_length(3.0)
        assert abs(l - 1.9248473002384139) < 1e-12

    def test_elliptic_rejected(self):
        with pytest.raises(EllipticTraceError):
            translation_length(1.2)

    def test_sign_insensitive(self):
        a = translation_length(2 * cmath.cosh(0.7 + 0.2j))
        b = translation_length(-2 * cmath.cosh(0.7 + 0.2j))
        assert abs(a - b) < 1e-12

    def test_normalisation_ranges(self):
        random.seed(2)
        for _ in range(500):
            phi = complex(random.uniform(-6, 6), random.uniform(-6, 6))
            if abs(phi.imag) < 1e-6:
                continue
            l = translation_length(phi)
            assert l.real >= 0
            assert -math.pi < l.imag <= math.pi

    def test_h_compatibility(self):
        """h(2 cosh(l/2)) = 1/(1 + e^l), the bridge between traces and the
        series terms."""
        random.seed(4)
        for _ in range(2000):
            l = complex(random.uniform(0.1, 3), random.uniform(-3, 3))
            lhs = h(2 * cmath.cosh(l / 2))
            rhs = 1.0 / (1.0 + cmath.exp(l))
            assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("x, elliptic", [
        (1.999, True), (2 - 2e-6, True), (2 - 5e-7, False), (1.5 + 1e-10j, True)])
    def test_h_and_length_raise_where_the_kernel_sees_elliptic(self, x, elliptic):
        """h and translation_length class a trace as the kernel does: they
        raise exactly where ``kernels._is_elliptic`` holds."""
        assert kernels._is_elliptic(complex(x)) == elliptic
        if elliptic:
            with pytest.raises(DomainError):
                h(x)
            with pytest.raises(EllipticTraceError):
                translation_length(x)
        else:
            assert cmath.isfinite(h(x))
            assert cmath.isfinite(translation_length(x))

    def test_finite_on_every_census_trace(self, report_for):
        """Every trace of the census of small traces, for every hyperbolic
        slope with p <= 30, has a finite length and h value: it passed the
        kernel's elliptic test or was snapped to +-2."""
        checked = 0
        for r in _hyperbolic(30):
            for s, v in report_for(r).slopes_small_trace:
                assert cmath.isfinite(translation_length(v)), (r, s)
                assert cmath.isfinite(h(v)), (r, s)
                checked += 1
        assert checked > 1000


def _hyperbolic(pmax):
    return [Slope(q, p) for p in range(5, pmax + 1) for q in range(2, p - 1)
            if math.gcd(q, p) == 1 and is_hyperbolic(Slope(q, p))]


class TestMirror:
    """K(1 - r) is the mirror image of K(r): its trace polynomial is
    P_r(i x) up to sign, and its holonomy is the complex conjugate, so its
    geometric root is the conjugate root turned by -i."""

    def test_polynomial_of_mirror_is_rotated(self):
        """P_{(p-q)/p}(x) = +-P_{q/p}(i x) for the traces P = i^(q mod 2) psi,
        so psi_{(p-q)/p} has the coefficients +-i^(k + q mod 2 - (p-q) mod 2)
        c_k of psi_{q/p}, each exponent even, exactly in integers, for
        every hyperbolic slope with p <= 40."""
        for r in _hyperbolic(40):
            q, p = r.num, r.den
            rotated = []
            for k, c in enumerate(trace_polynomial(r).coeffs):
                e = k + q % 2 - (p - q) % 2
                assert c == 0 or e % 2 == 0, r
                rotated.append(-c if e // 2 % 2 else c)
            mirror = list(trace_polynomial(Slope(p - q, p)).coeffs)
            assert mirror in (rotated, [-c for c in rotated]), r

    def test_root_of_mirror_is_rotated_conjugate(self, evaluation_for):
        """The geometric root of (p-q)/p is -i conj(x*) = -Im x* - i Re x*
        for the root x* of q/p, bit for bit, for every hyperbolic slope with
        p <= 30."""
        for r in _hyperbolic(30):
            z = evaluation_for(r).root
            w = evaluation_for(Slope(r.den - r.num, r.den)).root
            assert (w.real.hex(), w.imag.hex()) == ((-z.imag).hex(), (-z.real).hex()), r
