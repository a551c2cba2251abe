"""Symbolic trace polynomials, root finding and the selection of the
geometric root.

The trace of the slope-s loop is phi(s); on every Farey triangle the triple
(x, y, z) of traces satisfies x^2 + y^2 + z^2 = xyz and across an edge
phi(s0) + phi(s3) = phi(s1) phi(s2).  Normalising phi(inf) = 0 and
phi(1) = i phi(0) makes phi(q/p) = i^(q mod 2) psi(x), psi a polynomial in
x = phi(0) with integer coefficients (``trace_polynomial``), whose nonzero
roots are the candidate holonomy traces.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field

from . import kernels
from .errors import (
    AmbiguousGeometricRootError,
    DomainError,
    EllipticTraceError,
    InternalError,
    NoGeometricRootError,
    NotGeometricEvaluationError,
    RootFindingError,
)
from .slopes import INFINITY, Slope

__all__ = [
    "TracePolynomial",
    "trace_polynomial",
    "polynomial_roots",
    "MarkoffEvaluation",
    "select_geometric_root",
    "geometric_evaluation",
    "translation_length",
]

# ---------------------------------------------------------------------------
# Integer polynomials


class TracePolynomial:
    """Polynomial in x with integer coefficients, ascending order.

    Coefficients are Python ints, so the chain recursion is exact at any
    size.  ``edges`` is r's boundary edge system when the polynomial is
    psi(r) from ``trace_polynomial``; ``polynomial_roots`` then evaluates it
    by a walk down the Farey chain the edge system holds.  It is None for
    any other polynomial.
    """

    __slots__ = ("coeffs", "edges")

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.edges = None

    @property
    def degree(self):
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    def derivative(self):
        return TracePolynomial([k * c for k, c in enumerate(self.coeffs)][1:] or [0])

    def max_coeff_abs(self):
        return max(map(abs, self.coeffs))

    def content_power_of_x(self):
        """Largest k with x^k dividing the polynomial."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return 0

    def shift_down(self, k):
        """Divide by x^k (exact)."""
        if any(self.coeffs[:k]):
            raise DomainError("polynomial not divisible by x^%d" % k)
        return TracePolynomial(self.coeffs[k:] or [0])

    def __str__(self):
        terms = ["%d" % c if k == 0 else "%d*x^%d" % (c, k)
                 for k, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def trace_polynomial(r: Slope) -> TracePolynomial:
    """psi(r) for r = q/p: the polynomial in x = phi(0) with integer
    coefficients such that phi(r) = i^(q mod 2) psi(r).  It is read off
    r's Farey chain, in the edge system ``mcshane.boundary_edge_sets(r)``
    builds, which raises NonHyperbolicError on a non-hyperbolic r.

    Why psi lies in Z[x]: write num(s) for the numerator of a slope s and
    psi(s) = i^-(num(s) mod 2) phi(s).  The normalisation
    (phi(inf), phi(0), phi(1)) = (0, x, ix) gives psi(inf) = 0 and
    psi(0) = psi(1) = x.  In each chain triangle (lo, med, hi) the edge
    relation is phi(med) = phi(lo) phi(hi) - phi(opp), opp the third
    vertex of the triangle on <lo, hi> before it.  There
    num(med) = num(lo) + num(hi), and num(opp) = +-(num(lo) - num(hi)) has
    the same parity, so the relation becomes
    psi(med) = sigma psi(lo) psi(hi) - psi(opp), with sigma = -1 when
    num(lo) and num(hi) are both odd (i i = -1) and +1 otherwise.  By
    induction down the chain every psi(s) lies in Z[x].  Roots and
    residual moduli do not see the unit, so nothing needs phi(r)'s.

    The result is checked to be even or odd (``_check_sign_symmetry``), and
    its ``edges`` is r's edge system, so ``polynomial_roots`` walks the same
    chain and ``geometric_evaluation`` hands the same edge system on to the
    root selection.
    """
    from . import mcshane  # imported here: mcshane imports this module's types

    edges = mcshane.boundary_edge_sets(r)
    lo = hi = [0, 1]  # psi(0/1) = psi(1/1) = x
    opp = [0]  # psi(inf)
    # the last triangle, (r1, r, r2), has no turn: its mediant is r
    for (s_lo, _, s_hi), down in zip(edges.triangles[1:], edges.turns + (True,)):
        sigma = -1 if s_lo.num & s_hi.num & 1 else 1
        med = [0] * (len(lo) + len(hi) - 1)
        for i, a in enumerate(lo):
            if a:
                a *= sigma
                for j, b in enumerate(hi):
                    med[i + j] += a * b
        for k, c in enumerate(opp):  # deg psi(opp) < deg psi(med)
            med[k] -= c
        lo, hi, opp = (lo, med, hi) if down else (med, hi, lo)
    poly = _check_sign_symmetry(TracePolynomial(med), r)
    poly.edges = edges
    return poly


def _descend(s: Slope, lo: Slope, hi: Slope, phi_lo, phi_hi, phi_opp, seen):
    """phi(s) for s strictly between the Farey neighbours lo < hi, by the
    edge relation phi(med) = phi(lo) phi(hi) - phi(opp) down the mediant
    descent, where opp is the third vertex of the triangle on <lo, hi>
    away from s; every mediant's value goes into the dict ``seen``.
    """
    while True:
        med = lo.mediant(hi)
        phi_med = seen[med] = phi_lo * phi_hi - phi_opp
        if med == s:
            return phi_med
        if s < med:
            hi, phi_opp, phi_hi = med, phi_hi, phi_med
        else:
            lo, phi_opp, phi_lo = med, phi_lo, phi_med


def _check_sign_symmetry(poly: TracePolynomial, r) -> TracePolynomial:
    """``poly``, after checking that its nonzero coefficients all sit at even
    or all at odd powers of x; InternalError otherwise.

    x -> -x is a sign-change automorphism of the normalised Markoff map: it
    sends the triple (0, x, ix) to (0, -x, -ix), and by the edge relation
    every phi(s) to +-phi(s) (Goldman, Geom. Topol. 7 (2003)).  So
    P(-x) = +-P(x), that is P(x) = x^k Q(x^2), and ``polynomial_roots``
    finds the roots of P in y = x^2, at half the degree.
    """
    if len({k % 2 for k, c in enumerate(poly.coeffs) if c}) > 1:
        raise InternalError("trace polynomial of %s mixes even and odd powers "
                            "of x: %s" % (r, poly))
    return poly


# ---------------------------------------------------------------------------
# Root finding
#
# Double-precision Aberth-Ehrlich iteration finds the roots of the
# squarefree part, and Newton's method in fixed point polishes each one
# against the exact integer coefficients (``_newton_fixed``).  The
# squarefree part is P itself when P's image over GF(_P) is coprime to its
# derivative (``_squarefree_mod_p``); otherwise it is P / gcd(P, P'),
# computed exactly in Z[x] by a primitive pseudo-remainder sequence
# (``_squarefree_split``).  An even P(x) = Q(x^2), as every trace
# polynomial is once its factor x^k is taken out, goes through all of this
# as Q, in y = x^2, and each x is the fixed-point square root of its y
# (``_nonzero_roots``, ``_fixed_sqrt``).  A coefficient past the range of a
# double raises a RootFindingError before anything is converted
# (``_double_coeffs``).
#
# Aberth evaluates a trace polynomial by a walk down r's Farey chain, not
# by Horner's rule on its expanded coefficients (``_walk``): Q(y) =
# P(sqrt y) / y^(k/2) and Q'(y), up to the unit i^(q mod 2), come from the
# edge relation phi(med) = phi(lo) phi(hi) - phi(opp), carried with its
# derivative down the chain.  Horner's rounding error grows with
# sum |c_k| |z|^k, not with |P(z)| (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed. (2002), ch. 5), and at large p that sum
# dwarfs |P|: on 3/200 (Q of degree 99, coefficients of up to 132 bits) 89
# of Horner's 99 double roots were off by more than 1e-6, relatively, and
# the walk's are off by at most 3.3e-16.  Horner's rule is left to
# polynomials with no walk: the factors of a split Q (7/24 and 17/24 at
# p <= 64) and those ``trace_polynomial`` did not make.
#
# A fixed-point value is w = (A + iB) / 2**f with Python ints A, B.
# Truncation in the Horner pass of the polish leaves noise in the low bits
# of a root, about sqrt(2) sum_{k<n} |w|^k / |P'(w)| units, with
# P'(z_i) = a_n prod_{j != i} (z_i - z_j).  So the width f is read off the
# double roots (``_polish_width``) so that the f/4 low bits ``_round_fixed``
# drops hold four times the largest such noise, and a vanishing component,
# or an exact root such as x = 1, comes out exact.  f is _FIX_BITS (about
# 48 decimal digits) on every trace polynomial with p <= 24, at most 224
# for p <= 64, and 296-968 on 89/233, 3/200, 100/301, 2/241 and 2/255.
#
# The polished roots z_1..z_n of the squarefree part are then certified by
# their inclusion disks, centred at z_i with radius
# r_i = n |P(z_i)| / |a_n prod_{j != i} (z_i - z_j)|, and by nothing else.
# The union of the disks holds every root, and a connected union of m
# disks holds exactly m of them (Neumaier, "Enclosing clusters of zeros of
# polynomials", J. Comput. Appl. Math. 156 (2003)), so pairwise disjoint
# disks hold one root each (``_overlapping_disks``).  |P(z_i)| is bounded
# exactly, in integer arithmetic on the dyadic z_i (``_exact_residual``),
# once per root: a double evaluation of P is no bound at large p, where
# its rounding error dwarfs |P(z_i)|.  Nothing is retried at a greater
# width: Aberth that does not converge, double roots that bound no width
# (coincident or not finite), a polish that does not settle and
# overlapping disks each raise a RootFindingError that names the roots and
# the width.
_FIX_BITS = 160
_POLISH_ROUNDS = 6

# Aberth stops moving a root after a round whose correction of it is at
# most _ABERTH_TOL |z_i|, and gives up after _ABERTH_ROUNDS rounds;
# certification, not this test, decides whether the roots are right.
_ABERTH_TOL = 2.0 ** -40
_ABERTH_ROUNDS = 1000
# unit roundoff of a double
_UNIT = 2.0 ** -53

# a prime, for the squarefree test over GF(_P)
_P = 2 ** 64 - 59


def _horner(coeffs, x):
    """(P(x), P'(x)) in double precision for the coeffs in descending
    order."""
    p = dp = 0j
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _walk(turns, k: int):
    """The evaluator y -> u x^k (Q(y), Q'(y)), x = sqrt(y), of
    Q(y) = P(x) / x^k, where P = psi(r) is divisible by exactly x^k and
    u = i^(q mod 2) is the unit of phi(r) = u P(x).  ``turns`` are those of
    r's Farey chain (``EdgeSystem.turns``: True where the chain goes on
    with <lo, med>).  The evaluator walks phi down the chain from
    (phi(inf), phi(0), phi(1)) = (0, x, ix), as ``trace_polynomial`` walks
    psi, with phi'(s) = d phi(s) / dx carried alongside by the product
    rule; Q'(y) = (P'(x) / x^k - k P(x) / x^(k+1)) / 2x.  Either square root
    of y, and the unit u, give the same Newton ratio, and Aberth reads no
    more than that ratio and whether a value is 0."""

    def evaluate(y):
        x = cmath.sqrt(y)
        lo, hi, opp = x, 1j * x, 0j
        d_lo, d_hi, d_opp = 1 + 0j, 1j, 0j
        for down in turns:
            med, d_med = lo * hi - opp, d_lo * hi + lo * d_hi - d_opp
            if down:
                hi, opp, d_hi, d_opp = med, hi, d_med, d_hi
            else:
                lo, opp, d_lo, d_opp = med, lo, d_med, d_lo
        p, dp = lo * hi - opp, d_lo * hi + lo * d_hi - d_opp
        return p, (dp - k * p / x) / (2 * x)

    return evaluate


def _circle_start(coeffs):
    """Aberth's n starting points, on the circle whose radius is the
    geometric mean of bounds above and below on the moduli of the roots;
    ``coeffs`` ascending, constant and leading coefficient nonzero."""
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    upper = 1 + max(abs(c) for c in monic[:-1])
    low_rest = max(abs(c) for c in monic[1:])
    lower = abs(monic[0]) / (abs(monic[0]) + low_rest) if low_rest else 1.0
    radius = (upper * lower) ** 0.5
    return [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4))
            for k in range(n)]


def _aberth(coeffs, evaluate):
    """Simultaneous root iteration in double precision from
    ``_circle_start``; ``coeffs`` ascending doubles, constant and leading
    coefficient nonzero, and ``evaluate(z)`` gives (P(z), P'(z)) up to a
    common factor.

    A root stops moving after a round whose correction of it is at most
    _ABERTH_TOL |z_i|, and the iteration returns its approximations once
    none moves, or as soon as a correction is not finite, which
    ``_polish_width`` then reports.  After _ABERTH_ROUNDS rounds it raises
    a RootFindingError naming the roots still moving.
    """
    z = _circle_start(coeffs)
    moving = range(len(z))
    for _ in range(_ABERTH_ROUNDS):
        still = []
        for i in moving:
            zi = z[i]
            p, dp = evaluate(zi)
            if p == 0:
                continue
            if dp == 0:
                step = _UNIT * (1 + abs(zi))
            else:
                ratio = p / dp
                s = 0j
                for w in z:  # over the others: zi itself gives 0
                    diff = zi - w
                    if diff:
                        s += 1 / diff
                denom = 1 - ratio * s
                step = ratio / denom if denom else ratio
            z[i] = zi - step
            if not abs(step) <= _ABERTH_TOL * abs(zi):
                if not cmath.isfinite(step):
                    return z
                still.append(i)
        if not still:
            return z
        moving = still
    raise RootFindingError(
        "Aberth's iteration did not converge in %d rounds: %d of %d roots "
        "still move, at %s" % (_ABERTH_ROUNDS, len(moving), len(z), ", ".join(
            format(z[i], ".6g") for i in moving)), partial_roots=z)


def polynomial_roots(poly: TracePolynomial):
    """All complex roots with multiplicity of an integer polynomial.

    Multiplicities are exact: the roots found numerically are those of the
    squarefree part P / gcd(P, P'), and the roots of the gcd, found the same
    way, repeat their nearest squarefree root.  Equal roots are therefore
    equal floats, so each root class appears once among the distinct values.
    A test over GF(2**64 - 59) proves most trace polynomials squarefree
    (see ``_squarefree_mod_p``), and P is then its own squarefree part; the
    others are split exactly in Z[x] (``_squarefree_split``).  A coefficient
    past the range of a double raises a RootFindingError that names its bit
    length, before any is converted (``_double_coeffs``).

    An even P(x) / x^k = Q(x^2), as every trace polynomial gives (see
    ``trace_polynomial``), is solved in y = x^2 at half the degree: the
    squarefree test, the exact gcd, Aberth, the polish and the
    certification all run on Q.  Double-precision Aberth evaluates the Q
    of psi(r) by a walk down r's Farey chain (``_walk``), and any other
    polynomial by Horner's rule.  Each root is then polished by Newton's
    method in fixed point against the exact coefficients, at a width read
    off the double roots (``_polish_width``; 160 bits on every slope with
    p <= 24), and rounded to a complex, so a root such as x = 1 comes out
    exact and a real root has imaginary part 0.  x = sqrt(y) is taken in
    fixed point from y's unrounded polished value.

    The roots of each squarefree part are certified by their inclusion
    disks, with |P(z_i)| bounded exactly (``_overlapping_disks``): pairwise
    disjoint disks hold exactly one root each, so no root is missed or
    found twice.  Nothing else checks the roots.  Nothing is retried at a
    greater width: where Aberth does not converge, the double roots bound
    no width (two coincide, or one is not finite), a polish does not settle
    in _POLISH_ROUNDS Newton steps or two disks overlap, a RootFindingError
    names the roots and the width.

    The roots come in pairs x, -x, with x the sign class representative
    (Re x > 0, ties broken by Im x > 0) and -x its exact negation, which is
    correctly rounded too.
    """
    if poly.degree < 1:
        raise DomainError("root finding needs degree >= 1")
    k = poly.content_power_of_x()
    evaluate = None if poly.edges is None else _walk(poly.edges.turns, k)
    return [0j] * k + _nonzero_roots(poly.shift_down(k), evaluate)


def _double_coeffs(poly: TracePolynomial):
    """P's coefficients as doubles, ascending.  A coefficient past the
    largest double raises a RootFindingError naming its bit length, before
    any is converted (int and float compare exactly)."""
    top = poly.max_coeff_abs()
    if top > sys.float_info.max:
        raise RootFindingError(
            "a coefficient of %d bits lies past the 1024-bit range of a "
            "double, which the root finder works in" % top.bit_length())
    return [float(c) for c in poly.coeffs]


def _nonzero_roots(poly: TracePolynomial, evaluate=None):
    """Roots with multiplicity of a polynomial with nonzero constant term;
    an even one in y = x^2, its roots in sign pairs (``polynomial_roots``).
    ``evaluate`` is the walk of an even trace polynomial's Q (``_walk``),
    or None for Horner's rule; the factors of a split have no walk."""
    if poly.degree < 1:
        return []
    even = not any(poly.coeffs[1::2])
    base = TracePolynomial(poly.coeffs[::2]) if even else poly
    if _squarefree_mod_p(base):
        square_free, repeated = base, []
    else:
        square_free, gcd = _squarefree_split(base)
        repeated = _nonzero_roots(gcd)
        evaluate = None
    simple, f, fixed = _certified_roots(square_free, evaluate)
    roots = simple + [min(simple, key=lambda z: abs(z - w)) for w in repeated]
    if not even:
        return roots
    pairs = {}
    for y, (a, b) in zip(simple, fixed):
        x = _round_fixed(*_fixed_sqrt(a, b, f), f)
        x = max(x, -x, key=_representative_key)
        # + 0j turns the -0.0 parts of a negation into +0.0
        pairs[y] = (x + 0j, -x + 0j)
    return [x for y in roots for x in pairs[y]]


def _squarefree_mod_p(poly: TracePolynomial) -> bool:
    """True when P is proved squarefree by its image over GF(_P).

    If reduction mod _P keeps the leading coefficient and the image is
    coprime to its derivative, the image's discriminant is nonzero.  It is
    the image of disc(P), so disc(P) != 0 and gcd(P, P') = 1 over Q.  False
    says only that the test cannot decide: P has a repeated factor, or _P
    divides disc(P) or the leading coefficient.
    """
    a = [c % _P for c in poly.coeffs]
    if a[-1] == 0:
        return False
    b = [k * c % _P for k, c in enumerate(a)][1:]  # deg P < _P: degree kept
    while b:
        a, b = b, _rem_mod_p(a, b)
    return len(a) == 1


def _rem_mod_p(a, b):
    """Remainder of a by b, whose leading residue is nonzero, in GF(_P)[x]:
    ascending lists of residues."""
    a = list(a)
    n = len(b) - 1
    inverse = pow(b[-1], -1, _P)
    for k in range(len(a) - 1, n - 1, -1):
        q = a[k] * inverse % _P
        if q:
            for i, c in enumerate(b):
                a[k - n + i] = (a[k - n + i] - q * c) % _P
    del a[n:]
    while a and a[-1] == 0:
        a.pop()
    return a


# Exact arithmetic in Z[x]: ascending lists of ints with a nonzero leading
# coefficient.


def _primitive(a):
    """a divided by the gcd of its coefficients."""
    content = math.gcd(*a)
    return a if content == 1 else [c // content for c in a]


def _pseudo_remainder(a, b):
    """The remainder of lc(b)^(deg a - deg b + 1) a by b, in Z[x]."""
    a = list(a)
    lead = b[-1]
    n = len(b) - 1
    while len(a) > n:
        top = a.pop()
        shift = len(a) - n
        a = [lead * c for c in a]
        for i, c in enumerate(b[:-1]):
            a[shift + i] -= top * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _primitive_gcd(a, b):
    """The primitive gcd of a and b, up to sign, by the primitive
    pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    return a


def _exact_quotient(a, b):
    """a / b for a b that divides a in Z[x]."""
    a = list(a)
    lead = b[-1]
    quotient = [0] * (len(a) - len(b) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        q = quotient[k] = a[k + len(b) - 1] // lead
        for i, c in enumerate(b):
            a[k + i] -= q * c
    return quotient


def _squarefree_split(poly: TracePolynomial):
    """(square_free, repeated) of a P that may have a repeated factor:
    square_free = lc(g) P / g and repeated = g, g the primitive gcd of P
    and P' (``_primitive_gcd``).  lc(g) P / g is P divided by the monic
    gcd over Q, which lies in Z[x] by Gauss's lemma and does not depend on
    the sign g is taken up to."""
    g = _primitive_gcd(poly.coeffs, poly.derivative().coeffs)
    lead = g[-1]
    square_free = [lead * c for c in _exact_quotient(poly.coeffs, g)]
    return TracePolynomial(square_free), TracePolynomial(g)


def _to_fixed(x: float, f: int) -> int:
    """floor(x * 2**f), exactly."""
    num, den = x.as_integer_ratio()
    return (num << f) // den


def _fixed_coeffs(poly: TracePolynomial, f: int):
    """The coefficients at scale 2**f, in descending order."""
    return [c << f for c in reversed(poly.coeffs)]


def _fixed_horner(coeffs, a, b, f):
    """(Re P(w), Im P(w), Re P'(w), Im P'(w)) at w = (a + ib) / 2**f, all at
    scale 2**f, for ``_fixed_coeffs(P, f)``; each product is truncated."""
    p_re, p_im = coeffs[0], 0
    d_re = d_im = 0
    for c in coeffs[1:]:
        d_re, d_im = (((d_re * a - d_im * b) >> f) + p_re,
                      ((d_re * b + d_im * a) >> f) + p_im)
        p_re, p_im = (((p_re * a - p_im * b) >> f) + c,
                      (p_re * b + p_im * a) >> f)
    return p_re, p_im, d_re, d_im


def _fixed_quotient(u_re, u_im, v_re, v_im, f):
    """u / v at scale 2**f, for u, v at one scale and v != 0:
    u conj(v) / |v|^2, floored."""
    norm = v_re * v_re + v_im * v_im
    return (((u_re * v_re + u_im * v_im) << f) // norm,
            ((u_im * v_re - u_re * v_im) << f) // norm)


def _newton_fixed(coeffs, a, b, f):
    """Newton's method on w = (a + ib) / 2**f for ``_fixed_coeffs(P, f)``;
    returns (a, b, settled).

    The iteration stops at P'(w) = 0, after _POLISH_ROUNDS steps, or once a
    step is at most 2**(-f/2) |w|, past which Newton's quadratic
    convergence leaves nothing above the scale.  ``settled`` says it
    stopped on that step test.
    """
    for _ in range(_POLISH_ROUNDS):
        p_re, p_im, d_re, d_im = _fixed_horner(coeffs, a, b, f)
        if d_re == 0 and d_im == 0:
            break
        step_re, step_im = _fixed_quotient(p_re, p_im, d_re, d_im, f)
        a -= step_re
        b -= step_im
        if (step_re * step_re + step_im * step_im) << f <= a * a + b * b:
            return a, b, True
    return a, b, False


def _fixed_sqrt(a, b, f):
    """The principal square root of w = (a + ib) / 2**f, at scale 2**f and
    to within a unit: the integer square root of the Gaussian integer
    (a + ib) 2**f.  The component of the larger half-sum is taken from
    the modulus m, sqrt((m +- a)/2), and the other as b over twice it, so
    nothing cancels and a vanishing component comes out 0."""
    a <<= f
    b <<= f
    m = math.isqrt(a * a + b * b)
    if a >= 0:
        re = math.isqrt((m + a) >> 1)
        return re, (b // (2 * re) if re else 0)
    im = math.isqrt((m - a) >> 1)
    return abs(b) // (2 * im), (im if b >= 0 else -im)


def _round_fixed(a, b, f) -> complex:
    """(a + ib) / 2**f rounded to a multiple of 2**(f/4 - f) and then once
    to a complex (int true division is correctly rounded).  The f/4 bits
    dropped first hold the truncation noise of the polish at the width
    ``_polish_width`` chose, four times over."""
    drop = f // 4
    half = 1 << (drop - 1)
    kept = 1 << (f - drop)
    return complex(((a + half) >> drop) / kept, ((b + half) >> drop) / kept)


def _certified_roots(poly: TracePolynomial, evaluate):
    """(roots, f, fixed): the roots of a squarefree P with nonzero constant
    term, certified by pairwise disjoint inclusion disks, the fixed-point
    scale 2**f they were polished at (``_polish_width``), and for each root
    its unrounded fixed-point (a, b).

    Aberth runs with ``evaluate``, or with Horner's rule on P's
    coefficients where it is None.  A polish that does not settle on its
    step test, or disks that overlap, raise a RootFindingError.
    """
    coeffs = _double_coeffs(poly)
    if evaluate is None:
        evaluate = functools.partial(_horner, coeffs[::-1])
    z = _aberth(coeffs, evaluate)
    f = _polish_width(poly, z)
    exact = _fixed_coeffs(poly, f)
    polished = [_newton_fixed(exact, _to_fixed(zi.real, f),
                              _to_fixed(zi.imag, f), f) for zi in z]
    unsettled = [zi for zi, (_, _, settled) in zip(z, polished) if not settled]
    if unsettled:
        raise RootFindingError(
            "Newton's polish did not settle in %d steps at %d bits for %d of "
            "%d roots: %s" % (_POLISH_ROUNDS, f, len(unsettled), len(z),
                              ", ".join(format(w, ".6g") for w in unsettled)),
            partial_roots=z)
    fixed = [(a, b) for a, b, _ in polished]
    roots = [_round_fixed(a, b, f) for a, b in fixed]
    overlaps = _overlapping_disks(poly, roots)
    if overlaps:
        raise RootFindingError(
            "inclusion disks overlap at %d bits: %s" % (f, ", ".join(
                "%s and %s" % (format(roots[i], ".6g"), format(roots[j], ".6g"))
                for i, j in overlaps)),
            partial_roots=roots)
    return roots, f, fixed


def _polish_width(poly: TracePolynomial, z) -> int:
    """The fixed-point width f for polishing the double roots z of P:
    max(_FIX_BITS, 4 (ceil(log2 noise) + 2)), where noise is the largest
    sqrt(2) sum_{k<n} |z_i|^k / (|a_n| prod_{j != i} |z_i - z_j|), the
    truncation noise of the polish at z_i in units of 2**-f.  Double roots
    that are not finite, or two that coincide, bound no width and raise a
    RootFindingError naming them.
    """
    bad = [w for w in z if not cmath.isfinite(w)]
    if bad:
        raise RootFindingError(
            "the double roots bound no polish width: %d of %d are not finite"
            % (len(bad), len(z)), partial_roots=z)
    lead = math.log2(abs(poly.coeffs[-1]))
    noise = []  # log2 of each root's bound
    for i, zi in enumerate(z):
        ax, size = abs(zi), 0.0
        for _ in z:  # sum_{k<n} |z_i|^k by Horner's rule
            size = size * ax + 1.0
        if size == math.inf:
            raise RootFindingError(
                "the double roots bound no polish width: the noise at %s "
                "overflows" % format(zi, ".6g"), partial_roots=z)
        noise.append(0.5 + math.log2(size) - lead)
        for j, zj in enumerate(z[:i]):
            if zi == zj:
                raise RootFindingError(
                    "the double roots bound no polish width: %s and %s "
                    "coincide" % (format(zj, ".6g"), format(zi, ".6g")),
                    partial_roots=z)
            gap = math.log2(abs(zi - zj))
            noise[i] -= gap
            noise[j] -= gap
    return max(_FIX_BITS, 4 * (math.ceil(max(noise)) + 2))


def _overlapping_disks(poly: TracePolynomial, z):
    """Index pairs (i, j), i < j, whose inclusion disks meet.

    The disk of z_i has radius n |P(z_i)| / |a_n prod_{j != i} (z_i - z_j)|,
    with |P(z_i)| bounded exactly by ``_exact_residual``, and is enlarged
    by 8 (n + 2) u, u = 2**-53, for the rounding of the product, of the
    distances and of the bound.  A non-finite z_i is bounded by infinity,
    with no exact evaluation, so its radius is not finite, nor is its
    distance to any other root: its disk meets every other.  So does the
    disk of a repeated z_i, whose radius is infinite.
    """
    n = len(z)
    lead = abs(float(poly.coeffs[-1]))
    scale = n * (1 + 8 * (n + 2) * _UNIT)
    dist = [[abs(a - b) for b in z] for a in z]
    radii = []
    for i, (zi, row) in enumerate(zip(z, dist)):
        bound = _exact_residual(poly, zi) if cmath.isfinite(zi) else math.inf
        denom = lead * math.prod(row[:i]) * math.prod(row[i + 1:])
        radii.append(scale * bound / denom if denom > 0 else math.inf)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if not radii[i] + radii[j] < dist[i][j]]


def _exact_residual(poly: TracePolynomial, z: complex) -> float:
    """|P(z)|, bounded exactly and rounded once to a double: z is dyadic,
    (A + iB) / 2**e, so 2**(e n) P(z) is a Gaussian integer, found by one
    Horner pass, and the ceiling of its modulus is divided by 2**(e n)."""
    (a, den_a), (b, den_b) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    e_a, e_b = den_a.bit_length() - 1, den_b.bit_length() - 1
    e = max(e_a, e_b)
    a <<= e - e_a
    b <<= e - e_b
    g_re, g_im = poly.coeffs[-1], 0
    shift = 0
    for c in reversed(poly.coeffs[:-1]):
        shift += e
        g_re, g_im = g_re * a - g_im * b + (c << shift), g_re * b + g_im * a
    norm = g_re * g_re + g_im * g_im
    root = math.isqrt(norm)
    return (root + (root * root < norm)) / (1 << shift)


# ---------------------------------------------------------------------------
# Numeric Markoff maps


_INT_PHI_PATTERN = (1 + 0j, 1j, -1 - 0j, -1j)  # phi(m)/x for integer m mod 4


class MarkoffEvaluation:
    """A root x* of the trace polynomial together with the memoised Markoff
    map it generates: phi(inf) = 0, phi(0) = x*, phi(1) = i x*.

    phi(s) is computed by the canonical mediant walk from <0,1,inf> and every
    intermediate slope's trace is kept in ``traces``.  ``edges`` is r's
    boundary edge system (``mcshane.boundary_edge_sets(r)``), which holds
    r's Farey chain: ``select_geometric_root`` gives every candidate the
    same one.  ``finite_sums`` keeps the pair of finite edge sums
    (``mcshane.finite_edge_sums``) once computed, so one request computes
    each once; that pass walks r's chain with phi's own recurrence and
    leaves the chain's traces in ``traces``, bitwise as phi computes them.
    """

    def __init__(self, r: Slope, root: complex, edges):
        self.r = r
        self.root = complex(root)
        self.edges = edges
        self.traces = {INFINITY: 0j, Slope(0, 1): self.root, Slope(1, 1): 1j * self.root}
        self.selection = None
        self.finite_sums = None

    def phi(self, s: Slope) -> complex:
        cached = self.traces.get(s)
        if cached is not None:
            return cached
        x = self.root
        if s.den == 1:
            val = _INT_PHI_PATTERN[s.num % 4] * x
            self.traces[s] = val
            return val
        m = s.num // s.den
        lo, hi = Slope(m, 1), Slope(m + 1, 1)
        # the third vertex of <m, m+1> away from s is inf, with phi(inf) = 0
        return _descend(s, lo, hi, self.phi(lo), self.phi(hi), 0j, self.traces)

    def __repr__(self):
        return "MarkoffEvaluation(r=%s, root=%r)" % (self.r, self.root)


def translation_length(phi_s: complex) -> complex:
    """l with 2 cosh(l/2) = +-phi_s (the sign is immaterial mod 2 pi i),
    Re l >= 0 and Im l in (-pi, pi].

    0 on a trace that ``kernels`` classes as parabolic; a trace that it
    classes as elliptic raises EllipticTraceError.
    """
    phi_s = complex(phi_s)
    if kernels._near_parabolic(phi_s):
        return 0j
    if kernels._is_elliptic(phi_s):
        raise EllipticTraceError("trace %r lies in (-2, 2)" % (phi_s,))
    l = 2 * cmath.acosh(phi_s / 2)
    if l.real < 0:
        l = -l
    im = l.imag
    while im > math.pi:
        im -= 2 * math.pi
    while im <= -math.pi:
        im += 2 * math.pi
    return complex(l.real, im)


# ---------------------------------------------------------------------------
# Geometric-root selection


@dataclass
class RootCandidateReport:
    root: complex
    passed: bool
    reason: str
    lambda_orbifold: complex | None = None


@dataclass
class SelectionReport:
    r: Slope
    candidates: list = field(default_factory=list)


def _representative_key(z: complex):
    """The sign class representative maximises this: Re > 0, ties broken by
    Im > 0."""
    return (z.real, z.imag)


def _rejection(ev: MarkoffEvaluation):
    """(reason or None, lambda(O) or None) for one root class.

    The O(chain) checks run first; only a class that passes them is scanned.
    """
    from . import mcshane  # imported here: mcshane imports this module's types

    if ev.root == 0:
        return "x = 0 gives the trivial triple", None
    try:
        s1, s2 = mcshane.finite_edge_sums(ev.r, ev, check=False)
    except DomainError as exc:
        return "zero trace: %s" % exc, None
    lam = 2 * s1
    if abs(s1 + s2 + 1) > mcshane.EDGE_SUM_TOL:
        return "edge-sum identity fails by %.3g" % abs(s1 + s2 + 1), lam
    if lam.imag <= 1e-12:
        return "Im lambda(O) <= 0", lam
    try:
        mcshane.census_scan(ev)
    except NotGeometricEvaluationError as exc:
        return str(exc), lam
    return None, lam


def select_geometric_root(roots, r: Slope, edges=None) -> MarkoffEvaluation:
    """Filter trace-polynomial roots down to the holonomy trace.

    The roots are grouped into sign classes {x, -x}, which give the same
    traces up to sign.  ``polynomial_roots`` gives each class as a root x
    and its exact negation, and equal roots as equal floats, so each class
    is judged once, with no tolerance, at its representative (Re x > 0,
    ties broken by Im x > 0).  The classes are judged in the order of their
    representatives (by real part, then imaginary part), so the report
    does not depend on the order the root finder lists them in.  A class is
    rejected by the first of these checks it fails, cheapest first:

    1. x = 0 (the trivial triple);
    2. a zero trace on the chain, where the edge sums are undefined;
    3. the finite edge-sum identity S1 + S2 = -1, to
       ``mcshane.EDGE_SUM_TOL`` (1e-8);
    4. Im lambda(O) > 0, which picks one of each conjugate pair;
    5. the census scan of I1 u I2 (see ``mcshane.census_scan``): no real
       trace in (-2, 2), and no slope with |phi| <= 2 inside the cut-off
       intervals other than those of A(r), the census predicted from r
       alone (``slopes.off_chain_census``).  The scan explores I1 u I2 as
       the series does, parabolic fans included, and has no depth limit:
       it prunes each cell whose traces provably stay above 2
       (``kernels``), which ends it on a geometric class, and it stops at
       the first small trace outside A(r).  Its one node budget is
       ``kernels.NODE_BUDGET``, spent over all of its edges.  On the
       slopes with p <= 64, 9 250 classes end at such a trace after at
       most 512 nodes, none at an elliptic trace or the budget, and the
       1 134 that pass take at most 1 404.

    Exactly one class must pass all five, and it is selected.  If none
    passes, NoGeometricRootError is raised, whose message gives each
    class's root and reason on a line of its own; if more than one does,
    AmbiguousGeometricRootError, which names their roots.

    ``edges`` is r's boundary edge system, and with it r's Farey chain, as
    ``trace_polynomial(r).edges`` holds it; it is built here when None.
    Every candidate's constructor is given it.  The evaluation returned is
    the one the checks ran on, so it keeps that edge system and the finite
    edge sums of step 3.

    Every candidate's report gives the reason it was rejected; the
    selection report is attached to the returned evaluation and to the
    NoGeometricRootError or AmbiguousGeometricRootError raised otherwise.
    """
    from . import mcshane

    report = SelectionReport(r=r)
    # -x is the exact negation of x; + 0j turns -0.0 parts into +0.0
    classes = sorted(dict.fromkeys(
        max(z, -z, key=_representative_key) + 0j for z in map(complex, roots)),
        key=_representative_key)

    if edges is None:
        edges = mcshane.boundary_edge_sets(r)
    survivors = []
    for rep in classes:
        ev = MarkoffEvaluation(r, rep, edges)
        reason, lam = _rejection(ev)
        report.candidates.append(RootCandidateReport(
            rep, reason is None, reason or "passed", lambda_orbifold=lam))
        if reason is None:
            survivors.append(ev)

    if len(survivors) > 1:
        raise AmbiguousGeometricRootError(
            "more than one root class survives for %s: %s" % (
                r, ", ".join(repr(ev.root) for ev in survivors)),
            report=report,
        )
    if not survivors:
        raise NoGeometricRootError(
            "no geometric root found for %s:\n%s" % (
                r, "\n".join("%s: %s" % (format(c.root, ".6g"), c.reason)
                             for c in report.candidates)),
            report=report,
        )

    [ev] = survivors
    ev.selection = report
    return ev


def geometric_evaluation(r: Slope) -> MarkoffEvaluation:
    """Full pipeline polynomial -> roots -> geometric root; r's Farey chain
    is built once, with its edge system, by ``trace_polynomial``, and the
    root selection reads the same edge system."""
    poly = trace_polynomial(r)
    return select_geometric_root(polynomial_roots(poly), r, poly.edges)
