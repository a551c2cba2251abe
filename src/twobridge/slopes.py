"""Exact arithmetic on slopes, continued fractions, Farey chains and the
reflection groups attached to a 2-bridge slope.

Slopes are elements of Q u {inf} in lowest terms, written q/p with p the
denominator (so the slope of K(q/p) has denominator p).  Everything in this
module is exact integer arithmetic; no floats.

The fundamental intervals of a hyperbolic r = q/p are I1(r) = [0, r1] and
I2(r) = [r2, 1], where r1 < r < r2 are the Farey parents of r: its two
Farey neighbours with denominators below p, whose mediant is r, and the
vertices other than r of the last triangle of r's Farey chain.
``fundamental_intervals`` finds them from q*b - a*p = 1, without the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonHyperbolicError, SlopeError

__all__ = [
    "Slope",
    "INFINITY",
    "Interval",
    "EdgeReflection",
    "continued_fraction",
    "is_hyperbolic",
    "num_components",
    "fundamental_intervals",
    "farey_chain",
    "accidental_parabolics",
    "off_chain_census",
    "reflection_in_edge",
]


class Slope:
    """A point of Q u {inf}; inf is stored as 1/0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            if num == 0:
                raise SlopeError("0/0 is not a slope")
            num = 1
        elif den < 0:
            num, den = -num, -den
        g = math.gcd(abs(num), den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Slope is immutable")

    @property
    def is_infinite(self):
        return self.den == 0

    def as_fraction(self):
        if self.is_infinite:
            raise SlopeError("inf has no rational value")
        return Fraction(self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, Slope):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _cmp(self, other):
        if not isinstance(other, Slope):
            other = Slope(other)
        if self.is_infinite or other.is_infinite:
            raise SlopeError("inf is not ordered against rationals")
        return self.num * other.den - other.num * self.den

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def det(self, other):
        """q1*p2 - q2*p1; the pair is a Farey edge iff this is +-1."""
        return self.num * other.den - other.num * self.den

    def is_farey_neighbor(self, other):
        return abs(self.det(other)) == 1

    def mediant(self, other):
        return Slope(self.num + other.num, self.den + other.den)

    def __str__(self):
        return "inf" if self.is_infinite else "%d/%d" % (self.num, self.den)

    def __repr__(self):
        return "Slope(%d, %d)" % (self.num, self.den)

    @staticmethod
    def parse(text):
        """Parse "q/p", an integer or "inf"; SlopeError on anything else."""
        text = text.strip()
        if text in ("inf", "infinity", "1/0"):
            return INFINITY
        q, slash, p = text.partition("/")
        try:
            num, den = int(q), int(p) if slash else 1
        except ValueError:
            raise SlopeError("malformed slope %r: expected q/p" % text) from None
        return Slope(num, den)


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)
ONE = Slope(1, 1)


def _require_unit_interval(r):
    if r.is_infinite or not (ZERO < r < ONE):
        raise SlopeError("slope %s is not in (0, 1)" % (r,))


def is_hyperbolic(r: Slope) -> bool:
    """K(q/p) is hyperbolic iff q is not +-1 mod p."""
    _require_unit_interval(r)
    q, p = r.num, r.den
    return q % p not in (1 % p, (-1) % p)


def num_components(r: Slope) -> int:
    """1 for odd denominator (a knot), 2 for even (a 2-component link)."""
    _require_unit_interval(r)
    return 1 if r.den % 2 == 1 else 2


def continued_fraction(r: Slope) -> tuple:
    """The coefficients (a1, ..., an) of r = 1/(a1 + 1/(a2 + ...)) in (0, 1),
    by the Euclidean algorithm on p/q.  All are at least 1, and the last is
    at least 2: the last division is exact, by a divisor smaller than its
    dividend."""
    _require_unit_interval(r)
    num, den = r.den, r.num  # expand p/q = a1 + 1/(a2 + ...)
    coeffs = []
    while den:
        a, num = divmod(num, den)
        coeffs.append(a)
        num, den = den, num
    return tuple(coeffs)


def farey_chain(r: Slope) -> tuple:
    """Sigma(r) by mediant descent from <0,1,inf>, as a tuple of vertex
    triples.

    The first triple is (0, 1, inf); every later one is (lo, med, hi), med
    the mediant of lo and hi, so it is ascending.  The descent goes on
    with <lo, med> when r < med and with <med, hi> otherwise; this one turn
    per triangle fixes the chain's combinatorics, and
    ``mcshane.boundary_edge_sets`` reads the edge system off it.  Every
    pair of a triple is a Farey edge: det(lo, lo + hi) = det(lo, hi).

    Works for any r in (0, 1), hyperbolic or not; the chain has
    sum(continued_fraction(r)) triangles.
    """
    _require_unit_interval(r)
    triangles = [(ZERO, ONE, INFINITY)]
    lo, hi = ZERO, ONE
    while True:
        med = lo.mediant(hi)
        triangles.append((lo, med, hi))
        if med == r:
            return tuple(triangles)
        if r < med:
            hi = med
        else:
            lo = med


# the loxodromic small traces off the chain of the two arithmetic 2-bridge
# links: |phi| = sqrt(3) on the figure-eight knot, phi = -2i on the
# Whitehead link
_ARITHMETIC_CENSUS = {
    (2, 5): ((1, 4), (2, 3)),
    (3, 5): ((1, 3), (3, 4)),
    (3, 8): ((1, 4),),
    (5, 8): ((3, 4),),
}


def accidental_parabolics(r: Slope) -> tuple:
    """Lee and Sakuma's accidental parabolics of a hyperbolic r, off its
    Farey chain, as (form, slope) pairs: the form of r that places each.

    From their work on homotopically equivalent simple loops on 2-bridge
    spheres, for p = 2n + 1 there is one on r = [n, 2] and on r = [2, n],
    and on their mirrors 1 - r:

    - form "[n, 2]": q = 2 gives 1/p;       q = p - 2 gives (p - 1)/p;
    - form "[2, n]": q = n gives (n + 1)/p; q = n + 1 gives n/p.

    For p = 5 the two forms coincide and both are listed, "[n, 2]" first;
    every other r has at most one, and an even p none.
    """
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    q, p = r.num, r.den
    if p % 2 == 0:
        return ()
    n = p // 2
    return tuple((form, Slope(num, p)) for form, num, hit in (
        ("[n, 2]", 1, q == 2), ("[n, 2]", p - 1, q == p - 2),
        ("[2, n]", n + 1, q == n), ("[2, n]", n, q == n + 1)) if hit)


def off_chain_census(r: Slope) -> frozenset:
    """A(r): the slopes off r's Farey chain whose loops may have a trace
    with |phi| <= 2 under the geometric Markoff map of a hyperbolic r.

    They are Lee and Sakuma's accidental parabolics
    (``accidental_parabolics``), and for the figure-eight knot (2/5, 3/5)
    and the Whitehead link (3/8, 5/8) the loxodromic small traces of
    ``_ARITHMETIC_CENSUS``.  Every other r has an empty A(r).  On all
    1 134 hyperbolic slopes with p <= 64 the interior census of the
    geometric map (its small traces inside the cut-off intervals of the
    boundary edges) equals A(r) exactly, and ``mcshane.census_scan``
    rejects a root class at its first small trace there outside A(r).
    """
    found = {s for _, s in accidental_parabolics(r)}
    found.update(Slope(num, den)
                 for num, den in _ARITHMETIC_CENSUS.get((r.num, r.den), ()))
    return frozenset(found)


@dataclass(frozen=True)
class Interval:
    """A closed interval [left, right] with rational endpoints."""

    left: Slope
    right: Slope

    def __post_init__(self):
        if self.left.is_infinite or self.right.is_infinite:
            raise SlopeError("interval endpoints must be finite")
        if self.left > self.right:
            raise SlopeError("interval endpoints out of order")

    def __str__(self):
        return "[%s, %s]" % (self.left, self.right)


def fundamental_intervals(r: Slope):
    """I1(r) = [0, r1] and I2(r) = [r2, 1], r1 < r < r2 the Farey parents
    of r = q/p; no chain is built.

    The lower parent a/b is the Farey neighbour of r below it with
    0 < b < p: q*b - a*p = 1, so b = q^-1 mod p and a = (q*b - 1)/p.  The
    upper parent (q - a)/(p - b) is the other neighbour, and the mediant of
    the two is r.
    """
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    q, p = r.num, r.den
    b = pow(q, -1, p)
    a = (q * b - 1) // p
    return Interval(ZERO, Slope(a, b)), Interval(Slope(q - a, p - b), ONE)


# ---------------------------------------------------------------------------
# Reflection group machinery


@dataclass(frozen=True)
class EdgeReflection:
    """Reflection of the Farey tessellation in the edge <u, v>.

    On slopes its matrix acts as the determinant -1 involution fixing u
    and v.
    """

    edge: tuple
    matrix: tuple

    def __str__(self):
        return "R<%s,%s>" % (str(self.edge[0]), str(self.edge[1]))


def reflection_in_edge(u: Slope, v: Slope) -> EdgeReflection:
    """The reflection in the Farey edge <u, v>; its matrix has determinant
    -(qa - pb)^2 = -1, (q, p) and (b, a) the lifts of u and v."""
    if not u.is_farey_neighbor(v):
        raise SlopeError("<%s,%s> is not a Farey edge" % (u, v))
    q, p = u.num, u.den
    b, a = v.num, v.den
    m = (q * a + p * b, -2 * q * b, 2 * p * a, -(q * a + p * b))
    return EdgeReflection(edge=(u, v), matrix=m)
