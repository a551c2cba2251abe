"""Exact arithmetic on slopes, continued fractions, Farey chains and the
reflection groups attached to a 2-bridge slope.

Slopes are elements of Q u {inf} in lowest terms, written q/p with p the
denominator (so the slope of K(q/p) has denominator p).  Everything in this
module is exact integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, NonHyperbolicError, SlopeError

__all__ = [
    "Slope",
    "INFINITY",
    "ContinuedFraction",
    "FareyTriangle",
    "FareyChain",
    "Interval",
    "EdgeReflection",
    "ReflectionWord",
    "continued_fraction",
    "evaluate_cf",
    "is_hyperbolic",
    "num_components",
    "fundamental_intervals",
    "farey_chain",
    "reflection_in_edge",
    "reduce_slope",
    "is_nullhomotopic",
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


@dataclass(frozen=True)
class ContinuedFraction:
    """[a1, ..., an] standing for 1/(a1 + 1/(a2 + ...)).

    Canonical expansions have all ai >= 1 and an >= 2.  Truncations used for
    the interval endpoints may end in 1 or 0 and are evaluated by the same
    continuant recurrence.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(int(a) for a in self.coefficients)
        if not coeffs:
            raise SlopeError("empty continued fraction")
        if any(a < 1 for a in coeffs[:-1]) or coeffs[-1] < 0:
            raise SlopeError("bad continued fraction %r" % (coeffs,))
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self):
        return len(self.coefficients)

    def __iter__(self):
        return iter(self.coefficients)

    @property
    def total(self):
        """c = sum of the coefficients = number of chain triangles."""
        return sum(self.coefficients)

    def __str__(self):
        return "[" + ",".join(str(a) for a in self.coefficients) + "]"


def continued_fraction(r: Slope) -> ContinuedFraction:
    """Canonical expansion of r in (0,1); the Euclidean algorithm never
    produces a trailing 1 here, but we normalise defensively."""
    _require_unit_interval(r)
    num, den = r.den, r.num  # expand p/q = a1 + 1/(a2 + ...)
    coeffs = []
    while den:
        a, num = divmod(num, den)
        coeffs.append(a)
        num, den = den, num
    if len(coeffs) > 1 and coeffs[-1] == 1:
        coeffs.pop()
        coeffs[-1] += 1
    return ContinuedFraction(tuple(coeffs))


def evaluate_cf(cf) -> Slope:
    """Value of [a1, ..., an] via continuants; tolerates trailing 0/1."""
    coeffs = cf.coefficients if isinstance(cf, ContinuedFraction) else tuple(cf)
    if not coeffs:
        raise SlopeError("empty continued fraction")
    # p_k = a_k p_{k-1} + p_{k-2} with the [0; a1, a2, ...] seed.
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    for a in coeffs:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return Slope(p_cur, q_cur)


@dataclass(frozen=True)
class FareyTriangle:
    """An ideal triangle of the Farey tessellation, vertices in the coherent
    order (ascending rationals, inf last), matching <0,1,inf>."""

    vertices: tuple

    def __post_init__(self):
        v = tuple(self.vertices)
        if len(v) != 3:
            raise SlopeError("a triangle has three vertices")
        for a, b in ((v[0], v[1]), (v[1], v[2]), (v[0], v[2])):
            if not a.is_farey_neighbor(b):
                raise SlopeError("%s, %s is not a Farey edge" % (a, b))
        object.__setattr__(self, "vertices", v)

    def __str__(self):
        return "<%s>" % ", ".join(str(v) for v in self.vertices)


def opposite_vertex(u: Slope, v: Slope, w: Slope) -> Slope:
    """Given the Farey edge <u,v> and one adjacent third vertex w, return the
    third vertex of the other triangle on <u,v>.

    The two triangles on <u,v> have third vertices whose lift vectors are
    (u +- v); one of them is w up to sign.
    """
    cands = (
        Slope(u.num + v.num, u.den + v.den),
        Slope(u.num - v.num, u.den - v.den),
    )
    if w == cands[0]:
        return cands[1]
    if w == cands[1]:
        return cands[0]
    raise SlopeError("%s is not adjacent to edge <%s,%s>" % (w, u, v))


@dataclass(frozen=True)
class FareyChain:
    """The chain of Farey triangles crossed by the geodesic from inf to r."""

    r: Slope
    cf: ContinuedFraction
    triangles: tuple
    hyperbolic: bool

    def __len__(self):
        return len(self.triangles)


def farey_chain(r: Slope) -> FareyChain:
    """Build Sigma(r) by mediant descent from <0,1,inf>.

    Every triangle after the first is (lo, med, hi), med the mediant of lo
    and hi, already ascending.  The descent goes on with <lo, med> when
    r < med and with <med, hi> otherwise; this one turn per triangle fixes
    the chain's combinatorics, and ``mcshane.boundary_edge_sets`` reads the
    edge system off it.

    Works for any r in (0,1); non-hyperbolic slopes are accepted for
    combinatorial experiments and flagged.
    """
    _require_unit_interval(r)
    cf = continued_fraction(r)
    triangles = [FareyTriangle((ZERO, ONE, INFINITY))]
    lo, hi = ZERO, ONE
    while True:
        med = lo.mediant(hi)
        triangles.append(FareyTriangle((lo, med, hi)))
        if med == r:
            break
        if r < med:
            hi = med
        else:
            lo = med
    if len(triangles) != cf.total:
        raise InternalError(
            "chain length %d != continued-fraction total %d for %s"
            % (len(triangles), cf.total, r)
        )

    return FareyChain(r=r, cf=cf, triangles=tuple(triangles),
                      hyperbolic=is_hyperbolic(r))


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

    def contains(self, s: Slope) -> bool:
        if s.is_infinite:
            return False
        return self.left <= s <= self.right

    def __str__(self):
        return "[%s, %s]" % (self.left, self.right)


def _interval_endpoints_cf(cf):
    """The truncations r1, r2 of §-two parity split, as coefficient tuples,
    for a hyperbolic r, whose expansion has at least two coefficients."""
    a = cf.coefficients
    head = a[:-1]
    head_minus = a[:-1] + (a[-1] - 1,)
    if len(a) % 2 == 1:
        return head, head_minus
    return head_minus, head


def fundamental_intervals(r: Slope):
    """I1(r) = [0, r1] and I2(r) = [r2, 1].

    r1 and r2 are the parity-split truncations of the continued fraction;
    no chain is built.  They are the two vertices of the final triangle of
    r's Farey chain other than r, which ``mcshane.boundary_edge_sets``,
    the one function holding both, checks.
    """
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    t1, t2 = _interval_endpoints_cf(continued_fraction(r))
    r1 = evaluate_cf(t1)
    r2 = evaluate_cf(t2)
    if not (r1 < r < r2):
        raise InternalError("expected r1 < r < r2 for %s" % (r,))
    return Interval(ZERO, r1), Interval(r2, ONE)


# ---------------------------------------------------------------------------
# Reflection group machinery


def _mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _mat_apply(m, s: Slope) -> Slope:
    a, b, c, d = m
    return Slope(a * s.num + b * s.den, c * s.num + d * s.den)


@dataclass(frozen=True)
class EdgeReflection:
    """Reflection of the Farey tessellation in the edge <u, v>.

    On slopes it acts as the determinant -1 involution fixing u and v.
    """

    edge: tuple
    matrix: tuple

    def __call__(self, s: Slope) -> Slope:
        return _mat_apply(self.matrix, s)

    def __str__(self):
        return "R<%s,%s>" % (str(self.edge[0]), str(self.edge[1]))


def reflection_in_edge(u: Slope, v: Slope) -> EdgeReflection:
    if not u.is_farey_neighbor(v):
        raise SlopeError("<%s,%s> is not a Farey edge" % (u, v))
    q, p = u.num, u.den
    b, a = v.num, v.den
    m = (q * a + p * b, -2 * q * b, 2 * p * a, -(q * a + p * b))
    if m[0] * m[3] - m[1] * m[2] != -1:
        raise InternalError("reflection matrix in <%s,%s> has wrong det" % (u, v))
    return EdgeReflection(edge=(u, v), matrix=m)


_IDENTITY = (1, 0, 0, 1)


@dataclass(frozen=True)
class ReflectionWord:
    """A word in Farey-edge reflections; letters act first-to-last.

    ``matrix`` is the product letters[-1] @ ... @ letters[0], so that
    ``apply`` agrees with acting by ``matrix``.
    """

    letters: tuple

    @property
    def matrix(self):
        m = _IDENTITY
        for letter in self.letters:
            m = _mat_mul(letter.matrix, m)
        return m

    def apply(self, s: Slope) -> Slope:
        for letter in self.letters:
            s = letter(s)
        return s

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        if not self.letters:
            return "<empty word>"
        return " . ".join(str(letter) for letter in self.letters)


def _infinity_reflection(k: int) -> EdgeReflection:
    """Reflection z -> 2k - z in the edge <inf, k>."""
    return reflection_in_edge(INFINITY, Slope(k, 1))


def reduce_slope(s: Slope, r: Slope):
    """Reduce s into I1(r) u I2(r) u {inf, r} by the reflection group.

    Alternates (a) normalising into [0,1] with reflections fixing inf and
    (b) reflecting in the gap edge <r, r1> or <r, r2> that brackets s.  The
    numerator+denominator of the normalised slope strictly decreases at each
    step (b), which is asserted.  Returns (s0, word) with word(s) == s0.
    """
    i1, i2 = fundamental_intervals(r)
    r1, r2 = i1.right, i2.left
    g_left = reflection_in_edge(r, r1)
    g_right = reflection_in_edge(r, r2)

    letters = []
    cur = s
    prev_metric = None
    for _ in range(10_000):
        if cur.is_infinite:
            return cur, ReflectionWord(tuple(letters))
        if cur < ZERO or cur > ONE:
            q, p = cur.num, cur.den
            k = q // (2 * p)
            if q - 2 * p * k <= p:  # translate z -> z - 2k
                for letter in (_infinity_reflection(k), _infinity_reflection(0)):
                    letters.append(letter)
                    cur = letter(cur)
            else:  # reflect z -> 2(k+1) - z
                letter = _infinity_reflection(k + 1)
                letters.append(letter)
                cur = letter(cur)
        if cur == r or i1.contains(cur) or i2.contains(cur):
            return cur, ReflectionWord(tuple(letters))
        metric = abs(cur.num) + cur.den
        if prev_metric is not None and metric >= prev_metric:
            raise InternalError(
                "reduction metric did not decrease at %s (r=%s)" % (cur, r)
            )
        prev_metric = metric
        letter = g_left if cur < r else g_right
        letters.append(letter)
        cur = letter(cur)
    raise InternalError("slope reduction did not terminate for %s (r=%s)" % (s, r))


def is_nullhomotopic(s: Slope, r: Slope) -> bool:
    """True iff the simple loop of slope s dies in the link complement,
    i.e. s reduces to inf or to r."""
    s0, _ = reduce_slope(s, r)
    return s0 == r or s0.is_infinite
