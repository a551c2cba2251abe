"""Reference constructions on slopes that the package does not use, kept
as independent oracles for the tests: among them the reduction of a slope
by the reflection group of r, and the limit-set tests built on it."""

import functools

from twobridge.endinvariants import _reduced_words, gap_intervals
from twobridge.errors import InternalError, SlopeError
from twobridge.slopes import (
    INFINITY,
    ONE,
    ZERO,
    EdgeReflection,
    Interval,
    Slope,
    continued_fraction,
    fundamental_intervals,
    reflection_in_edge,
)


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


def contains(interval: Interval, s: Slope) -> bool:
    """s lies in the closed interval."""
    return not s.is_infinite and interval.left <= s <= interval.right


def reflect(letter: EdgeReflection, s: Slope) -> Slope:
    """The image of s under the reflection ``letter``, by its matrix."""
    a, b, c, d = letter.matrix
    return Slope(a * s.num + b * s.den, c * s.num + d * s.den)


def apply_word(letters, s: Slope) -> Slope:
    """s under the reflections ``letters``, applied first to last."""
    return functools.reduce(lambda t, letter: reflect(letter, t), letters, s)


def evaluate_cf(coeffs) -> Slope:
    """Value of [a1, ..., an] = 1/(a1 + 1/(a2 + ...)) via continuants;
    tolerates a trailing 0 or 1."""
    # p_k = a_k p_{k-1} + p_{k-2} with the [0; a1, a2, ...] seed.
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    for a in coeffs:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return Slope(p_cur, q_cur)


def parity_split_parents(r: Slope):
    """(r1, r2) from the truncations of r = [a1, ..., an]: [a1, ..., a(n-1)]
    and [a1, ..., an - 1], the smaller one first, which is the former for
    odd n.  For a hyperbolic r these are its Farey parents."""
    a = continued_fraction(r)
    head = evaluate_cf(a[:-1])
    head_minus = evaluate_cf(a[:-1] + (a[-1] - 1,))
    return (head, head_minus) if len(a) % 2 == 1 else (head_minus, head)


def _infinity_reflection(k: int) -> EdgeReflection:
    """Reflection z -> 2k - z in the edge <inf, k>."""
    return reflection_in_edge(INFINITY, Slope(k, 1))


def reduce_slope(s: Slope, r: Slope):
    """Reduce s into I1(r) u I2(r) u {inf, r} by the reflection group.

    Alternates (a) normalising into [0,1] with reflections fixing inf and
    (b) reflecting in the gap edge <r, r1> or <r, r2> that brackets s.  The
    numerator+denominator of the normalised slope strictly decreases at each
    step (b), which is asserted, and this bounds the loop.  Returns
    (s0, letters): the ``EdgeReflection``s in the order they act, which
    take s to s0.
    """
    i1, i2 = fundamental_intervals(r)
    r1, r2 = i1.right, i2.left
    g_left = reflection_in_edge(r, r1)
    g_right = reflection_in_edge(r, r2)

    letters = []
    cur = s
    prev_metric = None
    while True:
        if cur.is_infinite:
            return cur, tuple(letters)
        if cur < ZERO or cur > ONE:
            q, p = cur.num, cur.den
            k = q // (2 * p)
            if q - 2 * p * k <= p:  # translate z -> z - 2k
                for letter in (_infinity_reflection(k), _infinity_reflection(0)):
                    letters.append(letter)
                    cur = reflect(letter, cur)
            else:  # reflect z -> 2(k+1) - z
                letter = _infinity_reflection(k + 1)
                letters.append(letter)
                cur = reflect(letter, cur)
        if cur == r or contains(i1, cur) or contains(i2, cur):
            return cur, tuple(letters)
        metric = abs(cur.num) + cur.den
        if prev_metric is not None and metric >= prev_metric:
            raise InternalError(
                "reduction metric did not decrease at %s (r=%s)" % (cur, r)
            )
        prev_metric = metric
        letter = g_left if cur < r else g_right
        letters.append(letter)
        cur = reflect(letter, cur)


def is_nullhomotopic(s: Slope, r: Slope) -> bool:
    """True iff the simple loop of slope s dies in the link complement,
    i.e. s reduces to inf or to r.  ``reduce_slope`` leaves every slope of
    I1(r) u I2(r) where it is, so it finds none of the accidental
    parabolics there, which ``slopes.off_chain_census`` lists."""
    s0, _ = reduce_slope(s, r)
    return s0 == r or s0.is_infinite


def interval_meets_limit_set(r: Slope, u: Slope, v: Slope, depth: int = 8) -> str:
    """Three-valued test whether the open interval (u, v) meets the limit
    set: "no" when one gap covers it, "yes" when an image of inf or r under
    a word of the enumeration lies inside, otherwise "unknown" at this
    depth."""
    if v < u:
        u, v = v, u
    for xn, xd, yn, yd, *_ in gap_intervals(r, depth).rows:
        if xn * u.den <= u.num * xd and v.num * yd <= yn * v.den:
            return "no"
    i1, i2 = fundamental_intervals(r)
    rn, rd = r.num, r.den
    for (a, b, c, d), _, _ in _reduced_words(r, i1.right, i2.left, depth):
        # the images of inf and r, denominators made positive
        for n, m in ((a, c), (a * rn + b * rd, c * rn + d * rd)):
            if m < 0:
                n, m = -n, -m
            if u.num * m < n * u.den and n * v.den < v.num * m:
                return "yes"
    return "unknown"
