"""Reference constructions on slopes that the package does not use, kept
as independent oracles for the tests."""

import functools

from twobridge.errors import SlopeError
from twobridge.slopes import Slope, continued_fraction


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


def apply_word(letters, s: Slope) -> Slope:
    """s under the reflections ``letters``, applied first to last."""
    return functools.reduce(lambda t, letter: letter(t), letters, s)


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
