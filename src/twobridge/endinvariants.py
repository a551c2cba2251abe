"""End invariants: membership in the limit set of the slope reflection
group, finite-depth gap systems for its complement, and the exceptional
families where Bowditch's invariant set picks up accidental parabolics.

The group is generated by the reflections in the four Farey edges bounding
the fundamental domain: two at infinity (over 0 and 1) and two at r (over
r1 and r2).  Rational points of the limit set are exactly the orbit of
infinity and r, so membership is decided by slope reduction; everything
else is covered by open gaps, the images of the interval interiors.

Only the empty word and the reduced words whose outermost letter (the one
acting last) is R<r,r1> or R<r,r2> can reach (0, 1).  This is ping-pong:
the reflection at infinity over 0 maps everything outside (-inf, 0) into
[-inf, 0], the one over 1 into [1, inf], and R<r,r1>, R<r,r2> map into
[r1, r] and [r, r2].  A reduced word therefore maps I1, I2, inf and r into
the closed region of its outermost letter, and the words ending in an
infinity reflection land outside (0, 1).  The same regions make the group
the free product of the four reflections (ping-pong again), so distinct
reduced words are distinct elements, whose images of int I1 and int I2 are
disjoint: a depth-d system has 2 * 3^d gaps, and the enumeration needs no
test for repeated elements.

Gap endpoints are images of slopes under integer matrices of determinant
+-1, so they are in lowest terms once their sign is fixed.  A gap is one
integer row of ``GapSystem.rows``, from enumeration to output; the system
is built, sorted and checked by integer cross-multiplication, and
``to_json_text`` writes its JSON straight from the rows.

The printed covered length is the exact total length L of the n gaps
inside (0, 1), correctly rounded to a double, found in fixed point: with
k = 64 + bit_length(n), T is the sum of floor(len_i * 2^k), so that
T <= L * 2^k <= T + n, an error of at most n / 2^k < 2^-64.  CPython's
int / int division is correctly rounded and rounding is monotone, so when
T / 2^k and (T + n) / 2^k round to the same double, L rounds to it too,
and that double is printed.  Otherwise, as when L lies within 2^-64 of a
rounding boundary, the exact, unreduced sum N/D is built and N / D
printed.  Either way the printed value is float(covered_length()).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

from .errors import DomainError, InternalError, NonHyperbolicError
from .slopes import (
    INFINITY,
    Slope,
    accidental_parabolics,
    fundamental_intervals,
    is_hyperbolic,
    reflection_in_edge,
)

__all__ = [
    "GapSystem",
    "gap_intervals",
    "EndInvariantReport",
    "bowditch_L",
]

MAX_GAP_DEPTH = 12
# the depth of ``bowditch_L`` and of ``twobridge endinv`` unless one is given
# and the deepest ``endinv`` text ``cli`` caches; the cache's memory bound
# (64 entries under 3 MB) was measured at 6 and grows about 3x a level
DEFAULT_GAP_DEPTH = 6

# one gap of GapSystem.to_json_text(), laid out as json.dumps(..., indent=2)
# lays out a dict
_GAP_JSON = """    {
      "interval": [
        "%d/%d",
        "%d/%d"
      ],
      "source": %d,
      "word": %s,
      "word_length": %d
    }"""


@dataclass(frozen=True)
class GapSystem:
    """The gaps of one depth, sorted, as integer rows

        (xn, xd, yn, yd, source, word_length, word_text)

    for the open gap (xn/xd, yn/yd), both fractions in lowest terms with
    positive denominators, the image of the interior of I_source (1 or 2)
    under the reduced word of ``word_length`` letters printed as
    ``word_text``.  ``to_json_text`` is the one JSON writer."""

    r: Slope
    depth: int
    rows: tuple

    def _lengths(self):
        """(num, den) of each gap's nonzero length inside (0, 1), unreduced."""
        lengths = []
        for xn, xd, yn, yd, *_ in self.rows:
            if xn < 0:
                xn, xd = 0, 1
            if yn > yd:
                yn, yd = 1, 1
            if yn * xd > xn * yd:
                lengths.append((yn * xd - xn * yd, yd * xd))
        return lengths

    def _covered(self):
        """(N, D), N/D the total gap length inside (0, 1), unreduced.

        The lengths are added pairwise, as a balanced tree, so that each
        product multiplies numbers of similar size; nothing is reduced by a
        gcd.
        """
        terms = self._lengths()
        while len(terms) > 1:
            paired = [(a * d + c * b, b * d)
                      for (a, b), (c, d) in zip(terms[::2], terms[1::2])]
            if len(terms) % 2:
                paired.append(terms[-1])
            terms = paired
        return terms[0] if terms else (0, 1)

    def covered_length(self) -> Fraction:
        """Total gap length inside (0, 1)."""
        return Fraction(*self._covered())

    def _covered_float(self) -> float:
        """float(covered_length()), from a fixed-point sum of the lengths
        when it decides the rounding, else from the exact sum (module
        docstring)."""
        lengths = self._lengths()
        n = len(lengths)
        scale = 1 << (64 + n.bit_length())  # 2^k
        low = sum(num * scale // den for num, den in lengths)
        value = low / scale
        if value == (low + n) / scale:
            return value
        num, den = self._covered()
        return num / den

    def to_json_text(self) -> str:
        """The system's JSON document: ``r``, ``depth``, the covered length
        as a float and each gap's interval, source, word and word length,
        laid out as ``json.dumps(..., indent=2)`` would.  It is written
        straight from the rows: with ``indent`` set, ``json`` runs its
        pure-Python encoder, which took half of a cold depth-6 ``endinv``."""
        body = ",\n".join([
            _GAP_JSON % (xn, xd, yn, yd, source, _json_string(text), length)
            for xn, xd, yn, yd, source, length, text in self.rows])
        return ('{\n  "r": %s,\n  "depth": %d,\n'
                '  "covered_length_in_unit_interval": %r,\n  "gaps": %s\n}'
                % (_json_string(str(self.r)), self.depth, self._covered_float(),
                   "[\n%s\n  ]" % body if body else "[]"))


def _exact_key(max_den):
    """A sort key that orders tuples starting (num, den), 0 < den <= max_den,
    as the rationals num/den: floor(num * 2^k / den) with 2^k > 2 den den'
    for every pair of them, so distinct values never share a key."""
    shift = 2 * max_den.bit_length() + 1
    return lambda pt: (pt[0] << shift) // pt[1]


def _interval_text(num, den, num2, den2, *_):
    return "[%d/%d, %d/%d]" % (num, den, num2, den2)


_IDENTITY = (1, 0, 0, 1)


def _mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _reduced_words(r: Slope, r1: Slope, r2: Slope, depth: int):
    """(matrix, length, text) for the empty word and each reduced word of
    length <= depth whose outermost letter is R<r,r1> or R<r,r2>: the only
    words that can reach (0, 1) (module docstring).  ``text`` lists the
    letters in the order they act, the outermost last."""
    generators = (
        reflection_in_edge(INFINITY, Slope(0, 1)),
        reflection_in_edge(INFINITY, Slope(1, 1)),
        reflection_in_edge(r, r1),
        reflection_in_edge(r, r2),
    )
    names = [str(g) for g in generators]

    # matrix = g1...gd acts as g1(g2(...)): letters apply first-to-last,
    # so each new letter goes in front of the word and on the right of the
    # matrix.  The outermost letter is chosen at the first level.
    yield _IDENTITY, 0, "<empty word>"
    frontier = [(_IDENTITY, -1, "")]
    choices = (2, 3)
    for length in range(1, depth + 1):
        frontier = [(_mat_mul(matrix, generators[idx].matrix), idx,
                     names[idx] + " . " + text if text else names[idx])
                    for matrix, last, text in frontier
                    for idx in choices if idx != last]
        choices = (0, 1, 2, 3)
        for matrix, _, text in frontier:
            yield matrix, length, text


def gap_intervals(r: Slope, depth: int) -> GapSystem:
    """All gaps w(int I_j) for reduced words w of length <= depth that meet
    the open unit interval, sorted and checked to be pairwise disjoint."""
    if depth < 0 or depth > MAX_GAP_DEPTH:
        raise DomainError("depth must lie in [0, %d]" % MAX_GAP_DEPTH)
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    i1, i2 = fundamental_intervals(r)
    r1, r2 = i1.right, i2.left
    ends = ((1, 0, 1, r1.num, r1.den), (2, r2.num, r2.den, 1, 1))
    rows = []
    for (a, b, c, d), length, text in _reduced_words(r, r1, r2, depth):
        for source, un, ud, vn, vd in ends:
            xn, xd = a * un + b * ud, c * un + d * ud
            yn, yd = a * vn + b * vd, c * vn + d * vd
            if xd == 0 or yd == 0:
                raise InternalError("gap endpoint at infinity for word %s" % text)
            if xd < 0:
                xn, xd = -xn, -xd
            if yd < 0:
                yn, yd = -yn, -yd
            if yn * xd < xn * yd:
                xn, xd, yn, yd = yn, yd, xn, xd
            if yn <= 0 or xn >= xd:
                continue
            rows.append((xn, xd, yn, yd, source, length, text))

    # distinct reduced words give disjoint gaps (module docstring); a
    # repeated gap would sort next to itself and fail the overlap check
    rows.sort(key=_exact_key(max(row[1] for row in rows)))
    for g1, g2 in zip(rows, rows[1:]):
        if g2[0] * g1[3] < g1[2] * g2[1]:
            raise InternalError("gaps %s and %s overlap for r=%s"
                                % (_interval_text(*g1), _interval_text(*g2), r))
    rn, rd = r.num, r.den
    for row in rows:
        xn, xd, yn, yd, *_ = row
        if xn * rd < rn * xd and rn * yd < yn * rd:
            raise InternalError("gap %s contains r=%s"
                                % (_interval_text(*row), r))
    return GapSystem(r=r, depth=depth, rows=tuple(rows))


# the case of r by the forms of r that place its accidental parabolics
# (``slopes.accidental_parabolics``): both for p = 5, one, or none
_CASES = {
    ("[n, 2]", "[2, n]"): "exceptional-1",
    ("[2, n]",): "exceptional-2",
    ("[n, 2]",): "exceptional-3",
    (): "generic",
}


@dataclass(frozen=True)
class EndInvariantReport:
    """Bowditch's invariant set against the limit set.

    ``case`` is "generic" or "exceptional-1/2/3"; ``extra_orbits`` lists the
    accidental-parabolic slopes whose orbits are added to the limit set.
    ``mirrored`` flags a slope above 1/2, whose family is that of its
    mirror 1 - r.
    """

    r: Slope
    case: str
    extra_orbits: tuple
    mirrored: bool
    gap_system: GapSystem

    def to_json_text(self) -> str:
        """The report's JSON document: ``r``, ``case``, ``extra_orbits``,
        ``mirrored`` and the ``gap_system`` document, laid out as
        ``GapSystem.to_json_text`` lays out its own."""
        extras = ",\n".join("    " + _json_string(str(s)) for s in self.extra_orbits)
        return ('{\n  "r": %s,\n  "case": %s,\n  "extra_orbits": %s,\n'
                '  "mirrored": %s,\n  "gap_system": %s\n}'
                % (_json_string(str(self.r)), _json_string(self.case),
                   "[\n%s\n  ]" % extras if extras else "[]",
                   "true" if self.mirrored else "false",
                   self.gap_system.to_json_text().replace("\n", "\n  ")))


def bowditch_L(r: Slope, depth: int = DEFAULT_GAP_DEPTH) -> EndInvariantReport:
    """Classify Bowditch's set of end invariants for the holonomy.

    Generic slopes give exactly the limit set; the three exceptional
    families add the orbit of the accidental parabolics that
    ``slopes.accidental_parabolics`` lists, and the forms of r that place
    them name the case (``_CASES``).
    """
    forms, extras = tuple(zip(*accidental_parabolics(r))) or ((), ())
    return EndInvariantReport(
        r=r,
        case=_CASES[forms],
        extra_orbits=extras,
        mirrored=r > Slope(1, 2),
        gap_system=gap_intervals(r, depth),
    )


def render_gaps_svg(system: GapSystem) -> str:
    """Number-line picture of the gap system on [0, 1]: gaps as boxes, the
    residual set (approximating the limit set) as the uncovered line."""
    width, height, margin = 900, 160, 30.0
    span = width - 2 * margin
    axis_y = height * 0.62
    box_h = height * 0.3

    def x_of(frac):
        return margin + float(frac) * span

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">'
        % (width, height, width, height)
    )
    out.append('<rect width="%d" height="%d" fill="#ffffff"/>' % (width, height))
    out.append(
        '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="#222222" '
        'stroke-width="2"/>' % (x_of(0), axis_y, x_of(1), axis_y)
    )
    for frac, label in ((0, "0"), (1, "1"),
                        (system.r.as_fraction(), str(system.r))):
        x = x_of(frac)
        out.append('<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
                   'stroke="#222222" stroke-width="1"/>'
                   % (x, axis_y - 6, x, axis_y + 6))
        out.append('<text x="%.3f" y="%.3f" font-size="11" '
                   'font-family="monospace" text-anchor="middle">%s</text>'
                   % (x, axis_y + 22, label))
    for xn, xd, yn, yd, source, *_ in system.rows:
        lo = max(0.0, xn / xd)
        hi = min(1.0, yn / yd)
        if hi <= lo:
            continue
        colour = "#7fb2d9" if source == 1 else "#8fce9f"
        out.append(
            '<rect x="%.3f" y="%.3f" width="%.3f" height="%.3f" fill="%s" '
            'stroke="none"/>'
            % (x_of(lo), axis_y - box_h, max((hi - lo) * span, 0.4), box_h, colour)
        )
    out.append('<text x="%.3f" y="%.3f" font-size="12" font-family="monospace">'
               'gaps of the limit set, depth %d</text>'
               % (margin, height * 0.18, system.depth))
    out.append("</svg>")
    return "\n".join(out) + "\n"
