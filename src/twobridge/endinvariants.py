"""End invariants: membership in the limit set of the slope reflection
group, finite-depth gap systems for its complement, and the exceptional
families where Bowditch's invariant set picks up accidental parabolics.

The group is generated by the reflections in the four Farey edges bounding
the fundamental domain: two at infinity (over 0 and 1) and two at r (over
r1 and r2).  Rational points of the limit set are exactly the orbit of
infinity and r, so membership is decided by slope reduction; everything
else is covered by open gaps, the images of the interval interiors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalError, NonHyperbolicError
from .slopes import (
    INFINITY,
    Interval,
    ReflectionWord,
    Slope,
    _mat_mul,
    fundamental_intervals,
    is_hyperbolic,
    reduce_slope,
    reflection_in_edge,
)

__all__ = [
    "is_end_invariant",
    "Gap",
    "GapSystem",
    "gap_intervals",
    "EndInvariantReport",
    "bowditch_L",
    "interval_meets_limit_set",
]

MAX_GAP_DEPTH = 12


def is_end_invariant(s: Slope, r: Slope) -> bool:
    """True iff s lies in the limit set, i.e. reduces to inf or r."""
    s0, _ = reduce_slope(s, r)
    return s0 == r or s0.is_infinite


@dataclass(frozen=True)
class Gap:
    """An open interval of the discontinuity domain: the image of the
    interior of I_1 or I_2 under a reduced reflection word."""

    left: Slope
    right: Slope
    source: int  # 1 or 2: which fundamental interval maps here
    word: ReflectionWord

    @property
    def interval(self) -> Interval:
        return Interval(self.left, self.right)

    def contains(self, s: Slope) -> bool:
        return self.interval.interior_contains(s)

    def length(self) -> Fraction:
        return self.right.as_fraction() - self.left.as_fraction()


@dataclass(frozen=True)
class GapSystem:
    r: Slope
    depth: int
    gaps: tuple
    parabolic_points: tuple  # orbit points of inf and r discovered on the way
    duplicate_words: int = 0  # distinct group elements producing the same gap

    def covered_length(self) -> Fraction:
        """Total gap length inside (0, 1)."""
        zero, one = Fraction(0), Fraction(1)
        total = Fraction(0)
        for g in self.gaps:
            lo = max(zero, g.left.as_fraction())
            hi = min(one, g.right.as_fraction())
            if hi > lo:
                total += hi - lo
        return total

    def to_json(self):
        return {
            "r": str(self.r),
            "depth": self.depth,
            # a float: the exact sum's denominator can run to thousands of digits
            "covered_length_in_unit_interval": float(self.covered_length()),
            "gaps": [
                {
                    "interval": [str(g.left), str(g.right)],
                    "source": g.source,
                    "word": str(g.word),
                    "word_length": len(g.word),
                }
                for g in self.gaps
            ],
        }


def _canonical_matrix(m):
    for entry in m:
        if entry != 0:
            return m if entry > 0 else tuple(-x for x in m)
    raise InternalError("zero matrix in word enumeration")


def gap_intervals(r: Slope, depth: int) -> GapSystem:
    """All gaps w(int I_j) for reduced words w of length <= depth that meet
    the open unit interval, sorted and checked to be pairwise disjoint."""
    if depth < 0 or depth > MAX_GAP_DEPTH:
        raise DomainError("depth must lie in [0, %d]" % MAX_GAP_DEPTH)
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    i1, i2 = fundamental_intervals(r)
    r1, r2 = i1.right, i2.left
    generators = (
        reflection_in_edge(INFINITY, Slope(0, 1)),
        reflection_in_edge(INFINITY, Slope(1, 1)),
        reflection_in_edge(r, r1),
        reflection_in_edge(r, r2),
    )

    identity = (1, 0, 0, 1)
    frontier = [(identity, -1, ())]
    seen = {_canonical_matrix(identity)}
    elements = [(identity, ())]
    for _ in range(depth):
        new_frontier = []
        for matrix, last, letters in frontier:
            for idx, gen in enumerate(generators):
                if idx == last:
                    continue
                m2 = _mat_mul(matrix, gen.matrix)
                key = _canonical_matrix(m2)
                if key in seen:
                    continue
                seen.add(key)
                # matrix = g1...gd acts as g1(g2(...)): letters apply
                # first-to-last, so the new letter goes in front
                w2 = (gen,) + letters
                new_frontier.append((m2, idx, w2))
                elements.append((m2, w2))
        frontier = new_frontier

    zero, one = Slope(0, 1), Slope(1, 1)
    ends = {1: (zero, r1), 2: (r2, one)}
    gaps = {}
    parabolics = set()
    duplicates = 0
    for matrix, letters in elements:
        word = ReflectionWord(letters)
        for pt in (INFINITY, r):
            image = _apply(matrix, pt)
            if not image.is_infinite and zero < image < one:
                parabolics.add(image)
        for j in (1, 2):
            a = _apply(matrix, ends[j][0])
            b = _apply(matrix, ends[j][1])
            if a.is_infinite or b.is_infinite:
                raise InternalError("gap endpoint at infinity for word %s" % word)
            left, right = (a, b) if a < b else (b, a)
            if right <= zero or left >= one:
                continue
            key = (left, right)
            if key in gaps:
                duplicates += 1
                continue
            gaps[key] = Gap(left=left, right=right, source=j, word=word)

    ordered = sorted(gaps.values(), key=lambda g: g.left.as_fraction())
    for g1, g2 in zip(ordered, ordered[1:]):
        if g2.left < g1.right:
            raise InternalError(
                "gaps %s and %s overlap for r=%s" % (g1.interval, g2.interval, r)
            )
    for g in ordered:
        if g.contains(r):
            raise InternalError("gap %s contains r=%s" % (g.interval, r))
    return GapSystem(r=r, depth=depth, gaps=tuple(ordered),
                     parabolic_points=tuple(sorted(parabolics,
                                                   key=lambda s: s.as_fraction())),
                     duplicate_words=duplicates)


def _apply(matrix, s: Slope) -> Slope:
    a, b, c, d = matrix
    return Slope(a * s.num + b * s.den, c * s.num + d * s.den)


@dataclass(frozen=True)
class EndInvariantReport:
    """Bowditch's invariant set against the limit set.

    ``case`` is "generic" or "exceptional-1/2/3"; ``extra_orbits`` lists the
    accidental-parabolic slopes whose orbits are added to the limit set.
    Slopes above 1/2 are classified through the mirror r -> 1-r and the
    extras mapped back, flagged by ``mirrored``.
    """

    r: Slope
    case: str
    extra_orbits: tuple
    mirrored: bool
    gap_system: GapSystem

    def to_json(self):
        return {
            "r": str(self.r),
            "case": self.case,
            "extra_orbits": [str(s) for s in self.extra_orbits],
            "mirrored": self.mirrored,
            "gap_system": self.gap_system.to_json(),
        }


def _classify(q, p):
    """Exceptional-family test for q/p with 0 < q/p < 1/2."""
    if (q, p) == (2, 5):
        return "exceptional-1", (Slope(1, 5), Slope(3, 5))
    if p == 2 * q + 1 and q >= 3:
        return "exceptional-2", (Slope(q + 1, p),)
    if q == 2 and p % 2 == 1 and (p - 1) // 2 >= 3:
        return "exceptional-3", (Slope(1, p),)
    return "generic", ()


def bowditch_L(r: Slope, depth: int = 6) -> EndInvariantReport:
    """Classify Bowditch's set of end invariants for the holonomy.

    Generic slopes give exactly the limit set; the three exceptional
    families add the orbit of the listed accidental-parabolic slopes.
    """
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    mirrored = r > Slope(1, 2)
    rr = Slope(r.den - r.num, r.den) if mirrored else r
    case, extras = _classify(rr.num, rr.den)
    if mirrored:
        extras = tuple(Slope(s.den - s.num, s.den) for s in extras)
    return EndInvariantReport(
        r=r,
        case=case,
        extra_orbits=extras,
        mirrored=mirrored,
        gap_system=gap_intervals(r, depth),
    )


def render_gaps_svg(system: GapSystem, width: int = 900, height: int = 160) -> str:
    """Number-line picture of the gap system on [0, 1]: gaps as boxes, the
    residual set (approximating the limit set) as the uncovered line."""
    margin = 30.0
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
    for g in system.gaps:
        lo = max(0.0, float(g.left.as_fraction()))
        hi = min(1.0, float(g.right.as_fraction()))
        if hi <= lo:
            continue
        colour = "#7fb2d9" if g.source == 1 else "#8fce9f"
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


def interval_meets_limit_set(r: Slope, u: Slope, v: Slope, depth: int = 8) -> str:
    """Three-valued test whether the open interval (u, v) meets the limit
    set: "yes" when an orbit point of inf or r lies inside, "no" when one
    gap covers it, otherwise "unknown" at this depth."""
    if v < u:
        u, v = v, u
    system = gap_intervals(r, depth)
    probe = Interval(u, v)
    for g in system.gaps:
        if g.left <= u and v <= g.right:
            return "no"
    for pt in system.parabolic_points:
        if probe.interior_contains(pt):
            return "yes"
    return "unknown"
