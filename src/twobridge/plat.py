"""Plat diagrams of 2-bridge links: orientation tracing, the twist-parity
vector, linking numbers, and the homology class of the cusp longitude.

The diagram of K([a1, ..., an]) is a 4-string braid between two bridges:
block k is a_k half-twists of strings (2,3) for odd k and of strings (1,2)
for even k; the top bridge joins (1,2)(3,4) and the bottom bridge joins
(1,2)(3,4) for odd n and (1,4)(2,3) for even n.  delta_k records whether
the two strings twisting in block k are parallel (0) or antiparallel (1).

Ambient orientation: the package fixes the orientation of S^3 by requiring
Im lambda(O(r)) > 0 on the analytic side, which is the mirror of the
convention implicit in the alternating-diagram figures the linking formula
was stated for.  CHIRALITY = -1 applies that mirror to every crossing sign,
so that Re lambda(K(r)) = lk(l, K(r)) holds for the figure-eight knot.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InternalError, SlopeError
from .slopes import Slope, continued_fraction, num_components

__all__ = [
    "CHIRALITY",
    "Crossing",
    "PlatDiagram",
    "build_plat",
    "linking_number_formula",
    "linking_number_diagram",
    "LongitudeClass",
    "longitude_class",
    "longitude_json",
]

CHIRALITY = -1

# the slot each bridge joins to each slot: the top bridge, and the bottom
# one for odd n, join (1,2)(3,4); the bottom one for even n joins (1,4)(2,3)
_MATE = (1, 0, 3, 2)
_MATE_EVEN_BOTTOM = (3, 2, 1, 0)


@dataclass
class Crossing:
    """One half-twist: ``positions`` are the two strand slots (0-based),
    ``block`` the 1-based continued-fraction block it belongs to."""

    block: int
    positions: tuple
    # filled in by orientation tracing: (direction, component) per pass,
    # direction +1 downward, -1 upward
    passes: list

    @property
    def handed_sign(self):
        """(-1)^(k-1): right-handed twists in odd blocks, in the convention
        of the linking formula's source diagram."""
        return 1 if self.block % 2 == 1 else -1

    @property
    def antiparallel(self):
        (d1, _), (d2, _) = self.passes
        return d1 * d2 < 0

    @property
    def intercomponent(self):
        (_, c1), (_, c2) = self.passes
        return c1 != c2


@dataclass
class PlatDiagram:
    r: Slope
    cf: tuple                # continued-fraction coefficients a1..an
    orientation: str
    crossings: list
    components: int
    delta: tuple             # per block, 0 parallel / 1 antiparallel

    @property
    def n(self):
        return len(self.cf)


def build_plat(r: Slope, orientation: str = "default") -> PlatDiagram:
    """Build and orient the plat diagram.

    The first component runs left to right across its top bridge; for links
    the second does too unless ``orientation="reversed"``.  Each component
    is walked once, from top slot 0 and then from slot 2 if the first walk
    did not reach it, and the walks are checked against ``num_components``.
    """
    if orientation not in ("default", "reversed"):
        raise DomainError("orientation must be 'default' or 'reversed'")
    if r.is_infinite or not (Slope(0, 1) < r < Slope(1, 1)):
        raise SlopeError("plat diagrams need r in (0, 1)")
    cf = continued_fraction(r)
    n = len(cf)
    crossings = [Crossing(block=k, positions=(1, 2) if k % 2 else (0, 1),
                          passes=[])
                 for k, a in enumerate(cf, start=1) for _ in range(a)]
    bottom_mate = _MATE if n % 2 else _MATE_EVEN_BOTTOM
    expected = num_components(r)

    reached = set()
    comp = 0
    for start in (0, 2):
        if start in reached:
            continue
        # "reversed" flips the last component: the second one of a link, or
        # the global orientation of a knot (which cannot change anything)
        reverse = orientation == "reversed" and comp == expected - 1
        # cross the top bridge left to right (or right to left), then descend
        a, b = (_MATE[start], start) if reverse else (start, _MATE[start])
        reached.update((a, b))
        pos = b
        for _ in range(4):
            pos_bottom = _walk(crossings, pos, +1, comp)
            pos_top = _walk(crossings, bottom_mate[pos_bottom], -1, comp)
            if pos_top == a:
                break
            pos = _MATE[pos_top]
            reached.update((pos_top, pos))
        else:
            raise InternalError("component %d of %s did not close" % (comp, r))
        comp += 1
    if comp != expected:
        raise InternalError("plat of %s has %d components, expected %d"
                            % (r, comp, expected))

    for i, cr in enumerate(crossings):
        if len(cr.passes) != 2:
            raise InternalError("crossing %d traced %d times"
                                % (i, len(cr.passes)))

    delta = []
    for k in range(1, n + 1):
        flags = {cr.antiparallel for cr in crossings if cr.block == k}
        if len(flags) != 1:
            raise InternalError("block %d has mixed strand orientations" % k)
        delta.append(1 if flags.pop() else 0)

    return PlatDiagram(
        r=r,
        cf=cf,
        orientation=orientation,
        crossings=crossings,
        components=comp,
        delta=tuple(delta),
    )


def _walk(crossings, pos, direction, cid):
    """Walk one strand through the braid, recording each crossing pass.

    ``direction`` +1 goes downward through the levels, -1 upward; returns
    the exit position.
    """
    seq = crossings if direction > 0 else reversed(crossings)
    for cr in seq:
        i, j = cr.positions
        if pos == i or pos == j:
            cr.passes.append((direction, cid))
            pos = j if pos == i else i
    return pos


def linking_number_formula(r: Slope, orientation: str = "default",
                           diagram: PlatDiagram | None = None) -> int:
    """lk(l, K(r)) for the cusp longitude, from the block parities.

    In the source convention this is 2*sum(delta_k (-1)^(k-1) a_k), plus an
    extra 2 when n is even; CHIRALITY transports it to our orientation.
    """
    if diagram is None:
        diagram = build_plat(r, orientation)
    acc = 0
    for k, (a, d) in enumerate(zip(diagram.cf, diagram.delta), start=1):
        acc += d * (1 if k % 2 == 1 else -1) * a
    if diagram.n % 2 == 0:
        acc += 1
    return CHIRALITY * 2 * acc


def linking_number_diagram(r: Slope, orientation: str = "default",
                           diagram: PlatDiagram | None = None) -> int:
    """Signed count of the longitude running under the link, crossing by
    crossing: each half-twist crossed by antiparallel strings contributes
    two same-signed under-passes of the pushoff, parallel strings cancel;
    the bottom-tunnel wrap adds one meridian when n is even."""
    if diagram is None:
        diagram = build_plat(r, orientation)
    total = 0
    for cr in diagram.crossings:
        if cr.antiparallel:
            total += 2 * cr.handed_sign * CHIRALITY
    if diagram.n % 2 == 0:
        total += 2 * CHIRALITY
    return total


def pairwise_linking(diagram: PlatDiagram) -> int:
    """lk(K1, K2) for a 2-component diagram by the signed crossing count."""
    if diagram.components != 2:
        raise DomainError("pairwise linking needs a 2-component link")
    total = 0
    for cr in diagram.crossings:
        if cr.intercomponent:
            (d1, _), (d2, _) = cr.passes
            total += CHIRALITY * cr.handed_sign * d1 * d2
    if total % 2 != 0:
        raise InternalError("odd signed intercomponent crossing count")
    return total // 2


@dataclass(frozen=True)
class LongitudeClass:
    """[l] = a [l0] + b [m] per component; a is always 1."""

    components: int
    lk_ell_link: int
    pairwise: int | None
    a: int
    b: int
    remark_hypothesis: bool   # every a_i even and n odd


def longitude_class(diagram: PlatDiagram) -> LongitudeClass:
    """Coefficients of the cusp longitude against the preferred longitude
    and meridian; for links the half-integer expression is checked to be
    integral."""
    lk_ell = linking_number_formula(diagram.r, diagram.orientation,
                                    diagram=diagram)
    cf = diagram.cf
    hyp = all(a % 2 == 0 for a in cf) and len(cf) % 2 == 1
    if diagram.components == 1:
        return LongitudeClass(
            components=1, lk_ell_link=lk_ell, pairwise=None, a=1, b=lk_ell,
            remark_hypothesis=hyp,
        )
    lk12 = pairwise_linking(diagram)
    half = lk_ell - 2 * lk12
    if half % 2 != 0:
        raise InternalError(
            "longitude coefficient (lk - 2 lk12)/2 is not integral for %s"
            % (diagram.r,)
        )
    return LongitudeClass(
        components=2, lk_ell_link=lk_ell, pairwise=lk12, a=1, b=half // 2,
        remark_hypothesis=hyp,
    )


def longitude_json(r: Slope, orientation: str = "default"):
    diagram = build_plat(r, orientation)
    cls = longitude_class(diagram)
    return {
        "r": str(r),
        "n": diagram.n,
        "a": list(diagram.cf),
        "orientation": orientation,
        "delta": list(diagram.delta),
        "lk_formula": cls.lk_ell_link,
        "lk_diagram": linking_number_diagram(r, orientation, diagram=diagram),
        "lk_pairwise": cls.pairwise,
        "class": {"a": cls.a, "b": cls.b},
        "components": diagram.components,
        "remark_all_even_odd_n": cls.remark_hypothesis,
    }
