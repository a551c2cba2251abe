"""Planar layout of the cusp-triangulation zigzag lines.

Each inner chain triangle sigma_i carries a bi-infinite zigzag line in C
whose vertices are the elliptic-generator positions c(P_j); consecutive
differences are the complex probabilities psi of the dual directed edges,
and c(P_{j+3}) = c(P_j) + 1.  No group elements are ever built: the lines
are laid out purely from psi values, glued on the two generators shared by
adjacent triangles, and the longitude appears as the path across the
E1-side vertices whose total displacement is lambda(O(r))/2.

The layout is read off the mediant descent of r's Farey chain, in which
every inner triangle (lo, med, hi) is ascending and shares <lo, hi> with
the triangle before it.  A line's slopes are its triangle's vertices in
that order, except that sigma_2 = <0, 1/2, 1> is rotated to (1/2, 1, 0)
when r > 1/2.  Each later line is anchored at the previous line's point on
its first vertex lo, and its point on hi must meet the previous line's next
point.  The boundary lines fold at 1/2 and at e+.s0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, GluingMismatchError, InternalError, TwoBridgeError
from .markoff import MarkoffEvaluation
from .mcshane import psi
from .slopes import Slope

__all__ = [
    "ZigzagLine",
    "FoldReport",
    "CuspLayout",
    "LayoutNotGeometricError",
    "layout_cusp",
    "check_simply_folded",
    "render_svg",
]

GLUE_TOL = 1e-8
FOLD_TOL = 1e-9


class LayoutNotGeometricError(TwoBridgeError, RuntimeError):
    """Fold or strip test failed: the layout does not come from the
    holonomy."""


@dataclass(frozen=True)
class ZigzagLine:
    """One period of the zigzag line of a chain triangle.

    ``slopes[j]`` is the slope of the generator at index j mod 3 and
    ``points`` holds c(P_0), c(P_1), c(P_2), c(P_3) = c(P_0) + 1 for the
    base period; all other vertices follow by integer translation.
    """

    triangle_index: int  # 1-based chain position of sigma_i
    slopes: tuple
    points: tuple

    def point(self, j: int) -> complex:
        q, rem = divmod(j, 3)
        return self.points[rem] + q

    def slope_at(self, j: int) -> Slope:
        return self.slopes[j % 3]

    def index_of(self, slope: Slope) -> int:
        return self.slopes.index(slope)


@dataclass(frozen=True)
class FoldReport:
    fold_slope: Slope
    spike: complex
    residual: float
    level: float            # Im of the horizontal line


@dataclass(frozen=True)
class CuspLayout:
    r: Slope
    lines: tuple
    longitude_path: tuple
    longitude_slopes: tuple
    lambda_half: complex
    fold_minus: FoldReport
    fold_plus: FoldReport

    @property
    def l_minus(self):
        return self.fold_minus.level

    @property
    def l_plus(self):
        return self.fold_plus.level

    def to_json(self):
        return {
            "r": str(self.r),
            "lambda_half": [self.lambda_half.real, self.lambda_half.imag],
            "l_minus": self.l_minus,
            "l_plus": self.l_plus,
            "lines": [
                {
                    "triangle": line.triangle_index,
                    "vertices": [
                        {"j": j, "slope": str(line.slope_at(j)),
                         "point": [line.point(j).real, line.point(j).imag]}
                        for j in range(4)
                    ],
                }
                for line in self.lines
            ],
            "longitude": [
                {"slope": str(s), "point": [p.real, p.imag]}
                for s, p in zip(self.longitude_slopes, self.longitude_path)
            ],
        }


def _delta(ev, a, b, c):
    """c(P_{j+1}) - c(P_j) for consecutive generators of slopes (a, b) on a
    triangle whose third vertex is c."""
    return ev.phi(c) / (ev.phi(a) * ev.phi(b))


def _line_from_anchor(ev, index, slopes, anchor):
    t0, t1, t2 = slopes
    p0 = anchor
    p1 = p0 + _delta(ev, t0, t1, t2)
    p2 = p1 + _delta(ev, t1, t2, t0)
    return ZigzagLine(triangle_index=index, slopes=slopes,
                      points=(p0, p1, p2, p0 + 1))


def layout_cusp(r: Slope, ev: MarkoffEvaluation) -> CuspLayout:
    """Lay out the zigzag lines of sigma_2 ... sigma_{c-1} and the
    longitude path across the E1 vertices, on the evaluation's edge
    system."""
    edges = ev.edges
    triangles = edges.triangles
    c = len(triangles)
    if c < 4:
        raise InternalError("chain too short to lay out a cusp")

    scale = max(1.0, abs(ev.root))

    # sigma_2 = <0, 1/2, 1> starts, anchored at 0, on the first vertex of
    # sigma_3: 0, or 1/2 when the descent turns right at 1/2
    lo, half, hi = triangles[1]
    slopes = (half, hi, lo) if r > half else (lo, half, hi)
    lines = [_line_from_anchor(ev, 2, slopes, 0j)]

    for i in range(2, c - 1):
        prev_line = lines[-1]
        slopes = triangles[i]
        k = prev_line.index_of(slopes[0])
        line = _line_from_anchor(ev, i + 1, slopes, prev_line.point(k))
        mismatch = abs(line.points[2] - prev_line.point(k + 1))
        if mismatch > GLUE_TOL * scale:
            raise GluingMismatchError(
                "lines of sigma_%d and sigma_%d disagree by %.3e"
                % (i, i + 1, mismatch)
            )
        lines.append(line)

    path, path_slopes = _longitude_path(ev, edges, lines)
    lam_half = path[-1] - path[0]

    fold_minus = _fold_report(lines[0], half)
    fold_plus = _fold_report(lines[-1], edges.e_plus.s0)

    return CuspLayout(
        r=r,
        lines=tuple(lines),
        longitude_path=tuple(path),
        longitude_slopes=tuple(path_slopes),
        lambda_half=lam_half,
        fold_minus=fold_minus,
        fold_plus=fold_plus,
    )


def _longitude_path(ev, edges, lines):
    """Join the E1-side vertices; displacements are the psi values."""
    line_by_index = {line.triangle_index: line for line in lines}
    path = []
    slopes = []
    prev = None
    for e in edges.e1:
        line = line_by_index[e.head_index + 1]  # chain index is 1-based
        start = line.point(line.index_of(e.s1))
        step = psi(e, ev)
        if prev is None:
            path.append(start)
            slopes.append(e.s1)
        else:
            # successive E1 heads share the vertex up to the period gauge
            offset = prev - start
            if abs(offset - round(offset.real)) > 1e-8 * max(1.0, abs(prev)):
                raise GluingMismatchError(
                    "longitude path loses vertex %s at %s" % (e.s1, e))
        path.append(path[-1] + step)
        slopes.append(e.s2)
        prev = path[-1]
    return path, slopes


def _fold_report(line, fold_slope):
    """Fold data of a boundary line at ``fold_slope``: 1/2, the vertex
    sigma_2 adds to sigma_1, or e+.s0, the vertex sigma_c drops from
    sigma_{c-1}."""
    j = line.index_of(fold_slope)
    spike = line.point(j)
    foot_a = line.point(j - 1)
    foot_b = line.point(j + 1)
    residual = abs(foot_a - foot_b)
    level = 0.5 * (foot_a.imag + foot_b.imag)
    return FoldReport(
        fold_slope=fold_slope,
        spike=spike,
        residual=residual,
        level=level,
    )


def check_simply_folded(layout: CuspLayout) -> None:
    """Verify both boundary lines are simply folded and every vertex of the
    layout lies weakly between the two horizontal lines, to FOLD_TOL
    relative to the layout's size; LayoutNotGeometricError otherwise."""
    tol = FOLD_TOL * max(1.0, max(abs(p) for line in layout.lines
                                  for p in line.points))
    for fold in (layout.fold_minus, layout.fold_plus):
        if fold.residual > tol:
            raise LayoutNotGeometricError(
                "layout not geometric: fold at slope %s fails by %.3e"
                % (fold.fold_slope, fold.residual))
        if abs(fold.spike.imag - fold.level) <= tol:
            raise LayoutNotGeometricError(
                "layout not geometric: spike of %s lies on the fold line"
                % (fold.fold_slope,))
    lo = min(layout.l_minus, layout.l_plus) - tol
    hi = max(layout.l_minus, layout.l_plus) + tol
    for line in layout.lines:
        for p in line.points:
            if not (lo <= p.imag <= hi):
                raise LayoutNotGeometricError(
                    "layout not geometric: vertex %r of sigma_%d leaves the "
                    "strip" % (p, line.triangle_index))


# ---------------------------------------------------------------------------
# SVG rendering


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 800, 600, 40
# the plot's width in pixels: every zigzag line's x-span is at least
# ``periods`` units, so beyond this many periods each is under a pixel wide
MAX_PERIODS = SVG_WIDTH - 2 * SVG_MARGIN

_LINE_COLORS = ("#355f8d", "#3e8e6e", "#8d5a35", "#6e3e8e", "#8d3550",
                "#50708d", "#6e8e3e")


def _fmt(x: float) -> str:
    return "%.6f" % (x + 0.0,)  # normalise -0.0


def render_svg(layout: CuspLayout, periods: int = 2) -> str:
    """Deterministic SVG: one polyline per zigzag line over ``periods``
    fundamental periods (1 to MAX_PERIODS, else DomainError), the
    longitude path highlighted, fold spikes marked."""
    if periods < 1:
        raise DomainError("periods must be at least 1, got %r" % (periods,))
    if periods > MAX_PERIODS:
        raise DomainError("periods must be at most %d, got %r"
                          % (MAX_PERIODS, periods))

    pts = []
    polylines = []
    for line in layout.lines:
        poly = [line.point(j) for j in range(-1, 3 * periods + 2)]
        polylines.append(poly)
        pts.extend(poly)
    pts.extend(layout.longitude_path)

    min_x = min(p.real for p in pts)
    max_x = max(p.real for p in pts)
    min_y = min(p.imag for p in pts)
    max_y = max(p.imag for p in pts)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)
    sx = (SVG_WIDTH - 2 * SVG_MARGIN) / span_x
    sy = (SVG_HEIGHT - 2 * SVG_MARGIN) / span_y
    s = min(sx, sy)

    def xy(p):
        return (SVG_MARGIN + (p.real - min_x) * s,
                SVG_HEIGHT - SVG_MARGIN - (p.imag - min_y) * s)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">'
        % (SVG_WIDTH, SVG_HEIGHT, SVG_WIDTH, SVG_HEIGHT)
    )
    out.append('<rect width="%d" height="%d" fill="#ffffff"/>' % (SVG_WIDTH, SVG_HEIGHT))

    for level, name in ((layout.l_minus, "L-"), (layout.l_plus, "L+")):
        x0, y = xy(complex(min_x, level))
        x1, _ = xy(complex(max_x, level))
        out.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#999999" '
            'stroke-width="0.8" stroke-dasharray="6 4"/>'
            % (_fmt(x0), _fmt(y), _fmt(x1), _fmt(y))
        )
        out.append(
            '<text x="%s" y="%s" font-size="11" fill="#777777" '
            'font-family="monospace">%s</text>'
            % (_fmt(x1 - 18), _fmt(y - 4), name)
        )

    for idx, (line, poly) in enumerate(zip(layout.lines, polylines)):
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        points = " ".join("%s,%s" % tuple(map(_fmt, xy(p))) for p in poly)
        out.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.2"/>'
            % (points, color)
        )

    for fold in (layout.fold_minus, layout.fold_plus):
        for k in range(periods + 1):
            cx, cy = xy(fold.spike + k)
            out.append(
                '<circle cx="%s" cy="%s" r="3.0" fill="none" stroke="#cc3333" '
                'stroke-width="1.0"/>' % (_fmt(cx), _fmt(cy))
            )

    points = " ".join(
        "%s,%s" % tuple(map(_fmt, xy(p))) for p in layout.longitude_path
    )
    out.append(
        '<polyline points="%s" fill="none" stroke="#111111" stroke-width="2.4"/>'
        % (points,)
    )
    for p in (layout.longitude_path[0], layout.longitude_path[-1]):
        cx, cy = xy(p)
        out.append('<circle cx="%s" cy="%s" r="2.6" fill="#111111"/>'
                   % (_fmt(cx), _fmt(cy)))

    out.append("</svg>")
    return "\n".join(out) + "\n"
