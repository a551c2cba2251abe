"""The h-function, complex probabilities, finite edge-sum identities, the
McShane-type interval series, and the cusp moduli.

For the geometric Markoff map of a hyperbolic 2-bridge slope r the two
interval sums satisfy S1 + S2 = -1, where

    S_j = 2 sum_{s in int I_j} h(phi(s)) + sum_{s in bd I_j} h(phi(s)),

and the cusp moduli are lambda(O(r)) = 2 * sum_{E1} psi and
lambda(K(r)) = 2 lambda(O(r)) / |K(r)|.  The series are summed by the
``kernels`` walker over the cut-off interval of each boundary edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .errors import (
    DomainError,
    InternalError,
    NonHyperbolicError,
    NotGeometricEvaluationError,
)
from .markoff import MarkoffEvaluation, geometric_evaluation
from .slopes import ONE, ZERO, Slope, farey_chain, is_hyperbolic, num_components

__all__ = [
    "h",
    "DirectedFareyEdge",
    "EdgeSystem",
    "boundary_edge_sets",
    "psi",
    "finite_edge_sums",
    "census_scan",
    "SeriesResult",
    "interval_series",
    "IdentityReport",
    "cusp_shape",
]

DEFAULT_EPS = 1e-8
# census_scan rejects a map with more slopes of |phi| <= 2 than this
_CENSUS_CAP = 64


def h(x):
    """h(x) = (1 - sqrt(1 - 4/x^2))/2, branch Re sqrt >= 0.

    Undefined on the real interval (-2, 2).  The traces are classed as
    ``kernels`` classes them: a parabolic one, within PARABOLIC_TOL of +-2,
    takes the limit 1/2, and an elliptic one raises DomainError.
    Satisfies h(2 cosh(l/2)) = 1/(1 + e^l) for Re l >= 0.  Evaluated as
    2/(x^2 (1 + sqrt(1 - 4/x^2))) (``kernels.h_func``), which keeps full
    relative accuracy for large |x|, where the first form cancels.
    """
    x = complex(x)
    if kernels._near_parabolic(x):
        return 0.5 + 0j
    if kernels._is_elliptic(x):
        raise DomainError("h is undefined on the real interval (-2, 2)")
    return kernels.h_func(x)


@dataclass(frozen=True)
class DirectedFareyEdge:
    """Directed dual edge e <-> (s1, s2; s0, s3).

    The Farey edge <s1, s2> is dual to e, the head triangle is <s0, s1, s2>
    (a chain triangle) and the tail triangle is <s1, s2, s3>, which lies off
    the chain for the boundary edges enumerated here.  s3 is not stored:
    nothing here reads it.
    """

    s1: Slope
    s2: Slope
    s0: Slope
    head_index: int  # 0-based index into the chain

    def __str__(self):
        return "e(<%s,%s>; head %s)" % (self.s1, self.s2, self.s0)


@dataclass(frozen=True)
class EdgeSystem:
    """E(r) = E1 u E2 u {e-, e+}, all edges pointing into the dual path,
    with the vertex triples of r's Farey chain they were read off."""

    triangles: tuple
    e1: tuple
    e2: tuple
    e_minus: DirectedFareyEdge
    e_plus: DirectedFareyEdge


def boundary_edge_sets(r: Slope) -> EdgeSystem:
    """Enumerate the directed edges with head dual to an inner chain triangle
    and tail outside the dual path, split into E1, E2 and e-, e+.

    Each inner chain triangle (lo, med, hi) of the mediant descent turns at
    its mediant, and the turn fixes its boundary edge:

    - r < med: the side edge <med, hi> is in E2, with s0 = lo (and s3 the
      mediant of med and hi); the next triangle drops hi.
    - r > med: the side edge <lo, med> is in E1, with s0 = hi (and s3 the
      mediant of lo and med); the next triangle drops lo.

    So E1 comes out ascending and E2 descending; E2 is reversed, and both
    are listed left to right.  e- is <0, 1; 1/2, inf>, and e+ is the last
    crossed edge, with s0 the vertex sigma_{c-1} drops and s3 = r.

    This is the one place that builds r's Farey chain, and a
    non-hyperbolic r raises NonHyperbolicError.  The final triangle is
    (r1, r, r2), r1 and r2 the Farey parents of r that bound I1 and I2, so
    e+ is <r1, r2>.  ``select_geometric_root`` gives the edge system to
    every ``MarkoffEvaluation`` it builds.
    """
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    triangles = farey_chain(r)
    r1, _, r2 = triangles[-1]

    e1, e2 = [], []
    for i in range(1, len(triangles) - 1):
        lo, med, hi = triangles[i]
        if r < med:
            e2.append(DirectedFareyEdge(med, hi, lo, i))
            dropped = hi
        else:
            e1.append(DirectedFareyEdge(lo, med, hi, i))
            dropped = lo
    e2.reverse()

    e_minus = DirectedFareyEdge(ZERO, ONE, Slope(1, 2), 1)
    e_plus = DirectedFareyEdge(r1, r2, dropped, len(triangles) - 2)
    return EdgeSystem(triangles=triangles, e1=tuple(e1), e2=tuple(e2),
                      e_minus=e_minus, e_plus=e_plus)


def psi(e: DirectedFareyEdge, ev: MarkoffEvaluation) -> complex:
    """Complex probability phi(s0) / (phi(s1) phi(s2))."""
    denom = ev.phi(e.s1) * ev.phi(e.s2)
    if abs(denom) < 1e-300:
        raise DomainError("psi denominator vanishes on edge %s" % (e,))
    return ev.phi(e.s0) / denom


def finite_edge_sums(r: Slope, ev: MarkoffEvaluation, check: bool = True):
    """(sum over E1 of psi, sum over E2 of psi); their total is -1.

    The edges are those of the evaluation's edge system ``ev.edges``.  The
    pair is kept on ``ev.finite_sums``, so the geometric-root filter and
    ``cusp_shape`` sum it once.  With ``check`` the -1 identity and the
    full-sum identity sum_{E(r)} psi = 1 are asserted to 1e-8.
    """
    edges = ev.edges
    if ev.finite_sums is None:
        ev.finite_sums = (sum((psi(e, ev) for e in edges.e1), 0j),
                          sum((psi(e, ev) for e in edges.e2), 0j))
    s1, s2 = ev.finite_sums
    if check:
        if abs(s1 + s2 + 1) > 1e-8:
            raise InternalError(
                "edge-sum identity violated: %r (r=%s)" % (s1 + s2, r)
            )
        full = s1 + s2 + psi(edges.e_minus, ev) + psi(edges.e_plus, ev)
        if abs(full - 1) > 1e-8:
            raise InternalError("total edge sum %r != 1 (r=%s)" % (full, r))
    return s1, s2


# ---------------------------------------------------------------------------
# Series summation


@dataclass
class SeriesResult:
    value: complex
    tail_bound: float
    census: tuple          # (Slope, trace) with |trace| <= 2
    depth_used: int
    partial: bool
    nodes: int


def _explore_edge(ev: MarkoffEvaluation, edge: DirectedFareyEdge, eps_edge,
                  kernel=None, node_budget=None, census_cap=float("inf")):
    """Interior sum 2*sum h(phi(s)) over the open cut-off interval of one
    boundary edge, in one kernel call.

    With ``eps_edge`` infinite this is the census scan's exploration: it
    sums nothing, and the fans stop where their traces grow.  The walk
    stops early on an elliptic trace (raised here), on ``node_budget``
    (``kernels.NODE_BUDGET`` unless given) or once the census passes
    ``census_cap``.
    """
    if kernel is None:
        kernel = kernels.active_kernel
    out = kernels.CellOutcome()
    out.census_cap = census_cap
    u, v = edge.s1, edge.s2
    kernel.explore(out, u.num, u.den, ev.phi(u), v.num, v.den, ev.phi(v),
                   ev.phi(edge.s0), 0, eps_edge, node_budget)
    if out.elliptic is not None:
        num, den, val = out.elliptic
        raise NotGeometricEvaluationError(Slope(num, den), val)
    return out


def _boundary_trace(ev, slope, records):
    """phi at a cut-off interval endpoint, snapped to +-2 if parabolic.

    A trace with |phi| <= 2 goes to ``records`` as (slope, phi); an
    elliptic one raises NotGeometricEvaluationError.
    """
    val = ev.phi(slope)
    if kernels._near_parabolic(val):
        val = kernels._snap_parabolic(val)
    elif kernels._is_elliptic(val):
        raise NotGeometricEvaluationError(slope, val)
    if abs(val) <= 2.0 + kernels.CENSUS_TOL:
        records.append((slope, val))
    return val


def interval_series(r: Slope, ev: MarkoffEvaluation, j: int,
                    eps: float = DEFAULT_EPS, kernel=None,
                    max_depth=None) -> SeriesResult:
    """S_j = 2 sum_{int I_j} h(phi) + sum_{bd I_j} h(phi) by depth-first
    traversal of the cut-off intervals of the E_j edges.

    The series is summed until its tail bound is within ``eps``, split
    evenly over the edges; ``cusp_shape`` gives each of its two series half
    of its own eps.  There is no depth limit, so ``partial`` means only
    that the node budget was hit.

    ``max_depth`` is ignored.  It is kept only because
    ``perfbench/worker.py::kernel_parity`` passes it, and goes with that
    function in the next change to the benchmark.
    """
    if j not in (1, 2):
        raise DomainError("j must be 1 or 2")
    if not 0 < eps < math.inf:
        raise DomainError("eps must be positive and finite, got %r" % (eps,))
    group = ev.edges.e1 if j == 1 else ev.edges.e2
    eps_edge = eps / max(len(group), 1)

    total = 0j
    tail = 0.0
    census = {}
    depth_used = 0
    partial = False
    nodes = 0
    boundary_records = []
    for edge in group:
        for s in (edge.s1, edge.s2):
            total += h(_boundary_trace(ev, s, boundary_records))
        out = _explore_edge(ev, edge, eps_edge, kernel=kernel)
        total += out.total
        tail += out.tail
        depth_used = max(depth_used, out.max_depth_seen)
        partial = partial or out.depth_capped
        nodes += out.nodes
        for num, den, val in out.census:
            census[Slope(num, den)] = val
    for slope, val in boundary_records:
        census[slope] = val
    order = sorted(census, key=lambda s: (s.den, s.num))
    return SeriesResult(
        value=total,
        tail_bound=tail,
        census=tuple((s, census[s]) for s in order),
        depth_used=depth_used,
        partial=partial,
        nodes=nodes,
    )


def census_scan(ev: MarkoffEvaluation):
    """Slopes with |phi| <= 2 discovered exploring both intervals; used by
    the geometric-root filters.

    Each edge of E1 u E2 of ``ev.edges`` is explored by the series' own driver
    (``_explore_edge``) with an infinite eps share: the same kernel and
    the same fans, parabolic ones included, which evaluate no h and stop
    where their traces grow.  There is no depth limit: a cell is
    pruned once its traces provably stay above 2 below it, by the
    criterion C(2 + delta) of the ``kernels`` docstring.

    A geometric map has no real trace in (-2, 2) on I1 u I2 and only
    finitely many |phi| <= 2 there; the scan raises
    NotGeometricEvaluationError as soon as it sees otherwise: an elliptic
    trace or a census of more than ``_CENSUS_CAP`` slopes.  It also raises
    once it has spent ``kernels.NODE_BUDGET`` Stern-Brocot nodes over all
    edges, the budget one series spends on each edge.  The last two
    reasons name the census size or the budget and the nodes spent.

    The census cap is a scan-only contract.  Each edge's exploration gets
    the room left under the cap on ``CellOutcome.census_cap``; it returns
    once its census passes it, and the comparison after the edge raises.
    """
    node_budget = kernels.NODE_BUDGET
    found = set()
    spent = 0
    for edge in ev.edges.e1 + ev.edges.e2:
        records = []
        for s in (edge.s1, edge.s2):
            _boundary_trace(ev, s, records)
        found.update(s for s, _ in records)
        out = _explore_edge(ev, edge, float("inf"),
                            node_budget=node_budget - spent,
                            census_cap=_CENSUS_CAP - len(found))
        spent += out.nodes
        if len(out.census) > out.census_cap:
            raise _census_overflow(edge, len(found) + len(out.census), spent)
        if spent >= node_budget:
            raise NotGeometricEvaluationError(
                edge.s1, 0j,
                note="exploration of %s did not stabilise: %d nodes spent of "
                     "a budget of %d" % (edge, spent, node_budget))
        found.update(Slope(num, den) for num, den, _ in out.census)
    return frozenset(found)


def _census_overflow(edge, size, spent):
    return NotGeometricEvaluationError(
        edge.s1, 0j,
        note="census of small traces keeps growing: %d slopes with |phi| <= 2 "
             "after %d nodes (at %s)" % (size, spent, edge))


# ---------------------------------------------------------------------------
# Reports


@dataclass
class IdentityReport:
    """Everything the main identity produces for one slope."""

    r: Slope
    components: int
    root: complex
    finite_sum_e1: complex
    finite_sum_e2: complex
    series_s1: complex
    series_s2: complex
    tail_bound_1: float
    tail_bound_2: float
    lambda_orbifold: complex
    lambda_link: complex
    lambda_link_i1_form: complex
    lambda_link_i2_form: complex
    depth_used: int
    eps: float
    partial: bool
    slopes_small_trace: tuple
    accidental_parabolics: tuple

    @property
    def identity_residual(self) -> float:
        return abs(self.series_s1 + self.series_s2 + 1)

    @property
    def finite_identity_residual(self) -> float:
        return abs(self.finite_sum_e1 + self.finite_sum_e2 + 1)

    @property
    def form_disagreement(self) -> float:
        return abs(self.lambda_link_i1_form - self.lambda_link_i2_form)

    def to_json(self):
        def c(z):
            return [z.real, z.imag]

        return {
            "r": str(self.r),
            "components": self.components,
            "root": c(self.root),
            "finite_sum_E1": c(self.finite_sum_e1),
            "finite_sum_E2": c(self.finite_sum_e2),
            "series_S1": c(self.series_s1),
            "series_S2": c(self.series_s2),
            "tail_bound_1": self.tail_bound_1,
            "tail_bound_2": self.tail_bound_2,
            "identity_residual": self.identity_residual,
            "finite_identity_residual": self.finite_identity_residual,
            "lambda_orbifold": c(self.lambda_orbifold),
            "lambda_link": c(self.lambda_link),
            "lambda_link_I1_form": c(self.lambda_link_i1_form),
            "lambda_link_I2_form": c(self.lambda_link_i2_form),
            "form_disagreement": self.form_disagreement,
            "depth_used": self.depth_used,
            "eps": self.eps,
            "partial": self.partial,
            "tail_bound_note": "heuristic trace-growth estimate",
            "slopes_small_trace": [[str(s), v.real, v.imag]
                                   for s, v in self.slopes_small_trace],
            "accidental_parabolics": [[str(s), v.real, v.imag]
                                      for s, v in self.accidental_parabolics],
        }


def cusp_shape(r: Slope, eps: float = DEFAULT_EPS,
               ev: MarkoffEvaluation | None = None) -> IdentityReport:
    """Full pipeline: trace polynomial -> geometric root and edge system ->
    finite edge sums -> interval series -> cusp moduli.

    Each of the two series gets eps/2, so the report's
    ``tail_bound_1 + tail_bound_2`` stays within ``eps``, which the report
    keeps as requested.  ``partial`` means only that a series hit the node
    budget.
    """
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    if ev is None:
        ev = geometric_evaluation(r)
    fin1, fin2 = finite_edge_sums(r, ev, check=True)
    res1 = interval_series(r, ev, 1, eps=0.5 * eps)
    res2 = interval_series(r, ev, 2, eps=0.5 * eps)

    for fin, res, name in ((fin1, res1, "S1"), (fin2, res2, "S2")):
        if abs(res.value - fin) > res.tail_bound + 1e-8:
            raise InternalError(
                "series %s = %r disagrees with finite sum %r beyond its tail "
                "bound %g (r=%s)" % (name, res.value, fin, res.tail_bound, r)
            )

    comps = num_components(r)
    lam_orb = 2 * fin1
    lam_link = 2 * lam_orb / comps
    lam_i1 = (4.0 / comps) * res1.value
    lam_i2 = (-4.0 / comps) * (res2.value + 1)

    census = {}
    for s, v in res1.census + res2.census:
        census[s] = v
    order = sorted(census, key=lambda s: (s.den, s.num))
    parabolic = tuple((s, census[s]) for s in order
                      if kernels._near_parabolic(census[s]))

    return IdentityReport(
        r=r,
        components=comps,
        root=ev.root,
        finite_sum_e1=fin1,
        finite_sum_e2=fin2,
        series_s1=res1.value,
        series_s2=res2.value,
        tail_bound_1=res1.tail_bound,
        tail_bound_2=res2.tail_bound,
        lambda_orbifold=lam_orb,
        lambda_link=lam_link,
        lambda_link_i1_form=lam_i1,
        lambda_link_i2_form=lam_i2,
        depth_used=max(res1.depth_used, res2.depth_used),
        eps=eps,
        partial=res1.partial or res2.partial,
        slopes_small_trace=tuple((s, census[s]) for s in order),
        accidental_parabolics=parabolic,
    )
