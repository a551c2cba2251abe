"""The h-function, complex probabilities, finite edge-sum identities, the
McShane-type interval series, and the cusp moduli.

For the geometric Markoff map of a hyperbolic 2-bridge slope r the two
interval sums satisfy S1 + S2 = -1, where

    S_j = 2 sum_{s in int I_j} h(phi(s)) + sum_{s in bd I_j} h(phi(s)),

and the cusp moduli are lambda(O(r)) = 2 * sum_{E1} psi and
lambda(K(r)) = 2 lambda(O(r)) / |K(r)|.  The series are summed over the
Stern-Brocot subdivision of the cut-off interval of each boundary edge,
pruning by the trace-growth tail estimate; accidental parabolics (traces
exactly +-2, which occur inside the intervals for the exceptional slope
families) are summed as analytic fans via the Hurwitz zeta function.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from . import kernels
from .errors import (
    DomainError,
    InternalError,
    NonHyperbolicError,
    NotGeometricEvaluationError,
)
from .markoff import MarkoffEvaluation, geometric_evaluation
from .slopes import (
    INFINITY,
    FareyChain,
    Interval,
    Slope,
    farey_chain,
    fundamental_intervals,
    is_hyperbolic,
    num_components,
    opposite_vertex,
)

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
DEFAULT_MAX_DEPTH = 200
_FAN_MIN_STEPS = 64
_FAN_MAX_STEPS = 200_000
# census_scan rejects a map with more slopes of |phi| <= 2 than this
_CENSUS_CAP = 64


def h(x):
    """h(x) = (1 - sqrt(1 - 4/x^2))/2, branch Re sqrt >= 0.

    Defined on the complement of the open real interval (-2, 2); at the
    closed endpoints +-2 the formula degenerates to the parabolic limit 1/2.
    Satisfies h(2 cosh(l/2)) = 1/(1 + e^l) for Re l >= 0.
    """
    x = complex(x)
    if x.imag == 0.0:
        a = abs(x.real)
        if a < 2.0:
            raise DomainError("h is undefined on the real interval (-2, 2)")
        if a == 2.0:
            return 0.5 + 0j
    return kernels.h_func(x)


@dataclass(frozen=True)
class DirectedFareyEdge:
    """Directed dual edge e <-> (s1, s2; s0, s3).

    The Farey edge <s1, s2> is dual to e, the head triangle is <s0, s1, s2>
    (a chain triangle) and the tail triangle is <s1, s2, s3>, which lies off
    the chain for the boundary edges enumerated here.
    """

    s1: Slope
    s2: Slope
    s0: Slope
    s3: Slope
    head_index: int  # 0-based index into the chain
    head_triangle: object

    def cutoff_interval(self) -> Interval:
        """The closed arc of R bounded by s1, s2 away from the chain."""
        return Interval(self.s1, self.s2)

    def __str__(self):
        return "e(<%s,%s>; head %s)" % (self.s1, self.s2, self.s0)


@dataclass(frozen=True)
class EdgeSystem:
    """E(r) = E1 u E2 u {e-, e+}, all edges pointing into the dual path."""

    chain: FareyChain
    i1: Interval
    i2: Interval
    e1: tuple
    e2: tuple
    e_minus: DirectedFareyEdge
    e_plus: DirectedFareyEdge

    @property
    def all_edges(self):
        return self.e1 + self.e2 + (self.e_minus, self.e_plus)


def _directed_edge(chain, head_index, s1, s2):
    tri = chain.triangles[head_index]
    s0 = tri.third_vertex(s1, s2)
    s3 = opposite_vertex(s1, s2, s0)
    if not s1.is_infinite and not s2.is_infinite and s2 < s1:
        s1, s2 = s2, s1
    return DirectedFareyEdge(s1=s1, s2=s2, s0=s0, s3=s3,
                             head_index=head_index, head_triangle=tri)


def boundary_edge_sets(r: Slope, chain: FareyChain | None = None) -> EdgeSystem:
    """Enumerate the directed edges with head dual to an inner chain triangle
    and tail outside the dual path, split into E1, E2 and e-, e+."""
    if chain is None:
        chain = farey_chain(r)
    if not chain.hyperbolic:
        raise NonHyperbolicError(r)
    i1, i2 = fundamental_intervals(r, chain)
    triangles = chain.triangles
    c = len(triangles)

    e1, e2 = [], []
    for i in range(1, c - 1):
        tri = triangles[i]
        prev_shared = tri.shared_edge(triangles[i - 1])
        next_shared = tri.shared_edge(triangles[i + 1])
        verts = list(tri.vertices)
        pairs = [frozenset((verts[0], verts[1])),
                 frozenset((verts[1], verts[2])),
                 frozenset((verts[0], verts[2]))]
        side = [p for p in pairs if p != prev_shared and p != next_shared]
        if len(side) != 1:
            raise InternalError("triangle %s has no unique side edge" % (tri,))
        u, v = sorted(side[0], key=lambda s: s.as_fraction())
        edge = _directed_edge(chain, i, u, v)
        cut = edge.cutoff_interval()
        if i1.contains_interval(cut):
            e1.append(edge)
        elif i2.contains_interval(cut):
            e2.append(edge)
        else:
            raise InternalError("cut-off interval %s of %s lies in neither I1 nor I2"
                                % (cut, edge))
    e1.sort(key=lambda e: e.s1.as_fraction())
    e2.sort(key=lambda e: e.s1.as_fraction())

    u, v = tuple(triangles[1].shared_edge(triangles[0]))
    e_minus = _directed_edge(chain, 1, u, v)  # tail triangle is sigma_1
    u, v = tuple(triangles[-2].shared_edge(triangles[-1]))
    e_plus = _directed_edge(chain, c - 2, u, v)  # tail triangle is sigma_c
    return EdgeSystem(chain=chain, i1=i1, i2=i2, e1=tuple(e1), e2=tuple(e2),
                      e_minus=e_minus, e_plus=e_plus)


def _edge_system(r: Slope, ev: MarkoffEvaluation) -> EdgeSystem:
    """r's edge system, built once per evaluation and kept on it."""
    if ev.edges is None:
        ev.edges = boundary_edge_sets(r, chain=ev.chain)
    return ev.edges


def psi(e: DirectedFareyEdge, ev: MarkoffEvaluation) -> complex:
    """Complex probability phi(s0) / (phi(s1) phi(s2))."""
    denom = ev.phi(e.s1) * ev.phi(e.s2)
    if abs(denom) < 1e-300:
        raise DomainError("psi denominator vanishes on edge %s" % (e,))
    return ev.phi(e.s0) / denom


def finite_edge_sums(r: Slope, ev: MarkoffEvaluation, edges: EdgeSystem | None = None,
                     check: bool = True):
    """(sum over E1 of psi, sum over E2 of psi); their total is -1.

    With ``check`` the -1 identity and the full-sum identity
    sum_{E(r)} psi = 1 are asserted to 1e-8.
    """
    if edges is None:
        edges = boundary_edge_sets(r)
    s1 = sum((psi(e, ev) for e in edges.e1), 0j)
    s2 = sum((psi(e, ev) for e in edges.e2), 0j)
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
    parabolic: tuple       # subset of census snapped to +-2
    depth_used: int
    partial: bool
    nodes: int


def _near_parabolic(x):
    return abs(x - 2.0) <= kernels.PARABOLIC_TOL or abs(x + 2.0) <= kernels.PARABOLIC_TOL


def _snap_parabolic(x):
    return 2.0 + 0j if abs(x - 2.0) <= kernels.PARABOLIC_TOL else -2.0 + 0j


def _check_elliptic(slope_pair, x):
    if (abs(x.imag) <= kernels.ELLIPTIC_IM_TOL
            and abs(x.real) < 2.0 - kernels.ELLIPTIC_RE_MARGIN):
        raise NotGeometricEvaluationError(Slope(*slope_pair), x)


def _fan_tail_bound(a_abs, b_abs, n_stop):
    """Cheap bound for everything the zeta terms do not capture beyond
    n_stop: the h-expansion remainder and the off-comb subtrees."""
    floor = b_abs * n_stop - a_abs
    if floor < 8:
        return 1.0
    return 6.0 / (5.0 * b_abs * floor ** 5) + 4.0 / (b_abs * floor ** 3)


def _fan_zeta_value(a, b, n_stop):
    """sum_{n > n_stop} 2[(A+Bn)^-2 + (A+Bn)^-4] via the Hurwitz zeta."""
    z0 = complex(n_stop + 1) + a / b
    zeta2 = complex(mpmath.zeta(2, mpmath.mpc(z0.real, z0.imag)))
    zeta4 = complex(mpmath.zeta(4, mpmath.mpc(z0.real, z0.imag)))
    return 2.0 * zeta2 / (b * b) + 2.0 * zeta4 / (b * b * b * b)


def _explore_fan(out, kernel, u, phi_u, w0, gamma0, gamma_minus1,
                 depth, eps_share, max_depth, node_budget):
    """Sum the cell (u, w0) whose endpoint u carries a parabolic trace.

    The Farey neighbours of u inside the cell are w_n = w_{n-1} + u with
    traces gamma following gamma_{n+1} = phi_u gamma_n - gamma_{n-1}; since
    phi_u = +-2 the folded values grow linearly, so the comb tail has a
    closed form while every off-comb cell is summed by the regular kernel.
    """
    sigma = 1.0 if abs(phi_u - 2.0) <= kernels.PARABOLIC_TOL else -1.0
    # folded values |gamma_n| = |A + B n| since the recurrence has a double
    # eigenvalue at sigma
    gamma1 = phi_u * gamma0 - gamma_minus1
    a_lin = gamma0
    b_lin = (gamma1 if sigma > 0 else -gamma1) - gamma0
    if abs(b_lin) < 1e-8:
        raise NotGeometricEvaluationError(
            Slope(*u), complex(phi_u),
            note="degenerate parabolic fan at %s/%s" % u,
        )

    fan_eps = eps_share
    gamma_prev, gamma = gamma_minus1, gamma0
    w = w0
    n = 0
    while True:
        n += 1
        gamma_next = phi_u * gamma - gamma_prev
        w_next = (w[0] + u[0], w[1] + u[1])
        _check_elliptic(w_next, gamma_next)
        if _near_parabolic(gamma_next):
            snapped = _snap_parabolic(gamma_next)
            out.census.append((w_next[0], w_next[1], snapped))
            out.deferred.append(("fan_parabolic", w_next, snapped))
            out.add(1.0, 0.0)
        else:
            if abs(gamma_next) <= 2.0 + kernels.CENSUS_TOL:
                out.census.append((w_next[0], w_next[1], complex(gamma_next)))
            hm = kernels.h_func(complex(gamma_next))
            out.add(2.0 * hm.real, 2.0 * hm.imag)
        # off-comb cell strictly between w_next and w, opposite vertex u
        share = (0.3 * fan_eps / (n * n)) if fan_eps != float("inf") else fan_eps
        kernel.explore(out, w_next[0], w_next[1], complex(gamma_next),
                       w[0], w[1], complex(gamma), complex(phi_u),
                       depth + 1, share, max_depth, node_budget)
        gamma_prev, gamma = gamma, gamma_next
        w = w_next
        if n >= _FAN_MIN_STEPS and abs(gamma) >= 32.0 \
                and abs(b_lin) * n >= 4.0 * abs(a_lin) + 8.0:
            bound = _fan_tail_bound(abs(a_lin), abs(b_lin), n)
            cutoff = fan_eps if fan_eps != float("inf") else 1.0
            if bound <= 0.5 * cutoff or n >= _FAN_MAX_STEPS:
                tail_value = _fan_zeta_value(a_lin, b_lin, n)
                out.add(tail_value.real, tail_value.imag)
                out.tail += bound
                break
        if n >= _FAN_MAX_STEPS:
            out.depth_capped = True
            out.tail += 1.0
            break


def _explore_edge(ev: MarkoffEvaluation, edge: DirectedFareyEdge, eps_edge,
                  max_depth, kernel=None, node_budget=5_000_000):
    """Interior sum 2*sum h(phi(s)) over the open cut-off interval of one
    boundary edge, with deferred parabolic fans."""
    if kernel is None:
        kernel = kernels.active_kernel
    out = kernels.CellOutcome()
    u, v = edge.s1, edge.s2
    phi_u, phi_v = ev.phi(u), ev.phi(v)
    phi_opp = ev.phi(edge.s0)
    kernel.explore(out, u.num, u.den, phi_u, v.num, v.den, phi_v, phi_opp,
                   0, eps_edge, max_depth, node_budget)
    while out.deferred:
        item = out.deferred.pop()
        if item[0] == "fan_parabolic":
            # a parabolic vertex discovered inside a fan needs no action:
            # its neighbouring cells are handled by the off-comb kernel
            # calls, which defer on the parabolic endpoint.
            continue
        kind, u_num, u_den, p_u, v_num, v_den, p_v, p_opp, depth, share = item
        if kind == kernels.DEFER_MEDIANT:
            m_num, m_den = u_num + v_num, u_den + v_den
            phi_m = _snap_parabolic(p_u * p_v - p_opp)
            out.census.append((m_num, m_den, phi_m))
            out.add(1.0, 0.0)  # 2 h(+-2) = 1
            half = 0.5 * share
            _explore_fan(out, kernel, (m_num, m_den), phi_m, (u_num, u_den),
                         p_u, p_v, depth + 1, half, max_depth, node_budget)
            _explore_fan(out, kernel, (m_num, m_den), phi_m, (v_num, v_den),
                         p_v, p_u, depth + 1, half, max_depth, node_budget)
        elif kind == kernels.DEFER_ENDPOINT:
            if _near_parabolic(p_u):
                _explore_fan(out, kernel, (u_num, u_den), _snap_parabolic(p_u),
                             (v_num, v_den), p_v, p_opp, depth, share,
                             max_depth, node_budget)
            else:
                _explore_fan(out, kernel, (v_num, v_den), _snap_parabolic(p_v),
                             (u_num, u_den), p_u, p_opp, depth, share,
                             max_depth, node_budget)
        else:
            raise InternalError("unknown deferred cell kind %r" % (kind,))
    if out.elliptic is not None:
        num, den, val = out.elliptic
        raise NotGeometricEvaluationError(Slope(num, den), val)
    return out


def _h_boundary(ev, slope, records):
    """h at a cut-off interval endpoint, with parabolic snapping."""
    val = ev.phi(slope)
    if _near_parabolic(val):
        snapped = _snap_parabolic(val)
        records.append((slope, snapped))
        return 0.5 + 0j
    if abs(val) <= 2.0 + kernels.CENSUS_TOL:
        records.append((slope, val))
    if (abs(val.imag) <= kernels.ELLIPTIC_IM_TOL
            and abs(val.real) < 2.0 - kernels.ELLIPTIC_RE_MARGIN):
        raise NotGeometricEvaluationError(slope, val)
    return kernels.h_func(val)


def interval_series(r: Slope, ev: MarkoffEvaluation, j: int,
                    eps: float = DEFAULT_EPS, max_depth: int = DEFAULT_MAX_DEPTH,
                    kernel=None) -> SeriesResult:
    """S_j = 2 sum_{int I_j} h(phi) + sum_{bd I_j} h(phi) by depth-first
    traversal of the cut-off intervals of the E_j edges."""
    if j not in (1, 2):
        raise DomainError("j must be 1 or 2")
    edges = _edge_system(r, ev)
    group = edges.e1 if j == 1 else edges.e2
    if eps <= 0:
        raise DomainError("eps must be positive")
    eps_edge = eps / max(len(group), 1)

    total = 0j
    tail = 0.0
    census = {}
    parabolic = {}
    depth_used = 0
    partial = False
    nodes = 0
    boundary_records = []
    for edge in group:
        total += _h_boundary(ev, edge.s1, boundary_records)
        total += _h_boundary(ev, edge.s2, boundary_records)
        out = _explore_edge(ev, edge, eps_edge, max_depth, kernel=kernel)
        total += out.total
        tail += out.tail
        depth_used = max(depth_used, out.max_depth_seen)
        partial = partial or out.depth_capped
        nodes += out.nodes
        for num, den, val in out.census:
            census[Slope(num, den)] = val
    for slope, val in boundary_records:
        census[slope] = val
    for slope, val in census.items():
        if _near_parabolic(val):
            parabolic[slope] = val
    order = sorted(census, key=lambda s: (s.den, s.num))
    return SeriesResult(
        value=total,
        tail_bound=tail,
        census=tuple((s, census[s]) for s in order),
        parabolic=tuple((s, parabolic[s]) for s in order if s in parabolic),
        depth_used=depth_used,
        partial=partial,
        nodes=nodes,
    )


def _fan_census(found, u, t, w, gamma0, gamma_minus1, steps=48):
    """Record |gamma| <= 2 vertices along the fan around the parabolic u
    without exploring off-comb cells (their traces are products and stay
    large for maps passing the filters)."""
    gamma_prev, gamma = gamma_minus1, gamma0
    w_num, w_den = w
    for _ in range(steps):
        gamma_prev, gamma = gamma, t * gamma - gamma_prev
        w_num += u[0]
        w_den += u[1]
        _check_elliptic((w_num, w_den), gamma)
        if abs(gamma) <= 2.0 + kernels.CENSUS_TOL:
            found.add(Slope(w_num, w_den))


def census_scan(ev: MarkoffEvaluation, edges: EdgeSystem, depth: int,
                node_budget: int = 150_000):
    """Slopes with |phi| <= 2 discovered exploring both intervals to the
    given depth; used by the geometric-root filters.

    A geometric map has no real trace in (-2, 2) on I1 u I2 and only
    finitely many |phi| <= 2 there; the scan raises
    NotGeometricEvaluationError as soon as it sees otherwise: an elliptic
    trace, a census of more than ``_CENSUS_CAP`` slopes, or ``node_budget``
    Stern-Brocot nodes spent over all edges.  The last two reasons name the
    census size or the budget and the nodes spent.

    The census cap is a scan-only contract.  Each kernel call gets the room
    left under the cap on ``CellOutcome.census_cap``; the kernel returns
    once its census passes it, and the comparison after the call raises.

    Parabolic cells are not expanded into fans here: the parabolic vertex is
    recorded and its fan walked by the bare trace recurrence.
    """
    found = set()
    spent = 0
    for edge in edges.e1 + edges.e2:
        for s in (edge.s1, edge.s2):
            val = ev.phi(s)
            _check_elliptic((s.num, s.den), val)
            if abs(val) <= 2.0 + kernels.CENSUS_TOL:
                found.add(s)
        out = kernels.CellOutcome()
        out.census_cap = _CENSUS_CAP - len(found)
        u, v = edge.s1, edge.s2
        kernels.explore(out, u.num, u.den, ev.phi(u), v.num, v.den, ev.phi(v),
                        ev.phi(edge.s0), 0, float("inf"), depth,
                        node_budget - spent)
        spent += out.nodes
        if out.elliptic is not None:
            num, den, val = out.elliptic
            raise NotGeometricEvaluationError(Slope(num, den), val)
        if len(out.census) > out.census_cap:
            raise _census_overflow(edge, len(found) + len(out.census), spent)
        if spent >= node_budget:
            raise NotGeometricEvaluationError(
                edge.s1, 0j,
                note="exploration of %s did not stabilise: %d nodes spent of "
                     "a budget of %d" % (edge, spent, node_budget))
        for num, den, _ in out.census:
            found.add(Slope(num, den))
        for item in out.deferred:
            _, u_num, u_den, p_u, v_num, v_den, p_v, p_opp, d, share = item
            if item[0] == kernels.DEFER_MEDIANT:
                m = (u_num + v_num, u_den + v_den)
                phi_m = _snap_parabolic(p_u * p_v - p_opp)
                found.add(Slope(*m))
                _fan_census(found, m, phi_m, (u_num, u_den), p_u, p_v)
                _fan_census(found, m, phi_m, (v_num, v_den), p_v, p_u)
            elif _near_parabolic(p_u):
                _fan_census(found, (u_num, u_den), _snap_parabolic(p_u),
                            (v_num, v_den), p_v, p_opp)
            else:
                _fan_census(found, (v_num, v_den), _snap_parabolic(p_v),
                            (u_num, u_den), p_u, p_opp)
        if len(found) > _CENSUS_CAP:
            raise _census_overflow(edge, len(found), spent)
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
               max_depth: int = DEFAULT_MAX_DEPTH, precision: str = "double",
               ev: MarkoffEvaluation | None = None) -> IdentityReport:
    """Full pipeline: chain -> trace polynomial -> geometric root -> finite
    edge sums -> interval series -> cusp moduli."""
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    if ev is None:
        ev = geometric_evaluation(r, precision=precision)
    edges = _edge_system(r, ev)
    fin1, fin2 = finite_edge_sums(r, ev, edges=edges, check=True)
    res1 = interval_series(r, ev, 1, eps=eps, max_depth=max_depth)
    res2 = interval_series(r, ev, 2, eps=eps, max_depth=max_depth)

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
    parabolic = tuple((s, census[s]) for s in order if _near_parabolic(census[s]))

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
