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
families) are summed as analytic fans.

A fan around a parabolic u with phi(u) = 2 sigma has traces
gamma_n = sigma^n (a + b n) along its comb, and the first mediant of its
n-th off-comb cell has trace m_n = gamma_n gamma_{n-1} - 2 sigma
= sigma (x_n^2 - c^2), x_n = a + b(n - 1/2), c^2 = b^2/4 + 2.  After N
steps the rest is added in closed form:

    sum_{n>N} 2[(a + bn)^-2 + (a + bn)^-4]
        = 2 zeta(2, z0)/b^2 + 2 zeta(4, z0)/b^4,   z0 = N + 1 + a/b,
    sum_{n>N} 2/m_n^2
        = (1/(2c^2)) [(zeta(2, z-) + zeta(2, z+))/b^2
                      - (psi(z+) - psi(z-))/(b c)],
          z+- = N + 1 + (a - b/2 +- c)/b,

from partial fractions of 1/(x^2 - c^2)^2.  zeta(s, z) is the Hurwitz
zeta function and psi the digamma function, both evaluated by their
asymptotic series in complex floats, which need Re z >= 32; the fan's stop
rule (N >= 64, |b| N >= 4|a| + 8) keeps Re z above 0.57 N, and a smaller
argument raises InternalError.  What is left, the comb's h-expansion
remainder, the subtrees below the first mediants and the O(m_n^-4) part
of 2h(m_n), is bounded by (6/5 + 8)/(|b| F^5), F = |b| N - |a|
(``_fan_tail_bound``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import kernels
from .errors import (
    DomainError,
    InternalError,
    NonHyperbolicError,
    NotGeometricEvaluationError,
)
from .markoff import MarkoffEvaluation, geometric_evaluation
from .slopes import (
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
_FAN_MIN_STEPS = 64
_FAN_MAX_STEPS = 200_000
# the asymptotic series of the fan tail keep B_2 .. B_10; at Re z >= 32
# the first term left out (B_12) is below 1e-17 of each sum
_FAN_MIN_RE = 32.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)
# B_2j (2j+2)(2j+1)/6, the coefficient of z^(-2j-3) in zeta(4, z)
_ZETA4_COEFS = (1 / 3, -1 / 6, 2 / 9, -1 / 2, 5 / 3)
# B_2j / 2j, the coefficient of z^(-2j) in psi(z)
_DIGAMMA_COEFS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132)
# census_scan rejects a map with more slopes of |phi| <= 2 than this
_CENSUS_CAP = 64


def h(x):
    """h(x) = (1 - sqrt(1 - 4/x^2))/2, branch Re sqrt >= 0.

    Defined on the complement of the open real interval (-2, 2); at the
    closed endpoints +-2 the formula degenerates to the parabolic limit 1/2.
    Satisfies h(2 cosh(l/2)) = 1/(1 + e^l) for Re l >= 0.  Evaluated as
    2/(x^2 (1 + sqrt(1 - 4/x^2))) (``kernels.h_func``), which keeps full
    relative accuracy for large |x|, where the first form cancels.
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

    The pair is kept on ``ev.finite_sums``, so the geometric-root filter and
    ``cusp_shape`` sum it once.  With ``check`` the -1 identity and the
    full-sum identity sum_{E(r)} psi = 1 are asserted to 1e-8.
    """
    if edges is None:
        edges = boundary_edge_sets(r)
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
    parabolic: tuple       # subset of census snapped to +-2
    depth_used: int
    partial: bool
    nodes: int


def _snap_parabolic(x):
    return 2.0 + 0j if abs(x - 2.0) <= kernels.PARABOLIC_TOL else -2.0 + 0j


def _check_elliptic(slope_pair, x):
    if kernels._is_elliptic(x):
        raise NotGeometricEvaluationError(Slope(*slope_pair), x)


def _hurwitz_zeta2(z):
    """zeta(2, z) = sum_{k >= 0} (z + k)^-2 for Re z >= _FAN_MIN_RE, from
    1/z + 1/(2z^2) + sum_j B_2j z^(-2j-1)."""
    w = 1.0 / z
    w2 = w * w
    acc = 0.0
    for coef in reversed(_BERNOULLI):
        acc = acc * w2 + coef
    return w + 0.5 * w2 + w * w2 * acc


def _hurwitz_zeta4(z):
    """zeta(4, z) for Re z >= _FAN_MIN_RE, from
    1/(3z^3) + 1/(2z^4) + sum_j B_2j (2j+2)(2j+1)/6 z^(-2j-3)."""
    w = 1.0 / z
    w2 = w * w
    w3 = w * w2
    acc = 0.0
    for coef in reversed(_ZETA4_COEFS):
        acc = acc * w2 + coef
    return w3 / 3.0 + 0.5 * w * w3 + w3 * w2 * acc


def _digamma_difference(z, shift):
    """psi(z + shift) - psi(z - shift) for Re(z +- shift) >= _FAN_MIN_RE,
    from psi(z) = log z - 1/(2z) - sum_j B_2j/(2j z^2j).

    Nothing cancels: the logarithms enter as 2 atanh(shift/z), and with
    p = 1/(z - shift), q = 1/(z + shift) each power as
    p^2j - q^2j = (p - q)(p + q) h_{j-1}(p^2, q^2), h_k the complete
    homogeneous polynomial of degree k and p - q = 2 shift p q.
    """
    p, q = 1.0 / (z - shift), 1.0 / (z + shift)
    pp, qq = p * p, q * q
    h, q_power, acc = 1.0, 1.0, 0.0
    for coef in _DIGAMMA_COEFS:
        acc += coef * h
        q_power *= qq
        h = pp * h + q_power
    return (2.0 * cmath.atanh(shift / z)
            + 2.0 * shift * p * q * (0.5 + (p + q) * acc))


def _fan_tail_value(a, b, n_stop):
    """The fan beyond step n_stop in closed form (module docstring): the
    comb, sum_{n > n_stop} 2[(a + bn)^-2 + (a + bn)^-4], plus the first
    mediants of the off-comb cells, sum_{n > n_stop} 2/m_n^2.

    Raises InternalError if an argument of the series has real part below
    _FAN_MIN_RE; the fan's stop rule keeps them above 0.57 n_stop >= 36.
    """
    c = cmath.sqrt(0.25 * b * b + 2.0)
    z0 = (n_stop + 1) + a / b
    z_mid, shift = z0 - 0.5, c / b
    zm, zp = z_mid - shift, z_mid + shift
    low = min(z0.real, zm.real, zp.real)
    if low < _FAN_MIN_RE:
        raise InternalError("fan tail series at Re z = %.3g < %g (a=%r, b=%r, "
                            "n=%d)" % (low, _FAN_MIN_RE, a, b, n_stop))
    b2 = b * b
    comb = 2.0 * (_hurwitz_zeta2(z0) + _hurwitz_zeta4(z0) / b2) / b2
    off_comb = ((_hurwitz_zeta2(zm) + _hurwitz_zeta2(zp)) / b2
                - _digamma_difference(z_mid, shift) / (b * c)) / (2.0 * c * c)
    return comb + off_comb


def _fan_tail_bound(a_abs, b_abs, n_stop):
    """Bound C/(|b| F^5), F = |b| n_stop - |a|, C = 6/5 + 8, for what the
    closed form leaves out beyond n_stop.

    The stop rule (n_stop >= 64, |b| n_stop >= 4|a| + 8) gives
    |x_n| >= F >= 8 and |x_n| >= 48|b| for n > n_stop, and since the terms
    are convex in n, sum_{n > n_stop} |x_n|^-6 <= 1/(5|b| F^5).  Left out:

    * the comb's h-expansion remainder, 2h(g) - 2g^-2 - 2g^-4 <= 4.2|g|^-6,
      at most 0.84/(|b| F^5), taken as 6/5;
    * the two child cells of each first mediant m_n: their mediant traces
      g_n m_n - g_{n-1} and m_n g_{n-1} - g_n exceed 0.94|x_n|^3, so the
      kernel's own estimate TAIL_COEFFICIENT/|t|^2 gives them at most
      22.5|x_n|^-6, 4.5/(|b| F^5) in all;
    * the O(|m_n|^-4) part of 2h(m_n), below 2.4|x_n|^-8, 0.01/(|b| F^5)
      in all.

    The last two, 4.51/(|b| F^5), are taken as 8.
    """
    floor = b_abs * n_stop - a_abs
    if floor < 8:
        return 1.0
    return (6.0 / 5.0 + 8.0) / (b_abs * floor ** 5)


def _explore_fan(out, kernel, u, phi_u, w0, gamma0, gamma_minus1,
                 depth, eps_share, node_budget):
    """Sum the cell (u, w0) whose endpoint u carries a parabolic trace.

    The Farey neighbours of u inside the cell are w_n = w_{n-1} + u with
    traces gamma_{n+1} = phi_u gamma_n - gamma_{n-1}; as phi_u = 2 sigma,
    gamma_n = sigma^n (a + b n), a = gamma_0, b = sigma gamma_1 - gamma_0.
    Each step adds 2h(gamma_n) and explores the off-comb cell
    (w_n, w_{n-1}) with the regular kernel; a census scan (infinite share)
    skips a cell the kernel would prune at its first node
    (``kernels._scan_prunes``).  The traces grow once
    |gamma_n| >= 32 and |b| n >= 4|a| + 8.  A census scan (infinite
    share) stops there.  A sum also needs n >= _FAN_MIN_STEPS and
    ``_fan_tail_bound`` within half the share; then the rest of the comb
    and the first mediants of the remaining off-comb cells are added in
    closed form (``_fan_tail_value``) and the bound goes to ``out.tail``:
    the remainder falls like n^-5.  Like the kernel, the walk stops on an
    elliptic trace, the node budget or the census cap.
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

    summing = eps_share != float("inf")
    gamma_prev, gamma = gamma_minus1, gamma0
    w = w0
    n = 0
    while not out.stopped(node_budget):
        n += 1
        gamma_next = phi_u * gamma - gamma_prev
        w_next = (w[0] + u[0], w[1] + u[1])
        _check_elliptic(w_next, gamma_next)
        if kernels._near_parabolic(gamma_next):
            out.census.append((w_next[0], w_next[1], _snap_parabolic(gamma_next)))
            out.add(1.0, 0.0)
        else:
            if abs(gamma_next) <= 2.0 + kernels.CENSUS_TOL:
                out.census.append((w_next[0], w_next[1], complex(gamma_next)))
            if summing:
                hm = kernels.h_func(complex(gamma_next))
                out.add(2.0 * hm.real, 2.0 * hm.imag)
        if out.stopped(node_budget):
            break
        # off-comb cell strictly between w_next and w, opposite vertex u;
        # the scan skips one the kernel would prune at its first node
        if summing or not kernels._scan_prunes(gamma_next, gamma, phi_u):
            kernel.explore(out, w_next[0], w_next[1], complex(gamma_next),
                           w[0], w[1], complex(gamma), complex(phi_u),
                           depth + 1, 0.3 * eps_share / (n * n), node_budget)
        gamma_prev, gamma = gamma, gamma_next
        w = w_next
        if abs(gamma) >= 32.0 and abs(b_lin) * n >= 4.0 * abs(a_lin) + 8.0:
            if not summing:
                break
            if n >= _FAN_MIN_STEPS:
                bound = _fan_tail_bound(abs(a_lin), abs(b_lin), n)
                if bound <= 0.5 * eps_share or n >= _FAN_MAX_STEPS:
                    tail_value = _fan_tail_value(a_lin, b_lin, n)
                    out.add(tail_value.real, tail_value.imag)
                    out.tail += bound
                    break
        if n >= _FAN_MAX_STEPS:
            out.depth_capped = True
            out.tail += 1.0
            break


def _explore_edge(ev: MarkoffEvaluation, edge: DirectedFareyEdge, eps_edge,
                  kernel=None, node_budget=5_000_000, census_cap=float("inf")):
    """Interior sum 2*sum h(phi(s)) over the open cut-off interval of one
    boundary edge, with the deferred parabolic cells summed as fans.

    With ``eps_edge`` infinite this is the census scan's exploration: it
    sums nothing, and the fans stop where their traces grow.  The walk
    stops early on an elliptic trace (raised here), on ``node_budget`` or
    once the census passes ``census_cap``.
    """
    if kernel is None:
        kernel = kernels.active_kernel
    out = kernels.CellOutcome()
    out.census_cap = census_cap
    u, v = edge.s1, edge.s2
    phi_u, phi_v = ev.phi(u), ev.phi(v)
    phi_opp = ev.phi(edge.s0)
    kernel.explore(out, u.num, u.den, phi_u, v.num, v.den, phi_v, phi_opp,
                   0, eps_edge, node_budget)
    while out.deferred and not out.stopped(node_budget):
        kind, u_num, u_den, p_u, v_num, v_den, p_v, p_opp, depth, share = \
            out.deferred.pop()
        if kind == kernels.DEFER_MEDIANT:
            m_num, m_den = u_num + v_num, u_den + v_den
            phi_m = _snap_parabolic(p_u * p_v - p_opp)
            out.census.append((m_num, m_den, phi_m))
            out.add(1.0, 0.0)  # 2 h(+-2) = 1
            half = 0.5 * share
            _explore_fan(out, kernel, (m_num, m_den), phi_m, (u_num, u_den),
                         p_u, p_v, depth + 1, half, node_budget)
            _explore_fan(out, kernel, (m_num, m_den), phi_m, (v_num, v_den),
                         p_v, p_u, depth + 1, half, node_budget)
        elif kind == kernels.DEFER_ENDPOINT:
            if kernels._near_parabolic(p_u):
                _explore_fan(out, kernel, (u_num, u_den), _snap_parabolic(p_u),
                             (v_num, v_den), p_v, p_opp, depth, share,
                             node_budget)
            else:
                _explore_fan(out, kernel, (v_num, v_den), _snap_parabolic(p_v),
                             (u_num, u_den), p_u, p_opp, depth, share,
                             node_budget)
        else:
            raise InternalError("unknown deferred cell kind %r" % (kind,))
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
        val = _snap_parabolic(val)
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
    that the node budget or a comb or fan step cap was hit.

    ``max_depth`` is ignored.  It is kept only because
    ``perfbench/worker.py::kernel_parity`` passes it, and goes with that
    function in the next change to the benchmark.
    """
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
        for s in (edge.s1, edge.s2):
            val = _boundary_trace(ev, s, boundary_records)
            # h(+-2) = 1/2 at a snapped parabolic
            total += 0.5 if kernels._near_parabolic(val) else kernels.h_func(val)
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
    for slope, val in census.items():
        if kernels._near_parabolic(val):
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


def census_scan(ev: MarkoffEvaluation, edges: EdgeSystem,
                node_budget: int = 150_000):
    """Slopes with |phi| <= 2 discovered exploring both intervals; used by
    the geometric-root filters.

    Each edge of E1 u E2 is explored by the series' own driver
    (``_explore_edge``) with an infinite eps share: the same kernel, the
    same deferred parabolic cells and the same fans, which evaluate no h
    and stop where their traces grow.  There is no depth limit: a cell is
    pruned once its traces provably stay above 2 below it, by the
    criterion C(2 + delta) of the ``kernels`` docstring.

    A geometric map has no real trace in (-2, 2) on I1 u I2 and only
    finitely many |phi| <= 2 there; the scan raises
    NotGeometricEvaluationError as soon as it sees otherwise: an elliptic
    trace, a census of more than ``_CENSUS_CAP`` slopes, or ``node_budget``
    Stern-Brocot nodes spent over all edges.  The last two reasons name the
    census size or the budget and the nodes spent.

    The census cap is a scan-only contract.  Each edge's exploration gets
    the room left under the cap on ``CellOutcome.census_cap``; it returns
    once its census passes it, and the comparison after the edge raises.
    """
    found = set()
    spent = 0
    for edge in edges.e1 + edges.e2:
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
    """Full pipeline: chain -> trace polynomial -> geometric root -> finite
    edge sums -> interval series -> cusp moduli.

    Each of the two series gets eps/2, so the report's
    ``tail_bound_1 + tail_bound_2`` stays within ``eps``, which the report
    keeps as requested.  ``partial`` means only that a series hit the node
    budget or a step cap.
    """
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    if ev is None:
        ev = geometric_evaluation(r)
    edges = _edge_system(r, ev)
    fin1, fin2 = finite_edge_sums(r, ev, edges=edges, check=True)
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
