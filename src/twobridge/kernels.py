"""Stern-Brocot summation kernel.

Walks the binary subdivision tree of a Farey interval carrying the Markoff
triple around each cell, summing 2*h(phi(mediant)) with compensated
accumulation.  Two regimes:

* both edge traces >= 8 in modulus: trace growth is at least Fibonacci-like,
  and the subtree is pruned once the geometric tail estimate 10/|phi_m|^2
  fits inside the cell's share of eps;
* one edge trace below 8 (a fan around a short loxodromic): the cell is a
  "comb" walked linearly with the two-term recurrence
  gamma_{n+1} = t gamma_n - gamma_{n-1}, its off-comb cells re-entering the
  binary regime.  The comb stops when the measured growth ratio bounds the
  remaining sum inside the eps share.

Cells whose traces come within PARABOLIC_TOL of +-2 are never descended
here; they are handed back to the caller, which sums parabolic fans
analytically.

Two stops only make a failing census scan cheaper.  Comb walks stop at the
node budget like the binary walk, and once ``len(out.census)`` passes
``out.census_cap`` (infinite unless a caller sets it; a scan-only contract)
the exploration returns at once.  ``mcshane.census_scan`` sets the cap to
what its census may still take and raises on the same comparison after
every call.
"""

from __future__ import annotations

import cmath
import sys

PRUNE_MODULUS = 8.0
TAIL_COEFFICIENT = 10.0
COMB_STOP_ABS = 1e30
PARABOLIC_TOL = 1e-11
CENSUS_TOL = 1e-9
ELLIPTIC_IM_TOL = 1e-9
ELLIPTIC_RE_MARGIN = 1e-6

# deferral kinds
DEFER_ENDPOINT = 0  # an endpoint trace is parabolic
DEFER_MEDIANT = 1   # the mediant trace is parabolic


class CellOutcome:
    """Mutable accumulator shared by one driver-level exploration."""

    __slots__ = (
        "sum_re", "sum_im", "comp_re", "comp_im", "tail", "census",
        "deferred", "elliptic", "depth_capped", "nodes", "max_depth_seen",
        "census_cap",
    )

    def __init__(self):
        self.sum_re = 0.0
        self.sum_im = 0.0
        self.comp_re = 0.0
        self.comp_im = 0.0
        self.tail = 0.0
        self.census = []      # (num, den, trace)
        self.deferred = []    # (kind, num..., traces..., depth, eps_share)
        self.elliptic = None  # (num, den, trace) of the first offender
        self.depth_capped = False
        self.nodes = 0
        self.max_depth_seen = 0
        self.census_cap = float("inf")  # stop once len(census) exceeds it

    def add(self, re, im):
        y = re - self.comp_re
        t = self.sum_re + y
        self.comp_re = (t - self.sum_re) - y
        self.sum_re = t
        y = im - self.comp_im
        t = self.sum_im + y
        self.comp_im = (t - self.sum_im) - y
        self.sum_im = t

    @property
    def total(self):
        return complex(self.sum_re, self.sum_im)


def h_func(x: complex) -> complex:
    """h(x) = (1 - sqrt(1 - 4/x^2)) / 2 with Re sqrt >= 0."""
    s = cmath.sqrt(1.0 - 4.0 / (x * x))
    if s.real < 0.0:
        s = -s
    return 0.5 * (1.0 - s)


def _near_parabolic(x: complex) -> bool:
    return abs(x - 2.0) <= PARABOLIC_TOL or abs(x + 2.0) <= PARABOLIC_TOL


def _is_elliptic(x: complex) -> bool:
    return (abs(x.imag) <= ELLIPTIC_IM_TOL
            and abs(x.real) < 2.0 - ELLIPTIC_RE_MARGIN)


def explore(out, u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp,
            depth, eps_share, max_depth, node_budget=5_000_000):
    """Sum the open cell (u, v) into ``out``.

    ``phi_opp`` is the trace at the vertex opposite the edge <u, v> on the
    parent side, so the first mediant trace is phi_u*phi_v - phi_opp.
    Deterministic order: combs walk outward, binary cells left before right.
    """
    stack = [(u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp, depth, eps_share)]
    while stack:
        (u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp,
         depth, eps_share) = stack.pop()
        out.nodes += 1
        if depth > out.max_depth_seen:
            out.max_depth_seen = depth
        if out.nodes > node_budget:
            out.depth_capped = True
            out.tail += 1.0
            return
        if _near_parabolic(phi_u) or _near_parabolic(phi_v):
            out.deferred.append((DEFER_ENDPOINT, u_num, u_den, phi_u,
                                 v_num, v_den, phi_v, phi_opp, depth, eps_share))
            continue

        au = abs(phi_u)
        av = abs(phi_v)
        if min(au, av) < PRUNE_MODULUS:
            _comb(out, stack, u_num, u_den, phi_u, v_num, v_den, phi_v,
                  phi_opp, depth, eps_share, max_depth, node_budget)
            if (out.elliptic is not None or out.nodes > node_budget
                    or len(out.census) > out.census_cap):
                return
            continue

        m_num = u_num + v_num
        m_den = u_den + v_den
        phi_m = phi_u * phi_v - phi_opp

        if _is_elliptic(phi_m):
            if out.elliptic is None:
                out.elliptic = (m_num, m_den, phi_m)
            return

        if _near_parabolic(phi_m):
            out.deferred.append((DEFER_MEDIANT, u_num, u_den, phi_u,
                                 v_num, v_den, phi_v, phi_opp, depth, eps_share))
            continue

        am = abs(phi_m)
        if am <= 2.0 + CENSUS_TOL:
            out.census.append((m_num, m_den, phi_m))
            if len(out.census) > out.census_cap:
                return

        if au >= PRUNE_MODULUS and av >= PRUNE_MODULUS and \
                abs(phi_opp) <= 0.5 * au * av:
            est = TAIL_COEFFICIENT / (am * am)
            if est <= eps_share:
                out.tail += est
                continue

        hm = h_func(phi_m)
        out.add(2.0 * hm.real, 2.0 * hm.imag)

        if depth >= max_depth:
            est, crude = cap_tail(am, au, av)
            out.tail += est
            if crude:
                out.depth_capped = True
            continue

        half = 0.5 * eps_share
        stack.append((m_num, m_den, phi_m, v_num, v_den, phi_v, phi_u,
                      depth + 1, half))
        stack.append((u_num, u_den, phi_u, m_num, m_den, phi_m, phi_v,
                      depth + 1, half))


def _comb(out, stack, u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp,
          depth, eps_share, max_depth, node_budget):
    """Walk the fan around the small-trace endpoint of the cell.

    The pivot is the endpoint with |trace| < 8; fan vertices w_n step by the
    pivot vector and their traces obey gamma_{n+1} = t gamma_n - gamma_{n-1}
    with gamma_0 the moving endpoint's trace and gamma_{-1} = phi_opp, so
    gamma_n = P mu^n + Q mu^-n with mu + 1/mu = t, |mu| > 1.  Each step
    pushes the off-comb cell (w_{n+1}, w_n) onto the binary stack; the walk
    stops once the geometric decay of 2h(gamma_n) ~ 8/|P mu^n|^2 bounds the
    remainder inside the eps share.  Like ``explore`` it stops on the node
    budget and on the census cap.
    """
    if abs(phi_u) < abs(phi_v):
        p_num, p_den, t = u_num, u_den, phi_u
        c_num, c_den, gamma0 = v_num, v_den, phi_v
    else:
        p_num, p_den, t = v_num, v_den, phi_v
        c_num, c_den, gamma0 = u_num, u_den, phi_u
    gamma_prev = phi_opp

    root = cmath.sqrt(0.25 * t * t - 1.0)
    mu = 0.5 * t + root
    if abs(mu) < 1.0:
        mu = 0.5 * t - root
    mu_abs = abs(mu)
    mu2 = mu_abs * mu_abs
    usable = mu2 > 1.0 + 1e-9
    beta = -1.0  # |Q| / (|P| mu2^n), updated incrementally

    n = 0
    while True:
        n += 1
        out.nodes += 1
        if out.nodes > node_budget:
            out.depth_capped = True
            out.tail += 1.0
            return
        gamma1 = t * gamma0 - gamma_prev
        w_num = c_num + p_num
        w_den = c_den + p_den
        cell_depth = depth + n
        if cell_depth > out.max_depth_seen and cell_depth <= max_depth:
            out.max_depth_seen = cell_depth
        if _is_elliptic(gamma1):
            if out.elliptic is None:
                out.elliptic = (w_num, w_den, gamma1)
            return
        if _near_parabolic(gamma1):
            # remaining comb = cell (current moving endpoint, pivot) whose
            # mediant is the parabolic vertex: hand it back whole
            out.deferred.append((DEFER_MEDIANT, c_num, c_den, gamma0,
                                 p_num, p_den, t, gamma_prev,
                                 cell_depth - 1, eps_share))
            return
        if n == 1 and usable:
            p_coef = (gamma1 - gamma0 / mu) / (mu - 1.0 / mu)
            p_abs = abs(p_coef)
            if p_abs > 0.0:
                beta = abs(gamma0 - p_coef) / (p_abs * mu2)
        elif beta > 0.0:
            beta /= mu2
        ag = abs(gamma1)
        if ag <= 2.0 + CENSUS_TOL:
            out.census.append((w_num, w_den, gamma1))
            if len(out.census) > out.census_cap:
                return
        hm = h_func(gamma1)
        out.add(2.0 * hm.real, 2.0 * hm.imag)
        stack.append((w_num, w_den, gamma1, c_num, c_den, gamma0, t,
                      cell_depth + 1, 0.3 * eps_share / (n * n)))

        # the comb is walked past max_depth like the parabolic fans: the
        # remainder estimate below is the analytic continuation
        if 0.0 <= beta <= 0.25 and ag >= 32.0:
            grow = (1.0 + beta) * (1.0 + beta) / ((1.0 - beta) * (1.0 - beta))
            est = 8.0 * grow / ((mu2 - 1.0) * ag * ag)
            if est <= 0.5 * eps_share or ag >= COMB_STOP_ABS:
                out.tail += est
                return
        if n >= 500_000:
            out.tail += 1.0
            out.depth_capped = True
            return
        gamma_prev, gamma0 = gamma0, gamma1
        c_num, c_den = w_num, w_den


def cap_tail(am, au, av):
    """(tail estimate, is_crude) for an unexplored cell at the depth cap.

    ``am`` is the mediant trace modulus, ``au``/``av`` the edge traces.  When
    the slow side sits near 2 the values along the residual comb grow only
    like powers of mu with mu + 1/mu = min(au, av), so the plain 10/am^2
    estimate is inflated by mu^2/(mu^2 - 1).
    """
    if am <= 3.0:
        return 1.0, True
    g = au if au < av else av
    if g >= PRUNE_MODULUS:
        return TAIL_COEFFICIENT / (am * am), False
    if g <= 2.0 + 1e-9:
        return 1.0, True
    half = 0.5 * (g + (g * g - 4.0) ** 0.5)
    mu2 = half * half
    return 20.0 * (mu2 / (mu2 - 1.0)) / (am * am), False


# perfbench reads these names; its tracer replaces ``active_kernel.explore``,
# so every caller looks ``explore`` up on this module at call time.
BACKEND = "python"
active_kernel = python_kernel = sys.modules[__name__]
compiled_kernel = None


def get_kernel(name=None):
    """The kernel module for ``name`` ("active", "python" or "compiled")."""
    if name in (None, "active", "python"):
        return active_kernel
    if name == "compiled" and compiled_kernel is not None:
        return compiled_kernel
    raise ValueError("unknown kernel %r" % (name,))
