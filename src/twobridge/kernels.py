"""Stern-Brocot summation kernel.

Walks the binary subdivision tree of a Farey interval carrying the Markoff
triple around each cell, summing 2*h(phi(mediant)) with compensated
accumulation.  A cell (u, v), whose first mediant m has trace
phi_m = phi_u phi_v - phi_opp, is pruned by the criterion C(T):

    |phi_u|, |phi_v| >= T   and   |phi_opp| <= |phi_u| |phi_v| / 2.

For T >= 2, C(T) gives |phi_m| >= |phi_u||phi_v| - |phi_opp| >= T^2/2 >= T,
and both children inherit it: in the child (u, m), opposite v,
|phi_u||phi_m|/2 >= |phi_u|^2 |phi_v|/4 >= |phi_v|, and (m, v) likewise.
So every trace in the subtree has |phi| >= T^2/2, and each level multiplies
the traces by at least T/2.  This is the quantitative form of Bowditch's
attracting-subtree argument (Proc. LMS 77 (1998); Tan-Wong-Zhang,
Adv. Math. 217 (2008)).  The kernel has two regimes:

* both edge traces >= T in modulus: binary subdivision.  In sum mode
  T = PRUNE_MODULUS = 8, and a cell meeting C(8) is pruned once the tail
  estimate 10/|phi_m|^2 fits inside its share of eps: the traces grow
  fourfold per level while the cells double, so 2|h| summed over m and its
  subtree stays below 2.4/|phi_m|^2.  The census scan (eps_share = inf)
  uses T = SCAN_MODULUS = 2 + delta, delta = 1e-6, and prunes every cell
  meeting C(T): no trace below it has |phi| <= 2, so none is elliptic or
  joins the census (|phi| <= 2 + CENSUS_TOL).  The bound holds for the
  computed traces too: a computed mediant lies within 6u|phi_u phi_v| of
  phi_u phi_v - phi_opp, u = 2^-53, so the same induction runs on it for
  any delta above about 20u and keeps every |phi| >= 2 + 2 delta - 24u;
  delta = 1e-6 puts that bound 2e-6 above 2, 2 000 times CENSUS_TOL.
* one edge trace below T (a fan around a short loxodromic): the cell is a
  "comb" walked linearly with the two-term recurrence
  gamma_{n+1} = t gamma_n - gamma_{n-1}, its off-comb cells re-entering the
  binary regime.  The comb stops when the measured growth ratio bounds the
  remaining sum inside the eps share.

Cells whose traces come within PARABOLIC_TOL of +-2 are never descended
here; they are handed back to the caller, which sums parabolic fans
analytically.

The eps contract: a cell's share of eps bounds everything it adds to
``out.tail``.  A binary cell either takes its tail estimate (when it fits
the share) or passes half the share to each child.  A comb gives its n-th
off-comb cell 0.3 * share / n^2 (at most pi^2/20 < 1/2 of the share in all)
and stops its own walk, or defers its parabolic remainder, within the other
half.  A parabolic fan (``mcshane._explore_fan``) gives its n-th
off-comb cell 0.3 * share / n^2 in the same way; the other half bounds
its closed-form remainder, which covers both the comb and the off-comb
cells beyond its last step (the first mediants summed exactly, their
subtrees by this kernel's TAIL_COEFFICIENT estimate).  Sum mode has no
depth limit, so the shares alone decide where a series stops; only the
node budget and the comb's step cap can cut it short, and they mark
``out.depth_capped``.

The census scan runs the series' own driver (``mcshane._explore_edge``)
with eps_share = inf and reads only ``census``, ``elliptic`` and
``nodes``, so with an infinite share nothing is summed: neither the
kernel nor the fans evaluate h.  One limit serves only the scan, which
ignores ``out.tail``: once ``len(out.census)`` passes ``out.census_cap``
(infinite unless a caller sets it) the exploration returns at once.
``mcshane._explore_edge`` sets the cap on the outcome it creates;
``mcshane.census_scan`` passes what its census may still take and raises
on the same comparison after every edge.  The node budget stops binary,
comb and fan walks alike (``CellOutcome.stopped``).  The parabolic fans
test C(SCAN_MODULUS) themselves (``_scan_prunes``) before each off-comb
cell, so the scan makes no call for a cell pruned at its first node.
"""

from __future__ import annotations

import cmath
import math
import sys

PRUNE_MODULUS = 8.0
SCAN_MODULUS = 2.0 + 1e-6  # 2 + delta (module docstring)
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

    def stopped(self, node_budget):
        """An elliptic trace found, ``node_budget`` passed or the census
        over its cap: every walk on this outcome returns."""
        return (self.elliptic is not None or self.nodes > node_budget
                or len(self.census) > self.census_cap)


def h_func(x: complex) -> complex:
    """h(x) = (1 - s)/2 = 2/(x^2 (1 + s)), s = sqrt(1 - 4/x^2), Re s >= 0.

    Computed as (t/2)/(1 + s) with t = (2/x)^2.  1 - s cancels for large
    |x| (about x^2 machine epsilons of relative error); 1 + s has real part
    at least 1, since cmath.sqrt is the principal branch; and t goes to 0
    where x^2 would overflow.
    """
    y = 2.0 / x
    t = y * y
    return 0.5 * t / (1.0 + cmath.sqrt(1.0 - t))


def _near_parabolic(x: complex) -> bool:
    return abs(x - 2.0) <= PARABOLIC_TOL or abs(x + 2.0) <= PARABOLIC_TOL


def _is_elliptic(x: complex) -> bool:
    return (abs(x.imag) <= ELLIPTIC_IM_TOL
            and abs(x.real) < 2.0 - ELLIPTIC_RE_MARGIN)


def explore(out, u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp,
            depth, eps_share, node_budget=5_000_000):
    """Sum the open cell (u, v) into ``out``.

    ``phi_opp`` is the trace at the vertex opposite the edge <u, v> on the
    parent side, so the first mediant trace is phi_u*phi_v - phi_opp.
    Deterministic order: combs walk outward, binary cells left before right.
    """
    cell = (u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp, depth, eps_share)
    if _near_parabolic(phi_u) or _near_parabolic(phi_v):
        # Only the root cell can have a parabolic endpoint: every endpoint
        # pushed below it is a mediant or comb trace, tested when made.
        out.nodes += 1
        if depth > out.max_depth_seen:
            out.max_depth_seen = depth
        out.deferred.append((DEFER_ENDPOINT,) + cell)
        return
    summing = eps_share != math.inf
    modulus = PRUNE_MODULUS if summing else SCAN_MODULUS
    stack = [cell]
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

        au = abs(phi_u)
        av = abs(phi_v)
        if au < modulus or av < modulus:
            _comb(out, stack, u_num, u_den, phi_u, v_num, v_den, phi_v,
                  phi_opp, depth, eps_share, node_budget)
            if out.stopped(node_budget):
                return
            continue

        m_num = u_num + v_num
        m_den = u_den + v_den
        phi_m = phi_u * phi_v - phi_opp
        am = abs(phi_m)
        # elliptic and near-parabolic traces both lie in this disc
        if am <= 2.0 + CENSUS_TOL:
            if _is_elliptic(phi_m):
                if out.elliptic is None:
                    out.elliptic = (m_num, m_den, phi_m)
                return
            if _near_parabolic(phi_m):
                out.deferred.append((DEFER_MEDIANT, u_num, u_den, phi_u, v_num,
                                     v_den, phi_v, phi_opp, depth, eps_share))
                continue
            out.census.append((m_num, m_den, phi_m))
            if len(out.census) > out.census_cap:
                return

        if abs(phi_opp) <= 0.5 * au * av:  # C(modulus); the scan's share is inf
            est = TAIL_COEFFICIENT / (am * am)
            if est <= eps_share:
                out.tail += est
                continue

        if summing:
            hm = h_func(phi_m)
            out.add(2.0 * hm.real, 2.0 * hm.imag)
        half = 0.5 * eps_share
        stack.append((m_num, m_den, phi_m, v_num, v_den, phi_v, phi_u,
                      depth + 1, half))
        stack.append((u_num, u_den, phi_u, m_num, m_den, phi_m, phi_v,
                      depth + 1, half))


def _scan_prunes(phi_u, phi_v, phi_opp):
    """C(SCAN_MODULUS) on a cell: the census scan prunes it, as no trace in
    its subtree has |phi| <= 2 (module docstring)."""
    au = abs(phi_u)
    av = abs(phi_v)
    return (au >= SCAN_MODULUS and av >= SCAN_MODULUS
            and abs(phi_opp) <= 0.5 * au * av)


def _comb(out, stack, u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp,
          depth, eps_share, node_budget):
    """Walk the fan around the small-trace endpoint of the cell.

    The pivot is the endpoint with |trace| below the mode's modulus
    (PRUNE_MODULUS or SCAN_MODULUS); fan vertices w_n step by the
    pivot vector and their traces obey gamma_{n+1} = t gamma_n - gamma_{n-1}
    with gamma_0 the moving endpoint's trace and gamma_{-1} = phi_opp, so
    gamma_n = P mu^n + Q mu^-n with mu + 1/mu = t, |mu| > 1.  Each step
    pushes the off-comb cell (w_{n+1}, w_n) onto the binary stack; the walk
    stops once the geometric decay of 2h(gamma_n) ~ 8/|P mu^n|^2 bounds the
    remainder inside half the eps share; the off-comb cells share the other
    half.  Like ``explore`` it stops on the node budget and on the census
    cap.
    """
    if abs(phi_u) < abs(phi_v):
        p_num, p_den, t = u_num, u_den, phi_u
        c_num, c_den, gamma0 = v_num, v_den, phi_v
    else:
        p_num, p_den, t = v_num, v_den, phi_v
        c_num, c_den, gamma0 = u_num, u_den, phi_u
    gamma_prev = phi_opp
    summing = eps_share != math.inf

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
        if cell_depth > out.max_depth_seen:
            out.max_depth_seen = cell_depth
        ag = abs(gamma1)
        if ag <= 2.0 + CENSUS_TOL:
            if _is_elliptic(gamma1):
                if out.elliptic is None:
                    out.elliptic = (w_num, w_den, gamma1)
                return
            if _near_parabolic(gamma1):
                # remaining comb = cell (current moving endpoint, pivot)
                # whose mediant is the parabolic vertex: hand it back whole,
                # with the half of the share the off-comb cells do not use
                out.deferred.append((DEFER_MEDIANT, c_num, c_den, gamma0,
                                     p_num, p_den, t, gamma_prev,
                                     cell_depth - 1, 0.5 * eps_share))
                return
            out.census.append((w_num, w_den, gamma1))
            if len(out.census) > out.census_cap:
                return
        if n == 1 and usable:
            p_coef = (gamma1 - gamma0 / mu) / (mu - 1.0 / mu)
            p_abs = abs(p_coef)
            if p_abs > 0.0:
                beta = abs(gamma0 - p_coef) / (p_abs * mu2)
        elif beta > 0.0:
            beta /= mu2
        if summing:
            hm = h_func(gamma1)
            out.add(2.0 * hm.real, 2.0 * hm.imag)
        stack.append((w_num, w_den, gamma1, c_num, c_den, gamma0, t,
                      cell_depth + 1, 0.3 * eps_share / (n * n)))
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
