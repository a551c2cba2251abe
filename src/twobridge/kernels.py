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
Adv. Math. 217 (2008)).  One walker handles every cell:

* both edge traces >= T in modulus: a binary cell.  In sum mode
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
* one edge trace t below T: a fan around that endpoint (the pivot), walked
  linearly with the two-term recurrence gamma_{n+1} = t gamma_n - gamma_{n-1};
  each step pushes its off-comb cell back onto the stack.  A pivot within
  PARABOLIC_TOL of +-2 is snapped to it and preferred as the pivot.  The
  fan has two stop rules, one for each kind of pivot:
  - loxodromic: the measured growth ratio mu bounds the rest of the comb
    and of its off-comb cells inside the eps share (``_fan``);
  - parabolic: the traces grow linearly, and after at least
    _FAN_MIN_STEPS steps the rest is added in closed form (below).

A mediant or a comb trace within PARABOLIC_TOL of +-2 is snapped to it,
joins the census and adds 2h(+-2) = 1.  A parabolic mediant's two child
cells have it as an endpoint, so each is walked as a fan around it.  A
parabolic trace met mid-fan ends the fan: the rest of its comb is the cell
(moving endpoint, pivot) whose mediant is that trace, and its two children
go on the stack, each with a quarter of the fan's share.

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

The eps contract: a cell's share of eps bounds everything it adds to
``out.tail``.  A binary cell either takes its tail estimate (when it fits
the share) or passes half the share to each child.  A fan gives its n-th
off-comb cell 0.3 * share / n^2 (at most pi^2/20 < 1/2 of the share in all)
and stops its own walk, or splits at a parabolic trace, within the other
half.  The parabolic stop rule's closed-form remainder covers both the
comb and the off-comb cells beyond its last step (the first mediants
summed exactly, their subtrees by the TAIL_COEFFICIENT estimate).  Sum
mode has no depth limit, so the shares alone decide where a series stops.

The census scan runs the series' own driver (``mcshane._explore_edge``)
with eps_share = inf and reads only ``census``, ``elliptic`` and
``nodes``, so with an infinite share no h is evaluated, and a fan stops
as soon as its traces grow.  One limit serves only
the scan, which ignores ``out.tail``: once ``len(out.census)`` passes
``out.census_cap`` (infinite unless a caller sets it) the exploration
returns at once.  ``mcshane._explore_edge`` sets the cap on the outcome it
creates; ``mcshane.census_scan`` passes what its census may still take and
raises on the same comparison after every edge.

Every binary cell and every fan step counts one node, and NODE_BUDGET is
the one limit on a walk: passing it marks ``out.depth_capped``.  A series
spends it on each of its edges, and ``mcshane.census_scan`` once over all
of its edges.  ``explore`` reads it at call time, unless a caller passes
what is left of it as ``node_budget``.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import InternalError, NotGeometricEvaluationError
from .slopes import Slope

PRUNE_MODULUS = 8.0
SCAN_MODULUS = 2.0 + 1e-6  # 2 + delta (module docstring)
TAIL_COEFFICIENT = 10.0
COMB_STOP_ABS = 1e30
PARABOLIC_TOL = 1e-11
CENSUS_TOL = 1e-9
ELLIPTIC_IM_TOL = 1e-9
ELLIPTIC_RE_MARGIN = 1e-6
NODE_BUDGET = 5_000_000

_FAN_MIN_STEPS = 64
# the asymptotic series of the fan tail keep B_2 .. B_10; at Re z >= 32
# the first term left out (B_12) is below 1e-17 of each sum
_FAN_MIN_RE = 32.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)
# B_2j (2j+2)(2j+1)/6, the coefficient of z^(-2j-3) in zeta(4, z)
_ZETA4_COEFS = (1 / 3, -1 / 6, 2 / 9, -1 / 2, 5 / 3)
# B_2j / 2j, the coefficient of z^(-2j) in psi(z)
_DIGAMMA_COEFS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132)


class CellOutcome:
    """Mutable accumulator shared by one driver-level exploration."""

    __slots__ = (
        "sum_re", "sum_im", "comp_re", "comp_im", "tail", "census",
        "elliptic", "depth_capped", "nodes", "max_depth_seen", "census_cap",
    )

    def __init__(self):
        self.sum_re = 0.0
        self.sum_im = 0.0
        self.comp_re = 0.0
        self.comp_im = 0.0
        self.tail = 0.0
        self.census = []      # (num, den, trace)
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


def _snap_parabolic(x: complex) -> complex:
    """+-2 exactly, for a trace x that is ``_near_parabolic``."""
    return 2.0 + 0j if abs(x - 2.0) <= PARABOLIC_TOL else -2.0 + 0j


def _is_elliptic(x: complex) -> bool:
    return (abs(x.imag) <= ELLIPTIC_IM_TOL
            and abs(x.real) < 2.0 - ELLIPTIC_RE_MARGIN)


def explore(out, u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp,
            depth, eps_share, node_budget=None):
    """Sum the open cell (u, v) into ``out``.

    ``phi_opp`` is the trace at the vertex opposite the edge <u, v> on the
    parent side, so the first mediant trace is phi_u*phi_v - phi_opp.
    Deterministic order: fans walk outward, binary cells left before right.
    Every trace below the cell is tested when it is made; the endpoints are
    tested here, and an elliptic one is recorded before any node is walked.
    ``node_budget`` defaults to NODE_BUDGET.
    """
    if node_budget is None:
        node_budget = NODE_BUDGET
    for num, den, phi in ((u_num, u_den, phi_u), (v_num, v_den, phi_v)):
        if _is_elliptic(phi):
            out.elliptic = (num, den, phi)
            return
    summing = eps_share != math.inf
    modulus = PRUNE_MODULUS if summing else SCAN_MODULUS
    stack = [(u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp, depth,
              eps_share)]
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
        if au < modulus or av < modulus:  # +-2 is below both moduli
            if _near_parabolic(phi_u) or (au < av and not _near_parabolic(phi_v)):
                _fan(out, stack, u_num, u_den, phi_u, v_num, v_den, phi_v,
                     phi_opp, depth, eps_share, node_budget)
            else:
                _fan(out, stack, v_num, v_den, phi_v, u_num, u_den, phi_u,
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
                out.elliptic = (m_num, m_den, phi_m)
                return
            if _near_parabolic(phi_m):
                phi_m = _snap_parabolic(phi_m)  # 2h(+-2) = 1 below
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


def _fan(out, stack, p_num, p_den, t, c_num, c_den, gamma0, gamma_prev,
         depth, eps_share, node_budget):
    """Walk the fan of the cell (p, c) around its pivot p, of trace t.

    The fan vertices w_n step by the pivot vector and their traces obey
    gamma_{n+1} = t gamma_n - gamma_{n-1}, with gamma_0 the moving
    endpoint's trace and gamma_{-1} = phi_opp.  Each step counts one node,
    adds 2h(gamma_n) and pushes the off-comb cell (w_n, w_{n-1}) onto the
    stack, with 0.3 * share / n^2.  The walk stops within the other half of
    the share (module docstring):

    * loxodromic t: gamma_n = P mu^n + Q mu^-n, mu + 1/mu = t, |mu| > 1,
      and once |Q/P| mu^-2n <= 1/4 and |gamma_n| >= 32 the rest is at most
      8 grow / ((|mu|^2 - 1) |gamma_n|^2);
    * parabolic t = 2 sigma: gamma_n = sigma^n (a + b n), a = gamma_0,
      b = sigma gamma_1 - gamma_0, and once |gamma_n| >= 32,
      |b| n >= 4|a| + 8 and n >= _FAN_MIN_STEPS with ``_fan_tail_bound``
      within the share, ``_fan_tail_value`` adds the rest.

    The census scan (infinite share) sums nothing and stops each fan as
    soon as its traces grow.  Like ``explore`` the walk stops on an
    elliptic trace, the node budget and the census cap.
    """
    summing = eps_share != math.inf
    parabolic = _near_parabolic(t)
    if parabolic:
        t = _snap_parabolic(t)
        gamma1 = t * gamma0 - gamma_prev
        a_lin = gamma0
        b_lin = (gamma1 if t.real > 0 else -gamma1) - gamma0
        if abs(b_lin) < 1e-8:
            raise NotGeometricEvaluationError(
                Slope(p_num, p_den), t,
                note="degenerate parabolic fan at %s/%s" % (p_num, p_den))
        a_abs, b_abs = abs(a_lin), abs(b_lin)
    else:
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
                out.elliptic = (w_num, w_den, gamma1)
                return
            if _near_parabolic(gamma1):
                # the rest of the comb is the cell (c, p), whose mediant w
                # is parabolic: descend it once, its children each taking a
                # quarter of the share (the half the off-comb cells leave)
                gamma1 = _snap_parabolic(gamma1)
                out.census.append((w_num, w_den, gamma1))
                out.add(1.0, 0.0)  # 2 h(+-2) = 1
                quarter = 0.25 * eps_share
                stack.append((p_num, p_den, t, w_num, w_den, gamma1, gamma0,
                              cell_depth, quarter))
                stack.append((c_num, c_den, gamma0, w_num, w_den, gamma1, t,
                              cell_depth, quarter))
                return
            out.census.append((w_num, w_den, gamma1))
            if len(out.census) > out.census_cap:
                return
        if summing:
            hm = h_func(gamma1)
            out.add(2.0 * hm.real, 2.0 * hm.imag)
        stack.append((w_num, w_den, gamma1, c_num, c_den, gamma0, t,
                      cell_depth + 1, 0.3 * eps_share / (n * n)))
        if parabolic:
            if ag >= 32.0 and b_abs * n >= 4.0 * a_abs + 8.0:
                if not summing:
                    return
                if n >= _FAN_MIN_STEPS:
                    bound = _fan_tail_bound(a_abs, b_abs, n)
                    if bound <= 0.5 * eps_share:
                        rest = _fan_tail_value(a_lin, b_lin, n)
                        out.add(rest.real, rest.imag)
                        out.tail += bound
                        return
        else:
            if n == 1 and usable:
                p_coef = (gamma1 - gamma0 / mu) / (mu - 1.0 / mu)
                p_abs = abs(p_coef)
                if p_abs > 0.0:
                    beta = abs(gamma0 - p_coef) / (p_abs * mu2)
            elif beta > 0.0:
                beta /= mu2
            if 0.0 <= beta <= 0.25 and ag >= 32.0:
                grow = (1.0 + beta) * (1.0 + beta) / ((1.0 - beta) * (1.0 - beta))
                est = 8.0 * grow / ((mu2 - 1.0) * ag * ag)
                if est <= 0.5 * eps_share or ag >= COMB_STOP_ABS:
                    out.tail += est
                    return
        gamma_prev, gamma0 = gamma0, gamma1
        c_num, c_den = w_num, w_den


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
