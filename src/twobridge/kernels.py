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
  T = PRUNE_MODULUS = 8, and a cell meeting C(8) stops by rule 1 (below).
  The census scan (eps_share = inf) uses T = SCAN_MODULUS = 2 + delta,
  delta = 1e-6, and prunes every cell meeting C(T): no trace below it has
  |phi| <= 2, so none is elliptic or joins the census
  (|phi| <= 2 + CENSUS_TOL).  The bound holds for the computed traces too:
  a computed mediant lies within 6u|phi_u phi_v| of phi_u phi_v - phi_opp,
  u = 2^-53, so the same induction runs on it for any delta above about
  20u and keeps every |phi| >= 2 + 2 delta - 24u; delta = 1e-6 puts that
  bound 2e-6 above 2, 2 000 times CENSUS_TOL.
* one edge trace t below T: a fan around that endpoint (the pivot), walked
  linearly with the two-term recurrence gamma_{n+1} = t gamma_n - gamma_{n-1};
  each step pushes its off-comb cell back onto the stack.  A pivot within
  PARABOLIC_TOL of +-2 is snapped to it and preferred as the pivot.  The
  fan has two stop rules, one for each kind of pivot, and both add the
  rest of the fan in closed form: rule 2 (below) for a loxodromic pivot;
  for a parabolic one the traces grow linearly, and the rest is added
  after at least _FAN_MIN_STEPS steps (below).

A mediant or a comb trace within PARABOLIC_TOL of +-2 is snapped to it,
joins the census and adds 2h(+-2) = 1.  A parabolic mediant's two child
cells have it as an endpoint, so each is walked as a fan around it.  A
parabolic trace met mid-fan ends the fan: the rest of its comb is the cell
(moving endpoint, pivot) whose mediant is that trace, and its two children
go on the stack, each with half of what the fan's off-comb cells leave of
its share.

Rule 1, a binary cell meeting C(8) in sum mode.  Its children's mediants
phi_u m - phi_v and m phi_v - phi_u have modulus at least
|phi_u||m|(1 - 2/|phi_u|^2) >= (31/32)|phi_u||m| and (31/32)|phi_v||m|,
as |phi_v| <= 2|m|/|phi_u|, and the children meet C(8) in turn.  So each
level below m multiplies the mediants by at least 7.75 while the cells
double, and with |2h(x)| <= 2.004/|x|^2 for |x| >= 32, 2|h| summed over
m and its subtree is at most 2.004/(1 - 2/7.75^2) = 2.073 over |m|^2, and
over the two subtrees below m at most
2.073 (32/31)^2 (|phi_u|^-2 + |phi_v|^-2)/|m|^2.  The cell is pruned
whole, charging CELL_TAIL/|m|^2 (CELL_TAIL = 2.1), when that fits its
share; otherwise 2h(m) is added, and the part below m is pruned, charging
BELOW_TAIL (|phi_u|^-2 + |phi_v|^-2)/|m|^2 (BELOW_TAIL = 2.25), when that
fits; otherwise the cell splits.

Rule 2, a loxodromic fan.  With mu + 1/mu = t and |mu| > 1 the comb is
gamma_n = P mu^n + Q mu^-n, and the first mediant of the n-th off-comb
cell is m_n = gamma_n gamma_{n-1} - t = P^2 mu^(2n-1) + (PQ - 1) t
+ Q^2 mu^(1-2n).  After step N, P and Q are solved again from gamma_N and
gamma_{N-1}, so that gamma_{N+i} = P mu^i (1 + rho u^i) with u = mu^-2,
rho = Q/P; once beta = |rho| <= 1/4 and G = (1 - beta)|P| >= 32, every
|gamma_{N+i}| >= G |mu|^i, and the rest of the fan is added as geometric
series in u, X_k = sum_{i >= 1} u^(ki) = u^k/(1 - u^k):

    sum_{i>=1} 2 gamma_{N+i}^-2
        ~ 2 P^-2 sum_{k=1..4} k (-rho)^(k-1) X_k,
    sum_{i>=1} 2 gamma_{N+i}^-4 + 2 (gamma_{N+i} gamma_{N+i-1})^-2
        ~ 2 P^-4 (1 + mu^2) X_2.

With s = |mu|^2 and L = |P|, what this leaves out is at most (``_lox_tail``)

* the comb's h-expansion remainder, |2h(g) - 2g^-2 - 2g^-4| <= 4.2|g|^-6:
  4.2/((s^3 - 1) G^6);
* 2m_n^-2 against 2(gamma_n gamma_{n-1})^-2: as |t| < 8, |m_n| lies within
  a factor 1 +- 1/128 of |gamma_n gamma_{n-1}|, and the two differ by at most
  4.1|t| |gamma_n gamma_{n-1}|^-3, 4.2|t||mu|^3/((s^3 - 1) G^6) in all;
* the subtrees below the m_n, by rule 1 (each off-comb cell meets C(8)),
  and the m^-4 part of 2h(m_n): 2.4 s (1 + s)/((s^3 - 1) G^6);
* the terms of (1 + rho u^i)^-2 past the fourth, by
  sum_{k>=K} (k+1) z^k <= (K+1) z^K/(1 - z)^2: 17.8 beta^4/((s^5 - 1) L^2);
* those of (1 + rho u^i)^-4 and (1 + rho u^i)^-2 (1 + rho u^(i-1))^-2 past
  the first, by (1 - z)^-4 - 1 <= 8.65 z for z <= 1/4:
  17.3 (1 + s^2) beta/((s^3 - 1) L^4).

The fan stops once their sum fits in what its off-comb cells leave of its
share, and charges it.  The
bounds hold for the recurrence continued from the computed gamma_N and
gamma_{N-1}; P and 1 - u^k lose about 2^-53/|mu - 1/mu| relative accuracy.

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
of 2h(m_n), is bounded by (6/5 + 1)/(|b| F^5), F = |b| N - |a|
(``_fan_tail_bound``).

The eps contract: the shares of one walk add up to its eps_share, they
bound everything the walk adds to ``out.tail``, and every stop rule above
has a proof, so the tail a series reports bounds what it leaves out.  A
binary cell either takes one of rule 1's charges (when it fits the share)
or passes half the share to each child.  A fan gives its n-th off-comb
cell 0.3 * share / n^2 (at most pi^2/20 < 1/2 of the share in all) and
stops its own walk, or splits at a parabolic trace, within what is left:
share - pushed at step n, pushed the off-comb cells' shares so far.  Both
closed-form remainders cover the comb and the off-comb cells beyond the
last step (the first mediants summed, their subtrees by rule 1).  What a
cell does not spend is carried: a cell pruned by rule 1 hands share -
charge to the next cell popped off the stack, and a fan hands on share -
pushed - charge, so a walk may spend all of its share.  Every float
operation of this bookkeeping (the carry, the tail's sum, a fan's pushed
fraction) errs by at most 2^-53 of the walk's share, a node makes fewer
than eight of them, and a walk spends at most NODE_BUDGET nodes; so the
walk holds back 8 NODE_BUDGET 2^-53 (4.4e-9) of its share, and its tail
never exceeds eps_share, rounding included.  Sum mode has no depth limit,
so the shares alone decide where a series stops.

The census scan runs the series' own driver (``mcshane._explore_edge``)
with eps_share = inf and reads only ``census``, ``elliptic`` and
``nodes``, so with an infinite share no h is evaluated, and a fan stops
as soon as its traces grow (a loxodromic one at rule 2's tracked
beta <= 1/4 and |gamma| >= 32, before any bound).  It walks all of its
edges on one outcome, which carries the one limit that serves only the
scan: ``out.census_allowed``, the slopes of A(r)
(``slopes.off_chain_census``).  The walk returns at once on a small trace
at a slope outside it; in sum mode it is None and every small trace joins
the census.

Every binary cell and every fan step counts one node on ``out.nodes``,
and NODE_BUDGET, read at call time, is the one limit on it: passing it
marks ``out.depth_capped``.  A series gives each of its edges a fresh
outcome and so spends the budget on each; the census scan's one outcome
spends it once over all of its edges.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import InternalError, NotGeometricEvaluationError
from .slopes import Slope

PRUNE_MODULUS = 8.0
SCAN_MODULUS = 2.0 + 1e-6  # 2 + delta (module docstring)
CELL_TAIL = 2.1     # rule 1: a C(8) cell, its mediant and subtree
BELOW_TAIL = 2.25   # rule 1: the subtree below its mediant
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
    """Mutable accumulator of one walk: a series' edge or a whole census
    scan."""

    __slots__ = (
        "sum_re", "sum_im", "comp_re", "comp_im", "tail", "census",
        "elliptic", "depth_capped", "nodes", "max_depth_seen",
        "census_allowed",
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
        # the census scan's (num, den) of A(r): the walk stops at a small
        # trace outside it; None in sum mode
        self.census_allowed = None

    def add(self, re, im):
        y = re - self.comp_re
        t = self.sum_re + y
        self.comp_re = (t - self.sum_re) - y
        self.sum_re = t
        y = im - self.comp_im
        t = self.sum_im + y
        self.comp_im = (t - self.sum_im) - y
        self.sum_im = t

    def add_small_trace(self, num, den, trace):
        """Add a slope with |trace| <= 2 + CENSUS_TOL to the census; True
        when it lies outside ``census_allowed``, and the walk must end."""
        self.census.append((num, den, trace))
        allowed = self.census_allowed
        return allowed is not None and (num, den) not in allowed

    @property
    def total(self):
        return complex(self.sum_re, self.sum_im)


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
            depth, eps_share):
    """Sum the open cell (u, v) into ``out``.

    ``phi_opp`` is the trace at the vertex opposite the edge <u, v> on the
    parent side, so the first mediant trace is phi_u*phi_v - phi_opp.
    Deterministic order: fans walk outward, binary cells left before right.
    Every trace below the cell is tested when it is made; the endpoints are
    tested here, and an elliptic one is recorded before any node is walked.
    The walk returns once ``out.nodes`` passes NODE_BUDGET or on a small
    trace outside ``out.census_allowed``.  In sum mode the tail it adds is
    at most ``eps_share``: what a cell leaves unspent is carried to the
    next cell popped (module docstring, the eps contract).
    """
    for num, den, phi in ((u_num, u_den, phi_u), (v_num, v_den, phi_v)):
        if _is_elliptic(phi):
            out.elliptic = (num, den, phi)
            return
    summing = eps_share != math.inf
    modulus = PRUNE_MODULUS if summing else SCAN_MODULUS
    if summing:  # room for the rounding of the share bookkeeping
        eps_share *= 1.0 - 8 * NODE_BUDGET * 2.0 ** -53
    stack = [(u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp, depth,
              eps_share)]
    carry = 0.0  # what the cells popped so far left unspent
    while stack:
        (u_num, u_den, phi_u, v_num, v_den, phi_v, phi_opp,
         depth, eps_share) = stack.pop()
        eps_share += carry
        carry = 0.0
        out.nodes += 1
        if depth > out.max_depth_seen:
            out.max_depth_seen = depth
        if out.nodes > NODE_BUDGET:
            out.depth_capped = True
            out.tail += 1.0
            return

        au = abs(phi_u)
        av = abs(phi_v)
        if au < modulus or av < modulus:  # +-2 is below both moduli
            if _near_parabolic(phi_u) or (au < av and not _near_parabolic(phi_v)):
                carry = _fan(out, stack, u_num, u_den, phi_u, v_num, v_den,
                             phi_v, phi_opp, depth, eps_share)
            else:
                carry = _fan(out, stack, v_num, v_den, phi_v, u_num, u_den,
                             phi_u, phi_opp, depth, eps_share)
            if carry is None:
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
            if out.add_small_trace(m_num, m_den, phi_m):
                return

        attracting = abs(phi_opp) <= 0.5 * au * av  # C(modulus)
        if attracting:  # rule 1; the scan's share is inf
            est = CELL_TAIL / (am * am)
            if est <= eps_share:
                out.tail += est
                carry = eps_share - est
                continue

        if summing:
            hm = h_func(phi_m)
            out.add(2.0 * hm.real, 2.0 * hm.imag)
            if attracting:
                est = BELOW_TAIL * (1.0 / (au * au) + 1.0 / (av * av)) / (am * am)
                if est <= eps_share:
                    out.tail += est
                    carry = eps_share - est
                    continue
        half = 0.5 * eps_share
        stack.append((m_num, m_den, phi_m, v_num, v_den, phi_v, phi_u,
                      depth + 1, half))
        stack.append((u_num, u_den, phi_u, m_num, m_den, phi_m, phi_v,
                      depth + 1, half))


def _fan(out, stack, p_num, p_den, t, c_num, c_den, gamma0, gamma_prev,
         depth, eps_share):
    """Walk the fan of the cell (p, c) around its pivot p, of trace t.

    The fan vertices w_n step by the pivot vector and their traces obey
    gamma_{n+1} = t gamma_n - gamma_{n-1}, with gamma_0 the moving
    endpoint's trace and gamma_{-1} = phi_opp.  Each step counts one node,
    adds 2h(gamma_n) and pushes the off-comb cell (w_n, w_{n-1}) onto the
    stack, with 0.3 * share / n^2.  The walk stops within the rest of the
    share, share - pushed, pushed the off-comb cells' shares so far (module
    docstring):

    * loxodromic t: gamma_n = P mu^n + Q mu^-n, mu + 1/mu = t, |mu| > 1;
      beta = |Q/P| mu^-2n is tracked from step 1, and once beta <= 1/4
      and |gamma_n| >= 32, ``_lox_tail`` adds the rest (rule 2) as soon as
      its remainder bound fits;
    * parabolic t = 2 sigma: gamma_n = sigma^n (a + b n), a = gamma_0,
      b = sigma gamma_1 - gamma_0, and once |gamma_n| >= 32,
      |b| n >= 4|a| + 8 and n >= _FAN_MIN_STEPS with ``_fan_tail_bound``
      within the share, ``_fan_tail_value`` adds the rest.

    The census scan (infinite share) sums nothing and stops each fan as
    soon as its traces grow.  Returns the share the fan leaves unspent,
    share - pushed - charge, which ``explore`` carries to the next cell
    (0 in the scan and after a split at a parabolic trace, which hands all
    of the rest to its two cells), or None when the whole walk must end,
    as ``explore``'s does: on an elliptic trace, past NODE_BUDGET or on a
    small trace outside ``out.census_allowed``.
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
    pushed = 0.0  # the fraction of the share given to off-comb cells
    while True:
        n += 1
        out.nodes += 1
        if out.nodes > NODE_BUDGET:
            out.depth_capped = True
            out.tail += 1.0
            return None
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
                return None
            if _near_parabolic(gamma1):
                # the rest of the comb is the cell (c, p), whose mediant w
                # is parabolic: descend it once, its children each taking
                # half of the share the off-comb cells leave
                gamma1 = _snap_parabolic(gamma1)
                stop = out.add_small_trace(w_num, w_den, gamma1)
                out.add(1.0, 0.0)  # 2 h(+-2) = 1
                half = 0.5 * eps_share * (1.0 - pushed)
                stack.append((p_num, p_den, t, w_num, w_den, gamma1, gamma0,
                              cell_depth, half))
                stack.append((c_num, c_den, gamma0, w_num, w_den, gamma1, t,
                              cell_depth, half))
                return None if stop else 0.0
            if out.add_small_trace(w_num, w_den, gamma1):
                return None
        if summing:
            hm = h_func(gamma1)
            out.add(2.0 * hm.real, 2.0 * hm.imag)
        weight = 0.3 / (n * n)
        pushed += weight
        stack.append((w_num, w_den, gamma1, c_num, c_den, gamma0, t,
                      cell_depth + 1, weight * eps_share))
        if parabolic:
            if ag >= 32.0 and b_abs * n >= 4.0 * a_abs + 8.0:
                if not summing:
                    return 0.0
                if n >= _FAN_MIN_STEPS:
                    left = eps_share * (1.0 - pushed)
                    bound = _fan_tail_bound(a_abs, b_abs, n)
                    if bound <= left:
                        rest = _fan_tail_value(a_lin, b_lin, n)
                        out.add(rest.real, rest.imag)
                        out.tail += bound
                        return left - bound
        else:
            if n == 1 and usable:
                p_coef = (gamma1 - gamma0 / mu) / (mu - 1.0 / mu)
                p_abs = abs(p_coef)
                if p_abs > 0.0:
                    beta = abs(gamma0 - p_coef) / (p_abs * mu2)
            elif beta > 0.0:
                beta /= mu2
            if 0.0 <= beta <= 0.25 and ag >= 32.0:
                if not summing:
                    return 0.0
                left = eps_share * (1.0 - pushed)
                rest = _lox_tail(t, mu, gamma1, gamma0, left)
                if rest is not None:
                    out.add(rest[0].real, rest[0].imag)
                    out.tail += rest[1]
                    return left - rest[1]
        gamma_prev, gamma0 = gamma0, gamma1
        c_num, c_den = w_num, w_den


def _lox_tail(t, mu, gamma_n, gamma_prev, share):
    """(value, bound) of a loxodromic fan beyond the step of trace gamma_n,
    or None while the bound exceeds ``share`` (module docstring, rule 2).

    With P = (gamma_n mu - gamma_prev)/(mu - 1/mu) and rho = (gamma_n - P)/P
    the comb ahead is gamma_{n+i} = P mu^i (1 + rho u^i), u = mu^-2, and
    beta = |rho| must be at most 1/4 and G = (1 - beta)|P| at least 32.
    """
    p_n = (gamma_n * mu - gamma_prev) / (mu - 1.0 / mu)
    rho = (gamma_n - p_n) / p_n
    beta = abs(rho)
    l2 = 1.0 / (abs(p_n) ** 2)
    g2 = l2 / ((1.0 - beta) ** 2)
    if beta > 0.25 or g2 > 1.0 / 1024.0:
        return None
    mu_abs = abs(mu)
    s = mu_abs * mu_abs
    bound = (((4.2 * (1.0 + abs(t) * mu_abs * s) + 2.4 * s * (1.0 + s)) * g2 ** 3
              + 17.3 * (1.0 + s * s) * beta * l2 * l2) / (s ** 3 - 1.0)
             + 17.8 * beta ** 4 * l2 / (s ** 5 - 1.0))
    if bound > share:
        return None
    u = 1.0 / (mu * mu)
    x = [u ** k / (1.0 - u ** k) for k in (1, 2, 3, 4)]  # sum_i u^(k i)
    comb = x[0] - rho * (2.0 * x[1] - rho * (3.0 * x[2] - 4.0 * rho * x[3]))
    w = 1.0 / (p_n * p_n)
    return 2.0 * w * (comb + (1.0 + mu * mu) * x[1] * w), bound


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
    """Bound C/(|b| F^5), F = |b| n_stop - |a|, C = 6/5 + 1, for what the
    closed form leaves out beyond n_stop.

    The stop rule (n_stop >= 64, |b| n_stop >= 4|a| + 8) gives
    |x_n| >= F >= 8 and |x_n| >= 48|b| for n > n_stop, and since the terms
    are convex in n, sum_{n > n_stop} |x_n|^-6 <= 1/(5|b| F^5).  Left out:

    * the comb's h-expansion remainder, 2h(g) - 2g^-2 - 2g^-4 <= 4.2|g|^-6,
      at most 0.84/(|b| F^5), taken as 6/5;
    * the two child cells of each first mediant m_n: they meet C(8), and
      their mediant traces g_n m_n - g_{n-1} and m_n g_{n-1} - g_n exceed
      0.94|x_n|^3, so rule 1's CELL_TAIL/|t|^2 gives them at most
      4.76|x_n|^-6, 0.96/(|b| F^5) in all;
    * the O(|m_n|^-4) part of 2h(m_n), below 2.4|x_n|^-8, 0.01/(|b| F^5)
      in all.

    The last two, 0.97/(|b| F^5), are taken as 1.
    """
    floor = b_abs * n_stop - a_abs
    if floor < 8:
        return 1.0
    return (6.0 / 5.0 + 1.0) / (b_abs * floor ** 5)


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
