"""Symbolic trace polynomials, root finding and the selection of the
geometric root.

The trace of the slope-s loop is phi(s); on every Farey triangle the triple
(x, y, z) of traces satisfies x^2 + y^2 + z^2 = xyz and across an edge
phi(s0) + phi(s3) = phi(s1) phi(s2).  Normalising phi(inf) = 0 and
phi(1) = i phi(0) turns phi(r) into a polynomial in x = phi(0) with Z[i]
coefficients whose nonzero roots are the candidate holonomy traces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels
from .errors import (
    AmbiguousGeometricRootError,
    DomainError,
    EllipticTraceError,
    InternalError,
    NoGeometricRootError,
    NonHyperbolicError,
    RootFindingError,
)
from .slopes import INFINITY, Slope, is_hyperbolic

__all__ = [
    "TracePolynomial",
    "trace_polynomial",
    "polynomial_roots",
    "MarkoffEvaluation",
    "select_geometric_root",
    "geometric_evaluation",
    "translation_length",
]

# ---------------------------------------------------------------------------
# Z[i] polynomials


class TracePolynomial:
    """Polynomial in x with Gaussian-integer coefficients, ascending order.

    Coefficients are (re, im) pairs of Python ints, so the symbolic chain
    recursion is exact at any size.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [(int(a), int(b)) for a, b in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == (0, 0):
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls([(0, 0)])

    @classmethod
    def variable(cls, scale=(1, 0)):
        """scale * x."""
        return cls([(0, 0), scale])

    @property
    def degree(self):
        if self.coeffs == ((0, 0),):
            return -1
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.coeffs == ((0, 0),)

    def __eq__(self, other):
        return isinstance(other, TracePolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [(0, 0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [(0, 0)] * (n - len(other.coeffs))
        return TracePolynomial([(p[0] - q[0], p[1] - q[1]) for p, q in zip(a, b)])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return TracePolynomial.zero()
        out = [(0, 0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, (a, b) in enumerate(self.coeffs):
            if a == 0 and b == 0:
                continue
            for j, (c, d) in enumerate(other.coeffs):
                re, im = out[i + j]
                out[i + j] = (re + a * c - b * d, im + a * d + b * c)
        return TracePolynomial(out)

    def __call__(self, x):
        """Horner evaluation at a complex x."""
        acc = 0j
        for a, b in reversed(self.coeffs):
            acc = acc * x + complex(a, b)
        return acc

    def derivative(self):
        if self.degree <= 0:
            return TracePolynomial.zero()
        return TracePolynomial(
            [(k * a, k * b) for k, (a, b) in enumerate(self.coeffs)][1:]
        )

    def max_coeff_abs(self):
        return max(math.hypot(a, b) for a, b in self.coeffs)

    def content_power_of_x(self):
        """Largest k with x^k dividing the polynomial."""
        for k, c in enumerate(self.coeffs):
            if c != (0, 0):
                return k
        return 0

    def shift_down(self, k):
        """Divide by x^k (exact)."""
        if any(c != (0, 0) for c in self.coeffs[:k]):
            raise DomainError("polynomial not divisible by x^%d" % k)
        return TracePolynomial(self.coeffs[k:] or [(0, 0)])

    def __str__(self):
        terms = []
        for k, (a, b) in enumerate(self.coeffs):
            if (a, b) == (0, 0):
                continue
            if b == 0:
                c = "%d" % a
            elif a == 0:
                c = "%di" % b
            else:
                c = "(%d%+di)" % (a, b)
            terms.append(c if k == 0 else "%s*x^%d" % (c, k))
        return " + ".join(terms) if terms else "0"


def residual_bound(poly: TracePolynomial, root) -> float:
    """Acceptance bound 1e-10 * max|coeff| * (1 + |root|)^deg."""
    return 1e-10 * poly.max_coeff_abs() * (1.0 + abs(root)) ** max(poly.degree, 0)


def trace_polynomial(r: Slope) -> TracePolynomial:
    """phi(r) as a polynomial in x = phi(0), from the symbolic edge relation
    pushed down the mediant descent to r (``_descend``, the walk of
    ``MarkoffEvaluation.phi``) from (phi(inf), phi(0), phi(1)) = (0, x, ix).
    The descent crosses the triangles of r's Farey chain.

    The result is checked to be even or odd (``_check_sign_symmetry``).
    """
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    poly = _descend(r, Slope(0, 1), Slope(1, 1), TracePolynomial.variable((1, 0)),
                    TracePolynomial.variable((0, 1)), TracePolynomial.zero())
    return _check_sign_symmetry(poly, r)


def _descend(s: Slope, lo: Slope, hi: Slope, phi_lo, phi_hi, phi_opp, seen=None):
    """phi(s) for s strictly between the Farey neighbours lo < hi, by the
    edge relation phi(med) = phi(lo) phi(hi) - phi(opp) down the mediant
    descent, where opp is the third vertex of the triangle on <lo, hi>
    away from s.  The values are complex numbers or ``TracePolynomial``s;
    every mediant's value goes into the dict ``seen`` when one is given.
    """
    while True:
        med = lo.mediant(hi)
        phi_med = phi_lo * phi_hi - phi_opp
        if seen is not None:
            seen[med] = phi_med
        if med == s:
            return phi_med
        if s < med:
            hi, phi_opp, phi_hi = med, phi_hi, phi_med
        else:
            lo, phi_opp, phi_lo = med, phi_lo, phi_med


def _check_sign_symmetry(poly: TracePolynomial, r) -> TracePolynomial:
    """``poly``, after checking that its nonzero coefficients all sit at even
    or all at odd powers of x; InternalError otherwise.

    x -> -x is a sign-change automorphism of the normalised Markoff map: it
    sends the triple (0, x, ix) to (0, -x, -ix), and by the edge relation
    every phi(s) to +-phi(s) (Goldman, Geom. Topol. 7 (2003)).  So
    P(-x) = +-P(x), that is P(x) = x^k Q(x^2), and ``polynomial_roots``
    finds the roots of P in y = x^2, at half the degree.
    """
    if len({k % 2 for k, c in enumerate(poly.coeffs) if c != (0, 0)}) > 1:
        raise InternalError("trace polynomial of %s mixes even and odd powers "
                            "of x: %s" % (r, poly))
    return poly


# ---------------------------------------------------------------------------
# Root finding
#
# Double-precision Aberth-Ehrlich iteration finds the roots of the
# squarefree part, and Newton's method in fixed-point Gaussian integers
# polishes each one against the exact Z[i] coefficients (``_polish_exact``).
# The squarefree part is P itself when P's image over GF(_P) is coprime to
# its derivative (``_squarefree_mod_p``); otherwise it is P / gcd(P, P'),
# computed exactly over Q(i).  An even P(x) = Q(x^2), as every trace
# polynomial is once its factor x^k is taken out, goes through all of this
# as Q, in y = x^2 (``_nonzero_roots``).
#
# The polished roots z_1..z_n of the squarefree part are then certified by
# their inclusion disks, centred at z_i with radius
# r_i = n |P(z_i)| / |a_n prod_{j != i} (z_i - z_j)|.  The union of the
# disks holds every root, and a connected union of m disks holds exactly m
# of them (Neumaier, "Enclosing clusters of zeros of polynomials",
# J. Comput. Appl. Math. 156 (2003)), so pairwise disjoint disks hold one
# root each (``_overlapping_disks``).  Where the disks overlap, or Aberth
# does not converge, the double approximations are refined in the same
# fixed-point arithmetic (``_refined_roots``): Gauss-Seidel Aberth sweeps
# on all roots, then a wider Newton polish of each, doubling the width
# until the disks of the rounded roots separate.  This is the precision
# escalation of MPSolve (Bini-Fiorentino, Numer. Algorithms 23 (2000)),
# run in Python integers.

# A fixed-point value is w = (A + iB) / 2**f with Python ints A, B.  The
# polish of a double root runs at f = _FIX_BITS, about 48 decimal digits
# below the point.  Truncation in the Horner pass leaves noise in the low
# bits of a root, about sqrt(2) sum_{k<n} |w|^k / |P'(w)| units: at most
# 2**31 on the trace polynomials with p <= 40, and up to 2**44 on those
# with 41 <= p <= 64 whose roots need the refinement.  So A and B are
# rounded to multiples of 2**(f/4), 40 bits at f = 160 and 64 at the
# refinement's 256, before the final rounding: a vanishing component, or
# an exact root such as x = 1, then comes out exact.
_FIX_BITS = 160
_POLISH_ROUNDS = 6

# The refinement's Aberth sweeps start at _REFINE_BITS, and its Newton
# polish runs _REFINE_EXTRA_BITS wider, so that a component far below the
# other (down to 1e-35 on the trace polynomials with p <= 64) still keeps
# more than a double's 53 bits.  The sweep width doubles while it stays
# within _MAX_REFINE_BITS, about 400 decimal digits.
_REFINE_BITS = 192
_REFINE_EXTRA_BITS = 64
_MAX_REFINE_BITS = 1330

# rounds after which Aberth gives up and the roots are refined
_ABERTH_ROUNDS = 1000
# unit roundoff of a double
_UNIT = 2.0 ** -53

# _P = 2**64 - 59 is prime and _P = 5 (mod 8), so 2 is a quadratic
# non-residue and 2**((_P - 1) / 4) is a square root of -1: i -> _I_MOD_P
# is a ring map from Z[i] onto GF(_P).
_P = 2 ** 64 - 59
_I_MOD_P = pow(2, (_P - 1) // 4, _P)


def _horner(coeffs, sizes, x):
    """(P(x), P'(x), sum |c_k| |x|^k) in double precision for the complex
    coeffs and their moduli ``sizes``, both in descending order."""
    p = dp = 0j
    ax = abs(x)
    size = 0.0
    for c, a in zip(coeffs, sizes):
        dp = dp * x + p
        p = p * x + c
        size = size * ax + a
    return p, dp, size


def _circle_start(coeffs):
    """Aberth's n starting points, on the circle whose radius is the
    geometric mean of bounds above and below on the moduli of the roots;
    ``coeffs`` ascending, constant and leading coefficient nonzero."""
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    upper = 1 + max(abs(c) for c in monic[:-1])
    low_rest = max(abs(c) for c in monic[1:])
    lower = abs(monic[0]) / (abs(monic[0]) + low_rest) if low_rest else 1.0
    radius = (upper * lower) ** 0.5
    return [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4))
            for k in range(n)]


def _aberth(coeffs):
    """Simultaneous root iteration in double precision from
    ``_circle_start``; ``coeffs`` complex, ascending, constant and leading
    coefficient nonzero.

    The iteration stops after the first round that starts with every
    |P(z_i)| <= eps * sum |c_k| |z_i|^k, the size of the rounding error of
    the Horner value itself, and returns (roots, converged).
    """
    eps = 1e-14
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in reversed(coeffs)]
    sizes = [abs(c) for c in monic]
    z = _circle_start(coeffs)
    for _ in range(_ABERTH_ROUNDS):
        converged = True
        for i in range(n):
            zi = z[i]
            p, dp, size = _horner(monic, sizes, zi)
            if abs(p) > eps * size:
                converged = False
            if p == 0:
                continue
            if dp == 0:
                z[i] = zi + eps * (1 + abs(zi))
                continue
            ratio = p / dp
            s = 0j
            for j in range(n):
                if j != i:
                    diff = zi - z[j]
                    if diff == 0:
                        diff = eps * (1 + abs(zi))
                    s = s + 1 / diff
            denom = 1 - ratio * s
            z[i] = zi - (ratio if denom == 0 else ratio / denom)
        if converged:
            return z, True
    return z, False


def polynomial_roots(poly: TracePolynomial):
    """All complex roots with multiplicity.

    Multiplicities are exact: the roots found numerically are those of the
    squarefree part P / gcd(P, P'), and the roots of the gcd, found the same
    way, repeat their nearest squarefree root.  Equal roots are therefore
    equal floats, so each root class appears once among the distinct values.
    A test over GF(2**64 - 59) proves most trace polynomials squarefree
    (see ``_squarefree_mod_p``), and P is then its own squarefree part; the
    others run the exact Euclid over the Gaussian rationals.

    Each double Aberth root is polished by Newton's method in 160-bit fixed
    point against the exact coefficients before it is rounded to a complex,
    so a root such as x = 1 comes out exact and a real root has imaginary
    part 0.  The roots of each squarefree part are certified: their
    inclusion disks are pairwise disjoint, so each holds exactly one root
    and no root is missed or found twice.  Where the double roots cannot be
    certified, fixed-point Aberth sweeps refine them from 192 bits, doubling
    the width as certification needs, and a RootFindingError naming the
    overlapping roots is raised past _MAX_REFINE_BITS (about 400 digits).
    As a last safety check every returned root is finite and satisfies
    |P(root)| <= 1e-10 * max|coeff| * (1+|root|)^deg, otherwise a
    RootFindingError carrying the partial results is raised.

    An even P(x) / x^k = Q(x^2), as every trace polynomial gives (see
    ``trace_polynomial``), is solved in y = x^2 at half the degree: the
    squarefree test, the exact gcd, Aberth, the certification and any
    refinement all run on Q, and each root y is polished against Q.  Then
    x = sqrt(y) is polished once against P / x^k, at the width the y were
    polished at.  The roots come in pairs x, -x, with x the sign class
    representative (Re x > 0, ties broken by Im x > 0) and -x its exact
    negation, which is correctly rounded too.
    """
    if poly.degree < 1:
        raise DomainError("root finding needs degree >= 1")
    k = poly.content_power_of_x()
    roots = [0j] * k + _nonzero_roots(poly.shift_down(k))
    bad = [z for z in roots if not _residual_ok(poly, z)]
    if bad:
        raise RootFindingError(
            "residual check failed for %d of %d roots" % (len(bad), len(roots)),
            partial_roots=roots,
        )
    return roots


def _residual_ok(poly: TracePolynomial, z) -> bool:
    """z is finite and |P(z)| is within ``residual_bound``."""
    z = complex(z)
    return cmath.isfinite(z) and abs(poly(z)) <= residual_bound(poly, z)


def _nonzero_roots(poly: TracePolynomial):
    """Roots with multiplicity of a polynomial with nonzero constant term;
    an even one in y = x^2, its roots in sign pairs (``polynomial_roots``)."""
    if poly.degree < 1:
        return []
    even = all(c == (0, 0) for c in poly.coeffs[1::2])
    base = TracePolynomial(poly.coeffs[::2]) if even else poly
    if _squarefree_mod_p(base):
        square_free, repeated = base, []
    else:
        exact = _exact_coeffs(base)
        gcd = _gcd(exact, _exact_coeffs(base.derivative()))
        square_free = _integral(_divmod_monic(exact, gcd)[0])
        repeated = _nonzero_roots(_integral(gcd))
    simple, f = _certified_roots(square_free)
    roots = simple + [min(simple, key=lambda z: abs(z - w)) for w in repeated]
    if not even:
        return roots
    pairs = {}
    for y in simple:
        x = _polish_exact(poly, cmath.sqrt(y), f)
        x = max(x, -x, key=_representative_key)
        # + 0j turns the -0.0 parts of a negation into +0.0
        pairs[y] = (x + 0j, -x + 0j)
    return [x for y in roots for x in pairs[y]]


# Arithmetic in GF(_P)[x]: ascending lists of residues.


def _squarefree_mod_p(poly: TracePolynomial) -> bool:
    """True when P is proved squarefree by its image over GF(_P).

    If i -> _I_MOD_P keeps the leading coefficient and the image is coprime
    to its derivative, the image's discriminant is nonzero.  It is the image
    of disc(P), so disc(P) != 0 and gcd(P, P') = 1 over Q(i).  False says
    only that the test cannot decide: P has a repeated factor, or _P
    divides disc(P) or the leading coefficient.
    """
    a = [(re + im * _I_MOD_P) % _P for re, im in poly.coeffs]
    if a[-1] == 0:
        return False
    b = [k * c % _P for k, c in enumerate(a)][1:]  # deg P < _P: degree kept
    while b:
        a, b = b, _rem_mod_p(a, b)
    return len(a) == 1


def _rem_mod_p(a, b):
    """Remainder of a by b, whose leading residue is nonzero."""
    a = list(a)
    n = len(b) - 1
    inverse = pow(b[-1], -1, _P)
    for k in range(len(a) - 1, n - 1, -1):
        q = a[k] * inverse % _P
        if q:
            for i, c in enumerate(b):
                a[k - n + i] = (a[k - n + i] - q * c) % _P
    del a[n:]
    while a and a[-1] == 0:
        a.pop()
    return a


# Exact arithmetic in Q(i)[x]: coefficients are (re, im) pairs of Fractions,
# in ascending order with a nonzero leading pair.


def _exact_coeffs(poly: TracePolynomial):
    return [(Fraction(a), Fraction(b)) for a, b in poly.coeffs]


def _gauss_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _monic(a):
    re, im = a[-1]
    norm = re * re + im * im
    inverse = (re / norm, -im / norm)
    return [_gauss_mul(c, inverse) for c in a]


def _divmod_monic(a, b):
    """Quotient and remainder of a by the monic b."""
    a = list(a)
    quotient = [(0, 0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        lead = a[k + len(b) - 1]
        quotient[k] = lead
        for i, c in enumerate(b):
            t = _gauss_mul(lead, c)
            a[k + i] = (a[k + i][0] - t[0], a[k + i][1] - t[1])
    remainder = a[:len(b) - 1]
    while remainder and remainder[-1] == (0, 0):
        remainder.pop()
    return quotient, remainder


def _gcd(a, b):
    """The monic gcd."""
    while b:
        b = _monic(b)
        a, b = b, _divmod_monic(a, b)[1]
    return _monic(a)


def _integral(a) -> TracePolynomial:
    """The Z[i] polynomial lcm(denominators) * a."""
    scale = 1
    for re, im in a:
        scale = math.lcm(scale, re.denominator, im.denominator)
    return TracePolynomial([(re * scale, im * scale) for re, im in a])


def _to_fixed(x: float, f: int) -> int:
    """floor(x * 2**f), exactly."""
    num, den = x.as_integer_ratio()
    return (num << f) // den


def _fixed_coeffs(poly: TracePolynomial, f: int):
    """The Z[i] coefficients at scale 2**f, in descending order."""
    return [(re << f, im << f) for re, im in reversed(poly.coeffs)]


def _fixed_horner(coeffs, a, b, f):
    """(Re P(w), Im P(w), Re P'(w), Im P'(w)) at w = (a + ib) / 2**f, all at
    scale 2**f, for ``_fixed_coeffs(P, f)``; each product is truncated."""
    p_re, p_im = coeffs[0]
    d_re = d_im = 0
    for c_re, c_im in coeffs[1:]:
        d_re, d_im = (((d_re * a - d_im * b) >> f) + p_re,
                      ((d_re * b + d_im * a) >> f) + p_im)
        p_re, p_im = (((p_re * a - p_im * b) >> f) + c_re,
                      ((p_re * b + p_im * a) >> f) + c_im)
    return p_re, p_im, d_re, d_im


def _fixed_quotient(u_re, u_im, v_re, v_im, f):
    """u / v at scale 2**f, for u, v at one scale and v != 0:
    u conj(v) / |v|^2, floored."""
    norm = v_re * v_re + v_im * v_im
    return (((u_re * v_re + u_im * v_im) << f) // norm,
            ((u_im * v_re - u_re * v_im) << f) // norm)


def _newton_fixed(coeffs, a, b, f):
    """Newton's method on w = (a + ib) / 2**f for ``_fixed_coeffs(P, f)``.

    The iteration stops at P'(w) = 0, after _POLISH_ROUNDS steps, or once a
    step is at most 2**(-f/2) |w|, past which Newton's quadratic
    convergence leaves nothing above the scale.
    """
    for _ in range(_POLISH_ROUNDS):
        p_re, p_im, d_re, d_im = _fixed_horner(coeffs, a, b, f)
        if d_re == 0 and d_im == 0:
            break
        step_re, step_im = _fixed_quotient(p_re, p_im, d_re, d_im, f)
        a -= step_re
        b -= step_im
        if (step_re * step_re + step_im * step_im) << f <= a * a + b * b:
            break
    return a, b


def _round_fixed(a, b, f) -> complex:
    """(a + ib) / 2**f rounded to a multiple of 2**(f/4 - f) and then once
    to a complex (int true division is correctly rounded)."""
    drop = f // 4
    half = 1 << (drop - 1)
    kept = 1 << (f - drop)
    return complex(((a + half) >> drop) / kept, ((b + half) >> drop) / kept)


def _polish_exact(poly: TracePolynomial, z: complex, f: int = _FIX_BITS) -> complex:
    """Newton refinement of z in fixed point at scale 2**f against the
    exact Z[i] coefficients, rounded by ``_round_fixed``.

    The double-precision Aberth roots carry enough error at higher degrees
    to blur the +-2 parabolic traces of the exceptional slopes.  A
    non-finite z is returned unchanged, for the residual check to reject.
    """
    if not cmath.isfinite(z):
        return z
    a, b = _newton_fixed(_fixed_coeffs(poly, f), _to_fixed(z.real, f),
                         _to_fixed(z.imag, f), f)
    return _round_fixed(a, b, f)


def _certified_roots(poly: TracePolynomial):
    """(roots, f): the roots of a squarefree P with nonzero constant term,
    certified by pairwise disjoint inclusion disks, and the fixed-point
    scale 2**f they were polished at.

    The double Aberth roots are polished at f = _FIX_BITS.  Only where
    Aberth does not converge or their disks overlap are they refined
    (``_refined_roots``).
    """
    z, converged = _aberth([complex(a, b) for a, b in poly.coeffs])
    if converged:
        roots = [_polish_exact(poly, zi) for zi in z]
        if not _overlapping_disks(poly, roots):
            return roots, _FIX_BITS
    return _refined_roots(poly, z)


def _refined_roots(poly: TracePolynomial, z):
    """(roots, f) for a squarefree P with nonzero constant term from its
    double approximations z, as ``_certified_roots`` returns them.

    Gauss-Seidel Aberth sweeps (``_aberth_fixed``) refine all of z at scale
    2**_REFINE_BITS; a non-finite approximation restarts from its point of
    ``_circle_start``.  Each root is then polished by Newton's method
    _REFINE_EXTRA_BITS wider, at scale 2**f, and rounded as
    ``_polish_exact`` rounds.  While the disks of the rounded roots overlap
    the sweep width doubles, from the sweeps' last values; past
    _MAX_REFINE_BITS a RootFindingError names the roots whose disks still
    overlap.
    """
    start = _circle_start([complex(a, b) for a, b in poly.coeffs])
    bits = _REFINE_BITS
    w = []
    for zi, s0 in zip(z, start):
        zi = zi if cmath.isfinite(zi) else s0
        w.append((_to_fixed(zi.real, bits), _to_fixed(zi.imag, bits)))
    while True:
        w = _aberth_fixed(_fixed_coeffs(poly, bits), w, bits)
        f = bits + _REFINE_EXTRA_BITS
        coeffs = _fixed_coeffs(poly, f)
        roots = [_round_fixed(*_newton_fixed(coeffs, a << _REFINE_EXTRA_BITS,
                                             b << _REFINE_EXTRA_BITS, f), f)
                 for a, b in w]
        overlaps = _overlapping_disks(poly, roots)
        if not overlaps:
            return roots, f
        if 2 * bits > _MAX_REFINE_BITS:
            raise RootFindingError(
                "inclusion disks overlap at %d bits: %s" % (f, ", ".join(
                    "%s and %s" % (format(roots[i], ".6g"), format(roots[j], ".6g"))
                    for i, j in overlaps)),
                partial_roots=roots)
        w = [(a << bits, b << bits) for a, b in w]
        bits *= 2


def _aberth_fixed(coeffs, w, f):
    """Gauss-Seidel Aberth sweeps on the roots w_i = (a_i + ib_i) / 2**f of
    P, for ``_fixed_coeffs(P, f)``: w_i -= P(w_i) / (P'(w_i) - P(w_i) s_i)
    with s_i the sum of 1 / (w_i - w_j) over the w_j other than w_i itself
    (and any equal to it).

    The sweeps stop after the first one in which every step is at most
    2**(-3f/8) |w_i|, half the bits ``_round_fixed`` keeps, or after
    _ABERTH_ROUNDS of them; past that bound the Newton polish finishes.
    """
    w = list(w)
    tol = f - f // 4
    for _ in range(_ABERTH_ROUNDS):
        converged = True
        for i, (a, b) in enumerate(w):
            p_re, p_im, d_re, d_im = _fixed_horner(coeffs, a, b, f)
            s_re = s_im = 0
            for c, d in w:
                e_re, e_im = a - c, b - d
                norm = e_re * e_re + e_im * e_im
                if norm:  # 1 / e at scale 2**f
                    s_re += (e_re << 2 * f) // norm
                    s_im -= (e_im << 2 * f) // norm
            den_re = d_re - ((p_re * s_re - p_im * s_im) >> f)
            den_im = d_im - ((p_re * s_im + p_im * s_re) >> f)
            if den_re == 0 and den_im == 0:
                continue
            step_re, step_im = _fixed_quotient(p_re, p_im, den_re, den_im, f)
            a -= step_re
            b -= step_im
            w[i] = (a, b)
            if (step_re * step_re + step_im * step_im) << tol > a * a + b * b:
                converged = False
        if converged:
            break
    return w


def _overlapping_disks(poly: TracePolynomial, z):
    """Index pairs (i, j), i < j, whose inclusion disks meet.

    |P(z_i)| is bounded first by its double Horner value plus the rounding
    error of that value, at most 8 (n + 1) u sum |c_k| |z_i|^k with
    u = 2**-53 (the rounding of the coefficients included).  Only a root
    whose disk then meets another gets the exact bound of
    ``_exact_residual``.  A non-finite or repeated z_i meets every disk.
    """
    n = len(z)
    coeffs = [complex(a, b) for a, b in reversed(poly.coeffs)]
    sizes = [abs(c) for c in coeffs]
    bounds = []
    for zi in z:
        p, _, size = _horner(coeffs, sizes, zi)
        bounds.append(abs(p) + 8 * (n + 1) * _UNIT * size)
    pairs = _meeting_pairs(sizes[0], z, bounds)
    if pairs:
        for i in {i for pair in pairs for i in pair}:
            if cmath.isfinite(z[i]):
                bounds[i] = _exact_residual(poly, z[i])
        pairs = _meeting_pairs(sizes[0], z, bounds)
    return pairs


def _meeting_pairs(lead, z, bounds):
    """Pairs whose disks meet, with radii n bounds[i] / |lead prod (z_i - z_j)|
    enlarged by 8 (n + 2) u for the rounding of the product and of the
    distances."""
    n = len(z)
    dist = [[abs(a - b) for b in z] for a in z]
    scale = n * (1 + 8 * (n + 2) * _UNIT)
    radii = []
    for i, row in enumerate(dist):
        denom = lead * math.prod(row[:i]) * math.prod(row[i + 1:])
        radii.append(scale * bounds[i] / denom if denom > 0 else math.inf)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if not radii[i] + radii[j] < dist[i][j]]


def _exact_residual(poly: TracePolynomial, z: complex) -> float:
    """|P(z)| rounded up, exactly: z is dyadic, (A + iB) / 2**e, so
    2**(e n) P(z) is a Gaussian integer, found by one Horner pass."""
    (a, den_a), (b, den_b) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    e_a, e_b = den_a.bit_length() - 1, den_b.bit_length() - 1
    e = max(e_a, e_b)
    a <<= e - e_a
    b <<= e - e_b
    g_re, g_im = poly.coeffs[-1]
    shift = 0
    for c_re, c_im in reversed(poly.coeffs[:-1]):
        shift += e
        g_re, g_im = (g_re * a - g_im * b + (c_re << shift),
                      g_re * b + g_im * a + (c_im << shift))
    norm = g_re * g_re + g_im * g_im
    root = math.isqrt(norm)
    return (root + (root * root < norm)) / (1 << shift)


# ---------------------------------------------------------------------------
# Numeric Markoff maps


_INT_PHI_PATTERN = (1 + 0j, 1j, -1 - 0j, -1j)  # phi(m)/x for integer m mod 4


class MarkoffEvaluation:
    """A root x* of the trace polynomial together with the memoised Markoff
    map it generates: phi(inf) = 0, phi(0) = x*, phi(1) = i x*.

    phi(s) is computed by the canonical mediant walk from <0,1,inf> and every
    intermediate slope is cached.  ``edges`` is r's boundary edge system
    (``mcshane.boundary_edge_sets(r)``), which holds r's Farey chain:
    ``select_geometric_root`` gives every candidate the one it builds.
    ``finite_sums`` keeps the pair of finite edge sums
    (``mcshane.finite_edge_sums``) once computed, so one request computes
    each once.
    """

    def __init__(self, r: Slope, root: complex, edges):
        self.r = r
        self.root = complex(root)
        self.edges = edges
        self._cache = {INFINITY: 0j, Slope(0, 1): self.root, Slope(1, 1): 1j * self.root}
        self.selection = None
        self.finite_sums = None

    def phi(self, s: Slope) -> complex:
        cached = self._cache.get(s)
        if cached is not None:
            return cached
        x = self.root
        if s.den == 1:
            val = _INT_PHI_PATTERN[s.num % 4] * x
            self._cache[s] = val
            return val
        m = s.num // s.den
        lo, hi = Slope(m, 1), Slope(m + 1, 1)
        # the third vertex of <m, m+1> away from s is inf, with phi(inf) = 0
        return _descend(s, lo, hi, self.phi(lo), self.phi(hi), 0j, self._cache)

    def __repr__(self):
        return "MarkoffEvaluation(r=%s, root=%r)" % (self.r, self.root)


def translation_length(phi_s: complex) -> complex:
    """l with 2 cosh(l/2) = +-phi_s (the sign is immaterial mod 2 pi i),
    Re l >= 0 and Im l in (-pi, pi].

    0 on a trace that ``kernels`` classes as parabolic; a trace that it
    classes as elliptic raises EllipticTraceError.
    """
    phi_s = complex(phi_s)
    if kernels._near_parabolic(phi_s):
        return 0j
    if kernels._is_elliptic(phi_s):
        raise EllipticTraceError("trace %r lies in (-2, 2)" % (phi_s,))
    l = 2 * cmath.acosh(phi_s / 2)
    if l.real < 0:
        l = -l
    im = l.imag
    while im > math.pi:
        im -= 2 * math.pi
    while im <= -math.pi:
        im += 2 * math.pi
    return complex(l.real, im)


# ---------------------------------------------------------------------------
# Geometric-root selection


@dataclass
class RootCandidateReport:
    root: complex
    passed: bool
    reason: str
    lambda_orbifold: complex | None = None
    census: tuple = ()


@dataclass
class SelectionReport:
    r: Slope
    candidates: list = field(default_factory=list)
    selected: complex | None = None


def _representative_key(z: complex):
    """The sign class representative maximises this: Re > 0, ties broken by
    Im > 0."""
    return (z.real, z.imag)


def _rejection(r: Slope, ev: MarkoffEvaluation):
    """(reason or None, lambda(O) or None, census) for one root class.

    The O(chain) checks run first; only a class that passes them is scanned.
    """
    from . import mcshane  # imported here: mcshane imports this module's types
    from .errors import NotGeometricEvaluationError

    if ev.root == 0:
        return "x = 0 gives the trivial triple", None, ()
    try:
        s1, s2 = mcshane.finite_edge_sums(r, ev, check=False)
    except DomainError as exc:
        return "zero trace: %s" % exc, None, ()
    lam = 2 * s1
    if abs(s1 + s2 + 1) > 1e-8:
        return "edge-sum identity fails by %.3g" % abs(s1 + s2 + 1), lam, ()
    if lam.imag <= 1e-12:
        return "Im lambda(O) <= 0", lam, ()
    try:
        census = mcshane.census_scan(ev)
    except NotGeometricEvaluationError as exc:
        return str(exc), lam, ()
    return None, lam, tuple(sorted(census, key=str))


def select_geometric_root(roots, r: Slope) -> MarkoffEvaluation:
    """Filter trace-polynomial roots down to the holonomy trace.

    The roots are grouped into sign classes {x, -x}, which give the same
    traces up to sign.  ``polynomial_roots`` gives each class as a root x
    and its exact negation, and equal roots as equal floats, so each class
    is judged once, with no tolerance, at its representative (Re x > 0,
    ties broken by Im x > 0).  A class is rejected by the first of these
    checks it fails, cheapest first:

    1. x = 0 (the trivial triple);
    2. a zero trace on the chain, where the edge sums are undefined;
    3. the finite edge-sum identity S1 + S2 = -1, to 1e-8;
    4. Im lambda(O) > 0, which picks one of each conjugate pair;
    5. the census scan of I1 u I2 (see ``mcshane.census_scan``): no real
       trace in (-2, 2) and at most 64 slopes with |phi| <= 2.  The scan
       explores I1 u I2 as the series does, parabolic fans included, and
       has no depth limit: it prunes each cell whose traces provably stay
       above 2 (``kernels``), which ends it on a geometric class, and it
       stops as soon as its census passes 64.  Its one node budget is
       ``kernels.NODE_BUDGET``, spent over all of its edges.  On the
       slopes with p <= 64, 9 250 classes end at the census cap after at
       most 5 841 nodes, and the 1 134 that pass take at most 1 404.

    Exactly one class must pass all five, and it is selected.  If none
    passes, NoGeometricRootError is raised; if more than one does,
    AmbiguousGeometricRootError, which names their roots.

    r's boundary edge system, and with it r's Farey chain, is built here
    once and given to every candidate's constructor.  The evaluation
    returned is the one the checks ran on, so it keeps that edge system and
    the finite edge sums of step 3.

    Every candidate's report gives the reason it was rejected; the
    selection report is attached to the returned evaluation and to the
    NoGeometricRootError or AmbiguousGeometricRootError raised otherwise.
    """
    from . import mcshane

    report = SelectionReport(r=r)
    # -x is the exact negation of x; + 0j turns -0.0 parts into +0.0
    classes = list(dict.fromkeys(
        max(z, -z, key=_representative_key) + 0j for z in map(complex, roots)))

    edges = mcshane.boundary_edge_sets(r)
    survivors = []
    for rep in classes:
        ev = MarkoffEvaluation(r, rep, edges)
        reason, lam, census = _rejection(r, ev)
        report.candidates.append(RootCandidateReport(
            rep, reason is None, reason or "passed", lambda_orbifold=lam,
            census=census))
        if reason is None:
            survivors.append(ev)

    if len(survivors) > 1:
        raise AmbiguousGeometricRootError(
            "more than one root class survives for %s: %s" % (
                r, ", ".join(repr(ev.root) for ev in survivors)),
            report=report,
        )
    if not survivors:
        raise NoGeometricRootError(
            "no geometric root found for %s: %s" % (
                r, "; ".join("%s: %s" % (format(c.root, ".6g"), c.reason)
                      for c in report.candidates)),
            report=report,
        )

    [ev] = survivors
    report.selected = ev.root
    ev.selection = report
    return ev


def geometric_evaluation(r: Slope) -> MarkoffEvaluation:
    """Full pipeline polynomial -> roots -> geometric root; r's Farey chain
    is built once, with its edge system, by the root selection."""
    return select_geometric_root(polynomial_roots(trace_polynomial(r)), r)
