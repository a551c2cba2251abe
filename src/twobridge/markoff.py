"""Markoff triples, symbolic trace polynomials, root finding and the
selection of the geometric root.

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

import mpmath

from .errors import (
    AmbiguousGeometricRootError,
    DomainError,
    EllipticTraceError,
    NoGeometricRootError,
    NonHyperbolicError,
    RootFindingError,
)
from .slopes import (
    INFINITY,
    ContinuedFraction,
    FareyChain,
    Slope,
    farey_chain,
    is_hyperbolic,
)

__all__ = [
    "MarkoffTriple",
    "edge_flip",
    "TracePolynomial",
    "trace_polynomial",
    "polynomial_roots",
    "MarkoffEvaluation",
    "select_geometric_root",
    "geometric_evaluation",
    "ComplexLength",
    "translation_length",
]

MARKOFF_TOL = 1e-10


@dataclass(frozen=True)
class MarkoffTriple:
    """Traces at the three vertices of a Farey triangle, in vertex order."""

    x: complex
    y: complex
    z: complex

    def equation_residual(self):
        x, y, z = self.x, self.y, self.z
        scale = max(1.0, abs(x), abs(y), abs(z)) ** 3
        return abs(x * x + y * y + z * z - x * y * z) / scale

    def is_valid(self, tol=MARKOFF_TOL):
        if self.x == 0 and self.y == 0 and self.z == 0:
            return False
        return self.equation_residual() <= tol

    def coords(self):
        return (self.x, self.y, self.z)


def edge_flip(t: MarkoffTriple, vertex_index: int) -> MarkoffTriple:
    """Replace one coordinate w by (product of the other two) - w."""
    x, y, z = t.coords()
    if vertex_index == 0:
        return MarkoffTriple(y * z - x, y, z)
    if vertex_index == 1:
        return MarkoffTriple(x, x * z - y, z)
    if vertex_index == 2:
        return MarkoffTriple(x, y, x * y - z)
    raise DomainError("vertex_index must be 0, 1 or 2")


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

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [(0, 0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [(0, 0)] * (n - len(other.coeffs))
        return TracePolynomial([(p[0] + q[0], p[1] + q[1]) for p, q in zip(a, b)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [(0, 0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [(0, 0)] * (n - len(other.coeffs))
        return TracePolynomial([(p[0] - q[0], p[1] - q[1]) for p, q in zip(a, b)])

    def __neg__(self):
        return TracePolynomial([(-a, -b) for a, b in self.coeffs])

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

    def to_json(self):
        return [[a, b] for a, b in self.coeffs]

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


def trace_polynomial(r: Slope, chain: FareyChain | None = None) -> TracePolynomial:
    """phi(r) as a polynomial in x = phi(0), from the symbolic edge relation
    pushed along the Farey chain with (phi(inf), phi(0), phi(1)) = (0, x, ix).
    """
    if chain is None:
        if not is_hyperbolic(r):
            raise NonHyperbolicError(r)
        chain = farey_chain(r)
    x = TracePolynomial.variable((1, 0))
    ix = TracePolynomial.variable((0, 1))
    values = {INFINITY: TracePolynomial.zero(), Slope(0, 1): x, Slope(1, 1): ix}
    current = dict(values)  # slope -> poly on the current triangle
    for i in range(1, len(chain.triangles)):
        tri = chain.triangles[i]
        prev = chain.triangles[i - 1]
        fresh = chain.new_vertex(i)
        dropped = next(v for v in prev.vertices if v not in tri.vertices)
        kept = [v for v in tri.vertices if v != fresh]
        current = {
            kept[0]: current[kept[0]],
            kept[1]: current[kept[1]],
            fresh: current[kept[0]] * current[kept[1]] - current[dropped],
        }
    return current[r]


# ---------------------------------------------------------------------------
# Root finding
#
# Double-precision Aberth-Ehrlich iteration finds the roots of the
# squarefree part, and Newton's method in fixed-point Gaussian integers
# polishes each one against the exact Z[i] coefficients (``_polish_exact``).
# The squarefree part is P itself when P's image over GF(_P) is coprime to
# its derivative (``_squarefree_mod_p``); otherwise it is P / gcd(P, P'),
# computed exactly over Q(i).  Squarefree parts of degree above 60, and
# precision="extended", use mpmath Aberth and Newton (``_roots_extended``).

# The polish holds w as (A + iB) / 2**_FIX_BITS, about 48 decimal digits
# below the point.  Truncation in the Horner pass leaves noise in the low
# bits, so A and B are rounded to multiples of 2**(_FIX_BITS - _KEPT_BITS)
# before the final rounding: a vanishing component, or an exact root such
# as x = 1, then comes out exact.
_FIX_BITS = 160
_KEPT_BITS = 120
_POLISH_ROUNDS = 6

# _P = 2**64 - 59 is prime and _P = 5 (mod 8), so 2 is a quadratic
# non-residue and 2**((_P - 1) / 4) is a square root of -1: i -> _I_MOD_P
# is a ring map from Z[i] onto GF(_P).
_P = 2 ** 64 - 59
_I_MOD_P = pow(2, (_P - 1) // 4, _P)


def _horner_pair(coeffs, x):
    """(P(x), P'(x)) for ascending complex coeffs."""
    p = 0 * x
    dp = 0 * x
    for c in reversed(coeffs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _aberth(coeffs, one, pi_val, exp_func, max_iter=1000, eps=None):
    """Simultaneous root iteration; ``coeffs`` ascending, constant and
    leading coefficient nonzero.  Generic over complex/mpc via ``one``."""
    n = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    upper = 1 + max(abs(c) for c in monic[:-1])
    low_rest = max(abs(c) for c in monic[1:])
    lower = abs(monic[0]) / (abs(monic[0]) + low_rest) if low_rest else 1.0
    radius = (upper * lower) ** 0.5
    if eps is None:
        eps = 1e-14

    z = [
        one * radius * exp_func(1j * (2 * pi_val * k / n + 0.4))
        for k in range(n)
    ]
    prev_step = float("inf")
    for _ in range(max_iter):
        max_step = 0.0
        for i in range(n):
            p, dp = _horner_pair(monic, z[i])
            if p == 0:
                continue
            if dp == 0:
                z[i] = z[i] + eps * (1 + abs(z[i]))
                max_step = float("inf")
                continue
            ratio = p / dp
            s = 0 * z[i]
            for j in range(n):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = eps * (1 + abs(z[i]))
                    s = s + 1 / diff
            denom = 1 - ratio * s
            w = ratio if denom == 0 else ratio / denom
            z[i] = z[i] - w
            step = abs(w) / (1 + abs(z[i]))
            if step > max_step:
                max_step = float(step)
        if max_step < eps:
            return z, True
        if max_step < 1e-11 and max_step >= 0.5 * prev_step:
            # stagnating at rounding level; the Newton polish finishes the job
            return z, True
        prev_step = max_step
    return z, False


def _polish(coeffs, z, rounds=4):
    for _ in range(rounds):
        p, dp = _horner_pair(coeffs, z)
        if dp == 0:
            return z
        step = p / dp
        if abs(step) > 0.5 * (1 + abs(z)):
            return z
        z = z - step
    return z


def polynomial_roots(poly: TracePolynomial, precision: str = "double"):
    """All complex roots with multiplicity.

    Multiplicities are exact: the roots found numerically are those of the
    squarefree part P / gcd(P, P'), and the roots of the gcd, found the same
    way, repeat their nearest squarefree root.  Equal roots are therefore
    equal floats, so each root class appears once among the distinct values.
    A test over GF(2**64 - 59) proves most trace polynomials squarefree
    (see ``_squarefree_mod_p``), and P is then its own squarefree part; the
    others run the exact Euclid over the Gaussian rationals.

    ``precision`` is "double" or "extended"; squarefree parts of degree
    above 60 switch to extended (mpmath) arithmetic automatically.  In
    double precision each Aberth root is polished by Newton's method in
    160-bit fixed point against the exact coefficients before it is rounded
    to a complex, so a root such as x = 1 comes out exact and a real root
    has imaginary part 0.  Every returned root is finite and
    satisfies |P(root)| <= 1e-10 * max|coeff| * (1+|root|)^deg, otherwise a
    RootFindingError carrying the partial results is raised.
    """
    if poly.degree < 1:
        raise DomainError("root finding needs degree >= 1")
    k = poly.content_power_of_x()
    roots = [0j] * k + _nonzero_roots(poly.shift_down(k), precision)
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


def _nonzero_roots(poly: TracePolynomial, precision):
    """Roots with multiplicity of a polynomial with nonzero constant term."""
    if poly.degree < 1:
        return []
    if _squarefree_mod_p(poly):
        square_free, repeated = poly, []
    else:
        exact = _exact_coeffs(poly)
        gcd = _gcd(exact, _exact_coeffs(poly.derivative()))
        square_free = _integral(_divmod_monic(exact, gcd)[0])
        repeated = _nonzero_roots(_integral(gcd), precision)
    if precision == "extended" or square_free.degree > 60:
        simple = _roots_extended(square_free)
    else:
        simple = _roots_double(square_free)
    return simple + [min(simple, key=lambda z: abs(z - w)) for w in repeated]


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


def _to_fixed(x: float) -> int:
    """floor(x * 2**_FIX_BITS), exactly."""
    num, den = x.as_integer_ratio()
    return (num << _FIX_BITS) // den


def _polish_exact(poly: TracePolynomial, z: complex) -> complex:
    """Newton refinement in fixed point against the exact Z[i] coefficients.

    The double-precision Aberth roots carry enough error at higher degrees
    to blur the +-2 parabolic traces of the exceptional slopes.  Here
    w = (A + iB) / 2**_FIX_BITS with Python ints A, B, and one Horner pass
    gives P(w) and P'(w) at the same scale.  The iteration stops at
    P'(w) = 0, after _POLISH_ROUNDS steps, or once a step is at most
    2**-80 |w|, past which Newton's quadratic convergence leaves nothing
    above the scale.  The result is rounded to _KEPT_BITS bits below the
    point and then once to a complex (int true division is correctly
    rounded).  A non-finite z is returned unchanged, for the residual check
    to reject.
    """
    if not cmath.isfinite(z):
        return z
    f = _FIX_BITS
    a, b = _to_fixed(z.real), _to_fixed(z.imag)
    coeffs = [(re << f, im << f) for re, im in reversed(poly.coeffs)]
    for _ in range(_POLISH_ROUNDS):
        p_re, p_im = coeffs[0]
        d_re = d_im = 0
        for c_re, c_im in coeffs[1:]:
            d_re, d_im = (((d_re * a - d_im * b) >> f) + p_re,
                          ((d_re * b + d_im * a) >> f) + p_im)
            p_re, p_im = (((p_re * a - p_im * b) >> f) + c_re,
                          ((p_re * b + p_im * a) >> f) + c_im)
        norm = d_re * d_re + d_im * d_im
        if norm == 0:
            break
        step_re = ((p_re * d_re + p_im * d_im) << f) // norm  # P conj(P') / |P'|^2
        step_im = ((p_im * d_re - p_re * d_im) << f) // norm
        a -= step_re
        b -= step_im
        if (step_re * step_re + step_im * step_im) << f <= a * a + b * b:
            break  # |step| <= 2**(-f/2) |w|
    drop = f - _KEPT_BITS
    half = 1 << (drop - 1)
    return complex(((a + half) >> drop) / (1 << _KEPT_BITS),
                   ((b + half) >> drop) / (1 << _KEPT_BITS))


def _roots_double(poly: TracePolynomial):
    coeffs = [complex(a, b) for a, b in poly.coeffs]
    z, converged = _aberth(coeffs, 1 + 0j, math.pi, cmath.exp)
    z = [_polish_exact(poly, zi) for zi in z]
    if not converged and not all(_residual_ok(poly, zi) for zi in z):
        raise RootFindingError(
            "Aberth iteration did not converge in 1000 rounds",
            partial_roots=z,
        )
    return z


def _roots_extended(poly: TracePolynomial):
    dps = max(30, poly.degree // 2 + 25)
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpc(a, b) for a, b in poly.coeffs]
        one = mpmath.mpc(1, 0)
        z, converged = _aberth(
            coeffs, one, mpmath.pi, mpmath.exp, eps=mpmath.mpf(10) ** (-dps + 6)
        )
        z = [_polish(coeffs, zi, rounds=6) for zi in z]
        if not converged:
            raise RootFindingError(
                "extended-precision Aberth did not converge", partial_roots=z
            )
        return [complex(zi) for zi in z]


# ---------------------------------------------------------------------------
# Numeric Markoff maps


_INT_PHI_PATTERN = (1 + 0j, 1j, -1 - 0j, -1j)  # phi(m)/x for integer m mod 4


class MarkoffEvaluation:
    """A root x* of the trace polynomial together with the memoised Markoff
    map it generates: phi(inf) = 0, phi(0) = x*, phi(1) = i x*.

    phi(s) is computed by the canonical mediant walk from <0,1,inf> and every
    intermediate slope is cached.  Instances may be sealed, after which reads
    are safe to share across threads.  ``edges`` keeps r's boundary edge
    system (``mcshane.EdgeSystem``) once built, so one request builds it once.
    """

    def __init__(self, r: Slope, root: complex, chain: FareyChain | None = None):
        self.r = r
        self.root = complex(root)
        self.chain = chain if chain is not None else farey_chain(r)
        self._cache = {INFINITY: 0j, Slope(0, 1): self.root, Slope(1, 1): 1j * self.root}
        self._sealed = False
        self.selection = None
        self.edges = None

    def seal(self):
        self._sealed = True
        return self

    def _store(self, s, value):
        if self._sealed and s not in self._cache:
            raise DomainError("evaluation is sealed; slope %s not cached" % (s,))
        self._cache[s] = value

    def phi(self, s: Slope) -> complex:
        cached = self._cache.get(s)
        if cached is not None:
            return cached
        x = self.root
        if s.den == 1:
            val = _INT_PHI_PATTERN[s.num % 4] * x
            self._store(s, val)
            return val
        m = s.num // s.den
        lo, hi = Slope(m, 1), Slope(m + 1, 1)
        phi_lo = self.phi(lo)
        phi_hi = self.phi(hi)
        phi_opp = 0j  # opposite vertex of <m, m+1> on the inf side
        while True:
            med = lo.mediant(hi)
            phi_med = phi_lo * phi_hi - phi_opp
            self._store(med, phi_med)
            if med == s:
                return phi_med
            if s < med:
                hi, phi_opp, phi_hi = med, phi_hi, phi_med
            else:
                lo, phi_opp, phi_lo = med, phi_lo, phi_med

    def triple(self, triangle) -> MarkoffTriple:
        a, b, c = triangle.vertices
        return MarkoffTriple(self.phi(a), self.phi(b), self.phi(c))

    def constraint_residual(self) -> float:
        """|phi(r)| for the defining constraint phi(r) = 0."""
        return abs(self.phi(self.r))

    def __repr__(self):
        return "MarkoffEvaluation(r=%s, root=%r)" % (self.r, self.root)


@dataclass(frozen=True)
class ComplexLength:
    """Complex translation length, Re >= 0 and Im normalised to (-pi, pi]."""

    value: complex
    parabolic: bool = False


def translation_length(phi_s: complex) -> ComplexLength:
    """l with 2 cosh(l/2) = +-phi_s (the sign is immaterial mod 2 pi i)."""
    phi_s = complex(phi_s)
    if abs(phi_s - 2) <= 1e-12 or abs(phi_s + 2) <= 1e-12:
        return ComplexLength(0j, parabolic=True)
    if abs(phi_s.imag) <= 1e-13 * (1 + abs(phi_s.real)) and abs(phi_s.real) < 2:
        raise EllipticTraceError("trace %r lies in (-2, 2)" % (phi_s,))
    l = 2 * cmath.acosh(phi_s / 2)
    if l.real < 0:
        l = -l
    im = l.imag
    while im > math.pi:
        im -= 2 * math.pi
    while im <= -math.pi:
        im += 2 * math.pi
    return ComplexLength(complex(l.real, im))


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


def _sign_class_representative(z: complex) -> complex:
    """Canonical element of {z, -z}; conjugates stay distinct."""
    a, b = z, -z
    key = lambda t: (round(t.real, 12), round(t.imag, 12))
    return a if key(a) >= key(b) else b


# Depth of the second census scan; the first stops five levels earlier.
_SCAN_DEPTH = 20


def _rejection(r: Slope, ev: MarkoffEvaluation, edges):
    """(reason or None, lambda(O) or None, census) for one root class.

    The O(chain) checks run first; only a class that passes them is scanned.
    """
    from . import mcshane  # deferred: mcshane imports this module's types
    from .errors import NotGeometricEvaluationError

    if abs(ev.root) <= 1e-12:
        return "x = 0 gives the trivial triple", None, ()
    try:
        s1, s2 = mcshane.finite_edge_sums(r, ev, edges=edges, check=False)
    except DomainError as exc:
        return "zero trace: %s" % exc, None, ()
    lam = 2 * s1
    if abs(s1 + s2 + 1) > 1e-8:
        return "edge-sum identity fails by %.3g" % abs(s1 + s2 + 1), lam, ()
    if lam.imag <= 1e-12:
        return "Im lambda(O) <= 0", lam, ()
    try:
        early = mcshane.census_scan(ev, edges, _SCAN_DEPTH - 5)
        late = mcshane.census_scan(ev, edges, _SCAN_DEPTH)
    except NotGeometricEvaluationError as exc:
        return str(exc), lam, ()
    census = tuple(sorted(late, key=str))
    if early != late:
        return "census still growing at depth %d" % _SCAN_DEPTH, lam, census
    return None, lam, census


def select_geometric_root(roots, r: Slope,
                          chain: FareyChain | None = None) -> MarkoffEvaluation:
    """Filter trace-polynomial roots down to the holonomy trace.

    The roots are grouped into sign classes {x, -x}, which give the same
    traces up to sign; equal roots are equal floats (see
    ``polynomial_roots``), so each class is judged once.  A class is
    rejected by the first of these checks it fails, cheapest first:

    1. x = 0 (the trivial triple);
    2. a zero trace on the chain, where the edge sums are undefined;
    3. the finite edge-sum identity S1 + S2 = -1, to 1e-8;
    4. Im lambda(O) > 0, which picks one of each conjugate pair;
    5. the census scans of I1 u I2 at depths 15 and 20 (see
       ``mcshane.census_scan``): no real trace in (-2, 2), at most 64 slopes
       with |phi| <= 2, the node budget not exhausted, and the census the
       same at both depths.  A scan stops as soon as its census passes 64,
       so a non-geometric class costs a few thousand nodes.

    Every candidate's report gives the reason it was rejected; the
    selection report is attached to the returned evaluation and to the
    NoGeometricRootError or AmbiguousGeometricRootError raised otherwise.
    ``chain`` is r's Farey chain, built here unless the caller has it.
    """
    from . import mcshane

    report = SelectionReport(r=r)
    classes = []
    for z in roots:
        rep = _sign_class_representative(complex(z))
        # x and -x are separate simple roots, equal only up to rounding
        if all(abs(rep - w) > 1e-9 * (1 + abs(w)) for w in classes):
            classes.append(rep)

    edges = mcshane.boundary_edge_sets(r, chain=chain)
    survivors = []
    for rep in classes:
        ev = MarkoffEvaluation(r, rep, chain=edges.chain)
        reason, lam, census = _rejection(r, ev, edges)
        report.candidates.append(RootCandidateReport(
            rep, reason is None, reason or "passed", lambda_orbifold=lam,
            census=census))
        if reason is None:
            survivors.append((rep, lam))

    lam_keys = {(round(l.real, 6), round(l.imag, 6)) for _, l in survivors}
    if len(lam_keys) > 1:
        raise AmbiguousGeometricRootError(
            "more than one root class survives for %s" % (r,), report=report
        )
    if not survivors:
        raise NoGeometricRootError(
            "no geometric root found for %s: %s" % (
                r, "; ".join("%s: %s" % (format(c.root, ".6g"), c.reason)
                      for c in report.candidates)),
            report=report,
        )

    # deterministic representative: Re > 0, ties broken by Im > 0
    def rep_key(item):
        z = item[0]
        return (round(z.real, 12), round(z.imag, 12))

    chosen = max(survivors, key=rep_key)[0]
    ev = MarkoffEvaluation(r, chosen, chain=edges.chain)
    report.selected = chosen
    ev.selection = report
    ev.edges = edges
    return ev


def geometric_evaluation(r: Slope, precision: str = "double") -> MarkoffEvaluation:
    """Full pipeline chain -> polynomial -> roots -> geometric root; the
    chain is built once and shared by every step."""
    if not is_hyperbolic(r):
        raise NonHyperbolicError(r)
    chain = farey_chain(r)
    poly = trace_polynomial(r, chain)
    roots = polynomial_roots(poly, precision=precision)
    ev = select_geometric_root(roots, r, chain=chain)
    ev.trace_poly = poly
    return ev
