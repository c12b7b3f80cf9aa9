"""Exact p-adic character sums on polynomial curves.

The additive character used everywhere is psi(x) = exp(2*pi*i*{x}_p), where
{x}_p is the p-adic fractional part; its kernel is Z_p.  Ball and sphere
integrals of psi(phase(s)) are evaluated *exactly*: values live in the
cyclotomic field Q(zeta_{p^k}) and are carried as rational combinations of
roots of unity until the caller asks for a complex (or provably rational)
answer.

Haar measure is normalized so that Z_p has mass 1; the ball p^{-r} Z_p then
has mass p^r and the sphere |s| = p^r has mass p^r - p^{r-1}.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .polycore import CurveFamily, RationalPoly, parse_rational, phi_from_frequency


def vp(x, p):
    """p-adic valuation of a rational (math.inf for 0)."""
    x = parse_rational(x)
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_fractional_phase(x, p):
    """{x}_p as a Fraction r/p^n in [0,1); 0 for p-integral x."""
    x = parse_rational(x)
    v = vp(x, p)
    if v >= 0:
        return Fraction(0)
    n = -v
    pn = p**n
    scaled = x * pn  # now p-integral with denominator coprime to p
    r = scaled.numerator * pow(scaled.denominator, -1, pn) % pn
    return Fraction(r, pn)


class CycNum:
    """A finite rational combination of p-power roots of unity, kept exact.

    terms maps a phase theta in [0,1) (a Fraction with p-power denominator)
    to its rational coefficient; the value is sum coeff * e^{2 pi i theta}.
    Reduction into the cyclotomic integral basis decides rationality exactly.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p, terms=None):
        self.p = p
        self.terms = {}
        for th, c in (terms or {}).items():
            if c != 0:
                self.terms[th] = self.terms.get(th, Fraction(0)) + c

    @classmethod
    def zero(cls, p):
        return cls(p, {})

    @classmethod
    def from_phase(cls, p, theta, coeff=Fraction(1)):
        return cls(p, {theta % 1: Fraction(coeff)})

    def __add__(self, other):
        out = dict(self.terms)
        for th, c in other.terms.items():
            out[th] = out.get(th, Fraction(0)) + c
        return CycNum(self.p, out)

    def scale(self, q):
        q = Fraction(q)
        return CycNum(self.p, {th: c * q for th, c in self.terms.items()})

    def conj(self):
        return CycNum(self.p, {(-th) % 1: c for th, c in self.terms.items()})

    def reduced(self):
        """Rewrite in the basis 1, zeta, ..., zeta^{phi(N)-1} (N = p^max)."""
        if not self.terms:
            return self
        N = max(th.denominator for th in self.terms)
        if N == 1:
            total = sum(self.terms.values())
            return CycNum(self.p, {Fraction(0): total} if total else {})
        arr = {}
        for th, c in self.terms.items():
            e = int(th * N)
            arr[e] = arr.get(e, Fraction(0)) + c
        step = N // self.p
        phi_n = N - step
        for e in range(N - 1, phi_n - 1, -1):
            c = arr.get(e)
            if not c:
                continue
            base = e - phi_n
            for k in range(self.p - 1):
                tgt = base + k * step
                arr[tgt] = arr.get(tgt, Fraction(0)) - c
            del arr[e]
        return CycNum(self.p, {Fraction(e, N): c for e, c in arr.items() if c != 0})

    def rational_value(self):
        """The exact Fraction if this number is rational, else None."""
        red = self.reduced()
        if not red.terms:
            return Fraction(0)
        if set(red.terms) == {Fraction(0)}:
            return red.terms[Fraction(0)]
        return None

    def to_complex(self):
        return sum((complex(c) * cmath.exp(2j * cmath.pi * float(th)) for th, c in self.terms.items()), complex(0))

    def __repr__(self):
        return f"CycNum(p={self.p}, {dict(self.terms)})"


def _psi_cyc(p, x):
    return CycNum.from_phase(p, padic_fractional_phase(x, p))


def _unit_average(p, poly, depth=0):
    """Exact J(h) = int_{Z_p} psi(h(u)) du for h in Q[u], as a CycNum.

    Stationary-phase descent: let m = -min_j>=1 v_p(h_j).  For m <= 0 the
    integrand is constant; for m = 1 it is constant on each of the p residue
    classes; for m >= 2 the classes where p^m h'(c) is a unit mod p integrate
    to zero exactly (the linear term of the phase dominates and averages a
    full set of p-th roots of unity), and each surviving class recurses with
    m dropped by at least 2.
    """
    if depth > 400:
        raise RecursionError("p-adic descent failed to terminate")
    coeffs = poly.coeffs
    nonconst = [(j, c) for j, c in enumerate(coeffs) if j >= 1 and c != 0]
    const = coeffs[0] if coeffs else Fraction(0)
    if not nonconst:
        return _psi_cyc(p, const)
    t = min(vp(c, p) for _, c in nonconst)
    if t >= 0:
        return _psi_cyc(p, const)
    m = -t
    if m == 1:
        acc = CycNum.zero(p)
        for c in range(p):
            acc = acc + _psi_cyc(p, poly(Fraction(c)))
        return acc.scale(Fraction(1, p))
    pm = Fraction(p) ** m
    deriv = poly.derivative()
    dbar = []
    for c in deriv.coeffs:
        val = c * pm
        v = vp(val, p)
        if v < 0:
            raise ArithmeticError("descent invariant violated")  # cannot happen
        dbar.append(0 if v > 0 else val.numerator * pow(val.denominator, -1, p) % p)
    acc = CycNum.zero(p)
    for c in range(p):
        s = 0
        for coef in reversed(dbar):
            s = (s * c + coef) % p
        if s == 0:
            acc = acc + _unit_average(p, poly.compose_linear(c, p), depth + 1)
    return acc.scale(Fraction(1, p))


def _ball_integral_cyc(phase_poly, p, R):
    """Exact integral of psi(phase(s)) over the ball p^R Z_p, as a CycNum.

    Substituting s = p^R u gives measure p^{-R} times the unit-ball average.
    """
    scaled = RationalPoly([c * Fraction(p) ** (R * j) for j, c in enumerate(phase_poly.coeffs)])
    return _unit_average(p, scaled).scale(Fraction(p) ** (-R))


def _sphere_sum_cyc(phase_poly, p, r):
    """Exact integral over the sphere |s| = p^r (ball difference)."""
    return _ball_integral_cyc(phase_poly, p, -r) + _ball_integral_cyc(phase_poly, p, -(r - 1)).scale(-1)


def sphere_character_sum(f, lam, r, p):
    """int_{C_r} psi(lam * f(s)) ds over the sphere C_r = {|s| = p^r}, exact
    (cyclotomic stationary-phase descent)."""
    lam = parse_rational(lam)
    if lam == 0:
        return complex(p**r - p ** (r - 1))
    return _sphere_sum_cyc(f * lam, p, r).to_complex()


def ess_part(f, p):
    """Essential part: max{0, max_i<n log_p(|a_i| / |a_n|)} over nonzero a_i."""
    if f.degree < 1:
        raise ValueError("essential part needs degree >= 1")
    an = f.coeffs[-1]
    vn = vp(an, p)
    best = 0
    for c in f.coeffs[:-1]:
        if c != 0:
            best = max(best, vn - vp(c, p))
    return best


@dataclass(frozen=True)
class PadicWindow:
    """Summation window a..T (integers, T > a) for the sphere decomposition
    over Q_p, p prime."""

    a: int
    T: int
    p: int

    def __post_init__(self):
        if self.T <= self.a:
            raise ValueError("window needs T > a")
        if self.p < 2 or any(self.p % d == 0 for d in range(2, math.isqrt(self.p) + 1)):
            raise ValueError(f"p = {self.p} is not prime")

    @property
    def L(self):
        return 2 * (self.T - self.a + 1) * (1 - Fraction(1, self.p))


def mu_hat_padic(family, window, lam):
    """Normalized transform (1/L) sum_{r=a}^{T} p^{-r} * 2 Re int_{C_r} psi(phase).

    phase = sum_i lam_i f_i(s), the phase polynomial of phi_from_frequency.
    Returns an exact Fraction whenever the cyclotomic value reduces to a
    rational (lam = 0 gives exactly 1), else a float.  The conjugate-pair construction makes the value real and even in
    lam by construction.
    """
    p = window.p
    a0 = max(ess_part(f, p) for f in family.polys)
    if window.a <= a0:
        raise ValueError(f"window start {window.a} must exceed the essential part {a0}")
    phase = phi_from_frequency(family, lam)
    total = CycNum.zero(p)
    for r in range(window.a, window.T + 1):
        s = _sphere_sum_cyc(phase, p, r)
        pair = s + s.conj()
        total = total + pair.scale(Fraction(1, p**r))
    total = total.scale(1 / window.L)
    rat = total.rational_value()
    if rat is not None:
        return rat
    z = total.to_complex()
    if abs(z.imag) > 1e-9 or abs(z.real) > 1 + 1e-9:
        raise ArithmeticError("conjugate-pair value left the certified range")
    return min(1.0, max(-1.0, z.real))


def padic_vdc_check(f, lam, r, p):
    """Oscillation bound check on a ball: |int_{p^r Z_p} psi(lam f)| vs 2 p^n |lam a_n|^{-1/n}."""
    lam = parse_rational(lam)
    n = f.degree
    if n < 1 or lam * f.coeffs[-1] == 0:
        raise ValueError("leading coefficient of the phase must be nonzero")
    lhs = abs(_ball_integral_cyc(f * lam, p, r).to_complex())
    v = vp(lam * f.coeffs[-1], p)
    rhs = 2.0 * p**n * float(p) ** (v / n)
    return lhs, rhs, lhs <= rhs + 1e-9


def echelon_reduce(family):
    """Rewrite the family as B.f with strictly decreasing degrees >= 1.

    Exact Gauss elimination on the coefficient rows; B is returned as a tuple
    of rows of Fractions and is invertible by construction.  Raises if the
    family fails to be independent (a combination collapses to a constant).
    """
    m = family.m
    polys = list(family.polys)
    b = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    while True:
        order = sorted(range(m), key=lambda i: -polys[i].degree)
        polys = [polys[i] for i in order]
        b = [b[i] for i in order]
        done = True
        for i in range(m - 1):
            if polys[i].degree == polys[i + 1].degree:
                done = False
                ratio = polys[i + 1].coeffs[-1] / polys[i].coeffs[-1]
                polys[i + 1] = polys[i + 1] - polys[i] * ratio
                b[i + 1] = [x - ratio * y for x, y in zip(b[i + 1], b[i])]
                if polys[i + 1].degree < 1:
                    raise ValueError("independence violation detected during elimination")
                break
        if done:
            break
    reduced = CurveFamily(polys)
    return tuple(tuple(row) for row in b), reduced


def certified_bound_padic(family, window):
    """The constant B = 16 sum_i p^{deg f_i}; the certificate is mu_hat >= -B/L.

    Requires the strictly-decreasing-degree normal form (echelon_reduce).
    """
    degs = [f.degree for f in family.polys]
    if any(d < 1 for d in degs) or any(x <= y for x, y in zip(degs, degs[1:])):
        raise ValueError("family must be echelon-reduced to strictly decreasing degrees")
    p = window.p
    return 16 * sum(p**d for d in degs)
