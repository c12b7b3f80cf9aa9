"""Exact p-adic character sums on polynomial curves.

The additive character used everywhere is psi(x) = exp(2*pi*i*{x}_p), where
{x}_p is the p-adic fractional part; its kernel is Z_p.  Ball and sphere
integrals of psi(phase(s)) are evaluated *exactly*: values live in the
cyclotomic field Q(zeta_{p^k}) and are carried as rational combinations of
roots of unity until the caller asks for a complex (or provably rational)
answer.

A transform is one accumulator, a dict from phase to rational coefficient.
Each ball p^R Z_p that the sphere decomposition needs is visited once, with
the weights of both spheres it bounds, and adds weight * J(h) for the
unit-ball average J(h) = int_{Z_p} psi(h(u)) du of its scaled phase.  A
float is summed from the exact terms in ascending phase order, so it
depends on those terms alone.

J(h) depends only on h modulo Z_p[u], because psi is trivial on Z_p.  The
stationary-phase descent that evaluates J therefore works on the p-adic
fractional parts of the coefficients: the constant term becomes a phase
shift, and J(h - h(0)) is memoized as a phase -> coefficient map keyed by
the reduced non-constant coefficients.  Weights, and the conjugate of a
paired ball, apply only when a memo entry is added into the accumulator.
The memo belongs to the caller: a transform makes a fresh one per call
unless it is handed one, as the lattice minimizer does for each run.

Haar measure is normalized so that Z_p has mass 1; the ball p^{-r} Z_p then
has mass p^r and the sphere |s| = p^r has mass p^r - p^{r-1}.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .polycore import CurveFamily, RationalPoly, parse_rational, phi_from_frequency


def _require_prime(p):
    """Raise ValueError unless p is an integer prime (bools are not integers)."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an integer prime; got {p!r}")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p = {p} is not prime")


def vp(x, p):
    """p-adic valuation of a rational (math.inf for 0); p >= 2."""
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")
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


_ZERO = Fraction(0)


def padic_fractional_phase(x, p):
    """{x}_p as a Fraction r/p^n in [0,1); 0 for p-integral x; p >= 2.

    x is p-integral exactly when p does not divide its denominator; else
    the denominator is p^n * d with d prime to p, and r = num * d^-1 mod p^n.
    """
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")
    x = parse_rational(x)
    den = x.denominator
    if den % p:
        return _ZERO
    pn = p
    den //= p
    while den % p == 0:
        den //= p
        pn *= p
    return Fraction(x.numerator * pow(den, -1, pn) % pn, pn)


class CycNum:
    """A finite rational combination of p-power roots of unity, kept exact.

    terms maps a phase theta in [0,1) (a Fraction with p-power denominator)
    to its rational coefficient; the value is sum coeff * e^{2 pi i theta}.
    Reduction into the cyclotomic integral basis decides rationality exactly.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p, terms):
        self.p = p
        self.terms = {th: c for th, c in terms.items() if c != 0}

    def reduced(self):
        """Rewrite in the basis 1, zeta, ..., zeta^{phi(N)-1} (N = p^max).

        With step = N/p, zeta^e for e >= phi(N) = N - step equals minus the
        sum of zeta^{e - phi(N) + k step} over k < p - 1, and every such
        target lies below phi(N).  So only the exponents the number holds at
        or above phi(N) are rewritten, each once, and no rewrite adds to
        another's source, so their order does not matter.  The cost is
        O(terms * p), whatever N is.
        """
        if not self.terms:
            return self
        N = max(th.denominator for th in self.terms)
        if N == 1:
            total = sum(self.terms.values())
            return CycNum(self.p, {Fraction(0): total})
        arr = {th.numerator * (N // th.denominator): c for th, c in self.terms.items()}
        step = N // self.p
        phi_n = N - step
        for e in [e for e in arr if e >= phi_n]:
            c = arr.pop(e)
            base = e - phi_n
            for k in range(self.p - 1):
                tgt = base + k * step
                arr[tgt] = arr.get(tgt, _ZERO) - c
        return CycNum(self.p, {Fraction(e, N): c for e, c in arr.items()})

    def rational_value(self):
        """The exact Fraction if this number is rational, else None."""
        red = self.reduced()
        if not red.terms:
            return Fraction(0)
        if set(red.terms) == {Fraction(0)}:
            return red.terms[Fraction(0)]
        return None

    def to_complex(self):
        """The value as a complex float, summed in ascending phase order so
        that it depends on the exact terms alone."""
        return sum(
            (complex(c) * cmath.exp(2j * cmath.pi * float(th)) for th, c in sorted(self.terms.items())), complex(0)
        )

    def __repr__(self):
        return f"CycNum(p={self.p}, {dict(self.terms)})"


def _reduce(coeffs, p):
    """The p-adic fractional parts of coeffs, trailing zeros dropped: the
    canonical representative of a polynomial modulo Z_p[u]."""
    out = [padic_fractional_phase(c, p) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _descend(key, p, memo, depth=0):
    """J(h) = int_{Z_p} psi(h(u)) du as a dict phase -> coefficient, for the
    h with h(0) = 0 whose other coefficients are key (fractional parts, as
    _reduce gives them); memo maps keys to values already descended, and
    J(c + h) = psi(c) J(h) lets every node reuse them whatever its constant.

    Stationary-phase descent: let m = -min_j>=1 v_p(h_j).  For m <= 0 (an
    empty key) J = 1; for m = 1 the integrand is constant on each of the p
    residue classes; for m >= 2 the classes where p^m h'(c) is a unit mod p
    integrate to zero exactly (the linear term of the phase dominates and
    averages a full set of p-th roots of unity), and each surviving class c
    contributes psi(h(c)) J(h(c + p u) - h(c)) / p.
    """
    got = memo.get(key)
    if got is not None:
        return got
    if depth > 400:
        raise RecursionError("p-adic descent failed to terminate")
    out = {}
    if not key:
        out[_ZERO] = Fraction(1)
    else:
        h = RationalPoly((0,) + key)
        # every coefficient is r/p^k in lowest terms, so p^m is the largest denominator
        pm = max(c.denominator for c in key)
        if pm == p:
            for c in range(p):
                theta = padic_fractional_phase(h(c), p)
                out[theta] = out.get(theta, 0) + Fraction(1, p)
        else:
            dbar = [j * c.numerator * (pm // c.denominator) % p for j, c in enumerate(key, 1)]
            for c in range(p):
                s = 0
                for coef in reversed(dbar):
                    s = (s * c + coef) % p
                if s:
                    continue
                shifted = h.compose_linear(c, p).coeffs
                shift = padic_fractional_phase(shifted[0], p)
                for theta, coef in _descend(_reduce(shifted[1:], p), p, memo, depth + 1).items():
                    theta += shift
                    if theta >= 1:
                        theta -= 1
                    out[theta] = out.get(theta, 0) + coef / p
    memo[key] = out
    return out


def _add_ball(acc, phase, p, R, weight, memo, paired=False):
    """Add weight * int_{p^R Z_p} psi(phase(s)) ds to acc (phase ->
    coefficient), and its conjugate too when paired.

    Substituting s = p^R u turns the ball integral into p^{-R} times the
    unit-ball average J of phase(p^R u), which _descend evaluates modulo
    Z_p[u] with memo; the constant term shifts its phases, and the weight
    applies only here.
    """
    pr = Fraction(p) ** R
    scaled = [c * pr**j for j, c in enumerate(phase.coeffs)] or [_ZERO]
    shift = padic_fractional_phase(scaled[0], p)
    weight = weight / pr
    for theta, coef in _descend(_reduce(scaled[1:], p), p, memo).items():
        theta += shift
        if theta >= 1:
            theta -= 1
        coef *= weight
        acc[theta] = acc.get(theta, 0) + coef
        if paired:
            theta = 1 - theta if theta else theta
            acc[theta] = acc.get(theta, 0) + coef


def sphere_character_sum(f, lam, r, p):
    """int_{C_r} psi(lam * f(s)) ds over the sphere C_r = {|s| = p^r}, exact
    (cyclotomic stationary-phase descent): the ball p^{-r} Z_p minus the ball
    p^{1-r} Z_p."""
    _require_prime(p)
    phase = f * parse_rational(lam)
    acc, memo = {}, {}
    _add_ball(acc, phase, p, -r, 1, memo)
    _add_ball(acc, phase, p, 1 - r, -1, memo)
    return CycNum(p, acc).to_complex()


def ess_part(f, p):
    """Essential part: max{0, max_i<n log_p(|a_i| / |a_n|)} over nonzero a_i."""
    _require_prime(p)
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
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (self.a, self.T, self.p)):
            raise ValueError(f"window a, T and p must be integers; got {self.a!r}, {self.T!r}, {self.p!r}")
        if self.T <= self.a:
            raise ValueError("window needs T > a")
        _require_prime(self.p)

    @property
    def L(self):
        return 2 * (self.T - self.a + 1) * (1 - Fraction(1, self.p))


def check_window_padic(family, window):
    """Raise ValueError unless the PadicWindow starts above the essential
    part of every component at window.p."""
    a0 = max(ess_part(f, window.p) for f in family.polys)
    if window.a <= a0:
        raise ValueError(f"window start {window.a} must exceed the essential part {a0}")


def mu_hat_padic(family, window, lam, memo=None):
    """Normalized transform (1/L) sum_{r=a}^{T} p^{-r} * 2 Re int_{C_r} psi(phase).

    phase = sum_i lam_i f_i(s), the phase polynomial of phi_from_frequency.
    Each sphere integral is the ball p^{-r} Z_p minus the ball p^{1-r} Z_p,
    so the sum is one over the balls p^R Z_p, R = -T .. 1-a, each evaluated
    once with weight p^R [a <= -R] - p^{R-1} [1-R <= T], divided by L.
    Every ball adds its value and its conjugate to one accumulator, which
    therefore holds 2 Re directly.  Returns an exact Fraction whenever the
    cyclotomic value reduces to a rational (lam = 0 gives exactly 1), else a
    float.  lam and -lam give conjugate terms, whose sum is the same set of
    phases and coefficients; as the float is summed in phase order, the
    value is even in lam exactly, floats included.

    memo holds the unit-ball averages already descended, keyed by reduced
    polynomials modulo Z_p[u] (see _descend).  By default it is a fresh dict
    that lives for this call and is shared by its balls.  A caller that
    evaluates many frequencies, such as the lattice minimizer, may pass one
    dict to all of them and owns it: it is only ever filled, every entry is
    exact, and it stays valid across families, windows and primes (a
    nonzero fractional part has a p-power denominator, so a key names its
    prime).  The value returned does not depend on what memo holds.
    """
    p, a, T = window.p, window.a, window.T
    check_window_padic(family, window)
    phase = phi_from_frequency(family, lam)
    acc = {}
    memo = {} if memo is None else memo
    for R in range(-T, 2 - a):
        weight = (Fraction(p) ** R if a <= -R else 0) - (Fraction(p) ** (R - 1) if 1 - R <= T else 0)
        _add_ball(acc, phase, p, R, weight / window.L, memo, paired=True)
    total = CycNum(p, acc)
    rat = total.rational_value()
    if rat is not None:
        return rat
    z = total.to_complex()
    if abs(z.imag) > 1e-9 or abs(z.real) > 1 + 1e-9:
        raise ArithmeticError("conjugate-pair value left the certified range")
    return min(1.0, max(-1.0, z.real))


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
