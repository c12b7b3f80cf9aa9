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

J(h) depends only on h modulo Z_p[u], as psi is trivial on Z_p: J(h - h(0))
is memoized as a phase -> coefficient map, and h(0) is a phase shift.  A
memo key is all integers, (p^m, n_1, ..., n_d) with n_j / p^m the p-adic
fractional part of the u^j coefficient (see _canonical), so a nonzero key
names its prime.  Every ball's key comes from the phase's integer
numerators with one modular inverse per call, and the descent runs one
loop over the residue classes of a key, each a Taylor shift of its
numerators.  A key of degree <= 2 at odd p closes in one step, as a
quadratic Gauss sum (Igusa, An Introduction to the Theory of Local Zeta
Functions, 2000; Ireland and Rosen, ch. 6): for h(u) = (n_1 u + n_2 u^2)
/ p^k with n_2 a unit, the stationary class c0 = -n_1 (2 n_2)^{-1} mod p^k
gives psi(h(c0)) p^{-k/2} for k even and p^{-(k+1)/2} times the p terms
psi(h(c0) + n_2 y^2 / p), y mod p, for k odd; for k = 1 every class
counts, and for k >= 2 with p | n_2 no class is stationary and J = 0.
These are the descent's own terms, so no float moves.  At p = 2 and for
degree >= 3 the descent runs, and its quadratic children close in one
step.  Weights, and the conjugate of a paired ball, apply only when a
memo entry is added into the accumulator.  The memo holds descents only and
belongs to the caller: a transform makes a fresh one per call unless it is
handed one, as the lattice minimizer does.  A transform's ball weights
depend on its window alone, and each PadicWindow builds them once.

Haar measure is normalized so that Z_p has mass 1; the ball p^{-r} Z_p then
has mass p^r and the sphere |s| = p^r has mass p^r - p^{r-1}.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .polycore import CurveFamily, RationalPoly, _bareiss, clear_denominators, parse_rational, phase_integers
from .polycore import taylor_shift


def _require_prime(p):
    """Raise ValueError unless p is an integer prime (bools are not integers)."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an integer prime; got {p!r}")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p = {p} is not prime")


def _split(n, p):
    """(e, d) with n = p^e d and d prime to p, for a nonzero integer n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def vp(x, p):
    """p-adic valuation of a rational (math.inf for 0); p >= 2."""
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")
    x = parse_rational(x)
    if x == 0:
        return math.inf
    return _split(x.numerator, p)[0] - _split(x.denominator, p)[0]


_ZERO = Fraction(0)


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


def _canonical(pm, nums):
    """The memo key (p^m, n_1, ..., n_d) of the fractional parts n_j / pm,
    for pm a power of p and every n_j in [0, pm): trailing zeros dropped and
    the common power of p divided out, so that p^m is the largest
    denominator and equal polynomials modulo Z_p[u] get equal keys.  The
    zero polynomial's key is (1,)."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(pm, *nums)
    return (pm // g, *[n // g for n in nums])


def _ball_keys(den, ints, p, balls):
    """For each R in balls, (shift, key) of g = ints / den on the ball
    p^R Z_p: the p-adic fractional parts of the coefficients
    ints[j] p^{Rj} / den of g(p^R u), the constant one as shift and the
    others as a _canonical key.  The part {x}_p of x = n / (p^k d), d prime
    to p, is (n d^{-1} mod p^k) / p^k, and 0 when k <= 0.

    With den = p^e d and d prime to p, d is inverted once modulo p^K, K the
    largest e - Rj; ints[j] d^{-1} p^{K-e+Rj} mod p^K is then the j-th part
    over p^K, and 0 once that power reaches p^K (a p-integral coefficient)."""
    e, d = _split(den, p)
    top = len(ints) - 1
    K = max(e - R * j for R in balls for j in (0, top))  # e - Rj is linear in j
    pk = p**K
    inv = pow(d, -1, pk)
    units = [n * inv % pk for n in ints]
    out = []
    for R in balls:
        nums = [u * p ** min(K - e + R * j, K) % pk for j, u in enumerate(units)]
        out.append((Fraction(nums[0], pk), _canonical(pk, nums[1:])))
    return out


def _stationary_ball(key, p):
    """J(h) in closed form for a key (p^m, n_1[, n_2]) of degree <= 2 at an
    odd prime p, as the very term map the descent builds: the same phases
    and the same coefficients.

    Write p^k = p^m.  If n_2 is a unit, c0 = -n_1 (2 n_2)^{-1} mod p^k
    makes h'(c0) integral, so h(c0 + u) = h(c0) + n_2 u^2 / p^k modulo
    Z_p[u], and h is constant modulo 1 on each ball t + p^{ceil(k/2)} Z_p.
    The descent follows c0 one digit a level and keeps the balls of
    t = c0 + p^{floor(k/2)} y, y < p^{k mod 2}, each with weight
    p^{-ceil(k/2)}: for k even one term psi(h(c0)) p^{-k/2}, and for k odd
    the p terms psi(h(c0) + n_2 y^2 / p) p^{-(k+1)/2}, a quadratic Gauss
    sum.  For k = 1 these are all p classes, whatever n_2 is (c0 = 0 when
    p divides n_2).  Otherwise (k >= 2 and p | n_2, so n_1 is a unit) no
    class is stationary and J(h) has no term.  A phase that several balls
    share gets the sum of their weights, as in the descent.
    """
    pm, n1, n2 = (*key, 0)[:3]
    if n2 % p:
        c0 = -n1 * pow(2 * n2, -1, pm) % pm
    elif pm == p:
        c0 = 0
    else:
        return {}
    k = _split(pm, p)[0]
    step, count = p ** (k // 2), p ** (k % 2)
    hits = {}  # phase numerator over p^k -> how many classes give it
    for t in range(c0, c0 + step * count, step):
        e = (n1 * t + n2 * t * t) % pm
        hits[e] = hits.get(e, 0) + 1
    return {Fraction(e, pm): Fraction(n, step * count) for e, n in hits.items()}


def _descend(key, p, memo, depth=0):
    """J(h) = int_{Z_p} psi(h(u)) du as a dict phase -> coefficient, for the
    h with h(0) = 0 whose other coefficients are n_j / p^m for the key
    (p^m, n_1, ..., n_d) (see _canonical); memo maps keys to values already
    descended, and J(c + h) = psi(c) J(h) lets every node reuse them
    whatever its constant.

    A key of degree <= 2 at odd p closes in one step (_stationary_ball),
    with the term map the descent below would build.  At p = 2, and for
    degree >= 3, the descent runs, and its quadratic children close in one
    step.

    Stationary-phase descent on integer numerators: the Taylor shift of
    (0, n_1, ..., n_d) by a residue c gives p^m h(c + u), whose constant mod
    p^m is the phase of class c and whose others s_j, as s_j p^j mod p^m,
    key h(c + p u) - h(c).  The class adds psi(h(c)) J(h(c + p u) - h(c)) / p.
    For m >= 2 a class where p^m h'(c) is a unit mod p is skipped: the
    linear term averages a full set of p-th roots of unity to zero.  For
    m = 1 every child key is (1,).  Each level lowers m; a descent deeper
    than 400 levels raises ValueError.
    """
    got = memo.get(key)
    if got is not None:
        return got
    pm = key[0]
    out = {}
    if pm == 1:
        out[_ZERO] = Fraction(1)
    elif len(key) <= 3 and p > 2:
        out = _stationary_ball(key, p)
    elif depth > 400:
        raise ValueError("p-adic descent deeper than 400 levels: the phase's denominators are too large")
    else:
        for c in range(p):
            shifted = taylor_shift((0, *key[1:]), c)
            if pm > p and shifted[1] % p:
                continue
            shift = Fraction(shifted[0] % pm, pm)
            child = _canonical(pm, [s * p**j % pm for j, s in enumerate(shifted[1:], 1)])
            for theta, coef in _descend(child, p, memo, depth + 1).items():
                theta += shift
                if theta >= 1:
                    theta -= 1
                out[theta] = out.get(theta, 0) + coef / p
    memo[key] = out
    return out


def _add_balls(acc, den, ints, p, weights, memo, paired=False):
    """Add weight * J(g(p^R u)) to acc (phase -> coefficient) for every
    R: weight of weights, and its conjugate too when paired; g = ints / den.

    Substituting s = p^R u turns int_{p^R Z_p} psi(g(s)) ds into p^{-R}
    times the unit-ball average J of g(p^R u), so a weight that includes
    p^{-R} adds the ball integral.  _descend evaluates J modulo Z_p[u] with
    memo; the constant term shifts its phases, and the weight applies only
    here.
    """
    for weight, (shift, key) in zip(weights.values(), _ball_keys(den, ints, p, weights)):
        for theta, coef in _descend(key, p, memo).items():
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
    p^{1-r} Z_p.  A value that reduces to a rational is returned as exactly
    that rational's complex, as mu_hat_padic returns its Fraction."""
    _require_prime(p)
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(f"r must be an integer; got {r!r}")
    den, ints = clear_denominators((f * parse_rational(lam)).coeffs or (_ZERO,))
    acc = {}
    _add_balls(acc, den, ints, p, {-r: Fraction(p) ** r, 1 - r: -Fraction(p) ** (r - 1)}, {})
    total = CycNum(p, acc)
    rat = total.rational_value()
    return total.to_complex() if rat is None else complex(rat)


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
    over Q_p, p prime.  L and ball_weights are built on first use, once per
    window object; equality, hash and repr see a, T and p alone."""

    a: int
    T: int
    p: int

    def __post_init__(self):
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (self.a, self.T, self.p)):
            raise ValueError(f"window a, T and p must be integers; got {self.a!r}, {self.T!r}, {self.p!r}")
        if self.T <= self.a:
            raise ValueError("window needs T > a")
        _require_prime(self.p)

    @cached_property
    def L(self):
        return 2 * (self.T - self.a + 1) * (1 - Fraction(1, self.p))

    @cached_property
    def ball_weights(self):
        """Read-only map R -> ([a <= -R] - [1-R <= T] / p) / L for R = -T ..
        1-a: the weight p^R [a <= -R] - p^{R-1} [1-R <= T] of mu_hat_padic's
        ball p^R Z_p, times the ball's p^{-R} (see _add_balls), over L."""
        a, T, p, L = self.a, self.T, self.p, self.L
        return MappingProxyType(
            {R: ((1 if a <= -R else 0) - (Fraction(1, p) if 1 - R <= T else 0)) / L for R in range(-T, 2 - a)}
        )


def check_window_padic(family, window):
    """Raise ValueError unless the PadicWindow starts above the essential
    part of every component at window.p."""
    a0 = max(ess_part(f, window.p) for f in family.polys)
    if window.a <= a0:
        raise ValueError(f"window start {window.a} must exceed the essential part {a0}")


def mu_hat_padic(family, window, lam, memo=None):
    """Normalized transform (1/L) sum_{r=a}^{T} p^{-r} * 2 Re int_{C_r} psi(phase).

    phase = sum_i lam_i f_i(s), read as integer numerators over one
    denominator (polycore.phase_integers).  Each sphere integral is the ball
    p^{-r} Z_p minus the ball p^{1-r} Z_p, so the sum is one over the balls
    p^R Z_p, R = -T .. 1-a, each evaluated once with weight p^R [a <= -R] -
    p^{R-1} [1-R <= T], divided by L.  Every ball adds its value and its
    conjugate to one accumulator, which therefore holds 2 Re directly.
    Returns an exact Fraction whenever the cyclotomic value reduces to a
    rational (lam = 0 gives exactly 1), else a float.  lam and -lam give
    conjugate terms, whose sum is the same set of phases and coefficients;
    as the float is summed in phase order, the value is even in lam exactly,
    floats included.

    The weights are window.ball_weights, built once per window object.
    memo holds the unit-ball averages already descended, and nothing else,
    keyed by integer numerators (p^m, n_1, ..., n_d) of polynomials modulo
    Z_p[u] (see _canonical).  By default it is a fresh dict that lives for
    this call and is shared by its balls.  A caller that evaluates many
    frequencies, such as the lattice minimizer, may pass one dict to all of
    them and owns it: it is only ever filled, every entry is exact, and it
    stays valid across families, windows and primes (a nonzero key's p^m
    names its prime).  The value returned does not depend on what memo
    holds.
    """
    p = window.p
    check_window_padic(family, window)
    den, ints = phase_integers(family, lam)
    acc = {}
    _add_balls(acc, den, ints, p, window.ball_weights, {} if memo is None else memo, paired=True)
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

    One fraction-free elimination (polycore._bareiss) of the coefficient
    rows, x^n first, each extended by its row of the identity, whose columns
    then hold B.  By Bareiss's identity (Math. Comp. 22, 1968) an eliminated
    row is the previous pivot times its Gaussian row, scaled by the lcm of
    its input row, so dividing by both gives the Gaussian row exactly; B is
    invertible by construction.  Every pivot lies left of x^0, since a
    CurveFamily is independent together with constants (see CurveFamily).
    """
    m, n = family.m, family.n
    rows = [row[::-1] + [int(i == j) for j in range(m)] for i, row in enumerate(family.coefficient_matrix())]
    elim, order, pivots = _bareiss(rows)
    prev = [1] + [v for _, v in pivots[:-1]]
    gauss = [
        [Fraction(x, d * clear_denominators(rows[i])[0]) for x in row] for row, i, d in zip(elim, order, prev)
    ]
    reduced = CurveFamily([RationalPoly(row[n::-1]) for row in gauss])
    return tuple(tuple(row[n + 1 :]) for row in gauss), reduced


def certified_bound_padic(family, window):
    """The constant B = 16 sum_i p^{deg f_i}; the certificate is mu_hat >= -B/L.

    Requires the strictly-decreasing-degree normal form (echelon_reduce).
    """
    degs = [f.degree for f in family.polys]
    if any(d < 1 for d in degs) or any(x <= y for x, y in zip(degs, degs[1:])):
        raise ValueError("family must be echelon-reduced to strictly decreasing degrees")
    p = window.p
    return 16 * sum(p**d for d in degs)
