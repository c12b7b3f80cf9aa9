"""Oscillatory integrals of exp(2*pi*i*Phi(t)) with Phi(t) = g(e^t) for a
rational polynomial g (the phase polynomial sum lam_i f_i), interval
decompositions with derivative witnesses, and the certified constant
C with mu_hat_T >= -C/(T-a) uniformly in the frequency.

Evaluation strategy.  The window is first cut at the roots of Phi' and
Phi'' (isolated exactly in integer arithmetic by polycore) so that Phi and
Phi' are monotone on every piece.  A piece spanning few oscillations is
integrated directly by adaptive bisection with a nested Clenshaw-Curtis 16/8
pair (the 8-point rule rides on every other node of the 16-point rule, so
the error estimate costs nothing extra); a panel is split unconditionally
whenever the phase 2*pi*Phi moves by more than pi across it, which prevents
a smooth-looking aliased panel from being accepted.  The bisection is
depth-first but evaluates up to _BATCH panels from the top of its stack in
one vectorised call, and every evaluation of Phi and its derivatives reads
one float table built per transform.  A piece spanning many oscillations is
split at |Phi'| = Omega into a slow zone (direct) and a fast zone handled in
closed form by three-term integration by parts: with psi = 2*pi*Phi and
A = psi''' psi' - 3 psi''^2,

    int e^{i psi} dt = [e^{i psi} (1/(i psi') - psi''/psi'^3 + A/(i psi'^5))]
                       + R3,
    |R3| <= int |A'/psi'^5 - 5 A psi''/psi'^6| dt,

where the remainder bound is an ordinary non-oscillatory integral charged to
the error estimate, and Omega is grown until that charge fits the tolerance.
This evaluates frequencies with |lambda| ~ 1e6 (phase counts ~ 1e60) at
fixed cost.

One-term phases.  When g = c0 + c x^j has one nonconstant term, y = 2*pi*|c|
e^{jt} turns the integral into cosine and sine integrals, and osc_integral
returns e^{2*pi*i*c0} ((Ci(y_T) - Ci(y_a)) + i sgn(c) (Si(y_T) - Si(y_a))) / j
(DLMF 6.2) without cutting the window: power series for Cin and Si at y <= 4,
the continued fraction of E1(iy) above.  Its error covers the truncation,
the rounding of each y and the rotation by e^{2*pi*i*c0} (see
_one_term_integral), about 1e-15 to 1e-13.  A phase whose e^{ja} or e^{jT}
overflows, or whose y_a is not a normal float, takes the quadrature above.

Phase data.  Every Phi^(k) comes from one integer vector: the transform
takes g as the pair (den, scaled) of polycore.phase_integers, with
scaled = den * g built from the family's integer matrix without a Fraction,
and den * Phi^(k) has the coefficients j^k * scaled[j].  Root isolation
takes the integer Phi' and Phi'' as they are; the float table holds the
quotients j^k * scaled[j] / den, each correctly rounded from the exact
rational, so a den that is not minimal changes no bit.  _PhaseTable.rows
reads arrays of points; _PhaseTable.at reads one Phi^(k) at one point (Phi'
in the t_star bisection, Phi to Phi''' at an IBP boundary), adding the
row's terms left to right from int 0.  Error state: osc_integral enters
np.errstate(over="ignore") once per transform, and every table read
happens inside that scope, since past the float range exp(j*t) reads inf;
the quadrature loop keeps its own, wider scope.

Measure bound.  |exp(2*pi*i*Phi)| = 1, so _capped charges a piece, or the
slow zone of an IBP piece, its length whenever integrating it fails or
reports a larger error.
"""

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polycore import (
    RationalPoly,
    clear_denominators,
    compute_a0_real,
    high_freq_constants,
    isolate_positive_roots,
    parse_float,
    parse_integer,
    parse_positive,
    parse_rational,
    parse_row,
    phase_integers,
)

LOW = "low"
HIGH = "high"

_DIRECT_SPAN = 24.0  # max |Delta Phi| (in periods) integrated without IBP
_MAX_PANELS = 400_000
_MAX_DEPTH = 52
_CC_N = 16
_BATCH = 32  # panels evaluated together by _adaptive_cc
_EPS = 2.3e-16  # float64 phase-evaluation granularity
_SPOT_POINTS = 32  # interior samples per interval in IntervalDecomposition.spot_check
_CISI_SPLIT = 4.0  # Ci and Si from power series at y <= 4, from a continued fraction above
_EULER = 0.5772156649015329  # Euler's constant, correctly rounded
_exp = math.exp  # one global lookup per term in _PhaseTable.at's loop


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement hits its depth/panel ceiling."""

    def __init__(self, message, partial=None, error=None):
        super().__init__(message)
        self.partial = partial
        self.error = error


@dataclass(frozen=True)
class Window:
    a: float
    T: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.T)):
            raise ValueError(f"window bounds must be finite; got {self.a!r}, {self.T!r}")
        if not self.T > self.a:
            raise ValueError("window needs T > a")

    @property
    def length(self):
        return self.T - self.a


def _as_window(w):
    """The one reader of a real window: a Window, or a pair (a, T) read by
    polycore.parse_row ("12" is not [1, 2]) whose bounds are no bools.  A
    bound is a number or a string that parse_rational reads ("1/2", "0.5"
    and "5e-1" alike); one that is neither, or overflows a float, raises a
    ValueError naming w, and Window refuses a nan or infinite bound."""
    if isinstance(w, Window):
        return w
    pair = "a real window must be a Window or a pair of numbers (a, T)"

    def bound(v):
        if isinstance(v, bool):
            raise ValueError(f"{pair}; got {w!r}")
        try:
            return float(parse_rational(v) if isinstance(v, str) else v)
        except (TypeError, ValueError, ArithmeticError):  # None, "abc"; "1e400" overflows
            raise ValueError(f"the bounds of the window {w!r} must be finite numbers") from None

    return Window(*parse_row(w, bound, pair, 2))


@dataclass(frozen=True)
class WitnessInterval:
    lo: float
    hi: float
    k: int  # |Phi^(k)| >= eta on [lo, hi]
    eta: float


@dataclass(frozen=True)
class IntervalDecomposition:
    intervals: tuple

    def __len__(self):
        return len(self.intervals)

    def spot_check(self, phi):
        """Verify each witness |Phi^{(k)}| >= eta at interior sample points;
        phi is the phase polynomial g, so Phi^{(k)}(t) = g.t_derivative(k)(e^t)."""
        for iv in self.intervals:
            der = phi.t_derivative(iv.k)
            ts = np.linspace(iv.lo, iv.hi, _SPOT_POINTS + 2)[1:-1]
            for t in ts:
                if abs(der(math.exp(t))) < iv.eta * (1 - 1e-9):
                    return False
        return True


@dataclass(frozen=True)
class CertifiedBound:
    C: float
    breakdown: dict  # case -> (interval budget, case total)
    constants: object  # HighFreqConstants snapshot


def vdc_bound(k, eta):
    """Oscillation bound 12*k/eta^(1/k) for phases with |psi^(k)| >= eta;
    k must be an integer of at least 1 (see parse_integer), and eta finite
    and positive (an infinite eta would bound by 0)."""
    k = parse_integer(k, "k")
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    eta = parse_positive(eta, "eta")
    return 12.0 * k / eta ** (1.0 / k)


# --- Clenshaw-Curtis panel rule --------------------------------------------


def _cc_rule(n):
    """Nodes cos(j*pi/n) (j = 0..n) and weights integrating exactly up to
    degree n on [-1, 1]; built from the cosine-transform identities."""
    j = np.arange(n + 1)
    theta = np.pi * j / n
    x = np.cos(theta)
    coef = np.cos(np.outer(np.arange(n + 1), theta)) * (2.0 / n)
    coef[:, 0] *= 0.5
    coef[:, -1] *= 0.5
    c = np.zeros(n + 1)
    even = np.arange(0, n + 1, 2)
    c[even] = 2.0 / (1.0 - even.astype(float) ** 2)
    c[0] = 2.0
    half = np.ones(n + 1)
    half[0] = 0.5
    half[-1] = 0.5
    return x, coef.T @ (c * half)


_CC_X, _CC_W = _cc_rule(_CC_N)
_CC_W_COARSE = _cc_rule(_CC_N // 2)[1]


def _adaptive_cc(values_at, lo, hi, tol_abs, phase_at=None, rel=0.0):
    """Adaptive bisection with the nested CC16/CC8 pair, evaluated in
    batches while keeping a depth-first traversal.

    Each step pops up to _BATCH panels from the top of the stack.
    values_at(ts) receives the nodes of all of them as one (panels, 17)
    array and returns the integrand values in that shape; the fine and
    coarse sums of the batch are one matmul each, and each panel's accept
    test then runs on plain floats.  phase_at(ts), when given, maps an
    array of points to Phi for the oscillation guard: a panel across which
    the phase 2*pi*Phi moves by more than pi is split unevaluated, so an
    aliased panel can never look converged, and the midpoints of every
    panel split in a step are phased in one call.  rel > 0 additionally
    accepts a panel at that relative accuracy -- only use it for
    sign-definite integrands (error/remainder weights), where per-panel
    relative control gives total relative control; the accepted estimates
    accumulate into the returned error bound either way.

    Every accept test depends on its own panel alone, so the accepted panels
    are those of one-at-a-time depth-first bisection (tests/oracles.py keeps
    that version as the reference).  The sums are kept in place and the
    stack holds O(_BATCH * depth) panels.  Raises QuadratureError once more
    than _MAX_PANELS panels are taken or one is deeper than _MAX_DEPTH, with
    the width still unresolved added to its error.  The accepted panels
    partition [lo, hi] and each moves Phi by at most half a period, so when
    |Phi(hi) - Phi(lo)| exceeds _MAX_PANELS / 2 periods (with a margin for
    rounding; a NaN span never does) that error is raised before any panel.
    """
    total = 0.0 + 0.0j
    err_total = 0.0
    width_all = hi - lo
    panels = 0
    fa, fb = phase_at(np.array([lo, hi])).tolist() if phase_at is not None else (0.0, 0.0)
    if abs(fb - fa) > 0.5 * _MAX_PANELS * (1.0 + 1e-9):
        raise QuadratureError("quadrature failed to converge", partial=total, error=width_all)
    stack = [(lo, hi, 0, fa, fb)]  # panels (a, b, depth, phase at a, phase at b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while stack:
            batch = stack[-_BATCH:]
            del stack[-_BATCH:]
            panels += len(batch)
            if panels > _MAX_PANELS or max(p[2] for p in batch) > _MAX_DEPTH:
                unresolved = sum(p[1] - p[0] for p in stack + batch)
                raise QuadratureError(
                    "quadrature failed to converge", partial=total, error=err_total + unresolved
                )
            run, split = [], []
            for p in batch:
                (split if phase_at is not None and abs(p[4] - p[3]) > 0.5 else run).append(p)
            if run:
                halves = [0.5 * (p[1] - p[0]) for p in run]
                centred = np.array([(0.5 * (p[0] + p[1]), h) for p, h in zip(run, halves)])
                vals = values_at(centred[:, :1] + centred[:, 1:] * _CC_X)
                fines = (vals @ _CC_W).tolist()
                coarses = (vals[:, ::2] @ _CC_W_COARSE).tolist()
                for p, half, fine, coarse in zip(run, halves, fines, coarses):
                    fine, coarse = half * fine, half * coarse
                    err = abs(fine - coarse)
                    budget = tol_abs * max((p[1] - p[0]) / width_all, 1e-300)
                    if err <= budget or err <= rel * abs(fine) or err <= 1e-15 * (1.0 + abs(fine)):
                        total += fine
                        err_total += err
                    else:
                        split.append(p)
            if split:
                mids = [0.5 * (p[0] + p[1]) for p in split]
                fms = phase_at(np.array(mids)).tolist() if phase_at is not None else [0.0] * len(mids)
                for (a, b, depth, fa, fb), mid, fm in zip(split, mids, fms):
                    stack.append((a, mid, depth + 1, fa, fm))
                    stack.append((mid, b, depth + 1, fm, fb))
    return total, err_total


# --- piecewise oscillatory integration --------------------------------------


class _PhaseTable:
    """Float coefficients of Phi, Phi', ..., Phi'''' for one transform.

    phase is the pair (den, scaled) of polycore.phase_integers: scaled[j] =
    den * g_j is an integer, so den * Phi^(k) has the integer coefficients
    j^k * scaled[j].  Row k holds j^k * scaled[j] / den for the nonzero
    terms, ascending.  Zero terms stay out: 0 * inf from an overflowed exp
    would be NaN.  Past the float range exp reads inf, and the caller's
    np.errstate scope (see osc_integral) keeps numpy quiet about it.  Two
    reads: rows, at an array of points from one shared table of exp(j*t),
    and at, for one of rows 0-3 at one point."""

    __slots__ = ("js", "coef", "_terms")

    def __init__(self, phase):
        den, scaled = phase
        terms = [(j, n) for j, n in enumerate(scaled) if n]
        js = [float(j) for j, _ in terms]
        # int / int is correctly rounded: the bits of float(c_j * j**k)
        coef = [[(n * j**k) / den for j, n in terms] for k in range(5)]
        self._terms = tuple(zip(*coef[:4], js))  # per term: its coefficients in rows 0-3, then j
        self.js = np.array(js)
        self.coef = np.array(coef)

    def rows(self, ks, ts):
        """Phi^(k) at ts for k in range(5)[ks], shape (rows,) + ts.shape."""
        ts = np.asarray(ts, dtype=float)
        powers = np.exp(self.js[:, None] * ts.reshape(1, -1))
        return (self.coef[ks] @ powers).reshape((-1,) + ts.shape)

    def phase(self, ts):
        """Phi at an array of points."""
        return self.rows(slice(0, 1), ts)[0]

    def at(self, t, k):
        """Phi^(k)(t) for k < 4, the row's terms added left to right from
        int 0; plain floats are cheaper than numpy calls for a handful of
        terms.  Past the float range math.exp raises, and the row is read
        again with numpy's exp, which gives inf as the array path does."""
        acc = 0
        try:
            for term in self._terms:
                acc += term[k] * _exp(term[-1] * t)
        except OverflowError:
            acc = 0
            for term, x in zip(self._terms, np.exp(self.js * t).tolist()):
                acc += term[k] * x
        return acc


@functools.lru_cache(maxsize=64)
def _x_window(a, T):
    """Rational x-range [e^a, e^T], padded by a relative 1e-15 on each side so
    that float rounding of exp cannot drop a root at the window's edge.
    Cached: it is pure, and every transform on a window needs it twice."""
    return (
        Fraction(math.exp(a)) * (1 - Fraction(1, 10**15)),
        Fraction(math.exp(T)) * (1 + Fraction(1, 10**15)),
    )


def _t_roots(poly, a, T):
    """t = ln x for the roots x of poly in (e^a, e^T), exactly isolated,
    ascending; poly is a RationalPoly or a list of integer coefficients."""
    ts = []
    for left, right in isolate_positive_roots(poly, *_x_window(a, T)):
        x = float(left + right) / 2.0
        if x > 0:
            t = math.log(x)
            if a < t < T:
                ts.append(t)
    return ts


def _breakpoints(scaled, a, T):
    """Interior roots of Phi' and Phi'' (t-coordinates), exactly isolated,
    from the integer coefficients scaled of den * g (see _PhaseTable)."""
    first = [j * n for j, n in enumerate(scaled)]
    second = [j * n for j, n in enumerate(first)]
    return sorted(set(_t_roots(first, a, T) + _t_roots(second, a, T)))


def _ibp_boundary(table, t):
    """Three-term stationary boundary e^{i psi}(1/(i psi') - psi''/psi'^3
    + (psi''' psi' - 3 psi''^2)/(i psi'^5)) at t, with psi = 2*pi*Phi, and
    the bound on its float64 argument-reduction error.

    Evaluated via q = 1/psi' and the ratios psi^(k)/psi', which stay modest
    even when psi' itself would overflow raised to the fifth power."""
    f, p1, p2, p3 = (math.tau * table.at(t, k) for k in range(4))
    e = complex(math.cos(f), math.sin(f))
    q = 1.0 / p1
    u2, u3 = p2 * q, p3 * q
    term = e * q * (-1j - u2 * q - 1j * (u3 - 3.0 * u2 * u2) * q * q)
    return term, 2.0 * abs(term) * min(1.0, abs(f) * _EPS)


def _phase_noise(table, lo, hi):
    """Honest bound on the float64 argument-reduction error of cos(2*pi*Phi)
    integrated over [lo, hi]; Phi is monotone there so |Phi| peaks at an end."""
    peak = float(np.max(np.abs(table.phase(np.array([lo, hi])))))
    return min(2.0 * (hi - lo), math.tau * peak * _EPS * (hi - lo))


def _integrate_piece(table, c, d, tol_piece):
    """One piece with Phi and Phi' monotone; returns (value, error_bound)."""

    def integrand(ts):
        return np.exp(2j * np.pi * table.phase(ts))

    def direct(lo, hi, tol):
        val, err = _adaptive_cc(integrand, lo, hi, tol, phase_at=table.phase)
        return val, err + _phase_noise(table, lo, hi)

    (phi_c, phi_d), (dc, dd) = table.rows(slice(0, 2), np.array([c, d])).tolist()
    if abs(phi_d - phi_c) <= _DIRECT_SPAN:
        return direct(c, d, tol_piece)

    # |Phi'| is monotone on the piece; identify the slow end
    dc, dd = abs(dc), abs(dd)
    slow_at_left = dc < dd
    omega = max(_DIRECT_SPAN / max(d - c, 1e-12), 1.0)

    def weight(ts):
        # |A'/psi'^5 - 5 A psi''/psi'^6| = |q^3 (u4 - 10 u2 u3 + 15 u2^3)|
        # with q = 1/psi', u_k = psi^(k)/psi'  (overflow-safe for huge psi')
        p1, p2, p3, p4 = math.tau * table.rows(slice(1, 5), ts)
        q = 1.0 / p1
        u2, u3, u4 = p2 * q, p3 * q, p4 * q
        return np.abs(q**3 * (u4 - 10.0 * u2 * u3 + 15.0 * u2**3)) + 0j

    for _ in range(60):
        if omega >= max(dc, dd):
            # no fast zone left; integrate the whole piece directly
            return direct(c, d, tol_piece)
        if min(dc, dd) >= omega:
            t_star = c if slow_at_left else d  # entire piece is fast
        else:
            lo, hi = c, d
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break  # float resolution reached; t_star below is mid
                if (abs(table.at(mid, 1)) < omega) == slow_at_left:
                    lo = mid
                else:
                    hi = mid
            t_star = 0.5 * (lo + hi)
        fast_lo, fast_hi = (t_star, d) if slow_at_left else (c, t_star)
        if fast_hi - fast_lo <= 1e-13 * max(1.0, abs(c), abs(d)):
            return direct(c, d, tol_piece)
        try:
            r3, werr = _adaptive_cc(weight, fast_lo, fast_hi, 0.05 * tol_piece + 1e-300, rel=0.05)
            r3 = abs(r3) + werr
        except QuadratureError:
            # the remainder integral would not converge at this omega, and a
            # failed refinement carries no usable estimate; force the growth
            # step below to push omega past the bad layer
            r3 = math.inf
        if math.isnan(r3):
            r3 = math.inf
        if r3 <= 0.4 * tol_piece:
            b_hi, noise_hi = _ibp_boundary(table, fast_hi)
            b_lo, noise_lo = _ibp_boundary(table, fast_lo)
            slow_lo, slow_hi = (c, t_star) if slow_at_left else (t_star, d)
            if slow_hi - slow_lo <= 0.5 * tol_piece:
                sval, serr = 0.0 + 0.0j, slow_hi - slow_lo  # measure bound: |integrand| = 1
            else:
                sval, serr = _capped(direct, slow_lo, slow_hi, 0.5 * tol_piece)
            return sval + b_hi - b_lo, serr + r3 + (noise_hi + noise_lo)
        # the remainder decays like Omega^-3; jump near the needed level
        jump = omega * (r3 / (0.4 * tol_piece)) ** (1.0 / 3.0) * 1.5
        omega = max(4.0 * omega, min(jump, 1e12 * omega))
    raise QuadratureError("IBP remainder failed to stabilize", partial=None, error=None)


def _capped(integrate, lo, hi, tol):
    """integrate(lo, hi, tol) as (value, error), or the measure bound
    (0, hi - lo) when it raises QuadratureError or its error exceeds hi - lo
    (a NaN error passes).  This rescues slivers between near-coincident
    breakpoints and slow zones whose phase exceeds float resolution."""
    try:
        val, err = integrate(lo, hi, tol)
    except QuadratureError:
        return 0.0 + 0.0j, hi - lo
    return (0.0 + 0.0j, hi - lo) if err > hi - lo else (val, err)


# --- one-term phases in closed form ------------------------------------------


def _cin_si_series(y):
    """(Cin(y), Si(y), error) for 0 <= y <= _CISI_SPLIT from the power series
    Cin(y) = sum_{k>=1} (-1)^(k+1) y^2k / (2k (2k)!) and Si(y) = sum_{k>=0}
    (-1)^k y^(2k+1) / ((2k+1) (2k+1)!), one loop over m with y^m / (m m!).
    Both series alternate with falling terms there, so the truncation is at
    most the last term taken; each term carries at most 2m roundings."""
    cin = si = size = 0.0
    power = term = 1.0
    m = 0
    while term > 2.0**-64:
        m += 1
        power *= y / m
        term = power / m
        size += term
        signed = -term if (m - 1) & 2 else term  # signs + + - - + + ... over m = 1, 2, 3, ...
        if m & 1:
            si += signed
        else:
            cin += signed
    return cin, si, term + 2 * m * _EPS * size


def _e1_imaginary(y):
    """(E1(iy), error) for y > _CISI_SPLIT from the continued fraction of
    e^{iy} E1(iy) by the modified Lentz method (cisi in Numerical Recipes,
    section 6.8); Ci(y) = -Re E1(iy) and Si(y) = pi/2 + Im E1(iy).  The
    error charges the last step's distance from 1 and 4 roundings per step,
    relative to the fraction's value."""
    b = complex(1.0, y)
    c = 1e300
    d = h = 1.0 / b
    for n in range(2, 100):
        step = -((n - 1) ** 2)
        b += 2.0
        d = 1.0 / (step * d + b)
        c = b + step / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return complex(math.cos(y), -math.sin(y)) * h, abs(h) * (abs(delta - 1.0) + 4 * n * _EPS)


def _ci_si_differences(ya, yT, span):
    """(Ci(yT) - Ci(ya), Si(yT) - Si(ya), error) for floats 0 < ya < yT with
    span = ln(yT / ya).  With both below _CISI_SPLIT the Ci difference is
    span - (Cin(yT) - Cin(ya)), so Euler's constant and the logarithms cancel
    exactly; with both above it, pi/2 cancels from the Si difference."""
    if yT <= _CISI_SPLIT:
        cin_a, si_a, err_a = _cin_si_series(ya)
        cin_T, si_T, err_T = _cin_si_series(yT)
        return span - (cin_T - cin_a), si_T - si_a, err_a + err_T + 2 * (span + 1) * _EPS
    e1_T, err_T = _e1_imaginary(yT)
    if ya > _CISI_SPLIT:
        e1_a, err_a = _e1_imaginary(ya)
        return e1_a.real - e1_T.real, e1_T.imag - e1_a.imag, err_a + err_T
    cin_a, si_a, err_a = _cin_si_series(ya)
    log_a = math.log(ya)
    ci_a = _EULER + log_a - cin_a
    return -e1_T.real - ci_a, (math.pi / 2 - si_a) + e1_T.imag, err_a + err_T + (abs(log_a) + 4) * _EPS


def _one_term_integral(den, scaled, j, a, T):
    """int_a^T exp(2*pi*i*(c0 + c e^{jt})) dt in closed form, as (value,
    error), for the phase (den, scaled) whose one nonconstant term is
    scaled[j] = den * c; None when e^{ja} or e^{jT} leaves the float range or
    y_a is not a normal float.

    With y = 2*pi*|c| e^{jt} (so dt = dy / (j y)) the integral is
    e^{2*pi*i*c0} ((Ci(y_T) - Ci(y_a)) + i sgn(c) (Si(y_T) - Si(y_a))) / j
    (DLMF 6.2).  c0 is reduced exactly to r = c0 - round(c0), |r| <= 1/2,
    from the integers, and the value reads |c| and the sign of r, so lam and
    -lam give real parts with the same bits.  The error sums:
      * the truncation and rounding that _ci_si_differences reports;
      * the rounding of each y: y = tau * |c| * exp(j t) is off by a
        relative delta_t <= (|j t| + 8) * _EPS (the rounding of c, tau, j*t,
        exp and two products), and since |dCi/dy|, |dSi/dy| <= 1/y and
        |dCin/dy| <= 2/y this moves the difference by at most 3 * delta_t per
        end.  At a huge y this is also the whole argument-reduction error of
        cos y and sin y: the float y is off by delta_t * y radians;
      * 8 * _EPS * |value| for the division by j and the rotation by
        2*pi*r, whose angle is off by a few roundings of at most pi."""
    n = scaled[j]
    try:
        ea, eT = _exp(j * a), _exp(j * T)
    except OverflowError:
        return None
    scale = math.tau * (abs(n) / den)
    ya, yT = scale * ea, scale * eT
    if not (ya >= sys.float_info.min and yT < math.inf):
        return None
    dci, dsi, err = _ci_si_differences(ya, yT, j * (T - a))
    err += 3 * (abs(j * a) + abs(j * T) + 16) * _EPS
    value = complex(dci / j, (dsi if n > 0 else -dsi) / j)
    s0 = abs(scaled[0])
    rem = s0 - (2 * s0 + den) // (2 * den) * den  # |c0| - round(|c0|), times den
    if rem:
        r = rem / den if scaled[0] > 0 else -rem / den
        value *= complex(math.cos(math.tau * r), math.sin(math.tau * r))
    return value, err / j + 8 * _EPS * abs(value)


def osc_integral(phase, a, T, tol_abs):
    """int_a^T exp(2*pi*i*Phi(t)) dt with an error estimate <= tol_abs, for
    Phi(t) = g(e^t) with g a RationalPoly or the pair (den, scaled) of
    polycore.phase_integers (the transform passes the pair; a RationalPoly
    is converted to it here).  Raises ValueError unless Window(a, T) is
    valid and tol_abs is finite and positive (see parse_positive).

    A phase with one nonconstant term, c0 + c e^{jt}, is integrated in
    closed form by _one_term_integral (the cosine and sine integrals), with
    an error of rounding alone, typically 1e-15 to 1e-13, which may exceed a
    tol_abs it cannot reach.  When e^{ja} or e^{jT} overflows, or
    2*pi*|c| e^{ja} is not a normal float, it falls back to the piecewise
    quadrature that every other phase takes."""
    Window(a, T)
    tol_abs = parse_positive(tol_abs, "tol_abs")
    den, scaled = clear_denominators(phase.coeffs) if isinstance(phase, RationalPoly) else phase
    terms = [j for j in range(1, len(scaled)) if scaled[j]]
    if not terms:
        # the same float as float(g(0)): int / int is correctly rounded
        c0 = scaled[0] / den if scaled else 0.0
        return complex(math.cos(math.tau * c0), math.sin(math.tau * c0)) * (T - a), 0.0
    if len(terms) == 1:
        closed = _one_term_integral(den, scaled, terms[0], a, T)
        if closed is not None:
            return closed
    table = _PhaseTable((den, scaled))
    knots = [a] + _breakpoints(scaled, a, T) + [T]
    piece = functools.partial(_integrate_piece, table)
    total, err = 0.0 + 0.0j, 0.0
    with np.errstate(over="ignore"):  # past the float range the phase reads inf
        for lo, hi in zip(knots, knots[1:]):
            val, e = _capped(piece, lo, hi, tol_abs * (hi - lo) / (T - a))
            total += val
            err += e
    return total, err


def check_window_real(family, window):
    """Raise ValueError unless the Window starts above the family's a0, the
    top common zero of its components in t (see compute_a0_real)."""
    a0 = compute_a0_real(family)
    if not window.a > a0:
        raise ValueError(f"window start {window.a} must exceed a0 = {a0}")


def parse_tol(tol):
    """tol as a float in (0, 1e-3], read by parse_float ("1e-4" is 1e-4): the
    one tolerance rule of the real transform, the minimizer and the pipeline."""
    tol = parse_float(tol, "tol")
    if not 0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    return tol


def mu_hat_real_with_error(family, window, lam, tol=1e-9):
    """Normalized transform (1/(T-a)) int_a^T cos(2*pi*Phi) dt within tol,
    as (value, error_estimate).

    Phi(t) = g(e^t) with g = sum_i lam_i f_i; exact integer phase
    construction (phase_integers), then osc_integral: the closed form in
    the cosine and sine integrals when g has one nonconstant term (error of
    rounding alone, about 1e-15 to 1e-13 times T - a), the piecewise
    oscillatory integrator above otherwise and when that form's exponentials
    leave the float range.  Raises ValueError unless tol lies in (0, 1e-3]
    (see parse_tol) and the window starts above a0, and QuadratureError
    (with the partial estimate attached) if refinement cannot reach tol.
    """
    window = _as_window(window)
    tol = parse_tol(tol)
    check_window_real(family, window)
    value, err = osc_integral(phase_integers(family, lam), window.a, window.T, tol * window.length)
    if err > tol * window.length * 1.5:
        raise QuadratureError("requested tolerance not reached", partial=value, error=err)
    mu = value.real / window.length
    if abs(mu) > 1 + 1e-7 + tol:
        raise ArithmeticError(f"mu_hat left [-1,1]: {mu}")
    return min(1.0, max(-1.0, mu)), err / window.length


def mu_hat_real(family, window, lam, tol=1e-9):
    """The value of mu_hat_real_with_error, with the same guards."""
    return mu_hat_real_with_error(family, window, lam, tol)[0]


# --- interval decompositions -------------------------------------------------


def superlevel_decompose(phi, M, window):
    """{t in [a,T] : |Phi(t)| >= M} as <= 3n intervals with Phi' monotone,
    for Phi(t) = phi(e^t) and a phase polynomial phi.

    Exact endpoint machinery: the crossings are roots of phi(x) -/+ M and the
    monotonicity cuts are roots of phi.t_derivative(2), all exactly isolated;
    the membership of each elementary gap is decided by one exact sign test.
    """
    window = _as_window(window)
    if phi.degree < 1:
        raise ValueError("phase must be nonconstant")
    M = parse_rational(M)
    if M <= 0:
        raise ValueError("level must be positive")
    xlo, xhi = _x_window(window.a, window.T)

    def cuts(poly):
        return {(left + right) / 2 for left, right in isolate_positive_roots(poly, xlo, xhi)}

    # phi.t_derivative(2) has phi's degree: its roots cut Phi' into monotone pieces
    curvature = cuts(phi.t_derivative(2))
    knots = sorted(cuts(phi - RationalPoly([M])) | cuts(phi + RationalPoly([M])) | curvature | {xlo, xhi})
    merged = []  # (x_left, x_right) runs of pieces where |phi| >= M, cut at the curvature roots
    for left, right in zip(knots, knots[1:]):
        if abs(phi((left + right) / 2)) < M:
            continue
        if merged and merged[-1][1] == left and left not in curvature:
            merged[-1] = (merged[-1][0], right)
        else:
            merged.append((left, right))
    intervals = []
    for left, right in merged:
        lo_t = max(window.a, math.log(float(left))) if left > 0 else window.a
        hi_t = min(window.T, math.log(float(right)))
        if hi_t > lo_t:
            intervals.append(WitnessInterval(lo_t, hi_t, 0, float(M)))
    if len(intervals) > 3 * phi.degree:
        raise ArithmeticError("superlevel interval count exceeded the 3n cap")
    return IntervalDecomposition(tuple(intervals))


def merge_intervals(sets):
    """Disjoint cover of a union of interval sets, with containment witnesses.

    Input: list of interval unions [(lo, hi), ...].  Output: list of
    (lo, hi, witness) where witness indexes a set containing [lo, hi].
    The sweep prefers extending the previous witness, so adjacent fragments
    covered by the same set fuse; the count is capped by 2 n^4.
    """
    if not sets:
        return []
    endpoints = sorted({float(e) for s in sets for iv in s for e in iv})
    out = []
    for x, y in zip(endpoints, endpoints[1:]):
        mid = 0.5 * (x + y)
        prev_w = out[-1][2] if out else None
        witness = None
        candidates = ([prev_w] if prev_w is not None else []) + list(range(len(sets)))
        for idx in candidates:
            if any(float(lo) <= mid <= float(hi) for lo, hi in sets[idx]):
                witness = idx
                break
        if witness is None:
            continue
        if out and out[-1][1] == x and out[-1][2] == witness:
            out[-1] = (out[-1][0], y, witness)
        else:
            out.append((x, y, witness))
    n = max(len(sets), max((len(s) for s in sets), default=1), 1)
    if len(out) > 2 * n**4:
        raise ArithmeticError("merged interval count exceeded the 2n^4 cap")
    return out


def witness_intervals(phi, k, eta, window):
    """Intervals where |Phi^{(k)}| >= eta, integration-ready for order k.

    Built from the superlevel decomposition of Phi^{(k)}; for k = 1 the
    pieces are additionally cut at the roots of Phi'' so the first-derivative
    oscillation estimate's monotonicity proviso holds.
    """
    window = _as_window(window)
    dec = superlevel_decompose(phi.t_derivative(k), eta, window)
    cuts = _t_roots(phi.t_derivative(2), window.a, window.T) if k == 1 else []
    out = []
    for iv in dec.intervals:
        inner = [t for t in cuts if iv.lo < t < iv.hi]
        knots = [iv.lo] + inner + [iv.hi]
        for lo, hi in zip(knots, knots[1:]):
            out.append(WitnessInterval(lo, hi, k, float(eta)))
    return IntervalDecomposition(tuple(out))


def certified_constant_real(family):
    """The uniform constant C with mu_hat_T(lambda) >= -C/(T-a) for all
    frequencies and all valid windows.

    Low class: on {|Phi| >= 1/4} some |Phi^{(k)}| >= 1/(8Hn) (interpolation
    through the all-ones target); high class: some |Phi^{(k)}| >= eps/(nH')
    (single-coordinate targets plus the submatrix inversion bound).  Each
    surviving interval is charged the worst oscillation bound over k, with
    the phase scaled by 2*pi, and the interval budget kappa = 3n * 2(3n)^4
    composes the two decomposition lemmas.  When L = 0 every frequency is in
    the low class and the high case is vacuous.
    """
    hc = high_freq_constants(family)
    n = family.n
    kappa = 3 * n * 2 * (3 * n) ** 4
    eta_low = math.tau / (8.0 * hc.H * n)
    low_total = kappa * max(vdc_bound(k, eta_low) for k in range(1, n + 1))
    if hc.L == 0.0:
        high = (0, 0.0)
        c_val = low_total
    else:
        eta_high = math.tau * hc.eps / (n * hc.H_prime)
        high_total = kappa * max(vdc_bound(k, eta_high) for k in range(1, n + 1))
        high = (kappa, high_total)
        c_val = max(low_total, high_total)
    return CertifiedBound(C=c_val, breakdown={LOW: (kappa, low_total), HIGH: high}, constants=hc)

