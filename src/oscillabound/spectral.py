"""Spectral bounds driven by the minimum of the transform, and the pipeline
tying the certified constants to independence-ratio / chromatic bounds.

For a symmetric probability measure the bottom of the numerical range of the
convolution operator equals inf over frequencies of the transform, so every
formula here consumes a scalar m < 0 (and sometimes a top value M or an
operator-norm pair (R, eps)) rather than an operator.  The minimizer is a
heuristic: it reports the smallest transform value found, which is an upper
bound for the true infimum; rigorous statements always go through the
certified constants instead.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .padic import PadicWindow, certified_bound_padic, check_window_padic, echelon_reduce, mu_hat_padic
from .polycore import parse_integer
from .realosc import QuadratureError, _as_window, certified_constant_real, check_window_real, mu_hat_real, parse_tol

_GRID_STAGE = 4096  # coarse-grid candidates before refinement starts
_N_STARTS = 5  # compass searches, seeded from the best grid cells
_COMPASS_ITERS = 200
_POINTS_PER_DECADE = 17
_MAG_LO, _MAG_HI = -6, 6  # log10 magnitude range of the real grid
_VAL_LO, _VAL_HI = -6, 2  # valuation range of the p-adic lattice
_MAX_DENOMINATOR = 10**9  # of a compass coordinate and a real grid value


def hoffman_ratio_bound(m_val):
    """Independence-ratio bound -m/(1-m) from a spectral minimum m < 0:
    operator_ratio_bound(m, 1, 0).

    Exact inputs (Fraction, int) give exact outputs.
    """
    return operator_ratio_bound(m_val, 1, 0)


def operator_ratio_bound(m_val, R, eps):
    """Ratio bound (-m + 2*eps)/(R - m - eps) for an operator-norm pair.

    m < 0 is the spectral minimum, R bounds the operator norm and eps >= 0
    the defect; requires the denominator R - m - eps > 0.
    """
    if not m_val < 0:
        raise ValueError("spectral minimum must be negative")
    if not eps >= 0:
        raise ValueError(f"the defect eps must be nonnegative; got {eps!r}")
    denom = R - m_val - eps
    if not denom > 0:
        raise ValueError(f"need R - m - eps > 0, got {denom}")
    return (-m_val + 2 * eps) / denom


def hoffman_chromatic_bound(m_val, M_val):
    """Chromatic lower bound 1 - M/m from spectral extremes m < 0 < M."""
    if not m_val < 0:
        raise ValueError("spectral minimum must be negative")
    if not M_val > 0:
        raise ValueError("spectral maximum must be positive")
    return 1 - M_val / m_val


@dataclass(frozen=True)
class MinimizationReport:
    best_lambda: tuple
    best_value: float
    grid_spec: dict
    trace: tuple  # (stage, lambda, value) rows, one per strict improvement
    evaluations: int
    failed: int  # evaluations whose transform raised, each cached as inf
    partial: bool  # budget ran out before the candidate stream ended


@dataclass(frozen=True)
class PipelineResult:
    certified_C: float
    certified_ratio_bound: float  # C/(T-a), upper bound for independence ratio
    chromatic_lower_bound: float  # (T-a)/C
    empirical_min: float  # smallest transform value found (upper bound on inf)
    empirical_ratio_bound: float | None  # -m/(1-m) at the empirical minimum m; None if m >= 0
    report: MinimizationReport


@dataclass(frozen=True)
class Certificate:
    window: object  # the Window or PadicWindow it holds on
    length: float | int  # T - a
    C: float | Fraction  # mu_hat >= -C/length at every frequency; exactly B*length/L over Q_p
    bound: object = None  # over R, the realosc.CertifiedBound that C comes from
    B: int | None = None  # over Q_p
    echelon: tuple | None = None  # over Q_p, echelon_reduce's (row transform, reduced family) behind B


def certificate(family, window):
    """The Certificate of family on window, in the window's field; first a
    ValueError unless the window starts above a0 (R) or the essential part (Q_p)."""
    if isinstance(window, PadicWindow):
        check_window_padic(family, window)
        echelon, length = echelon_reduce(family), window.T - window.a
        b = certified_bound_padic(echelon[1], window)
        return Certificate(window, length, b * length / window.L, B=b, echelon=echelon)
    w = _as_window(window)
    check_window_real(family, w)
    bound = certified_constant_real(family)
    return Certificate(w, w.length, bound.C, bound)


class PipelineConsistencyError(RuntimeError):
    """Empirical minimum fell below the certified floor, or a sampled edge
    refuted a coloring the threshold admits: one of the two sides is wrong,
    and everything downstream is suspect."""

    def __init__(self, message, diagnostics):
        super().__init__(message + " | " + repr(diagnostics))
        self.diagnostics = diagnostics


class _BudgetExhausted(Exception):
    pass


def _nearest(n, d):
    """The fraction nearest n/d (d > 0) with denominator at most
    _MAX_DENOMINATOR, as a lowest-terms (numerator, denominator) pair: the
    standard library's nearest-fraction rounding of Fraction(n, d), in
    integers.

    n/d need not be in lowest terms.  The continued fraction of n/d runs
    until the next convergent's denominator would pass the bound; the answer
    is then the last convergent p1/q1 or the semiconvergent with the largest
    admissible denominator, whichever is closer, and p1/q1 on a tie, as the
    standard library rules."""
    if d <= _MAX_DENOMINATOR:
        g = math.gcd(n, d)
        return n // g, d // g
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while den:
        a = num // den
        q2 = q0 + a * q1
        if q2 > _MAX_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    else:
        return p1, q1  # n/d itself has a denominator within the bound
    k = (_MAX_DENOMINATOR - q0) // q1
    # p1/q1 lies den/(q1 d) from n/d and 1/(q1 q) from the semiconvergent
    # (p0 + k p1)/q, q = q0 + k q1, on n/d's other side
    if 2 * den * (q0 + k * q1) <= d:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


@functools.cache
def _real_axis_values():
    """0 and +-10^(lo + k/17) as small-denominator exact rationals, built
    once per process."""
    vals = [Fraction(0)]
    steps = (_MAG_HI - _MAG_LO) * _POINTS_PER_DECADE
    for k in range(steps + 1):
        mag = Fraction(*_nearest(*(10.0 ** (_MAG_LO + k / _POINTS_PER_DECADE)).as_integer_ratio()))
        vals.append(mag)
        vals.append(-mag)
    return tuple(vals)


def _grid_stream(axis_values, m, rng):
    """A fixed pseudo-random walk over the product grid: exhaustive shuffle
    when the product is small, i.i.d. index draws (duplicates skipped via a
    seen-set) when it is astronomically large."""
    n = len(axis_values)
    product = n**m
    if product <= 4 * _GRID_STAGE:
        cells = list(itertools.product(range(n), repeat=m))
        rng.shuffle(cells)
        for cell in cells:
            yield tuple(axis_values[i] for i in cell)
        return
    seen = set()
    for _ in range(4 * _GRID_STAGE):
        cell = tuple(rng.randrange(n) for _ in range(m))
        if cell in seen:
            continue
        seen.add(cell)
        yield tuple(axis_values[i] for i in cell)


def _cache_key(lam):
    """The (numerator, denominator) pairs of lam or -lam, whichever has its
    first nonzero component positive, with the sign read off the integer
    numerators.  A Fraction is kept in lowest terms with a positive
    denominator, so two frequencies share a key iff they are equal or
    opposite, and hashing ints costs no modular inverse."""
    pairs = [(x.numerator, x.denominator) for x in lam]
    for n, _ in pairs:
        if n:
            return tuple(pairs) if n > 0 else tuple((-n, d) for n, d in pairs)
    return tuple(pairs)


def _compass_search(evaluate, lam, val):
    """Coordinate pattern search with shrinking steps from (lam, val);
    yields each (lambda, value) it moves to, every one better than the last.

    Each coordinate and each step is held as an integer (numerator,
    denominator) pair, and a candidate is rounded by _nearest; only the
    rounded coordinate becomes a Fraction, for evaluate."""
    lam = tuple(lam)
    pairs = [(x.numerator, x.denominator) for x in lam]
    step = [(3 * abs(n), 4 * d) if n else (1, 10**6) for n, d in pairs]
    for _ in range(_COMPASS_ITERS):
        best, best_val = None, val
        for i, ((n, d), (s, e)) in enumerate(zip(pairs, step)):
            for signed in (s * d, -s * d):
                p, q = _nearest(n * e + signed, d * e)
                cand = (*lam[:i], Fraction(p, q), *lam[i + 1 :])
                v = evaluate(cand)
                if v < best_val:
                    best, best_val = (i, p, q, cand), v
        if best is None:
            step = [(s, 2 * e) for s, e in step]
            # stop once max(step) < max(1, max |lam_i|) / _MAX_DENOMINATOR
            top_n, top_d = 1, 1
            for n, d in pairs:
                if abs(n) * top_d > top_n * d:
                    top_n, top_d = abs(n), d
            if all(s * _MAX_DENOMINATOR * top_d < top_n * e for s, e in step):
                break
        else:
            i, p, q, lam = best
            pairs[i], val = (p, q), best_val
            yield lam, val


def _real_candidates(evaluate, m, seed):
    """The real search as a stream of (stage, lambda, value): every cell of
    the shuffled grid's first _GRID_STAGE, then each move of the compass
    searches started from the _N_STARTS best of them."""
    scored = []
    for lam in itertools.islice(_grid_stream(_real_axis_values(), m, random.Random(seed)), _GRID_STAGE):
        v = evaluate(lam)
        yield "grid", lam, v
        scored.append((v, lam))
    scored.sort(key=lambda t: t[0])
    for v, lam in scored[:_N_STARTS]:
        for moved, val in _compass_search(evaluate, lam, v):
            yield "refine", moved, val


def _padic_axis_values(p):
    """0 and u*p^v for units u mod p^2 and valuations in the documented range."""
    vals = [Fraction(0)]
    units = [u for u in range(1, p * p) if u % p != 0]
    for v in range(_VAL_LO, _VAL_HI + 1):
        pv = Fraction(p) ** v
        for u in units:
            vals.append(u * pv)
    return vals


def minimize_mu_hat(family, window, budget=None, seed=0, tol=1e-6):
    """Smallest transform value over a documented frequency collection.

    The window names the field.  A Window or (a, T) means R: a shuffled
    log-magnitude grid (17 points per decade, both signs, zero included)
    followed by compass pattern searches from the five best cells.  Each
    compass sweep tries lam_i +- step_i for every i, each rounded to the
    nearest fraction with denominator <= 10^9, and moves to the best strict
    improvement; the first step is 3/4 |lam_i| (1e-6 at zero), every step
    halves after a sweep without one, and a search stops once max step <
    1e-9 * max(1, max |lam_i|), or after 200 sweeps.  A
    PadicWindow means Q_p at window.p: exhaustive enumeration of the lattice
    {0} U {u p^v : u unit mod p^2, -6 <= v <= 2} per axis.  Either way tol
    must lie in (0, 1e-3] (realosc.parse_tol), seed must be an integer and
    budget a positive one, or None for the default (both read by
    polycore.parse_integer: 7.0 is 7; 3.5, True and nan are not).  The
    lattice order does not depend on the seed, so over Q_p the seed is
    checked and then changes nothing.

    The candidate stream is a fixed sequence for a given (family, window,
    seed); the budget is a prefix length, so the reported best value is
    monotone non-increasing in the budget.  The result is an upper bound
    on the true infimum, never a certificate.

    Both transforms are even, mu_hat(lam) = mu_hat(-lam) to the bit (the
    tests assert it), so every value is cached under the sign-canonical lam
    (first nonzero component positive), keyed by its integer (numerator,
    denominator) pairs, and reused for -lam; `evaluations` and the budget
    count the cached, distinct sign-canonical transforms.
    No lattice coordinate is negative, so every cell is its own key, the
    p-adic cache never hits, and each cell counts once.  Only a real
    candidate may fail: its QuadratureError or ArithmeticError is cached as
    inf, and counted in `failed` as well as in `evaluations`.  Raises
    ValueError if every evaluated candidate failed.

    The p-adic cells reduce, modulo Z_p[u], to far fewer unit-ball averages
    than they visit, so one descent memo (see padic.mu_hat_padic) serves a
    whole call: it holds descents only, keyed by integer numerators that
    name their prime, while every cell reads the window's ball weights,
    built once per window object (PadicWindow.ball_weights).  Each cell is
    still one transform call, with exactly the value that a call with its
    own memo gives.
    """
    tol, seed = parse_tol(tol), parse_integer(seed, "seed")
    cache, failed = {}, 0

    def evaluate(lam):
        key = _cache_key(lam)
        v = cache.get(key)
        if v is None:
            if len(cache) >= budget:
                raise _BudgetExhausted
            v = cache[key] = transform(lam)
        return v

    if isinstance(window, PadicWindow):
        axis, descents = _padic_axis_values(window.p), {}  # descents: shared by every cell
        grid_spec = {
            "field": f"padic:{window.p}",
            "axes": family.m,
            "valuation_range": [_VAL_LO, _VAL_HI],
            "unit_modulus": window.p * window.p,
            "includes_zero": True,
        }

        def transform(lam):
            return float(mu_hat_padic(family, window, lam, memo=descents))

        stream = (("lattice", cell, evaluate(cell)) for cell in itertools.product(axis, repeat=family.m))
        budget = len(axis) ** family.m if budget is None else budget
    else:
        w = _as_window(window)
        grid_spec = {
            "field": "real",
            "axes": family.m,
            "magnitude_range": [10.0**_MAG_LO, 10.0**_MAG_HI],
            "points_per_decade": _POINTS_PER_DECADE,
            "signs": [-1, 1],
            "includes_zero": True,
        }

        def transform(lam):
            nonlocal failed
            try:
                return mu_hat_real(family, w, lam, tol=tol)
            except (QuadratureError, ArithmeticError):
                failed += 1
                return math.inf  # unusable candidate; keep searching elsewhere

        stream = _real_candidates(evaluate, family.m, seed)
        budget = 10_000 if budget is None else budget
    budget = parse_integer(budget, "budget")
    if budget < 1:
        raise ValueError("budget must allow at least one evaluation")

    best_lam, best_val, trace, partial = None, math.inf, [], True
    try:
        for stage, lam, val in stream:
            if val < best_val:
                best_lam, best_val = lam, val
                trace.append((stage, lam, val))
        partial = False
    except _BudgetExhausted:
        pass
    if best_lam is None:
        raise ValueError(f"all {len(cache)} evaluated candidates failed with QuadratureError or ArithmeticError")
    return MinimizationReport(
        best_lambda=best_lam,
        best_value=best_val,
        grid_spec=grid_spec,
        trace=tuple(trace),
        evaluations=len(cache),
        failed=failed,
        partial=partial,
    )


def independence_pipeline(family, window, budget=None, seed=0, tol=1e-6):
    """Certified C and ratio/chromatic bounds next to the empirical minimum.

    C comes from certificate(family, window), as certify's does, so over Q_p
    the floor -C/(T-a) = -B/L is exact and each field is rounded once from
    it.  Raises PipelineConsistencyError, diagnostics attached, when the
    empirical minimum dips below floor - tol, which only a wrong certificate
    or quadrature can cause.  empirical_ratio_bound is None unless the
    empirical minimum is negative, as the Hoffman bound needs m < 0; the
    certified fields stand either way.  tol is read (see realosc.parse_tol)
    before any certificate work.
    """
    tol = parse_tol(tol)
    cert = certificate(family, window)
    w, certified, length = cert.window, cert.C, cert.length
    report = minimize_mu_hat(family, w, budget=budget, seed=seed, tol=tol)
    m_hat = report.best_value
    floor = -certified / length
    if m_hat < floor - tol:
        raise PipelineConsistencyError(
            "empirical minimum broke the certified floor",
            {
                "family": [[str(c) for c in f.coeffs] for f in family.polys],
                "window": (w.a, w.T),
                "field": report.grid_spec["field"],
                "empirical_min": m_hat,
                "at_lambda": report.best_lambda,
                "certified_C": float(certified),
                "floor": float(floor),
                "tol": tol,
            },
        )
    empirical_ratio = float(hoffman_ratio_bound(m_hat)) if m_hat < 0 else None
    return PipelineResult(
        certified_C=float(certified),
        certified_ratio_bound=float(certified / length),
        chromatic_lower_bound=float(length / certified),
        empirical_min=m_hat,
        empirical_ratio_bound=empirical_ratio,
        report=report,
    )
