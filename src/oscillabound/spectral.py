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

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .padic import PadicWindow, certified_bound_padic, echelon_reduce, mu_hat_padic
from .realosc import QuadratureError, Window, _as_window, certified_constant_real, mu_hat_real

_GRID_STAGE = 4096  # coarse-grid candidates before refinement starts
_N_STARTS = 5  # compass searches, seeded from the best grid cells
_COMPASS_ITERS = 200
_POINTS_PER_DECADE = 17
_MAG_LO, _MAG_HI = -6, 6  # log10 magnitude range of the real grid
_VAL_LO, _VAL_HI = -6, 2  # valuation range of the p-adic lattice


def hoffman_ratio_bound(m_val):
    """Independence-ratio bound -m/(1-m) from a spectral minimum m < 0.

    Exact inputs (Fraction, int) give exact outputs.
    """
    if not m_val < 0:
        raise ValueError("spectral minimum must be negative")
    return -m_val / (1 - m_val)


def operator_ratio_bound(m_val, R, eps):
    """Ratio bound (-m + 2*eps)/(R - m - eps) for an operator-norm pair.

    R bounds the operator norm and eps the defect; requires the denominator
    R - m - eps > 0.  With (R, eps) = (1, 0) this is hoffman_ratio_bound.
    """
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
    partial: bool  # budget ran out before the candidate stream ended


@dataclass(frozen=True)
class PipelineResult:
    certified_C: float
    certified_ratio_bound: float  # C/(T-a), upper bound for independence ratio
    chromatic_lower_bound: float  # (T-a)/C
    empirical_min: float  # smallest transform value found (upper bound on inf)
    empirical_ratio_bound: float  # -m/(1-m) at the empirical minimum
    report: MinimizationReport


class PipelineConsistencyError(RuntimeError):
    """Empirical minimum fell below the certified floor: one of the two is
    wrong, and everything downstream is suspect."""

    def __init__(self, message, diagnostics):
        super().__init__(message + " | " + repr(diagnostics))
        self.diagnostics = diagnostics


def _normalize_field(field):
    """-> ('real', None) or ('padic', p).

    Accepts 'real' (or 'R', None), a prime p, ('padic', p), 'padic:p' and
    {'padic': p}.  p must be an int, or a string of digits inside the three
    spelled-out forms; PadicWindow checks that p is prime.
    """
    if field in ("real", "R", None):
        return "real", None
    p = None
    if isinstance(field, int):
        p = field
    elif isinstance(field, (tuple, list)) and len(field) == 2 and field[0] == "padic":
        p = field[1]
    elif isinstance(field, dict) and "padic" in field:
        p = field["padic"]
    elif isinstance(field, str) and field.startswith("padic"):
        p = field.replace("padic", "").strip(":- ")
    if isinstance(p, str) and p.isdigit():
        p = int(p)
    if isinstance(p, int) and not isinstance(p, bool):
        return "padic", p
    raise ValueError(
        f"field must be 'real', a prime p, ('padic', p) or {{'padic': p}} with p an integer; got {field!r}"
    )


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def take(self):
        if self.used >= self.limit:
            raise _BudgetExhausted
        self.used += 1


class _BudgetExhausted(Exception):
    pass


def _real_axis_values():
    """0 and +-10^(lo + k/17) as small-denominator exact rationals."""
    vals = [Fraction(0)]
    steps = (_MAG_HI - _MAG_LO) * _POINTS_PER_DECADE
    for k in range(steps + 1):
        mag = Fraction(10.0 ** (_MAG_LO + k / _POINTS_PER_DECADE)).limit_denominator(10**9)
        vals.append(mag)
        vals.append(-mag)
    return vals


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


def _compass_search(evaluate, lam, val, record):
    """Coordinate pattern search with shrinking steps; mutates nothing,
    returns the best (lambda, value) reached."""
    lam = [Fraction(x) for x in lam]
    step = [abs(x) * Fraction(3, 4) if x != 0 else Fraction(1, 10**6) for x in lam]
    for _ in range(_COMPASS_ITERS):
        best_cand, best_val = None, val
        for i in range(len(lam)):
            for sgn in (1, -1):
                cand = list(lam)
                cand[i] = (cand[i] + sgn * step[i]).limit_denominator(10**9)
                v = evaluate(tuple(cand))
                if v < best_val:
                    best_cand, best_val = cand, v
        if best_cand is None:
            step = [s / 2 for s in step]
            if max(step) < Fraction(1, 10**9) * max(1, max(abs(x) for x in lam)):
                break
        else:
            lam, val = best_cand, best_val
            record(tuple(lam), val)
    return tuple(lam), val


def _padic_axis_values(p):
    """0 and u*p^v for units u mod p^2 and valuations in the documented range."""
    vals = [Fraction(0)]
    units = [u for u in range(1, p * p) if u % p != 0]
    for v in range(_VAL_LO, _VAL_HI + 1):
        pv = Fraction(p) ** v
        for u in units:
            vals.append(u * pv)
    return vals


def minimize_mu_hat(family, window, field="real", budget=None, seed=0, tol=1e-6):
    """Smallest transform value over a documented frequency collection.

    Real field: a shuffled log-magnitude grid (17 points per decade, both
    signs, zero included) followed by compass pattern searches from the five
    best cells.  p-adic field: exhaustive enumeration of the lattice
    {0} U {u p^v : u unit mod p^2, -6 <= v <= 2} per axis.

    The candidate stream is a fixed sequence for a given (family, window,
    field, seed); the budget is a prefix length, so the reported best value
    is monotone non-increasing in the budget.  The result is an upper bound
    on the true infimum, never a certificate.
    """
    kind, p = _normalize_field(field)
    if budget is None:
        budget = 10_000 if kind == "real" else len(_padic_axis_values(p)) ** family.m
    if budget < 1:
        raise ValueError("budget must allow at least one evaluation")

    best_lam, best_val = None, math.inf
    trace = []
    cache = {}
    counter = _Budget(budget)

    def record(lam, val):
        nonlocal best_lam, best_val
        if val < best_val:
            best_lam, best_val = lam, val
            trace.append((stage, lam, val))

    if kind == "real":
        w = _as_window(window)
        grid_spec = {
            "field": "real",
            "axes": family.m,
            "magnitude_range": [10.0**_MAG_LO, 10.0**_MAG_HI],
            "points_per_decade": _POINTS_PER_DECADE,
            "signs": [-1, 1],
            "includes_zero": True,
        }

        def evaluate(lam):
            if lam in cache:
                return cache[lam]
            counter.take()
            try:
                v = mu_hat_real(family, w, lam, tol=tol)
            except (QuadratureError, ArithmeticError):
                v = math.inf  # unusable candidate; keep searching elsewhere
            cache[lam] = v
            return v

        partial = True
        stage = "grid"
        try:
            rng = random.Random(seed)
            scored = []
            for lam in itertools.islice(_grid_stream(_real_axis_values(), family.m, rng), _GRID_STAGE):
                v = evaluate(lam)
                record(lam, v)
                scored.append((v, lam))
            scored.sort(key=lambda t: t[0])
            stage = "refine"
            for v, lam in scored[:_N_STARTS]:
                _compass_search(evaluate, lam, v, record)
            partial = False
        except _BudgetExhausted:
            pass
    else:
        w = window if isinstance(window, PadicWindow) else PadicWindow(int(window[0]), int(window[1]), p)
        if w.p != p:
            raise ValueError(f"window prime {w.p} does not match field prime {p}")
        axis = _padic_axis_values(p)
        grid_spec = {
            "field": f"padic:{p}",
            "axes": family.m,
            "valuation_range": [_VAL_LO, _VAL_HI],
            "unit_modulus": p * p,
            "includes_zero": True,
        }
        partial = True
        stage = "lattice"
        try:
            for cell in itertools.product(axis, repeat=family.m):
                counter.take()
                v = float(mu_hat_padic(family, w, cell))
                record(cell, v)
            partial = False
        except _BudgetExhausted:
            pass

    if best_lam is None:
        raise ValueError("budget produced no evaluations")
    return MinimizationReport(
        best_lambda=best_lam,
        best_value=best_val,
        grid_spec=grid_spec,
        trace=tuple(trace),
        evaluations=counter.used,
        partial=partial,
    )


def independence_pipeline(family, window, field="real", budget=None, seed=0, tol=1e-6):
    """Certified C and ratio/chromatic bounds next to the empirical minimum.

    Raises PipelineConsistencyError when the empirical minimum dips below the
    certified floor -C/(T-a) - tol; that can only happen if the certificate
    or the quadrature is wrong, so the full diagnostics ride on the error.
    """
    kind, p = _normalize_field(field)
    if kind == "real":
        w = _as_window(window)
        length = w.length
        certified = certified_constant_real(family).C
    else:
        w = window if isinstance(window, PadicWindow) else PadicWindow(int(window[0]), int(window[1]), p)
        length = w.T - w.a
        _, reduced = echelon_reduce(family)
        bound_b = certified_bound_padic(reduced, w)
        certified = bound_b * length / float(w.L)  # so that C/(T-a) = B/L

    report = minimize_mu_hat(family, w, field=field, budget=budget, seed=seed, tol=tol)
    m_hat = report.best_value
    floor = -certified / length
    if m_hat < floor - tol:
        raise PipelineConsistencyError(
            "empirical minimum broke the certified floor",
            {
                "family": [[str(c) for c in f.coeffs] for f in family.polys],
                "window": (w.a, w.T),
                "field": kind if p is None else f"padic:{p}",
                "empirical_min": m_hat,
                "at_lambda": report.best_lambda,
                "certified_C": certified,
                "floor": floor,
                "tol": tol,
            },
        )
    empirical_ratio = float(hoffman_ratio_bound(m_hat)) if m_hat < 0 else 0.0
    return PipelineResult(
        certified_C=float(certified),
        certified_ratio_bound=float(certified) / length,
        chromatic_lower_bound=length / float(certified),
        empirical_min=m_hat,
        empirical_ratio_bound=empirical_ratio,
        report=report,
    )
