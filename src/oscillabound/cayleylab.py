"""Combinatorial companions on the difference-set side: box-set density and
configuration search, the multivariate-to-curve reduction, Bezout clique
data with a sample clique search, and the two-level periodic coloring check.

Everything here is desk-scale and demonstrative: Found/NotFound outcomes and
sample cliques are witnesses, never certificates of nonexistence.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polycore import CurveFamily, RationalPoly, _bareiss, check_independence, parse_rational

_MEMBERSHIP_TOL = 1e-9  # curve-membership tolerance for float samples
_DENSITY_GRID = 200  # grid cells per axis in upper_density_estimate
_COLORING_SAMPLES = 20001  # sample points on one period in coloring_threshold


# --- box sets ----------------------------------------------------------------


class BoxSet:
    """Union of axis-aligned boxes, optionally replicated by per-axis periods.

    boxes: list of boxes, each a list of per-axis (lo, hi) pairs; lo/hi may
    be None for an unbounded side.  period: None, or a per-axis list whose
    entries are positive rationals (that axis repeats) or None (it does not).
    Membership is exact on rational points; boxes are closed and may overlap.
    """

    def __init__(self, boxes, period=None, dim=None):
        if not boxes and dim is None:
            raise ValueError("an empty box set needs an explicit dim")
        self.dim = len(boxes[0]) if boxes else int(dim)
        self.boxes = []
        for box in boxes:
            if len(box) != self.dim:
                raise ValueError("boxes must share one dimension")
            cleaned = []
            for lo, hi in box:
                lo = None if lo is None else parse_rational(lo)
                hi = None if hi is None else parse_rational(hi)
                if lo is not None and hi is not None and lo > hi:
                    raise ValueError("box with lo > hi")
                cleaned.append((lo, hi))
            self.boxes.append(tuple(cleaned))
        if period is None:
            self.period = (None,) * self.dim
        else:
            if len(period) != self.dim:
                raise ValueError("period vector must match dimension")
            per = []
            for p in period:
                p = None if p is None else parse_rational(p)
                if p is not None and p <= 0:
                    raise ValueError("periods must be positive")
                per.append(p)
            self.period = tuple(per)

    @classmethod
    def from_json(cls, data):
        return cls(data["boxes"], data.get("period"), data.get("dim"))

    def _axis_inside(self, i, x, lo, hi):
        if self.period[i] is not None:
            x = x % self.period[i]
        return (lo is None or x >= lo) and (hi is None or x <= hi)

    def contains(self, point):
        """Exact membership for a rational point (floats converted exactly)."""
        xs = [parse_rational(v) for v in point]
        if len(xs) != self.dim:
            raise ValueError("point dimension mismatch")
        for box in self.boxes:
            if all(self._axis_inside(i, xs[i], lo, hi) for i, (lo, hi) in enumerate(box)):
                return True
        return False

    __contains__ = contains

    def _axis_distance(self, i, x, lo, hi):
        """Distance from x to the interval on axis i (0 when inside)."""
        p = self.period[i]
        if p is not None:
            x = x % p
        if (lo is None or x >= lo) and (hi is None or x <= hi):
            return Fraction(0)
        gaps = []
        if lo is not None and x < lo:
            gaps.append(lo - x)
            if p is not None and hi is not None:
                gaps.append(x + p - hi)  # wrap around the other way
        if hi is not None and x > hi:
            gaps.append(x - hi)
            if p is not None and lo is not None:
                gaps.append(lo + p - x)
        return min(gaps)

    def distance(self, point):
        """Min over boxes of the max axis distance (an exact L^inf gap)."""
        xs = [parse_rational(v) for v in point]
        if not self.boxes:
            return Fraction(10**9)
        best = None
        for box in self.boxes:
            d = max(
                (self._axis_distance(i, xs[i], lo, hi) for i, (lo, hi) in enumerate(box)),
                default=Fraction(0),
            )
            if best is None or d < best:
                best = d
        return best


@dataclass(frozen=True)
class DensityEstimate:
    radius: float
    value: float
    error: float  # boundary-cell volume / ball volume


def upper_density_estimate(box_set, radii):
    """|I intersect B_r| / |B_r| per radius on a corner-classified grid.

    Cells whose 2^m corners and center agree (both for the ball and for I)
    count fully in or out; disagreeing cells count half and are charged to
    the reported error.  Features thinner than a grid cell can be missed --
    this is an estimate with a resolution-limited error bar, not a bound.
    """
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be increasing")
    m = box_set.dim
    g = _DENSITY_GRID

    # scale-free ball classification on the [-1,1]^m grid: corner j has
    # coordinate (2j-g)/g, so |x|^2 <= 1 iff sum (2j-g)^2 <= g^2 (integers)
    k = np.arange(g + 1, dtype=np.int64)
    corner_sq = (2 * k - g) ** 2
    center_sq = (2 * np.arange(g, dtype=np.int64) + 1 - g) ** 2

    def _cube_sum(axis_vals):
        total = np.zeros((len(axis_vals),) * m, dtype=np.int64)
        for i in range(m):
            shape = [1] * m
            shape[i] = len(axis_vals)
            total = total + axis_vals.reshape(shape)
        return total

    ball_corner = _cube_sum(corner_sq) <= g * g
    ball_center = _cube_sum(center_sq) <= g * g
    corner_slices = [tuple(slice(d, g + d) for d in delta) for delta in itertools.product((0, 1), repeat=m)]
    ball_all = np.ones((g,) * m, dtype=bool)
    ball_any = np.zeros((g,) * m, dtype=bool)
    for s in corner_slices:
        ball_all &= ball_corner[s]
        ball_any |= ball_corner[s]
    ball_all &= ball_center
    ball_any |= ball_center

    unit_ball_vol = math.pi ** (m / 2) / math.gamma(m / 2 + 1)
    out = []
    for r in radii:
        rq = parse_rational(r)
        corner_vals = [Fraction(2 * j - g, g) * rq for j in range(g + 1)]
        center_vals = [Fraction(2 * j + 1 - g, g) * rq for j in range(g)]

        def _in_axes(vals):
            # per box and axis, exact membership of every grid value
            if not box_set.boxes:
                return np.zeros((len(vals),) * m, dtype=bool)
            masks = []
            for box in box_set.boxes:
                ax = [
                    np.array([box_set._axis_inside(i, v, lo, hi) for v in vals], dtype=bool)
                    for i, (lo, hi) in enumerate(box)
                ]
                box_mask = np.ones((len(vals),) * m, dtype=bool)
                for i in range(m):
                    shape = [1] * m
                    shape[i] = len(vals)
                    box_mask &= ax[i].reshape(shape)
                masks.append(box_mask)
            full = masks[0]
            for extra in masks[1:]:
                full = full | extra
            return full

        in_corner = _in_axes(corner_vals)
        in_center = _in_axes(center_vals)
        set_all = np.ones((g,) * m, dtype=bool)
        set_any = np.zeros((g,) * m, dtype=bool)
        for s in corner_slices:
            set_all &= in_corner[s]
            set_any |= in_corner[s]
        set_all &= in_center
        set_any |= in_center

        full_in = ball_all & set_all
        full_out = ~ball_any | ~set_any
        boundary = ~(full_in | full_out)
        cell_vol = (2.0 * float(rq) / g) ** m
        ball_vol = unit_ball_vol * float(rq) ** m
        value = (full_in.sum() + 0.5 * boundary.sum()) * cell_vol / ball_vol
        error = boundary.sum() * cell_vol / ball_vol
        out.append(DensityEstimate(radius=float(rq), value=value, error=error))
    return out


# --- configuration search ----------------------------------------------------


@dataclass(frozen=True)
class ConfigResult:
    found: bool
    s: object = None  # Fraction parameter of the witness
    x1: tuple = None
    x2: tuple = None
    residual: float = math.inf  # |x1 - x2 - F(s)| (0 for exact witnesses)


def _candidate_points(box_set):
    """Deterministic rational probe points: the origin plus each box's
    anchor (lower) corner -- the lattice the boxes hang off of."""
    cands = [tuple(Fraction(0) for _ in range(box_set.dim))]
    for box in box_set.boxes:
        los = []
        for lo, hi in box:
            los.append(lo if lo is not None else (hi if hi is not None else Fraction(0)))
        cands.append(tuple(los))
    seen, uniq = set(), []
    for c in cands:
        if c not in seen:
            seen.add(c)
            uniq.append(c)
    return [c for c in uniq if box_set.contains(c)]


def config_search(family, window, box_set, step):
    """Scan for x1, x2 in the set with x1 - x2 = (f_1(s), ..., f_m(s)).

    s runs over integer multiples of the rational step inside [e^a, e^T]
    (so witnesses at rational parameters are hit exactly), with a shrinking
    local refinement pass around the nearest miss; x2 runs over deterministic
    rational probe points of the set.  A Found result is exact: membership
    is rational and the residual is literally zero.  NotFound certifies
    nothing.
    """
    if family.m != box_set.dim:
        raise ValueError("family and box set dimension mismatch")
    step = parse_rational(step)
    if step <= 0:
        raise ValueError("step must be positive")
    a, T = float(window[0]), float(window[1])
    s_lo = Fraction(math.exp(a))
    s_hi = Fraction(math.exp(T))
    cands = _candidate_points(box_set)
    if not cands:
        return ConfigResult(found=False)

    def probe(s):
        fs = tuple(f(s) for f in family.polys)
        best = None
        for x2 in cands:
            x1 = tuple(x + d for x, d in zip(x2, fs))
            gap = box_set.distance(x1)
            if gap == 0:
                return ConfigResult(found=True, s=s, x1=x1, x2=x2, residual=0.0), Fraction(0)
            if best is None or gap < best:
                best = gap
        return None, best

    k_lo = math.ceil(s_lo / step)
    k_hi = math.floor(s_hi / step)
    nearest_gap, nearest_s = None, None
    for k in range(k_lo, k_hi + 1):
        s = k * step
        hit, gap = probe(s)
        if hit is not None:
            return hit
        if nearest_gap is None or gap < nearest_gap:
            nearest_gap, nearest_s = gap, s
    if nearest_s is not None:
        local = step
        for _ in range(12):
            local = local / 2
            for s in (nearest_s - local, nearest_s + local):
                if s_lo <= s <= s_hi:
                    hit, gap = probe(s)
                    if hit is not None:
                        return hit
                    if gap < nearest_gap:
                        nearest_gap, nearest_s = gap, s
    return ConfigResult(found=False)


# --- multivariate reduction ---------------------------------------------------


def _as_multipoly(poly):
    """{exponent tuple: coeff} from a dict or an iterable of (exps, coeff)."""
    items = poly.items() if isinstance(poly, dict) else poly
    out = {}
    for exps, coeff in items:
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        c = parse_rational(coeff)
        if c != 0:
            out[exps] = out.get(exps, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def multivariate_reduce(polys, ell=None):
    """Substitute x_i -> t^(ell^(i-1)) to turn d-variable components into a
    one-variable curve family; base-ell digit positions keep distinct
    monomials distinct, so independence is preserved.

    ell defaults to 1 + the max per-variable degree (the smallest valid
    base); an explicit ell must satisfy that bound.
    """
    ps = [_as_multipoly(p) for p in polys]
    if not ps or any(not p for p in ps):
        raise ValueError("every component must be a nonzero polynomial")
    d = len(next(iter(ps[0])))
    for p in ps:
        for exps in p:
            if len(exps) != d:
                raise ValueError("components must share one variable count")
    max_deg = max((e for p in ps for exps in p for e in exps), default=0)
    if ell is None:
        ell = max_deg + 1
    ell = int(ell)
    if ell < 2 or max_deg > ell - 1:
        raise ValueError(f"need per-variable degrees <= ell-1; got max degree {max_deg}, ell {ell}")
    # precondition: 1, F_1, ..., F_m linearly independent, i.e. the components
    # are independent modulo constants -- exact rank over the nonconstant
    # monomial support
    support = sorted({exps for p in ps for exps in p if any(exps)})
    columns = {exps: idx for idx, exps in enumerate(support)}
    coeff_rows = []
    for p in ps:
        row = [Fraction(0)] * len(support)
        for exps, c in p.items():
            if any(exps):
                row[columns[exps]] = c
        coeff_rows.append(row)
    if not support or len(_bareiss(coeff_rows)[2]) < len(ps):
        raise ValueError("components must be linearly independent together with constants")
    weights = [ell**i for i in range(d)]
    rows = []
    for p in ps:
        coeffs = {}
        for exps, c in p.items():
            h = sum(e * w for e, w in zip(exps, weights))
            coeffs[h] = coeffs.get(h, Fraction(0)) + c
        top = max(coeffs)
        rows.append([coeffs.get(j, Fraction(0)) for j in range(top + 1)])
    family = CurveFamily([RationalPoly(r) for r in rows])
    if not check_independence(family):
        raise RuntimeError(
            "substitution produced a dependent family; digit injectivity "
            "guarantees this cannot happen, so this is an implementation bug"
        )
    return family


# --- cliques ------------------------------------------------------------------


@dataclass(frozen=True)
class BezoutCliqueData:
    product_bound: int  # (d_1 ... d_n)^2, intersection bound for the pair
    clique_degree: int  # product_bound + 3
    ramsey_symbol: str  # R(d, d) -- reported, never evaluated


def bezout_clique_data(degrees):
    """Clique numbers implied by the degree product; the Ramsey threshold is
    astronomically large and stays symbolic."""
    degs = [int(d) for d in degrees]
    if not degs or any(d < 1 for d in degs):
        raise ValueError("degrees must be integers >= 1")
    prod = 1
    for d in degs:
        prod *= d
    bound = prod * prod
    return BezoutCliqueData(
        product_bound=bound,
        clique_degree=bound + 3,
        ramsey_symbol=f"R({bound + 3},{bound + 3})",
    )


def curve_difference_oracle(family, tol=_MEMBERSHIP_TOL):
    """Membership test for +-V with V = {(f_1(s), ..., f_m(s))}: solve the
    first coordinate for s (closed form when linear, numpy roots otherwise)
    and verify the remaining coordinates to the tolerance."""
    f1 = family.polys[0]
    desc = [float(c) for c in reversed(f1.coeffs)]  # np.roots wants descending

    def roots_of_first(target):
        if f1.degree == 1:
            return [(target - float(f1.coeffs[0])) / float(f1.coeffs[1])]
        shifted = list(desc)
        shifted[-1] -= target
        rr = np.roots(shifted)
        return [float(z.real) for z in rr if abs(z.imag) <= 1e-9 * (1 + abs(z))]

    def oracle(w):
        if len(w) != family.m:
            raise ValueError(f"point dimension {len(w)} != curve dimension {family.m}")
        if all(abs(float(v)) <= tol for v in w):
            return False  # 0 is never in the symmetric difference set
        for sign in (1.0, -1.0):
            ww = [sign * float(v) for v in w]
            for s in roots_of_first(ww[0]):
                if all(abs(f(s) - t) <= tol for f, t in zip(family.polys[1:], ww[1:])):
                    return True
        return False

    return oracle


class CliqueInstance:
    """A finite vertex sample plus the +-V membership oracle; edges are
    u ~ v iff u != v and u - v lies in +-V."""

    def __init__(self, points, oracle):
        self.points = [tuple(float(c) for c in p) for p in points]
        self.oracle = oracle

    def adjacent(self, u, v):
        if u == v:
            return False
        return self.oracle(tuple(a - b for a, b in zip(u, v)))


def clique_search(instance, max_size=None):
    """Largest pairwise-adjacent vertex set in the sample (exact search,
    Bron-Kerbosch with pivoting); a lower bound on the sample's clique
    number.  max_size stops the search early once reached."""
    pts = instance.points
    n = len(pts)
    if n == 0:
        return ()
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if instance.adjacent(pts[i], pts[j]):
                adj[i].add(j)
                adj[j].add(i)
    best = []

    def extend(r, p, x):
        nonlocal best
        if max_size is not None and len(best) >= max_size:
            return
        if not p and not x:
            if len(r) > len(best):
                best = list(r)
            return
        if len(r) + len(p) <= len(best):
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            extend(r + [v], p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    extend([], set(range(n)), set())
    if max_size is not None:
        best = best[:max_size]
    return tuple(pts[i] for i in sorted(best))


# --- periodic coloring --------------------------------------------------------


def color_point(x, y, n):
    """Two-level color (floor(nx) mod n, floor(ny) mod n^2)."""
    return (math.floor(n * x) % n, math.floor(n * y) % (n * n))


def _sample_f(f, ts):
    try:
        vals = np.asarray(f(ts), dtype=float)
        if vals.shape == ts.shape:
            return vals
    except Exception:
        pass
    return np.array([float(f(t)) for t in ts], dtype=float)


def coloring_threshold(f):
    """Sampled profile (n_min, M, eps, delta) for a period-1 function.

    M is the sampled sup of |f|; delta is the largest value from the ladder
    1/2, 1/4, ... such that |f| stays positive on [-delta, delta], and eps
    is 0.9 times the sampled minimum there (the margin covers sampling
    gaps).  Any integer n > max(M+2, 1/eps, 1/delta) makes the two-level
    coloring proper.
    """
    ts = np.linspace(-0.5, 0.5, _COLORING_SAMPLES)
    vals = np.abs(_sample_f(f, ts))
    period_slip = abs(float(_sample_f(f, np.array([0.25]))[0]) - float(_sample_f(f, np.array([1.25]))[0]))
    if period_slip > 1e-9:
        raise ValueError("f must have period 1")
    M = float(vals.max())
    best = None
    delta = 0.5
    for _ in range(20):
        mask = np.abs(ts) <= delta
        lo = float(vals[mask].min())
        if lo > 0:
            eps = 0.9 * lo
            score = min(eps, delta)
            if best is None or score > best[0]:
                best = (score, eps, delta)
        delta /= 2
    if best is None:
        raise ValueError("sampled |f| vanishes arbitrarily close to 0; need f(0) != 0")
    _, eps, delta = best
    n_min = math.floor(max(M + 2, 1 / eps, 1 / delta)) + 1
    return n_min, M, eps, delta


def periodic_coloring_verify(f, n, edge_samples, seed=0):
    """Count color collisions across random edges (x, y) -> (x+t, y+f(t)).

    n must clear the sampled threshold; a valid n makes the coloring proper,
    so the expected return is 0 and anything else is a counterexample.
    """
    n = int(n)
    n_min, M, eps, delta = coloring_threshold(f)
    if n < n_min:
        raise ValueError(f"n={n} below the sampled threshold {n_min} (M={M:.3f}, eps={eps:.3f}, delta={delta})")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-20.0, 20.0, edge_samples)
    y = rng.uniform(-20.0, 20.0, edge_samples)
    t = rng.uniform(-5.0, 5.0, edge_samples)
    ft = _sample_f(f, t)
    c1a = np.floor(n * x).astype(np.int64) % n
    c1b = np.floor(n * y).astype(np.int64) % (n * n)
    c2a = np.floor(n * (x + t)).astype(np.int64) % n
    c2b = np.floor(n * (y + ft)).astype(np.int64) % (n * n)
    return int(np.count_nonzero((c1a == c2a) & (c1b == c2b)))
