"""Combinatorial companions on the difference-set side: box-set density and
configuration search, the multivariate-to-curve reduction, Bezout clique
data with a sample clique search, and the two-level periodic coloring check.

Everything here is desk-scale and demonstrative: Found/NotFound outcomes and
sample cliques are witnesses, never certificates of nonexistence.
"""

import functools
import itertools
import math
import operator
from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

from .polycore import CurveFamily, parse_float, parse_integer, parse_positive, parse_rational, parse_row
from .realosc import _as_window

_MEMBERSHIP_TOL = 1e-9  # curve-membership tolerance for float samples
_DENSITY_GRID = 200  # grid cells per axis in upper_density_estimate
_MAX_PROBES = 10**5  # parameters config_search's scan probes before it gives up
_COLORING_SAMPLES = 20001  # sample points on one period in coloring_threshold
_EDGE_CHUNK = 2**14  # edges periodic_coloring_verify draws and checks at a time
_MAX_COLORING_N = math.isqrt(2**63 - 1)  # the largest n whose n*n fits int64
_ZERO = Fraction(0)


# --- box sets ----------------------------------------------------------------


class BoxSet:
    """Union of axis-aligned boxes, optionally replicated by per-axis periods.

    boxes: list of boxes, each a list of per-axis (lo, hi) pairs; lo/hi may
    be None for an unbounded side.  period: None, or a per-axis list whose
    entries are positive rationals (that axis repeats) or None (it does not).
    polycore.parse_row reads each of these lists, and a point.  Boxes are
    closed and may overlap.  On an axis with period p a box covers [lo, hi]
    + pZ: x lies in it iff (x - lo) mod p <= hi - lo, and a box with an open
    side on that axis covers the whole line.  Membership and distance are
    exact on rational points (floats are converted exactly).
    """

    def __init__(self, boxes, period=None, dim=None):
        self.boxes = parse_row(boxes, _box, "boxes must be a list of boxes")
        if not self.boxes and dim is None:
            raise ValueError("an empty box set needs an explicit dim")
        self.dim = len(self.boxes[0]) if self.boxes else parse_integer(dim, "dim")
        if any(len(box) != self.dim for box in self.boxes):
            raise ValueError("boxes must share one dimension")
        periods = "period must be a list of per-axis periods"
        self.period = (None,) * self.dim if period is None else tuple(parse_row(period, _bound, periods))
        if len(self.period) != self.dim:
            raise ValueError("period vector must match dimension")
        if any(p is not None and p <= 0 for p in self.period):
            raise ValueError("periods must be positive")

    @classmethod
    def from_json(cls, data):
        return cls(data["boxes"], data.get("period"), data.get("dim"))

    def contains(self, point):
        """Exact membership for a rational point."""
        return self.distance(point) == 0

    __contains__ = contains

    def distance(self, point):
        """Min over boxes of the max axis gap (an exact L^inf distance);
        math.inf for a set with no boxes."""
        xs = parse_row(point, parse_rational, "point dimension mismatch: a point lists one rational per axis", self.dim)
        gaps = [
            max((_axis_gap(x, lo, hi, p) for x, (lo, hi), p in zip(xs, box, self.period)), default=_ZERO)
            for box in self.boxes
        ]
        return min(gaps, default=math.inf)


def _box(box):
    return tuple(parse_row(box, _side, "a box must be a list of (lo, hi) pairs"))


def _side(pair):
    lo, hi = parse_row(pair, _bound, "a side of a box must be a pair (lo, hi)", 2)
    if lo is not None and hi is not None and lo > hi:
        raise ValueError("box with lo > hi")
    return lo, hi


def _bound(v):
    """A rational, or None for an open side or an axis with no period."""
    return None if v is None else parse_rational(v)


def _axis_gap(x, lo, hi, p):
    """Distance from x to [lo, hi] (None: an open side), or to its nearest
    copy [lo, hi] + kp when p is a period; 0 when x is covered."""
    if p is not None:
        if lo is None or hi is None:
            return _ZERO
        x = lo + (x - lo) % p  # read x in [lo, lo + p)
        return max(_ZERO, min(x - hi, lo + p - x))
    return max(_ZERO, _ZERO if lo is None else lo - x, _ZERO if hi is None else x - hi)


@dataclass(frozen=True)
class DensityEstimate:
    radius: float
    value: float
    error: float  # boundary-cell volume / ball volume


def _outer(ufunc, vecs):
    """The m-dim array ufunc(v_1[j_1], ..., v_m[j_m]), vecs[i] along axis i."""
    return functools.reduce(ufunc.outer, vecs)


def _cell_all_any(corner, center):
    """(all, any) of a grid predicate over each cell's 2^m corners and its
    centre; corner holds it at the g+1 grid values per axis, center at the g
    cell centres."""
    g = center.shape[0]
    cell_all, cell_any = center.copy(), center.copy()
    for delta in itertools.product((0, 1), repeat=center.ndim):
        view = corner[tuple(slice(d, g + d) for d in delta)]
        cell_all &= view
        cell_any |= view
    return cell_all, cell_any


def upper_density_estimate(box_set, radii):
    """|I intersect B_r| / |B_r| per radius on a corner-classified grid.

    Cells whose 2^m corners and center agree (both for the ball and for I)
    count fully in or out; disagreeing cells count half and are charged to
    the reported error.  Features thinner than a grid cell can be missed --
    this is an estimate with a resolution-limited error bar, not a bound.
    radii is a non-empty increasing list, each read by parse_positive.
    """
    message = "radii must be a non-empty list of radii"
    rs = parse_row(radii, lambda r: parse_positive(r, "a density radius"), message)
    if not rs:
        raise ValueError(f"{message}; got {radii!r}")
    if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
        raise ValueError("radii must be increasing")
    m = box_set.dim
    g = _DENSITY_GRID

    # scale-free ball classification on the [-1,1]^m grid: corner j has
    # coordinate (2j-g)/g, so |x|^2 <= 1 iff sum (2j-g)^2 <= g^2 (integers)
    k = np.arange(g + 1, dtype=np.int64)
    corner_sq = (2 * k - g) ** 2
    center_sq = (2 * np.arange(g, dtype=np.int64) + 1 - g) ** 2
    ball_all, ball_any = _cell_all_any(
        _outer(np.add, [corner_sq] * m) <= g * g, _outer(np.add, [center_sq] * m) <= g * g
    )

    def in_set(vals):
        # exact membership of every grid point, box by box and axis by axis
        full = np.zeros((len(vals),) * m, dtype=bool)
        for box in box_set.boxes:
            full |= _outer(
                np.logical_and,
                [np.array([_axis_gap(v, lo, hi, p) == 0 for v in vals]) for (lo, hi), p in zip(box, box_set.period)],
            )
        return full

    unit_ball_vol = math.pi ** (m / 2) / math.gamma(m / 2 + 1)
    out = []
    for r in rs:
        rq = Fraction(r)
        set_all, set_any = _cell_all_any(
            in_set([Fraction(2 * j - g, g) * rq for j in range(g + 1)]),
            in_set([Fraction(2 * j + 1 - g, g) * rq for j in range(g)]),
        )
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

    s runs over the positive integer multiples of the rational step inside
    [e^a, e^T] (so witnesses at rational parameters are hit exactly; s = 0
    lies in no window, even when e^a underflows to 0.0), with a shrinking
    local refinement pass around the nearest miss; x2 runs over deterministic
    rational probe points of the set.  A Found result is exact: membership
    is rational and the residual is literally zero.  NotFound certifies
    nothing.  A scan over more than _MAX_PROBES parameters that finds no
    witness among its first _MAX_PROBES raises ValueError, as does an e^T
    past the float range; realosc._as_window reads the window.
    """
    if family.m != box_set.dim:
        raise ValueError("family and box set dimension mismatch")
    step = parse_rational(step)
    if step <= 0:
        raise ValueError("step must be positive")
    a, T = astuple(_as_window(window))
    try:
        s_hi = Fraction(math.exp(T))
    except OverflowError:
        raise ValueError(f"window end T = {T} is too large: e^T overflows a float") from None
    s_lo = Fraction(math.exp(a))
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

    k_lo = max(1, math.ceil(s_lo / step))
    count = math.floor(s_hi / step) - k_lo + 1
    nearest_gap, nearest_s = None, None
    for k in range(k_lo, k_lo + min(count, _MAX_PROBES)):
        s = k * step
        hit, gap = probe(s)
        if hit is not None:
            return hit
        if nearest_gap is None or gap < nearest_gap:
            nearest_gap, nearest_s = gap, s
    if count > _MAX_PROBES:
        raise ValueError(
            f"window {(a, T)!r} at step {step} spans {count} parameters; the scan probes at most "
            f"{_MAX_PROBES} and found no witness among them"
        )
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
        exps = tuple(parse_row(exps, lambda e: parse_integer(e, "an exponent"), "exponents must be a list of integers"))
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        c = parse_rational(coeff)
        if c != 0:
            out[exps] = out.get(exps, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def multivariate_reduce(polys, ell=None):
    """Substitute x_i -> t^(ell^(i-1)) to turn d-variable components into a
    one-variable curve family; base-ell digit positions keep distinct
    monomials distinct and send only the constant one to t^0, so 1, F_1,
    ..., F_m are independent iff the substituted family is.  A constant or
    dependent component raises ValueError (a dependent one in CurveFamily).

    ell defaults to 1 + the max per-variable degree (the smallest valid
    base); an explicit ell must satisfy that bound.
    """
    ps = parse_row(polys, _as_multipoly, "components must be a list of polynomials")
    if not ps or any(not p for p in ps):
        raise ValueError("every component must be a nonzero polynomial")
    d = len(next(iter(ps[0])))
    for p in ps:
        for exps in p:
            if len(exps) != d:
                raise ValueError("components must share one variable count")
    max_deg = max((e for p in ps for exps in p for e in exps), default=0)
    ell = max_deg + 1 if ell is None else parse_integer(ell, "ell")
    if ell < 2 or max_deg > ell - 1:
        raise ValueError(f"need per-variable degrees <= ell-1; got max degree {max_deg}, ell {ell}")
    weights = [ell**i for i in range(d)]
    rows = []
    for p in ps:
        coeffs = {sum(e * w for e, w in zip(exps, weights)): c for exps, c in p.items()}
        rows.append([coeffs.get(j, Fraction(0)) for j in range(max(coeffs) + 1)])
    return CurveFamily(rows)


# --- cliques ------------------------------------------------------------------


def curve_difference_oracle(family, tol=_MEMBERSHIP_TOL):
    """Membership test for +-V with V = {(f_1(s), ..., f_m(s))}, a float
    test to tol: solve the first coordinate for s (closed form when f_1 is
    linear, numpy roots otherwise) and verify the remaining coordinates to
    the tolerance.  The zero vector and a difference with a coordinate that
    is not finite (nan or inf) are never members.

    The family is read once, here.  A call converts each coordinate to a
    float once and evaluates the remaining coordinates by Horner's rule in
    the order of the float path of RationalPoly.__call__, so every answer
    keeps its bits.  tol must be a finite positive number, read by
    polycore.parse_positive as the CLI reads it: at 0, nan or inf no point
    would be adjacent to another.  A difference is read by parse_row."""
    tol = parse_positive(tol, "tol")
    m = family.m
    f1 = family.polys[0]
    desc = [float(c) for c in reversed(f1.coeffs)]  # np.roots wants descending
    rest = [[float(c) for c in reversed(f.coeffs)] for f in family.polys[1:]]
    linear = f1.degree == 1
    lead, const = desc[0], desc[-1]

    def real_roots_of_first(target):
        shifted = list(desc)
        shifted[-1] -= target
        rr = np.roots(shifted)
        return [float(z.real) for z in rr if abs(z.imag) <= 1e-9 * (1 + abs(z))]

    def oracle(w):
        w = parse_row(w, float, "a difference must be a list of one number per curve component", m)
        if not all(map(math.isfinite, w)) or max(map(abs, w)) <= tol:
            return False  # on no curve, and 0 is never in the symmetric difference set
        tail = w[1:]
        for sign in (1.0, -1.0):
            target = sign * w[0]
            for s in ((target - const) / lead,) if linear else real_roots_of_first(target):
                for cs, t in zip(rest, tail):
                    acc = 0.0
                    for c in cs:
                        acc = acc * s + c
                    if not abs(acc - sign * t) <= tol:
                        break
                else:
                    return True
        return False

    return oracle


class CliqueInstance:
    """A finite vertex sample plus the +-V membership oracle; edges are
    u ~ v iff u != v and u - v lies in +-V.  The points are lists (parse_row)
    of float coordinates, and a bool raises (see parse_float)."""

    def __init__(self, points, oracle):
        self.points = parse_row(points, _clique_point, "points must be a list of points")
        self.oracle = oracle

    def adjacent(self, u, v):
        if u == v:
            return False
        return self.oracle(tuple(map(operator.sub, u, v)))


def _clique_point(p):
    return tuple(parse_row(p, lambda c: parse_float(c, "a point coordinate"), "a point must be a list of numbers"))


def clique_search(instance, max_size=None):
    """Largest pairwise-adjacent vertex set in the sample (exact search,
    Bron-Kerbosch with pivoting); a lower bound on the sample's clique
    number.  max_size stops the search early once reached; it must be an
    integer (see parse_integer) of at least 1, else ValueError."""
    max_size = None if max_size is None else parse_integer(max_size, "max_size")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be at least 1; got {max_size!r}")
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
    n, edge_samples and seed must be integers (7.9 raises; see
    parse_integer), and edge_samples at least 1: a check of no edge proves
    nothing.  The colour classes are taken mod n*n in int64, so n may be at
    most _MAX_COLORING_N = 3037000499, and a chunk in which n*(y + f(t)) is
    nan or leaves int64 raises a ValueError naming n.

    Edge i gets the i-th draw of default_rng(seed).uniform(-20, 20) for x,
    the (N+i)-th for y and the (2N+i)-th of uniform(-5, 5) for t, where
    N = edge_samples: three PCG64(seed) streams, advanced by 0, N and 2N
    draws, since each double spends one 64-bit output.  The edges are
    checked _EDGE_CHUNK at a time, so memory stays flat in edge_samples and
    f is called once per chunk; f must act elementwise, as the sampling
    already assumes (a scalar-only f is read point by point).
    """
    return _coloring_violations(f, coloring_threshold(f), n, edge_samples, seed)


def _coloring_violations(f, profile, n, edge_samples, seed):
    """periodic_coloring_verify with f's coloring_threshold profile given,
    so a caller that reports the profile samples f once."""
    n = parse_integer(n, "n")
    edge_samples = parse_integer(edge_samples, "edge_samples")
    seed = parse_integer(seed, "seed")
    if edge_samples < 1:
        raise ValueError(f"edge_samples must be at least 1; got {edge_samples!r}")
    n_min, M, eps, delta = profile
    if n < n_min:
        raise ValueError(f"n={n} below the sampled threshold {n_min} (M={M:.3f}, eps={eps:.3f}, delta={delta})")
    if n > _MAX_COLORING_N:
        raise ValueError(f"n={n} is too large: the colour classes mod n*n need n*n < 2**63, so n <= {_MAX_COLORING_N}")
    xs, ys, ts = (np.random.Generator(np.random.PCG64(seed).advance(k * edge_samples)) for k in range(3))
    violations = 0
    for start in range(0, edge_samples, _EDGE_CHUNK):
        size = min(_EDGE_CHUNK, edge_samples - start)
        x = xs.uniform(-20.0, 20.0, size)
        y = ys.uniform(-20.0, 20.0, size)
        t = ts.uniform(-5.0, 5.0, size)
        ft = _sample_f(f, t)
        c1a = np.floor(n * x).astype(np.int64) % n
        c1b = np.floor(n * y).astype(np.int64) % (n * n)
        c2a = np.floor(n * (x + t)).astype(np.int64) % n
        c2b = np.floor(n * (y + ft))
        if not np.all((c2b >= -(2.0**63)) & (c2b < 2.0**63)):  # nan fails both
            raise ValueError(f"n*(y + f(t)) at n={n} is nan or outside int64, so its colour class cannot be taken")
        c2b = c2b.astype(np.int64) % (n * n)
        violations += int(np.count_nonzero((c1a == c2a) & (c1b == c2b)))
    return violations
