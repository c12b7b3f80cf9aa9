"""Exact polynomial curves, frequency phases, and the constants they certify.

Everything in this module is exact rational arithmetic: fractions.Fraction,
or plain integers once clear_denominators has scaled a row, which is how root
isolation, the gcd behind a0 and elimination all run.  Floats only appear on
the way out, rounded in whichever direction keeps the downstream certificate
valid.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

ISOLATION_WIDTH = Fraction(1, 10**12)
_EIG_BITS = 80  # bisection depth for smallest-eigenvalue enclosures


def parse_rational(x):
    """Accept Fraction/int/float or a 'num/den' (or 'num') string; a bool
    is not a number here (JSON true is not 1)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"cannot interpret the bool {x!r} as a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    raise TypeError(f"cannot interpret {x!r} as a rational")


def parse_integer(value, name):
    """value as an int if it parses to an integer ("7", 7.0 and Fraction(7)
    all mean 7); what parse_rational cannot read (a bool, nan, inf, None,
    "abc", "1/0") or 7.9 raises a ValueError naming it."""
    try:
        q = parse_rational(value)
    except (TypeError, ValueError, ArithmeticError):  # Fraction(inf) overflows, "1/0" divides by zero
        q = None
    if q is None or q.denominator != 1:
        raise ValueError(f"{name} must be an integer; got {value!r}")
    return int(q)


def parse_float(value, name):
    """float(value), so "0.5", 0.5 and Fraction(1, 2) all mean 0.5; a bool
    (not 0.0 or 1.0) and what float cannot read (None, "abc", [1]) raise a
    ValueError naming the setting."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, ArithmeticError):  # a huge Fraction overflows
        pass
    raise ValueError(f"{name} must be a number; got {value!r}")


def parse_positive(value, name):
    """value as a float if it is a finite positive number ("1e-9" and 1e-9
    alike, see parse_float); anything else, a bool, None, "abc", zero, a
    negative number, nan and inf among them, raises a ValueError naming
    the setting."""
    try:
        x = parse_float(value, name)
    except ValueError:
        x = math.nan
    if not 0 < x < math.inf:
        raise ValueError(f"{name} must be a finite positive number; got {value!r}")
    return x


class RationalPoly:
    """Dense univariate polynomial over Q, coefficients ascending (a0, a1, ...)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [parse_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x):
        acc = 0 if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RationalPoly([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return RationalPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPoly({[str(c) for c in self.coeffs]})"

    def t_derivative(self, k):
        """The k-th t-derivative of g(e^t), as a polynomial in x = e^t: the
        Euler operator (x d/dx)^k multiplies the coefficient of x^j by j^k."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        return RationalPoly([c * j**k for j, c in enumerate(self.coeffs)])

    def compose_linear(self, c, d):
        """p(c + d*x), exact: the Taylor shift by c, then x scaled by d."""
        c, d = parse_rational(c), parse_rational(d)
        return RationalPoly([a * d**j for j, a in enumerate(taylor_shift(self.coeffs, c))])


def taylor_shift(coeffs, c):
    """The ascending coefficients of p(c + x) from those of p, by synthetic
    division by x - c; exact, and ints stay ints when c is one."""
    out = list(coeffs)
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += c * out[k + 1]
    return out


def clear_denominators(coeffs):
    """(den, ints) with den the lcm of the denominators of coeffs (Fractions)
    and ints[i] = den * coeffs[i], exact integers."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _primitive(c):
    """c divided by the (positive) gcd of its entries."""
    g = math.gcd(*c)
    return [x // g for x in c]


def _pseudo_divmod(a, b):
    """(q, r) with |lc(b)|^j * a = q * b + r and deg r < deg b, for integer
    coefficient lists (ascending).  q and r are positive multiples of the
    rational quotient and remainder, so every sign survives."""
    s = abs(b[-1])
    sign_b = 1 if b[-1] > 0 else -1
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        f = r[k + db] * sign_b
        if f:
            q = [s * c for c in q]
            r = [s * c for c in r]
            q[k] = f
            for i, c in enumerate(b):
                r[k + i] -= f * c
    r = r[:db]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _gcd(a, b):
    """A primitive gcd of two primitive integer polynomials (ascending), by
    the primitive remainder sequence (Brown, J. ACM 18, 1971)."""
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def _squarefree(p):
    """p / gcd(p, p'), primitive, for a nonconstant integer polynomial p:
    the same distinct roots, each simple."""
    p = _primitive(p)
    g = _gcd(p, _primitive([i * c for i, c in enumerate(p)][1:]))
    return _primitive(_pseudo_divmod(p, g)[0]) if len(g) > 1 else p


def _sign_changes(c):
    """Sign changes along the coefficients c, zeros skipped."""
    signs = [x > 0 for x in c if x]
    return sum(map(operator.ne, signs, signs[1:]))


def _sign_at(c, n, d):
    """Sign of sum c_i (n/d)^i for d > 0, from the integer sum c_i n^i d^(deg-i)."""
    acc = c[-1]
    dk = 1
    for i in range(len(c) - 2, -1, -1):
        dk *= d
        acc = acc * n + c[i] * dk
    return (acc > 0) - (acc < 0)


def _refine(p, sa, na, nb, d):
    """Narrow (na/d, nb/d), which holds exactly one root of p and no other
    root of p, to width ISOLATION_WIDTH by bisection on the sign of p; sa is
    the sign of p just right of na/d.  A midpoint that is a root comes back
    as the degenerate pair (r, r)."""
    w_num, w_den = ISOLATION_WIDTH.numerator, ISOLATION_WIDTH.denominator
    while (nb - na) * w_den > w_num * d:
        m = na + nb
        na, nb, d = 2 * na, 2 * nb, 2 * d
        s = _sign_at(p, m, d)
        if s == 0:
            return Fraction(m, d), Fraction(m, d)
        if s == sa:
            na = m
        else:
            nb = m
    return Fraction(na, d), Fraction(nb, d)


def isolate_positive_roots(poly, lo, hi):
    """Isolating intervals for the distinct real roots of poly in (lo, hi).

    poly is a RationalPoly, or a list of integer coefficients, ascending.
    Returns a sorted list of (left, right) Fraction pairs with right - left
    <= 1e-12, each containing exactly one root; an exact rational root shows
    up as a degenerate pair (r, r).  Endpoint roots are excluded (open
    interval).  Exact integer arithmetic throughout: a pair is the coarsest
    cell of the dyadic subdivision of (lo, hi) no wider than 1e-12 that
    holds its root alone, or (m, m) for a root at the midpoint m of a
    coarser cell.  The one exception: a non-real root within about 1e-12 of
    a real one can make Descartes' rule overcount on that cell, which is
    then split into a deeper cell that still holds the real root alone.

    Descartes' rule of signs decides every count: the roots in (0, inf),
    counted with multiplicity, number the sign changes v of the
    coefficients minus an even number.
      * v = 0 and lo >= 0: no root in (lo, hi).
      * v = 1 and lo > 0: one positive root, and it is simple; it lies in
        (lo, hi) iff poly(lo) and poly(hi) have opposite nonzero signs, and
        the sign of poly steers its bisection.
      * anything else: poly is divided by gcd(poly, poly') and (lo, hi) is
        bisected (Collins & Akritas, SYMSAC 1976).  A piece (a, b) whose
        image (1 + x)^n poly((a + b x) / (1 + x)) has no sign change is
        dropped; with one it holds one root, which is narrowed; with more it
        is split at its midpoint m, giving (m, m) if poly(m) = 0.
    """
    lo, hi = parse_rational(lo), parse_rational(hi)
    if isinstance(poly, RationalPoly):
        p = clear_denominators(poly.coeffs)[1]
    else:
        p = list(poly)
        while p and not p[-1]:
            p.pop()
    changes = _sign_changes(p)
    if len(p) <= 1 or changes == 0 and lo.numerator >= 0:
        return []
    d0, (na, nb) = clear_denominators((lo, hi))
    if na >= nb:
        return []
    if changes == 1 and na > 0:
        sa = _sign_at(p, na, d0)
        return [_refine(p, sa, na, nb, d0)] if sa * _sign_at(p, nb, d0) < 0 else []

    p = _squarefree(p)
    n = len(p) - 1
    out = []

    def split(r, na, nb, d):
        # r(y) = d^n p((na + (nb - na) y) / d) lays the piece over (0, 1); the
        # image reversed is (1 + x)^n r(1 / (1 + x)), with the same changes
        v = _sign_changes(taylor_shift(r[::-1], 1))
        if v == 1:
            # the sign of p just right of na/d is that of r's lowest term
            out.append(_refine(p, 1 if next(c for c in r if c) > 0 else -1, na, nb, d))
        elif v > 1:
            left = [c << (n - i) for i, c in enumerate(r)]  # 2^n r(y / 2)
            right = taylor_shift(left, 1)  # 2^n r((1 + y) / 2)
            m, d = na + nb, 2 * d
            split(left, 2 * na, m, d)
            if not right[0]:  # p(m / d) = 0
                out.append((Fraction(m, d), Fraction(m, d)))
            split(right, m, 2 * nb, d)

    r = taylor_shift([c * d0 ** (n - i) for i, c in enumerate(p)], na)  # d0^n p((na + y) / d0)
    split([c * (nb - na) ** j for j, c in enumerate(r)], na, nb, d0)
    return out


class CurveFamily:
    """A tuple of nonconstant rational polynomials f_1..f_m defining the curve
    t -> (f_1(e^t), ..., f_m(e^t)), with 1, f_1, ..., f_m linearly independent
    over Q, the paper's one assumption: a dependent family raises ValueError.

    The denominators of every coefficient are cleared once, at construction,
    into one common den and an integer matrix, read by phase_integers."""

    def __init__(self, polys):
        ps = []
        for p in polys:
            if not isinstance(p, RationalPoly):
                p = RationalPoly(p)
            if p.degree < 1:
                raise ValueError("curve components must be nonconstant")
            ps.append(p)
        if not ps:
            raise ValueError("empty curve family")
        self.polys = tuple(ps)
        self._a0_real = None  # filled in by compute_a0_real
        self._den, flat = clear_denominators([c for row in self.coefficient_matrix() for c in row])
        # column j holds den * (coefficient of x^j) of every component
        self._columns = [flat[j :: self.n + 1] for j in range(self.n + 1)]
        if not _is_independent(self):
            raise ValueError("independence violation: 1, f_1, ..., f_m are linearly dependent")

    @property
    def m(self):
        return len(self.polys)

    @property
    def n(self):
        return max(p.degree for p in self.polys)

    def coefficient_matrix(self):
        """Rows a_{i0..in}, one per component, zero-padded to the max degree."""
        n = self.n
        return [list(p.coeffs) + [Fraction(0)] * (n + 1 - len(p.coeffs)) for p in self.polys]

    def __repr__(self):
        return f"CurveFamily({list(self.polys)})"


def parse_curve_family(data):
    """Coefficient lists (ascending, 'num/den' strings allowed) -> CurveFamily."""
    return CurveFamily([RationalPoly(row) for row in data])


def _bareiss(rows):
    """Fraction-free (Bareiss) elimination of a rational matrix to echelon form.

    Each row is first scaled to integers by the lcm of its denominators.
    Every entry then stays an integer (a minor of the scaled matrix), and a
    row is swapped up only when the pivot position holds zero.  Returns
    (rows, order, pivots): the eliminated rows, the original index of each,
    and the (column, value) of each pivot.  While order is the identity, the
    pivot of step k is the leading principal minor of order k + 1; the last
    pivot of a square matrix of full rank is its determinant up to the sign
    of order.
    """
    a = [clear_denominators(row)[1] for row in rows]
    order = list(range(len(a)))
    pivots = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        r = piv = len(pivots)
        while piv < len(a) and not a[piv][col]:
            piv += 1
        if piv == len(a):
            continue
        a[r], a[piv] = a[piv], a[r]
        order[r], order[piv] = order[piv], order[r]
        top = a[r]
        p = top[col]
        for i in range(r + 1, len(a)):
            f = a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        pivots.append((col, p))
        prev = p
    return a, order, pivots


def _is_independent(family):
    """True iff 1, f_1, ..., f_m are linearly independent over Q: the exact
    rank of the coefficient matrix augmented with the row (1, 0, ..., 0).
    CurveFamily's constructor is its one caller, and raises on False."""
    rows = family.coefficient_matrix()
    aug = rows + [[Fraction(1)] + [Fraction(0)] * family.n]
    return len(_bareiss(aug)[2]) == family.m + 1


def phase_integers(family, lam):
    """The phase polynomial g = sum_i lam_i f_i as (den, ints): den > 0 and
    ints[j] = den * g_j, exact integers, for j = 0..n.

    den = L * den_f, with L the lcm of the denominators of lam and den_f the
    family's own (see CurveFamily), so ints[j] = sum_i (L lam_i) (den_f
    f_ij) needs no Fraction.  den need not be minimal: ints is then a
    positive multiple of the reduced integer vector, which gives the same
    quotients ints[j] / den and the same signs."""
    lam = [parse_rational(v) for v in lam]
    if len(lam) != family.m:
        raise ValueError(f"frequency has {len(lam)} components, family has {family.m}")
    big_l, nums = clear_denominators(lam)
    return big_l * family._den, [sum(map(operator.mul, nums, col)) for col in family._columns]


def _solve(mat, rhs):
    """Exact solution of mat x = rhs for a square rational mat, by
    fraction-free elimination and back substitution; raises on a singular mat."""
    n = len(mat)
    a, _, pivots = _bareiss([list(row) + [v] for row, v in zip(mat, rhs)])
    if [c for c, _ in pivots[:n]] != list(range(n)):
        raise ValueError("singular system")
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = Fraction(a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))) / a[k][k]
    return x


def vandermonde_interpolation(values, n):
    """Solve sum_{k=1}^{n} alpha_k * j^k = values_j for j = 1..n, exactly,
    for a sequence of n rationals values."""
    values = [parse_rational(v) for v in values]
    if len(values) != n:
        raise ValueError("need exactly n target values")
    mat = [[j**k for k in range(1, n + 1)] for j in range(1, n + 1)]
    return tuple(_solve(mat, values))


def compute_a0_real(family):
    """Largest t >= 0 at which every component vanishes at e^t; 0 if none.

    The common roots are the roots of gcd(f_1, ..., f_m); only roots x >= 1
    matter.  Returns a float (ln of the top root, refined to 1e-12).  The
    family's components never change, so the value is computed once and
    cached on the family.
    """
    if family._a0_real is None:
        family._a0_real = _a0_real(family.polys)
    return family._a0_real


def _a0_real(polys):
    # Over Q the gcd is unique up to a constant, so the primitive gcd with a
    # positive leading coefficient is exactly den * (the monic gcd): the
    # integer list a Fraction gcd would hand to isolation.
    g = []
    for p in polys:
        g = _gcd(_primitive(clear_denominators(p.coeffs)[1]), g)
    if len(g) < 2:
        return 0.0
    if g[-1] < 0:
        g = [-c for c in g]
    cauchy = 1 + Fraction(max(abs(c) for c in g[:-1]), g[-1])  # bounds every root
    # a root at x = 1 itself, outside the open interval, would give ln 1 = 0.0
    tops = [right for _, right in isolate_positive_roots(g, Fraction(1), cauchy + 1)]
    return math.log(float(max(tops))) if tops else 0.0


# --- operator norms of inverse submatrices, exactly bounded -----------------


def _min_eigenvalue_lower(gram):
    """A positive rational lower bound on the smallest eigenvalue of a
    positive-definite Gram matrix, by exact bisection on mu in [0, trace + 1].

    G - mu I is positive definite iff every leading pivot of its fraction-free
    elimination is positive.  mu is carried as an integer numerator over the
    shared denominator den * 2^k, where den clears every entry of G, so each
    test eliminates the integer matrix den * 2^k * G - numerator(mu) * I.
    """
    n = len(gram)
    den, flat = clear_denominators([g for row in gram for g in row])
    g_int = [flat[i : i + n] for i in range(0, n * n, n)]
    lo, hi = 0, sum(g_int[i][i] for i in range(n)) + den  # trace bounds every eigenvalue
    scale = 1
    # invariant: G - (lo / (den * scale)) I is positive definite or lo = 0,
    # and G - (hi / (den * scale)) I is not
    for _ in range(_EIG_BITS):
        scale, mid, lo, hi = 2 * scale, lo + hi, 2 * lo, 2 * hi
        shifted = [[scale * g for g in row] for row in g_int]
        for i in range(n):
            shifted[i][i] -= mid
        _, order, pivots = _bareiss(shifted)
        if order == list(range(n)) and len(pivots) == n and all(v > 0 for _, v in pivots):
            lo = mid
        else:
            hi = mid
    if lo <= 0:
        raise ArithmeticError("Gram matrix is numerically singular")
    return Fraction(lo, den * scale)


def _operator_norm_inverse_upper(mat):
    """Upper bound (float, rounded up) on ||mat^{-1}||_op for invertible mat."""
    m = len(mat)
    gram = [[sum(mat[k][i] * mat[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    lam = _min_eigenvalue_lower(gram)
    val = 1.0 / math.sqrt(float(lam))
    return math.nextafter(val * (1 + 1e-12), math.inf)


@dataclass(frozen=True)
class HighFreqConstants:
    """Certified constants for the high-frequency estimates of a curve family.

    alpha solves sum_k alpha_k j^k = 1 (j = 1..n); beta[l] solves the same
    system with target delta_{j,l+1}.  All floats are rounded so that the
    downstream bound C only gets larger: H, H_prime, M, L up; eps down.
    """

    m: int
    n: int
    alpha: tuple
    H: float
    beta: tuple
    H_prime: float
    M: float
    L: float
    eps: float


def _up(x):
    return math.nextafter(float(x), math.inf)


def high_freq_constants(family):
    """The HighFreqConstants of family, whose independence (see CurveFamily)
    makes some m x m column-submatrix of a[:, 1:] invertible."""
    m, n = family.m, family.n
    beta = []
    for ell in range(1, n + 1):
        target = [Fraction(1) if j == ell else Fraction(0) for j in range(1, n + 1)]
        beta.append(vandermonde_interpolation(target, n))
    # V beta_l = e_l, so V (sum_l beta_l) = (1, ..., 1): alpha, exactly
    alpha = tuple(sum(col) for col in zip(*beta))
    H = _up(max(abs(a) for a in alpha))
    H_prime = _up(max(abs(b) for row in beta for b in row))
    rows = family.coefficient_matrix()
    aprime = [r[1:] for r in rows]  # drop the constant column
    # max over invertible m x m column-submatrices of the inverse operator norm
    M = 0.0
    for cols in combinations(range(n), m):
        sub = [[row[c] for c in cols] for row in aprime]
        if len(_bareiss(sub)[2]) < m:
            continue
        M = max(M, _operator_norm_inverse_upper(sub))
    if M == 0.0:
        raise ArithmeticError("no invertible submatrix despite independence")
    L2 = sum(r[0] ** 2 for r in rows)
    L = _up(math.sqrt(float(L2))) if L2 > 0 else 0.0
    if L == 0.0:
        eps = math.inf
    else:
        eps = (1.0 / (8.0 * math.sqrt(m) * L * M)) * (1 - 1e-9)  # round down
    return HighFreqConstants(m=m, n=n, alpha=alpha, H=H, beta=tuple(beta), H_prime=H_prime, M=M, L=L, eps=eps)
