"""Independent oracles used to freeze expected values and cross-check the library.

Everything in here is deliberately dumb and self-contained: no imports from
oscillabound, plain formulas only.  If an oracle and the library disagree, the
burden of proof is on the library.
"""

import cmath
import math
from fractions import Fraction

import numpy as np


def simpson_mu_hat(coeffs, a, T, tol=1e-12, n0=64, max_doublings=24):
    """Fixed-step composite Simpson for (1/(T-a)) * int_a^T cos(2*pi*Phi) dt.

    coeffs: dict {j: c_j} with Phi(t) = sum c_j * exp(j*t).  Doubles the step
    count until two successive values agree to tol.
    """
    items = sorted(coeffs.items())

    def integrand(t):
        phi = sum(float(c) * math.exp(j * t) for j, c in items)
        return math.cos(2.0 * math.pi * phi)

    def simpson(n):
        h = (T - a) / n
        ts = np.linspace(a, T, n + 1)
        phi = np.zeros_like(ts)
        for j, c in items:
            phi += float(c) * np.exp(j * ts)
        ys = np.cos(2.0 * np.pi * phi)
        s = ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()
        return s * h / 3.0

    prev = simpson(n0)
    n = n0
    for _ in range(max_doublings):
        n *= 2
        cur = simpson(n)
        if abs(cur - prev) <= tol:
            return cur / (T - a)
        prev = cur
    raise RuntimeError("simpson oracle did not stabilize")


def brute_force_ball_sum(poly_coeffs, prime, r, K):
    """Average of psi(g(s)) over the ball p^{-r} Z_p, sampled mod p^K.

    poly_coeffs: dict {j: Fraction} for g(s) = sum_j g_j s^j (the full phase,
    lambda already multiplied in).  Samples s = p^{-r} u for u = 0..p^K-1 and
    returns the plain average of exp(2*pi*i*{g(s)}_p) — exact (up to float
    roundoff) as soon as K >= max_j (r*j - v_p(g_j)).

    The fractional-part computation is exact integer arithmetic: each term
    g_j p^{-r j} is written as A_j / (p^k * Q) with p not dividing Q; the
    fractional part of P(u)/(p^k Q) only depends on P(u) * Qinv mod p^k.
    """
    if not poly_coeffs:
        return complex(p_pow := 1.0)
    # write sum_j g_j p^{-rj} u^j over a common denominator p^k * Q
    k = 0
    Q = 1
    terms = []
    for j, c in poly_coeffs.items():
        if c == 0:
            continue
        num = c.numerator * pow(prime, max(0, -r * j)) if r < 0 else c.numerator
        den = c.denominator * (pow(prime, r * j) if r >= 0 else 1)
        if r < 0:
            den = c.denominator
        # normalize: value = num/den with den = p^e * d, gcd(d, p) = 1
        e = 0
        while den % prime == 0:
            den //= prime
            e += 1
        while num % prime == 0 and e > 0:
            num //= prime
            e -= 1
        terms.append((j, num, den, e))
        k = max(k, e)
        Q = Q * den // math.gcd(Q, den)
    if not terms:
        return 1.0 + 0.0j
    pk = prime**k
    mod = pk * Q
    qinv_num = {}
    coeffs_mod = {}
    for j, num, den, e in terms:
        scale = (pk // prime**e) * (Q // den)
        coeffs_mod[j] = (num * scale) % mod
    qinv = pow(Q, -1, pk) if k > 0 else 0
    # the phase is periodic in u mod p^k exactly; sampling fewer residues than
    # that averages over a strict subgroup and biases the result, so raise K
    # to the resolution depth whenever the caller's choice under-samples
    n = prime ** max(K, k)
    u = np.arange(n, dtype=object) if n > 2**20 else np.arange(n, dtype=np.int64)
    # Horner mod (pk * Q), then multiply by Qinv mod pk to read the p-part
    maxdeg = max(coeffs_mod)
    acc = np.zeros_like(u)
    for j in range(maxdeg, 0, -1):
        acc = (acc + coeffs_mod.get(j, 0)) % mod
        acc = (acc * u) % mod
    acc = (acc + coeffs_mod.get(0, 0)) % mod
    if k == 0:
        return 1.0 + 0.0j
    frac = ((acc % pk) * qinv) % pk
    phases = np.exp(2j * np.pi * np.asarray(frac, dtype=np.float64) / pk)
    return complex(phases.mean())


def brute_force_sphere_sum(poly_coeffs, prime, r, K):
    """Sum of psi over the sphere |s| = p^r, via ball(r) - ball(r-1).

    Returns the *sum* normalized the way a sphere character sum is: measure of
    the ball p^{-r} is p^r when haar(Z_p)=1 and we sum, i.e. the unnormalized
    integral over the sphere times p^{r}... concretely:
        S_r = p^r * avg_ball(r) - p^{r-1} * avg_ball(r-1)
    which is the integral of psi over the sphere scaled so that S_r at
    lambda=0 equals |C_r| / p^0 = p^r - p^{r-1}.
    """
    scaled = {j: Fraction(c) for j, c in poly_coeffs.items()}
    ball_r = brute_force_ball_sum(scaled, prime, r, K)
    ball_r1 = brute_force_ball_sum(scaled, prime, r - 1, max(K - 1, 0))
    return (prime**r) * ball_r - (prime ** (r - 1)) * ball_r1


def eval_poly_fraction(coeffs, x):
    """Horner evaluation of a coefficient list [a0, a1, ...] at a Fraction."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def phase_fraction(rows, lam):
    """Coefficients of the phase g = sum_i lam_i f_i in Fraction arithmetic,
    ascending and zero-padded to the top degree; rows holds each component's
    coefficient list (ascending), lam the frequency."""
    coeffs = [Fraction(0)] * max(len(r) for r in rows)
    for lv, row in zip(lam, rows):
        lv = Fraction(lv)
        if lv == 0:
            continue
        for j, c in enumerate(row):
            if c != 0:
                coeffs[j] += lv * Fraction(c)
    return coeffs


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def echelon_reduce_fraction(rows):
    """The sorting elimination that echelon_reduce once was, in Fraction
    arithmetic.  rows: one ascending coefficient list per nonconstant
    component.  Sort by degree (stably, highest first), subtract a multiple
    of the first of two neighbours sharing a degree from the second, and
    start over until the degrees strictly decrease.  Returns (B, reduced):
    B as a tuple of rows with reduced_i = sum_j B_ij f_j, reduced as trimmed
    coefficient lists.  Raises ValueError when a combination drops to a
    constant."""
    polys = [_trim(Fraction(c) for c in row) for row in rows]
    m = len(polys)
    b = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    while True:
        order = sorted(range(m), key=lambda i: -len(polys[i]))
        polys = [polys[i] for i in order]
        b = [b[i] for i in order]
        for i in range(m - 1):
            if len(polys[i]) == len(polys[i + 1]):
                ratio = polys[i + 1][-1] / polys[i][-1]
                polys[i + 1] = _trim(x - ratio * y for x, y in zip(polys[i + 1], polys[i]))
                b[i + 1] = [x - ratio * y for x, y in zip(b[i + 1], b[i])]
                if len(polys[i + 1]) < 2:
                    raise ValueError("independence violation detected during elimination")
                break
        else:
            return tuple(tuple(row) for row in b), polys


def _poly_divmod(a, b):
    """Quotient and remainder of a by b, coefficient lists over Q (ascending)."""
    rem = _trim(a)
    q = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        f = rem[-1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            rem[k + i] -= f * c
        rem = _trim(rem[:-1])
    return q, rem


def poly_gcd(a, b):
    """A gcd of two coefficient lists over Q (ascending), by Euclid's
    algorithm in Fractions; not normalized."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def squarefree_part(p):
    """p / gcd(p, p') for a nonconstant coefficient list p over Q."""
    p = _trim(p)
    g = poly_gcd(p, [i * c for i, c in enumerate(p)][1:])
    return _poly_divmod(p, g)[0] if len(g) > 1 else p


def _squarefree_sturm_chain(p):
    """Fraction Sturm chain of the squarefree part of a nonconstant p."""
    p = squarefree_part(p)
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(chain, x):
    signs = [v > 0 for v in (eval_poly_fraction(q, x) for q in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_isolate(coeffs, lo, hi, width=Fraction(1, 10**12)):
    """Isolating intervals for the distinct real roots of sum a_i x^i in the
    open (lo, hi): Fraction Sturm chain of the squarefree part, bisected on
    chain counts until each piece holds one root and is at most width wide;
    a rational root hit by a midpoint shows up as the pair (r, r)."""
    p = _trim(Fraction(c) for c in coeffs)
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi or len(p) <= 1:
        return []
    chain = _squarefree_sturm_chain(p)
    p = chain[0]

    def count(a, b):  # distinct roots in (a, b]
        return _sign_changes(chain, a) - _sign_changes(chain, b)

    out = []

    def split(a, b, n):
        if n == 0:
            return
        if n == 1 and b - a <= width:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if eval_poly_fraction(p, mid) == 0:
            out.append((mid, mid))
            left = count(a, mid) - 1
            split(a, mid, left)
            split(mid, b, n - 1 - left)
            return
        left = count(a, mid)
        split(a, mid, left)
        split(mid, b, n - left)

    split(lo, hi, count(lo, hi) - (eval_poly_fraction(p, hi) == 0))
    return sorted(out)


def poly_real_roots(coeffs, lo, hi):
    """All real roots of sum a_i x^i inside (lo, hi), via numpy eigenvalues."""
    cs = [float(c) for c in coeffs]
    while cs and cs[-1] == 0.0:
        cs.pop()
    if len(cs) <= 1:
        return []
    roots = np.roots(list(reversed(cs)))
    out = []
    for z in roots:
        if abs(z.imag) < 1e-9 and lo < z.real < hi:
            out.append(float(z.real))
    return sorted(out)


def cc_rule(n):
    """Clenshaw-Curtis nodes cos(j*pi/n) (j = 0..n) and weights on [-1, 1],
    built from the cosine-transform identities."""
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


_CC_X, _CC_W = cc_rule(16)
_CC_W_COARSE = cc_rule(8)[1]


def adaptive_cc_dfs(values_at, lo, hi, tol_abs, phase_at=None, rel=0.0, max_panels=400_000, max_depth=52):
    """One-panel-at-a-time depth-first CC16/CC8 bisection: the reference
    for the library's batched quadrature.

    values_at(ts) gets the 17 nodes of one panel; phase_at(t) gets one
    point.  A panel across which phase_at moves by more than 1/2 is split
    unevaluated.  A panel is accepted when its CC16-CC8 difference is within
    its share of tol_abs, within rel of its value, or at float noise level.
    Returns (value, summed error estimates); raises RuntimeError once more
    than max_panels panels are taken or one is deeper than max_depth.
    """
    total = 0.0 + 0.0j
    err_total = 0.0
    width_all = hi - lo
    panels = 0
    fa0 = phase_at(lo) if phase_at is not None else 0.0
    fb0 = phase_at(hi) if phase_at is not None else 0.0
    stack = [(lo, hi, 0, fa0, fb0)]
    while stack:
        a, b, depth, fa, fb = stack.pop()
        panels += 1
        if panels > max_panels or depth > max_depth:
            raise RuntimeError("quadrature failed to converge")
        if phase_at is not None and abs(fb - fa) > 0.5:
            mid = 0.5 * (a + b)
            fm = phase_at(mid)
            stack.append((a, mid, depth + 1, fa, fm))
            stack.append((mid, b, depth + 1, fm, fb))
            continue
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        ts = mid + half * _CC_X
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = values_at(ts)
            fine = half * complex(vals @ _CC_W)
            coarse = half * complex(vals[::2] @ _CC_W_COARSE)
        err = abs(fine - coarse)
        budget = tol_abs * max((b - a) / width_all, 1e-300)
        if err <= budget or err <= rel * abs(fine) or err <= 1e-15 * (1.0 + abs(fine)):
            total += fine
            err_total += err
            continue
        fm = phase_at(mid) if phase_at is not None else 0.0
        stack.append((a, mid, depth + 1, fa, fm))
        stack.append((mid, b, depth + 1, fm, fb))
    return total, err_total


# --- Gaussian elimination over Q -------------------------------------------


def rank_fraction(rows):
    """Rank by Gauss-Jordan elimination over Q."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def independent_fraction(rows):
    """True iff 1, f_1, ..., f_m are linearly independent over Q, for the
    ascending coefficient rows of f_1..f_m: the rows, zero-padded, with
    (1, 0, ..., 0) appended have rank m + 1."""
    n = max(len(r) for r in rows)
    padded = [list(r) + [0] * (n - len(r)) for r in rows]
    return rank_fraction(padded + [[1] + [0] * (n - 1)]) == len(rows) + 1


def solve_fraction(mat, rhs):
    """Gauss-Jordan solve of a square system over Q; raises ValueError on a
    singular matrix."""
    n = len(mat)
    a = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def det_fraction(mat):
    """Determinant by Gaussian elimination over Q."""
    n = len(mat)
    a = [[Fraction(v) for v in r] for r in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def char_poly(mat):
    """det(x I - mat) as an ascending coefficient list, by Lagrange
    interpolation through x = 0..n."""
    n = len(mat)
    ys = [det_fraction([[(x if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)]) for x in range(n + 1)]
    acc = [Fraction(0)] * (n + 1)
    for i, yi in enumerate(ys):
        term = [Fraction(yi)]
        for j in range(n + 1):
            if j != i:
                term = [c / (i - j) for c in _poly_mul(term, [Fraction(-j), Fraction(1)])]
        acc = [u + v for u, v in zip(acc, term)]
    return acc


def min_eigenvalue_lower_charpoly(gram, bits=80):
    """Lower bound on the smallest eigenvalue of a positive-definite Gram
    matrix: bisect mu over [0, trace + 1] for bits steps, keeping mu as the
    lower end while a Sturm chain of the characteristic polynomial finds no
    root in (0, mu]."""
    chain = _squarefree_sturm_chain(_trim(char_poly(gram)))
    lo, hi = Fraction(0), sum(Fraction(gram[i][i]) for i in range(len(gram))) + 1
    v_zero = _sign_changes(chain, Fraction(0))
    for _ in range(bits):
        mid = (lo + hi) / 2
        if _sign_changes(chain, mid) == v_zero and eval_poly_fraction(chain[0], mid) != 0:
            lo = mid
        else:
            hi = mid
    if lo <= 0:
        raise ArithmeticError("Gram matrix is numerically singular")
    return lo


# --- p-adic sphere sums by adaptive residue enumeration ----------------------

_RESIDUE_CEILING = 20_000_000  # refuse residue enumerations beyond this


def _vp(x, p):
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_fractional_phase(x, p):
    """{x}_p, the p-adic fractional part of a rational x, as a Fraction in [0, 1).

    Write x = num / (p^n d) with d prime to p.  For n = 0, x is p-integral and
    {x}_p = 0; else {x}_p = (num * d^-1 mod p^n) / p^n, the one fraction with
    denominator p^n in [0, 1) that differs from x by a p-adic integer.
    """
    x = Fraction(x)
    pn = p ** _vp(x.denominator, p)
    d = x.denominator // pn
    return Fraction(x.numerator * pow(d, -1, pn) % pn, pn)


def _constancy_level(coeffs, p, R):
    """Smallest K with psi(phase(p^R u)) constant on classes u mod p^K."""
    k = 0
    for j, c in enumerate(coeffs):
        if j >= 1 and c != 0:
            k = max(k, -(_vp(c, p) + R * j))
    return max(k, 0)


def _ball_average_residue(phase_coeffs, p, R, K):
    """Average of psi(phase(p^R u)) over u mod p^K, by direct enumeration."""
    if p**K > _RESIDUE_CEILING:
        raise ArithmeticError("precision ceiling reached without stabilization")
    count = p**K
    # common denominator p^k * Q for the scaled coefficients
    coeffs = [c * Fraction(p) ** (R * j) for j, c in enumerate(phase_coeffs)]
    k = max((-_vp(c, p) for c in coeffs if c != 0), default=0)
    k = max(k, 0)
    if k == 0:
        return 1.0 + 0.0j
    pk = p**k
    Q = 1
    for c in coeffs:
        if c != 0:
            den = (c * pk).denominator
            Q = Q * den // math.gcd(Q, den)
    mod = pk * Q
    ints = []
    for c in coeffs:
        scaled = c * pk * Q
        ints.append(int(scaled) % mod)
    qinv = pow(Q, -1, pk)
    u = np.arange(count, dtype=object if mod > 2**31 else np.int64)
    acc = np.zeros_like(u)
    for a in reversed(ints[1:]):
        acc = (acc + a) % mod
        acc = (acc * u) % mod
    acc = (acc + ints[0]) % mod
    frac = ((np.asarray(acc) % pk) * qinv) % pk
    phases = np.exp(2j * np.pi * np.asarray(frac, dtype=np.float64) / pk)
    return complex(phases.mean())


def residue_sphere_sum(phase_coeffs, p, r):
    """Sphere sum of psi(phase) over |s| = p^r, by adaptive residue
    enumeration with an exact-agreement stop; phase_coeffs ascending,
    trailing coefficient nonzero.

    The refinement level starts at K0 = r + deg + max(0, -min v(coeff)) and
    steps up one level (a p-fold refinement) until two successive values agree
    to 1e-12 *and* the level provably resolves the phase (so agreement is a
    theorem, not luck).
    """
    coeffs = [Fraction(c) for c in phase_coeffs]

    def ball(R):
        min_v = min((_vp(c, p) for c in coeffs if c != 0), default=0)
        K = max(0, -R) + max(len(coeffs) - 1, 0) + max(0, -int(min(min_v, 0)))
        # values are provably constant in levels >= k_exact; never pay for more
        k_exact = _constancy_level(coeffs, p, R)
        K = min(K, k_exact)
        prev = _ball_average_residue(coeffs, p, R, K)
        while K < k_exact:
            K += 1
            cur = _ball_average_residue(coeffs, p, R, K)
            stable = abs(cur - prev) <= 1e-12
            prev = cur
            if stable and K >= k_exact:
                break
        return prev

    avg_r = ball(-r)
    avg_r1 = ball(-(r - 1))
    return (p**r) * avg_r - p ** (r - 1) * avg_r1


def padic_vdc_check(coeffs, lam, r, p):
    """Van der Corput on a ball: |int_{p^r Z_p} psi(lam f(s)) ds| against
    2 p^n |lam a_n|_p^{-1/n}, for f with ascending coeffs, degree n and
    leading coefficient a_n.  Returns (lhs, rhs, lhs <= rhs + 1e-9); lhs is
    p^{-r} times the residue average of psi(lam f(p^r u)) at the level
    where it is constant."""
    phase = [Fraction(lam) * Fraction(c) for c in coeffs]
    n = len(phase) - 1
    if n < 1 or phase[-1] == 0:
        raise ValueError("leading coefficient of the phase must be nonzero")
    avg = _ball_average_residue(phase, p, r, _constancy_level(phase, p, r))
    lhs = abs(avg) * float(p) ** -r
    rhs = 2.0 * p**n * float(p) ** (_vp(phase[-1], p) / n)
    return lhs, rhs, lhs <= rhs + 1e-9


def cyc_reduced_dense(p, terms):
    """sum c e^{2 pi i theta} over terms (phase -> coefficient) rewritten in
    the basis 1, zeta, ..., zeta^{phi(N)-1} (N = p^max), as a dict phase ->
    nonzero coefficient.  The dense loop: every exponent from N - 1 down to
    phi(N) is looked up, whatever the number holds, so it costs N/p steps."""
    terms = {th: c for th, c in terms.items() if c != 0}
    if not terms:
        return {}
    N = max(th.denominator for th in terms)
    if N == 1:
        total = sum(terms.values())
        return {Fraction(0): total} if total else {}
    arr = {}
    for th, c in terms.items():
        e = int(th * N)
        arr[e] = arr.get(e, Fraction(0)) + c
    step = N // p
    phi_n = N - step
    for e in range(N - 1, phi_n - 1, -1):
        c = arr.get(e)
        if not c:
            continue
        base = e - phi_n
        for k in range(p - 1):
            tgt = base + k * step
            arr[tgt] = arr.get(tgt, Fraction(0)) - c
        del arr[e]
    return {Fraction(e, N): c for e, c in arr.items() if c != 0}


def box_member(boxes, period, x):
    """x in the union of closed boxes, each axis i with a period p_i
    replicated as [lo, hi] + p_i Z.  boxes: per-axis (lo, hi) pairs with None
    for an open side; period: per-axis p or None.  On a periodic axis x is
    covered iff (x - lo) mod p <= hi - lo, and an open side covers the line."""

    def axis_in(xi, lo, hi, p):
        if p is not None:
            return lo is None or hi is None or (xi - lo) % p <= hi - lo
        return (lo is None or xi >= lo) and (hi is None or xi <= hi)

    return any(all(axis_in(xi, lo, hi, p) for xi, (lo, hi), p in zip(x, box, period)) for box in boxes)


def box_distance(boxes, period, x):
    """The L^inf distance from x to the union of box_member: the min over
    boxes of the max over axes of the distance to the nearest copy of that
    axis's interval (math.inf for no boxes)."""

    def interval_gap(xi, lo, hi):
        if lo is not None and xi < lo:
            return lo - xi
        if hi is not None and xi > hi:
            return xi - hi
        return 0

    def axis_gap(xi, lo, hi, p):
        if p is None:
            return interval_gap(xi, lo, hi)
        if lo is None or hi is None:
            return 0  # the copies of a half-line cover the line
        k = math.floor((xi - lo) / p)  # copy k starts at or below xi, copy k+1 above it
        return min(interval_gap(xi, lo + j * p, hi + j * p) for j in (k - 1, k, k + 1))

    return min(
        (max((axis_gap(xi, lo, hi, p) for xi, (lo, hi), p in zip(x, box, period)), default=0) for box in boxes),
        default=math.inf,
    )


def horner_float(desc, s):
    """sum_j desc[j] s^(d-j) in floats, by Horner's rule from the leading
    coefficient; desc is in descending order."""
    acc = 0.0
    for c in desc:
        acc = acc * s + c
    return acc


def curve_difference_member(rows, w, tol):
    """Is the finite vector w in +-V, V = {(f_1(s), ..., f_m(s))}, to tol?

    rows holds each f_i's rational coefficients in ascending order, the last
    one nonzero.  The zero vector (every |w_i| <= tol) is not.  Otherwise,
    for each sign, try every real s with f_1(s) = +-w_1: (+-w_1 - a_0)/a_1
    when f_1 is linear, else each numpy root whose imaginary part is at most
    1e-9 (1 + |z|), read as its real part.  w is in when some s gives
    |f_i(s) - (+-w_i)| <= tol for every i >= 2, f_i evaluated in floats by
    horner_float."""
    if all(abs(float(v)) <= tol for v in w):
        return False
    first = [float(c) for c in reversed(rows[0])]
    rest = [[float(c) for c in reversed(row)] for row in rows[1:]]
    for sign in (1.0, -1.0):
        ww = [sign * float(v) for v in w]
        if len(first) == 2:
            roots = [(ww[0] - first[1]) / first[0]]
        else:
            shifted = first[:-1] + [first[-1] - ww[0]]
            roots = [float(z.real) for z in np.roots(shifted) if abs(z.imag) <= 1e-9 * (1 + abs(z))]
        for s in roots:
            if all(abs(horner_float(cs, s) - t) <= tol for cs, t in zip(rest, ww[1:])):
                return True
    return False


if __name__ == "__main__":
    # Freeze run: numbers printed here get copied into the test files.
    val = simpson_mu_hat({1: Fraction(1, 100)}, 1.0, 2.0)
    print("simpson mu_hat f=(x,x^2), lam=(0.01,0), window (1,2):", repr(val))

    # worked p-adic example p=3, f=(s,s^2), lam=(3,0): phase 3s
    s1 = brute_force_sphere_sum({1: Fraction(3)}, 3, 1, 4)
    s2 = brute_force_sphere_sum({1: Fraction(3)}, 3, 2, 4)
    print("sphere sums r=1, r=2 for phase 3s over Q_3:", s1, s2)
    L = 2 * (2 - 1 + 1) * (1 - Fraction(1, 3))
    total = (Fraction(1, 3) * 2 * s1.real + Fraction(1, 9) * 2 * s2.real) / L
    print("worked mu_hat:", total)

    # spot sphere sums used as frozen unit values
    print("p=3 phase s/3, r=0:", brute_force_sphere_sum({1: Fraction(1, 3)}, 3, 0, 3))
    print("p=3 phase s/9, r=1:", brute_force_sphere_sum({1: Fraction(1, 9)}, 3, 1, 4))
    print("p=2 phase s^2/4, r=0:", brute_force_sphere_sum({2: Fraction(1, 4)}, 2, 0, 4))

    # coarse grid scan: does f=(x,x^2) on window (1,2) admit mu_hat < 0?
    best = (1.0, None)
    for e1 in range(-3, 3):
        for s1g in (-1, 1):
            for e2 in range(-3, 3):
                for s2g in (-1, 1):
                    lam1 = s1g * 10.0**e1
                    lam2 = s2g * 10.0**e2
                    v = simpson_mu_hat({1: lam1, 2: lam2}, 1.0, 2.0, tol=1e-9)
                    if v < best[0]:
                        best = (v, (lam1, lam2))
    print("coarse-grid minimum for f=(x,x^2), window (1,2):", best)



def compass_search_fraction(evaluate, lam, val, iters=200):
    """Coordinate pattern search in Fraction arithmetic: from (lam, val),
    try lam_i +- step_i for each i, rounded by limit_denominator(10**9), and
    move to the best strict improvement of the sweep; after a sweep without
    one, halve every step and stop once max(step) < 1e-9 * max(1, max
    |lam_i|).  The first step is 3/4 |lam_i|, or 1e-6 at zero.  Yields each
    (lambda, value) it moves to."""
    lam = [Fraction(x) for x in lam]
    step = [abs(x) * Fraction(3, 4) if x != 0 else Fraction(1, 10**6) for x in lam]
    for _ in range(iters):
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
            yield tuple(lam), val


def descend_plain(key, p, memo=None):
    """The unit-ball average J(h) = int_{Z_p} psi(h(u)) du as a dict phase ->
    coefficient, by the plain stationary-phase descent alone, for the key
    (p^m, n_1, ..., n_d): h(u) = sum_j n_j u^j / p^m, every n_j in [0, p^m),
    no common power of p and no trailing zero.

    Residue class c mod p adds psi(h(c)) J(h(c + p u) - h(c)) / p, the
    child's coefficients reduced modulo 1 into a key of the same form.  For
    m >= 2 a class where p^m h'(c) is a unit mod p is skipped; for m = 1
    every class is kept.  Phases are summed modulo 1 in Fractions, and a
    phase met twice adds its coefficients."""
    memo = {} if memo is None else memo
    if key in memo:
        return memo[key]
    pm = key[0]
    out = {}
    if pm == 1:
        out[Fraction(0)] = Fraction(1)
    for c in range(p) if pm > 1 else ():
        shifted = [0, *key[1:]]  # the coefficients of p^m h(c + u)
        for i in range(len(shifted) - 1):
            for k in range(len(shifted) - 2, i - 1, -1):
                shifted[k] += c * shifted[k + 1]
        if pm > p and shifted[1] % p:
            continue
        nums = [s * p**j % pm for j, s in enumerate(shifted[1:], 1)]
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(pm, *nums)
        child = (pm // g, *[n // g for n in nums])
        shift = Fraction(shifted[0] % pm, pm)
        for theta, coef in descend_plain(child, p, memo).items():
            theta = (theta + shift) % 1
            out[theta] = out.get(theta, 0) + coef / p
    memo[key] = out
    return out


def coloring_violations_bulk(f, n, edge_samples, seed):
    """The periodic coloring count with every edge drawn at once: x, y and t
    from one default_rng(seed), in that order, and f called on all of t.
    f must act on arrays; n is not checked against any threshold."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-20.0, 20.0, edge_samples)
    y = rng.uniform(-20.0, 20.0, edge_samples)
    t = rng.uniform(-5.0, 5.0, edge_samples)
    ft = np.asarray(f(t), dtype=float)
    c1a = np.floor(n * x).astype(np.int64) % n
    c1b = np.floor(n * y).astype(np.int64) % (n * n)
    c2a = np.floor(n * (x + t)).astype(np.int64) % n
    c2b = np.floor(n * (y + ft)).astype(np.int64) % (n * n)
    return int(np.count_nonzero((c1a == c2a) & (c1b == c2b)))
