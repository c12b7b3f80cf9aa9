"""Exact polynomial plumbing: rational parsing, polynomial arithmetic, root
isolation checked against a Sturm oracle, phase polynomials and their
t-derivatives, curve families, and the certified interpolation /
operator-norm constants."""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    det_fraction,
    independent_fraction,
    min_eigenvalue_lower_charpoly,
    phase_fraction,
    poly_gcd,
    poly_real_roots,
    rank_fraction,
    solve_fraction,
    squarefree_part,
    sturm_isolate,
)

from oscillabound import polycore, realosc, spectral
from oscillabound.cayleylab import curve_difference_oracle
from oscillabound.polycore import (
    ISOLATION_WIDTH,
    CurveFamily,
    RationalPoly,
    compute_a0_real,
    high_freq_constants,
    isolate_positive_roots,
    parse_curve_family,
    parse_integer,
    parse_positive,
    parse_rational,
    phase_integers,
    vandermonde_interpolation,
)


def _random_rational(rng, mag=6, den=12):
    return Fraction(rng.randint(-mag, mag), rng.randint(1, den))


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(3) == Fraction(3)
    assert parse_rational(Fraction(2, 9)) == Fraction(2, 9)
    assert parse_rational(0.5) == Fraction(1, 2)
    for bad in ("a/b", "1.5.2", [], None):
        try:
            parse_rational(bad)
        except (ValueError, TypeError):
            pass
        else:
            raise AssertionError(f"parse_rational accepted {bad!r}")
    for flag in (True, False):  # JSON true is not 1
        try:
            parse_rational(flag)
        except TypeError:
            pass
        else:
            raise AssertionError(f"parse_rational accepted {flag!r}")


def test_parse_integer_names_the_setting_for_nan_and_inf():
    assert [parse_integer(v, "seed") for v in (7, 7.0, "7", Fraction(7))] == [7] * 4
    for value in (math.nan, math.inf, -math.inf, np.float64("nan"), 7.5, True):
        try:
            parse_integer(value, "seed")
        except ValueError as exc:
            assert str(exc) == f"seed must be an integer; got {value!r}", exc
        else:
            raise AssertionError(f"{value!r} read as an integer")


def test_parse_integer_names_the_setting_for_unreadable_values():
    # these used to escape from parse_rational as "invalid literal for
    # int()", a TypeError or a ZeroDivisionError, naming no setting
    for value in ("abc", None, "1/0", "1/2/3", [7], {}):
        try:
            parse_integer(value, "seed")
        except ValueError as exc:
            assert str(exc) == f"seed must be an integer; got {value!r}", exc
        else:
            raise AssertionError(f"{value!r} read as an integer")


def test_parse_positive_is_the_one_finite_positive_rule():
    # the CLI's tol and density radii and the library's curve oracle all
    # read through it; the oracle used to say "tol must be a number" for a
    # bool or None
    assert [parse_positive(v, "tol") for v in (1e-9, "1e-9", Fraction(1, 2), 3)] == [1e-9, 1e-9, 0.5, 3.0]
    for value in (0, -1, math.nan, math.inf, -math.inf, True, False, None, "abc", [1e-9], 10**400):
        want = f"tol must be a finite positive number; got {value!r}"
        try:
            parse_positive(value, "tol")
        except ValueError as exc:
            assert str(exc) == want, exc
        else:
            raise AssertionError(f"{value!r} read as a positive number")
        try:
            curve_difference_oracle(parse_curve_family([["0", "1"], ["0", "0", "1"]]), tol=value)
        except ValueError as exc:
            assert str(exc) == want, exc
        else:
            raise AssertionError(f"the curve oracle accepted tol {value!r}")


def test_rational_poly_arithmetic():
    one_plus = RationalPoly([1, 1])
    one_minus = RationalPoly([1, -1])
    assert one_plus * one_minus == RationalPoly([1, 0, -1])
    assert one_plus + one_minus == RationalPoly([2])
    assert one_plus - one_plus == RationalPoly([])
    cubic = RationalPoly([-1, 0, 0, 1])  # x^3 - 1
    assert RationalPoly([-1, 1]) * RationalPoly([1, 1, 1]) == cubic
    assert cubic(Fraction(2)) == Fraction(7)
    assert cubic * Fraction(1, 2) == RationalPoly(["-1/2", 0, 0, "1/2"])


def test_rational_poly_gcd_squarefree_compose():
    # the common factor x - 2 of (x-2)(x^2+1) and (x-2)x puts a0 at ln 2
    x_minus_2 = RationalPoly([-2, 1])
    fam = CurveFamily([x_minus_2 * RationalPoly([1, 0, 1]), x_minus_2 * RationalPoly([0, 1])])
    assert abs(compute_a0_real(fam) - math.log(2)) < 1e-11
    x_minus_1 = RationalPoly([-1, 1])
    doubled = x_minus_1 * x_minus_1 * RationalPoly([2, 1]) * Fraction(3, 5)
    sf = polycore._squarefree(polycore.clear_denominators(doubled.coeffs)[1])
    assert sf in ([-2, 1, 1], [2, -1, -1])  # (x-1)(x+2), primitive
    # p(c + d*x) agrees with direct evaluation
    rng = random.Random(7)
    for _ in range(20):
        coeffs = [_random_rational(rng) for _ in range(rng.randint(1, 5))]
        poly = RationalPoly(coeffs)
        c, d, x = (_random_rational(rng) for _ in range(3))
        assert poly.compose_linear(c, d)(x) == poly(c + d * x)
    # the form the p-adic descent shifts: integer coefficients and an
    # integer c, which taylor_shift keeps in ints
    for _ in range(20):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 6))]
        c, x = rng.randint(-7, 7), _random_rational(rng)
        shifted = polycore.taylor_shift(coeffs, c)
        assert all(type(a) is int for a in shifted), shifted
        assert RationalPoly(shifted)(x) == RationalPoly(coeffs)(c + x)
        assert RationalPoly(coeffs).compose_linear(c, 7)(x) == RationalPoly(coeffs)(c + 7 * x)


def test_isolate_positive_roots_examples():
    assert len(isolate_positive_roots(RationalPoly([-2, 1]), 0, 10)) == 1
    assert isolate_positive_roots(RationalPoly([1, 0, 1]), 0, 10) == []
    two = isolate_positive_roots(RationalPoly([6, -5, 1]), 0, 10)
    assert len(two) == 2
    for (lo, hi), root in zip(two, (2.0, 3.0)):
        assert float(lo) <= root <= float(hi)
        assert hi - lo <= Fraction(1, 10**12)


def test_isolate_positive_roots_on_an_empty_interval():
    # (2, 1), (1, 1) and (2, 0) hold no point at all, though the ends of
    # (2, 0) straddle the root 1 of x^2 - 1 and those of (5, 0) both roots
    # of (x - 1)(x - 2)
    assert isolate_positive_roots([-1, 0, 1], 2, 1) == []
    assert isolate_positive_roots([-1, 0, 1], 1, 1) == []
    assert isolate_positive_roots([-1, 0, 1], 2, 0) == []
    assert isolate_positive_roots([2, -3, 1], 5, 0) == []
    assert isolate_positive_roots([-1, 0, 1], 0, 2) == [(1, 1)]


def test_isolate_positive_roots_random():
    rng = random.Random(23)
    for _ in range(30):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 6))]
        poly = RationalPoly(coeffs)
        if poly.degree < 1:
            continue
        got = isolate_positive_roots(poly, Fraction(1, 100), 20)
        expected = poly_real_roots(squarefree_part(poly.coeffs), 0.01, 20.0)
        assert len(got) == len(expected), (coeffs, got, expected)
        for (lo, hi), root in zip(got, expected):
            assert float(lo) - 1e-9 <= root <= float(hi) + 1e-9


def _times(coeffs, factor):
    out = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


@st.composite
def _isolation_cases(draw):
    """(coeffs, lo, hi, distinct real roots) for a polynomial built from its
    roots: repeated roots, roots at lo and hi, dyadic roots at the bisection
    midpoints of (lo, hi), other small-denominator rationals, and an optional
    root-free quadratic factor."""
    lo = Fraction(draw(st.integers(-8, 8)), draw(st.sampled_from((1, 2, 3, 4))))
    hi = lo + Fraction(draw(st.integers(1, 64)), draw(st.sampled_from((1, 2, 4, 8))))
    midpoint = st.builds(
        lambda k, j: lo + (hi - lo) * (2 * (j % 2**k) + 1) / 2 ** (k + 1),
        st.integers(0, 5),
        st.integers(0, 31),
    )
    rational = st.builds(Fraction, st.integers(-200, 800), st.integers(1, 16))
    roots = draw(
        st.lists(st.one_of(st.sampled_from((lo, hi)), midpoint, rational), min_size=1, max_size=4)
    )
    lead = Fraction(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))), draw(st.integers(1, 5)))
    coeffs = [lead]
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            coeffs = _times(coeffs, [-r, Fraction(1)])
    if draw(st.booleans()):
        coeffs = _times(coeffs, [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4))), 0, 1])
    return coeffs, lo, hi, sorted(set(roots))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_isolation_cases())
def test_isolation_matches_oracle_from_roots(case):
    coeffs, lo, hi, roots = case
    got = isolate_positive_roots(RationalPoly(coeffs), lo, hi)
    assert got == sturm_isolate(coeffs, lo, hi)
    inside = [r for r in roots if lo < r < hi]
    assert len(got) == len(inside)
    for (left, right), r in zip(got, inside):
        assert lo <= left <= r <= right <= hi and right - left <= ISOLATION_WIDTH
        assert (left == right) == (left == r)  # only a hit midpoint is degenerate
    # numpy agrees on the count: its real roots of the squarefree product,
    # away from lo and hi (no root lies within 1e-3 of them unless on them)
    squarefree = [Fraction(1)]
    for r in roots:
        squarefree = _times(squarefree, [-r, Fraction(1)])
    numeric = np.roots([float(c) for c in reversed(squarefree)])
    near = [z.real for z in numeric if abs(z.imag) < 1e-9]
    assert sum(1 for x in near if float(lo) + 1e-7 < x < float(hi) - 1e-7) == len(got)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)), min_size=2, max_size=7),
    st.builds(Fraction, st.integers(-8, 4), st.integers(1, 4)),
    st.builds(Fraction, st.integers(1, 64), st.sampled_from((1, 2, 3, 8))),
)
def test_isolation_matches_oracle_random_coefficients(coeffs, lo, span):
    got = isolate_positive_roots(RationalPoly(coeffs), lo, lo + span)
    assert got == sturm_isolate(coeffs, lo, lo + span)
    assert all(right - left <= ISOLATION_WIDTH for left, right in got)


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


@st.composite
def _descartes_cases(draw):
    """(coeffs, lo, hi, shape) over the three cases of isolate_positive_roots.

    shape "none" multiplies factors x + s with s >= 0 (s = 0 puts a root on
    lo = 0) and a quadratic with positive coefficients: no sign change.
    "one" multiplies a simple x - r by factors x + s: a real-rooted factor
    has log-concave coefficients, so exactly one sign change.  "many" has
    two or more positive roots, counted with multiplicity.  "near" is
    (x - r)^2 + (s (hi - lo))^2 with r > 0 and s from 1e-6 to 1, times zero
    or one simple positive root: two or three sign changes for at most one
    real root, so the bisection splits deeper around r than a Sturm count
    would.  It is returned as "many", whose sign-change bound it meets.  The
    window is (lo, hi) with lo = 0, lo > 0 or lo < 0, or a padded x-window
    of t in [1, 6] or [1, 26].  A positive root is an endpoint, a bisection
    midpoint (a degenerate pair), or another rational inside or outside the
    window."""
    kind = draw(st.sampled_from(("zero", "positive", "negative", "x6", "x26")))
    if kind == "zero":
        lo, hi = Fraction(0), Fraction(draw(st.integers(1, 64)), draw(st.sampled_from((1, 2, 3, 8))))
    elif kind in ("positive", "negative"):
        lo = Fraction(draw(st.integers(1, 16)), draw(st.sampled_from((1, 2, 3, 4))))
        lo = lo if kind == "positive" else -lo
        hi = lo + Fraction(draw(st.integers(1, 64)), draw(st.sampled_from((1, 2, 4, 8))))
    else:
        lo, hi = realosc._x_window(1, 6 if kind == "x6" else 26)
    midpoint = st.builds(
        lambda k, j: lo + (hi - lo) * (2 * (j % 2**k) + 1) / 2 ** (k + 1), st.integers(0, 5), st.integers(0, 31)
    )
    rational = st.builds(lambda n, d: lo + (hi - lo) * Fraction(n, d), st.integers(-8, 24), st.integers(1, 16))
    positive_root = st.one_of(st.sampled_from((lo, hi)), midpoint, rational).filter(lambda r: r > 0)
    shape = draw(st.sampled_from(("none", "one", "many", "near")))
    if shape == "near":
        r = draw(st.one_of(midpoint, rational).filter(lambda r: r > 0))
        width = (hi - lo) / 10 ** draw(st.integers(0, 6))
        lead = Fraction(draw(st.sampled_from((1, -1))))
        coeffs = [lead * (r * r + width * width), -2 * lead * r, lead]
        for root in draw(st.lists(positive_root, max_size=1)):
            coeffs = _times(coeffs, [-root, Fraction(1)])
        return coeffs, lo, hi, "many"
    roots = {
        "none": [],
        "one": [draw(positive_root)],
        "many": draw(st.lists(positive_root, min_size=2, max_size=3)),
    }[shape]
    negative = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(1, 40), st.integers(1, 5)))
    negatives = draw(st.lists(negative, max_size=3))
    lead = Fraction(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))), draw(st.integers(1, 5)))
    coeffs = [lead]
    for r in roots:
        for _ in range(draw(st.integers(1, 2)) if shape == "many" else 1):
            coeffs = _times(coeffs, [-r, Fraction(1)])
    for s in negatives:
        for _ in range(draw(st.integers(1, 2))):
            coeffs = _times(coeffs, [s, Fraction(1)])
    if shape == "none" and (not negatives or draw(st.booleans())):
        coeffs = _times(coeffs, [Fraction(draw(st.integers(1, 9))), Fraction(draw(st.integers(1, 9)), 4), 1])
    return coeffs, lo, hi, shape


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_descartes_cases())
def test_descartes_paths_match_the_sturm_oracle(case):
    coeffs, lo, hi, shape = case
    changes = _sign_changes(coeffs)
    assert changes >= 2 if shape == "many" else changes == {"none": 0, "one": 1}[shape], (shape, coeffs)
    got = isolate_positive_roots(RationalPoly(coeffs), lo, hi)
    assert got == sturm_isolate(coeffs, lo, hi)
    # the integer form that realosc passes gives the same intervals
    den = math.lcm(*(c.denominator for c in coeffs))
    assert isolate_positive_roots([int(c * den) for c in coeffs], lo, hi) == got


def test_a_non_real_root_near_a_real_one_keeps_the_contract():
    # (x - r)((x - r)^2 + s^2): Descartes' rule overcounts on the dyadic cell
    # of width <= 1e-12 around r once s is about that small, so the pair may
    # be a deeper dyadic cell of (0, 1), but it still holds r alone
    for r, k in ((Fraction(1, 3), 11), (Fraction(1, 3), 15), (Fraction(2, 7), 20)):
        s = Fraction(1, 10**k)
        coeffs = _times([-r, Fraction(1)], [r * r + s * s, -2 * r, Fraction(1)])
        [(left, right)] = isolate_positive_roots(RationalPoly(coeffs), 0, 1)
        width = right - left
        assert left < r < right and width <= ISOLATION_WIDTH
        assert width.numerator == 1 and width.denominator & (width.denominator - 1) == 0  # 2^-k
        assert (left / width).denominator == 1


def test_isolation_width_is_pinned():
    # breakpoint accuracy is load-bearing: a width of 1e-3 makes the
    # quadrature raise QuadratureError on the criterion-6 sweep
    assert ISOLATION_WIDTH == Fraction(1, 10**12)


_ENTRY = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def _rational_matrices(draw, square=False, dependent=True):
    """Random rational matrices.  With dependent, a row is often a rational
    combination of the rows above it, so singular and rank-deficient
    matrices come up as often as regular ones."""
    nrows = draw(st.integers(1, 5 if dependent else 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    rows = []
    for _ in range(nrows):
        if dependent and rows and draw(st.booleans()):
            coefs = draw(st.lists(_ENTRY, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(_ENTRY, min_size=ncols, max_size=ncols)))
    return rows


def _det_by_bareiss(mat):
    """det of a square rational matrix from its fraction-free elimination:
    the last pivot, signed by the row order, over the product of the row
    scales."""
    _, order, pivots = polycore._bareiss(mat)
    if len(pivots) < len(mat):
        return Fraction(0)
    inversions = sum(1 for i in range(len(order)) for j in range(i) if order[j] > order[i])
    scale = math.prod(math.lcm(*(x.denominator for x in row)) for row in mat)
    return Fraction((-1) ** inversions * pivots[-1][1], scale)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rational_matrices())
def test_bareiss_rank_matches_oracle(rows):
    a, _, pivots = polycore._bareiss(rows)
    assert len(pivots) == rank_fraction(rows)
    assert all(isinstance(x, int) for row in a for x in row)
    assert [c for c, _ in pivots] == sorted({c for c, _ in pivots})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rational_matrices(square=True), st.data())
def test_bareiss_det_and_solve_match_oracle(mat, data):
    assert _det_by_bareiss(mat) == det_fraction(mat)
    rhs = data.draw(st.lists(_ENTRY, min_size=len(mat), max_size=len(mat)))
    try:
        want = solve_fraction(mat, rhs)
    except ValueError:
        try:
            polycore._solve(mat, rhs)
        except ValueError:
            return
        raise AssertionError("singular system solved")
    assert polycore._solve(mat, rhs) == want


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_rational_matrices(square=True, dependent=False))
def test_min_eigenvalue_lower_matches_charpoly_oracle(mat):
    assume(det_fraction(mat) != 0)
    n = len(mat)
    gram = [[sum(mat[k][i] * mat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    got = polycore._min_eigenvalue_lower(gram)
    assert got == min_eigenvalue_lower_charpoly(gram)
    assert 0 < got <= min(gram[i][i] for i in range(n))


def test_min_eigenvalue_lower_refuses_a_singular_gram_matrix():
    # no positive lower bound exists, so the bisection never leaves 0
    for gram in ([[Fraction(0)]], [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]):
        try:
            polycore._min_eigenvalue_lower(gram)
        except ArithmeticError as exc:
            assert str(exc) == "Gram matrix is numerically singular", exc
        else:
            raise AssertionError(f"singular {gram} got a positive bound")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(_ENTRY, max_size=7), st.integers(1, 4))
def test_t_derivative_is_euler_operator(coeffs, k):
    """d/dt g(e^t) = e^t g'(e^t), so the k-th t-derivative is x times the
    x-derivative of the (k-1)-th, exactly."""
    g = RationalPoly(coeffs)
    x = RationalPoly([0, 1])
    assert g.t_derivative(0) == g
    prev = g.t_derivative(k - 1).coeffs
    assert g.t_derivative(k) == x * RationalPoly([j * c for j, c in enumerate(prev)][1:] or [0])
    t = 0.37
    want = sum(float(c) * j**k * math.exp(j * t) for j, c in enumerate(g.coeffs))
    assert abs(g.t_derivative(k)(math.exp(t)) - want) <= 1e-12 * (1 + abs(want))


def test_curve_family_shape():
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    assert fam.m == 2 and fam.n == 2
    assert [list(r) for r in fam.coefficient_matrix()] == [
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    try:
        CurveFamily([RationalPoly([3])])
    except ValueError:
        pass
    else:
        raise AssertionError("constant component accepted")


INDEPENDENCE = "independence violation: 1, f_1, ..., f_m are linearly dependent"


def _rejected_as_dependent(rows):
    """True if CurveFamily rejects rows with the independence message, False
    if it builds the family, which independent_fraction then accepts."""
    try:
        fam = CurveFamily([RationalPoly(r) for r in rows])
    except ValueError as exc:
        assert str(exc) == INDEPENDENCE, (rows, exc)
        return True
    assert independent_fraction([f.coeffs for f in fam.polys]), rows
    return False


def test_check_independence():
    assert not _rejected_as_dependent([["0", "1"], ["0", "0", "1"]])
    assert _rejected_as_dependent([["1", "1"], ["2", "2"]])
    # shifting a component by a constant never changes independence; every
    # other pair is made dependent, 3 f_1 - 2 in place of f_2
    rng = random.Random(5)
    for i in range(20):
        rows = [[_random_rational(rng) for _ in range(4)] for _ in range(2)]
        for r in rows:
            if all(c == 0 for c in r[1:]):
                r[rng.randint(1, 3)] = Fraction(1)
        if i % 2:
            rows[1] = [3 * rows[0][0] - 2] + [3 * c for c in rows[0][1:]]
        shifted = [[r[0] + 7] + r[1:] for r in rows]
        assert _rejected_as_dependent(rows) == _rejected_as_dependent(shifted) == bool(i % 2), rows


_DEP_COEFF = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def _rows_maybe_dependent(draw):
    """Coefficient rows of an independent family of 1-3 components of degree
    1-4 (the Fraction oracle decides), and often one more row inserted among
    them: a rational combination of the family's rows plus a constant, left
    as it is or with one nonconstant coefficient moved by 1."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        while True:
            degree = draw(st.integers(1, 4))
            row = draw(st.lists(_DEP_COEFF, min_size=degree, max_size=degree)) + [draw(_DEP_COEFF.filter(bool))]
            if independent_fraction(rows + [row]):
                break
        rows.append(row)
    kind = draw(st.sampled_from(("independent", "combination", "moved")))
    if kind == "independent":
        return rows
    coefs = draw(st.lists(_DEP_COEFF, min_size=len(rows), max_size=len(rows)))
    if not any(coefs):
        coefs[0] = Fraction(1)
    combo = [Fraction(0)] * max(map(len, rows))
    for c, row in zip(coefs, rows):
        for j, v in enumerate(row):
            combo[j] += c * v
    combo[0] += draw(_DEP_COEFF)
    if kind == "moved":
        combo[draw(st.integers(1, len(combo) - 1))] += 1
        while len(combo) > 1 and not combo[-1]:
            combo.pop()
        if len(combo) < 2:
            return rows
    rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_rows_maybe_dependent())
@example([[0, 1], [0, 2]])
@example([[1, 1], [2, 2]])
@example([[0, 1], [0, 0, 1], [5, -1, 3]])
@example([[0, 1], [0, 0, 1], [5, -1, 3, 1]])
def test_curve_family_rejects_exactly_the_dependent_families(rows):
    # the one independence rule, against the rank of the Fraction oracle
    assert _rejected_as_dependent(rows) == (not independent_fraction(rows)), rows


def test_phase_integers_examples():
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    den, ints = phase_integers(fam, (Fraction(2), Fraction(3)))
    assert [Fraction(n, den) for n in ints] == [0, 2, 3]
    den, ints = phase_integers(fam, (0, 0))
    assert den > 0 and ints == [0, 0, 0]
    shifted = parse_curve_family([["3", "1"], ["1/2", "0", "1"]])
    den, ints = phase_integers(shifted, (2, "-1/2"))
    assert [Fraction(n, den) for n in ints] == [Fraction(23, 4), 2, Fraction(-1, 2)]


_PHASE_COEFF = st.fractions(min_value=-40, max_value=40, max_denominator=36)


@st.composite
def _phase_cases(draw):
    """(family rows, lam): 1-3 independent components of degree 1-5 with
    non-integer coefficients and constant terms; lam mixes zeros, rationals of either
    sign with denominators up to 1e9, and real-grid and lattice values."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        while True:  # until 1 and the rows are independent, as CurveFamily requires
            degree = draw(st.integers(1, 5))
            row = draw(st.lists(_PHASE_COEFF, min_size=degree + 1, max_size=degree + 1))
            if row[-1] == 0:
                row[-1] = draw(st.sampled_from((Fraction(1, 3), Fraction(-7, 2), Fraction(5))))
            if independent_fraction(rows + [row]):
                break
        rows.append(row)
    component = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
        st.sampled_from(spectral._real_axis_values()),
        st.sampled_from(spectral._padic_axis_values(3) + spectral._padic_axis_values(5)),
    )
    lam = tuple(draw(component) for _ in rows)
    return rows, lam


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_phase_cases())
def test_phase_integers_match_the_fraction_oracle(case):
    rows, lam = case
    fam = CurveFamily([RationalPoly(r) for r in rows])
    want = phase_fraction([p.coeffs for p in fam.polys], lam)
    den, ints = phase_integers(fam, lam)
    assert den > 0 and len(ints) == fam.n + 1
    assert all(Fraction(n, den) == c for n, c in zip(ints, want))
    for bad in (lam + (Fraction(1),), lam[1:]):
        try:
            phase_integers(fam, bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"a frequency of length {len(bad)} was accepted for m = {fam.m}")


def test_vandermonde_examples():
    assert vandermonde_interpolation([1], 1) == (Fraction(1),)
    assert vandermonde_interpolation([1, 1], 2) == (Fraction(3, 2), Fraction(-1, 2))
    assert vandermonde_interpolation((0, 1), 2) == (Fraction(-1, 2), Fraction(1, 2))


def test_vandermonde_exact_all_n():
    # all-ones and every Kronecker-delta target, n = 1..12, zero tolerance
    for n in range(1, 13):
        alpha = vandermonde_interpolation([1] * n, n)
        for j in range(1, n + 1):
            assert sum(c * j**k for k, c in enumerate(alpha, start=1)) == 1
        for ell in range(1, n + 1):
            target = [Fraction(1 if j == ell else 0) for j in range(1, n + 1)]
            beta = vandermonde_interpolation(target, n)
            for j in range(1, n + 1):
                want = Fraction(1 if j == ell else 0)
                assert sum(c * j**k for k, c in enumerate(beta, start=1)) == want


def test_vandermonde_random_targets():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 9)
        target = [_random_rational(rng) for _ in range(n)]
        coeffs = vandermonde_interpolation(target, n)
        for j, want in enumerate(target, start=1):
            assert sum(c * j**k for k, c in enumerate(coeffs, start=1)) == want


def test_compute_a0_real():
    assert compute_a0_real(parse_curve_family([["0", "1"], ["0", "0", "1"]])) == 0.0
    val = compute_a0_real(parse_curve_family([["-2", "1"], ["0", "-2", "1"]]))
    assert abs(val - math.log(2)) < 1e-9
    assert compute_a0_real(parse_curve_family([["-1/2", "1"], ["0", "-1/2", "1"]])) == 0.0


def test_compute_a0_real_once_per_family(monkeypatch):
    fam = parse_curve_family([["-3", "1"], ["0", "-3", "1"]])
    calls = []

    def counting(*args):
        calls.append(args)
        return isolate_positive_roots(*args)

    monkeypatch.setattr(polycore, "isolate_positive_roots", counting)
    first = compute_a0_real(fam)
    assert abs(first - math.log(3)) < 1e-9 and len(calls) == 1
    assert compute_a0_real(fam) == first and len(calls) == 1


def _a0_oracle(components):
    """a0 from a Fraction gcd: the monic gcd of the components, then its top
    root in [1, cauchy + 1) through the same isolate_positive_roots."""
    g = components[0]
    for c in components[1:]:
        g = poly_gcd(g, c)
    if len(g) < 2:
        return 0.0
    g = [c / g[-1] for c in g]
    best = Fraction(1) if sum(g) == 0 else None
    cauchy = 1 + max(abs(c) for c in g[:-1])
    for _, right in isolate_positive_roots(RationalPoly(g), Fraction(1), cauchy + 1):
        if best is None or right > best:
            best = right
    return 0.0 if best is None else math.log(float(best))


@st.composite
def _planted_components(draw):
    """1-3 components sharing a planted factor: rational roots above, below
    and at 1, each possibly repeated, and possibly x^2 - 3 (root sqrt 3);
    each component is that factor times a random cofactor."""
    common = [Fraction(draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1))), draw(st.integers(1, 4)))]
    root = st.one_of(st.just(Fraction(1)), st.builds(Fraction, st.integers(-20, 40), st.integers(1, 9)))
    for r in draw(st.lists(root, max_size=3)):
        for _ in range(draw(st.integers(1, 2))):
            common = _times(common, [-r, Fraction(1)])
    if draw(st.booleans()):
        common = _times(common, [Fraction(-3), Fraction(0), Fraction(1)])
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    lead = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    components = []
    for _ in range(draw(st.integers(1, 3))):
        cofactor = draw(st.lists(entry, min_size=0 if len(common) > 1 else 1, max_size=3)) + [draw(lead)]
        components.append(_times(common, cofactor))
    return components


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_planted_components())
def test_a0_matches_fraction_gcd_oracle(components):
    # components sharing a factor are often dependent: _a0_real reads any
    # list of them, and compute_a0_real each one CurveFamily accepts
    polys = [RationalPoly(c) for c in components]
    want = _a0_oracle(components)
    assert polycore._a0_real(polys) == want
    if independent_fraction(components):
        assert compute_a0_real(CurveFamily(polys)) == want


def test_alpha_is_the_sum_of_the_unit_solutions():
    for n in range(1, 9):
        fam = CurveFamily([RationalPoly([0] * n + [1])])
        assert high_freq_constants(fam).alpha == vandermonde_interpolation([1] * n, n)


def test_high_freq_constants_identity_family():
    hc = high_freq_constants(parse_curve_family([["0", "1"], ["0", "0", "1"]]))
    assert hc.m == 2 and hc.n == 2
    assert hc.alpha == (Fraction(3, 2), Fraction(-1, 2))
    assert 1.5 <= hc.H <= 1.5 * (1 + 1e-9)
    assert hc.beta == ((Fraction(2), Fraction(-1)), (Fraction(-1, 2), Fraction(1, 2)))
    assert 2.0 <= hc.H_prime <= 2.0 * (1 + 1e-9)
    assert 1.0 <= hc.M <= 1.0 + 1e-6  # identity coefficient matrix
    assert hc.L == 0.0 and hc.eps == math.inf


def test_high_freq_constants_nonzero_L():
    hc = high_freq_constants(parse_curve_family([["0", "1"], ["1", "0", "1"]]))
    assert 1.0 <= hc.L <= 1.0 + 1e-9
    assert 0.0 < hc.eps < 1.0 / (8.0 * math.sqrt(2))
    try:
        high_freq_constants(parse_curve_family([["1", "1"], ["2", "2"]]))
    except ValueError:
        pass
    else:
        raise AssertionError("dependent family accepted")
