"""p-adic arithmetic and character sums: valuations, fractional phases, exact
sphere integrals vs. brute-force residue enumeration, the normalized
transform, and the certified lower-bound constant."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_sphere_sum, residue_sphere_sum

from oscillabound.padic import (
    PadicWindow,
    certified_bound_padic,
    echelon_reduce,
    ess_part,
    mu_hat_padic,
    padic_fractional_phase,
    padic_vdc_check,
    sphere_character_sum,
    vp,
)
from oscillabound import polycore
from oscillabound.polycore import CurveFamily, RationalPoly, check_independence, parse_curve_family

X = RationalPoly([0, 1])
X2 = RationalPoly([0, 0, 1])


def _random_rational_with_valuation(rng, p, vlo=-2, vhi=2):
    v = rng.randint(vlo, vhi)
    unit = rng.randint(1, p**3)
    while unit % p == 0:
        unit = rng.randint(1, p**3)
    sign = rng.choice((-1, 1))
    return Fraction(sign * unit) * Fraction(p) ** v


def test_vp_basics():
    assert vp(18, 3) == 2
    assert vp(Fraction(1, 9), 3) == -2
    assert vp(6, 2) == 1
    assert vp(0, 5) == math.inf
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        a = _random_rational_with_valuation(rng, p, -3, 3)
        b = _random_rational_with_valuation(rng, p, -3, 3)
        assert vp(a * b, p) == vp(a, p) + vp(b, p)


def test_padic_fractional_phase():
    assert padic_fractional_phase(Fraction(1, 3), 3) == Fraction(1, 3)
    assert padic_fractional_phase(Fraction(4, 3), 3) == Fraction(1, 3)
    assert padic_fractional_phase(7, 3) == 0
    assert padic_fractional_phase(Fraction(3, 4), 2) == Fraction(3, 4)
    rng = random.Random(2)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        x = _random_rational_with_valuation(rng, p, -4, 1)
        theta = padic_fractional_phase(x, p)
        assert 0 <= theta < 1
        assert vp(x - theta, p) >= 0  # x minus its fractional part is integral


def test_sphere_sums_frozen():
    # values frozen from the brute-force residue oracle (oracles.py freeze run)
    assert abs(sphere_character_sum(X, 3, 1, 3) - 2.0) < 1e-12
    assert abs(sphere_character_sum(X, 3, 2, 3) - (-3.0)) < 1e-12
    assert abs(sphere_character_sum(X, Fraction(1, 3), 0, 3) - (-1 / 3)) < 1e-12
    assert abs(sphere_character_sum(X, Fraction(1, 9), 1, 3)) < 1e-12
    assert abs(sphere_character_sum(X2, Fraction(1, 4), 0, 2) - 0.5j) < 1e-12


def test_sphere_lam_zero_is_measure():
    for p in (2, 3, 5):
        for r in (-1, 0, 2):
            assert sphere_character_sum(X2, 0, r, p) == complex(p**r - p ** (r - 1))


def test_sphere_exact_vs_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        deg = rng.randint(1, 3)
        coeffs = [Fraction(rng.randint(-p**2, p**2)) for _ in range(deg)] + [
            _random_rational_with_valuation(rng, p, -1, 1)
        ]
        f = RationalPoly(coeffs)
        lam = _random_rational_with_valuation(rng, p, -2, 2)
        r = rng.randint(-1, 3)
        got = sphere_character_sum(f, lam, r, p)
        phase = {j: lam * c for j, c in enumerate(f.coeffs) if c != 0 and j > 0}
        phase[0] = lam * f.coeffs[0]
        want = brute_force_sphere_sum(phase, p, r, r + f.degree + 3)
        assert abs(got - want) < 1e-9, (p, coeffs, lam, r, got, want)


def test_sphere_exact_vs_residue_method():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        deg = rng.randint(1, 3)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(deg)] + [
            _random_rational_with_valuation(rng, p, -2, 2)
        ]
        f = RationalPoly(coeffs)
        lam = _random_rational_with_valuation(rng, p, -2, 2)
        r = rng.randint(-1, 3)
        exact = sphere_character_sum(f, lam, r, p)
        residue = residue_sphere_sum([lam * c for c in f.coeffs], p, r)
        assert abs(exact - residue) < 1e-9


def test_ess_part():
    assert ess_part(X, 3) == 0
    assert ess_part(RationalPoly([0, 1, 9]), 3) == 2  # 9x^2 + x
    assert ess_part(RationalPoly([0, 9, 1]), 3) == 0
    assert ess_part(RationalPoly([27, 0, 1]), 3) == 0  # constant ignored? no:
    # constant term 27 has valuation 3, leading valuation 0: ratio favors 0
    try:
        ess_part(RationalPoly([5]), 3)
    except ValueError:
        pass
    else:
        raise AssertionError("degree-0 accepted")


def test_padic_window():
    w = PadicWindow(1, 2, 3)
    assert w.L == Fraction(8, 3)
    assert PadicWindow(1, 4, 3).L == Fraction(16, 3)
    for bad in ((2, 2, 3), (3, 1, 3), (1, 2, 1)):
        try:
            PadicWindow(*bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"PadicWindow accepted {bad}")


def test_non_prime_p_is_rejected():
    for p in (4, 9, 15):
        try:
            PadicWindow(1, 3, p)
        except ValueError as exc:
            assert "not prime" in str(exc)
        else:
            raise AssertionError(f"PadicWindow accepted p = {p}")


def test_mu_hat_worked_value():
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    val = mu_hat_padic(fam, PadicWindow(1, 2, 3), (Fraction(3), Fraction(0)))
    assert val == Fraction(1, 4)  # frozen: brute-force oracle gives 0.25 exactly


def test_mu_hat_normalization_exact():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(5):
            deg1 = rng.randint(1, 2)
            deg2 = rng.randint(deg1 + 1, deg1 + 2)
            rows = []
            for d in (deg1, deg2):
                row = [str(rng.randint(-4, 4)) for _ in range(d)] + ["1"]
                rows.append(row)
            fam = parse_curve_family(rows)
            val = mu_hat_padic(fam, PadicWindow(1, 3, p), (0, 0))
            assert isinstance(val, Fraction) and val == 1


def test_mu_hat_window_guard():
    fam = parse_curve_family([["0", "1"], ["0", "1", "9"]])  # ess part 2 at p=3
    try:
        mu_hat_padic(fam, PadicWindow(1, 3, 3), (1, 1))
    except ValueError:
        pass
    else:
        raise AssertionError("window inside the essential part accepted")
    mu_hat_padic(fam, PadicWindow(3, 4, 3), (1, 1))  # must not raise


def test_mu_hat_vs_brute_force_random():
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    rng = random.Random(17)
    for p in (2, 3, 5):
        w = PadicWindow(1, 2, p)
        for _ in range(6):
            lam = tuple(_random_rational_with_valuation(rng, p, -2, 1) for _ in range(2))
            got = float(mu_hat_padic(fam, w, lam))
            acc = 0.0
            for r in range(w.a, w.T + 1):
                phase = {1: lam[0], 2: lam[1]}
                s = brute_force_sphere_sum(phase, p, r, r + 2 + 3)
                acc += 2.0 * s.real / p**r
            want = acc / float(w.L)
            assert abs(got - want) < 1e-9, (p, lam, got, want)


def test_mu_hat_even_in_lam():
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    w = PadicWindow(1, 3, 3)
    rng = random.Random(19)
    for _ in range(8):
        lam = tuple(_random_rational_with_valuation(rng, 3, -3, 1) for _ in range(2))
        neg = tuple(-v for v in lam)
        a, b = mu_hat_padic(fam, w, lam), mu_hat_padic(fam, w, neg)
        assert abs(float(a) - float(b)) < 1e-12


_TRANSFORM_FAMILIES = (
    parse_curve_family([["0", "1"], ["0", "0", "1"]]),
    parse_curve_family([["0", "1"], ["0", "0", "0", "1"]]),
    parse_curve_family([["3", "1"], ["1/2", "0", "1"]]),
)


@st.composite
def _padic_transform_cases(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    fam = draw(st.sampled_from(_TRANSFORM_FAMILIES))
    a = max(ess_part(f, p) for f in fam.polys) + draw(st.integers(1, 2))
    window = PadicWindow(a, a + draw(st.integers(1, 2)), p)
    unit = st.integers(1, p**3).filter(lambda u: u % p)
    component = st.builds(lambda u, s, v: s * u * Fraction(p) ** v, unit, st.sampled_from((-1, 1)), st.integers(-2, 1))
    lam = [draw(component) for _ in range(fam.m)]
    zero_at = draw(st.integers(-1, fam.m - 1))  # -1: no component is zero
    if zero_at >= 0:
        lam[zero_at] = Fraction(0)
    return fam, window, tuple(lam)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_padic_transform_cases())
def test_mu_hat_padic_is_even_normalized_and_bounded(case):
    """Rational values are even exactly.  An irrational value is summed to a
    float from the cyclotomic terms in dict order, which differs between
    lambda and -lambda, so there evenness holds to rounding."""
    fam, window, lam = case
    zero = mu_hat_padic(fam, window, (0,) * fam.m)
    assert isinstance(zero, Fraction) and zero == 1
    plus = mu_hat_padic(fam, window, lam)
    minus = mu_hat_padic(fam, window, tuple(-v for v in lam))
    assert type(plus) is type(minus)
    if isinstance(plus, Fraction):
        assert plus == minus
    else:
        assert abs(plus - minus) <= 1e-12, (lam, plus, minus)
    assert -1 <= plus <= 1


def test_padic_vdc_check():
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        deg = rng.randint(1, 3)
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(deg)] + [
            _random_rational_with_valuation(rng, p, -2, 2)
        ]
        f = RationalPoly(coeffs)
        lam = _random_rational_with_valuation(rng, p, -2, 2)
        lhs, rhs, ok = padic_vdc_check(f, lam, rng.randint(-1, 2), p)
        assert ok, (p, coeffs, lam, lhs, rhs)


def test_echelon_reduce():
    fam = parse_curve_family([["0", "1", "1"], ["0", "0", "1"]])  # (x + x^2, x^2)
    rows, reduced = echelon_reduce(fam)
    degs = [f.degree for f in reduced.polys]
    assert degs == sorted(degs, reverse=True)
    assert all(x > y for x, y in zip(degs, degs[1:]))
    # B really maps the original family to the reduced one
    orig = fam.coefficient_matrix()
    red = reduced.coefficient_matrix()
    for i, row in enumerate(rows):
        combo = [sum(row[k] * orig[k][j] for k in range(fam.m)) for j in range(fam.n + 1)]
        got = list(red[i]) + [Fraction(0)] * (len(combo) - len(red[i]))
        assert combo == got[: len(combo)]
    try:
        echelon_reduce(parse_curve_family([["1", "1"], ["2", "2"]]))
    except ValueError:
        pass
    else:
        raise AssertionError("dependent family reduced")


_COEFF = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_NONZERO = st.builds(Fraction, st.integers(1, 5), st.integers(1, 4)).flatmap(
    lambda c: st.sampled_from((c, -c))
)


@st.composite
def _independent_families(draw):
    """Families whose components often share degrees, so that echelon_reduce
    has to eliminate; drawn until 1, f_1, ..., f_m are independent."""
    m = draw(st.integers(1, 3))
    polys = []
    while len(polys) < m:
        deg = draw(st.integers(1, 3))
        poly = RationalPoly(draw(st.lists(_COEFF, min_size=deg, max_size=deg)) + [draw(_NONZERO)])
        if check_independence(CurveFamily(polys + [poly])):
            polys.append(poly)
    return CurveFamily(polys)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_independent_families())
def test_echelon_reduce_properties(fam):
    rows, reduced = echelon_reduce(fam)
    degs = [f.degree for f in reduced.polys]
    assert all(x > y for x, y in zip(degs, degs[1:])) and degs[-1] >= 1
    for row, g in zip(rows, reduced.polys):
        assert sum((f * c for c, f in zip(row, fam.polys)), RationalPoly([0])) == g
    assert len(polycore._bareiss(rows)[2]) == fam.m  # B is invertible


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_independent_families(), st.data())
def test_echelon_reduce_rejects_dependent_families(fam, data):
    coefs = data.draw(st.lists(_NONZERO, min_size=fam.m, max_size=fam.m))
    combo = sum((f * c for c, f in zip(coefs, fam.polys)), RationalPoly([data.draw(_COEFF)]))
    polys = list(fam.polys)
    polys.insert(data.draw(st.integers(0, fam.m)), combo)
    try:
        echelon_reduce(CurveFamily(polys))
    except ValueError:
        pass
    else:
        raise AssertionError("dependent family reduced")


def test_certified_bound():
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    _, reduced = echelon_reduce(fam)
    assert certified_bound_padic(reduced, PadicWindow(1, 4, 3)) == 192
    try:
        certified_bound_padic(fam, PadicWindow(1, 4, 3))  # degrees 1, 2: not echelon
    except ValueError:
        pass
    else:
        raise AssertionError("non-echelon family accepted")


def test_certified_floor_small_sample():
    # spot check of the -B/L floor over a small frequency sample
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    w = PadicWindow(1, 4, 3)
    _, reduced = echelon_reduce(fam)
    floor = -certified_bound_padic(reduced, w) / w.L
    rng = random.Random(29)
    for _ in range(25):
        lam = tuple(_random_rational_with_valuation(rng, 3, -4, 2) for _ in range(2))
        assert float(mu_hat_padic(fam, w, lam)) >= float(floor) - 1e-12
