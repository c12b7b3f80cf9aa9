"""p-adic arithmetic and character sums: valuations, fractional phases, exact
sphere integrals vs. brute-force residue enumeration, the normalized
transform, and the certified lower-bound constant."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_sphere_sum,
    cyc_reduced_dense,
    echelon_reduce_fraction,
    independent_fraction,
    padic_fractional_phase,
    padic_vdc_check,
    phase_fraction,
    residue_sphere_sum,
)

import oscillabound
from oscillabound import padic, spectral
from oscillabound.padic import (
    CycNum,
    PadicWindow,
    certified_bound_padic,
    echelon_reduce,
    ess_part,
    mu_hat_padic,
    sphere_character_sum,
    vp,
)
from oscillabound import polycore
from oscillabound.polycore import (
    CurveFamily,
    RationalPoly,
    clear_denominators,
    parse_curve_family,
    phase_integers,
)

X = RationalPoly([0, 1])
X2 = RationalPoly([0, 0, 1])


def _add_ball(acc, h, p, R, weight, memo, paired=False):
    """Add weight * int_{p^R Z_p} psi(h(s)) ds to acc, through the one-ball
    path of padic._add_balls (whose weights include the ball's p^{-R})."""
    den, ints = clear_denominators(h.coeffs or (Fraction(0),))
    padic._add_balls(acc, den, ints, p, {R: weight / Fraction(p) ** R}, memo, paired)


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
    # the exact measure p^r - p^(r-1), rounded to a float once
    for p in (2, 3, 5, 7):
        for r in (-3, -2, -1, 0, 2):
            assert sphere_character_sum(X2, 0, r, p) == complex(Fraction(p) ** r - Fraction(p) ** (r - 1))


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


def test_sphere_sums_are_exact_when_rational():
    # the linear phase lam*s on the sphere |s| = p^r, lam = u p^v with u a
    # unit: the ball p^{-r} Z_p adds its mass p^r when v >= r, so the sphere
    # is [v >= r] p^r - [v >= r - 1] p^{r-1}, exactly (a float sum of the
    # roots of unity used to miss it: 5.6e-17 - 1.1e-16j for 0 at p = 3,
    # lam = 1/3, r = 1)
    for p in (2, 3, 5, 7):
        for v in range(-2, 3):
            for u in (1, -1, p + 1):
                lam = u * Fraction(p) ** v
                for r in range(-1, 4):
                    want = (Fraction(p) ** r if v >= r else 0) - (Fraction(p) ** (r - 1) if v >= r - 1 else 0)
                    got = sphere_character_sum(X, lam, r, p)
                    assert type(got) is complex and got == complex(want), (p, lam, r, got, want)


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
    for bad in ((2, 2, 3), (3, 1, 3), (1, 2, 1), (1.9, 4, 3), (1, 4.7, 3), (1.0, 4, 3), (True, 4, 3),
                (Fraction(1), 4, 3), (1, 4, 3.0)):
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


def test_non_prime_p_is_rejected_by_every_entry_point():
    f = X2
    calls = (
        lambda p: sphere_character_sum(f, "1/16", 2, p),
        lambda p: ess_part(f, p),
    )
    for call in calls:
        for p in (4, 9, 1, 0, -3):
            try:
                call(p)
            except ValueError as exc:
                assert "not prime" in str(exc), exc
            else:
                raise AssertionError(f"p = {p} accepted")
        for p in (3.0, True, "3"):
            try:
                call(p)
            except ValueError as exc:
                assert "integer prime" in str(exc), exc
            else:
                raise AssertionError(f"p = {p!r} accepted")


def test_sphere_radius_must_be_an_integer():
    # a float or bool r used to run: for x^2/9 at p = 3, r = 2.0 gave 6,
    # r = 1.5 gave 3.46 and r = True ran as r = 1
    want = brute_force_sphere_sum({2: Fraction(1, 9), 0: Fraction(0)}, 3, 2, 7)
    assert abs(sphere_character_sum(X2, Fraction(1, 9), 2, 3) - want) < 1e-12
    for r in (2.0, 1.5, True, "2", Fraction(2)):
        try:
            sphere_character_sum(X2, Fraction(1, 9), r, 3)
        except ValueError as exc:
            assert str(exc) == f"r must be an integer; got {r!r}", exc
        else:
            raise AssertionError(f"r = {r!r} accepted")


def test_valuation_base_below_two_is_rejected():
    """vp divides by p until it stops dividing, so p = 1 would never
    return: run it in a child process under a timeout."""
    code = (
        "from oscillabound.padic import vp\n"
        "for p in (1, 0, -2):\n"
        "    try:\n"
        "        vp(3, p)\n"
        "    except ValueError:\n"
        "        print('rejected vp', p)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oscillabound.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n").count("rejected vp 1") == 1
    assert len(out.stdout.split()) == 3 * 3, out.stdout


def test_mu_hat_padic_refuses_a_float_outside_the_range(monkeypatch):
    # lambda = (1, 36) on (x, x^2) over Q_3 has an irrational value, read as
    # a float; a complex value of 1.5 must raise, not clip to 1
    fam, window, lam = CurveFamily([X, X2]), PadicWindow(1, 4, 3), (Fraction(1), Fraction(36))
    assert isinstance(mu_hat_padic(fam, window, lam), float)
    monkeypatch.setattr(CycNum, "to_complex", lambda self: 1.5 + 0j)
    try:
        mu_hat_padic(fam, window, lam)
    except ArithmeticError as exc:
        assert str(exc) == "conjugate-pair value left the certified range", exc
    else:
        raise AssertionError("a value of 1.5 was returned")


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
    """On [1, 2] every ball carries one sphere weight; on [1, 3] and [1, 4]
    the interior balls carry two.  The oracle samples each sphere at its
    resolution depth max_j (r*j - v(lam_j)); at p = 5 on [1, 4] the draw
    keeps that depth at 8 or less, so the r = 4 sphere stays cheap."""
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    rng = random.Random(17)
    for p, T in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3), (2, 4), (3, 4), (5, 4)):
        w = PadicWindow(1, T, p)
        vlo = (-4, 0) if (p, T) == (5, 4) else (-2, -2)
        for _ in range(6):
            lam = tuple(_random_rational_with_valuation(rng, p, v, 1) for v in vlo)
            got = float(mu_hat_padic(fam, w, lam))
            acc = 0.0
            for r in range(w.a, w.T + 1):
                phase = {1: lam[0], 2: lam[1]}
                depth = max(r * j - vp(c, p) for j, c in phase.items())
                s = brute_force_sphere_sum(phase, p, r, depth)
                acc += 2.0 * s.real / p**r
            want = acc / float(w.L)
            assert abs(got - want) < 1e-9, (p, lam, got, want)


def test_mu_hat_even_in_lam():
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    for p in (3, 5):
        w = PadicWindow(1, 3, p)
        rng = random.Random(19)
        for _ in range(8):
            lam = tuple(_random_rational_with_valuation(rng, p, -3, 1) for _ in range(2))
            neg = tuple(-v for v in lam)
            a, b = mu_hat_padic(fam, w, lam), mu_hat_padic(fam, w, neg)
            assert type(a) is type(b) and a == b, (lam, a, b)


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
    fam, window, lam = case
    zero = mu_hat_padic(fam, window, (0,) * fam.m)
    assert isinstance(zero, Fraction) and zero == 1
    plus = mu_hat_padic(fam, window, lam)
    minus = mu_hat_padic(fam, window, tuple(-v for v in lam))
    assert type(plus) is type(minus)
    assert plus == minus, (lam, plus, minus)
    assert -1 <= plus <= 1


@st.composite
def _integral_shift_cases(draw):
    """A random h, a polynomial q with p-integral coefficients, a ball
    p^R Z_p with R >= 0 (so q(s) lies in Z_p on it) and a weight."""
    p = draw(st.sampled_from((2, 3, 5)))
    den = st.builds(lambda k, d: p**k * d, st.integers(0, 4), st.sampled_from((1, 2, 3, 7)))
    coeff = st.builds(Fraction, st.integers(-(p**5), p**5), den)
    h = RationalPoly(draw(st.lists(coeff, min_size=2, max_size=5)))
    integral = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30).filter(lambda d: d % p))
    q = RationalPoly(draw(st.lists(integral, min_size=1, max_size=6)))
    R = draw(st.integers(0, 2))
    weight = draw(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
    return p, h, q, R, weight, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_integral_shift_cases())
def test_ball_terms_are_invariant_under_integral_shifts(case):
    """int_{p^R Z_p} psi(h) ds depends on h only modulo Z_p[s] -- the lemma
    the descent's memo keys rest on -- and the exact terms show it."""
    p, h, q, R, weight, paired = case
    plain, shifted = {}, {}
    _add_ball(plain, h, p, R, weight, {}, paired)
    _add_ball(shifted, h + q, p, R, weight, {}, paired)
    assert CycNum(p, plain).terms == CycNum(p, shifted).terms


@st.composite
def _cyclotomic_numbers(draw):
    """p and a phase -> coefficient map at N = p^k, k <= 4: phases e/N,
    summed where they repeat, with zero coefficients among them."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    N = p ** draw(st.integers(0, 4))
    phase = st.builds(Fraction, st.integers(0, N - 1), st.just(N))
    coeff = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6)))
    terms = {}
    for th, c in draw(st.lists(st.tuples(phase, coeff), max_size=12)):
        terms[th] = terms.get(th, 0) + c
    return p, terms


def _rational_of(terms):
    if not terms:
        return Fraction(0)
    return terms[Fraction(0)] if set(terms) == {Fraction(0)} else None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cyclotomic_numbers())
def test_reduced_matches_the_dense_oracle(case):
    p, terms = case
    num = CycNum(p, terms)
    red = num.reduced()
    dense = cyc_reduced_dense(p, terms)
    assert red.terms == dense, (p, terms)
    assert num.rational_value() == _rational_of(dense)
    scale = 1 + sum(abs(c) for c in terms.values())
    assert abs(red.to_complex() - num.to_complex()) <= 1e-12 * scale


def test_reduced_identities():
    # 1 + zeta_p + ... + zeta_p^{p-1} = 0, and zeta_3 + zeta_3^{-1} = -1
    for p in (2, 3, 5, 7):
        num = CycNum(p, {Fraction(k, p): Fraction(1) for k in range(p)})
        assert num.reduced().terms == {}
        assert num.rational_value() == 0
    assert CycNum(3, {Fraction(1, 3): Fraction(1), Fraction(2, 3): Fraction(1)}).rational_value() == Fraction(-1)


def test_reduced_cost_follows_the_terms():
    """zeta + zeta^{-1} at N = 5^14: a reduction that walks every exponent
    down to phi(N) makes about 1.2e9 lookups, so run it in a child process
    under a timeout."""
    N, step = 5**14, 5**13
    code = (
        "from fractions import Fraction\n"
        "from oscillabound.padic import CycNum\n"
        f"num = CycNum(5, {{Fraction(1, {N}): Fraction(1), Fraction({N - 1}, {N}): Fraction(1)}})\n"
        "print(sorted((str(th), str(c)) for th, c in num.reduced().terms.items()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oscillabound.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    # zeta^{N-1} = -(zeta^{step-1} + zeta^{2 step-1} + zeta^{3 step-1} + zeta^{4 step-1})
    want = {Fraction(1, N): Fraction(1)} | {Fraction(k * step - 1, N): Fraction(-1) for k in range(1, 5)}
    assert out.stdout.strip() == repr(sorted((str(th), str(c)) for th, c in want.items()))


_MEMO_FAMILIES = (
    parse_curve_family([["0", "1"], ["0", "0", "1"]]),
    parse_curve_family([["3", "1"], ["1/2", "0", "1"]]),
)


def test_shared_memo_gives_fresh_values():
    """One memo filled by other cells, other families and other primes
    leaves every value exactly as a call with its own memo gives it:
    the same Fraction, or a float with the same bits."""
    rng = random.Random(37)
    memo = {}
    for p in (2, 3, 5):
        axis = spectral._padic_axis_values(p)
        for fam in _MEMO_FAMILIES:
            a = max(ess_part(f, p) for f in fam.polys) + 1
            w = PadicWindow(a, a + 2, p)
            cells = [tuple(rng.choice(axis) for _ in range(fam.m)) for _ in range(60)]
            for cell in cells[:30]:  # fill the memo first
                mu_hat_padic(fam, w, cell, memo=memo)
            for cell in cells[30:]:
                shared = mu_hat_padic(fam, w, cell, memo=memo)
                fresh = mu_hat_padic(fam, w, cell)
                assert type(shared) is type(fresh), (p, cell)
                if isinstance(fresh, float):
                    assert shared.hex() == fresh.hex(), (p, cell, shared, fresh)
                else:
                    assert shared == fresh, (p, cell, shared, fresh)
    assert memo


def _is_descent_key(key, p):
    """key is a _canonical memo key of prime p: integers (p^m, n_1, ..., n_d)
    with every n_j in [0, p^m)."""
    return (
        type(key) is tuple
        and all(type(n) is int for n in key)
        and key[0] >= 1
        and p ** vp(key[0], p) == key[0]
        and all(0 <= n < key[0] for n in key[1:])
    )


def test_shared_memo_across_interleaved_windows():
    """One memo shared by windows of one prime with different a and T,
    visited in turn cell by cell, holds descents only and gives every value
    exactly as a fresh memo does."""
    rng = random.Random(41)
    fam = _MEMO_FAMILIES[1]
    for p in (3, 5):
        axis = spectral._padic_axis_values(p)
        windows = [PadicWindow(a, T, p) for a, T in ((1, 4), (2, 3), (1, 2), (2, 5), (3, 4))]
        memo = {}
        for _ in range(25):
            cell = tuple(rng.choice(axis) for _ in range(fam.m))
            for w in windows:
                shared = mu_hat_padic(fam, w, cell, memo=memo)
                fresh = mu_hat_padic(fam, w, cell)
                assert type(shared) is type(fresh), (p, w, cell)
                if isinstance(fresh, float):
                    assert shared.hex() == fresh.hex(), (p, w, cell, shared, fresh)
                else:
                    assert shared == fresh, (p, w, cell, shared, fresh)
        assert all(_is_descent_key(key, p) for key in memo)


def test_ball_weights_follow_the_sphere_decomposition():
    """Each window's ball weights are the sphere decomposition's: sphere r
    is the ball p^{-r} Z_p minus the ball p^{1-r} Z_p, weighted p^{-r} / L,
    and the ball p^R Z_p integrates to p^{-R} J, so ball R collects 1 from
    sphere -R and -1/p from sphere 1-R, over L.  At lam = 0 every J is 1 and
    each ball adds itself and its conjugate, so the weights sum to 1/2.  The
    map is read-only and built once per window object."""
    for p in (2, 3, 5, 7):
        for a in range(-3, 6):
            for span in range(1, 9):
                w = PadicWindow(a, a + span, p)
                want = {}
                for r in range(a, a + span + 1):
                    want[-r] = want.get(-r, 0) + 1 / w.L
                    want[1 - r] = want.get(1 - r, 0) - Fraction(1, p) / w.L
                assert dict(w.ball_weights) == want, (a, span, p)
                assert list(w.ball_weights) == list(range(-a - span, 2 - a))
                assert sum(w.ball_weights.values()) == Fraction(1, 2), (a, span, p)
                assert w.ball_weights is w.ball_weights
    try:
        w.ball_weights[0] = Fraction(1)
    except TypeError:
        pass
    else:
        raise AssertionError("ball_weights accepted an assignment")
    assert w == PadicWindow(w.a, w.T, w.p) and hash(w) == hash(PadicWindow(w.a, w.T, w.p))
    assert repr(w) == f"PadicWindow(a={w.a}, T={w.T}, p={w.p})"


def test_certify_on_a_long_window_builds_no_ball_weights():
    """The certificate reads L alone: a window of a million spheres gets no
    weight map until a transform asks for one."""
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    w = PadicWindow(1, 10**6, 3)
    cert = spectral.certificate(fam, w)
    assert cert.C == Fraction(192 * (10**6 - 1)) / w.L
    assert "ball_weights" not in vars(w)


def test_lattice_minimizer_memo_holds_descents_only(monkeypatch):
    """The memo minimize_mu_hat shares across its cells over Q_3 holds
    descent keys alone, and every cell gets that one memo."""
    memos = []
    transform = spectral.mu_hat_padic

    def spy(family, window, lam, memo=None):
        memos.append(memo)
        return transform(family, window, lam, memo=memo)

    monkeypatch.setattr(spectral, "mu_hat_padic", spy)
    fam = parse_curve_family([["0", "1"], ["0", "0", "1"]])
    spectral.minimize_mu_hat(fam, PadicWindow(1, 4, 3), budget=300)
    assert len(memos) == 300 and all(m is memos[0] for m in memos)
    assert memos[0] and all(_is_descent_key(key, 3) for key in memos[0])


@st.composite
def _unit_substitution_cases(draw):
    """Monomials c_i x^{d_i} of distinct degrees <= 5, a window above the
    essential part (0 for a monomial), lam with p-power denominators and a
    p-adic unit u = n / d (neither divisible by p)."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    degrees = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True))
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    fam = CurveFamily([RationalPoly([0] * d + [draw(coeff)]) for d in degrees])
    a = draw(st.integers(1, 3))
    window = PadicWindow(a, a + draw(st.integers(1, 2)), p)
    component = st.builds(lambda n, k: Fraction(n, p**k), st.integers(-(p**4), p**4), st.integers(0, 4))
    lam = tuple(draw(component) for _ in degrees)
    unit = st.integers(-(p**3), p**3).filter(lambda n: n % p)
    u = Fraction(draw(unit), abs(draw(unit)))
    return fam, window, lam, u


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_unit_substitution_cases())
def test_mu_hat_padic_is_invariant_under_a_unit_substitution(case):
    """s = u s' with u a p-adic unit maps every sphere |s| = p^r onto itself
    and keeps Haar measure, so for monomial components c_i x^{d_i} the
    transform at lam equals the one at (u^{d_1} lam_1, ..., u^{d_m} lam_m):
    the same Fraction, or a float with the same bits.  Both calls use one
    window object, and so one weight map."""
    fam, window, lam, u = case
    got = mu_hat_padic(fam, window, lam)
    moved = mu_hat_padic(fam, window, tuple(u**f.degree * v for f, v in zip(fam.polys, lam)))
    assert type(got) is type(moved), (lam, u, got, moved)
    if isinstance(got, float):
        assert got.hex() == moved.hex(), (lam, u, got, moved)
    else:
        assert got == moved, (lam, u, got, moved)


def _p_rational(p):
    """Rationals whose denominators mix a power of p (up to p^3) with a part
    prime to p, zero among them."""
    prime_to_p = st.integers(1, 40).filter(lambda d: d % p)
    den = st.builds(lambda k, d: p**k * d, st.integers(0, 3), prime_to_p)
    return st.builds(Fraction, st.integers(-(p**4), p**4), den)


@st.composite
def _ball_key_cases(draw):
    """p, an independent family of 1-3 components of degree 1-4 (constant
    terms included), a frequency and 1-4 ball indices R."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        while True:  # until 1 and the rows are independent, as CurveFamily requires
            row = draw(st.lists(_p_rational(p), min_size=draw(st.integers(2, 5)), max_size=5))
            if row[-1] == 0:
                row[-1] = Fraction(1, p)
            if independent_fraction(rows + [row]):
                break
        rows.append(row)
    lam = tuple(draw(_p_rational(p)) for _ in rows)
    balls = draw(st.lists(st.integers(-6, 3), min_size=1, max_size=4, unique=True))
    return p, CurveFamily([RationalPoly(r) for r in rows]), lam, balls


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ball_key_cases())
def test_ball_keys_are_the_fractional_phases(case):
    """Each ball's integer key holds, over its largest denominator, the
    fractional parts the oracle padic_fractional_phase gives for the
    Fraction coefficients of phase(p^R u), and its shift is the constant
    term's."""
    p, fam, lam, balls = case
    den, ints = phase_integers(fam, lam)
    phase = phase_fraction([f.coeffs for f in fam.polys], lam)
    for R, (shift, key) in zip(balls, padic._ball_keys(den, ints, p, balls)):
        want = [padic_fractional_phase(c * Fraction(p) ** (R * j), p) for j, c in enumerate(phase)]
        assert shift == want[0], (p, R, shift, want)
        while len(want) > 1 and not want[-1]:
            want.pop()
        pm, nums = key[0], key[1:]
        assert [Fraction(n, pm) for n in nums] == want[1:], (p, R, key, want)
        assert all(0 <= n < pm for n in nums) and math.gcd(pm, *nums) == 1
        assert pm == max((c.denominator for c in want[1:]), default=1)


# (family, p, a, T, lambda, mu_hat_padic value): exact values and float bits
# pinned for any rework of the descent to reproduce
_PINNED = [
    ([["0", "1"], ["0", "0", "1"]], 2, 1, 4, ("-1/8", "7"), float.fromhex("0x1.8361311c551afp-6")),
    ([["0", "1"], ["0", "0", "1"]], 2, 1, 2, ("1", "3/2"), float.fromhex("0x1.6a09e667f3bccp-2")),
    ([["0", "1"], ["0", "0", "1"]], 2, 1, 2, ("5/2", "-9"), float.fromhex("0x1.4e7ae9144f0fcp-2")),
    ([["0", "1"], ["0", "0", "1"]], 2, 2, 5, ("1/32", "-7/16"), float.fromhex("0x1.8361311c551afp-6")),
    ([["0", "0", "1"]], 2, 1, 4, ("4",), Fraction(1, 4)),
    ([["0", "0", "1"]], 2, 1, 3, ("4",), Fraction(1, 3)),
    ([["0", "0", "1"]], 2, 1, 3, ("3/2",), float.fromhex("-0x1.e2b7dddfefa66p-3")),
    ([["0", "0", "1"]], 2, 1, 3, ("1/2",), float.fromhex("0x1.e2b7dddfefa65p-3")),
    ([["0", "0", "0", "1"]], 2, 1, 4, ("-8",), Fraction(1, 4)),
    ([["0", "0", "0", "1"]], 2, 1, 2, ("-4",), Fraction(-1, 2)),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 2, 1, 2, ("0", "8"), Fraction(1, 2)),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 2, 1, 4, ("-3/4", "-6"), float.fromhex("0x1.684b9c80f1a8cp-4")),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 2, 1, 2, ("-1/16", "1/4"), float.fromhex("0x1.5553e3f5b5e58p-4")),
    ([["0", "1", "0", "0", "5"]], 2, 1, 3, ("3",), float.fromhex("-0x1.3b59d34cc5e2ep-2")),
    ([["0", "1", "0", "0", "5"]], 2, 1, 4, ("6",), float.fromhex("0x1.6a09e667f3bccp-3")),
    ([["0", "1"], ["0", "0", "1"]], 3, 1, 4, ("-2/3", "-1"), float.fromhex("0x1.8836fa2cf5038p-4")),
    ([["0", "1"], ["0", "0", "1"]], 3, 1, 2, ("-1/9", "5/6"), float.fromhex("-0x1.1b2f55705204fp-3")),
    ([["0", "1"], ["0", "0", "1"]], 3, 1, 3, ("-4/27", "-4"), float.fromhex("0x1.2f65694e0e600p-6")),
    ([["0", "1"], ["0", "0", "1"]], 3, 1, 4, ("2/27", "-4/81"), Fraction(0)),
    ([["0", "0", "1"]], 3, 1, 4, ("-3/2",), Fraction(-1, 8)),
    ([["0", "0", "1"]], 3, 1, 2, ("3",), Fraction(-1, 4)),
    ([["0", "0", "0", "1"]], 3, 1, 3, ("-9/2",), Fraction(-1, 6)),
    ([["0", "0", "0", "1"]], 3, 1, 4, ("-3",), float.fromhex("0x1.8836fa2cf5038p-3")),
    ([["0", "0", "0", "1"]], 3, 2, 5, ("-1/243",), Fraction(0)),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 3, 1, 3, ("-4/3", "-1/3"), float.fromhex("0x1.e90d0425d75d8p-9")),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 3, 1, 3, ("-1", "-1"), float.fromhex("0x1.97a90725097a2p-4")),
    ([["0", "2", "1/4", "1"]], 3, 1, 4, ("-1/9",), float.fromhex("0x1.4da964369d888p-6")),
    ([["0", "2", "1/4", "1"]], 3, 1, 2, ("1/3",), float.fromhex("-0x1.0589ddc90b48fp-3")),
    ([["1/2", "3"], ["0", "1/3", "1"]], 3, 2, 4, ("1/3", "2/9"), Fraction(0)),
    ([["0", "1"], ["0", "0", "1"]], 5, 1, 4, ("-6/125", "-7/25"), float.fromhex("0x1.037fca91e6126p-7")),
    ([["0", "1"], ["0", "0", "1"]], 5, 1, 4, ("6/25", "-1/5"), float.fromhex("0x1.9be13322b67e1p-6")),
    ([["0", "0", "1"]], 5, 1, 4, ("5",), float.fromhex("0x1.3c6ef372fe94ep-4")),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 5, 1, 3, ("-4/125", "-9/25"), float.fromhex("0x1.dbec50ab93d16p-8")),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 5, 1, 2, ("-2/25", "3/5"), float.fromhex("0x1.68e699df8cc35p-6")),
    ([["0", "1", "0", "0", "5"]], 5, 2, 4, ("1/5",), Fraction(0)),
    ([["0", "1"], ["0", "0", "1"]], 7, 1, 2, ("-1/49", "5"), float.fromhex("0x1.7304b5111ac98p-7")),
    ([["0", "1"], ["0", "0", "1"]], 7, 1, 4, ("3/343", "4/49"), float.fromhex("-0x1.689ed00200feap-8")),
    ([["0", "1"], ["0", "0", "1"]], 7, 1, 4, ("-3/7", "6"), float.fromhex("-0x1.caf518aca6992p-6")),
    ([["0", "1"], ["0", "0", "1"]], 7, 1, 4, ("5/343", "-1/7"), float.fromhex("0x1.26e22b9092c1fp-9")),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 7, 1, 4, ("4/7", "5"), float.fromhex("-0x1.aeb37bf13a398p-8")),
    ([["0", "0", "1"], ["0", "0", "0", "1"]], 7, 1, 2, ("-9/343", "1/49"), float.fromhex("0x1.7ce344ca98008p-13")),
    ([["0", "0", "0", "1"]], 7, 1, 3, ("-2/7",), Fraction(0)),
]


def test_mu_hat_padic_pinned_values(monkeypatch):
    """Every pinned value comes back exactly, from a fresh memo and from one
    memo shared by all primes; the pins span p = 2, 3, 5, 7, primes that
    divide the degree (x^2 at 2, x^3 at 3), and descents through nodes with
    m = 1 and with m >= 3."""
    depths = set()
    descend = padic._descend

    def spy(key, p, memo, depth=0):
        depths.add(vp(key[0], p))
        return descend(key, p, memo, depth)

    monkeypatch.setattr(padic, "_descend", spy)
    memo = {}
    for rows, p, a, T, lam, want in _PINNED:
        fam, w = parse_curve_family(rows), PadicWindow(a, T, p)
        for got in (mu_hat_padic(fam, w, lam), mu_hat_padic(fam, w, lam, memo=memo)):
            assert type(got) is type(want), (rows, p, lam, got)
            assert got == want if isinstance(want, Fraction) else got.hex() == want.hex(), (rows, p, lam, got)
    assert 1 in depths and max(depths) >= 3, depths


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
        r = rng.randint(-1, 2)
        lhs, rhs, ok = padic_vdc_check(f.coeffs, lam, r, p)
        assert ok, (p, coeffs, lam, lhs, rhs)
        # the exact descent integrates the same ball
        acc = {}
        _add_ball(acc, f * lam, p, r, 1, {})
        assert abs(abs(CycNum(p, acc).to_complex()) - lhs) < 1e-9, (p, coeffs, lam, r)


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


INDEPENDENCE = "independence violation: 1, f_1, ..., f_m are linearly dependent"


@st.composite
def _independent_families(draw):
    """Families whose components often share degrees, so that echelon_reduce
    has to eliminate; drawn until 1, f_1, ..., f_m are independent."""
    m = draw(st.integers(1, 3))
    polys = []
    while len(polys) < m:
        deg = draw(st.integers(1, 3))
        poly = RationalPoly(draw(st.lists(_COEFF, min_size=deg, max_size=deg)) + [draw(_NONZERO)])
        try:
            CurveFamily(polys + [poly])
        except ValueError:
            continue
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
    # no dependent family reaches echelon_reduce: CurveFamily rejects it
    try:
        echelon_reduce(CurveFamily(polys))
    except ValueError as exc:
        assert str(exc) == INDEPENDENCE, exc
    else:
        raise AssertionError("dependent family reduced")


@st.composite
def _families_sharing_degrees(draw):
    """Coefficient rows of 1-3 components of degree <= 4, dependent families
    included, with degrees drawn from a pool of one or two so that they
    often coincide."""
    pool = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.sampled_from(pool))
        rows.append(draw(st.lists(_COEFF, min_size=deg, max_size=deg)) + [draw(_NONZERO)])
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_families_sharing_degrees())
def test_echelon_reduce_matches_the_fraction_elimination(rows):
    try:
        b_old, reduced_old = echelon_reduce_fraction(rows)
    except ValueError:
        b_old = reduced_old = None
    # the oracle's elimination decides which rows are dependent
    try:
        fam = CurveFamily([RationalPoly(r) for r in rows])
    except ValueError as exc:
        assert reduced_old is None and str(exc) == INDEPENDENCE, rows
        return
    assert reduced_old is not None, rows
    b, reduced = echelon_reduce(fam)
    assert [f.degree for f in reduced.polys] == [len(r) - 1 for r in reduced_old], rows
    for w in (PadicWindow(1, 4, 3), PadicWindow(2, 5, 5)):
        assert certified_bound_padic(reduced, w) == certified_bound_padic(CurveFamily(reduced_old), w)
    # Bareiss pivots on the first row in order, the old loop on the last to
    # drop to that degree: the transforms agree unless three rows share one
    if fam.m <= 2 or len({len(r) for r in rows}) == fam.m:
        assert (b, [list(f.coeffs) for f in reduced.polys]) == (b_old, reduced_old), rows
    for row, g in zip(b, reduced.polys):
        assert sum((f * c for c, f in zip(row, fam.polys)), RationalPoly([0])) == g
    assert len(polycore._bareiss(b)[2]) == fam.m  # B is invertible


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
