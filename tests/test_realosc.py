"""Real-case oscillatory machinery: the normalized transform against an
independent Simpson oracle, oscillation bounds on certified witness
intervals, superlevel decompositions with their hard caps, and the uniform
certified constant."""

import functools
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adaptive_cc_dfs, phase_fraction, simpson_mu_hat

from oscillabound import realosc
from oscillabound.polycore import (
    CurveFamily,
    RationalPoly,
    clear_denominators,
    parse_curve_family,
    phase_integers,
)
from oscillabound.realosc import (
    HIGH,
    LOW,
    IntervalDecomposition,
    QuadratureError,
    Window,
    WitnessInterval,
    certified_constant_real,
    merge_intervals,
    mu_hat_real,
    mu_hat_real_with_error,
    osc_integral,
    superlevel_decompose,
    vdc_bound,
    witness_intervals,
)

FAM_XX2 = parse_curve_family([["0", "1"], ["0", "0", "1"]])
FAM_XX3 = parse_curve_family([["0", "1"], ["0", "0", "0", "1"]])
FAM_SHIFTED = parse_curve_family([["3", "1"], ["1/2", "0", "1"]])  # (x + 3, x^2 + 1/2)
FAM_X235 = parse_curve_family([["0", "0", "1"], ["0", "0", "0", "1"], ["0", "0", "0", "0", "0", "1"]])
FAM_X5 = parse_curve_family([["0", "0", "0", "0", "0", "1"]])
FAM_DENSE = parse_curve_family([["1/3", "-2", "5/7", "1", "-3/11", "1"]])  # six terms: order shows in the bits


def _complex_simpson(phi, a, T, n=1 << 15):
    ts = np.linspace(a, T, n + 1)
    ys = np.exp(2j * np.pi * np.array([phi(math.exp(t)) for t in ts]))
    h = (T - a) / n
    return (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()) * h / 3


def test_window_validation():
    w = Window(1.0, 3.5)
    assert w.length == 2.5
    for bad in ((2.0, 2.0), (3.0, 1.0), (1.0, math.inf), (-math.inf, 2.0)):
        try:
            Window(*bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"Window accepted {bad}")


def test_vdc_bound():
    assert abs(vdc_bound(2, 4.0) - 12.0) < 1e-15
    assert vdc_bound(1, 10.0) == 1.2
    # decreasing in eta, increasing in k for eta > 1
    assert vdc_bound(2, 9.0) < vdc_bound(2, 4.0)
    assert vdc_bound(3, 4.0) > vdc_bound(2, 4.0)
    # an infinite eta bounded an oscillatory integral by 0, and nan gave nan
    for k, eta in ((0, 1.0), (1, 0.0), (2, -3.0), (1, math.nan), (2, math.inf), (1, -math.inf)):
        try:
            vdc_bound(k, eta)
        except ValueError:
            pass
        else:
            raise AssertionError(f"vdc_bound accepted ({k}, {eta})")


def test_mu_hat_zero_frequency():
    for fam in (FAM_XX2, FAM_XX3):
        assert mu_hat_real(fam, Window(1, 2), (0, 0)) == 1.0
        assert mu_hat_real_with_error(fam, Window(1, 5), (0, 0)) == (1.0, 0.0)


@st.composite
def _real_transform_cases(draw):
    fam = draw(st.sampled_from((FAM_XX2, FAM_XX3, FAM_SHIFTED)))
    a = draw(st.sampled_from((0.5, 1.0, 1.5)))
    window = Window(a, a + draw(st.sampled_from((0.25, 0.5, 1.0))))
    component = st.builds(Fraction, st.integers(-10**4, 10**4), st.sampled_from((1, 10, 100, 1000, 10**4)))
    lam = [draw(component) for _ in range(fam.m)]
    zero_at = draw(st.integers(-1, fam.m - 1))  # -1: no component is zero
    if zero_at >= 0:
        lam[zero_at] = Fraction(0)
    return fam, window, tuple(lam)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_real_transform_cases())
def test_mu_hat_real_is_even_normalized_and_bounded(case):
    fam, window, lam = case
    tol = 1e-6
    assert mu_hat_real_with_error(fam, window, (0,) * fam.m) == (1.0, 0.0)
    plus = mu_hat_real(fam, window, lam, tol=tol)
    minus = mu_hat_real(fam, window, tuple(-v for v in lam), tol=tol)
    assert -1.0 <= plus <= 1.0 and -1.0 <= minus <= 1.0
    assert plus == minus, (lam, plus, minus)


@st.composite
def _monomial_shift_cases(draw):
    d = draw(st.sampled_from((1, 2, 3, 5)))
    c = draw(st.sampled_from((Fraction(1), Fraction(-3, 2))))
    a = draw(st.floats(0.2, 5))
    window = Window(a, a + draw(st.sampled_from((0.01, 0.5, 2, 5, 10))))
    lam = Fraction(draw(st.integers(-999, 999).filter(bool)), 10 ** draw(st.integers(0, 6)))
    return d, c, window, lam, draw(st.integers(2, 20)), draw(st.sampled_from((1e-3, 1e-6, 1e-9)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_monomial_shift_cases())
def test_one_term_transform_depends_on_lam_e_da_and_the_length(case):
    """For f = c x^d the integrand cos(2 pi lam c e^{dt}) is unchanged when
    the window moves by ln(k)/d and lam is divided by k, so the two values
    agree within the errors mu_hat_real_with_error reports; 1e-12 covers the
    rounding of the moved window's ends."""
    d, c, window, lam, k, tol = case
    fam = CurveFamily([RationalPoly([0] * d + [c])])
    shift = math.log(k) / d
    moved = Window(window.a + shift, window.T + shift)
    value, err = mu_hat_real_with_error(fam, window, (lam,), tol=tol)
    value_moved, err_moved = mu_hat_real_with_error(fam, moved, (lam / k,), tol=tol)
    assert abs(value - value_moved) <= err + err_moved + 1e-12, (case, value, value_moved, err, err_moved)


def test_mu_hat_frozen_simpson_value():
    # frozen from the independent Simpson oracle (oracles.py freeze run)
    got = mu_hat_real(FAM_XX2, Window(1, 2), (Fraction(1, 100), 0), tol=1e-10)
    assert abs(got - 0.9538792762980185) < 1e-9


def test_mu_hat_vs_simpson_random():
    rng = random.Random(41)
    for fam, exps in ((FAM_XX2, (1, 2)), (FAM_XX3, (1, 3))):
        for _ in range(8):
            lam = tuple(
                Fraction(rng.randint(-120, 120), rng.randint(1, 40)) for _ in range(2)
            )
            if all(v == 0 for v in lam):
                continue
            got = mu_hat_real(fam, Window(1, 2), lam, tol=1e-9)
            want = simpson_mu_hat({e: v for e, v in zip(exps, lam)}, 1.0, 2.0)
            assert abs(got - want) < 3e-9, (fam, lam, got, want)


def test_mu_hat_even_and_bounded():
    rng = random.Random(43)
    for _ in range(10):
        lam = (Fraction(rng.randint(-500, 500), 7), Fraction(rng.randint(-500, 500), 11))
        if all(v == 0 for v in lam):
            continue
        plus = mu_hat_real(FAM_XX2, Window(1, 3), lam, tol=1e-8)
        minus = mu_hat_real(FAM_XX2, Window(1, 3), tuple(-v for v in lam), tol=1e-8)
        assert plus == minus, (lam, plus, minus)
        assert -1.0 <= plus <= 1.0


def test_mu_hat_validation_guards():
    try:
        mu_hat_real(FAM_XX2, Window(1, 2), (1, 1), tol=0.5)
    except ValueError:
        pass
    else:
        raise AssertionError("oversized tol accepted")
    shifted = parse_curve_family([["-2", "1"], ["0", "-2", "1"]])  # a0 = ln 2
    try:
        mu_hat_real(shifted, Window(0.5, 2), (1, 1))
    except ValueError:
        pass
    else:
        raise AssertionError("window inside a0 accepted")
    mu_hat_real(shifted, Window(1, 2), (1, 1))  # valid window must work
    err = QuadratureError("x", partial=1j, error=2.0)
    assert err.partial == 1j and err.error == 2.0


def test_mu_hat_real_refuses_a_value_outside_the_unit_interval():
    # a quadrature value of 2 (T - a) normalizes to 2, which no transform of
    # a probability measure takes: it raises instead of clipping to 1
    fake = lambda phase, a, T, tol_abs: (2 * (T - a), 0.0)
    with mock.patch.object(realosc, "osc_integral", fake):
        try:
            mu_hat_real_with_error(FAM_XX2, Window(1, 2), (1, 1))
        except ArithmeticError as exc:
            assert str(exc) == "mu_hat left [-1,1]: 2.0", exc
        else:
            raise AssertionError("a normalized value of 2 was returned")


def test_mu_hat_real_reads_a_string_tol():
    # "1e-4" from a config used to fail with a bare TypeError
    lam = (Fraction(1, 3), Fraction(-1, 2))
    want = mu_hat_real_with_error(FAM_XX2, Window(1, 2), lam, tol=1e-4)
    got = mu_hat_real_with_error(FAM_XX2, Window(1, 2), lam, tol="1e-4")
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert mu_hat_real(FAM_XX2, Window(1, 2), lam, tol="1e-4").hex() == want[0].hex()


def test_osc_integral_constant_phase():
    phi = RationalPoly([Fraction(1, 3)])
    val, err = osc_integral(phi, 0.0, 2.0, 1e-12)
    want = 2.0 * complex(math.cos(math.tau / 3), math.sin(math.tau / 3))
    assert abs(val - want) < 1e-12 and err == 0.0


def test_osc_integral_rejects_bad_window_and_tolerance():
    phi = RationalPoly(["0", "1/2", "1"])
    for a, T, tol_abs in ((2.0, 1.0, 1e-9), (1.0, 1.0, 1e-9), (0.0, 1.0, 0.0), (0.0, 1.0, -1.0), (0.0, 1.0, math.nan)):
        try:
            osc_integral(phi, a, T, tol_abs)
        except ValueError:
            pass
        else:
            raise AssertionError(f"osc_integral accepted a={a}, T={T}, tol_abs={tol_abs}")


def test_osc_integral_vs_complex_simpson():
    rng = random.Random(47)
    for _ in range(6):
        phi = RationalPoly([0, Fraction(rng.randint(-30, 30), 7), Fraction(rng.randint(-30, 30), 9)])
        if phi.degree <= 0:
            continue
        val, err = osc_integral(phi, 0.0, 1.5, 1e-10)
        want = _complex_simpson(phi, 0.0, 1.5)
        assert err <= 1e-10 * 1.5 + 1e-15
        assert abs(val - want) < 5e-9, (phi, val, want)


def _exp_sum(terms):
    """Phi(ts) = sum c e^{j ts}, elementwise: a point's value does not depend
    on the shape of the array it arrives in."""

    def phase(ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros(ts.shape)
        for j, c in terms:
            out = out + c * np.exp(j * ts)
        return out

    return phase


@st.composite
def _quadrature_cases(draw):
    terms = [
        (j, draw(st.integers(-60, 60)) / draw(st.integers(1, 9)))
        for j in range(draw(st.integers(1, 3)) + 1)
    ]
    lo = draw(st.integers(-8, 16)) / 8
    width = draw(st.sampled_from((1e-3, 0.1, 0.5, 1.0, 2.0)))
    tol = 10.0 ** -draw(st.integers(3, 11))
    return terms, lo, lo + width, tol, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_quadrature_cases())
def test_batched_quadrature_matches_depth_first_oracle(case):
    """Same evaluated panels, so the same value up to rounding and the same
    failures; small limits make failures common."""
    terms, lo, hi, tol, sign_definite = case
    evaluated = {"batched": 0, "oracle": 0}

    def counted(name, f):
        def values_at(ts):
            evaluated[name] += ts.size // 17
            return f(ts)

        return values_at

    phase = _exp_sum(terms)
    if sign_definite:
        # like the IBP remainder weight: relative acceptance, no phase guard,
        # and a blow-up wherever Phi crosses zero
        def integrand(ts):
            return 1.0 / phase(ts) ** 2 + 0j

        lib_kw, oracle_kw = {"rel": 0.05}, {"rel": 0.05}
    else:
        def integrand(ts):
            return np.exp(2j * np.pi * phase(ts))

        lib_kw = {"phase_at": phase}
        oracle_kw = {"phase_at": lambda t: float(phase(np.array([t]))[0])}
    try:
        with mock.patch.object(realosc, "_MAX_PANELS", 3000), mock.patch.object(realosc, "_MAX_DEPTH", 24):
            got = realosc._adaptive_cc(counted("batched", integrand), lo, hi, tol, **lib_kw)
    except QuadratureError:
        got = None
    try:
        want = adaptive_cc_dfs(
            counted("oracle", integrand), lo, hi, tol, max_panels=3000, max_depth=24, **oracle_kw
        )
    except RuntimeError:
        want = None
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        (v, e), (w, f) = got, want
        assert v == w or abs(v - w) <= e + f + 1e-12, (v, w, e, f)
        assert evaluated["batched"] == evaluated["oracle"]


def test_quadrature_batches_and_panel_ceiling():
    shapes = []

    def chirp(ts):
        shapes.append(ts.shape)
        return np.exp(2j * np.pi * 40.0 * ts**2)

    val, err = realosc._adaptive_cc(chirp, 0.0, 3.0, 1e-10, phase_at=lambda ts: 40.0 * ts**2)
    assert max(n for n, _ in shapes) == realosc._BATCH
    assert {k for _, k in shapes} == {realosc._CC_N + 1}
    want, werr = adaptive_cc_dfs(chirp, 0.0, 3.0, 1e-10, phase_at=lambda t: 40.0 * t**2)
    assert abs(val - want) <= err + werr + 1e-12

    # panels wider than 1e-6 never converge: the full tree to depth 20 has
    # 2M panels, so the panel ceiling fires long before the depth ceiling
    seen = []

    def stubborn(ts):
        seen.append(len(ts))
        vals = np.ones(ts.shape, dtype=complex)
        vals[ts[:, 0] - ts[:, -1] > 1e-6, 1::2] = -1.0
        return vals

    try:
        realosc._adaptive_cc(stubborn, 0.0, 1.0, 1e-12)
    except QuadratureError as exc:
        assert math.isfinite(abs(exc.partial)) and exc.error > 0
    else:
        raise AssertionError("a non-converging integrand returned")
    assert max(seen) <= realosc._BATCH
    assert realosc._MAX_PANELS - realosc._BATCH < sum(seen) <= realosc._MAX_PANELS

    # refinement towards one point: panels at depth _MAX_DEPTH are allowed,
    # one level deeper is not
    def pinned(limit, x0=0.3 * 2.0**20):
        def values_at(ts):
            vals = np.ones(ts.shape, dtype=complex)
            vals[(ts[:, -1] < x0) & (x0 < ts[:, 0]) & (ts[:, 0] - ts[:, -1] > limit), 1::2] = -1.0
            return vals

        return values_at

    finest = 2.0 ** (20 - realosc._MAX_DEPTH)
    val, _ = realosc._adaptive_cc(pinned(1.5 * finest), 0.0, 2.0**20, 1e-12)
    assert abs(val - 2.0**20) < 1.0
    try:
        realosc._adaptive_cc(pinned(0.75 * finest), 0.0, 2.0**20, 1e-12)
    except QuadratureError:
        pass
    else:
        raise AssertionError("refinement went deeper than _MAX_DEPTH")


def test_a_phase_span_past_the_panel_cap_raises_before_any_panel(monkeypatch):
    """Each accepted panel moves Phi by at most half a period, so a span of
    more than _MAX_PANELS / 2 periods raises the ceiling's QuadratureError
    before values_at is called, with the whole width as its error.  The cap
    is read at call time; a span at the cap, and a NaN span, run the loop."""
    calls = []

    def values_at(ts):
        calls.append(len(ts))
        return np.ones(ts.shape, dtype=complex)

    def spanning(span):
        return lambda ts: np.where(ts > 2.0, span, 0.0)

    monkeypatch.setattr(realosc, "_MAX_PANELS", 1000)
    for span in (500.001, -1e9, math.inf):
        try:
            realosc._adaptive_cc(values_at, 1.0, 3.0, 1e-9, phase_at=spanning(span))
        except QuadratureError as exc:
            assert (exc.partial, exc.error) == (0j, 2.0), exc
        else:
            raise AssertionError(f"a span of {span} periods returned")
    assert not calls
    for span in (500.0, math.nan):  # the loop runs; at the cap it may still reach the ceiling itself
        try:
            realosc._adaptive_cc(values_at, 1.0, 3.0, 1e-9, phase_at=spanning(span))
        except QuadratureError:
            pass
        assert calls, span
        calls.clear()


def test_slow_zone_past_the_panel_cap_keeps_its_bits(monkeypatch):
    """real_sweep's seed-0 op 1613: (x^2, x^3, x^5) on [1, 26], where Phi'
    vanishes near t = 9.2692 and the slow zone beside it spans about 6.7e9
    periods.  The direct quadrature there raises without evaluating a panel
    (it used to take 199,616 panels and most of a second first), _capped
    charges the zone's width, and (value, error) keep their bits."""
    raised = []
    adaptive = realosc._adaptive_cc

    def spy(values_at, lo, hi, tol_abs, phase_at=None, rel=0.0):
        calls = []

        def counted(ts):
            calls.append(len(ts))
            return values_at(ts)

        try:
            return adaptive(counted, lo, hi, tol_abs, phase_at, rel)
        except QuadratureError:
            raised.append((phase_at is not None, len(calls)))
            raise

    monkeypatch.setattr(realosc, "_adaptive_cc", spy)
    fam = parse_curve_family([["0", "0", "1"], ["0", "0", "0", "1"], ["0", "0", "0", "0", "0", "1"]])
    lam = (float.fromhex("-0x1.448c8c8424a63p+19"), float.fromhex("0x1.4e3cf3617af8cp+5"), 0.0)
    val, err = mu_hat_real_with_error(fam, Window(1, 26), lam, tol=1e-3)
    assert (val.hex(), err.hex()) == ("0x1.fd3dd3e281832p-34", "0x1.895db526060dap-12")
    assert (True, 0) in raised and all(n == 0 for direct, n in raised if direct), raised


def test_huge_frequency_is_fast_and_sane():
    fam = parse_curve_family([["0", "0", "1"], ["0", "0", "0", "1"], ["0", "0", "0", "0", "0", "1"]])
    lam = (Fraction(999_983), Fraction(-1_000_003), Fraction(1_000_033))
    val = mu_hat_real(fam, Window(1, 3), lam, tol=1e-6)
    assert abs(val) < 1e-2  # enormous phase gradient: essentially full cancellation


def test_phase_beyond_float_range_fails_as_quadrature_error():
    # e^{5t} overflows a float for t > 142, inside the t_star bisection
    fam = parse_curve_family([["0", "0", "0", "0", "0", "1"]])
    try:
        mu_hat_real(fam, Window(1, 150), (Fraction(1, 10**300),), tol=1e-3)
    except QuadratureError:
        pass
    else:
        raise AssertionError("an unreachable tolerance was reported as reached")
    # the table keeps only the nonzero term of x^5, so past the float range
    # the phase reads inf; a zero term would add 0 * inf = NaN.  The table
    # is read inside the error-state scope that osc_integral gives each transform
    table = realosc._PhaseTable((1, [0, 0, 0, 0, 0, 1]))
    with np.errstate(over="ignore"):
        assert table.phase(np.array([400.0]))[0] == math.inf
        assert [table.at(400.0, k) for k in range(4)] == [math.inf] * 4


def _generator_sum_rows(phi, t):
    """Phi^(k)(t) for k < 4 as the table computed it with generator sums:
    float(j^k g_j) over the nonzero terms, exp(j*t) in plain floats or, past
    the float range, all of them from numpy, and each row added left to
    right from int 0 -- which is what sum does on Python 3.11 (3.12's sum
    compensates)."""
    js = [float(j) for j, c in enumerate(phi.coeffs) if c]
    try:
        powers = [math.exp(j * t) for j in js]
    except OverflowError:
        powers = np.exp(np.array(js) * t).tolist()
    rows = [[float(c * j**k) for j, c in enumerate(phi.coeffs) if c] for k in range(4)]
    return [functools.reduce(operator.add, (c * x for c, x in zip(row, powers)), 0) for row in rows]


def _bits(v):
    # an all-zero lam leaves no term, and an empty sum is the int 0
    return type(v).__name__, float(v).hex()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((FAM_XX2, FAM_SHIFTED, FAM_X235, FAM_X5, FAM_DENSE)),
    st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9)),
        min_size=3,
        max_size=3,
    ),
    st.one_of(st.floats(0.0, 30.0), st.floats(140.0, 400.0)),
)
def test_scalar_reads_keep_the_generator_sum_bits(fam, lam, t):
    # (x, x^2), (x + 3, x^2 + 1/2) (zero j = 0 entries in rows 1-3), (x^2, x^3,
    # x^5), x^5 and a dense quintic; zero components of lam drop terms, and
    # past t = 142 (x^5) or 354 (x^2) exp overflows and the numpy fallback runs
    lam = lam[: fam.m]
    table = realosc._PhaseTable(phase_integers(fam, lam))
    phase = RationalPoly(phase_fraction([f.coeffs for f in fam.polys], lam))
    with np.errstate(over="ignore"):
        want = [_bits(v) for v in _generator_sum_rows(phase, t)]
        assert [_bits(table.at(t, k)) for k in range(4)] == want


# (family, window, lambda, value.hex(), error.hex()) of mu_hat_real_with_error
# at tol 1e-3: the three criterion-6 families on [1, 2], [1, 6] and [1, 26],
# breakpoints inside the window, |lambda| near 1e6, zero components, and
# (x^2, x^3, x^5) phases whose Phi' or Phi'' has two sign changes.  The five
# lambdas with one nonzero component take the closed form; QUADRATURE_PINS
# keeps what the quadrature read for them
BIT_PINS = (
    (FAM_XX2, (1, 2), (0.37, -0.021), "0x1.d469cc4859a00p-7", "0x1.b9ae043d90919p-29"),
    (FAM_XX2, (1, 2), (-3.5, 0.25), "0x1.b2aa76c025853p-4", "0x1.fe89e3d4998cap-29"),
    (FAM_XX2, (1, 2), (Fraction(1, 3), Fraction(-2, 7)), "-0x1.4442873567cdep-5", "0x1.8e8eeff867207p-32"),
    (FAM_XX2, (1, 6), (1, Fraction(-1, 100)), "0x1.de9d261a365a0p-6", "0x1.3bc317e3a098ep-14"),
    (FAM_XX2, (1, 6), (0.0025, 7e-06), "0x1.0667a4b859c1ap-1", "0x1.f695de3318930p-26"),
    (FAM_XX2, (1, 6), (-0.004, 1e-05), "0x1.a8fa1c2e5eb3ap-2", "0x1.9ffe208eb07bap-20"),
    (FAM_XX2, (1, 6), (1000000.0, 0), "0x1.62912c9bafc74p-27", "0x1.c96beef1af6b5p-49"),
    (FAM_XX2, (1, 6), (999983, -1000003), "0x1.235f417d10228p-29", "0x1.7832845e1d691p-54"),
    (FAM_XX2, (1, 26), (1e-09, -3e-12), "0x1.c4ffea63ac64ap-2", "0x1.e4e01e02e2cc6p-17"),
    (FAM_XX2, (1, 26), (0, 1e-20), "0x1.aa5c844e13feep-1", "0x1.86d4ecc157c43p-49"),
    (FAM_XX2, (1, 26), (4e-12, -1e-23), "0x1.d65f645144f63p-1", "0x1.b9852a4363894p-13"),
    (FAM_XX3, (1, 2), (0.5, -0.01), "-0x1.205f939e3f16dp-4", "0x1.11868561ca159p-25"),
    (FAM_XX3, (1, 2), (-2.0, 0.05), "-0x1.1dc6a14785c61p-5", "0x1.610cbb65deca4p-25"),
    (FAM_XX3, (1, 6), (1, Fraction(-1, 3000)), "0x1.2227aa50b317cp-5", "0x1.173ecfaf85a40p-20"),
    (FAM_XX3, (1, 6), (0, 2e-05), "0x1.70f7c3fc5fa3ap-2", "0x1.6ee966c34e1d8p-49"),
    (FAM_XX3, (1, 6), (-123.0, 0.0004), "-0x1.7e70ff598d4f5p-12", "0x1.0077ac159c344p-22"),
    (FAM_XX3, (1, 26), (7e-08, 0), "0x1.0b7659c920693p-1", "0x1.4df0e4da62543p-49"),
    (FAM_XX3, (1, 26), (-1e-06, 1e-30), "0x1.aa1d56017aed1p-2", "0x1.5939b980b3a18p-12"),
    (FAM_XX3, (1, 26), (3e-11, -2e-34), "0x1.ab443189629c1p-1", "0x1.a4c056b610692p-26"),
    (FAM_X235, (1, 2), (0.01, -0.002, 1e-05), "0x1.f499d43133df4p-1", "0x1.40d00e8a311f9p-29"),
    (FAM_X235, (1, 2), (999983, -1000003, 1000033), "-0x1.ff78dd7ddadc5p-35", "0x1.a18a86f66d65cp-53"),
    (FAM_X235, (1, 6), (1.25, -0.175, 0.0002), "0x1.92b0fb6adcf9ep-6", "0x1.f9cf0019a94cap-17"),
    (FAM_X235, (1, 6), (1250, -175, Fraction(1, 5)), "0x1.581701c85c6bbp-11", "0x1.5ed03c3a5c826p-23"),
    (FAM_X235, (1, 6), (0, -3e-05, 2e-09), "0x1.61f414e8ad398p-2", "0x1.572750febbbd3p-21"),
    (FAM_X235, (1, 6), (-0.5, 0, 1e-10), "0x1.043152347eaadp-8", "0x1.0ec535f7ad896p-16"),
    (FAM_X235, (1, 26), (2e-20, -1e-28, 3e-50), "0x1.94862675cff1bp-1", "0x1.3b9d742c57368p-15"),
    (FAM_X235, (1, 26), (0, 0, 1e-55), "0x1.e854ebd55c473p-1", "0x1.95ec61cd92efcp-49"),
    (
        FAM_X235, (1, 26), (Fraction(1, 10**15), Fraction(-1, 10**17), Fraction(1, 10**35)),
        "0x1.cc8545f1fb840p-2", "0x1.0f656d566be17p-15",
    ),
    (
        FAM_X235, (1, 3), (Fraction(5, 2), Fraction(-7, 10), Fraction(1, 50)),
        "-0x1.7fe7e63de432dp-8", "0x1.ffef1199b0a82p-17",
    ),
    (FAM_X235, (1, 3), (1000000.0, -0.5, 0.001), "-0x1.646ba716bab43p-28", "0x1.092bccb233925p-52"),
)


def test_transform_bits_are_pinned():
    for family, window, lam, value, error in BIT_PINS:
        got = mu_hat_real_with_error(family, window, lam, tol=1e-3)
        assert (got[0].hex(), got[1].hex()) == (value, error), (window, lam)


# (family, window, lambda, value.hex(), error.hex()) that the piecewise
# quadrature gave for the one-term BIT_PINS before they took the closed form
QUADRATURE_PINS = (
    (FAM_XX2, (1, 6), (1000000.0, 0), "0x1.62912c9bafc73p-27", "0x1.a84679fc74cdep-53"),
    (FAM_XX2, (1, 26), (0, 1e-20), "0x1.aa5d153766f09p-1", "0x1.525beb3294e26p-16"),
    (FAM_XX3, (1, 6), (0, 2e-05), "0x1.70eec2d8840eep-2", "0x1.139315d4a7f17p-13"),
    (FAM_XX3, (1, 26), (7e-08, 0), "0x1.0b84df202ddf4p-1", "0x1.54be7d8a2469dp-12"),
    (FAM_X235, (1, 26), (0, 0, 1e-55), "0x1.e853bd7551809p-1", "0x1.f0ffd78ae6741p-14"),
)


def test_closed_form_pins_lie_within_the_quadrature_errors():
    for family, window, lam, value, error in QUADRATURE_PINS:
        got = mu_hat_real_with_error(family, window, lam, tol=1e-3)[0]
        assert abs(got - float.fromhex(value)) <= float.fromhex(error), (window, lam, got)


@st.composite
def _one_term_phases(draw):
    """(coefficients of c0 + c x^d, a, T) with both signs of c, a nonzero c0
    and d = 1..5, the window placed so that y = 2 pi |c| e^{dt} runs from
    y_a to y_T: both at most realosc._CISI_SPLIT = 10^0.602 ("series"),
    y_a below and y_T above ("mixed"), or both above ("fraction"), with y_a
    from 1e-15 to 1e6 and y_T up to 1e25."""
    d = draw(st.integers(1, 5))
    sign = draw(st.sampled_from((1, -1)))
    c = Fraction(sign * draw(st.integers(1, 10**6)), 10 ** draw(st.integers(0, 12)))
    c0 = Fraction(draw(st.integers(-(10**6), 10**6).filter(bool)), draw(st.integers(1, 1000)))
    regime = draw(st.sampled_from(("series", "mixed", "fraction")))
    if regime == "fraction":
        log_ya = draw(st.floats(0.7, 6))
    else:
        log_ya = draw(st.floats(-15, 0.5))
    if regime == "series":
        log_yT = draw(st.floats(log_ya + 0.01, 0.6))
    else:
        log_yT = draw(st.floats(max(0.7, log_ya + 0.01), 25))
    scale = math.log(2 * math.pi * abs(c))
    a = (log_ya * math.log(10) - scale) / d
    T = (log_yT * math.log(10) - scale) / d
    return [c0] + [0] * (d - 1) + [c], a, T


def _one_term_oracle(coeffs, a, T):
    """e^{2 pi i c0} ((Ci(y_T) - Ci(y_a)) + i sgn(c) (Si(y_T) - Si(y_a))) / d
    at 40 digits from the exact coefficients and the float window."""
    c0, c, d = coeffs[0], coeffs[-1], len(coeffs) - 1
    with mpmath.workdps(40):
        scale = 2 * mpmath.pi * abs(mpmath.mpf(c.numerator) / c.denominator)
        y = [scale * mpmath.exp(d * mpmath.mpf(t)) for t in (a, T)]
        sign = 1 if c > 0 else -1
        w = (mpmath.ci(y[1]) - mpmath.ci(y[0]) + 1j * sign * (mpmath.si(y[1]) - mpmath.si(y[0]))) / d
        return complex(mpmath.expjpi(2 * mpmath.mpf(c0.numerator) / c0.denominator) * w)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_one_term_phases())
def test_one_term_transform_matches_mpmath_cosine_and_sine_integrals(case):
    coeffs, a, T = case
    tol = 1e-9
    with mock.patch.object(realosc, "_PhaseTable", side_effect=AssertionError("the quadrature ran")):
        value, err = osc_integral(RationalPoly(coeffs), a, T, tol * (T - a))
    assert abs(value - _one_term_oracle(coeffs, a, T)) <= err <= tol * (T - a), (case, value, err)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5),
    st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), st.sampled_from((1, 10**3, 10**6, 10**9))),
    st.builds(Fraction, st.integers(-100, 100), st.integers(1, 7)),
    st.sampled_from(((1.0, 2.0), (1.0, 6.0), (0.5, 3.0), (-2.0, 1.5))),
)
def test_quadrature_agrees_with_the_closed_form_on_one_term_phases(d, c, c0, window):
    """One-term phases no longer reach the quadrature through osc_integral;
    Phi' and Phi'' have no root, so the window is one piece, and the piece
    integrator must reach tol and agree with the closed form within the sum
    of both errors."""
    a, T = window
    tol = 1e-6 * (T - a)
    den, scaled = clear_denominators([c0] + [Fraction(0)] * (d - 1) + [c])
    table = realosc._PhaseTable((den, scaled))
    with np.errstate(over="ignore"):
        quad, quad_err = realosc._capped(functools.partial(realosc._integrate_piece, table), a, T, tol)
    closed, closed_err = osc_integral((den, scaled), a, T, tol)
    assert quad_err <= 1.5 * tol, (d, c, c0, window, quad_err)
    assert abs(quad - closed) <= quad_err + closed_err, (d, c, c0, window, quad, closed)


def test_one_term_phases_outside_the_float_range_take_the_quadrature():
    """The closed form returns None, and the quadrature runs, when y_a is
    below the smallest normal float or y_T overflows while e^{jT} is finite."""
    original, returned = realosc._one_term_integral, []

    def recording(*args):
        returned.append(original(*args))
        return returned[-1]

    x, x2 = parse_curve_family([["0", "1"]]), parse_curve_family([["0", "0", "1"]])
    with mock.patch.object(realosc, "_one_term_integral", recording):
        # y_a = 2 pi 1e-320 e^2 is subnormal: the phase is all but constant
        value, err = mu_hat_real_with_error(x2, Window(1, 2), (Fraction(1, 10**320),))
        assert value == 1.0 and err <= 1e-300, (value, err)
        assert returned == [None]
        # y_T = 2 pi 1e307 e^2 overflows: no quadrature reaches the tolerance
        try:
            mu_hat_real_with_error(x, Window(1, 2), (Fraction(10**307),))
        except QuadratureError:
            pass
        else:
            raise AssertionError("an unreachable tolerance was reported as reached")
        value, err = osc_integral(phase_integers(x, (Fraction(10**307),)), 1.0, 2.0, 1e-9)
        assert err >= abs(value), (value, err)
    assert returned == [None, None, None]


def test_superlevel_decompose_two_sided():
    phi = RationalPoly([-5, 1])  # e^t - 5
    dec = superlevel_decompose(phi, Fraction(1, 2), Window(1, 2))
    assert len(dec) == 2
    (a1, b1), (a2, b2) = ((iv.lo, iv.hi) for iv in dec.intervals)
    assert abs(a1 - 1.0) < 1e-12 and abs(b1 - math.log(4.5)) < 1e-9
    assert abs(a2 - math.log(5.5)) < 1e-9 and abs(b2 - 2.0) < 1e-12
    assert dec.spot_check(phi)


def test_superlevel_decompose_curvature_cut():
    phi = RationalPoly([0, 1, Fraction(-1, 20)])  # second derivative flips at t = ln 5
    dec = superlevel_decompose(phi, Fraction(1, 100), Window(1, 2))
    cut = math.log(5.0)
    assert any(abs(iv.hi - cut) < 1e-9 for iv in dec.intervals)
    assert any(abs(iv.lo - cut) < 1e-9 for iv in dec.intervals)
    assert dec.spot_check(phi)


def test_superlevel_random_caps():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 4)
        terms = {j: Fraction(rng.randint(-5, 5)) for j in range(n + 1)}
        terms[n] = Fraction(rng.choice([x for x in range(-5, 6) if x]))
        phi = RationalPoly([terms[j] for j in range(n + 1)])
        level = Fraction(rng.randint(1, 12), 4)
        dec = superlevel_decompose(phi, level, Window(0.0, 2.0))
        assert len(dec) <= 3 * max(phi.degree, 1)
        assert dec.spot_check(phi)


def test_merge_intervals():
    assert merge_intervals([]) == []
    merged = merge_intervals([[(0.0, 1.0), (2.0, 3.0)], [(0.5, 2.5)]])
    # disjoint, ordered, covering [0, 3], each piece inside its witness set
    sets = [[(0.0, 1.0), (2.0, 3.0)], [(0.5, 2.5)]]
    assert merged[0][0] == 0.0 and merged[-1][1] == 3.0
    for (a1, b1, w), (a2, _, _) in zip(merged, merged[1:]):
        assert b1 <= a2
    for lo, hi, w in merged:
        assert any(s_lo <= lo and hi <= s_hi for s_lo, s_hi in sets[w])


def test_merge_intervals_random_caps():
    rng = random.Random(59)
    for _ in range(100):
        nsets = rng.randint(1, 4)
        sets = []
        for _ in range(nsets):
            pieces = sorted(rng.uniform(0, 10) for _ in range(2 * rng.randint(1, 4)))
            sets.append([(pieces[2 * i], pieces[2 * i + 1]) for i in range(len(pieces) // 2)])
        merged = merge_intervals(sets)
        n = max(nsets, max(len(s) for s in sets))
        assert len(merged) <= 2 * n**4
        for lo, hi, w in merged:
            mid = 0.5 * (lo + hi)
            assert any(s_lo <= mid <= s_hi for s_lo, s_hi in sets[w])


def test_witness_intervals_support_oscillation_bound():
    rng = random.Random(61)
    window = Window(0.0, 2.0)
    checked = 0
    for _ in range(12):
        n = rng.randint(1, 3)
        terms = {j: Fraction(rng.randint(-4, 4)) for j in range(1, n + 1)}
        phi = RationalPoly([0] + [terms[j] for j in range(1, n + 1)])
        if phi.degree < 1:
            continue
        for k in range(1, phi.degree + 1):
            der = lambda t: sum(
                float(c) * j**k * math.exp(j * t) for j, c in enumerate(phi.coeffs) if c != 0
            )
            peak = max(abs(der(t)) for t in np.linspace(window.a, window.T, 64))
            if peak == 0:
                continue
            eta = Fraction(round(0.25 * peak * 64), 64)
            if eta <= 0:
                continue
            dec = witness_intervals(phi, k, eta, window)
            assert dec.spot_check(phi)
            bound = vdc_bound(k, math.tau * float(eta)) + 1e-6
            for iv in dec.intervals:
                val, err = osc_integral(phi, iv.lo, iv.hi, 1e-10)
                assert abs(val) + err <= bound, (phi, k, eta, iv, abs(val), bound)
                checked += 1
    assert checked >= 20


def test_measure_bound_rescue():
    # a failed integration, or one whose error exceeds the interval's length,
    # is charged that length; a NaN error passes as it is, as before
    def failing(lo, hi, tol):
        raise QuadratureError("no convergence")

    assert realosc._capped(failing, 1.0, 1.5, 1e-9) == (0j, 0.5)
    assert realosc._capped(lambda lo, hi, tol: (0.3 + 0.1j, 0.75), 1.0, 1.5, 1e-9) == (0j, 0.5)
    assert realosc._capped(lambda lo, hi, tol: (0.3 + 0.1j, 0.5), 1.0, 1.5, 1e-9) == (0.3 + 0.1j, 0.5)
    val, err = realosc._capped(lambda lo, hi, tol: (0.3 + 0.1j, math.nan), 1.0, 1.5, 1e-9)
    assert val == 0.3 + 0.1j and math.isnan(err)


def test_spot_check_catches_a_false_witness():
    # Phi = e^t on [0, 1]: |Phi'| = e^t lies in [1, e], so eta = 1/2 holds and
    # eta = 3 fails at every interior sample; a witness on Phi'' fails too
    phi = RationalPoly([0, 1])
    assert IntervalDecomposition((WitnessInterval(0.0, 1.0, 1, 0.5),)).spot_check(phi)
    for iv in (WitnessInterval(0.0, 1.0, 1, 3.0), WitnessInterval(0.5, 1.0, 2, 3.0)):
        assert not IntervalDecomposition((WitnessInterval(0.0, 1.0, 1, 0.5), iv)).spot_check(phi), iv


def test_certified_constant_shape():
    bound = certified_constant_real(FAM_XX2)
    n = FAM_XX2.n
    kappa = 3 * n * 2 * (3 * n) ** 4
    low_budget, low_total = bound.breakdown[LOW]
    assert low_budget == kappa
    assert bound.C >= low_total > 0
    assert bound.breakdown[HIGH] == (0, 0.0)  # L = 0: high case vacuous
    # frozen regression value for the flagship family
    assert abs(bound.C - 729479.6414509641) < 1e-6
    rich = certified_constant_real(parse_curve_family([["0", "1"], ["1", "0", "1"]]))
    assert rich.C >= rich.breakdown[LOW][1]
    assert rich.breakdown[HIGH][1] > 0


def test_certified_floor_spot_sample():
    bound = certified_constant_real(FAM_XX2)
    rng = random.Random(67)
    for window in (Window(1, 2), Window(1, 6)):
        floor = -bound.C / window.length - 1e-6
        for _ in range(12):
            lam = (
                Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 100)),
                Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 100)),
            )
            val = mu_hat_real(FAM_XX2, window, lam, tol=1e-6)
            assert val >= floor
