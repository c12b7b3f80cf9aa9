"""Real-case oscillatory machinery: the normalized transform against an
independent Simpson oracle, oscillation bounds on certified witness
intervals, superlevel decompositions with their hard caps, and the uniform
certified constant."""

import csv
import math
import os
import random
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adaptive_cc_dfs, simpson_mu_hat

from oscillabound import realosc
from oscillabound.cli import _write_csv
from oscillabound.polycore import RationalPoly, parse_curve_family
from oscillabound.realosc import (
    HIGH,
    LOW,
    QuadratureError,
    Window,
    certified_constant_real,
    classify_frequency,
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


def _complex_simpson(phi, a, T, n=1 << 15):
    ts = np.linspace(a, T, n + 1)
    ys = np.exp(2j * np.pi * np.array([phi(math.exp(t)) for t in ts]))
    h = (T - a) / n
    return (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()) * h / 3


def test_window_validation():
    w = Window(1.0, 3.5)
    assert w.length == 2.5
    for bad in ((2.0, 2.0), (3.0, 1.0)):
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
    for k, eta in ((0, 1.0), (1, 0.0), (2, -3.0)):
        try:
            vdc_bound(k, eta)
        except ValueError:
            pass
        else:
            raise AssertionError(f"vdc_bound accepted ({k}, {eta})")


def test_classify_frequency():
    fam = parse_curve_family([["0", "1"], ["1", "0", "1"]])  # (x, x^2 + 1)
    assert classify_frequency(fam, (1, Fraction(1, 16))) == LOW
    assert classify_frequency(fam, (5, 1)) == HIGH
    assert classify_frequency(fam, (Fraction(1, 8), Fraction(0))) == LOW
    try:
        classify_frequency(fam, (0, 0))
    except ValueError:
        pass
    else:
        raise AssertionError("lambda = 0 classified")


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
    assert abs(plus - minus) <= 2 * tol, (lam, plus, minus)


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
        assert abs(plus - minus) < 3e-8
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


def test_osc_integral_constant_phase():
    phi = RationalPoly([Fraction(1, 3)])
    val, err = osc_integral(phi, 0.0, 2.0, 1e-12)
    want = 2.0 * complex(math.cos(math.tau / 3), math.sin(math.tau / 3))
    assert abs(val - want) < 1e-12 and err == 0.0


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
    # the phase reads inf; a zero term would add 0 * inf = NaN
    table = realosc._PhaseTable(RationalPoly([0, 0, 0, 0, 0, 1]))
    assert table.phase(np.array([400.0]))[0] == math.inf
    assert table.derivs(400.0, 1) == [math.inf]


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


def test_write_profile_csv_roundtrip():
    lams = [(0, 0), (Fraction(1, 100), 0), (Fraction(-1, 2), Fraction(1, 3))]
    profile = [(lam, *mu_hat_real_with_error(FAM_XX2, Window(1, 2), lam, tol=1e-8)) for lam in lams]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.csv")
        _write_csv(path, FAM_XX2.m, profile)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[0] == ["lambda_1", "lambda_2", "value", "error"]
    assert len(rows) == 1 + len(lams)
    for row, (lam, want, err) in zip(rows[1:], profile):
        assert [float(row[0]), float(row[1])] == [float(lam[0]), float(lam[1])]
        assert (float(row[2]), float(row[3])) == (want, err)
        assert float(row[3]) >= 0.0
