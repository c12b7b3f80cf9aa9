"""Spectral consequences and the minimize/certify pipeline: exact ratio and
chromatic formulas, budgeted deterministic minimization, and the consistency
check of empirical minima against certified floors."""

import contextlib
import io
import json
import math
import os
import random
import tempfile
from fractions import Fraction

import mpmath

from oscillabound import cli, realosc, spectral
from oscillabound.padic import PadicWindow
from oscillabound.polycore import compute_a0_real, parse_curve_family
from oscillabound.realosc import QuadratureError, Window, certified_constant_real
from oscillabound.spectral import (
    PipelineConsistencyError,
    hoffman_chromatic_bound,
    hoffman_ratio_bound,
    independence_pipeline,
    minimize_mu_hat,
    operator_ratio_bound,
)

FAM = parse_curve_family([["0", "1"], ["0", "0", "1"]])


def test_ratio_bound_exact():
    assert hoffman_ratio_bound(Fraction(-1, 3)) == Fraction(1, 4)
    assert hoffman_ratio_bound(Fraction(-1)) == Fraction(1, 2)
    assert hoffman_ratio_bound(-0.25) == 0.2
    for bad in (0, Fraction(1, 2), 1.0):
        try:
            hoffman_ratio_bound(bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"hoffman_ratio_bound accepted {bad}")


def test_operator_ratio_bound():
    assert operator_ratio_bound(Fraction(-1, 3), 1, 0) == Fraction(1, 4)
    got = operator_ratio_bound(Fraction(-1, 2), Fraction(2, 5), Fraction(1, 5))
    assert got == (Fraction(1, 2) + Fraction(2, 5)) / Fraction(7, 10)
    # a nonpositive denominator, m >= 0 (hoffman_ratio_bound's guard), and a
    # negative defect, which gave a negative bound on the ratio
    for args in ((Fraction(-1, 4), Fraction(1, 4), 1), (0.5, 1, 0), (0, 1, 0), (-0.5, 1, -0.4), (-0.5, 1, math.nan)):
        try:
            operator_ratio_bound(*args)
        except ValueError:
            pass
        else:
            raise AssertionError(f"operator_ratio_bound accepted {args}")


def test_chromatic_bound_exact():
    assert hoffman_chromatic_bound(Fraction(-1, 3), 1) == 4
    assert hoffman_chromatic_bound(Fraction(-1, 2), Fraction(5)) == 11
    for m_val, big in ((0, 1), (Fraction(1, 2), 1), (Fraction(-1, 2), 0)):
        try:
            hoffman_chromatic_bound(m_val, big)
        except ValueError:
            pass
        else:
            raise AssertionError(f"chromatic bound accepted ({m_val}, {big})")


def test_ratio_bounds_agree_on_random_inputs():
    rng = random.Random(71)
    for _ in range(50):
        m_val = -Fraction(rng.randint(1, 40), rng.randint(1, 40))
        assert operator_ratio_bound(m_val, 1, 0) == hoffman_ratio_bound(m_val)
        assert 0 < hoffman_ratio_bound(m_val) < 1
        assert hoffman_chromatic_bound(m_val, Fraction(1)) > 1


def test_minimize_padic_exhaustive():
    w = PadicWindow(1, 4, 3)
    rep = minimize_mu_hat(FAM, w, seed=0)
    assert not rep.partial  # default budget covers the whole lattice
    assert rep.best_value <= -0.2
    assert rep.grid_spec["field"] == "padic:3"
    # floor certified for the same window: B = 192, L = 16/3
    assert rep.best_value >= -36.0
    # the trace records strict improvements only and ends at the minimum
    vals = [v for _, _, v in rep.trace]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == rep.best_value


def test_minimize_padic_budget_400_pinned():
    """The budget-400 prefix of the 3-adic lattice, as the descent without
    a memo reported it: the shared memo changes nothing in the report."""
    rep = minimize_mu_hat(FAM, PadicWindow(1, 4, 3), budget=400, seed=0)
    assert rep.best_lambda == (Fraction(0), Fraction(3))
    assert rep.best_value == -0.125
    assert rep.evaluations == 400 and rep.partial
    zero = Fraction(0)
    assert rep.trace == (
        ("lattice", (zero, zero), 1.0),
        ("lattice", (zero, Fraction(1, 729)), 0.0),
        ("lattice", (zero, Fraction(3)), -0.125),
    )


def test_minimize_deterministic_and_budget_monotone():
    w = PadicWindow(1, 4, 3)
    full = minimize_mu_hat(FAM, w, seed=5)
    again = minimize_mu_hat(FAM, w, seed=5)
    assert full == again  # identical seed and budget: identical report
    prev_best = math.inf
    for budget in (50, 200, 800):
        rep = minimize_mu_hat(FAM, w, budget=budget, seed=5)
        assert rep.evaluations <= budget
        assert rep.best_value <= prev_best + 1e-15  # larger budget never worse
        prev_best = rep.best_value
    assert full.best_value <= prev_best + 1e-15


def test_minimize_real_small_budget():
    rep = minimize_mu_hat(FAM, Window(1, 2), budget=60, seed=1, tol=1e-4)
    assert rep.partial and rep.evaluations <= 60
    assert rep.best_value <= 1.0
    assert len(rep.best_lambda) == 2
    # frozen coarse-grid scan of the same family found values near -0.68;
    # a tiny budget cannot beat the certified floor in any case
    floor = -certified_constant_real(FAM).C / 1.0
    assert rep.best_value >= floor


def test_minimize_real_evaluates_each_sign_pair_once(monkeypatch):
    calls = []

    def recording(family, window, lam, tol):
        calls.append(lam)
        return realosc.mu_hat_real(family, window, lam, tol=tol)

    monkeypatch.setattr(spectral, "mu_hat_real", recording)
    rep = minimize_mu_hat(parse_curve_family([["0", "0", "1"]]), (1, 6), tol=1e-3, seed=0)
    seen = set(calls)
    assert len(seen) == len(calls)
    assert not any(tuple(-v for v in lam) in seen for lam in calls if any(lam))
    assert rep.evaluations == len(calls) == 373
    # the same minimum as evaluating lambda and -lambda separately
    assert rep.best_lambda == (Fraction(2206159, 65239690),)
    assert rep.best_value == -0.047202935610043115
    # the quadrature read -0.047210002197041835 with error 5.85e-5 before
    # one-term phases took the closed form (Ci(x e^10) - Ci(x)) / 10, x = 2 pi lam e^2
    assert abs(rep.best_value - -0.047210002197041835) <= 5.85e-5
    with mpmath.workdps(40):
        x = 2 * mpmath.pi * mpmath.mpf(2206159) / 65239690 * mpmath.e**2
        assert abs(rep.best_value - float((mpmath.ci(x * mpmath.e**10) - mpmath.ci(x)) / 10)) <= 1e-12


def test_cache_keys_opposite_frequencies_together(monkeypatch):
    # a zero leading component: the sign comes from the first nonzero numerator
    calls = []

    def stub(family, window, lam, tol):
        calls.append(lam)
        return 0.5

    q = Fraction(3, 7)
    stream = [(0, q), (0, -q), (Fraction(0), Fraction(6, 14)), (0, 0), (0, 0), (-1, q), (1, -q), (q, 0)]

    def candidates(evaluate, m, seed):
        for lam in stream:
            yield "grid", lam, evaluate(lam)

    monkeypatch.setattr(spectral, "mu_hat_real", stub)
    monkeypatch.setattr(spectral, "_real_candidates", candidates)
    rep = minimize_mu_hat(FAM, (1, 2))
    assert calls == [(0, q), (0, 0), (-1, q), (q, 0)]
    assert rep.evaluations == 4 and not rep.partial


def test_minimize_real_all_candidates_failed(monkeypatch):
    def failing(family, window, lam, tol):
        raise QuadratureError("requested tolerance not reached")

    monkeypatch.setattr(spectral, "mu_hat_real", failing)
    try:
        minimize_mu_hat(FAM, (1, 2), budget=5)
    except ValueError as exc:
        assert "all 5 evaluated candidates failed" in str(exc), exc
    else:
        raise AssertionError("a search whose every candidate failed reported a minimum")


def test_pipeline_padic_consistency():
    res = independence_pipeline(FAM, PadicWindow(1, 4, 3), seed=0)
    assert res.certified_ratio_bound == 36.0  # B/L = 192/(16/3) scaled by window
    assert res.empirical_min >= -res.certified_ratio_bound
    assert 0 < res.empirical_ratio_bound < 1
    assert res.empirical_ratio_bound <= float(
        hoffman_ratio_bound(Fraction(res.empirical_min).limit_denominator(10**12))
    ) * (1 + 1e-9)
    assert res.chromatic_lower_bound > 0
    assert not res.report.partial


def test_pipeline_real_budgeted():
    res = independence_pipeline(FAM, Window(1, 2), budget=40, seed=2, tol=1e-4)
    assert res.certified_C > 0
    assert res.empirical_min >= -res.certified_ratio_bound - 1e-6
    assert res.report.evaluations <= 40


def test_pipeline_consistency_error_payload():
    err = PipelineConsistencyError("floor broken", {"gap": -0.5})
    assert err.diagnostics == {"gap": -0.5}
    assert "floor broken" in str(err)
    try:
        raise PipelineConsistencyError("x", {})
    except PipelineConsistencyError:
        pass


def test_field_forms_and_non_prime_p():
    # the CLI reads a config's field; the library takes the window it builds
    for field in ({"padic": 3}, {"padic": "3"}, {"padic": 3.0}):
        window = cli._window_of({"window": (1, 2), "field": field})
        rep = minimize_mu_hat(FAM, window, budget=3)
        assert rep.grid_spec["field"] == "padic:3"
    for field in ({"padic": 4}, {"padic": "4"}):
        try:
            cli._window_of({"window": (1, 3), "field": field})
        except ValueError as exc:
            assert "not prime" in str(exc)
        else:
            raise AssertionError("non-prime p accepted")
    # a p that is not an integer is an error, never rounded to a nearby prime
    for field in ({"padic": 3.9}, {"padic": 5.5}, {"padic": "3.9"}, {"padic": True}, {"padic": "abc"}):
        try:
            cli._window_of({"window": (1, 2), "field": field})
        except ValueError as exc:
            assert "the field's p must be an integer" in str(exc), exc
        else:
            raise AssertionError(f"field {field!r} accepted")
    # the bare p, ("padic", p) and "padic:p" spellings are gone: each is an error
    for field in (3, ("padic", 3), "padic:3"):
        try:
            cli._window_of({"window": (1, 2), "field": field})
        except ValueError as exc:
            assert "field must be 'real' or {'padic': p}" in str(exc), exc
        else:
            raise AssertionError(f"field {field!r} accepted")


def test_padic_window_bounds_must_be_integers():
    # a bound that is not an integer raises; it is never truncated
    for window in ((1.9, 4.7), (1, 4.7), ("1.9", 4), (Fraction(3, 2), 4), (True, 4), (1, 2, 3)):
        try:
            cli._window_of({"window": window, "field": {"padic": 3}})
        except ValueError:
            pass
        else:
            raise AssertionError(f"window {window!r} accepted")
    # bounds of integral value are exact, whatever their spelling
    for window in ((1, 4), ("1", "4"), (1.0, 4.0), (Fraction(1), 4)):
        assert cli._window_of({"window": window, "field": {"padic": 3}}) == PadicWindow(1, 4, 3)


def test_padic_window_selects_the_padic_field():
    rep = minimize_mu_hat(FAM, PadicWindow(1, 4, 3), budget=3)
    assert rep.grid_spec["field"] == "padic:3" and rep.trace[0][0] == "lattice"
    assert rep.evaluations == 3


def test_tol_is_checked_for_both_fields(monkeypatch):
    w = PadicWindow(1, 4, 3)
    for tol in (math.nan, 5.0, 0.0, -1.0):
        for call in (
            lambda: minimize_mu_hat(FAM, w, budget=3, tol=tol),
            lambda: independence_pipeline(FAM, w, budget=3, tol=tol),
            lambda: minimize_mu_hat(FAM, (1, 2), budget=3, tol=tol),
        ):
            try:
                call()
            except ValueError as exc:
                assert "tol must lie in (0, 1e-3]" in str(exc), exc
            else:
                raise AssertionError(f"tol {tol!r} accepted")
    # a transform far below the certified floor sets off the alarm
    monkeypatch.setattr(spectral, "mu_hat_padic", lambda family, window, lam, memo: -1000.0)
    try:
        independence_pipeline(FAM, w, budget=3, tol=1e-6)
    except PipelineConsistencyError as exc:
        assert exc.diagnostics["field"] == "padic:3"
        assert exc.diagnostics["empirical_min"] == -1000.0
    else:
        raise AssertionError("an empirical minimum of -1000 passed the floor")


def test_the_search_reads_its_own_settings():
    # a config's spellings mean what the CLI's do; a string tol used to reach
    # the pipeline's floor - tol
    w = PadicWindow(1, 4, 3)
    assert independence_pipeline(FAM, w, budget="5", seed="2", tol="1e-4") == independence_pipeline(
        FAM, w, budget=5, seed=2, tol=1e-4
    )
    assert minimize_mu_hat(FAM, (1, 2), budget=4, seed="3", tol="1e-4") == minimize_mu_hat(
        FAM, (1, 2), budget=4, seed=3, tol=1e-4
    )
    # the lattice order does not depend on the seed
    assert minimize_mu_hat(FAM, w, budget=20, seed=0) == minimize_mu_hat(FAM, w, budget=20, seed=5)


def test_pipeline_real_consistency_alarm(monkeypatch):
    # a real transform far below the certified floor (about -7.3e5 on [1, 2])
    # sets off the alarm too, and the CLI reports it with exit 2
    monkeypatch.setattr(spectral, "mu_hat_real", lambda family, window, lam, tol: -1e9)
    try:
        independence_pipeline(FAM, (1, 2), budget=3, tol=1e-6)
    except PipelineConsistencyError as exc:
        diag = exc.diagnostics
        assert (diag["field"], diag["window"], diag["empirical_min"]) == ("real", (1.0, 2.0), -1e9)
        assert diag["floor"] == -certified_constant_real(FAM).C
    else:
        raise AssertionError("an empirical minimum of -1e9 passed the real floor")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump({"family": [["0", "1"], ["0", "0", "1"]], "window": [1, 2], "budget": 3}, fh)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["pipeline", path]) == 2
    payload = json.loads(out.getvalue())
    assert payload["error"] == "consistency failure" and payload["diagnostics"]["field"] == "real"


def test_budget_must_be_an_integer():
    w = PadicWindow(1, 4, 3)
    for budget in (3.5, True, 2.7, math.nan, math.inf):
        for window in (w, (1, 2)):
            try:
                minimize_mu_hat(FAM, window, budget=budget)
            except ValueError as exc:
                assert "budget must be an integer" in str(exc), exc
            else:
                raise AssertionError(f"budget {budget!r} accepted")
    # an integral float means that integer
    assert minimize_mu_hat(FAM, w, budget=3.0) == minimize_mu_hat(FAM, w, budget=3)


def test_pipeline_checks_the_window_before_any_certificate_or_transform(monkeypatch):
    # a window at or below a0 (R) or the essential part (Q_p) raises the
    # transforms' own message before the echelon form, the certified
    # constants or any transform is computed
    calls = []
    for name in ("echelon_reduce", "certified_bound_padic", "certified_constant_real", "mu_hat_real", "mu_hat_padic"):
        monkeypatch.setattr(spectral, name, lambda *args, name=name, **kwargs: calls.append(name))
    shifted = parse_curve_family([["-2", "1"], ["-4", "0", "1"]])  # a0 = ln 2
    a0 = compute_a0_real(shifted)
    padic_fam = parse_curve_family([["0", "1/9", "1"]])  # essential part 2 at p = 3
    cases = (
        (shifted, (0.1, 3), f"window start 0.1 must exceed a0 = {a0}"),
        (shifted, Window(a0, 3), f"window start {a0} must exceed a0 = {a0}"),
        (padic_fam, PadicWindow(1, 4, 3), "window start 1 must exceed the essential part 2"),
        (padic_fam, PadicWindow(2, 4, 3), "window start 2 must exceed the essential part 2"),
    )
    for fam, window, message in cases:
        for call in (spectral.certificate, independence_pipeline):
            try:
                call(fam, window)
            except ValueError as exc:
                assert str(exc) == message, (window, exc)
            else:
                raise AssertionError(f"window {window!r} accepted")
    assert calls == []


def test_budget_is_read_as_an_integer():
    # "7" means 7, as it does in a config; at the parent it raised TypeError
    w = PadicWindow(1, 4, 3)
    assert minimize_mu_hat(FAM, w, budget="7") == minimize_mu_hat(FAM, w, budget=7)
    for budget in (0, -3, "0"):
        try:
            minimize_mu_hat(FAM, w, budget=budget)
        except ValueError as exc:
            assert "at least one evaluation" in str(exc), exc
        else:
            raise AssertionError(f"budget {budget!r} accepted")


def test_padic_consistency_diagnostics_are_the_exact_floor_rounded_once(monkeypatch):
    # over Q_2 on [1, 7] the floor is exactly -96/7; the alarm reports it and
    # C = 96*6/7 as floats, each rounded once from the exact value
    monkeypatch.setattr(spectral, "mu_hat_padic", lambda family, window, lam, memo: -1000.0)
    try:
        independence_pipeline(FAM, PadicWindow(1, 7, 2), budget=3)
    except PipelineConsistencyError as exc:
        diag = exc.diagnostics
        assert (diag["certified_C"], diag["floor"]) == (float(Fraction(576, 7)), float(Fraction(-96, 7))), diag
        assert type(diag["certified_C"]) is float and type(diag["floor"]) is float, diag
    else:
        raise AssertionError("an empirical minimum of -1000 passed the floor")
