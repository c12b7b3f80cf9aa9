"""Spectral consequences and the minimize/certify pipeline: exact ratio and
chromatic formulas, budgeted deterministic minimization, and the consistency
check of empirical minima against certified floors."""

import math
import random
from fractions import Fraction

from oscillabound.padic import PadicWindow
from oscillabound.polycore import parse_curve_family
from oscillabound.realosc import Window, certified_constant_real
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
    try:
        operator_ratio_bound(Fraction(-1, 4), Fraction(1, 4), 1)  # denominator -1/2
    except ValueError:
        pass
    else:
        raise AssertionError("nonpositive denominator accepted")


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
    rep = minimize_mu_hat(FAM, w, field=("padic", 3), seed=0)
    assert not rep.partial  # default budget covers the whole lattice
    assert rep.best_value <= -0.2
    assert rep.grid_spec["field"] == "padic:3"
    # floor certified for the same window: B = 192, L = 16/3
    assert rep.best_value >= -36.0
    # the trace records strict improvements only and ends at the minimum
    vals = [v for _, _, v in rep.trace]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == rep.best_value


def test_minimize_deterministic_and_budget_monotone():
    w = PadicWindow(1, 4, 3)
    full = minimize_mu_hat(FAM, w, field=("padic", 3), seed=5)
    again = minimize_mu_hat(FAM, w, field=("padic", 3), seed=5)
    assert full == again  # identical seed and budget: identical report
    prev_best = math.inf
    for budget in (50, 200, 800):
        rep = minimize_mu_hat(FAM, w, field=("padic", 3), budget=budget, seed=5)
        assert rep.evaluations <= budget
        assert rep.best_value <= prev_best + 1e-15  # larger budget never worse
        prev_best = rep.best_value
    assert full.best_value <= prev_best + 1e-15


def test_minimize_real_small_budget():
    rep = minimize_mu_hat(FAM, Window(1, 2), field="real", budget=60, seed=1, tol=1e-4)
    assert rep.partial and rep.evaluations <= 60
    assert rep.best_value <= 1.0
    assert len(rep.best_lambda) == 2
    # frozen coarse-grid scan of the same family found values near -0.68;
    # a tiny budget cannot beat the certified floor in any case
    floor = -certified_constant_real(FAM).C / 1.0
    assert rep.best_value >= floor


def test_pipeline_padic_consistency():
    res = independence_pipeline(FAM, PadicWindow(1, 4, 3), field=("padic", 3), seed=0)
    assert res.certified_ratio_bound == 36.0  # B/L = 192/(16/3) scaled by window
    assert res.empirical_min >= -res.certified_ratio_bound
    assert 0 < res.empirical_ratio_bound < 1
    assert res.empirical_ratio_bound <= float(
        hoffman_ratio_bound(Fraction(res.empirical_min).limit_denominator(10**12))
    ) * (1 + 1e-9)
    assert res.chromatic_lower_bound > 0
    assert not res.report.partial


def test_pipeline_real_budgeted():
    res = independence_pipeline(FAM, Window(1, 2), field="real", budget=40, seed=2, tol=1e-4)
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
    for field in (3, ("padic", 3), "padic:3", {"padic": 3}):
        rep = minimize_mu_hat(FAM, (1, 2), field=field, budget=3)
        assert rep.grid_spec["field"] == "padic:3"
    calls = (
        lambda: minimize_mu_hat(FAM, (1, 3), field=4),
        lambda: independence_pipeline(FAM, (1, 3), field="padic:4"),
    )
    for call in calls:
        try:
            call()
        except ValueError as exc:
            assert "not prime" in str(exc)
        else:
            raise AssertionError("non-prime p accepted")
    # a p that is not an integer is an error, never rounded to a nearby prime
    for field in ({"padic": 3.9}, ("padic", 5.5), ("padic", 5.0), {"padic": "3.9"}, "padic:3.9", 3.0, "3", True):
        for call in (
            lambda: minimize_mu_hat(FAM, (1, 2), field=field, budget=3),
            lambda: independence_pipeline(FAM, (1, 2), field=field, budget=3),
        ):
            try:
                call()
            except ValueError as exc:
                assert "integer" in str(exc), exc
            else:
                raise AssertionError(f"field {field!r} accepted")
