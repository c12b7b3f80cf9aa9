"""Acceptance suite: thirteen end-to-end checks, one test per criterion, each
with its tolerance and wall-clock budget asserted.  Run with -v for a
pass/fail line per criterion."""

import contextlib
import io
import json
import math
import os
import random
import tempfile
import time
from fractions import Fraction

import numpy as np

from oracles import brute_force_sphere_sum

from oscillabound import cli
from oscillabound.cayleylab import (
    BoxSet,
    CliqueInstance,
    clique_search,
    config_search,
    curve_difference_oracle,
    periodic_coloring_verify,
)
from oscillabound.padic import PadicWindow, mu_hat_padic, sphere_character_sum, vp
from oscillabound.polycore import (
    RationalPoly,
    parse_curve_family,
    vandermonde_interpolation,
)
from oscillabound.realosc import (
    Window,
    certified_constant_real,
    merge_intervals,
    mu_hat_real,
    osc_integral,
    superlevel_decompose,
    vdc_bound,
    witness_intervals,
)
from oscillabound.spectral import (
    PipelineConsistencyError,
    hoffman_chromatic_bound,
    hoffman_ratio_bound,
    independence_pipeline,
    minimize_mu_hat,
    operator_ratio_bound,
)

FAM_XX2 = parse_curve_family([["0", "1"], ["0", "0", "1"]])
FAM_XX3 = parse_curve_family([["0", "1"], ["0", "0", "0", "1"]])
FAM_X2X3X5 = parse_curve_family(
    [["0", "0", "1"], ["0", "0", "0", "1"], ["0", "0", "0", "0", "0", "1"]]
)


def _finish(num, label, t0, limit, detail=""):
    dt = time.monotonic() - t0
    assert dt < limit, f"criterion {num} overran its budget: {dt:.1f}s >= {limit}s"
    print(f"[PASS] criterion {num:2d} {label}: {detail} ({dt:.1f}s < {limit:g}s)")


def test_criterion_01_normalization():
    t0 = time.monotonic()
    rng = random.Random(101)
    fams = [FAM_XX2, FAM_XX3, FAM_X2X3X5]
    while len(fams) < 10:
        d1 = rng.randint(1, 3)
        d2 = rng.randint(d1 + 1, d1 + 3)
        fams.append(parse_curve_family([["0"] * d1 + ["1"], ["0"] * d2 + ["1"]]))
    for fam in fams:
        zero = (0,) * fam.m
        real_val = mu_hat_real(fam, Window(1, 2), zero)
        assert abs(real_val - 1.0) <= 1e-12
        padic_val = mu_hat_padic(fam, PadicWindow(1, 3, rng.choice((2, 3, 5))), zero)
        assert padic_val == 1  # exact rational arithmetic end to end
    _finish(1, "normalization", t0, 1.0, "mu_hat(0) = 1 for 10 families, both fields")


def test_criterion_02_padic_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0

    def _unit_times_power(rng, p):
        unit = rng.choice((-1, 1)) * (rng.randint(1, p - 1) + p * rng.randint(0, p - 1))
        return Fraction(unit) * Fraction(p) ** rng.randint(-2, 2)

    for p in (2, 3, 5):
        rng = random.Random(200 + p)
        done = 0
        while done < 100:
            deg = rng.randint(1, 3)
            r = rng.randint(-1, 3)
            coeffs = [
                Fraction(0) if rng.random() < 0.2 else _unit_times_power(rng, p)
                for _ in range(deg)
            ]
            coeffs.append(_unit_times_power(rng, p))
            lam = _unit_times_power(rng, p)
            f = RationalPoly(coeffs)
            phase = {j: lam * c for j, c in enumerate(f.coeffs) if c != 0 and j > 0}
            phase[0] = lam * f.coeffs[0]
            K = r + f.degree + 3
            depth = max(
                max(0, r * j - vp(c, p)) for j, c in phase.items() if c != 0
            )
            # keep the exhaustive residue enumeration on the fast fixed-width
            # integer path; the small primes reach every depth the coefficient
            # box allows, so nothing in the box goes untested overall
            if p ** max(K, depth) > 2**20:
                continue
            got = sphere_character_sum(f, lam, r, p)
            want = brute_force_sphere_sum(phase, p, r, K)
            assert abs(got - want) <= 1e-9, (p, coeffs, lam, r, got, want)
            done += 1
            checked += 1
    _finish(2, "p-adic oracle equivalence", t0, 60.0, f"{checked} random sphere sums match to 1e-9")


def test_criterion_03_worked_padic_value():
    t0 = time.monotonic()
    val = mu_hat_padic(FAM_XX2, PadicWindow(1, 2, 3), (Fraction(3), Fraction(0)))
    assert val == Fraction(1, 4)
    _finish(3, "worked p-adic value", t0, 1.0, "exactly 1/4")


def test_criterion_04_certified_padic_floor():
    t0 = time.monotonic()
    rep = minimize_mu_hat(FAM_XX2, PadicWindow(1, 4, 3), seed=0)
    assert not rep.partial  # the whole valuation/unit lattice was enumerated
    assert rep.best_value >= -36.0
    _finish(
        4,
        "certified p-adic floor",
        t0,
        300.0,
        f"exhaustive lattice minimum {rep.best_value:.4f} >= -36",
    )


def test_criterion_05_vdc_validation():
    t0 = time.monotonic()
    rng = random.Random(500)
    window = Window(0.0, 2.0)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        terms = {j: Fraction(rng.randint(-4, 4)) for j in range(1, n + 1)}
        phi = RationalPoly([0] + [terms[j] for j in range(1, n + 1)])
        if phi.degree < 1:
            continue
        k = rng.randint(1, phi.degree)
        der_terms = {j: float(c) * j**k for j, c in enumerate(phi.coeffs) if c != 0}
        ts = np.linspace(window.a, window.T, 64)
        peak = max(abs(sum(c * math.exp(j * t) for j, c in der_terms.items())) for t in ts)
        if peak == 0:
            continue
        eta = Fraction(round(rng.uniform(0.1, 0.4) * peak * 64), 64)
        if eta <= 0:
            continue
        dec = witness_intervals(phi, k, eta, window)
        assert dec.spot_check(phi)
        bound = vdc_bound(k, math.tau * float(eta)) + 1e-6
        for iv in dec.intervals:
            val, err = osc_integral(phi, iv.lo, iv.hi, 1e-10)
            assert abs(val) + err <= bound, (phi, k, eta, iv)
            checked += 1
    _finish(5, "van der Corput validation", t0, 60.0, f"{checked} witness intervals within bound")


def test_criterion_06_certified_real_floor():
    t0 = time.monotonic()
    rng = random.Random(600)
    windows = (Window(1, 2), Window(1, 6), Window(1, 26))
    total = 0
    for fam in (FAM_XX2, FAM_XX3, FAM_X2X3X5):
        c_val = certified_constant_real(fam).C
        for i in range(10_000):
            lam = []
            for _ in range(fam.m):
                if rng.random() < 0.15:
                    lam.append(0.0)
                else:
                    lam.append(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 6))
            if all(v == 0 for v in lam):
                lam[rng.randrange(fam.m)] = 1.0
            w = windows[i % 3]
            val = mu_hat_real(fam, w, tuple(lam), tol=1e-3)
            floor = -c_val / w.length - 1e-6
            assert val >= floor, (fam, lam, w, val, floor)
            total += 1
    _finish(6, "certified real floor", t0, 600.0, f"{total} evaluations, zero violations")


def test_criterion_07_interpolation_identities():
    t0 = time.monotonic()
    for n in range(1, 13):
        alpha = vandermonde_interpolation([1] * n, n)
        for j in range(1, n + 1):
            assert sum(c * j**k for k, c in enumerate(alpha, start=1)) == 1
        for ell in range(1, n + 1):
            target = [Fraction(1 if j == ell else 0) for j in range(1, n + 1)]
            beta = vandermonde_interpolation(target, n)
            for j in range(1, n + 1):
                got = sum(c * j**k for k, c in enumerate(beta, start=1))
                assert got == (1 if j == ell else 0)
    # reconstruction: with Phi(t) = sum_j lam_j e^{jt}, the all-ones solution
    # rebuilds Phi from its derivatives and the delta solutions extract the
    # single components
    rng = random.Random(700)
    for _ in range(100):
        n = rng.randint(2, 6)
        lam = [Fraction(rng.randint(-24, 24), 8) for _ in range(n)]
        t = rng.uniform(-1.0, 0.4)
        derivs = [
            sum(float(c) * j**k * math.exp(j * t) for j, c in enumerate(lam, start=1))
            for k in range(1, n + 1)
        ]
        alpha = vandermonde_interpolation([1] * n, n)
        phi_t = sum(float(c) * math.exp(j * t) for j, c in enumerate(lam, start=1))
        rebuilt = sum(float(a) * d for a, d in zip(alpha, derivs))
        assert abs(rebuilt - phi_t) <= 1e-8
        ell = rng.randint(1, n)
        target = [Fraction(1 if j == ell else 0) for j in range(1, n + 1)]
        beta = vandermonde_interpolation(target, n)
        component = float(lam[ell - 1]) * math.exp(ell * t)
        extracted = sum(float(b) * d for b, d in zip(beta, derivs))
        assert abs(extracted - component) <= 1e-8
    _finish(7, "interpolation identities", t0, 10.0, "exact n <= 12; 100 reconstructions <= 1e-8")


def test_criterion_08_decomposition_caps():
    t0 = time.monotonic()
    rng = random.Random(800)
    for _ in range(100):
        n = rng.randint(1, 4)
        terms = {j: Fraction(rng.randint(-5, 5)) for j in range(n + 1)}
        terms[n] = Fraction(rng.choice([x for x in range(-5, 6) if x]))
        phi = RationalPoly([terms[j] for j in range(n + 1)])
        level = Fraction(rng.randint(1, 16), 4)
        dec = superlevel_decompose(phi, level, Window(0.0, 2.0))
        assert len(dec) <= 3 * max(phi.degree, 1)
        assert dec.spot_check(phi)
    for _ in range(100):
        nsets = rng.randint(1, 4)
        sets = []
        for _ in range(nsets):
            cuts = sorted(rng.uniform(0, 10) for _ in range(2 * rng.randint(1, 4)))
            sets.append([(cuts[2 * i], cuts[2 * i + 1]) for i in range(len(cuts) // 2)])
        merged = merge_intervals(sets)
        n = max(nsets, max(len(s) for s in sets))
        assert len(merged) <= 2 * n**4
    _finish(8, "decomposition caps", t0, 10.0, "3n and 2n^4 caps hold on 100 instances each")


def test_criterion_09_spectral_formulas():
    t0 = time.monotonic()
    assert hoffman_ratio_bound(Fraction(-1, 3)) == Fraction(1, 4)
    assert operator_ratio_bound(Fraction(-1, 3), 1, 0) == Fraction(1, 4)
    assert hoffman_chromatic_bound(Fraction(-1, 3), 1) == 4
    for fn, args in (
        (hoffman_ratio_bound, (0,)),
        (hoffman_ratio_bound, (Fraction(1, 2),)),
        (operator_ratio_bound, (Fraction(-1, 4), Fraction(1, 4), 1)),
        (hoffman_chromatic_bound, (0, 1)),
        (hoffman_chromatic_bound, (Fraction(-1, 2), 0)),
    ):
        try:
            fn(*args)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{fn.__name__}{args} did not raise")
    _finish(9, "spectral formulas", t0, 1.0, "exact values and guards")


def test_criterion_10_pipeline_consistency():
    t0 = time.monotonic()
    runs = []
    try:
        runs.append(
            independence_pipeline(
                FAM_XX2, PadicWindow(1, 4, 3), seed=0
            )
        )
        runs.append(
            independence_pipeline(
                FAM_XX2, Window(1, 6), budget=1200, seed=0, tol=1e-3
            )
        )
        runs.append(
            independence_pipeline(
                FAM_XX3, Window(1, 2), budget=600, seed=1, tol=1e-3
            )
        )
    except PipelineConsistencyError as exc:
        raise AssertionError(f"certified floor violated: {exc}")
    for res in runs:
        assert res.empirical_min >= -res.certified_ratio_bound - 1e-6
    # the CLI path must agree: exit code 0, never the consistency alarm 2
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "family": [["0", "1"], ["0", "0", "1"]],
                    "window": [1, 4],
                    "field": {"padic": 3},
                },
                fh,
            )
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["pipeline", path, "--budget", "400", "--seed", "0"])
    assert code == 0
    _finish(10, "pipeline consistency", t0, 600.0, f"{len(runs)} pipelines + CLI, no alarms")


def test_criterion_11_parabola_triangle_freeness():
    t0 = time.monotonic()
    oracle = curve_difference_oracle(FAM_XX2)
    rng = random.Random(1100)
    for _ in range(500):
        pts = [(s, s * s) for s in (rng.uniform(-10, 10) for _ in range(50))]
        found = clique_search(CliqueInstance(pts, oracle), max_size=3)
        # a triangle would force (s+r)^2 = s^2 + r^2, i.e. sr = 0 (degenerate)
        assert len(found) <= 2, (found,)
    _finish(11, "parabola triangle-freeness", t0, 30.0, "500 samples of 50 points, no size-3 clique")


def test_criterion_12_coloring_properness():
    t0 = time.monotonic()
    f = lambda t: 2 + np.cos(2 * np.pi * np.asarray(t))
    violations = periodic_coloring_verify(f, 7, 100_000, seed=12)
    assert violations == 0
    _finish(12, "coloring properness", t0, 30.0, "0 violations over 100000 edges at n = 7")


def test_criterion_13_configuration_demo():
    t0 = time.monotonic()
    stripes = BoxSet([[("0", "3"), ("-1", "1")]], period=("9", "9"))
    res = config_search(FAM_XX2, (1.0, 2.0), stripes, "1/4")
    assert res.found
    assert res.residual <= 1e-9
    assert stripes.contains(res.x1) and stripes.contains(res.x2)
    diff = tuple(a - b for a, b in zip(res.x1, res.x2))
    assert diff == (res.s, res.s**2)
    _finish(13, "configuration demo", t0, 60.0, f"witness s = {res.s}, residual {res.residual}")
