"""Command-line contract: JSON config in, one deterministic JSON report on
stdout, CSV sidecars on request, and the 0/1/2 exit-code discipline (success /
validation error / certified-floor consistency failure)."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import box_member

from oscillabound import cayleylab, cli
from oscillabound.cayleylab import BoxSet, coloring_threshold, periodic_coloring_verify, upper_density_estimate
from oscillabound.padic import ess_part
from oscillabound.polycore import (
    CurveFamily,
    RationalPoly,
    compute_a0_real,
    parse_curve_family,
    parse_rational,
)
from oscillabound.realosc import Window, certified_constant_real, mu_hat_real_with_error
from oscillabound.spectral import PipelineConsistencyError

FAMILY = [["0", "1"], ["0", "0", "1"]]

# (command, config, report) as the former padic-muhat and padic-certify
# commands printed them: p = 3 and 5, one lambda and several
PADIC_REPORTS = (
    (
        "muhat",
        {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}, "lambdas": [["1/9", "1/3"]]},
        '{"lambda":["1/9","1/3"],"samples":[{"lambda":["1/9","1/3"],"value_float":0.07204668548901452}],'
        '"value_float":0.07204668548901452}',
    ),
    (
        "muhat",
        {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}, "lambdas": [["3", "0"], ["1/27", "2/9"], ["0", "0"], ["-1/3", "5"]]},
        '{"samples":[{"lambda":["3","0"],"value":"1/8","value_float":0.125},'
        '{"lambda":["1/27","2/9"],"value_float":0.029747072273245787},'
        '{"lambda":["0","0"],"value":"1","value_float":1.0},'
        '{"lambda":["-1/3","5"],"value_float":-0.11746157759823855}]}',
    ),
    (
        "muhat",
        {"family": FAMILY, "window": [1, 3], "field": {"padic": 5}, "lambdas": [["1/5", "2"]]},
        '{"lambda":["1/5","2"],"samples":[{"lambda":["1/5","2"],"value_float":0.060747385618450944}],'
        '"value_float":0.060747385618450944}',
    ),
    (
        "muhat",
        {"family": FAMILY, "window": [1, 3], "field": {"padic": 5}, "lambdas": [["25", "0"], ["1/5", "2"], ["3", "1"]]},
        '{"samples":[{"lambda":["25","0"],"value":"7/12","value_float":0.5833333333333334},'
        '{"lambda":["1/5","2"],"value_float":0.060747385618450944},'
        '{"lambda":["3","1"],"value":"0","value_float":0.0}]}',
    ),
    (
        "certify",
        {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}},
        '{"B":192,"L":"16/3","floor":"-36","floor_float":-36.0,"reduced_degrees":[2,1],"row_transform":[["0","1"],["1","0"]]}',
    ),
    (
        "certify",
        {"family": [["0", "0", "1"], ["0", "0", "0", "1"]], "window": [1, 3], "field": {"padic": 5}},
        '{"B":2400,"L":"24/5","floor":"-500","floor_float":-500.0,"reduced_degrees":[3,2],'
        '"row_transform":[["0","1"],["1","0"]]}',
    ),
)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    raw = buf.getvalue()
    return code, raw, json.loads(raw)


def _write_config(tmp, name, cfg):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_muhat_zero_frequency():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp, "c.json", {"family": FAMILY, "window": [1, 2], "lambdas": [["0", "0"]]}
        )
        code, _, payload = _run(["muhat", path])
    assert code == 0
    assert payload["report"]["value"] == 1.0
    assert payload["config"]["family"] == FAMILY


def test_certify_rejects_dependent_family():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp, "c.json", {"family": [["1", "1"], ["2", "2"]], "window": [1, 2]}
        )
        code, _, payload = _run(["certify", path])
    assert code == 1
    assert "independence violation" in payload["detail"]


def test_every_command_rejects_a_dependent_family():
    # (x, 2x): 2 f_1 - f_2 = 0.  Each command exits 1 with CurveFamily's one
    # message, before any transform, search or scan runs
    message = "independence violation: 1, f_1, ..., f_m are linearly dependent"
    dependent = [["0", "1"], ["0", "2"]]
    base = {"family": dependent, "window": [1, 2]}
    configs = {
        "muhat": dict(base, lambdas=[["1", "-1/2"]]),
        "certify": base,
        "minimize": dict(base, budget=50),
        "pipeline": dict(base, budget=50),
        "clique": {"family": dependent, "points": [[0, 0], [1, 2], [2, 4]]},
        "config-search": dict(base, step="1/4", boxset={"boxes": [[["0", "1"], ["0", "1"]]]}),
        "reduce": {"components": [[[[1, 0], "1"]], [[[1, 0], "2"]]]},  # x and 2x in two variables
    }
    for command, cfg in configs.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, _, payload = _run([command, _write_config(tmp, "c.json", cfg)])
        assert (code, payload["error"], payload["detail"]) == (1, "ValueError", message), (command, payload)


def test_padic_muhat_worked_value():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp,
            "c.json",
            {
                "family": FAMILY,
                "window": [1, 2],
                "field": {"padic": 3},
                "lambdas": [["3", "0"]],
            },
        )
        code, _, payload = _run(["muhat", path])
    assert code == 0
    assert payload["report"]["value"] == "1/4"
    assert payload["report"]["value_float"] == 0.25


def test_validation_errors_exit_1():
    with tempfile.TemporaryDirectory() as tmp:
        good = _write_config(tmp, "good.json", {"family": FAMILY, "window": [1, 2]})
        bad_json = os.path.join(tmp, "bad.json")
        with open(bad_json, "w") as fh:
            fh.write("{not json")
        not_obj = _write_config(tmp, "arr.json", [1, 2, 3])
        nonprime = _write_config(
            tmp,
            "p4.json",
            {"family": FAMILY, "window": [1, 2], "field": {"padic": 4}, "lambdas": [["1", "0"]]},
        )
        assert _run(["bogus", good])[0] == 1
        assert _run(["muhat", os.path.join(tmp, "missing.json")])[0] == 1
        assert _run(["muhat", bad_json])[0] == 1
        assert _run(["muhat", not_obj])[0] == 1
        code, _, payload = _run(["muhat", nonprime])
        assert code == 1 and "not prime" in payload["detail"]
        # muhat without lambdas
        code, _, payload = _run(["muhat", good])
        assert code == 1 and "'lambdas'" in payload["detail"], payload


def test_muhat_reads_tol_in_both_fields():
    # over Q_p the value is exact, but a tol that would fail over R fails there too
    real = {"family": FAMILY, "window": [1, 4], "lambdas": [["1", "0"]]}
    padic = {**real, "field": {"padic": 3}, "lambdas": [["1/3", "0"]]}
    for cfg in (real, padic):
        _assert_rejected("muhat", {**cfg, "tol": "abc"}, "tol must be a number; got 'abc'")
        _assert_rejected("muhat", cfg, "tol must lie in (0, 1e-3]", "--tol=5")
        with tempfile.TemporaryDirectory() as tmp:
            assert _run(["muhat", _write_config(tmp, "c.json", {**cfg, "tol": "1e-6"})])[0] == 0


def test_muhat_enforces_the_transform_guards():
    # (x - 2, x^2 - 2x) has a0 = ln 2, so the window [0.1, 0.5] is invalid
    shifted = [["-2", "1"], ["0", "-2", "1"]]
    with tempfile.TemporaryDirectory() as tmp:
        below_a0 = _write_config(
            tmp, "a0.json", {"family": shifted, "window": [0.1, 0.5], "lambdas": [["1", "1"]]}
        )
        code, _, payload = _run(["muhat", below_a0])
        assert code == 1 and "a0" in payload["detail"]
        good = _write_config(
            tmp, "good.json", {"family": FAMILY, "window": [1, 2], "lambdas": [["1", "1"]]}
        )
        code, _, payload = _run(["muhat", good, "--tol", "5"])
        assert code == 1 and "tol" in payload["detail"]
        assert _run(["muhat", good, "--tol", "1e-6"])[0] == 0


def test_non_integer_p_is_rejected():
    # a non-integer p is rejected, not run at int(p)
    padic = {"family": FAMILY, "window": [1, 2], "field": {"padic": 3.9}, "lambdas": [["3", "0"]]}
    with tempfile.TemporaryDirectory() as tmp:
        bad_p = _write_config(tmp, "p39.json", padic)
        for command in ("minimize", "muhat", "certify"):
            code, _, payload = _run([command, bad_p, "--budget", "3"])
            assert code == 1 and "the field's p must be an integer" in payload["detail"], payload


def test_padic_window_bounds_must_be_integers():
    with tempfile.TemporaryDirectory() as tmp:
        base = {"family": FAMILY, "field": {"padic": 3}, "lambdas": [["3", "0"]]}
        for window in ([1.9, 4.7], [1, 4.7], ["1.9", "4"], [True, 4]):
            path = _write_config(tmp, "w.json", dict(base, window=window))
            for command in ("muhat", "certify", "minimize", "pipeline"):
                code, _, payload = _run([command, path, "--budget", "3"])
                assert code == 1 and payload["error"] == "ValueError", (window, command, payload)
        path = _write_config(tmp, "w.json", dict(base, window=["1", 4.0]))
        assert _run(["certify", path])[2]["report"]["L"] == "16/3"  # the window [1, 4]


def test_window_must_be_a_list_of_two_bounds():
    # "16" is never unpacked into [1, 6], and a bool is never a bound
    real = {"family": FAMILY, "lambdas": [["1", "1"]]}
    padic = dict(real, field={"padic": 3})
    runs = (("muhat", real), ("pipeline", real), ("muhat", padic), ("pipeline", padic))
    with tempfile.TemporaryDirectory() as tmp:
        for window in ("16", [1, 2, 3], [1], {"a": 1, "T": 6}, [True, 2]):
            for command, base in runs:
                path = _write_config(tmp, "w.json", dict(base, window=window))
                code, _, payload = _run([command, path, "--budget", "3", "--tol", "1e-3"])
                assert code == 1 and payload["error"] == "ValueError", (window, command, payload)
                assert "two bounds" in payload["detail"] and repr(window) in payload["detail"], payload


def test_real_window_bounds_are_finite_numbers():
    # "0.5" is read as "1/2" is; a bound that is no number or overflows a
    # float names the window instead of int()'s "invalid literal"
    base = {"family": FAMILY, "lambdas": [["1", "1"]]}
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for window in (["1/2", 2], ["0.5", 2], ["5e-1", "2"], [0.5, 2]):
            code, _, payload = _run(["muhat", _write_config(tmp, "w.json", dict(base, window=window))])
            assert code == 0, (window, payload)
            reports.append(payload["report"])
        assert all(r == reports[0] for r in reports), reports
        want = mu_hat_real_with_error(parse_curve_family(FAMILY), Window(0.5, 2.0), (1, 1), tol=1e-9)
        assert (reports[0]["value"], reports[0]["error"]) == want
        for window in ([1, "1e400"], ["abc", 2], [None, 2], ["1/0", 2], [1, "inf"]):
            path = _write_config(tmp, "w.json", dict(base, window=window))
            for command in ("muhat", "certify", "pipeline"):
                code, _, payload = _run([command, path, "--budget", "3", "--tol", "1e-3"])
                assert code == 1 and payload["error"] == "ValueError", (window, command, payload)
                assert payload["detail"] == f"the bounds of the window {window!r} must be finite numbers", payload


def test_lambda_must_be_a_list_of_m_rationals():
    # "12" is never unpacked into the frequency (1, 2), nor into two samples,
    # and an empty list (or object) of lambdas is no report with no samples;
    # frequencies go under "lambdas" alone, and a "lambda" is never ignored
    cases = (
        {"family": FAMILY, "window": [1, 2], "lambdas": ["12"]},
        {"family": [["0", "1"]], "window": [1, 2], "lambdas": "12"},
        {"family": FAMILY, "window": [1, 2], "lambdas": []},
        {"family": FAMILY, "window": [1, 2], "lambdas": {}},
        {"family": FAMILY, "window": [1, 2], "lambda": ["1", "1"]},
        {"family": FAMILY, "window": [1, 2], "lambda": ["1", "1"], "lambdas": [["1", "1"]]},
    )
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in cases:
            code, _, payload = _run(["muhat", _write_config(tmp, "l.json", cfg)])
            assert code == 1 and payload["error"] == "ValueError", (cfg, payload)


def test_json_booleans_are_not_rationals():
    # [[false, true], [0, 0, true]] is not (x, x^2), nor [true, false] the frequency (1, 0)
    cases = (
        ("certify", {"family": [[False, True], [0, 0, True]], "window": [1, 2]}),
        ("muhat", {"family": FAMILY, "window": [1, 2], "lambdas": [[True, False]]}),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for command, cfg in cases:
            code, _, payload = _run([command, _write_config(tmp, "b.json", cfg)])
            assert code == 1, (command, cfg, payload)


def test_certify_enforces_the_window_start():
    # (x-2, x^2-4) has a0 = ln 2; (x^2 + x/9) at p = 3 has essential part 2
    cases = (
        {"family": [["-2", "1"], ["-4", "0", "1"]], "window": [0.1, 3]},
        {"family": [["0", "1/9", "1"]], "window": [1, 4], "field": {"padic": 3}},
    )
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in cases:
            path = _write_config(tmp, "w.json", {**cfg, "lambdas": [["1"] * len(cfg["family"])]})
            for command in ("certify", "muhat"):
                code, _, payload = _run([command, path])
                assert code == 1 and "must exceed" in payload["detail"], (command, cfg, payload)


def test_reports_are_byte_identical_for_same_config_and_seed():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp, "c.json", {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}}
        )
        first = _run(["minimize", path, "--budget", "150", "--seed", "9"])
        second = _run(["minimize", path, "--budget", "150", "--seed", "9"])
        other_seed = _run(["minimize", path, "--budget", "150", "--seed", "10"])
    assert first[0] == 0
    assert first[1] == second[1]  # raw stdout bytes match
    assert other_seed[1] != first[1]  # seed is part of the resolved identity
    resolved = first[2]["config"]["_resolved"]
    assert resolved["seed"] == 9 and resolved["budget"] == 150


def test_muhat_and_certify_dispatch_on_the_field():
    with tempfile.TemporaryDirectory() as tmp:
        for command, cfg, report in PADIC_REPORTS:
            code, raw, _ = _run([command, _write_config(tmp, "c.json", cfg)])
            assert code == 0 and raw.endswith('"report":' + report + "}\n"), (command, cfg, raw)
        # a real config keeps its report: value and error, or C and the window's floor
        path = _write_config(tmp, "r.json", {"family": FAMILY, "window": [1, 2], "lambdas": [["1/3", "-1/2"]]})
        value, error = mu_hat_real_with_error(parse_curve_family(FAMILY), Window(1, 2), (Fraction(1, 3), Fraction(-1, 2)), tol=1e-9)
        sample = {"lambda": ["1/3", "-1/2"], "value": value, "error": error}
        assert _run(["muhat", path])[2]["report"] == {"samples": [sample], "value": value, "error": error}
        report = _run(["certify", path])[2]["report"]
        C = certified_constant_real(parse_curve_family(FAMILY)).C
        assert sorted(report) == ["C", "breakdown", "constants", "floor", "ratio_bound", "window"]
        assert (report["C"], report["window"], report["floor"]) == (C, [1.0, 2.0], -C)


def test_padic_commands_are_gone():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(tmp, "c.json", PADIC_REPORTS[0][1])
        for command in ("padic-muhat", "padic-certify"):
            code, _, payload = _run([command, path])
            assert code == 1 and payload["error"] == "usage", payload


def test_write_csv_roundtrip():
    fam = parse_curve_family(FAMILY)
    lams = [(0, 0), (Fraction(1, 100), 0), (Fraction(-1, 2), Fraction(1, 3))]
    profile = [(lam, *mu_hat_real_with_error(fam, Window(1, 2), lam, tol=1e-8)) for lam in lams]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.csv")
        cli._write_csv(path, fam.m, profile)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        # a p-adic muhat writes its samples through the same writer, with error 0
        out = os.path.join(tmp, "padic.csv")
        code, _, payload = _run(["muhat", _write_config(tmp, "c.json", PADIC_REPORTS[1][1]), "--csv", out])
        assert code == 0
        with open(out, newline="") as fh:
            padic_rows = list(csv.reader(fh))
    assert rows[0] == padic_rows[0] == ["lambda_1", "lambda_2", "value", "error"]
    assert len(rows) == 1 + len(lams)
    for row, (lam, want, err) in zip(rows[1:], profile):
        assert [float(row[0]), float(row[1])] == [float(lam[0]), float(lam[1])]
        assert (float(row[2]), float(row[3])) == (want, err)
        assert float(row[3]) >= 0.0
    samples = payload["report"]["samples"]
    assert len(padic_rows) == 1 + len(samples)
    for row, sample in zip(padic_rows[1:], samples):
        assert [float(cell) for cell in row[:2]] == [float(parse_rational(v)) for v in sample["lambda"]]
        assert (float(row[2]), row[3]) == (sample["value_float"], "0.0")


def test_csv_sidecar_schema():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "prof.csv")
        path = _write_config(
            tmp,
            "c.json",
            {
                "family": FAMILY,
                "window": [1, 2],
                "lambdas": [["0", "0"], ["1/100", "0"], ["-1/2", "1/3"]],
                "tol": 1e-6,
            },
        )
        code, _, payload = _run(["muhat", path, "--csv", out])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[0] == ["lambda_1", "lambda_2", "value", "error"]
    assert len(rows) == 4
    samples = payload["report"]["samples"]
    assert len(samples) == 3
    fam = parse_curve_family(FAMILY)
    for row, sample in zip(rows[1:], samples):
        assert all("," not in cell for cell in row)  # '.'-decimal floats
        lam = [parse_rational(v) for v in sample["lambda"]]
        assert [float(cell) for cell in row[:2]] == [float(v) for v in lam]
        # the sidecar carries the report's numbers bit for bit
        assert (float(row[2]), float(row[3])) == (sample["value"], sample["error"])
        assert (sample["value"], sample["error"]) == mu_hat_real_with_error(fam, Window(1, 2), lam, tol=1e-6)
        assert float(row[3]) >= 0.0
    assert float(rows[1][2]) == 1.0


def test_consistency_failure_exits_2():
    def blow_up(cfg, flags):
        raise PipelineConsistencyError("empirical minimum broke the floor", {"gap": -0.5})

    original = cli._COMMANDS["pipeline"]
    cli._COMMANDS["pipeline"] = blow_up
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_config(tmp, "c.json", {"family": FAMILY, "window": [1, 4]})
            code, _, payload = _run(["pipeline", path])
    finally:
        cli._COMMANDS["pipeline"] = original
    assert code == 2
    assert payload["error"] == "consistency failure"
    assert payload["diagnostics"] == {"gap": -0.5}


def test_pipeline_command_padic():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp, "c.json", {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}}
        )
        code, _, payload = _run(["pipeline", path, "--budget", "200", "--seed", "0"])
    assert code == 0
    rep = payload["report"]
    assert rep["certified_ratio_bound"] == 36.0
    assert rep["empirical_min"] >= -36.0
    assert rep["report"]["evaluations"] <= 200


def test_padic_certify_command():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp, "c.json", {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}}
        )
        code, _, payload = _run(["certify", path])
    assert code == 0
    rep = payload["report"]
    assert rep["B"] == 192 and rep["L"] == "16/3" and rep["floor"] == "-36"
    assert rep["reduced_degrees"] == [2, 1]


def test_config_search_command():
    base = {
        "family": FAMILY,
        "window": [1, 2],
        "step": "1/4",
        "boxset": {"boxes": [[["0", "3"], ["-1", "1"]]], "period": ["9", "9"]},
    }
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = _run(["config-search", _write_config(tmp, "c.json", base)])
        assert code == 0
        rep = payload["report"]
        assert rep["found"] and rep["s"] == "3" and rep["residual"] == 0.0
        assert rep["x1"] == ["3", "9"] and rep["x2"] == ["0", "0"]
        # the window is read as every command reads it: "16" is not [1, 6], nor [true, 2] [1, 2];
        # e^800 overflows a float, and [e, e^30] holds about 4e13 multiples of 1/4, none in [0, 1/2]^2
        unit = {"boxes": [[["0", "1/2"], ["0", "1/2"]]]}
        cases = (
            ({"window": "16"}, "two bounds"),
            ({"window": [True, 2]}, "two bounds"),
            ({"window": [1]}, "two bounds"),
            ({"window": [1, 800]}, "e^T overflows"),
            ({"window": [1, 30], "boxset": unit}, "the scan probes at most 100000"),
        )
        for change, detail in cases:
            code, _, payload = _run(["config-search", _write_config(tmp, "c.json", dict(base, **change))])
            assert code == 1 and detail in payload["detail"], (change, payload)
        code, _, payload = _run(["config-search", _write_config(tmp, "c.json", dict(base, field={"padic": 3}))])
        assert code == 1 and "real window" in payload["detail"], payload


def test_config_search_command_witness_is_in_the_set():
    # the band R x [-3, -1] repeats with period 9: (20/7, 400/49) is not in it
    boxset = {"boxes": [[["0", "1"], ["0", "1"]], [[None, None], ["-3", "-1"]]], "period": [None, "9"]}
    cfg = {"family": FAMILY, "window": [1, 2], "step": "1/7", "boxset": boxset}
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = _run(["config-search", _write_config(tmp, "c.json", cfg)])
    assert code == 0
    rep = payload["report"]
    assert rep["found"] and rep["residual"] == 0.0
    bs = BoxSet.from_json(boxset)
    s, x1, x2 = Fraction(rep["s"]), [Fraction(v) for v in rep["x1"]], [Fraction(v) for v in rep["x2"]]
    assert box_member(bs.boxes, bs.period, x1) and box_member(bs.boxes, bs.period, x2), rep
    assert [a - b for a, b in zip(x1, x2)] == [s, s * s]


def test_clique_command():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp,
            "c.json",
            {"family": FAMILY, "points": [[0, 0], [1, 1], [2, 4]], "tol": 1e-9},
        )
        code, _, payload = _run(["clique", path])
    assert code == 0
    assert payload["report"]["size"] == 2
    assert payload["report"]["clique"] == [[0.0, 0.0], [1.0, 1.0]]


def test_clique_leaves_out_a_point_that_is_not_finite():
    # the nan point was adjacent to both others, so this reported a 3-clique
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(tmp, "c.json", {"family": [["0", "1"]], "points": [[0], ["nan"], [1]]})
        code, _, payload = _run(["clique", path])
    assert code == 0
    assert payload["report"]["clique"] == [[0.0], [1.0]]


def test_color_check_command():
    base = {"function": {"constant": 2, "cos": [[1, 1.0]]}, "n": 7, "edges": 5000}
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = _run(["color-check", _write_config(tmp, "c.json", base), "--seed", "3"])
        assert code == 0
        rep = payload["report"]
        assert rep["violations"] == 0 and rep["n_min"] == 6 and rep["n"] == 7
        # a sub-threshold n is a validation error
        assert _run(["color-check", _write_config(tmp, "c.json", dict(base, n=4, edges=100))])[0] == 1
        # n and edges are integers: 7.9 is not run at n = 7, nor 500.6 with 500 edges
        for key, value in (("n", 7.9), ("edges", 500.6), ("n", True), ("edges", "5e2")):
            code, _, payload = _run(["color-check", _write_config(tmp, "c.json", dict(base, **{key: value}))])
            assert code == 1 and payload["error"] == "ValueError", (key, value, payload)
        for n, edges in ((7.0, "500"), ("7", 500.0)):
            code, _, payload = _run(["color-check", _write_config(tmp, "c.json", dict(base, n=n, edges=edges))])
            assert code == 0 and (payload["report"]["n"], payload["report"]["edges"]) == (7, 500), payload


def test_color_check_exits_2_when_its_edges_refute_the_admitted_coloring():
    """f = 1 + cos(2 pi 20000 t) samples as the constant 2, so the threshold
    admits n = 5, yet f vanishes at t = 1/40000 and sampled edges join
    points of one colour: the threshold is refuted, the exit-2 case."""
    cfg = {"function": {"constant": 1, "cos": [[20000, 1]]}, "edges": 20000}
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = _run(["color-check", _write_config(tmp, "c.json", cfg)])
    assert code == 2 and payload["error"] == "consistency failure", payload
    assert payload["diagnostics"] == {"n": 5, "n_min": 5, "edges": 20000, "violations": 510}


def test_color_check_samples_the_threshold_once(monkeypatch):
    # the command and periodic_coloring_verify each sampled f's threshold
    calls = []

    def counted(f):
        calls.append(f)
        return coloring_threshold(f)

    monkeypatch.setattr(cli, "coloring_threshold", counted)
    monkeypatch.setattr(cayleylab, "coloring_threshold", counted)
    cfg = {"function": {"constant": 2, "cos": [[1, 1]]}, "n": 7, "edges": 500}
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = _run(["color-check", _write_config(tmp, "c.json", cfg)])
    assert code == 0 and payload["report"]["violations"] == 0, payload
    assert len(calls) == 1, calls


def test_color_check_n_past_int64_names_the_largest_n():
    # exited 1 with "Python int too large to convert to C long"
    cfg = {"function": {"constant": 2, "cos": [[1, 1]]}, "n": 4_000_000_000, "edges": 1000}
    _assert_rejected("color-check", cfg, "n=4000000000 is too large: the colour classes mod n*n need n*n < 2**63, so n <= 3037000499")


def test_decimal_strings_read_as_their_fractions():
    # a frequency or coefficient "0.5" exited 1 with int()'s "invalid
    # literal", while the window bound "0.5" ran
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for lam in ("0.5", "1/2", "5e-1"):
            for row in ("0.5", "1/2"):
                cfg = {"family": [["0", row], ["0", "0", "1"]], "window": [1, 3], "lambdas": [[lam, "1"]]}
                code, _, payload = _run(["muhat", _write_config(tmp, "c.json", cfg)])
                assert code == 0, (lam, row, payload)
                reports[lam, row] = json.dumps(payload["report"], sort_keys=True)
        assert len(set(reports.values())) == 1, reports
        for bad in ("abc", "1/2/3", "inf", "1/0", "1e999999999"):
            cfg = {"family": FAMILY, "window": [1, 3], "lambdas": [[bad, "1"]]}
            _assert_rejected("muhat", cfg, f"cannot read the string {bad!r} as a rational")
            _assert_rejected("muhat", dict(cfg, family=[["0", bad], ["0", "0", "1"]]), repr(bad))


def test_seed_and_budget_must_be_integers():
    padic = {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}, "budget": 7}
    color = {"function": {"constant": 2, "cos": [[1, 1.0]]}, "n": 7, "edges": 500}
    cases = [("minimize", padic, "seed"), ("minimize", padic, "budget"), ("pipeline", padic, "seed"),
             ("pipeline", padic, "budget"), ("color-check", color, "seed")]
    with tempfile.TemporaryDirectory() as tmp:
        for command, base, key in cases:
            # 2.7 is not run as 2, nor 3.5 as 4 evaluations, nor true as 1
            for value in (2.7, 3.5, True):
                code, _, payload = _run([command, _write_config(tmp, "c.json", dict(base, **{key: value}))])
                assert code == 1 and payload["error"] == "ValueError", (command, key, value, payload)
                assert f"{key} must be an integer" in payload["detail"], payload
            reports = set()
            for value in (7, 7.0, "7"):
                code, _, payload = _run([command, _write_config(tmp, "c.json", dict(base, **{key: value}))])
                assert code == 0, (command, key, value, payload)
                reports.add(json.dumps(payload["report"], sort_keys=True))
            assert len(reports) == 1, (command, key)
        # a missing budget still means the default: the whole 2-adic lattice
        cfg = {"family": FAMILY, "window": [1, 4], "field": {"padic": 2}}
        code, _, payload = _run(["minimize", _write_config(tmp, "c.json", cfg)])
        assert code == 0 and payload["report"]["evaluations"] == 19**2, payload


def test_pipeline_reports_no_ratio_bound_without_a_negative_minimum():
    # (x^2) over Q_3 on [4, 6]: every value found is >= 0, and a ratio bound
    # of 0.0 would claim that the independence ratio is at most 0
    cfg = {"family": [["0", "0", "1"]], "window": [4, 6], "field": {"padic": 3}}
    with tempfile.TemporaryDirectory() as tmp:
        code, raw, payload = _run(["pipeline", _write_config(tmp, "c.json", cfg)])
    assert code == 0, payload
    rep = payload["report"]
    assert rep["empirical_min"] >= 0 and rep["empirical_ratio_bound"] is None, rep
    assert '"empirical_ratio_bound":null' in raw
    assert rep["certified_ratio_bound"] > 0 and rep["chromatic_lower_bound"] > 0


def _clique_config(**extra):
    return {"family": FAMILY, "points": [[0, 0], [1, 1], [2, 4]], **extra}


def _assert_rejected(command, cfg, message, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = _run([command, _write_config(tmp, "c.json", cfg), *flags])
    assert code == 1 and payload["error"] == "ValueError", (cfg, flags, payload)
    assert message in payload["detail"], payload


def test_clique_max_size_must_be_an_integer():
    # true is not a size-1 clique, nor 1.5 a cap of 1
    for value in (True, 1.5):
        _assert_rejected("clique", _clique_config(max_size=value), "max_size must be an integer")
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = _run(["clique", _write_config(tmp, "c.json", _clique_config(max_size="1"))])
    assert code == 0 and payload["report"]["size"] == 1, payload


def test_clique_tol_must_be_a_finite_positive_number():
    # a negative tol admits no edge (a size-1 clique); true is not 1.0; "abc"
    # and null used to fail in float(), naming no setting
    for value in (-1, 0, True, "nan", "inf", "abc", None, [1e-9]):
        _assert_rejected("clique", _clique_config(tol=value), "tol must be a finite positive number")
    for flag in ("-1", "0", "nan"):
        _assert_rejected("clique", _clique_config(), "tol must be a finite positive number", f"--tol={flag}")


def test_reduce_ell_must_be_an_integer():
    cfg = {"components": [[[[1, 1], "1"]], [[[1, 0], "1"], [[0, 1], "1"]]]}
    for value in (3.9, True):
        _assert_rejected("reduce", dict(cfg, ell=value), "ell must be an integer")


def test_color_check_harmonic_must_be_an_integer():
    # cos(2 pi 2.5 t) is not the k = 2 harmonic
    cfg = {"function": {"constant": 2, "cos": [[2.5, 0.1]]}, "n": 7, "edges": 500}
    _assert_rejected("color-check", cfg, "harmonic k must be an integer")
    cfg = {"function": {"constant": 2, "sin": [[True, 0.1]]}, "n": 7, "edges": 500}
    _assert_rejected("color-check", cfg, "harmonic k must be an integer")


def test_density_radii_must_be_finite_positive_numbers():
    boxset = {"boxes": [[["0", "1"], ["0", "1"]]]}
    cfg = {"family": FAMILY, "window": [1, 2], "step": "1/2", "boxset": boxset}
    # [true] is not the radius 1
    for radii in ([True], [2.0, "inf"], [-1.0]):
        _assert_rejected("config-search", dict(cfg, density_radii=radii), "density radius must be a finite positive")


def test_cayleylab_inputs_are_never_truncated_and_no_number_is_a_bool():
    # [[1.5, 0], "1"] is not x_1, a box set of dim 2.5 or true is not 2-dim,
    # and the point [true, true] is not (1.0, 1.0): each used to exit 0
    for exponent in (1.5, True):
        cfg = {"components": [[[[exponent, 0], "1"]], [[[0, 1], "1"]]]}
        _assert_rejected("reduce", cfg, "exponent must be an integer")
    for dim in (2.5, True):
        cfg = {"family": FAMILY, "window": [1, 2], "step": "1/2", "boxset": {"boxes": [], "dim": dim}}
        _assert_rejected("config-search", cfg, "dim must be an integer")
    _assert_rejected("clique", _clique_config(points=[[0, 0], [True, True]]), "point coordinate must be a number")


def test_clique_max_size_must_be_positive():
    # max_size 0 or -1 used to report the empty clique with exit 0
    for value in (0, -1, "0"):
        _assert_rejected("clique", _clique_config(max_size=value), "max_size must be at least 1")


def test_color_check_constant_and_amplitudes_are_not_bools():
    # {"constant": true, "cos": [[1, true]]} used to run as 1 + cos(2 pi t);
    # null and "abc" used to fail in float(), naming no setting
    for function, name in (
        ({"constant": True, "cos": [[1, 1.0]]}, "constant"),
        ({"constant": 2, "cos": [[1, True]]}, "an amplitude"),
        ({"constant": 2, "sin": [[1, True]]}, "an amplitude"),
        ({"constant": None}, "constant"),
        ({"constant": 2, "cos": [[1, None]]}, "an amplitude"),
        ({"constant": 2, "sin": [[1, "abc"]]}, "an amplitude"),
    ):
        _assert_rejected("color-check", {"function": function, "n": 7, "edges": 500}, f"{name} must be a number")


def test_color_check_sin_harmonics():
    # f = 2 + sin(2 pi t) / 2 + cos(4 pi t) / 4, against the library on the same f
    spec = {"constant": "2", "sin": [[1, 0.5]], "cos": [[2, 0.25]]}
    with tempfile.TemporaryDirectory() as tmp:
        code, _, payload = _run(["color-check", _write_config(tmp, "c.json", {"function": spec, "edges": 2000})])
    assert code == 0, payload

    def f(t):
        t = np.asarray(t, dtype=float)
        return 2.0 + 0.5 * np.sin(2 * np.pi * t) + 0.25 * np.cos(4 * np.pi * t)

    n_min, M, eps, delta = coloring_threshold(f)
    rep = payload["report"]
    assert (rep["n_min"], rep["M"], rep["eps"], rep["delta"]) == (n_min, M, eps, delta)
    assert rep["n"] == n_min and rep["violations"] == periodic_coloring_verify(f, n_min, 2000) == 0


def test_minimize_and_pipeline_csv_pin_the_trace():
    # one row per trace entry; the error column is the tolerance over R and
    # 0.0 over Q_p, as muhat writes it
    padic = {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}, "budget": 10}
    real = {"family": FAMILY, "window": [1, 2], "tol": 1e-3, "budget": 6}
    header = "lambda_1,lambda_2,value,error\r\n"
    want = {
        "padic": header + "0.0,0.0,1.0,0.0\r\n0.0,0.0013717421124828531,0.0,0.0\r\n",
        "real": header
        + "0.5817091329374358,-225393.39047347935,3.7333370549972054e-08,0.001\r\n"
        + "1.9684194472866112,-3.3838551534273156e-06,-0.027375341062169826,0.001\r\n",
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "trace.csv")
        for command in ("minimize", "pipeline"):
            for field, cfg in (("padic", padic), ("real", real)):
                code, _, payload = _run([command, _write_config(tmp, "c.json", cfg), "--csv", out])
                assert code == 0, payload
                with open(out, newline="") as fh:
                    assert fh.read() == want[field], (command, field)
                report = payload["report"] if command == "minimize" else payload["report"]["report"]
                assert len(report["trace"]) == 2


def test_config_search_density_report():
    boxset = {"boxes": [[["0", "1"], ["0", "1"]]]}
    cfg = {"family": FAMILY, "window": [1, 2], "step": "1/2", "density_radii": [1, "2"]}
    want = [
        {k: float(v) for k, v in dataclasses.asdict(d).items()}
        for d in upper_density_estimate(BoxSet.from_json(boxset), [1.0, 2.0])
    ]
    with tempfile.TemporaryDirectory() as tmp:
        code, _, inline = _run(["config-search", _write_config(tmp, "c.json", dict(cfg, boxset=boxset))])
        # the box set is inline: a file named by "boxset_path" is never read, nor ignored
        path = dict(cfg, boxset_path=_write_config(tmp, "boxes.json", boxset))
        for bad in (cfg, path, dict(path, boxset=boxset)):
            _assert_rejected("config-search", bad, "box set from 'boxset'")
    assert code == 0, inline
    rep = inline["report"]
    assert rep["found"] is False and rep["density"] == want
    assert 0 < want[0]["value"] < 1 and want[1]["value"] < want[0]["value"]


def test_reduce_command():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp,
            "c.json",
            {"components": [[[[1, 1], "1"]], [[[1, 0], "1"], [[0, 1], "1"]]], "ell": 2},
        )
        code, _, payload = _run(["reduce", path])
    assert code == 0
    rep = payload["report"]
    # no "independent" key: multivariate_reduce raises on a dependent family
    assert rep == {"family": [["0", "0", "0", "1"], ["0", "1", "1"]], "degrees": [3, 2]}


_COEFF = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_LEAD = st.builds(Fraction, st.integers(1, 5), st.integers(1, 4)).flatmap(lambda c: st.sampled_from((c, -c)))


@st.composite
def _certificate_configs(draw):
    """A config for an independent family of 1-3 components of degree <= 3,
    over R or over Q_p for a prime p <= 13, on a window that starts above
    a0 (R) or above the essential part (Q_p)."""
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 3))
        poly = RationalPoly(draw(st.lists(_COEFF, min_size=deg, max_size=deg)) + [draw(_LEAD)])
        try:
            CurveFamily(polys + [poly])
        except ValueError:
            continue
        polys.append(poly)
    cfg = {"family": [[str(c) for c in f.coeffs] for f in polys]}
    p = draw(st.one_of(st.none(), st.sampled_from((2, 3, 5, 7, 11, 13))))
    if p is None:
        a = math.floor(4 * compute_a0_real(CurveFamily(polys)) + 1) / 4 + draw(st.sampled_from((0, 0.5, 1, 2.75)))
        return dict(cfg, window=[a, a + draw(st.sampled_from((0.5, 1, 1.75, 3, 5)))])
    a = max(ess_part(f, p) for f in polys) + draw(st.integers(1, 4))
    return dict(cfg, window=[a, a + draw(st.integers(1, 9))], field={"padic": p})


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_certificate_configs())
@example({"family": FAMILY, "window": [1, 7], "field": {"padic": 2}})
def test_pipeline_and_certify_report_one_certificate(cfg):
    # the pipeline's C/(T-a) is certify's ratio bound over R and -floor_float
    # over Q_p, to the bit; over Q_2 on [1, 7] both are 96/7 rounded once,
    # 13.714285714285714, where a float B*(T-a)/L divided by T-a gave ...715
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(tmp, "c.json", cfg)
        certify_code, _, certified = _run(["certify", path])
        pipeline_code, _, piped = _run(["pipeline", path, "--budget", "1"])
    assert (certify_code, pipeline_code) == (0, 0), (certified, piped)
    cert, pipe = certified["report"], piped["report"]
    want = cert["ratio_bound"] if "field" not in cfg else -cert["floor_float"]
    assert pipe["certified_ratio_bound"].hex() == want.hex(), (cfg, cert, pipe)
    if "field" in cfg:  # B/L and L/B, each rounded once from the exact value
        ratio = -Fraction(cert["floor"])
        assert (pipe["certified_ratio_bound"], pipe["chromatic_lower_bound"]) == (float(ratio), float(1 / ratio))


def test_non_finite_integers_name_the_setting():
    # JSON Infinity and NaN used to escape as an OverflowError or a message
    # about integer ratios that named no setting
    padic = {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}, "budget": 7}
    color = {"function": {"constant": 2, "cos": [[1, 1.0]]}, "n": 7, "edges": 500}
    cases = [("pipeline", padic, "seed"), ("minimize", padic, "budget"), ("color-check", color, "edges")]
    for command, base, key in cases:
        for value in (math.inf, -math.inf, math.nan):
            _assert_rejected(command, dict(base, **{key: value}), f"{key} must be an integer; got {value!r}")


def test_unreadable_integers_name_the_setting():
    # a string or null used to report "invalid literal for int()" or a
    # TypeError about rationals, naming no setting
    padic = {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}, "budget": 7}
    for value in ("abc", None, "1/0", [7]):
        _assert_rejected("pipeline", dict(padic, seed=value), f"seed must be an integer; got {value!r}")


def test_too_deep_a_descent_is_one_json_error():
    # the descent's depth guard used to raise RecursionError, which left
    # main as a traceback with no JSON; a quadratic phase closes without a
    # descent, so the cubic x^3 at 5^-1300 (about 433 levels) trips it
    cfg = {"family": [["0", "0", "0", "1"]], "window": [1, 4], "field": {"padic": 5}, "lambdas": [[f"1/{5**1300}"]]}
    with tempfile.TemporaryDirectory() as tmp:
        code, raw, payload = _run(["muhat", _write_config(tmp, "c.json", cfg)])
    assert code == 1 and raw.count("\n") == 1 and payload["error"] == "ValueError", raw
    assert payload["detail"].startswith("p-adic descent deeper than 400 levels"), payload


def test_field_is_real_or_a_padic_object():
    base = {"family": FAMILY, "window": [1, 3], "lambdas": [["1/5", "2"]]}
    fields = ("R", None, 5, "5", ["padic", 5], "padic:5", "padic:-3", "padicpadic3", "padic: 3", "padic:",
              {"p": 5}, {"padic": 5, "p": 5}, {}, "Real")
    for field in fields:
        _assert_rejected("muhat", dict(base, field=field), "field must be 'real' or {'padic': p}")
    for p in (3.9, True, None, "abc"):
        _assert_rejected("muhat", dict(base, field={"padic": p}), f"the field's p must be an integer; got {p!r}")
    with tempfile.TemporaryDirectory() as tmp:
        # p is read as every integer setting is: 5, 5.0 and "5" are one prime
        for p in (5, 5.0, "5"):
            code, _, payload = _run(["muhat", _write_config(tmp, "c.json", dict(base, field={"padic": p}))])
            assert code == 0 and payload["report"]["value_float"] == 0.060747385618450944, payload
        code, _, payload = _run(["muhat", _write_config(tmp, "c.json", base)])
        assert code == 0 and "error" in payload["report"], payload  # no field is the real field


def test_color_check_needs_at_least_one_edge():
    # zero edges used to report "violations": 0, a proper coloring by default
    base = {"function": {"constant": 2, "cos": [[1, 1]]}}
    for edges in (0, -5):
        _assert_rejected("color-check", dict(base, edges=edges), "edge_samples must be at least 1")


def test_digit_strings_are_never_vectors():
    # each config exited 0 with the answer for another input: "01" was the row
    # (0, 1), the side "03" the interval [0, 3], the point "11" (1, 1), the
    # exponents "10" (1, 0) and the cos term "11" the harmonic 1 at amplitude 1
    polynomial = "a polynomial must be a list of rational coefficients, ascending; got '01'"
    family = {"family": ["01", "001"], "window": [1, 2], "lambdas": [["1", "1"]]}
    box = {"boxes": [["03", [-1, 1]]], "period": ["9", "9"]}
    cases = [
        *[(command, family, polynomial) for command in ("muhat", "certify", "pipeline")],
        (
            "config-search",
            {"family": FAMILY, "window": [1, 2], "step": "1/4", "boxset": box},
            "a side of a box must be a pair (lo, hi); got '03'",
        ),
        ("clique", {"family": FAMILY, "points": ["00", "11"]}, "a point must be a list of numbers; got '00'"),
        ("reduce", {"components": [[["10", "1"]], [["01", "1"]]]}, "exponents must be a list of integers; got '10'"),
        (
            "color-check",
            {"function": {"constant": 2, "cos": ["11"]}, "n": 7, "edges": 500},
            "a term must be a pair [k, amplitude]; got '11'",
        ),
    ]
    for command, cfg, message in cases:
        _assert_rejected(command, cfg, message, "--budget", "3")
