"""Command-line contract: JSON config in, one deterministic JSON report on
stdout, CSV sidecars on request, and the 0/1/2 exit-code discipline (success /
validation error / certified-floor consistency failure)."""

import contextlib
import csv
import io
import json
import os
import tempfile
from fractions import Fraction

from oracles import box_member

from oscillabound import cli
from oscillabound.cayleylab import BoxSet
from oscillabound.polycore import parse_curve_family, parse_rational
from oscillabound.realosc import Window, certified_constant_real, mu_hat_real_with_error
from oscillabound.spectral import PipelineConsistencyError

FAMILY = [["0", "1"], ["0", "0", "1"]]

# (command, config, report) as the former padic-muhat and padic-certify
# commands printed them: p = 3 and 5, one lambda and several
PADIC_REPORTS = (
    (
        "muhat",
        {"family": FAMILY, "window": [1, 4], "field": {"padic": 3}, "lambda": ["1/9", "1/3"]},
        '{"lambda":["1/9","1/3"],"samples":[{"lambda":["1/9","1/3"],"value_float":0.07204668548901452}],'
        '"value_float":0.07204668548901452}',
    ),
    (
        "muhat",
        {"family": FAMILY, "window": [1, 4], "field": 3, "lambdas": [["3", "0"], ["1/27", "2/9"], ["0", "0"], ["-1/3", "5"]]},
        '{"samples":[{"lambda":["3","0"],"value":"1/8","value_float":0.125},'
        '{"lambda":["1/27","2/9"],"value_float":0.029747072273245787},'
        '{"lambda":["0","0"],"value":"1","value_float":1.0},'
        '{"lambda":["-1/3","5"],"value_float":-0.11746157759823855}]}',
    ),
    (
        "muhat",
        {"family": FAMILY, "window": [1, 3], "field": "padic:5", "lambda": ["1/5", "2"]},
        '{"lambda":["1/5","2"],"samples":[{"lambda":["1/5","2"],"value_float":0.060747385618450944}],'
        '"value_float":0.060747385618450944}',
    ),
    (
        "muhat",
        {"family": FAMILY, "window": [1, 3], "field": ["padic", 5], "lambdas": [["25", "0"], ["1/5", "2"], ["3", "1"]]},
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
        {"family": [["0", "0", "1"], ["0", "0", "0", "1"]], "window": [1, 3], "field": "padic:5"},
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
            tmp, "c.json", {"family": FAMILY, "window": [1, 2], "lambda": ["0", "0"]}
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


def test_padic_muhat_worked_value():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp,
            "c.json",
            {
                "family": FAMILY,
                "window": [1, 2],
                "field": {"padic": 3},
                "lambda": ["3", "0"],
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
            {"family": FAMILY, "window": [1, 2], "field": {"padic": 4}, "lambda": ["1", "0"]},
        )
        assert _run(["bogus", good])[0] == 1
        assert _run(["muhat", os.path.join(tmp, "missing.json")])[0] == 1
        assert _run(["muhat", bad_json])[0] == 1
        assert _run(["muhat", not_obj])[0] == 1
        code, _, payload = _run(["muhat", nonprime])
        assert code == 1 and "not prime" in payload["detail"]
        # muhat without any lambda entry
        assert _run(["muhat", good])[0] == 1


def test_muhat_enforces_the_transform_guards():
    # (x - 2, x^2 - 2x) has a0 = ln 2, so the window [0.1, 0.5] is invalid
    shifted = [["-2", "1"], ["0", "-2", "1"]]
    with tempfile.TemporaryDirectory() as tmp:
        below_a0 = _write_config(
            tmp, "a0.json", {"family": shifted, "window": [0.1, 0.5], "lambda": ["1", "1"]}
        )
        code, _, payload = _run(["muhat", below_a0])
        assert code == 1 and "a0" in payload["detail"]
        good = _write_config(
            tmp, "good.json", {"family": FAMILY, "window": [1, 2], "lambda": ["1", "1"]}
        )
        code, _, payload = _run(["muhat", good, "--tol", "5"])
        assert code == 1 and "tol" in payload["detail"]
        assert _run(["muhat", good, "--tol", "1e-6"])[0] == 0


def test_non_integer_p_is_rejected():
    # a non-integer p is rejected, not run at int(p)
    padic = {"family": FAMILY, "window": [1, 2], "field": {"padic": 3.9}, "lambda": ["3", "0"]}
    with tempfile.TemporaryDirectory() as tmp:
        bad_p = _write_config(tmp, "p39.json", padic)
        for command in ("minimize", "muhat", "certify"):
            code, _, payload = _run([command, bad_p, "--budget", "3"])
            assert code == 1 and "integer" in payload["detail"], payload


def test_padic_window_bounds_must_be_integers():
    with tempfile.TemporaryDirectory() as tmp:
        base = {"family": FAMILY, "field": {"padic": 3}, "lambda": ["3", "0"]}
        for window in ([1.9, 4.7], [1, 4.7], ["1.9", "4"], [True, 4]):
            path = _write_config(tmp, "w.json", dict(base, window=window))
            for command in ("muhat", "certify", "minimize", "pipeline"):
                code, _, payload = _run([command, path, "--budget", "3"])
                assert code == 1 and payload["error"] == "ValueError", (window, command, payload)
        path = _write_config(tmp, "w.json", dict(base, window=["1", 4.0]))
        assert _run(["certify", path])[2]["report"]["L"] == "16/3"  # the window [1, 4]


def test_window_must_be_a_list_of_two_bounds():
    # "16" is never unpacked into [1, 6], and a bool is never a bound
    real = {"family": FAMILY, "lambda": ["1", "1"]}
    padic = dict(real, field={"padic": 3})
    runs = (("muhat", real), ("pipeline", real), ("muhat", padic), ("pipeline", padic))
    with tempfile.TemporaryDirectory() as tmp:
        for window in ("16", [1, 2, 3], [1], {"a": 1, "T": 6}, [True, 2]):
            for command, base in runs:
                path = _write_config(tmp, "w.json", dict(base, window=window))
                code, _, payload = _run([command, path, "--budget", "3", "--tol", "1e-3"])
                assert code == 1 and payload["error"] == "ValueError", (window, command, payload)
                assert "two bounds" in payload["detail"] and repr(window) in payload["detail"], payload


def test_lambda_must_be_a_list_of_m_rationals():
    # "12" is never unpacked into the frequency (1, 2), nor into two samples,
    # and an empty list (or object) of lambdas is no report with no samples
    cases = (
        {"family": FAMILY, "window": [1, 2], "lambda": "12"},
        {"family": [["0", "1"]], "window": [1, 2], "lambdas": "12"},
        {"family": FAMILY, "window": [1, 2], "lambdas": []},
        {"family": FAMILY, "window": [1, 2], "lambdas": {}},
    )
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in cases:
            code, _, payload = _run(["muhat", _write_config(tmp, "l.json", cfg)])
            assert code == 1 and payload["error"] == "ValueError", (cfg, payload)


def test_json_booleans_are_not_rationals():
    # [[false, true], [0, 0, true]] is not (x, x^2), nor [true, false] the frequency (1, 0)
    cases = (
        ("certify", {"family": [[False, True], [0, 0, True]], "window": [1, 2]}),
        ("muhat", {"family": FAMILY, "window": [1, 2], "lambda": [True, False]}),
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
            path = _write_config(tmp, "w.json", {**cfg, "lambda": ["1"] * len(cfg["family"])})
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
        path = _write_config(tmp, "r.json", {"family": FAMILY, "window": [1, 2], "lambda": ["1/3", "-1/2"]})
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
        # the window is read as every command reads it: "16" is not [1, 6], nor [true, 2] [1, 2]
        for window in ("16", [True, 2], [1]):
            code, _, payload = _run(["config-search", _write_config(tmp, "c.json", dict(base, window=window))])
            assert code == 1 and "two bounds" in payload["detail"], (window, payload)
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
        cfg = {"family": FAMILY, "window": [1, 4], "field": 2}
        code, _, payload = _run(["minimize", _write_config(tmp, "c.json", cfg)])
        assert code == 0 and payload["report"]["evaluations"] == 19**2, payload


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
    assert rep["family"] == [["0", "0", "0", "1"], ["0", "1", "1"]]
    assert rep["independent"] is True
