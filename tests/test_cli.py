"""Command-line contract: JSON config in, one deterministic JSON report on
stdout, CSV sidecars on request, and the 0/1/2 exit-code discipline (success /
validation error / certified-floor consistency failure)."""

import contextlib
import csv
import io
import json
import os
import tempfile

from oscillabound import cli
from oscillabound.polycore import parse_curve_family, parse_rational
from oscillabound.realosc import Window, mu_hat_real_with_error
from oscillabound.spectral import PipelineConsistencyError

FAMILY = [["0", "1"], ["0", "0", "1"]]


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
        code, _, payload = _run(["padic-muhat", path])
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
        code, _, payload = _run(["padic-muhat", nonprime])
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


def test_real_only_commands_reject_a_padic_field():
    padic = {"family": FAMILY, "window": [1, 2], "field": {"padic": 3}, "lambda": ["3", "0"]}
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(tmp, "p3.json", padic)
        for command in ("muhat", "certify"):
            code, _, payload = _run([command, path])
            assert code == 1 and f"padic-{command}" in payload["detail"], payload
        # a non-integer p is rejected, not run at int(p)
        bad_p = _write_config(tmp, "p39.json", dict(padic, field={"padic": 3.9}))
        for command in ("minimize", "padic-muhat"):
            code, _, payload = _run([command, bad_p, "--budget", "3"])
            assert code == 1 and "integer" in payload["detail"], payload


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
        code, _, payload = _run(["padic-certify", path])
    assert code == 0
    rep = payload["report"]
    assert rep["B"] == 192 and rep["L"] == "16/3" and rep["floor"] == "-36"
    assert rep["reduced_degrees"] == [2, 1]


def test_config_search_command():
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp,
            "c.json",
            {
                "family": FAMILY,
                "window": [1, 2],
                "step": "1/4",
                "boxset": {
                    "boxes": [[["0", "3"], ["-1", "1"]]],
                    "period": ["9", "9"],
                },
            },
        )
        code, _, payload = _run(["config-search", path])
    assert code == 0
    rep = payload["report"]
    assert rep["found"] and rep["s"] == "3" and rep["residual"] == 0.0
    assert rep["x1"] == ["3", "9"] and rep["x2"] == ["0", "0"]


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
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp,
            "c.json",
            {"function": {"constant": 2, "cos": [[1, 1.0]]}, "n": 7, "edges": 5000},
        )
        code, _, payload = _run(["color-check", path, "--seed", "3"])
    assert code == 0
    rep = payload["report"]
    assert rep["violations"] == 0 and rep["n_min"] == 6 and rep["n"] == 7
    # a sub-threshold n is a validation error
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(
            tmp,
            "c.json",
            {"function": {"constant": 2, "cos": [[1, 1.0]]}, "n": 4, "edges": 100},
        )
        assert _run(["color-check", path])[0] == 1


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
