"""Command-line front door: one subcommand per library capability, JSON
config in, a single deterministic JSON report on stdout, optional CSV
sidecar of transform samples.  A command that works over both fields
(muhat, certify, minimize, pipeline) reads the field from the config.

Exit codes: 0 success, 1 validation or configuration error, 2 internal
consistency failure, the regression alarm: the empirical minimum broke a
certified floor, or color-check found a monochromatic edge at an n its
threshold admits (its diagnostics give n, n_min, edges and violations).
Identical config and seed produce byte-identical reports.
"""

import argparse
import csv
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .cayleylab import (
    BoxSet,
    CliqueInstance,
    clique_search,
    coloring_threshold,
    config_search,
    curve_difference_oracle,
    multivariate_reduce,
    periodic_coloring_verify,
    upper_density_estimate,
)
from .padic import PadicWindow, mu_hat_padic
from .polycore import parse_curve_family, parse_float, parse_integer, parse_rational
from .realosc import QuadratureError, Window, certified_constant_real, mu_hat_real_with_error, parse_tol
from .spectral import PipelineConsistencyError, certificate, independence_pipeline, minimize_mu_hat

_COMMANDS = {}


def _command(name):
    def register(fn):
        _COMMANDS[name] = fn
        return fn

    return register


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and (math.isinf(x) or math.isnan(x)):
        return str(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(x).items()}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _field_prime(cfg):
    """None for the real field ('real' or no field), else the p of
    {'padic': p}, read by parse_integer; PadicWindow checks that p is prime."""
    field = cfg.get("field", "real")
    if field == "real":
        return None
    if not isinstance(field, dict) or list(field) != ["padic"]:
        raise ValueError(f"field must be 'real' or {{'padic': p}}; got {field!r}")
    return parse_integer(field["padic"], "the field's p")


def _window_of(cfg):
    """The Window, or for a p-adic field the PadicWindow, of the config.

    The window must be a list of exactly two bounds [a, T] (see _row_of).
    A real bound is a number or a string that Fraction reads ("1/2", "0.5"
    and "5e-1" alike), and must be finite as a float; anything else raises
    a ValueError naming the window.  A p-adic bound must be integral once
    parsed ("1", 1.0 and Fraction(1) all mean 1); 1.9 raises instead of
    being truncated.
    """
    p = _field_prime(cfg)
    window = _row_of(cfg["window"], 2, "window must be a list of two bounds [a, T]")
    if p is None:
        try:
            a, T = (float(Fraction(v)) for v in window)
        except (TypeError, ValueError, ArithmeticError):  # None, "abc", nan; inf and "1e400" overflow
            raise ValueError(f"the bounds of the window {window!r} must be finite numbers") from None
        return Window(a, T)
    a, T = (parse_integer(v, "a p-adic window bound") for v in window)
    return PadicWindow(a, T, p)


def _setting(cfg, flags, name, default):
    """The --name flag, else the config's name, else default, as it stands:
    the library call that uses it reads it."""
    flag = getattr(flags, name)
    return flag if flag is not None else cfg.get(name, default)


def _row_of(value, size, message):
    """value if it is a list of exactly size entries, none of them a bool,
    else ValueError(message + the value's repr).  A string such as "16" is
    never unpacked into its characters."""
    if not isinstance(value, (list, tuple)) or len(value) != size or any(isinstance(v, bool) for v in value):
        raise ValueError(f"{message}; got {value!r}")
    return value


def _lambdas_of(cfg, m):
    rows = cfg.get("lambdas")
    if "lambda" in cfg or not isinstance(rows, list) or not rows:
        raise ValueError(f"frequencies go under 'lambdas', a non-empty list of them; got {rows!r}")
    message = f"each lambda must be a list of {m} rationals, one per family component"
    return [tuple(parse_rational(v) for v in _row_of(row, m, message)) for row in rows]


def _write_csv(path, m, rows):
    """Schema: lambda_1..lambda_m, value, error; '.'-decimal floats."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"lambda_{i + 1}" for i in range(m)] + ["value", "error"])
        for lam, value, error in rows:
            w.writerow([repr(float(v)) for v in lam] + [repr(float(value)), repr(float(error))])


@_command("muhat")
def _cmd_muhat(cfg, flags):
    w = _window_of(cfg)
    fam = parse_curve_family(cfg["family"])
    lams = _lambdas_of(cfg, fam.m)
    tol = _setting(cfg, flags, "tol", 1e-9)
    if isinstance(w, PadicWindow):
        parse_tol(tol)  # one tol rule in both fields; the p-adic value is exact and does not use it
        rows = [(lam, mu_hat_padic(fam, w, lam), 0.0) for lam in lams]
        # the exact value when it is rational, and always its float
        samples = [
            {"value_float": float(v), **({"value": str(v)} if isinstance(v, Fraction) else {})}
            for _, v, _ in rows
        ]
    else:
        rows = [(lam, *mu_hat_real_with_error(fam, w, lam, tol=tol)) for lam in lams]
        samples = [{"value": value, "error": error} for _, value, error in rows]
    if flags.csv:
        _write_csv(flags.csv, fam.m, rows)
    report = {"samples": [{"lambda": [str(v) for v in lam], **s} for (lam, _, _), s in zip(rows, samples)]}
    if len(rows) == 1:
        # one p-adic sample is repeated whole, one real sample without its lambda
        report.update(report["samples"][0] if isinstance(w, PadicWindow) else samples[0])
    return report


@_command("certify")
def _cmd_certify(cfg, flags):
    if _field_prime(cfg) is not None:
        w = _window_of(cfg)
        cert = certificate(parse_curve_family(cfg["family"]), w)
        floor = -cert.C / cert.length  # exactly -B/L
        return {
            "B": cert.B,
            "L": str(w.L),
            "floor": str(floor),
            "floor_float": float(floor),
            "reduced_degrees": [f.degree for f in cert.echelon[1].polys],
            "row_transform": [[str(c) for c in row] for row in cert.echelon[0]],
        }
    fam = parse_curve_family(cfg["family"])
    cert = certificate(fam, _window_of(cfg)) if "window" in cfg else None
    bound = certified_constant_real(fam) if cert is None else cert.bound
    report = dataclasses.asdict(bound)  # C, breakdown and constants
    if cert is not None:
        report["window"] = [cert.window.a, cert.window.T]
        report["ratio_bound"] = cert.C / cert.length
        report["floor"] = -cert.C / cert.length
    return report


def _search(cfg, flags, search):
    """Run minimize_mu_hat or independence_pipeline on the config.  A flag
    beats the config, and the library reads seed (default 0), budget (a
    missing one means the default) and tol (default 1e-6).  --csv writes
    the trace, with tol in the error column over R and 0.0 over Q_p, as
    muhat writes."""
    w = _window_of(cfg)
    fam = parse_curve_family(cfg["family"])
    tol = _setting(cfg, flags, "tol", 1e-6)
    res = search(fam, w, budget=_setting(cfg, flags, "budget", None), seed=_setting(cfg, flags, "seed", 0), tol=tol)
    if flags.csv:
        trace = getattr(res, "report", res).trace  # a PipelineResult holds its MinimizationReport
        err = 0.0 if isinstance(w, PadicWindow) else tol
        _write_csv(flags.csv, fam.m, [(lam, val, err) for _, lam, val in trace])
    return res


@_command("minimize")
def _cmd_minimize(cfg, flags):
    return _search(cfg, flags, minimize_mu_hat)


@_command("pipeline")
def _cmd_pipeline(cfg, flags):
    return _search(cfg, flags, independence_pipeline)


@_command("config-search")
def _cmd_config_search(cfg, flags):
    if _field_prime(cfg) is not None:
        raise ValueError("config-search needs a real window; got a p-adic field")
    w = _window_of(cfg)
    fam = parse_curve_family(cfg["family"])
    if "boxset" not in cfg or "boxset_path" in cfg:
        raise ValueError("config-search reads its box set from 'boxset', an inline object")
    boxes = BoxSet.from_json(cfg["boxset"])
    res = config_search(fam, w, boxes, cfg["step"])
    report = {"found": res.found}
    if res.found:
        report.update(
            s=str(res.s),
            x1=[str(v) for v in res.x1],
            x2=[str(v) for v in res.x2],
            residual=res.residual,
        )
    if "density_radii" in cfg:
        report["density"] = upper_density_estimate(boxes, cfg["density_radii"])
    return report


@_command("clique")
def _cmd_clique(cfg, flags):
    fam = parse_curve_family(cfg["family"])
    oracle = curve_difference_oracle(fam, tol=_setting(cfg, flags, "tol", 1e-9))
    inst = CliqueInstance(cfg["points"], oracle)
    found = clique_search(inst, max_size=cfg.get("max_size"))
    return {"size": len(found), "clique": [list(p) for p in found]}


def _series_function(spec):
    """f(t) = constant + sum amp*cos(2 pi k t) + sum amp*sin(2 pi k t); the
    constant and the amplitudes are floats and never bools (parse_float)."""
    c0 = parse_float(spec.get("constant", 0.0), "constant")
    cos_terms = [(parse_integer(k, "a harmonic k"), parse_float(a, "an amplitude")) for k, a in spec.get("cos", [])]
    sin_terms = [(parse_integer(k, "a harmonic k"), parse_float(a, "an amplitude")) for k, a in spec.get("sin", [])]

    def f(t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, c0)
        for k, a in cos_terms:
            out = out + a * np.cos(2 * np.pi * k * t)
        for k, a in sin_terms:
            out = out + a * np.sin(2 * np.pi * k * t)
        return out

    return f


@_command("color-check")
def _cmd_color_check(cfg, flags):
    f = _series_function(cfg["function"])
    n_min, M, eps, delta = coloring_threshold(f)
    n = parse_integer(cfg.get("n", n_min), "n")
    edges = parse_integer(cfg.get("edges", 100_000), "edges")
    violations = periodic_coloring_verify(f, n, edges, seed=_setting(cfg, flags, "seed", 0))
    if violations:
        # periodic_coloring_verify ran, so the threshold admits n: an edge
        # it finds monochromatic refutes the threshold, not the config
        raise PipelineConsistencyError(
            "a coloring the threshold admits has monochromatic edges",
            {"n": n, "n_min": n_min, "edges": edges, "violations": violations},
        )
    return {
        "n": n,
        "n_min": n_min,
        "M": M,
        "eps": eps,
        "delta": delta,
        "edges": edges,
        "violations": violations,
    }


@_command("reduce")
def _cmd_reduce(cfg, flags):
    fam = multivariate_reduce(cfg["components"], ell=cfg.get("ell"))
    return {
        "family": [[str(c) for c in f.coeffs] for f in fam.polys],
        "degrees": [f.degree for f in fam.polys],
    }


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # bad arguments are a validation error (exit 1), not the exit-2 alarm
    def error(self, message):
        raise _UsageError(message)


def main(argv=None):
    parser = _Parser(
        prog="oscillabound",
        description="Transforms of measures on polynomial curves, certified "
        "lower bounds, and their combinatorial companions.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--csv", default=None, help="CSV sidecar path for sample rows")

    try:
        flags = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stdout.write(
            json.dumps({"detail": str(exc), "error": "usage"}, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        return 1

    try:
        with open(flags.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        resolved = dict(cfg)
        resolved["_resolved"] = {
            "command": flags.command,
            "seed": flags.seed,
            "tol": flags.tol,
            "budget": flags.budget,
            "csv": flags.csv,
        }
        report = _COMMANDS[flags.command](cfg, flags)
        payload = {"command": flags.command, "config": resolved, "report": report}
        code = 0
    except PipelineConsistencyError as exc:
        payload = {
            "command": flags.command,
            "error": "consistency failure",
            "detail": str(exc),
            "diagnostics": exc.diagnostics,
        }
        code = 2
    except (OSError, KeyError, IndexError, TypeError, ValueError, ArithmeticError, QuadratureError) as exc:
        payload = {"command": flags.command, "error": exc.__class__.__name__, "detail": str(exc)}
        code = 1

    sys.stdout.write(json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":")) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
