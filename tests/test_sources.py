"""Every library source compiles cleanly with warnings treated as errors, so
an invalid escape sequence cannot hide until a newer Python promotes it;
every exported name resolves, so a deleted function cannot stay exported;
every public name has a caller inside the library, or a reason to stay, so
code that only tests run cannot stay in it;
the README lists exactly the CLI's commands, so a deleted or renamed
command cannot stay documented; the README's library quick start runs
and returns what it documents; every config the README and the benchmark
use runs through the CLI, so a spelling they use cannot be dropped; and
each input guard of the library raises its ValueError."""

import ast
import contextlib
import io
import json
import math
import pathlib
import re
import tempfile
import warnings
from fractions import Fraction

import numpy as np

import oscillabound
from oscillabound import cli
from oscillabound.cayleylab import (
    BoxSet,
    CliqueInstance,
    clique_search,
    config_search,
    curve_difference_oracle,
    multivariate_reduce,
    periodic_coloring_verify,
    upper_density_estimate,
)
from oscillabound.padic import PadicWindow, certified_bound_padic, mu_hat_padic, vp
from oscillabound.polycore import (
    CurveFamily,
    RationalPoly,
    parse_curve_family,
    parse_row,
    phase_integers,
    vandermonde_interpolation,
)
from oscillabound.realosc import Window, mu_hat_real, osc_integral, superlevel_decompose, vdc_bound
from oscillabound.spectral import (
    hoffman_chromatic_bound,
    hoffman_ratio_bound,
    independence_pipeline,
    minimize_mu_hat,
    operator_ratio_bound,
)


def test_sources_compile_without_warnings():
    sources = sorted(pathlib.Path(oscillabound.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_every_exported_name_resolves():
    assert not [name for name in oscillabound.__all__ if not hasattr(oscillabound, name)]


# public names that no library code calls yet, each with the reason it stays
KEPT_WITHOUT_CALLER = {
    "RationalPoly.compose_linear": "the benchmark's trace hook wraps it until the hook moves (ROADMAP item 1)",
    "sphere_character_sum": "the sphere sums of criterion 1",
    "hoffman_chromatic_bound": "the spectral consequence of ROADMAP item 3",
    "merge_intervals": "the superlevel lemma of ROADMAP item 4",
    "witness_intervals": "the superlevel lemma of ROADMAP item 4",
    "IntervalDecomposition.spot_check": "the superlevel lemma of ROADMAP item 4",
    "periodic_coloring_verify": "the coloring check's public form; color-check counts on the threshold it reports",
}


def test_every_public_name_has_a_library_caller():
    """A public function, class or method counts as called when a Name or an
    Attribute of that name appears in a library module other than
    __init__.py; a mention in a docstring does not count."""
    defined, used = set(), set()
    for path in sorted(pathlib.Path(oscillabound.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
                defined.update(f"{node.name}.{m.name}" for m in methods)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert {name for name in defined if name.rpartition(".")[2] not in used} == set(KEPT_WITHOUT_CALLER)


ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_lists_every_command():
    readme = README.read_text()
    documented = re.findall(r"^oscillabound (\S+) config\.json", readme, flags=re.MULTILINE)
    assert sorted(documented) == sorted(cli._COMMANDS)


def test_readme_quick_start_runs():
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert block, "README has no library quick start block"
    assert "returns Fraction(1, 4)" in block.group(1)
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert namespace["exact"] == Fraction(1, 4)


def test_readme_and_benchmark_configs_run_certify():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    configs = sorted((ROOT / "perfbench" / "configs").glob("*.json"))
    assert blocks and configs, "no README json block or benchmark config found"
    with tempfile.TemporaryDirectory() as tmp:
        for i, block in enumerate(blocks):
            path = pathlib.Path(tmp, f"readme_{i}.json")
            path.write_text(block)
            configs.append(path)
        for path in configs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["certify", str(path)])
            assert code == 0, (path.name, out.getvalue())
            assert "floor" in json.loads(out.getvalue())["report"], path.name


def test_input_guards_raise_their_value_errors():
    unit, square = BoxSet([[("0", "1")]]), BoxSet([[("0", "1"), ("0", "1")]])
    x = RationalPoly([0, 1])
    fam, q3 = CurveFamily([x, x * x]), PadicWindow(1, 4, 3)
    one_point = CliqueInstance([(0, 0)], lambda d: False)
    f = lambda t: 2 + np.cos(2 * np.pi * np.asarray(t))
    guards = [
        (lambda: BoxSet([]), "an empty box set needs an explicit dim"),
        (lambda: BoxSet([[("0", "1")], [("0", "1"), ("0", "1")]]), "boxes must share one dimension"),
        (lambda: BoxSet([[("1", "0")]]), "box with lo > hi"),
        (lambda: BoxSet([[("0", "1")]], period=("1", "1")), "period vector must match dimension"),
        (lambda: BoxSet([[("0", "1")]], period=("0",)), "periods must be positive"),
        (lambda: upper_density_estimate(unit, [1.0, -2.0]), "a density radius must be a finite positive number; got -2.0"),
        *[
            (lambda r=r: upper_density_estimate(unit, [r]), f"a density radius must be a finite positive number; got {r!r}")
            for r in (math.inf, "2x", True)
        ],
        *[
            (lambda r=r: upper_density_estimate(unit, r), f"radii must be a non-empty list of radii; got {r!r}")
            for r in ([], "12")
        ],
        # "2" is the radius 2.0, as the CLI reads it
        (lambda: upper_density_estimate(unit, [2.0, "2"]), "radii must be increasing"),
        (lambda: upper_density_estimate(unit, [2.0, 1.0]), "radii must be increasing"),
        (lambda: multivariate_reduce([{(-1, 0): 1}, {(0, 1): 1}]), "exponents must be nonnegative"),
        (lambda: multivariate_reduce([{(1, 0): 1}, {(1,): 1}]), "components must share one variable count"),
        (lambda: x.t_derivative(-1), "derivative order must be >= 0"),
        (lambda: CurveFamily([]), "empty curve family"),
        (lambda: CurveFamily([x, x * 2]), "independence violation: 1, f_1, ..., f_m are linearly dependent"),
        # a real window is a Window or a pair of numbers: "12" is not [1, 2], nor (True, 2) [1, 2]
        *[
            (call, f"a real window must be a Window or a pair of numbers (a, T); got {w!r}")
            for w in ("12", (True, 2.0), (1.0, False))
            for call in (
                lambda w=w: mu_hat_real(fam, w, (1, 2)),
                lambda w=w: minimize_mu_hat(fam, w, budget=1),
                lambda w=w: independence_pipeline(fam, w, budget=1),
                lambda w=w: config_search(fam, w, square, "1/4"),
            )
        ],
        (lambda: mu_hat_real(fam, (None, 2.0), (1, 2)), "the bounds of the window (None, 2.0) must be finite numbers"),
        # (1, 4) holds no p: it raised AttributeError
        (lambda: mu_hat_padic(fam, (1, 4), (1, 1)), "a p-adic window must be a PadicWindow; got (1, 4)"),
        (lambda: certified_bound_padic(fam, (1, 4)), "a p-adic window must be a PadicWindow; got (1, 4)"),
        # e^-inf is 0.0, so the scan once ran, and found s = 1/4 in [0, 1]^2
        (lambda: config_search(fam, (-math.inf, 1.0), square, "1/4"), "window bounds must be finite; got -inf, 1.0"),
        # an infinite input gave nan, inf, or a ratio bound of 0
        (lambda: hoffman_ratio_bound(-math.inf), "the spectral minimum m must be finite and negative; got -inf"),
        (lambda: operator_ratio_bound(-math.inf, 1, 0), "the spectral minimum m must be finite and negative; got -inf"),
        (lambda: operator_ratio_bound(-1.0, math.inf, 0), "the operator-norm bound R must be finite; got inf"),
        (lambda: operator_ratio_bound(-1.0, -math.inf, 0), "the operator-norm bound R must be finite; got -inf"),
        (lambda: operator_ratio_bound(-1.0, 1, math.inf), "the defect eps must be finite and nonnegative; got inf"),
        (lambda: hoffman_chromatic_bound(-math.inf, 1), "the spectral minimum m must be finite and negative; got -inf"),
        (lambda: hoffman_chromatic_bound(-1, math.inf), "the spectral maximum M must be finite and positive; got inf"),
        (lambda: vandermonde_interpolation([1, 2], 3), "need exactly n target values"),
        (lambda: vp(3, 1), "p = 1 must be at least 2"),
        (lambda: superlevel_decompose(RationalPoly([5]), 1, Window(0, 1)), "phase must be nonconstant"),
        (lambda: superlevel_decompose(x, 0, Window(0, 1)), "level must be positive"),
        # each setting is read by the call that uses it, as the CLI's config reads it
        *[
            (lambda s=s, search=search: search(fam, q3, budget=1, seed=s), f"seed must be an integer; got {s!r}")
            for s in (None, True, 1.5, "abc")
            for search in (minimize_mu_hat, independence_pipeline)
        ],
        # tol is read before the window check, which (x, x^2) fails at a = 0 over Q_3
        (lambda: independence_pipeline(fam, PadicWindow(0, 4, 3), tol="abc"), "tol must be a number; got 'abc'"),
        (lambda: clique_search(one_point, max_size=True), "max_size must be an integer; got True"),
        (lambda: clique_search(one_point, max_size=2.5), "max_size must be an integer; got 2.5"),
        (lambda: periodic_coloring_verify(f, 7, True), "edge_samples must be an integer; got True"),
        (lambda: periodic_coloring_verify(f, 7, 2.5), "edge_samples must be an integer; got 2.5"),
        (lambda: periodic_coloring_verify(f, 7, 10, seed=None), "seed must be an integer; got None"),
        (lambda: vdc_bound(1, True), "eta must be a finite positive number; got True"),
        (lambda: vdc_bound(True, 4.0), "k must be an integer; got True"),
        (lambda: vdc_bound(1.5, 4.0), "k must be an integer; got 1.5"),
        (lambda: vdc_bound(0, 4.0), "derivative order must be >= 1"),
        (lambda: osc_integral(x, 0.0, 1.0, True), "tol_abs must be a finite positive number; got True"),
    ]
    for call, message in guards:
        try:
            call()
        except ValueError as exc:
            assert str(exc) == message, (message, exc)
        else:
            raise AssertionError(f"no ValueError: {message}")


def test_every_vector_slot_refuses_what_is_no_list():
    # "001" was the polynomial x^2 and "11" the frequency (1, 1): a string was
    # iterated as a vector wherever no hand-rolled check stood in the way
    x = RationalPoly([0, 1])
    fam, q3, unit = CurveFamily([x, x * x]), PadicWindow(1, 4, 3), BoxSet([[("0", "1")]])
    square, oracle = BoxSet([[("0", "1"), ("0", "1")]]), curve_difference_oracle(fam)
    polynomial = "a polynomial must be a list of rational coefficients, ascending"
    frequency = "a frequency must be a list of rationals, one per family component"
    point = "point dimension mismatch: a point lists one rational per axis"
    window = "a real window must be a Window or a pair of numbers (a, T)"
    slots = [
        (RationalPoly, polynomial),
        (lambda v: CurveFamily([x, v]), polynomial),
        (lambda v: parse_curve_family([["0", "1"], v]), polynomial),
        (CurveFamily, "a curve family must be a list of polynomials"),
        (lambda v: phase_integers(fam, v), frequency),
        (lambda v: mu_hat_real(fam, (1, 2), v), frequency),
        (lambda v: mu_hat_padic(fam, q3, v), frequency),
        (lambda v: vandermonde_interpolation(v, 2), "the target values must be a list of rationals"),
        (BoxSet, "boxes must be a list of boxes"),
        (lambda v: BoxSet([v]), "a box must be a list of (lo, hi) pairs"),
        (lambda v: BoxSet([[v]]), "a side of a box must be a pair (lo, hi)"),
        (lambda v: BoxSet([[("0", "1")]], period=v), "period must be a list of per-axis periods"),
        (unit.distance, point),
        (unit.contains, point),
        (lambda v: CliqueInstance(v, oracle), "points must be a list of points"),
        (lambda v: CliqueInstance([v], oracle), "a point must be a list of numbers"),
        (multivariate_reduce, "components must be a list of polynomials"),
        (lambda v: multivariate_reduce([[(v, 1)]]), "exponents must be a list of integers"),
        (oracle, "a difference must be a list of one number per curve component"),
        (lambda v: mu_hat_real(fam, v, (1, 1)), window),
        (lambda v: config_search(fam, v, square, "1/4"), window),
        (lambda v: upper_density_estimate(unit, v), "radii must be a non-empty list of radii"),
    ]
    for value in ("12", b"12", True, 7, {"a": 1}, {1, 2}, None):
        for call, message in slots:
            if value is None and message.startswith("period"):
                continue  # period=None is a box set with no period
            try:
                call(value)
            except ValueError as exc:
                assert str(exc) == f"{message}; got {value!r}", (message, value, exc)
            else:
                raise AssertionError(f"{message}: {value!r} accepted")
    assert parse_row((1, "2"), int, "a pair", 2) == [1, 2]
    for value in ([1], [1, 2, 3], "12"):
        try:
            parse_row(value, int, "a pair", 2)
        except ValueError as exc:
            assert str(exc) == f"a pair; got {value!r}", exc
        else:
            raise AssertionError(f"{value!r} read as a pair")
