"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from oscillabound import realosc  # noqa: E402

ROOT = Path(run.ROOT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    first = [make(7).block(k) for k in range(2)]
    assert first == [make(7).block(k) for k in range(2)]
    assert first != [make(8).block(k) for k in range(2)]


def test_real_sweep_block_is_stratified():
    ops = workloads.RealSweep(3).block(0)
    assert len(ops) == 9 * workloads.RealSweep.PER_COMBO
    combos = [op[1][0] for op in ops]
    assert all(combos.count(c) == workloads.RealSweep.PER_COMBO for c in set(combos))
    assert len(set(combos)) == 9


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_one_block(name):
    wl = workloads.WORKLOADS[name](3)
    wl.prepare(tracing.NullTracer().wrap)
    timed = run.run_blocks(wl, wl.block, tracing.NullTracer(), n_blocks=1)
    extra, extra_failures = run.run_extra_checks(wl)
    assert timed.blocks == 1 and timed.latencies and len(timed.scales) == len(timed.latencies)
    assert timed.failures == [] and extra_failures == []


def _first(wl):
    wl.prepare(tracing.NullTracer().wrap)
    op = wl.block(0)[0]
    result = wl.run_op(op)
    assert wl.check(op, result) is None
    return op, result


def test_checker_flags_perturbed_real_value():
    wl = workloads.RealSweep(workloads.DEFAULT_SEED)
    op, value = _first(wl)
    assert wl.check(op, value + 4 * wl.TOL) is not None  # off the reference
    assert wl.check(op, 1.5) is not None  # |mu| > 1
    assert wl.check(op, wl.floors[op[1][0]] - 1e-3) is not None  # below the floor


def test_checker_flags_perturbed_padic_values():
    wl = workloads.PadicLattice(1)
    wl.prepare(tracing.NullTracer().wrap)
    ops = wl.block(0)
    exact = next(op for op in ops if wl.reference[op[1][0]][op[1][1]].startswith("q:"))
    value = wl.run_op(exact)
    assert wl.check(exact, value) is None
    assert wl.check(exact, value + Fraction(1, 3**12)) is not None
    assert wl.check(exact, float(value)) is not None  # an exact value must stay exact
    floats = [(p, k) for p in (3, 5) for k, ref in enumerate(wl.reference[p]) if ref.startswith("f:")]
    assert floats, "the reference holds irrational values"
    p, key = floats[0]
    op = (0, (p, key, None))
    ref = float(wl.reference[p][key][2:])
    assert wl.check(op, ref) is None
    assert wl.check(op, ref + 1e-6) is not None


def test_checker_flags_perturbed_pipeline_report():
    wl = workloads.Pipeline(1, "refine")
    op, (code, text) = _first(wl)
    assert wl.check(op, (code, text)) is None  # a second identical report passes
    assert wl.check(op, (code, text.replace('"report"', '"report" '))) is not None  # not byte-identical

    def fresh_check(result):
        fresh = workloads.Pipeline(1, "refine")
        fresh.prepare(tracing.NullTracer().wrap)
        return fresh.check(op, result)

    assert fresh_check((2, text)) is not None
    for field, value in (("certified_C", 1.0), ("empirical_min", -1e9)):
        report = json.loads(text)
        report["report"][field] = value
        assert fresh_check((0, json.dumps(report))) is not None


def test_checker_flags_a_parabola_triangle():
    wl = workloads.Companions(1)
    op, found = _first(wl)
    assert wl.check(op, tuple(op[1][:3])) is not None
    assert wl.check(op, ((99.0, 1.0),)) is not None


def test_tracer_self_time_and_restore():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(20000))

    traced_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: [traced_leaf() for _ in range(3)])
    tracer.op = 5
    outer()
    rows, _ = tracing.summarize(tracer.spans, {5: "s"})
    assert rows["leaf"]["calls"] == 3 and rows["outer"]["calls"] == 1
    assert rows["outer"]["self_s"] == pytest.approx(rows["outer"]["s"] - rows["leaf"]["s"])
    assert rows["leaf"]["s_by_slice"]["s"] == pytest.approx(rows["leaf"]["s"])

    original = realosc.mu_hat_real
    with tracer.install():
        assert realosc.mu_hat_real is not original
    assert realosc.mu_hat_real is original
    assert tracer.missing == []


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "real_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
