"""oscillabound benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from that
checkout's ``src/``.  One process, one thread, closed loop: the next
operation starts when the previous one returns.  With ``--trace 0`` whole
input blocks run until ``--seconds`` have passed and the end-to-end metrics
are reported, with times scaled to a reference machine speed (see
``calibrate.py``).  With ``--trace 1`` the workload's fixed number of trace
blocks runs untraced and then traced, and the per-layer metrics are
reported.  Every output is checked.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output passed its check.
"""

import argparse
import json
import os
import statistics
import sys
import time

T_START = time.perf_counter()

# one BLAS/OpenMP thread, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
OUT_DIR = ".perfbench_out"


def import_library():
    """Import oscillabound from this checkout's src/ and nowhere else."""
    if "oscillabound" in sys.modules:
        return sys.modules["oscillabound"]
    if not os.path.isdir(os.path.join(SRC, "oscillabound")):
        sys.exit(f"perfbench: no oscillabound sources under {SRC}")
    sys.path.insert(0, SRC)
    import oscillabound

    if not os.path.abspath(oscillabound.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported oscillabound from {oscillabound.__file__}, not {SRC}")
    return oscillabound


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_vals) * q // 100))
    return sorted_vals[int(rank) - 1]


class Pass:
    """What one pass over the blocks measured: raw per-op latencies, the
    per-op factors that scale them to the reference speed, failures, the
    slice of each op id in run order, and the calibration kernel's runs."""

    def __init__(self):
        self.latencies, self.scales, self.failures, self.op_slice = [], [], [], {}
        self.blocks = 0
        self.samples = []

    def scaled(self):
        return [lat * f for lat, f in zip(self.latencies, self.scales)]


def run_blocks(wl, blocks, tracer, seconds=None, n_blocks=None):
    """Run whole blocks until `seconds` have passed (or `n_blocks` ran).

    Input generation, garbage collection and checks happen between the timed
    calls.  ``calibrate.scale`` turns each op's span into its latency and
    its factor to the reference speed."""
    import gc

    import calibrate

    out = Pass()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    with calibrate.Sampler() as sampler:
        while True:
            ops = blocks(out.blocks)
            gc.collect()
            spans = []
            for op in ops:
                tracer.op = op[0]
                out.op_slice[op[0]] = wl.slice_of(op)
                t0 = time.perf_counter()
                try:
                    result = wl.run_op(op)
                    problem = None
                except Exception as exc:  # a failed op is counted, not fatal
                    result, problem = None, f"{type(exc).__name__}: {exc}"
                spans.append((t0, time.perf_counter()))
                if problem is None:
                    problem = wl.check(op, result)
                if problem:
                    out.failures.append(f"op {op[0]}: {problem}")
            tracer.op = None
            for latency, factor in calibrate.scale(spans, sampler.samples):
                out.latencies.append(latency)
                out.scales.append(factor)
            out.blocks += 1
            if n_blocks is not None and out.blocks >= n_blocks:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
    out.samples = sampler.samples
    return out


def warm_up(wl, blocks):
    """Run and check the first op once, untimed, so that first-call costs
    stay out of the timings; a pipeline's later reports must equal this one."""
    op = blocks(0)[0]
    try:
        problem = wl.check(op, wl.run_op(op))
    except Exception as exc:
        problem = f"{type(exc).__name__}: {exc}"
    return [f"warm-up: {problem}"] if problem else []


def run_extra_checks(wl):
    attempted, failures = 0, []
    for label, call, check in wl.extra_checks():
        attempted += 1
        try:
            problem = check(call())
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{label}: {problem}")
    return attempted, failures


def ops_per_s(latencies):
    """Ops per second with each op's time capped at the p99 latency, so that
    one rare multi-second evaluation cannot swing the rate of a whole run;
    the tail is what op_p99_ms reports."""
    p99 = percentile(sorted(latencies), 99)
    return len(latencies) / sum(min(v, p99) for v in latencies)


def latency_metrics(latencies):
    lat = sorted(latencies)
    return {
        "ops_per_s": (ops_per_s(latencies), "1/s"),
        "op_p50_ms": (1e3 * percentile(lat, 50), "ms"),
        "op_p99_ms": (1e3 * percentile(lat, 99), "ms"),
    }


def setup_probe_times(workload, seed):
    """Setup time of SETUP_PROBES fresh processes, each measured inside the
    process from the start of this script to the first op being ready
    (importing numpy and oscillabound, parsing the families, generating the
    first input block) and scaled by the kernel samples taken meanwhile.
    Returns (raw, scaled) lists."""
    import subprocess

    raw, scaled = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            sys.exit(f"perfbench: setup probe failed with exit code {proc.returncode}: {proc.stderr[-500:]}")
        raw.append(float(fields[1]))
        scaled.append(float(fields[2]))
    return raw, scaled


def setup_probe(workload, seed):
    """One setup measurement; the kernel samples start once numpy is in."""
    import calibrate

    with calibrate.Sampler() as sampler:
        import_library()
        build(workload, seed)
        elapsed = time.perf_counter() - T_START
    samples = [d for _, d in sampler.samples]
    work = elapsed - sum(samples)
    if len(samples) < 3:
        samples.append(calibrate.kernel_seconds(3))
    print(f"ready {work!r} {work * calibrate.factor(calibrate.slowness(samples))!r}", flush=True)


def build(workload, seed):
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    first = wl.block(0)
    return wl, lambda k: first if k == 0 else wl.block(k)


def end_to_end(args):
    import resource

    import tracing

    raw_setup, setup = setup_probe_times(args.workload, args.seed)
    wl, blocks = build(args.workload, args.seed)
    null = tracing.NullTracer()
    wl.prepare(null.wrap)
    warm_failures = warm_up(wl, blocks)
    timed = run_blocks(wl, blocks, null, seconds=args.seconds)
    extra, extra_failures = run_extra_checks(wl)
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics.update(latency_metrics(timed.scaled()))
    lat = sorted(timed.scaled())
    p99 = percentile(lat, 99)
    raw = latency_metrics(timed.latencies)
    print(f"# {args.workload} seed={args.seed}: {len(lat)} timed ops in {timed.blocks} blocks, "
          f"{sum(v > p99 for v in lat)} beyond p99; {extra} extra checked calls")
    print(f"# unscaled: setup_s {statistics.median(raw_setup):.4f}, "
          + ", ".join(f"{k} {v:.4f}" for k, (v, _) in raw.items())
          + f"; machine speed factor {min(timed.scales):.3f}..{max(timed.scales):.3f}")
    return 1 + len(lat) + extra, warm_failures + timed.failures + extra_failures, metrics


LAYER_METRICS = [
    # (metric, span name, field, unit)
    ("polycore.isolate_positive_roots.calls", "polycore.isolate_positive_roots", "calls", "count"),
    ("polycore.isolate_positive_roots.s", "polycore.isolate_positive_roots", "s", "s"),
    ("polycore.compute_a0_real.calls", "polycore.compute_a0_real", "calls", "count"),
    ("polycore.compute_a0_real.s", "polycore.compute_a0_real", "s", "s"),
    ("polycore.high_freq_constants.s", "polycore.high_freq_constants", "s", "s"),
    ("realosc.certified_constant_real.s", "realosc.certified_constant_real", "s", "s"),
    ("realosc.mu_hat_real.calls", "realosc.mu_hat_real", "calls", "count"),
    ("realosc.mu_hat_real.s", "realosc.mu_hat_real", "s", "s"),
    ("realosc.mu_hat_real.raised", "realosc.mu_hat_real", "raised", "count"),
    ("realosc.osc_integral.self_s", "realosc.osc_integral", "self_s", "s"),
    ("padic.mu_hat_padic.calls", "padic.mu_hat_padic", "calls", "count"),
    ("padic.mu_hat_padic.s", "padic.mu_hat_padic", "s", "s"),
    ("padic.mu_hat_padic.self_s", "padic.mu_hat_padic", "self_s", "s"),
    ("padic.CycNum.reduced.calls", "padic.CycNum.reduced", "calls", "count"),
    ("padic.CycNum.reduced.s", "padic.CycNum.reduced", "s", "s"),
    ("polycore.RationalPoly.compose_linear.calls", "polycore.RationalPoly.compose_linear", "calls", "count"),
    ("polycore.RationalPoly.compose_linear.s", "polycore.RationalPoly.compose_linear", "s", "s"),
    ("padic.echelon_reduce.s", "padic.echelon_reduce", "s", "s"),
    ("padic.certified_bound_padic.s", "padic.certified_bound_padic", "s", "s"),
    ("spectral.minimize_mu_hat.self_s", "spectral.minimize_mu_hat", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cayleylab.oracle.calls", "cayleylab.oracle", "calls", "count"),
    ("cayleylab.oracle.s", "cayleylab.oracle", "s", "s"),
    ("cayleylab.clique_search.self_s", "cayleylab.clique_search", "self_s", "s"),
]


def traced(args):
    """The workload's fixed number of trace blocks untraced, then the same
    blocks traced.  The per-layer numbers come from the traced pass, so the
    counts repeat exactly for a seed; the tracing overhead compares the two."""
    import tracing

    wl, blocks = build(args.workload, args.seed)
    null = tracing.NullTracer()
    wl.prepare(null.wrap)
    warm_failures = warm_up(wl, blocks)
    plain = run_blocks(wl, blocks, null, n_blocks=wl.trace_blocks)
    tracer = tracing.Tracer()
    wl.prepare(tracer.wrap)
    with tracer.install():
        traced_pass = run_blocks(wl, blocks, tracer, n_blocks=wl.trace_blocks)
    extra, extra_failures = run_extra_checks(wl)
    failures = warm_failures + plain.failures + traced_pass.failures + extra_failures

    op_slice = traced_pass.op_slice
    rows, in_min = tracing.summarize(tracer.spans, op_slice, traced_pass.samples)
    lat = traced_pass.latencies
    op_time = sum(lat)
    metrics = {}
    for metric, span, field, unit in LAYER_METRICS:
        metrics[metric] = (rows.get(span, {}).get(field, 0), unit)
    metrics["spectral.transform_calls"] = (in_min["calls"], "count")
    metrics["spectral.failed_candidates"] = (in_min["raised"], "count")
    iso = rows.get("polycore.isolate_positive_roots", {}).get("s", 0.0)
    metrics["polycore.isolate_positive_roots.share"] = (iso / op_time, "ratio")
    slice_op_time = {}
    for slice_name, dt in zip(op_slice.values(), lat):
        slice_op_time[slice_name] = slice_op_time.get(slice_name, 0.0) + dt
    reduced = rows.get("padic.CycNum.reduced", {}).get("s_by_slice", {})
    for p in (3, 5):
        t = slice_op_time.get(f"p{p}", 0.0)
        metrics[f"padic.CycNum.reduced.share_p{p}"] = (reduced.get(f"p{p}", 0.0) / t if t else 0.0, "ratio")
    traced_rate, plain_rate = ops_per_s(traced_pass.scaled()), ops_per_s(plain.scaled())
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0, "ratio")

    print_layer_table(args.workload, rows, op_time, len(lat), tracer.missing)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path, traced_pass.samples)
    print(f"# {len(tracer.spans)} spans written to {path}")
    return 1 + len(plain.latencies) + len(lat) + extra, failures, metrics


def print_layer_table(workload, rows, op_time, n_ops, missing):
    print(f"# {workload}: traced pass, {n_ops} ops, {op_time:.3f} s inside ops")
    print(f"# {'span':42s} {'calls':>9s} {'incl_s':>9s} {'self_s':>9s} {'self%':>6s}")
    modules = {}
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# {name:42s} {row['calls']:9d} {row['s']:9.3f} {row['self_s']:9.3f} "
              f"{100 * row['self_s'] / op_time:6.1f}")
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + row["self_s"]
    print("# self time by layer: " + ", ".join(
        f"{m} {100 * t / op_time:.1f}%" for m, t in sorted(modules.items(), key=lambda kv: -kv[1])))
    for hook in missing:
        print(f"# MISSING hook {hook}: its metrics read 0")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    attempted, failures, metrics = (traced if args.trace else end_to_end)(args)
    for f in failures[:20]:
        print(f"# FAILED {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
