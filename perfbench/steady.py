"""Steadiness check: repeat workloads over several seeds and compare the
spread of every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--out FILE]

Runs ``run.py`` once per (workload, seed), seeds 0 to N-1, one at a time.  For each metric it
prints the median and quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median.  A spread above the metric's bound is marked
FAIL, one above a third of the bound WARN; ``setup_s`` is reported but not
judged, as its spread is not gated.  With ``--out`` the table is also written
as JSON together with nproc and the Python and numpy versions, which is how
``BASELINE.json`` is produced.  Exit code 1 if any metric is marked FAIL.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description="repeat workloads and check the spread of each metric")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cmd = [sys.executable if c == "python3" else c for c in bench["command"]]
    report = {}
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.seeds):
            metrics, result = run_once(cmd, workload, seed, args.seconds)
            if not result["correct"]:
                failed = True
            runs.append(metrics)
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        report[workload] = {}
        for name, bound in bounds.items():
            s = summarize([r[name] for r in runs], bound)
            report[workload][name] = s
            if name == "setup_s":
                flag = "-"
            elif s["spread"] > bound:
                flag, failed = "FAIL", True
            elif s["spread"] > bound / 3:
                flag = "WARN"
            else:
                flag = "ok"
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {100 * s['spread']:.1f}% (bound {100 * bound:.0f}%)  {flag}", flush=True)
    if args.out:
        import numpy

        meta = {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "seeds": [0, args.seeds - 1],
            "run_seconds": args.seconds,
        }
        with open(args.out, "w") as fh:
            json.dump({"meta": meta, "workloads": report}, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
