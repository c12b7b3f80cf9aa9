"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Evaluates, with the library in this checkout's ``src/``, every input whose
value a check compares: the first REAL_BLOCKS blocks of the real_sweep
stream at the default seed, the whole criterion-4 3-adic lattice, the fixed
5-adic pool, and the certified fields of each pipeline config.  The files
in ``reference/`` were recorded from the unmodified seed code; regenerate
them only to record a deliberate change of the library's outputs.
"""

import json
import os
import sys

import run

REAL_BLOCKS = 16
PIPELINE_FIELDS = ("certified_C", "certified_ratio_bound", "chromatic_lower_bound")


def write(name, data):
    with open(os.path.join(run.HERE, "reference", name), "w") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")


def main():
    run.import_library()
    import workloads
    from oscillabound import padic

    sweep = workloads.RealSweep(workloads.DEFAULT_SEED)
    values = [sweep.run_op(op) for k in range(REAL_BLOCKS) for op in sweep.block(k)]
    write("real_sweep.json", {"seed": workloads.DEFAULT_SEED, "tol": sweep.TOL, "values": values})
    print(f"real_sweep: {len(values)} values", file=sys.stderr)

    lattice = workloads.PadicLattice(workloads.DEFAULT_SEED)
    out = {}
    for p, key in ((3, "p3_lattice"), (5, "p5_pool")):
        cells = lattice.cells(p)
        out[key] = [workloads.value_code(padic.mu_hat_padic(lattice.family, lattice.windows[p], lam)) for _, lam in cells]
        print(f"padic p={p}: {len(out[key])} values", file=sys.stderr)
    write("padic_lattice.json", out)

    pipes = {}
    for config in ("real", "refine", "padic"):
        pipe = workloads.Pipeline(workloads.DEFAULT_SEED, config)
        code, text = pipe.run_op(pipe.block(0)[0])
        if code != 0:
            sys.exit(f"pipeline {config} exited {code}: {text}")
        rep = json.loads(text)["report"]
        pipes[config] = {field: rep[field] for field in PIPELINE_FIELDS}
    write("pipeline.json", pipes)


if __name__ == "__main__":
    main()
