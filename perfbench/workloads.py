"""The benchmark's workloads: seeded input streams, the call into the library
that one operation makes, and the check each output must pass.

Every workload produces its inputs in blocks.  A block covers every stratum
of the input space once (family x window x sign/magnitude strata on the real
side, valuation classes on the p-adic side), so a run that executes whole
blocks measures the same mix of cheap and expensive operations whatever its
seed.  The per-operation cost spans two orders of magnitude, so without this
the run-to-run spread would come from which inputs a seed happened to draw.

The library is always called through its module attributes
(``realosc.mu_hat_real``), so that the traced mode can wrap those
attributes without editing the library.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from oscillabound import cayleylab, cli, padic, polycore, realosc

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
CONFIG_DIR = HERE / "configs"

# the run seed whose real_sweep stream has recorded reference values
DEFAULT_SEED = 0

FAMILIES = {
    "xx2": [["0", "1"], ["0", "0", "1"]],
    "xx3": [["0", "1"], ["0", "0", "0", "1"]],
    "x2x3x5": [["0", "0", "1"], ["0", "0", "0", "1"], ["0", "0", "0", "0", "0", "1"]],
}


def _rng(*parts):
    # str seeds are hashed with SHA-512, so streams do not depend on hash()
    return random.Random(":".join(str(p) for p in parts))


def _balanced(rng, n, share, on, off):
    """n values, round(share*n) of them `on`, in seeded order."""
    k = round(share * n)
    vals = [on] * k + [off] * (n - k)
    rng.shuffle(vals)
    return vals


class RealSweep:
    """Criterion-6 stream: one ``mu_hat_real`` call per operation."""

    name = "real_sweep"
    trace_blocks = 6
    TOL = 1e-3
    PER_COMBO = 20  # operations per (family, window) in one block
    GOLDEN = 45  # reference operations re-evaluated by every run

    def __init__(self, seed):
        self.seed = seed
        self.families = [polycore.parse_curve_family(FAMILIES[k]) for k in ("xx2", "xx3", "x2x3x5")]
        self.windows = [realosc.Window(1, 2), realosc.Window(1, 6), realosc.Window(1, 26)]
        self.combos = list(itertools.product(range(3), range(3)))

    def block(self, k):
        """Block k: for each (family, window), PER_COMBO frequencies whose
        components are Latin-hypercube strata of log10|lambda| in [-6, 6],
        with balanced signs and 15% zeros.

        Which strata, signs and zeros go together is fixed per block for
        every seed, because that pairing decides whether Phi' has a root in
        the window, and so the cost of an op over two orders of magnitude.
        The seed places each magnitude within the middle half of its
        stratum and orders the block.  An op is (id, (combo, lambda, index
        of its reference value or None))."""
        design = _rng(self.name, "design", k)
        rng = _rng(self.name, self.seed, k)
        n = self.PER_COMBO
        ops = []
        for combo in self.combos:
            m = self.families[combo[0]].m
            comps = []
            for _ in range(m):
                strata = list(range(n))
                design.shuffle(strata)
                signs = _balanced(design, n, 0.5, 1.0, -1.0)
                zeros = _balanced(design, n, 0.15, True, False)
                comps.append(
                    [
                        0.0
                        if zeros[i]
                        else signs[i] * 10.0 ** (-6.0 + 12.0 * (strata[i] + rng.uniform(0.25, 0.75)) / n)
                        for i in range(n)
                    ]
                )
            for i in range(n):
                lam = [c[i] for c in comps]
                if all(v == 0 for v in lam):
                    lam[design.randrange(m)] = 1.0
                ops.append((combo, tuple(lam)))
        rng.shuffle(ops)
        ids = range(k * len(ops), (k + 1) * len(ops))
        return [(i, (combo, lam, i if self.seed == DEFAULT_SEED else None)) for i, (combo, lam) in zip(ids, ops)]

    def prepare(self, wrap):
        with open(REFERENCE_DIR / "real_sweep.json") as fh:
            self.reference = json.load(fh)["values"]
        self.floors = {}
        for fi, fam in enumerate(self.families):
            c_val = realosc.certified_constant_real(fam).C
            for wi, w in enumerate(self.windows):
                self.floors[(fi, wi)] = -c_val / w.length - 1e-6

    def run_op(self, op):
        _, ((fi, wi), lam, _) = op
        return realosc.mu_hat_real(self.families[fi], self.windows[wi], lam, tol=self.TOL)

    def check(self, op, value):
        _, (combo, _, index) = op
        if not abs(value) <= 1.0:
            return f"|mu| > 1: {value!r}"
        if not value >= self.floors[combo]:
            return f"mu {value!r} below the certified floor {self.floors[combo]!r}"
        if index is not None and index < len(self.reference):
            ref = self.reference[index]
            if not abs(value - ref) <= 3 * self.TOL:
                return f"mu {value!r} differs from the reference {ref!r} by more than 3*tol"
        return None

    def extra_checks(self):
        """Re-evaluate the first GOLDEN reference operations, whatever the seed."""
        for op in RealSweep(DEFAULT_SEED).block(0)[: self.GOLDEN]:
            yield "golden", lambda op=op: self.run_op(op), lambda v, op=op: self.check(op, v)

    def slice_of(self, op):
        return "all"


def padic_axis(p):
    """The minimizer's per-axis lattice: 0, then u*p^v for units u mod p^2
    and -6 <= v <= 2, in the order ``minimize_mu_hat`` enumerates it."""
    vals = [Fraction(0)]
    units = [u for u in range(1, p * p) if u % p]
    for v in range(-6, 3):
        vals.extend(u * Fraction(p) ** v for u in units)
    return vals


def value_code(v):
    """Reference encoding: exact values as 'q:n/d', irrational ones as 'f:repr'."""
    return f"q:{v}" if isinstance(v, Fraction) else f"f:{float(v)!r}"


class PadicLattice:
    """``mu_hat_padic`` on (x, x^2), window [1, 4]: the criterion-4 3-adic
    lattice next to a 5-adic one.  One operation is one transform call."""

    name = "padic_lattice"
    trace_blocks = 6
    PRIMES = (3, 5)
    P5_POOL = 6  # fixed unit variants per 5-adic valuation class

    def __init__(self, seed):
        self.seed = seed
        self.family = polycore.parse_curve_family(FAMILIES["xx2"])
        self.windows = {p: padic.PadicWindow(1, 4, p) for p in self.PRIMES}
        self.axes = {p: padic_axis(p) for p in self.PRIMES}
        # the classes of one axis: index 0 is zero, then one class per valuation
        self.classes = {}
        for p in self.PRIMES:
            units = len(self.axes[p]) // 9
            self.classes[p] = [[0]] + [list(range(1 + c * units, 1 + (c + 1) * units)) for c in range(9)]
        self.p5_pool = self._p5_pool()

    def _p5_pool(self):
        """Per pair of valuation classes, P5_POOL fixed cells of the 5-adic lattice."""
        rng = _rng(self.name, "p5-pool")
        pool = []
        for c1, c2 in itertools.product(self.classes[5], repeat=2):
            cells = list(itertools.product(c1, c2))
            pool.append(rng.sample(cells, min(self.P5_POOL, len(cells))))
        return pool

    def cells(self, p):
        """Every cell a stream may contain, as (reference key, lambda)."""
        axis = self.axes[p]
        if p == 3:
            n = len(axis)
            return [(i * n + j, (axis[i], axis[j])) for i, j in itertools.product(range(n), repeat=2)]
        flat = [cell for variants in self.p5_pool for cell in variants]
        return [(key, (axis[i], axis[j])) for key, (i, j) in enumerate(flat)]

    def block(self, k):
        """Block k: one cell per pair of valuation classes at each prime --
        any cell of the 3-adic lattice, one of the fixed pool cells at p=5.

        Within each class pair the seed fixes an order of its cells, and
        block k takes the k-th in that order, so a run of several blocks
        spreads over the cells of every class instead of repeating some."""
        order = _rng(self.name, self.seed, "order")
        ops = []
        n3 = len(self.axes[3])
        for c1, c2 in itertools.product(self.classes[3], repeat=2):
            cells = list(itertools.product(c1, c2))
            order.shuffle(cells)
            i, j = cells[k % len(cells)]
            ops.append((3, i * n3 + j, (self.axes[3][i], self.axes[3][j])))
        offset = 0
        for variants in self.p5_pool:
            pick = (k + order.randrange(len(variants))) % len(variants)
            i, j = variants[pick]
            ops.append((5, offset + pick, (self.axes[5][i], self.axes[5][j])))
            offset += len(variants)
        _rng(self.name, self.seed, k).shuffle(ops)
        return [(k * len(ops) + n, op) for n, op in enumerate(ops)]

    def prepare(self, wrap):
        with open(REFERENCE_DIR / "padic_lattice.json") as fh:
            ref = json.load(fh)
        self.reference = {3: ref["p3_lattice"], 5: ref["p5_pool"]}
        _, reduced = padic.echelon_reduce(self.family)
        self.floors = {p: Fraction(-padic.certified_bound_padic(reduced, w)) / w.L for p, w in self.windows.items()}

    def run_op(self, op):
        _, (p, _, lam) = op
        return padic.mu_hat_padic(self.family, self.windows[p], lam)

    def check(self, op, value):
        _, (p, key, _) = op
        if not value >= self.floors[p]:
            return f"mu {value!r} below the certified floor {self.floors[p]}"
        ref = self.reference[p][key]
        kind, text = ref[:1], ref[2:]
        if isinstance(value, Fraction):
            if kind != "q" or value != Fraction(text):
                return f"exact value {value} != reference {ref}"
        elif isinstance(value, float):
            if kind != "f" or not abs(value - float(text)) <= 1e-9:
                return f"float value {value!r} not within 1e-9 of reference {ref}"
        else:
            return f"unexpected result type {type(value).__name__}"
        return None

    def extra_checks(self):
        return iter(())

    def slice_of(self, op):
        return f"p{op[1][0]}"


class Pipeline:
    """One in-process ``oscillabound pipeline <config> --seed <seed>``."""

    TOL = 1e-3
    TRACE_BLOCKS = {"real": 2, "refine": 8, "padic": 4}

    def __init__(self, seed, config):
        self.seed = seed
        self.name = f"pipeline_{config}"
        self.config = config
        self.trace_blocks = self.TRACE_BLOCKS[config]
        self.config_path = str(CONFIG_DIR / f"{self.name}.json")
        self.first_output = None

    def block(self, k):
        return [(k, ["pipeline", self.config_path, "--seed", str(self.seed)])]

    def prepare(self, wrap):
        with open(REFERENCE_DIR / "pipeline.json") as fh:
            self.reference = json.load(fh)[self.config]

    def run_op(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op[1])
        return code, buf.getvalue()

    def check(self, op, result):
        code, text = result
        if code != 0:
            return f"exit code {code}: {text[:200]}"
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            return "report differs from the first report of this run at the same seed"
        rep = json.loads(text)["report"]
        for field, ref in self.reference.items():
            if rep[field] != ref:
                return f"{field} = {rep[field]!r}, reference {ref!r}"
        floor = -rep["certified_ratio_bound"] - self.TOL
        if not rep["empirical_min"] >= floor:
            return f"empirical minimum {rep['empirical_min']!r} below the floor {floor!r}"
        return None

    def extra_checks(self):
        return iter(())

    def slice_of(self, op):
        return "all"


class Companions:
    """``cayleylab`` alone: clique search on parabola samples (criterion 11,
    with 25 points instead of 50 so that a run holds enough ops for a p99),
    plus one configuration search (criterion 13) and one periodic-coloring
    check (criterion 12) per run."""

    name = "companions"
    trace_blocks = 40
    PER_BLOCK = 20
    POINTS = 25

    def __init__(self, seed):
        self.seed = seed
        self.family = polycore.parse_curve_family(FAMILIES["xx2"])

    def block(self, k):
        rng = _rng(self.name, self.seed, k)
        ops = []
        for _ in range(self.PER_BLOCK):
            ss = [rng.uniform(-10.0, 10.0) for _ in range(self.POINTS)]
            ops.append([(s, s * s) for s in ss])
        return [(k * len(ops) + i, op) for i, op in enumerate(ops)]

    def prepare(self, wrap):
        self.oracle = wrap("cayleylab.oracle", cayleylab.curve_difference_oracle(self.family))

    def run_op(self, op):
        return cayleylab.clique_search(cayleylab.CliqueInstance(op[1], self.oracle), max_size=3)

    def check(self, op, found):
        sample = set(op[1])
        if not 1 <= len(found) <= 2:
            return f"clique of size {len(found)} on parabola samples (expected 1 or 2)"
        if not set(found) <= sample:
            return "clique holds a point outside the sample"
        return None

    def extra_checks(self):
        stripes = cayleylab.BoxSet([[("0", "3"), ("-1", "1")]], period=("9", "9"))

        def check_config(res):
            if not res.found or not res.residual <= 1e-9:
                return "no exact configuration witness"
            if not (stripes.contains(res.x1) and stripes.contains(res.x2)):
                return "witness outside the box set"
            if tuple(a - b for a, b in zip(res.x1, res.x2)) != (res.s, res.s**2):
                return "witness difference is not (s, s^2)"
            return None

        yield (
            "config_search",
            lambda: cayleylab.config_search(self.family, (1.0, 2.0), stripes, "1/4"),
            check_config,
        )

        def f(t):
            return 2 + np.cos(2 * np.pi * np.asarray(t))

        yield (
            "coloring",
            lambda: cayleylab.periodic_coloring_verify(f, 7, 100_000, seed=self.seed),
            lambda v: None if v == 0 else f"{v} coloring violations",
        )

    def slice_of(self, op):
        return "all"


WORKLOADS = {
    "real_sweep": RealSweep,
    "padic_lattice": PadicLattice,
    "pipeline_real": lambda seed: Pipeline(seed, "real"),
    "pipeline_refine": lambda seed: Pipeline(seed, "refine"),
    "pipeline_padic": lambda seed: Pipeline(seed, "padic"),
    "companions": Companions,
}

