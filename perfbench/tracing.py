"""Spans around the library's layer boundaries, recorded from outside.

``install`` replaces module and class attributes of ``oscillabound`` with
wrappers that record one span per call (name, start, end, parent span, op
id, whether it raised) and puts the originals back afterwards.  Nothing
under ``src/`` is edited.  Spans stay in memory until the run ends.
"""

import bisect
import contextlib
import functools
import importlib
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name).  The attribute is patched where the
# caller looks it up: realosc imports isolate_positive_roots from polycore,
# so realosc's binding is the one its own calls go through.  The transforms
# are also patched in their own modules because the workloads call them
# there.
HOOKS = [
    ("realosc", "isolate_positive_roots", "polycore.isolate_positive_roots"),
    ("realosc", "compute_a0_real", "polycore.compute_a0_real"),
    ("realosc", "high_freq_constants", "polycore.high_freq_constants"),
    ("realosc", "osc_integral", "realosc.osc_integral"),
    ("realosc", "mu_hat_real", "realosc.mu_hat_real"),
    ("spectral", "mu_hat_real", "realosc.mu_hat_real"),
    ("spectral", "certified_constant_real", "realosc.certified_constant_real"),
    ("padic", "mu_hat_padic", "padic.mu_hat_padic"),
    ("spectral", "mu_hat_padic", "padic.mu_hat_padic"),
    ("padic", "CycNum.reduced", "padic.CycNum.reduced"),
    ("polycore", "RationalPoly.compose_linear", "polycore.RationalPoly.compose_linear"),
    ("spectral", "echelon_reduce", "padic.echelon_reduce"),
    ("spectral", "certified_bound_padic", "padic.certified_bound_padic"),
    ("spectral", "minimize_mu_hat", "spectral.minimize_mu_hat"),
    ("cli", "independence_pipeline", "spectral.independence_pipeline"),
    ("cli", "main", "cli.main"),
    ("cayleylab", "clique_search", "cayleylab.clique_search"),
]

TRANSFORMS = ("realosc.mu_hat_real", "padic.mu_hat_padic")
MINIMIZER = "spectral.minimize_mu_hat"

NAME, START, END, PARENT, OP, RAISED = range(6)


class NullTracer:
    """Untraced runs: wrapping is the identity."""

    op = None

    def wrap(self, name, fn):
        return fn


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.missing = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def install(self):
        """Wrap every hook that exists; restore the originals on exit."""
        saved = []
        try:
            for module_name, path, span_name in HOOKS:
                owner = importlib.import_module(f"oscillabound.{module_name}")
                *outer, attr = path.split(".")
                try:
                    for part in outer:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (AttributeError, KeyError):
                    self.missing.append(f"{module_name}.{path}")
                    print(f"perfbench: trace hook {module_name}.{path} not found", file=sys.stderr)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path, samples):
        """One JSON header line, then one JSON array per span: name index,
        start and end in ns from the first span, parent span, op id, raised.
        The header also lists the calibration kernel's runs as (start_ns,
        duration_ns); they ran inside whatever span was open."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        header = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "raised"],
            "names": names,
            "kernel_samples_ns": [[round((t - t0) * 1e9), round(d * 1e9)] for t, d in samples],
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header))
            fh.write("\n")
            for s in self.spans:
                start, end = round((s[START] - t0) * 1e9), round((s[END] - t0) * 1e9)
                fh.write(f"[{index[s[NAME]]},{start},{end},{s[PARENT]},{json.dumps(s[OP])},{int(s[RAISED])}]\n")


def summarize(spans, op_slice, samples=()):
    """Per span name: calls, inclusive seconds (outermost spans only, so
    recursion is not counted twice) in total and per op slice, self seconds
    (minus direct children) and raised count; plus the calls the transforms
    made from inside the minimizer and how many of those raised.

    `samples` are the calibration kernel's (start, duration) runs; the time
    of those that started inside a span is not counted as the span's."""
    times = [t for t, _ in samples]
    cum = list(itertools.accumulate((d for _, d in samples), initial=0.0))

    def duration(s):
        return s[END] - s[START] - (cum[bisect.bisect_left(times, s[END])] - cum[bisect.bisect_left(times, s[START])])

    durations = [duration(s) for s in spans]
    child_time = defaultdict(float)
    for s, dur in zip(spans, durations):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0, "s_by_slice": defaultdict(float)})
    in_minimizer = {"calls": 0, "raised": 0}
    for i, (s, dur) in enumerate(zip(spans, durations)):
        row = out[s[NAME]]
        row["calls"] += 1
        row["self_s"] += dur - child_time[i]
        row["raised"] += s[RAISED]
        ancestors = set()
        parent = s[PARENT]
        while parent >= 0:
            ancestors.add(spans[parent][NAME])
            parent = spans[parent][PARENT]
        if s[NAME] not in ancestors:
            row["s"] += dur
            row["s_by_slice"][op_slice.get(s[OP])] += dur
        if s[NAME] in TRANSFORMS and MINIMIZER in ancestors:
            in_minimizer["calls"] += 1
            in_minimizer["raised"] += s[RAISED]
    return dict(out), in_minimizer
