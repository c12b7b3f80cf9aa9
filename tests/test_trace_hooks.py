"""The benchmark's per-layer metrics (perfbench/tracing.py) patch library
attributes by name and count the spans their wrappers record.  If a layer
stopped calling through a patched name, its metrics would read 0 and say
nothing; so one pipeline report per field must record exactly one span for
the minimizer and for each certificate layer of its field, and none for
the other field's."""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
from collections import Counter
from pathlib import Path

from oscillabound import cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

FAMILY = [["0", "1"], ["0", "0", "1"]]
PADIC_LAYERS = ("padic.echelon_reduce", "padic.certified_bound_padic")
REAL_LAYERS = ("realosc.certified_constant_real",)


def _traced_pipeline(cfg):
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with tracer.install(), contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["pipeline", path])
    assert code == 0, out.getvalue()
    assert not tracer.missing, tracer.missing
    return Counter(span[tracing.NAME] for span in tracer.spans)


def test_one_pipeline_report_records_each_certificate_layer_once():
    cases = (
        ({"family": FAMILY, "window": [1, 4], "field": {"padic": 3}, "budget": 5}, PADIC_LAYERS, REAL_LAYERS),
        ({"family": FAMILY, "window": [1, 2], "tol": 1e-3, "budget": 5}, REAL_LAYERS, PADIC_LAYERS),
    )
    for cfg, layers, other_field in cases:
        spans = _traced_pipeline(cfg)
        for name in ("cli.main", "spectral.independence_pipeline", tracing.MINIMIZER, *layers):
            assert spans[name] == 1, (cfg, name, spans)
        assert not any(spans[name] for name in other_field), (cfg, spans)
        transforms = sum(spans[name] for name in tracing.TRANSFORMS)
        assert 1 <= transforms <= 5, (cfg, spans)
        # the BENCH shares of CycNum.reduced rest on one reduction per p-adic transform
        assert spans["padic.CycNum.reduced"] == spans["padic.mu_hat_padic"], (cfg, spans)
