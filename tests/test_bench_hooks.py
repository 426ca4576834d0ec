"""The benchmark's tracer rebinds boselgt names from outside the package.

perfbench/spans.py wraps functions by looking them up in the modules whose
callers resolve them; a refactor that drops or moves one of those names
makes the traced benchmark fail or stop counting.  This loads spans.py by
path, instruments the package, runs two small Monte Carlo calls under
recording and checks that the layers it counts were seen.
"""

import importlib.util
from pathlib import Path

import pytest

from boselgt import bounds, partition
from boselgt.actions import ModelParams

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture()
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_instrument_rebinds_and_restores(spans):
    originals = {(m, a): m.__dict__[a] for m in (partition, bounds)
                 for a in ("haar_sample", "su2_haar", "bose_quadratic_form",
                           "logdet_posdef")}
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        for (module, attr), fn in originals.items():
            assert module.__dict__[attr].__wrapped__ is fn
        p = ModelParams(d=2, L=2, n=2, kind="SU")
        with tracer.recording("test"):
            partition.z_wilson_mc(p, 64, seed=0, gauge_fixed=True, block_size=32)
            bounds.verify_full_model(p, 64, seed=0, block_size=32)
    finally:
        tracer.restore()
    for (module, attr), fn in originals.items():
        assert module.__dict__[attr] is fn
    ix = spans.SpanIndex(tracer.spans)
    # Two blocks per call; the full-model blocks evaluate 1 plaquette each.
    assert ix.calls("mc.block") == 4
    # d = 2, L = 2: one retained bond of four.
    assert ix.counted("su2.haar") == 64 * 1 + 64 * 4
    assert ix.calls("su2.to_matrix") == 4
    assert ix.counted("actions.plaquette") == 64
