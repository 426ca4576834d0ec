"""The benchmark's tracer rebinds boselgt names from outside the package.

perfbench/spans.py wraps functions by looking them up in the modules whose
callers resolve them; a refactor that drops or moves one of those names
makes the traced benchmark fail or stop counting.  This loads spans.py by
path, instruments the package, runs small Monte Carlo and bose-exact calls
under recording and checks that the layers it counts were seen.
"""

import importlib.util
from pathlib import Path

import pytest

from boselgt import bounds, cli, partition
from boselgt.actions import ModelParams
from oracles import identity_bonds

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
    # d = 2, L = 2: one retained bond of four.  SU(2) bonds come from
    # haar_sample like every group's; its quaternion draw runs inside haar,
    # out of reach of the su2 names the tracer wraps.
    assert ix.counted("haar.sample") == 64 * 1 + 64 * 4
    assert ix.counted("su2.haar") == 0
    assert ix.calls("su2.to_matrix") == 0
    assert ix.counted("actions.plaquette") == 64
    # The full-model verifier factorises its forms in slices of about 2 MiB
    # of band and builder temporaries; a 32-sample block is one slice, so
    # one call per block, each on a band built where the tracer counts it.
    assert ix.calls("partition.logdet") == 2
    assert ix.calls("partition.bose_form") == ix.calls("partition.logdet")


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_u2_sampler_and_plaquettes_are_counted(spans):
    # U(2) bonds come from haar_sample, which the tracer wraps where
    # partition resolves it; a sampler that bypasses that name counts 0.
    p = ModelParams(d=3, L=2, n=2, kind="U")
    lat = p.lattice
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        with tracer.recording("test"):
            partition.z_wilson_mc(p, 64, seed=0, gauge_fixed=True, block_size=32)
            bounds.verify_full_model(p, 64, seed=0, block_size=32)
    finally:
        tracer.restore()
    ix = spans.SpanIndex(tracer.spans)
    assert ix.calls("mc.block") == 4
    assert ix.counted("haar.sample") == (
        64 * p.gauge_fixing.n_retained + 64 * lat.n_bonds)
    assert ix.counted("su2.haar") == 0
    # The tracer wraps plaquette_actions where bounds resolves it, so only
    # the full-model blocks are counted.
    assert ix.counted("actions.plaquette") == 64 * lat.n_plaquettes
    assert ix.calls("partition.logdet") == 2


@pytest.mark.parametrize("n,kind", [(2, "U"), (2, "SU")])
def test_bose_verifier_draws_are_counted_as_haar_samples(spans, n, kind):
    # One haar_sample call per block of BOSE_BLOCK_SIZE = 32 configurations
    # and one factorisation per slice of stacked forms: a block of d2 L3
    # forms fits in one slice.  Forty configurations make two blocks.
    p = ModelParams(d=2, L=3, n=n, kind=kind)
    assert bounds.BOSE_BLOCK_SIZE == 32
    for configs, blocks in [(5, 1), (40, 2)]:
        tracer = spans.Tracer()
        try:
            spans.instrument(tracer)
            with tracer.recording("test"):
                bounds.verify_bose_bounds(p, configs, seed=0)
        finally:
            tracer.restore()
        ix = spans.SpanIndex(tracer.spans)
        assert ix.calls("haar.sample") == blocks
        assert ix.counted("haar.sample") == configs * p.lattice.n_bonds
        assert ix.calls("partition.logdet") == blocks


def test_single_bond_values_are_counted_as_quadrature(spans):
    # The limits layer metrics count these spans; a route that bypasses the
    # names the tracer wraps reads as zero quadrature.
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        with tracer.recording("test"):
            partition.z_single_bond(10.0, 2)
            partition.z_single_bond(2.5, 2, kind="SU")
    finally:
        tracer.restore()
    ix = spans.SpanIndex(tracer.spans)
    assert ix.calls("haar.quad") == 1
    assert ix.calls("su2.quad") == 1


def test_bose_exact_factorises_once_per_record(spans, tmp_path):
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        with tracer.recording("test"):
            code = cli.main(["bose-exact", "--d", "2", "--L", "2",
                             "--gauge", "random",
                             "--output", str(tmp_path / "bose.json")])
    finally:
        tracer.restore()
    assert code == 0
    ix = spans.SpanIndex(tracer.spans)
    # The unscaled value is derived from the scaled one.
    assert ix.calls("partition.logdet") == 1
    assert ix.calls("partition.bose_form") == 1
    assert ix.busy("partition.bose_form") > 0.0
    assert ix.calls("partition.z_bose_exact") == 2


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_every_factorised_bose_band_is_built_where_it_is_counted(spans):
    # Several slices per full-model block, and one z_bose_exact: each
    # log-det call factorises one band from bose_quadratic_form.
    p = ModelParams(d=3, L=3, n=2, kind="SU")
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        with tracer.recording("test"):
            bounds.verify_full_model(p, 2048, seed=0, block_size=2048)
            partition.z_bose_exact(p, identity_bonds(2, p.lattice.n_bonds))
    finally:
        tracer.restore()
    ix = spans.SpanIndex(tracer.spans)
    assert ix.calls("partition.logdet") > 2
    assert ix.calls("partition.bose_form") == ix.calls("partition.logdet")
