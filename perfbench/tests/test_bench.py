"""Self-tests of the benchmark: its arithmetic on synthetic inputs and one
toy-sized run of the gauge-mc workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import statistics
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Span, SpanIndex, Tracer, union_length  # noqa: E402


def _span(sid, name, parent, tid, start, end):
    s = Span(sid, name, parent, tid, start)
    s.end = end
    return s


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 4)]) == 3
    assert union_length([(2, 5), (4, 6), (0, 1), (5.5, 5.7)]) == 5


def test_self_time_subtracts_only_same_thread_children():
    spans = [
        _span(0, "mc.map_blocks", None, 1, 0.0, 10.0),
        _span(1, "mc.block", 0, 1, 2.0, 5.0),     # caller thread runs a block
        _span(2, "mc.block", 0, 2, 1.0, 9.0),     # worker thread, overlaps
        _span(3, "haar.sample", 2, 2, 1.0, 4.0),  # inside the worker block
        _span(4, "haar.sample", 2, 2, 3.0, 6.0),  # overlaps its sibling
    ]
    ix = SpanIndex(spans)
    assert ix.self_time(spans[0]) == pytest.approx(7.0)
    assert ix.self_time(spans[2]) == pytest.approx(8.0 - 5.0)
    assert ix.total_self("mc.block") == pytest.approx(3.0 + 3.0)
    # Thread-summed busy time may exceed the wall of the enclosing call.
    assert ix.busy("mc.block") == pytest.approx(11.0)
    assert ix.busy("haar.sample", under="mc.map_blocks") == pytest.approx(6.0)


def test_nested_spans_of_one_layer_count_once():
    spans = [_span(0, "lattice.tables", None, 1, 0.0, 4.0),
             _span(1, "lattice.tables", 0, 1, 1.0, 2.0),
             _span(2, "lattice.tables", None, 1, 5.0, 6.0)]
    ix = SpanIndex(spans)
    assert ix.calls("lattice.tables") == 2
    assert ix.busy("lattice.tables") == pytest.approx(5.0)


def test_tracer_parents_block_spans_across_threads_and_records_errors():
    tracer = Tracer()
    with tracer.recording("bench.op") as op:
        block = tracer.traced(lambda: 1, "mc.block", parent=op.sid)
        worker = threading.Thread(target=block)
        worker.start()
        worker.join(timeout=10)
        fail = tracer.traced(lambda: 1 / 0, "inner")
        with pytest.raises(ZeroDivisionError):
            fail()
    assert not worker.is_alive()
    blk, inner = tracer.spans[1], tracer.spans[2]
    assert blk.parent == op.sid and blk.tid != op.tid
    assert inner.parent == op.sid and inner.error
    assert not tracer.active and tracer._stack() == []


@pytest.mark.parametrize("n, expect", [
    (5, 4),         # too few passes: the upper quartile
    (15, 11.5),     # the 5th value has ten beyond but lies below 11.5
    (30, 22.75),    # the 20th value has ten beyond, still below 22.75
    (41, 31),       # the 31st value has ten beyond and is the upper quartile
    (100, 90),      # the 90th value has exactly ten beyond
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expect):
    times = list(np.random.default_rng(n).permutation(np.arange(1, n + 1)))
    assert run.tail_value([float(t) for t in times]) == expect


def test_typical_wall_is_the_upper_quartile():
    assert run.typical_wall([3.0, 1.0]) == pytest.approx(2.5)
    assert run.typical_wall([1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0
    # A fast regime held for just over half the run moves the median, not
    # the upper quartile.
    slow, fast = [0.45] * 30, [0.28] * 32
    assert statistics.median(slow + fast) != statistics.median(slow + fast[:2])
    assert run.typical_wall(slow + fast) == run.typical_wall(slow + fast[:2])


def test_time_to_target_error_scales_with_squared_error():
    assert run.time_to_rel_err(2.0, 0.05) == pytest.approx(50.0)
    assert run.time_to_rel_err(2.0, 0.005) == pytest.approx(0.5)


def test_ess_fraction_matches_kish_on_weights():
    w = np.random.default_rng(1).lognormal(sigma=1.5, size=20_000)
    n = w.size
    rel_err = np.std(w, ddof=1) / (np.mean(w) * np.sqrt(n))
    kish = np.sum(w) ** 2 / np.sum(w * w) / n
    assert run.ess_fraction(n, rel_err) == pytest.approx(kish, rel=1e-3)
    assert run.ess_fraction(100, 0.1) == pytest.approx(0.5)


def _declared(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_toy_gauge_mc_run_reports_every_metric(trace, kind):
    import boselgt.partition
    from boselgt.lattice import GaugeFixing, Lattice

    def bound_names():
        return (boselgt.partition.haar_sample,
                GaugeFixing.__dict__["enhanced_temporal"],
                Lattice.__dict__["_plaq_arrays"].func)

    before = bound_names()
    outcome, prov = run.run("gauge-mc", seed=3, seconds=0.05, trace=trace,
                            scale=0.02, setup_repeats=1)
    assert outcome.failed == 0, outcome.problems()
    assert outcome.attempted >= 4
    declared = _declared(kind)
    assert set(outcome.metrics) == set(declared)
    for name, value in outcome.metrics.items():
        assert run.unit_of(name) == declared[name]
        assert np.isfinite(value)
    assert prov["seed"] == 3 and prov["workers"] == 2
    assert bound_names() == before  # every rebinding undone
    if trace:
        assert 0.0 < outcome.metrics["trace.coverage_frac"] <= 1.0
        assert outcome.metrics["mc.blocks"] > 0
        assert Path(outcome.info["spans_file"]).is_file()
