"""Spans around boselgt's layers, recorded from outside the package.

Each public function a caller uses is wrapped by rebinding the name in the
module where that caller looks it up (``boselgt.partition.haar_sample`` is
the name z_wilson_mc resolves, ``boselgt.bounds.haar_sample`` the one the
full-model verifier resolves).  ``mc.map_blocks`` also wraps the block_fn
it receives, so every Monte Carlo block gets a span in the thread that runs
it, parented to the map_blocks span in the calling thread.

Spans are kept in memory: name, start, end, parent, thread id, plus a count
of work done (matrices, points, bytes, flops) where the layer has one.
A span's self time is its duration minus the union of its children's
intervals on the same thread, because with --workers 2 blocks of one
map_blocks call overlap each other on two threads.
"""

import json
import math
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("sid", "name", "parent", "tid", "start", "end", "count",
                 "error", "workers")

    def __init__(self, sid, name, parent, tid, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.tid = tid
        self.start = start
        self.end = start
        self.count = 0
        self.error = False
        self.workers = 1

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans while active; rebinding is undone by restore()."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # ---- recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
        with self._lock:
            span = Span(len(self.spans), name, parent,
                        threading.get_ident(), time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def recording(self, name):
        """A top-level span during which the wrapped layers record spans."""
        span = self.open(name)
        self.active = True
        try:
            yield span
        finally:
            self.active = False
            self.close(span)

    def traced(self, fn, name, count=None, prepare=None, parent=None):
        """fn wrapped in a span; count(args, kwargs, result) sets span.count,
        prepare(span, args, kwargs) may replace the arguments."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name, parent)
            try:
                if prepare is not None:
                    args, kwargs = prepare(span, args, kwargs)
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(args, kwargs, result)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- rebinding

    def rebind(self, owner, attr, name, count=None, prepare=None):
        """Replace owner.attr (function, classmethod or cached_property)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.traced(raw.__func__, name, count, prepare))
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, raw))
        elif hasattr(raw, "func") and hasattr(raw, "attrname"):  # cached_property
            func = raw.func
            raw.func = self.traced(func, name, count, prepare)
            self._undo.append(lambda: setattr(raw, "func", func))
        else:
            setattr(owner, attr, self.traced(raw, name, count, prepare))
            self._undo.append(lambda: setattr(owner, attr, raw))

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        return path


# ------------------------------------------------------------ the layers

def _leading_size(result, trailing):
    return math.prod(result.shape[:result.ndim - trailing])


def _map_blocks_prepare(tracer):
    def prepare(span, args, kwargs):
        span.workers = kwargs.get("n_workers", args[3] if len(args) > 3 else 1)
        block = tracer.traced(args[0], "mc.block", parent=span.sid)
        return (block,) + tuple(args[1:]), kwargs
    return prepare


def _file_bytes(args, kwargs, result):
    return Path(result).stat().st_size


def instrument(tracer):
    """Wrap every layer boundary the CLI workloads cross."""
    from boselgt import (actions, bounds, cli, lattice, mc, partition, records,
                         rmt, su2)

    matrices = lambda a, k, r: _leading_size(r, 2)
    points = lambda a, k, r: _leading_size(r, 1)
    square_bytes = lambda a, k, r: 8 * r.shape[-1] * r.shape[-1]
    cholesky_flops = lambda a, k, r: a[0].shape[-1] ** 3 / 3.0
    plaquettes = lambda a, k, r: r.size

    for attr in ("site_coords", "_bond_arrays", "_plaq_arrays"):
        tracer.rebind(lattice.Lattice, attr, "lattice.tables")
    tracer.rebind(lattice.GaugeFixing, "enhanced_temporal", "lattice.tables")

    for mod in (partition, bounds, actions):
        tracer.rebind(mod, "haar_sample", "haar.sample", count=matrices)
    for mod in (partition, bounds):
        tracer.rebind(mod, "su2_haar", "su2.haar", count=points)
    for mod in (partition, su2):  # bounds imports su2_to_matrix lazily from su2
        tracer.rebind(mod, "su2_to_matrix", "su2.to_matrix")
    for mod, attr in ((partition, "weyl_integrate"),
                      (partition, "peaked_cue_integral"),
                      (rmt, "peaked_cue_integral"), (bounds, "gue_integral")):
        tracer.rebind(mod, attr, "haar.quad")
    for attr in ("su2_z_weyl_coupling", "su2_z_gluon"):
        tracer.rebind(su2, attr, "su2.quad")
    tracer.rebind(cli, "su2_bounds_check", "su2.bounds_check")

    tracer.rebind(bounds, "plaquette_actions", "actions.plaquette",
                  count=plaquettes)

    for mod in (cli, bounds):
        tracer.rebind(mod, "z_wilson_mc", "partition.z_wilson_mc")
    for mod in (partition, bounds):
        tracer.rebind(mod, "bose_quadratic_form", "partition.bose_form",
                      count=square_bytes)
        tracer.rebind(mod, "logdet_posdef", "partition.logdet",
                      count=cholesky_flops)
    for attr in ("z_bose_exact", "z_bose_exact_unscaled"):
        tracer.rebind(cli, attr, "partition.z_bose_exact")
    for mod in (partition, rmt, bounds, cli):
        tracer.rebind(mod, "z_single_bond", "partition.z_single_bond")
    tracer.rebind(cli, "z_wilson_d2_exact", "partition.z_wilson_d2_exact")

    tracer.rebind(cli, "verify_bose_bounds", "bounds.verify_bose")
    tracer.rebind(cli, "verify_full_model", "bounds.verify_full")
    tracer.rebind(bounds.BoundConstants, "for_params", "bounds.constants")

    for attr in ("w_ratio", "d2_free_energy"):
        tracer.rebind(rmt, attr, "rmt.point")
    for attr in ("sweep_cue_gue", "sweep_d2_limit"):
        tracer.rebind(cli, attr, "rmt.sweep")

    tracer.rebind(mc, "map_blocks", "mc.map_blocks",
                  prepare=_map_blocks_prepare(tracer))
    tracer.rebind(mc, "sample_mean", "mc.sample_mean")

    tracer.rebind(records.ResultRecord, "write", "records.write",
                  count=_file_bytes)
    tracer.rebind(cli, "write_csv", "records.write", count=_file_bytes)
    tracer.rebind(cli, "resolve_config", "cli.resolve")
    tracer.rebind(cli, "build_parser", "cli.parser")


# ------------------------------------------------------------ arithmetic

def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Self times and ancestry over a list of finished spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def self_time(self, span):
        """Duration minus what children on the same thread cover."""
        own = [(max(c.start, span.start), min(c.end, span.end))
               for c in self.children.get(span.sid, ()) if c.tid == span.tid]
        return span.duration - union_length([iv for iv in own if iv[1] > iv[0]])

    def ancestors(self, span):
        sid = span.parent
        while sid is not None:
            anc = self.by_id[sid]
            yield anc
            sid = anc.parent

    def named(self, names, under=None):
        """Spans whose name is in names (optionally with an ancestor named
        under), skipping those nested in another span of the same set."""
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for s in self.spans:
            if s.name not in names:
                continue
            anc = [a.name for a in self.ancestors(s)]
            if any(a in names for a in anc):
                continue
            if under is not None and under not in anc:
                continue
            out.append(s)
        return out

    def busy(self, names, under=None):
        return sum(s.duration for s in self.named(names, under))

    def total_self(self, names, under=None):
        return sum(self.self_time(s) for s in self.named(names, under))

    def calls(self, names, under=None):
        return len(self.named(names, under))

    def counted(self, names):
        return sum(s.count for s in self.named(names))


def layer_metrics(spans, n_passes):
    """Per-layer busy times (thread-summed), counts and ratios per pass."""
    ix = SpanIndex(spans)
    per = 1.0 / n_passes

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    haar_s = ix.busy("haar.sample") * per
    haar_n = ix.counted("haar.sample") * per
    logdet_s = ix.busy("partition.logdet") * per
    logdet_flops = ix.counted("partition.logdet") * per
    maps = ix.named("mc.map_blocks")
    block_busy = ix.busy("mc.block") * per
    worker_wall = sum(s.duration * s.workers for s in maps) * per
    m = {
        "lattice.tables_s": ix.busy("lattice.tables") * per,
        "lattice.tables_built": ix.calls("lattice.tables") * per,
        "haar.sample_s": haar_s,
        "haar.matrices": haar_n,
        "haar.ns_per_matrix": ratio(haar_s * 1e9, haar_n),
        "haar.quad_s": ix.busy("haar.quad") * per,
        "haar.quad_calls": ix.calls("haar.quad") * per,
        "haar.quad_failures": sum(s.error for s in ix.named("haar.quad")) * per,
        "su2.sample_s": ix.busy(("su2.haar", "su2.to_matrix")) * per,
        "su2.points": ix.counted("su2.haar") * per,
        "su2.quad_s": ix.busy("su2.quad") * per,
        "actions.plaquette_s": ix.busy("actions.plaquette") * per,
        "actions.plaquette_evals": ix.counted("actions.plaquette") * per,
        "partition.mc_block_s": ix.busy("mc.block", "partition.z_wilson_mc") * per,
        "partition.mc_block_self_s":
            ix.total_self("mc.block", "partition.z_wilson_mc") * per,
        "partition.bose_form_s": ix.busy("partition.bose_form") * per,
        "partition.bose_form_calls": ix.calls("partition.bose_form") * per,
        "partition.bose_form_bytes": ix.counted("partition.bose_form") * per,
        "partition.logdet_s": logdet_s,
        "partition.logdet_calls": ix.calls("partition.logdet") * per,
        "partition.logdet_flops": logdet_flops,
        "partition.logdet_gflops": ratio(logdet_flops / 1e9, logdet_s),
        "partition.z_single_bond_s": ix.busy("partition.z_single_bond") * per,
        "partition.z_single_bond_calls": ix.calls("partition.z_single_bond") * per,
        "bounds.verify_bose_s": ix.busy("bounds.verify_bose") * per,
        "bounds.verify_full_s": ix.busy("bounds.verify_full") * per,
        "bounds.full_block_self_s":
            ix.total_self("mc.block", "bounds.verify_full") * per,
        "rmt.point_s": ix.busy("rmt.point") * per,
        "rmt.points": ix.calls("rmt.point") * per,
        "mc.map_blocks_s": ix.busy("mc.map_blocks") * per,
        "mc.blocks": ix.calls("mc.block") * per,
        "mc.block_busy_s": block_busy,
        "mc.reduce_s": ix.total_self("mc.sample_mean") * per,
        "mc.worker_util": ratio(block_busy, worker_wall),
        "records.write_s": ix.busy("records.write") * per,
        "records.files": ix.calls("records.write") * per,
        "records.bytes": ix.counted("records.write") * per,
        "cli.resolve_s": ix.busy("cli.resolve") * per,
        "cli.parser_s": ix.busy("cli.parser") * per,
    }
    ops = ix.named("bench.op")
    op_time = sum(s.duration for s in ops)
    m["trace.coverage_frac"] = ratio(op_time - sum(ix.self_time(s) for s in ops),
                                     op_time)
    m["trace.spans"] = len(spans) * per
    return m


LAYER_UNITS = {
    "lattice.tables_s": "s", "lattice.tables_built": "count",
    "haar.sample_s": "s", "haar.matrices": "count", "haar.ns_per_matrix": "ns",
    "haar.quad_s": "s", "haar.quad_calls": "count",
    "haar.quad_failures": "count",
    "su2.sample_s": "s", "su2.points": "count", "su2.quad_s": "s",
    "actions.plaquette_s": "s", "actions.plaquette_evals": "count",
    "partition.mc_block_s": "s", "partition.mc_block_self_s": "s",
    "partition.bose_form_s": "s", "partition.bose_form_calls": "count",
    "partition.bose_form_bytes": "B",
    "partition.logdet_s": "s", "partition.logdet_calls": "count",
    "partition.logdet_flops": "flop", "partition.logdet_gflops": "GFLOP/s",
    "partition.z_single_bond_s": "s", "partition.z_single_bond_calls": "count",
    "bounds.verify_bose_s": "s", "bounds.verify_full_s": "s",
    "bounds.full_block_self_s": "s",
    "rmt.point_s": "s", "rmt.points": "count",
    "mc.map_blocks_s": "s", "mc.blocks": "count", "mc.block_busy_s": "s",
    "mc.reduce_s": "s", "mc.worker_util": "1",
    "mc.samples_per_s": "1/s", "mc.time_to_1pct_s": "s", "mc.ess_frac": "1",
    "mc.speedup_2w": "1", "mc.error_bar_misses": "count",
    "records.write_s": "s", "records.files": "count", "records.bytes": "B",
    "cli.resolve_s": "s", "cli.parser_s": "s", "cli.import_s": "s", "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s", "cli.import_boselgt_s": "s",
    "trace.overhead_frac": "1", "trace.coverage_frac": "1",
    "trace.spans": "count",
}
