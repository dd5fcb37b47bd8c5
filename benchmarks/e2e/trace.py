"""Span recorder for the end-to-end benchmark.

The recorder measures layers from outside the program: it replaces a
class method or a module global with a wrapper that opens a span, calls
the original and closes the span, and it puts the original back on
``uninstall``.  Spans are kept in memory and written out as JSONL when the
run ends.  Each span has a name, start and end (``time.perf_counter``
seconds), a span id, its parent's id (0 at the top) and the run id shared
by every span of one workload execution, plus a few counts recorded at the
same boundary (``attrs``).

Only calls made a bounded number of times per run are wrapped: a layer
call per simulator run, per max-min solve or per snapshot merge, never a
per-packet call such as ``PathCache.get``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "Span", "Tracer", "LAYER_HOOKS", "install_layer_hooks",
    "self_times", "self_time_split", "covered_time", "layer_metrics",
]


class Span:
    """One timed call: ``[start, end]`` inside parent ``parent_id``."""

    __slots__ = ("name", "start", "end", "span_id", "parent_id", "run_id", "attrs")

    def __init__(self, name, start, end, span_id, parent_id, run_id, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.span_id = span_id
        self.parent_id = parent_id
        self.run_id = run_id
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "span_id": self.span_id, "parent_id": self.parent_id,
            "run_id": self.run_id, "attrs": self.attrs,
        }


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._patches: list = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else 0
        span = Span(name, time.perf_counter(), 0.0, self._next_id, parent, self.run_id)
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block as span ``name``; yields the span's attrs dict."""
        sp = self._open(name)
        sp.attrs.update(attrs)
        try:
            yield sp.attrs
        finally:
            self._close(sp)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or a module) with a traced call.

        ``before(args, kwargs)`` runs ahead of the call; ``after(args,
        kwargs, result, token)`` gets its return value as ``token`` and
        returns the span's attrs.
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            sp = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sp)
            if after is not None:
                sp.attrs.update(after(args, kwargs, result, token))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps(sp.to_dict(), sort_keys=True) + "\n")


# ------------------------------------------------------------ layer hooks
def _misses(args, kwargs):
    return args[0].misses


def _pairs_computed(args, kwargs, result, before):
    return {"pairs": args[0].misses - before}


def _sim_result(args, kwargs, result, before):
    return {
        "delivered": int(result.delivered),
        "saturated": int(bool(result.saturated)),
    }


def _batch_results(args, kwargs, result, before):
    return {
        "lanes": len(result),
        "delivered": sum(int(r.delivered) for r in result),
        "saturated": sum(int(bool(r.saturated)) for r in result),
    }


def _flows(args, kwargs, result, before):
    return {"flows": len(args[0])}


def _merged(args, kwargs, result, before):
    snap = args[-1] if args else kwargs.get("snap")
    return {"merged": int(snap is not None)}


#: (module, class name or None for a module global, attribute, span name,
#: before, after).  Module globals are wrapped where the caller looks them
#: up: ``repro.appsim.simulator.maxmin_rates`` is the solver as
#: ``run_flows`` calls it.
LAYER_HOOKS: Sequence[tuple] = (
    ("repro.topology.jellyfish", "Jellyfish", "__init__", "topology.build", None, None),
    ("repro.core.cache", "PathCache", "precompute", "core.precompute",
     _misses, _pairs_computed),
    ("repro.core.cache", "PathCache", "precompute_parallel", "core.precompute",
     _misses, _pairs_computed),
    ("repro.core.store", "ArenaStore", "load", "core.store_load", None,
     lambda a, k, r, t: {"pairs": int(r)}),
    ("repro.core.store", "ArenaStore", "save", "core.store_save", None, None),
    ("repro.experiments.figs_netsim", None, "saturation_throughput",
     "netsim.sweep", None, None),
    ("repro.netsim.parallel", None, "saturation_throughput", "netsim.sweep",
     None, None),
    ("repro.netsim.simulator", "Simulator", "run", "netsim.run", None, _sim_result),
    ("repro.netsim.batchcore", "BatchSimulator", "run", "netsim.batch", None,
     _batch_results),
    ("repro.obs.metrics", None, "merge_snapshot", "obs.merge", None, _merged),
    ("repro.obs.timeseries", None, "merge_snapshot", "obs.merge", None, _merged),
    ("repro.obs.linkstate", None, "merge_snapshot", "obs.merge", None, _merged),
    ("repro.obs.flowstats", None, "merge_snapshot", "obs.merge", None, _merged),
    ("repro.obs.trace", None, "merge_snapshot", "obs.merge", None, _merged),
    ("repro.obs.metrics", "MetricsRegistry", "merge", "obs.merge", None, _merged),
    ("repro.obs.timeseries", "TimeseriesRecorder", "merge", "obs.merge", None, _merged),
    ("repro.obs.linkstate", "LinkstateRecorder", "merge", "obs.merge", None, _merged),
    ("repro.obs.flowstats", "FlowstatsRecorder", "merge", "obs.merge", None, _merged),
    ("repro.obs.metrics", "MetricsRegistry", "snapshot", "obs.snapshot", None, None),
    ("repro.obs.timeseries", "TimeseriesRecorder", "snapshot", "obs.snapshot", None, None),
    ("repro.obs.linkstate", "LinkstateRecorder", "snapshot", "obs.snapshot", None, None),
    ("repro.obs.flowstats", "FlowstatsRecorder", "snapshot", "obs.snapshot", None, None),
    ("repro.experiments.tables_stencil", None, "stencil_time", "appsim.stencil",
     None, None),
    ("repro.appsim.workload", None, "build_workload", "appsim.flow_build",
     None, lambda a, k, r, t: {"flows": len(r)}),
    ("repro.appsim.workload", None, "run_flows", "appsim.run_flows", None, _flows),
    ("repro.appsim.simulator", None, "maxmin_rates", "appsim.maxmin", None, _flows),
)


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap every call site in :data:`LAYER_HOOKS` with ``tracer``."""
    for module, cls, attr, name, before, after in LAYER_HOOKS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, before, after)


# ------------------------------------------------------------- analysis
def _union_length(intervals: Iterable[tuple]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``{span id: duration minus the part of it its children cover}``."""
    children: Dict[int, list] = {}
    for sp in spans:
        children.setdefault(sp.parent_id, []).append(sp)
    out = {}
    for sp in spans:
        kids = [
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.span_id, ())
            if c.end > sp.start and c.start < sp.end
        ]
        out[sp.span_id] = sp.duration - _union_length(kids)
    return out


def covered_time(spans: Sequence[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by at least one span."""
    return _union_length(
        (max(s.start, start), min(s.end, end))
        for s in spans if s.end > start and s.start < end
    )


def _outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans called ``name`` that are not nested in a span of that name."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent_id)
        nested = False
        while p is not None:
            if p.name == name:
                nested = True
                break
            p = by_id.get(p.parent_id)
        if not nested:
            out.append(s)
    return out


def _total(spans, name) -> float:
    return sum(s.duration for s in _outermost(spans, name))


def _tail(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` samples that is the ``1 - 10/n`` quantile (linear
    interpolation); with ten or fewer samples no such percentile exists
    and the maximum is reported.
    """
    if not values:
        return 0.0
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1]
    pos = (1.0 - 10.0 / n) * (n - 1)
    lo = int(pos)
    frac = pos - lo
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced workload execution.

    Times are inclusive (a layer's span with its children); the self-time
    split is in the JSONL spans.  A layer the workload never calls reads 0.
    """
    spans = list(spans)
    runs = [s for s in spans if s.name == "netsim.run"]
    batches = [s for s in spans if s.name == "netsim.batch"]
    run_s = [s.duration for s in runs]
    run_total = sum(run_s)
    batch_total = _total(spans, "netsim.batch")
    lanes = sum(s.attrs.get("lanes", 0) for s in batches)
    delivered = sum(s.attrs.get("delivered", 0) for s in runs + batches)
    saturated = sum(s.attrs.get("saturated", 0) for s in runs + batches)
    precompute = _outermost(spans, "core.precompute")
    precompute_s = sum(s.duration for s in precompute)
    pairs = sum(s.attrs.get("pairs", 0) for s in precompute)
    maxmin = [s for s in spans if s.name == "appsim.maxmin"]
    maxmin_flows = sum(s.attrs.get("flows", 0) for s in maxmin)
    merges = _outermost(spans, "obs.merge")
    return {
        "topology.build_s": _total(spans, "topology.build"),
        "core.precompute_s": precompute_s,
        "core.pairs_computed": pairs,
        "core.pairs_per_s": pairs / precompute_s if precompute_s > 0 else 0.0,
        "core.store_save_s": _total(spans, "core.store_save"),
        "core.store_load_s": _total(spans, "core.store_load"),
        "core.report_s": _total(spans, "core.report"),
        "netsim.sweep_s": _total(spans, "netsim.sweep"),
        "netsim.rungs": len(runs) + lanes,
        "netsim.runs": len(runs),
        "netsim.run_s": run_total,
        "netsim.run_s.p50": statistics.median(run_s) if run_s else 0.0,
        "netsim.run_s.tail": _tail(run_s),
        "netsim.saturated_runs": saturated,
        "netsim.packets_delivered": delivered,
        "netsim.host_us_per_packet": (
            1e6 * (run_total + batch_total) / delivered if delivered else 0.0
        ),
        "netsim.batch_s": batch_total,
        "netsim.batches": len(batches),
        "netsim.lanes_per_batch": lanes / len(batches) if batches else 0.0,
        "netsim.grid_s": _total(spans, "netsim.grid"),
        "obs.merge_s": sum(s.duration for s in merges),
        "obs.merges": sum(s.attrs.get("merged", 1) for s in merges),
        "obs.snapshot_s": _total(spans, "obs.snapshot"),
        "obs.save_s": _total(spans, "obs.save"),
        "appsim.maxmin_s": _total(spans, "appsim.maxmin"),
        "appsim.maxmin_calls": len(maxmin),
        "appsim.flows_per_solve": maxmin_flows / len(maxmin) if maxmin else 0.0,
        "appsim.run_flows_s": _total(spans, "appsim.run_flows"),
        "appsim.flow_build_s": _total(spans, "appsim.flow_build"),
    }


def self_time_split(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name: where the traced time went."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.span_id]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
