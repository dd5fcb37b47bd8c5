"""Observability for the repro pipeline: metrics, logs, traces, manifests.

- :mod:`repro.obs.metrics` — counters / gauges / histograms / span timers /
  per-link arrays with a no-op fast path when disabled and snapshot+merge
  semantics for cross-process aggregation;
- :mod:`repro.obs.trace` — packet-level flight recorder (columnar ring
  buffers, head-based sampling) plus latency decomposition, stall
  attribution and a route-membership audit;
- :mod:`repro.obs.compare` — cross-run regression diffing of manifests
  (``python -m repro.experiments compare-runs A B``);
- :mod:`repro.obs.ledger` — the persistent cross-run index: append-only,
  content-hash-deduplicated JSONL entries distilled from manifests and
  benchmark exports, with atomic concurrent-safe appends;
- :mod:`repro.obs.trend` — N-run trend analysis over the ledger (window
  median baselines, changepoints, per-host noise floors) and the
  ``python -m repro.experiments runs`` CLI family;
- :mod:`repro.obs.timeseries` — windowed simulator time series (per-window
  injection/ejection/latency/stall/occupancy/top-link rows) plus
  steady-state convergence detection and warmup-sufficiency reports;
- :mod:`repro.obs.linkstate` — dense per-window link-state matrices
  (flits forwarded / credit stalls / peak VC occupancy per directed
  link) across all three engine tiers;
- :mod:`repro.obs.forensics` — congestion forensics over that record:
  stall rankings, upstream backpressure trees, path attribution,
  onset detection, and the ``inspect`` CLI;
- :mod:`repro.obs.flowstats` — per-(src,dst)-pair flow telemetry
  (delivered / latency sum / latency max columns plus an exact mergeable
  latency histogram) across all three engine tiers;
- :mod:`repro.obs.fairness` — flow-level SLO analysis over that record:
  Jain's fairness index, per-pair percentile digests, victim-pair
  detection with link-state attribution, and the ``flows`` CLI;
- :mod:`repro.obs.recorder` / :mod:`repro.obs.layers` — the one
  lifecycle that ``trace`` / ``timeseries`` / ``linkstate`` /
  ``flowstats`` share (enable / capture / snapshot / merge / ``.npz``
  save and load) and the ordered registry that drives them and the
  metrics registry at once;
- :mod:`repro.obs.monitor` — live run monitor: worker heartbeats over a
  multiprocessing queue, in-place ANSI dashboard, stale-worker watchdog;
- :mod:`repro.obs.log` — structured events (stderr + JSONL + handlers);
- :mod:`repro.obs.progress` — completed/total + ETA reporting;
- :mod:`repro.obs.manifest` — per-run JSON manifests.

Typical embedding use::

    from repro.obs import metrics, trace
    reg = metrics.enable()            # opt in (off by default)
    rec = trace.enable(sample=64)     # record every 64th packet
    ... run experiments ...
    snap = reg.snapshot()             # JSON-able totals
    trace.save_trace("run.trace.npz")
"""

from repro.obs import (
    compare,
    fairness,
    flowstats,
    forensics,
    ledger,
    linkstate,
    log,
    metrics,
    monitor,
    timeseries,
    trace,
    trend,
)
from repro.obs.flowstats import FlowstatsRecorder
from repro.obs.linkstate import LinkstateRecorder
from repro.obs.manifest import build_manifest, topology_hash, write_manifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import Heartbeater, RunMonitor
from repro.obs.progress import Progress
from repro.obs.timeseries import TimeseriesRecorder
from repro.obs.trace import TraceAnalysis, TraceRecorder

__all__ = [
    "compare",
    "fairness",
    "flowstats",
    "forensics",
    "ledger",
    "linkstate",
    "log",
    "metrics",
    "monitor",
    "timeseries",
    "trace",
    "trend",
    "FlowstatsRecorder",
    "LinkstateRecorder",
    "Heartbeater",
    "MetricsRegistry",
    "Progress",
    "RunMonitor",
    "TimeseriesRecorder",
    "TraceAnalysis",
    "TraceRecorder",
    "build_manifest",
    "topology_hash",
    "write_manifest",
]
