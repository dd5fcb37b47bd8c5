"""The registry of capture layers: one ordered table, four operations.

A capture layer is a module with the lifecycle functions of
:class:`repro.obs.recorder.Slot` (``enabled`` / ``config`` / ``capture`` /
``merge_snapshot`` / ``disable`` ...).  The metrics registry keeps its own
module state (its hot paths read ``metrics._active`` directly) but
exposes the same functions, so it is a layer too.

Code that runs simulations on behalf of the active recorders — the
saturation grid's pool workers and batched lanes — drives every layer
through this table instead of one by one::

    cfgs = layers.active_configs()      # picklable, shipped to workers
    with layers.capture(cfgs) as recs:  # worker: fresh recorders
        ...run...
    snaps = {name: rec.snapshot() for name, rec in recs.items()}
    layers.merge(snaps)                 # parent: fold home in task order

A new layer is one module plus one :data:`LAYERS` entry.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, Mapping, Optional

from repro.obs import flowstats, linkstate, metrics, timeseries, trace

__all__ = ["LAYERS", "active_configs", "capture", "merge", "disable_all"]

#: Every capture layer by name, in merge order.
LAYERS = {
    "metrics": metrics,
    "trace": trace,
    "timeseries": timeseries,
    "linkstate": linkstate,
    "flowstats": flowstats,
}


def active_configs() -> Dict[str, dict]:
    """``{layer: construction parameters}`` for every enabled layer."""
    return {
        name: cfg
        for name, layer in LAYERS.items()
        if (cfg := layer.config()) is not None
    }


@contextmanager
def capture(cfgs: Mapping[str, dict]) -> Iterator[Dict[str, object]]:
    """Divert every layer in ``cfgs`` to a fresh recorder built from its
    config for the duration of the block; yields ``{layer: recorder}``."""
    with ExitStack() as stack:
        yield {
            name: stack.enter_context(LAYERS[name].capture(**cfg))
            for name, cfg in cfgs.items()
        }


def merge(snaps: Optional[Mapping[str, dict]]) -> None:
    """Fold ``{layer: snapshot}`` into the active recorders (no-op for
    ``None``); every layer's ``merge_snapshot`` skips an inactive side."""
    if snaps:
        for name, layer in LAYERS.items():
            if name in snaps:
                layer.merge_snapshot(snaps[name])


def disable_all() -> None:
    """Turn every capture layer off."""
    for layer in LAYERS.values():
        layer.disable()
