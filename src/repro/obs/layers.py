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

A layer that writes an artifact saves one snapshot per run to
:func:`artifact_name` next to the run manifest; the experiment CLI
names its runs ``<experiment>-<scale>``, and the ``inspect`` and
``flows`` reports find their inputs and sibling files by the same rule.

A new layer is one module plus one :data:`LAYERS` entry; the experiment
CLI reaches it with one ``CAPTURE_FLAGS`` row in
:mod:`repro.experiments.runner` and its flag.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, Mapping, Optional

from repro.obs import flowstats, linkstate, metrics, timeseries, trace

__all__ = [
    "LAYERS", "active_configs", "artifact_name", "artifact_suffix", "capture",
    "merge", "disable_all",
]

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


def artifact_suffix(layer: str) -> str:
    """``.<layer>.npz``, the ending of every file ``layer`` is saved to."""
    return f".{layer}.npz"


def artifact_name(stem: str, layer: str) -> str:
    """``<stem>.<layer>.npz``: the file the run named ``stem`` saves
    ``layer``'s snapshot to."""
    return stem + artifact_suffix(layer)
