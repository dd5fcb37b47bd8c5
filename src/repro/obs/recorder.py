"""One lifecycle for the capture layers: the process-wide recorder slot.

Every capture layer (:mod:`~repro.obs.trace`, :mod:`~repro.obs.timeseries`,
:mod:`~repro.obs.linkstate`, :mod:`~repro.obs.flowstats`) keeps one active
recorder per process behind the same module functions.  :class:`Slot`
implements them once; a layer module binds its public functions to one
instance::

    _slot = Slot(LinkstateRecorder, LINKSTATE_FORMAT, ("window",))
    enable = _slot.enable
    ...
    save_linkstate = _slot.save

The design rules every layer shares:

- **NOOP off.**  :meth:`Slot.active` is ``None`` while the layer is off;
  simulators read it once at construction and pay nothing after that.
- **Task-order merge.**  :meth:`Slot.capture` scopes a fresh recorder
  (pool workers, batched lanes); its snapshot merges back with run-id
  offsets (:meth:`Slot.merge_snapshot`), so shards merged in task order
  equal one serial recording.
- **Format-tagged ``.npz`` persistence** next to the run manifest
  (:meth:`Slot.save` / :meth:`Slot.load`).

The registry that drives all layers at once is :mod:`repro.obs.layers`.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence
from zipfile import BadZipFile

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Slot"]


class Slot:
    """The active recorder of one capture layer and its lifecycle.

    Parameters
    ----------
    factory:
        The recorder class; :meth:`enable` and :meth:`capture` pass their
        arguments straight to it.
    fmt:
        The layer's format tag, stored in every snapshot and checked on
        :meth:`load`.
    config_keys:
        Recorder attributes that reconstruct it in a pool worker
        (:meth:`config`).
    """

    def __init__(
        self, factory: Callable, fmt: str, config_keys: Sequence[str] = ()
    ):
        self.factory = factory
        self.format = fmt
        self.config_keys = tuple(config_keys)
        self.recorder = None

    def enable(self, *args, **kwargs):
        """Install (and return) a fresh active recorder built from the
        arguments (the recorder class's own parameters)."""
        self.recorder = self.factory(*args, **kwargs)
        return self.recorder

    def disable(self) -> None:
        """Turn the layer off; simulators built after this pay nothing."""
        self.recorder = None

    def enabled(self) -> bool:
        return self.recorder is not None

    def active(self):
        return self.recorder

    def config(self) -> Optional[dict]:
        """The active recorder's construction parameters (for pool workers).

        ``None`` when the layer is off.  A recorder without parameters
        gives ``{}``, so callers must test ``is not None``, not truthiness.
        """
        rec = self.recorder
        if rec is None:
            return None
        return {key: getattr(rec, key) for key in self.config_keys}

    @contextmanager
    def capture(self, **kwargs) -> Iterator:
        """Divert recording to a fresh recorder for the duration of the block.

        Pool workers scope one task's record with this (parameterised by
        the parent's :meth:`config`); the previous state is restored on
        exit.
        """
        prev = self.recorder
        fresh = self.recorder = self.factory(**kwargs)
        try:
            yield fresh
        finally:
            self.recorder = prev

    def snapshot(self) -> Optional[dict]:
        """Snapshot of the active recorder, or ``None`` when disabled."""
        rec = self.recorder
        return None if rec is None else rec.snapshot()

    def merge_snapshot(self, snap: Optional[Mapping]) -> None:
        """Merge a worker snapshot into the active recorder (no-op if either
        side is absent)."""
        rec = self.recorder
        if rec is not None and snap is not None:
            rec.merge(snap)

    def save(self, path, snap: Optional[Mapping] = None):
        """Write a snapshot as a compressed ``.npz``; returns the path.

        With ``snap=None`` the active recorder's snapshot is written (a
        no-op returning ``None`` when the layer is disabled).
        """
        if snap is None:
            snap = self.snapshot()
            if snap is None:
                return None
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(snap)
        doc["runs"] = json.dumps(doc.get("runs", []))
        np.savez_compressed(path, **doc)
        return path

    def load(self, path) -> dict:
        """Load a :meth:`save` file back into snapshot form.

        Raises :class:`~repro.errors.ConfigurationError` naming ``path``
        when the file is not a readable ``.npz`` archive (truncated,
        corrupt, or not an archive at all) or holds another format.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                snap = {key: data[key] for key in data.files}
        # A damaged archive fails in the zip reader (BadZipFile, bad
        # offsets, unknown compression or encryption flags), in zlib, or
        # in the .npy header parser, depending on which bytes it lost.
        except (
            BadZipFile, EOFError, OSError, RuntimeError, ValueError, zlib.error,
        ) as exc:
            raise ConfigurationError(
                f"{path} is not a readable .npz archive ({exc})"
            ) from exc
        # 0-d members (format tag, counts) come back as Python scalars.
        snap = {k: v.item() if v.ndim == 0 else v for k, v in snap.items()}
        snap["format"] = str(snap.get("format", ""))
        if snap["format"] != self.format:
            raise ConfigurationError(
                f"{path} is not a {self.format} file "
                f"(format={snap['format']!r})"
            )
        snap["runs"] = json.loads(str(snap.get("runs", "[]")))
        return snap
