"""Simulator configuration (the paper's Booksim parameter block)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

from repro.errors import ConfigurationError

__all__ = ["SimConfig"]

#: Cycle, size and count fields: anything but an integer either crashes
#: deep inside an engine or silently changes a result.
_INT_FIELDS = (
    "channel_latency",
    "vc_buffer",
    "input_speedup",
    "warmup_cycles",
    "sample_cycles",
    "n_samples",
    "drain_max_cycles",
    "batch_lanes",
)


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the flit-level simulator, defaulted to the paper's values.

    Every run simulates one fixed cycle budget, as the paper's Booksim
    runs do: ``warmup_cycles``, then ``n_samples`` samples of
    ``sample_cycles`` each.

    Attributes
    ----------
    channel_latency:
        Cycles a flit spends on any channel (paper: 10).
    vc_buffer:
        Flit capacity of each (input port, VC) buffer (paper: 32).
    input_speedup:
        Flits one input port may forward per cycle (paper: router speedup
        2.0 — the crossbar, not the links, runs at twice line rate).
    warmup_cycles:
        Cycles simulated before statistics collection starts (paper: 500).
    sample_cycles:
        Length of one measurement sample (paper: 500).
    n_samples:
        Number of samples collected (paper: 10, i.e. 5000 cycles).
    saturation_latency:
        A run counts as saturated when any sample's average packet latency
        exceeds this (paper: 500 cycles).
    drain_max_cycles:
        Safety bound on extra cycles when draining in-flight packets for
        conservation checks (not part of the paper methodology).
    adaptive_estimate:
        Latency-estimate flavour for the adaptive mechanisms: ``"path"``
        (queued flits summed along the whole source route plus pipeline
        delay, the default) or ``"first"`` (classic UGAL-L first-channel
        queue x hops product; kept for the ablation study).
    engine:
        Simulator core: ``"fast"`` (the default array-native core of
        :mod:`repro.netsim.fastcore`) or ``"reference"`` (the original
        object-per-packet implementation, kept for audits).  Both produce
        byte-identical results; the equivalence suite pins this.
    batch_lanes:
        Maximum independent runs stepped in lock-step by the batched
        engine (:mod:`repro.netsim.batchcore`) when a grid packs cells
        into lanes.  ``1`` (the default) keeps every run on the plain
        per-run engine.  Lanes require the array-native core underneath,
        so ``batch_lanes > 1`` with ``engine="reference"`` is a
        configuration error rather than a silent per-cell fallback.
    """

    channel_latency: int = 10
    vc_buffer: int = 32
    input_speedup: int = 2
    warmup_cycles: int = 500
    sample_cycles: int = 500
    n_samples: int = 10
    saturation_latency: float = 500.0
    drain_max_cycles: int = 20_000
    adaptive_estimate: str = "path"
    engine: str = "fast"
    batch_lanes: int = 1

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        if self.engine not in ("fast", "reference"):
            raise ConfigurationError(
                f'engine must be "fast" or "reference", got {self.engine!r}'
            )
        if self.batch_lanes < 1:
            raise ConfigurationError(
                f"batch_lanes must be >= 1, got {self.batch_lanes}"
            )
        if self.batch_lanes > 1 and self.engine == "reference":
            raise ConfigurationError(
                'engine="reference" cannot step batched lanes: the batched '
                "engine is built on the array-native fast core. Use "
                'engine="fast" with batch_lanes, or batch_lanes=1 to run '
                "the reference core per cell."
            )
        for name in (
            "channel_latency",
            "vc_buffer",
            "input_speedup",
            "sample_cycles",
            "n_samples",
            "drain_max_cycles",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.warmup_cycles < 0:
            raise ConfigurationError("warmup_cycles must be >= 0")
        # NaN compares false both ways, so a NaN threshold would never trip.
        value = self.saturation_latency
        if not (isinstance(value, Real) and math.isfinite(value) and value > 0):
            raise ConfigurationError(
                f"saturation_latency must be finite and > 0, got {value!r}"
            )

    @property
    def measure_cycles(self) -> int:
        """Total measured cycles (samples x sample length)."""
        return self.sample_cycles * self.n_samples

    @property
    def total_cycles(self) -> int:
        """Warmup plus measurement."""
        return self.warmup_cycles + self.measure_cycles
