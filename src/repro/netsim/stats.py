"""Shared latency statistics helpers used by every engine tier.

:func:`latency_percentiles` is the one percentile definition every
engine's results use, so the tiers cannot drift.  This module also owns
the manifest-gauge stamping of the latency SLO scalars
(``netsim.latency_p50`` / ``netsim.latency_p99`` / ``netsim.mean_latency``)
so the tail of every run is visible to ``compare-runs``, the ledger and
the trend gate even with flowstats disabled.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["latency_percentiles", "stamp_latency_gauges"]


def latency_percentiles(latencies: Sequence[float]) -> Tuple[float, float]:
    """``(p50, p99)`` of a latency sample, ``(nan, nan)`` when empty.

    One tuple-form ``np.percentile`` call — the single percentile code
    path shared by the reference, fast and batched engines.
    """
    arr = np.asarray(latencies, dtype=np.float64)
    if arr.size == 0:
        return (float("nan"), float("nan"))
    p50, p99 = np.percentile(arr, (50, 99))
    return float(p50), float(p99)


def stamp_latency_gauges(
    reg, p50: float, p99: float, mean: float
) -> None:
    """Record a run's latency SLO scalars as registry gauges.

    Gauges merge by max across processes, so each stamp keeps the worst
    value seen (`max` read-modify-write); NaN (an empty latency sample)
    is skipped rather than poisoning the gauge.  No-op when ``reg`` is
    ``None`` (metrics disabled).
    """
    if reg is None:
        return
    for name, value in (
        ("netsim.latency_p50", p50),
        ("netsim.latency_p99", p99),
        ("netsim.mean_latency", mean),
    ):
        v = float(value)
        if v != v:  # NaN: no measured packets
            continue
        g = reg.gauge(name)
        g.set(max(g.value, v))
