"""Discrete-event flow-level simulation loop.

All flows start at t = 0 (one exchange phase, as in the paper's stencil
runs).  The loop alternates:

1. compute max-min fair rates for the remaining flows;
2. advance time to the earliest flow completion at those rates;
3. retire completed flows and repeat.

Rates only change when the flow set changes, so this is exact for the
fluid model.  Completion times are reported per flow and aggregated per
message and for the whole exchange (the paper's "communication time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.appsim.fairshare import FillRecord, maxmin_rates
from repro.appsim.flows import FlowSpec
from repro.errors import SimulationError

__all__ = ["AppSimResult", "run_flows"]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class AppSimResult:
    """Completion statistics of one exchange.

    Times are in seconds (capacities are bytes/second).
    """

    flow_completion: np.ndarray
    message_completion: Dict[int, float]
    makespan: float
    mean_flow_completion: float
    mean_message_completion: float
    total_bytes: float

    def makespan_ms(self) -> float:
        """Exchange communication time in milliseconds (the table metric)."""
        return self.makespan * 1e3


def run_flows(
    flows: Sequence[FlowSpec],
    capacity: float | np.ndarray,
    n_links: int | None = None,
) -> AppSimResult:
    """Simulate ``flows`` sharing ``capacity`` until all complete.

    Each completion event solves max-min rates through this module's
    ``maxmin_rates``, passing the alive flows' link arrays and this call's
    :class:`~repro.appsim.fairshare.FillRecord`.  The record keeps the
    previous event's fill levels; retiring the completed flows cuts it at
    the first level at which one of them froze.  The completed flows could
    not have changed the levels below that cut (a flow crosses no link that
    saturated before its own level), so the solve replays them with the
    same float operations and water-fills on from the cut: every rate, and
    so every completion time, is bit-identical to solving each event from
    scratch (see :mod:`repro.appsim.fairshare`).
    """
    if not flows:
        raise SimulationError("no flows to simulate")
    n = len(flows)
    remaining = np.asarray([f.nbytes for f in flows], dtype=np.float64)
    links = [f.links for f in flows]
    total_bytes = float(remaining.sum())
    completion = np.zeros(n)
    alive = np.arange(n)
    t = 0.0
    record = FillRecord()

    guard = 0
    while alive.size:
        guard += 1
        if guard > n + 1:
            raise SimulationError("flow completion loop failed to converge")
        rates = maxmin_rates([links[i] for i in alive.tolist()], capacity, n_links, record)
        if not (rates > 0).all():
            raise SimulationError("max-min returned a zero rate")
        ttc = remaining[alive] / rates  # inf-rate flows finish instantly
        dt = float(ttc.min())
        t += dt
        done = ttc <= dt * (1 + _REL_TOL)
        if not done.any():  # pragma: no cover - tolerance net
            raise SimulationError("no flow completed in an event step")
        completion[alive[done]] = t
        record.retire(done)
        live = ~done
        alive = alive[live]
        remaining[alive] -= rates[live] * dt

    message_completion: Dict[int, float] = {}
    for f, c in zip(flows, completion):
        prev = message_completion.get(f.message_id, 0.0)
        message_completion[f.message_id] = max(prev, float(c))

    msg_times = np.asarray(list(message_completion.values()))
    return AppSimResult(
        flow_completion=completion,
        message_completion=message_completion,
        makespan=float(completion.max()),
        mean_flow_completion=float(completion.mean()),
        mean_message_completion=float(msg_times.mean()),
        total_bytes=total_bytes,
    )
