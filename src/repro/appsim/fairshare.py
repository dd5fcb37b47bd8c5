"""Max-min fair bandwidth allocation (progressive filling / water-filling).

Given flows (each a set of link ids) and per-link capacities, computes the
unique max-min fair rate vector: all flows' rates rise together until some
link saturates; flows crossing a saturated link freeze at the current fill
level; the rest keep rising.  This is the steady-state bandwidth sharing of
a congestion-controlled transport, which is what the flow-level application
simulator advances between completion events.

The flow->link incidence is built once per call; each fill level is then a
fixed number of NumPy calls over the links and the live incidences (those
of flows not yet frozen).  Levels are bounded by the number of distinct
bottleneck levels (at most the link count).

Resuming a solve.  The completion-event loop of
:func:`repro.appsim.simulator.run_flows` solves once per event, and an
event only removes flows.  A :class:`FillRecord` keeps the last solve:
each level's step ``r`` and running ``fill``, each flow's freeze level and
the flow->link incidence.  :meth:`FillRecord.retire` drops the finished
flows and cuts the record at J, the lowest level at which a finished flow
froze; the next solve replays levels 0..J-1 and water-fills on from J.

This is exact.  A flow that froze at level L crosses no link that
saturated before L, or it would have frozen earlier.  Removing flows that
froze at J or later therefore only adds headroom, and only on links that
do not saturate before J, so a solve of the survivors from level 0 goes
through levels 0..J-1 with the same step, the same fill, the same
saturated links and the same frozen flows.  (This needs each step to be
set by a link that saturates, which holds while no link carries more than
``_EXACT_COUNT`` live incidences; levels filled with more are never
resumed from.)  The flows frozen below J keep their rates.  The capacity
left at level J is rebuilt with the cold solve's own float operations in
its order, ``cap_left -= count_i * r_i`` for i < J, where ``count_i``
counts the survivors' incidences still live at level i; capacity minus
the frozen rates would round differently.  So every rate is bit-identical
to a solve from level 0, and a solve without a record (or the first one of
a record) is the J = 0 case of the same loop.  The replay and the levels
after it touch only the links that the flows live at J cross, so an
event's work shrinks with the flows left to fill.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = ["FillRecord", "maxmin_rates"]

_EPS = 1e-12

#: Freeze level of a flow that the next solve must fill.
_LIVE = np.iinfo(np.int64).max

#: Replay block size in (level, link) cells, unless the incidences
#: outnumber it: replay memory stays O(links + incidences).
_BLOCK_CELLS = 1 << 16

#: The step ``r = cap_left / count`` of a level's tightest link leaves at
#: most 2**-52 * cap_left on it, below the saturation threshold
#: ``_EPS * fill >= _EPS * cap_left / count`` while ``count <= 4503``.  Up to
#: this count, every link that sets a step saturates and freezes its flows,
#: as resuming needs; levels filled with more live incidences on one link
#: are never resumed from (10,000 flows on one link can leave one ulp).
_EXACT_COUNT = 4096


class FillRecord:
    """One water-fill, kept so that the next solve can resume from it.

    ``maxmin_rates(flow_links, capacity, n_links, record)`` fills the
    record on its first call and resumes from it on later ones;
    :meth:`retire` drops the flows that finished in between.  It holds the
    flow->link incidence (``link_of``, ``flow_of``), each flow's freeze
    ``level`` (-1 for a linkless flow, which is unconstrained) and each
    level's ``steps`` and ``fills``.
    """

    def __init__(self) -> None:
        self.link_of: np.ndarray | None = None
        self.flow_of: np.ndarray | None = None
        self.level: np.ndarray | None = None
        self.steps: List[float] = []
        self.fills: List[float] = []
        # Levels from here on are not resumed from (see _EXACT_COUNT).
        self.barrier = _LIVE

    def retire(self, done: np.ndarray) -> None:
        """Drop the flows flagged in ``done`` (one flag per flow of the last
        solve) and cut the levels that dropping them could change."""
        froze = self.level[done]
        froze = froze[froze >= 0]
        keep = ~done
        on = keep[self.flow_of]
        self.link_of = self.link_of[on]
        self.flow_of = (np.cumsum(keep) - 1)[self.flow_of[on]]
        self.level = self.level[keep]
        if froze.size:  # linkless flows change no level
            cut = min(int(froze.min()), self.barrier)
            del self.steps[cut:], self.fills[cut:]
            self.level[self.level >= cut] = _LIVE


def maxmin_rates(
    flow_links: Sequence[np.ndarray],
    capacity: np.ndarray | float,
    n_links: int | None = None,
    record: FillRecord | None = None,
) -> np.ndarray:
    """Max-min fair rates for ``flow_links`` under ``capacity``.

    Parameters
    ----------
    flow_links:
        Per flow, the array of directed link ids it traverses.  A flow with
        no links (e.g. a zero-hop logical transfer) is unconstrained and
        reported at ``inf``.
    capacity:
        Scalar (uniform) or per-link array of capacities, in any rate unit;
        returned rates use the same unit.  Every capacity must be finite
        and positive: an ``inf`` link is rejected, not treated as
        unconstrained.
    n_links:
        Total number of links (required when ``capacity`` is scalar).
    record:
        A :class:`FillRecord` to resume from and update.  Its first solve
        takes the incidence of ``flow_links``; later ones keep the record's
        own, less the flows :meth:`FillRecord.retire` dropped, so
        ``flow_links`` must then be the surviving flows in order.
    """
    n_flows = len(flow_links)
    if np.isscalar(capacity):
        if n_links is None:
            raise SimulationError("n_links is required with scalar capacity")
        if not (np.isfinite(capacity) and capacity > 0):
            raise SimulationError(
                f"link capacity must be finite and positive, got {capacity}"
            )
        cap = np.full(n_links, float(capacity))
    else:
        cap = np.asarray(capacity, dtype=np.float64)
        bad = np.flatnonzero(~(np.isfinite(cap) & (cap > 0)))
        if bad.size:
            raise SimulationError(
                "link capacities must be finite and positive; "
                f"link {bad[0]} has {cap[bad[0]]}"
            )
        n_links = cap.size
    if n_flows == 0:
        return np.full(0, np.inf)

    if record is None:
        record = FillRecord()
    if record.level is None:
        _incidence(record, flow_links, n_links)
    elif record.level.size != n_flows:
        raise SimulationError(
            f"{n_flows} flows passed, but the record holds {record.level.size}"
        )
    _fill(record, cap)
    # A linkless flow's level -1 reads the trailing inf.
    return np.append(record.fills, np.inf)[record.level]


def _incidence(record: FillRecord, flow_links, n_links: int) -> None:
    """Start ``record`` on ``flow_links``: every linked flow is live.

    Incidence e is flow ``flow_of[e]`` crossing link ``link_of[e]`` (a link
    repeated within a flow counts twice).
    """
    n_flows = len(flow_links)
    lens = np.fromiter(map(len, flow_links), dtype=np.int64, count=n_flows)
    link_of = np.concatenate(flow_links)
    if link_of.size and (link_of.min() < 0 or link_of.max() >= n_links):
        bad = link_of[(link_of < 0) | (link_of >= n_links)][0]
        raise SimulationError(f"link id {bad} out of range for n_links={n_links}")
    record.link_of = link_of
    record.flow_of = np.repeat(np.arange(n_flows), lens)
    record.level = np.where(lens > 0, _LIVE, -1)


def _fill(record: FillRecord, cap: np.ndarray) -> None:
    """Water-fill ``record``'s live flows, on from its last kept level."""
    start = len(record.steps)
    inc_level = record.level[record.flow_of]
    live = inc_level == _LIVE
    link = record.link_of[live]
    if not link.size:
        return
    flow = record.flow_of[live]
    # Only the links the live flows cross are read again: number them
    # 0..width-1 and send every other link to a spare column, ``width``.
    count = np.bincount(link, minlength=cap.size)
    cols = np.flatnonzero(count)
    width = cols.size
    col_of = np.full(cap.size, width)
    col_of[cols] = np.arange(width)
    count = count[cols]
    cap_left = cap[cols]
    if start:
        past = ~live
        cap_left = _replay(
            cap_left, count, col_of[record.link_of[past]], inc_level[past],
            record.steps,
        )
    record.barrier = start if count.max() > _EXACT_COUNT else _LIVE
    link = col_of[link]

    fill = record.fills[-1] if start else 0.0
    level = start
    while link.size:
        used = count > 0
        headroom = cap_left[used] / count[used]
        r = float(headroom.min())
        fill += r
        # A link without live flows has count 0: it is left unchanged here
        # and never read again.
        cap_left -= count * r
        # Freeze every active flow crossing a now-saturated link.
        saturated = used & (cap_left <= _EPS * fill + _EPS)
        hit = flow[saturated[link]]
        if not hit.size:  # pragma: no cover - float-safety net
            raise SimulationError("water-filling failed to saturate a link")
        record.level[hit] = level
        record.steps.append(r)
        record.fills.append(fill)
        level += 1
        keep = record.level[flow] == _LIVE
        link, flow = link[keep], flow[keep]
        count = np.bincount(link, minlength=width)


def _replay(
    cap_left: np.ndarray,
    count: np.ndarray,
    past_col: np.ndarray,
    past_level: np.ndarray,
    steps: List[float],
) -> np.ndarray:
    """``cap_left`` at level ``len(steps)``, as a solve from level 0 has it.

    ``count`` is the live incidences per column at that level; the past
    incidences (column, freeze level) were live below their level.  Level
    i subtracts ``count_i * steps[i]`` with the count of level i, row by
    row in level order (``subtract.accumulate``), so the float operations
    are the cold solve's.  The count rows are built a block of levels at a
    time, within ``_BLOCK_CELLS`` or the incidence count.
    """
    width = count.size + 1
    n_levels = len(steps)
    steps = np.asarray(steps)
    rows = max(1, max(past_col.size, _BLOCK_CELLS) // width)
    # Live incidences per column at the block's first level.
    at = np.bincount(past_col, minlength=width)
    at[:-1] += count
    for lo in range(0, n_levels, rows):
        hi = min(n_levels, lo + rows)
        col, lvl = past_col, past_level
        if n_levels > rows:
            sel = (lvl >= lo) & (lvl < hi)
            col, lvl = col[sel], lvl[sel]
        froze = np.bincount(
            (lvl - lo) * width + col, minlength=(hi - lo) * width
        ).reshape(hi - lo, width)
        gone = np.cumsum(froze, axis=0)
        counts = at + froze - gone  # row k: the live count at level lo + k
        at = at - gone[-1]
        block = np.empty((hi - lo + 1, width - 1))
        block[0] = cap_left
        np.multiply(counts[:, :-1], steps[lo:hi, None], out=block[1:])
        np.subtract.accumulate(block, axis=0, out=block)
        cap_left = block[-1]
    return cap_left
