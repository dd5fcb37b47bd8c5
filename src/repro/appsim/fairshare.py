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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = ["maxmin_rates"]

_EPS = 1e-12


def maxmin_rates(
    flow_links: Sequence[np.ndarray],
    capacity: np.ndarray | float,
    n_links: int | None = None,
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
        returned rates use the same unit.
    n_links:
        Total number of links (required when ``capacity`` is scalar).
    """
    n_flows = len(flow_links)
    if np.isscalar(capacity):
        if n_links is None:
            raise SimulationError("n_links is required with scalar capacity")
        cap_left = np.full(n_links, float(capacity))
    else:
        cap_left = np.asarray(capacity, dtype=np.float64).copy()
        n_links = cap_left.size
    if (cap_left <= 0).any():
        raise SimulationError("all link capacities must be positive")

    rates = np.full(n_flows, np.inf)
    if n_flows == 0:
        return rates

    # Flow -> link incidence: incidence e is flow ``flow_of[e]`` crossing
    # link ``link_of[e]`` (a link repeated within a flow counts twice).
    lens = np.fromiter(map(len, flow_links), dtype=np.int64, count=n_flows)
    link_of = np.concatenate(flow_links)
    if link_of.size and (link_of.min() < 0 or link_of.max() >= n_links):
        bad = link_of[(link_of < 0) | (link_of >= n_links)][0]
        raise SimulationError(f"link id {bad} out of range for n_links={n_links}")
    flow_of = np.repeat(np.arange(n_flows), lens)
    count = np.bincount(link_of, minlength=n_links)
    frozen = np.zeros(n_flows, dtype=bool)

    fill = 0.0
    while link_of.size:
        used = count > 0
        headroom = cap_left[used] / count[used]
        r = float(headroom.min())
        fill += r
        # A link without live flows has count 0: it is left unchanged here
        # and never read again.
        cap_left -= count * r
        # Freeze every active flow crossing a now-saturated link.
        saturated = used & (cap_left <= _EPS * fill + _EPS)
        hit = flow_of[saturated[link_of]]
        if not hit.size:  # pragma: no cover - float-safety net
            raise SimulationError("water-filling failed to saturate a link")
        rates[hit] = fill
        frozen[hit] = True
        keep = ~frozen[flow_of]
        link_of, flow_of = link_of[keep], flow_of[keep]
        count = np.bincount(link_of, minlength=n_links)
    return rates
