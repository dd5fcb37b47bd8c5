"""Flow records for the application simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["FlowSpec"]


@dataclass
class FlowSpec:
    """One bandwidth flow: a byte volume over a fixed set of links.

    A message may be realised as several flows (sub-flows over different
    paths, or adaptive chunks); ``message_id`` groups them so completion
    statistics can be reported per message.  ``nbytes`` must be finite and
    positive.
    """

    src_host: int
    dst_host: int
    nbytes: float
    links: np.ndarray
    message_id: int
    path: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not (math.isfinite(self.nbytes) and self.nbytes > 0):
            raise SimulationError(
                f"flow {self.src_host}->{self.dst_host} has {self.nbytes} bytes; "
                "need a finite positive count"
            )
        self.links = np.asarray(self.links, dtype=np.int64)
