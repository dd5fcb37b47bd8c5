"""Packet-level flight recorder: per-packet event traces from the simulator.

The metrics registry (:mod:`repro.obs.metrics`) aggregates — it can say
*how many* flits stalled, but not *where* a packet queued or *which* of
its k precomputed paths it took.  This module records those facts for a
sampled subset of packets:

- **TraceRecorder** — preallocated columnar numpy ring buffers holding
  one row per traced packet (source/destination, chosen path index, the
  intended switch route, create/launch/deliver cycles) and one row per
  packet *event* (inject, VC alloc, hop enqueue, hop depart, credit
  stall, eject).  Head-based sampling traces every ``sample``-th packet
  injected in a run, counting from the run's first; ring semantics bound
  memory whatever the run length.
- **Module state and persistence** — the shared capture-layer lifecycle
  of :class:`repro.obs.recorder.Slot`: one active recorder per process
  (:func:`enable` / :func:`capture`), hot paths pay a single ``is None``
  test when tracing is off, worker snapshots merge in task order
  (:func:`merge_snapshot`) into the byte-identical trace of a serial
  run, and :func:`save_trace` / :func:`load_trace` round-trip a
  snapshot through a compressed ``.npz`` next to the run manifest.
- **TraceAnalysis** — the reader: per-packet latency decomposition
  (source queueing vs. switch queueing vs. serialization), per-hop stall
  attribution, per-path-index load share, and a route-membership audit
  asserting every traced packet's realized route (reconstructed from its
  hop-depart events) matches its recorded intent and, for KSP-restricted
  mechanisms, is one of the pair's precomputed k paths.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.recorder import Slot

__all__ = [
    "TRACE_FORMAT",
    "EV_INJECT",
    "EV_VC_ALLOC",
    "EV_HOP_ENQUEUE",
    "EV_HOP_DEPART",
    "EV_CREDIT_STALL",
    "EV_EJECT",
    "EVENT_NAMES",
    "KSP_RESTRICTED_MECHANISMS",
    "TraceRecorder",
    "TraceAnalysis",
    "enable",
    "disable",
    "enabled",
    "active",
    "capture",
    "config",
    "snapshot",
    "merge_snapshot",
    "save_trace",
    "load_trace",
]

TRACE_FORMAT = "repro-trace-v1"

#: Event kinds, one per router-pipeline stage a packet can touch.
EV_INJECT = 0        # packet entered its source queue
EV_VC_ALLOC = 1      # packet left the source queue and claimed VC 0
EV_HOP_ENQUEUE = 2   # packet landed in a switch (input port, VC) buffer
EV_HOP_DEPART = 3    # packet won arbitration and left a switch
EV_CREDIT_STALL = 4  # packet was head-of-line but had no downstream credit
EV_EJECT = 5         # packet reached its destination host

EVENT_NAMES = (
    "inject", "vc_alloc", "hop_enqueue", "hop_depart", "credit_stall", "eject",
)

#: Mechanisms whose every route must be a member of the pair's precomputed
#: path set (vanilla UGAL composes Valiant routes outside the table).
KSP_RESTRICTED_MECHANISMS = frozenset(
    {"sp", "random", "round_robin", "ksp_ugal", "ksp_adaptive"}
)

_PK_COLS = (
    "uid", "run", "src", "dst", "src_sw", "dst_sw",
    "path_index", "hops", "t_create", "t_launch", "t_deliver",
)
_EV_COLS = ("uid", "run", "kind", "time", "switch", "port", "vc", "link")


class TraceRecorder:
    """Columnar ring-buffer store for sampled per-packet events.

    Parameters
    ----------
    sample:
        Head-based sampling period: every ``sample``-th packet injected
        in a run is traced, counting from the run's first (1 = every
        packet), so a run traces the same packets whatever ran before it.
    event_capacity / packet_capacity:
        Ring sizes; once full, the oldest rows are overwritten (the
        snapshot reports how many were dropped).
    route_width:
        Initial column count of the intended-route matrix; grows on
        demand when a longer route is recorded.
    """

    def __init__(
        self,
        sample: int = 1,
        event_capacity: int = 65536,
        packet_capacity: int = 8192,
        route_width: int = 8,
    ):
        if sample < 1:
            raise ConfigurationError(f"sample must be >= 1, got {sample}")
        if event_capacity < 1 or packet_capacity < 1 or route_width < 1:
            raise ConfigurationError("trace capacities must be >= 1")
        self.sample = int(sample)
        self.event_capacity = int(event_capacity)
        self.packet_capacity = int(packet_capacity)
        self.runs: List[dict] = []
        self.n_injected = 0   # packets offered to the sampler
        self._run_injected = 0  # of them, in the current run
        self.n_packets = 0    # uids allocated (logical, monotonic)
        self.n_events = 0     # events recorded (logical, monotonic)
        self._pk_w = 0        # physical packet-ring write pointer
        self._ev_w = 0        # physical event-ring write pointer
        self._pk = {
            c: np.full(self.packet_capacity, -1, dtype=np.int64)
            for c in _PK_COLS
        }
        self._route = np.full(
            (self.packet_capacity, int(route_width)), -1, dtype=np.int64
        )
        self._ev = {
            c: np.full(self.event_capacity, -1, dtype=np.int64)
            for c in _EV_COLS
        }
        # uid -> ring row of packets still awaiting route/delivery updates.
        self._open: Dict[int, int] = {}

    @property
    def route_width(self) -> int:
        """Current column count of the intended-route matrix."""
        return self._route.shape[1]

    # --------------------------------------------------------- recording
    def begin_run(self, **meta) -> int:
        """Register one simulator run; returns its run id for event rows.

        Restarts the sampling phase: the run's first packet is traced.
        """
        self._open.clear()  # packets of prior runs no longer update
        self._run_injected = 0
        self.runs.append(dict(meta))
        return len(self.runs) - 1

    def sample_packet(
        self, run: int, src: int, dst: int, src_sw: int, dst_sw: int,
        t_create: int,
    ) -> int:
        """Sampling decision at injection: uid of the traced packet or -1."""
        i = self._run_injected
        self._run_injected += 1
        self.n_injected += 1
        if i % self.sample:
            return -1
        uid = self.n_packets
        self.n_packets += 1
        row = self._pk_w % self.packet_capacity
        self._pk_w += 1
        pk = self._pk
        pk["uid"][row] = uid
        pk["run"][row] = run
        pk["src"][row] = src
        pk["dst"][row] = dst
        pk["src_sw"][row] = src_sw
        pk["dst_sw"][row] = dst_sw
        pk["path_index"][row] = -1
        pk["hops"][row] = -1
        pk["t_create"][row] = t_create
        pk["t_launch"][row] = -1
        pk["t_deliver"][row] = -1
        self._route[row, :] = -1
        self._open[uid] = row
        self.event(uid, run, EV_INJECT, t_create, switch=src_sw)
        return uid

    def set_route(
        self, uid: int, path_index: int, nodes: Sequence[int], t_launch: int
    ) -> None:
        """Record the chosen route once the mechanism picked it (launch)."""
        row = self._open.get(uid)
        if row is None or self._pk["uid"][row] != uid:
            return  # overwritten by ring wrap
        w = len(nodes)
        if w > self._route.shape[1]:
            grown = np.full(
                (self.packet_capacity, w), -1, dtype=np.int64
            )
            grown[:, : self._route.shape[1]] = self._route
            self._route = grown
        self._pk["path_index"][row] = path_index
        self._pk["hops"][row] = w - 1
        self._pk["t_launch"][row] = t_launch
        self._route[row, :w] = nodes

    def finish(self, uid: int, t_deliver: int) -> None:
        """Record delivery time; closes the packet's update window."""
        row = self._open.pop(uid, None)
        if row is None or self._pk["uid"][row] != uid:
            return
        self._pk["t_deliver"][row] = t_deliver

    def event(
        self, uid: int, run: int, kind: int, time: int,
        switch: int = -1, port: int = -1, vc: int = -1, link: int = -1,
    ) -> None:
        """Append one event row for a traced packet."""
        j = self._ev_w % self.event_capacity
        self._ev_w += 1
        self.n_events += 1
        ev = self._ev
        ev["uid"][j] = uid
        ev["run"][j] = run
        ev["kind"][j] = kind
        ev["time"][j] = time
        ev["switch"][j] = switch
        ev["port"][j] = port
        ev["vc"][j] = vc
        ev["link"][j] = link

    # --------------------------------------------------- snapshot / merge
    @staticmethod
    def _chronological(col: np.ndarray, written: int, capacity: int) -> np.ndarray:
        """Ring rows in oldest-to-newest order (copied)."""
        if written <= capacity:
            return col[:written].copy()
        head = written % capacity
        return np.concatenate([col[head:], col[:head]])

    def snapshot(self) -> dict:
        """Everything recorded so far as a plain dict of numpy arrays."""
        pk_n = min(self._pk_w, self.packet_capacity)
        ev_n = min(self._ev_w, self.event_capacity)
        snap = {
            "format": TRACE_FORMAT,
            "sample": self.sample,
            "event_capacity": self.event_capacity,
            "packet_capacity": self.packet_capacity,
            "n_runs": len(self.runs),
            "n_injected": self.n_injected,
            "n_packets": self.n_packets,
            "n_events": self.n_events,
            "packets_dropped": self.n_packets - pk_n,
            "events_dropped": self.n_events - ev_n,
            "runs": [dict(r) for r in self.runs],
        }
        for c in _PK_COLS:
            snap[f"pk_{c}"] = self._chronological(
                self._pk[c], self._pk_w, self.packet_capacity
            )
        snap["pk_route"] = self._chronological(
            self._route, self._pk_w, self.packet_capacity
        )
        for c in _EV_COLS:
            snap[f"ev_{c}"] = self._chronological(
                self._ev[c], self._ev_w, self.event_capacity
            )
        return snap

    def _append_rows(
        self, store: Dict[str, np.ndarray], rows: Dict[str, np.ndarray],
        write_ptr: int, capacity: int,
    ) -> int:
        n = len(next(iter(rows.values())))
        if n > capacity:  # only the newest rows can survive the ring
            rows = {c: a[-capacity:] for c, a in rows.items()}
            write_ptr += n - capacity
            n = capacity
        idx = (write_ptr + np.arange(n)) % capacity
        for c, a in rows.items():
            store[c][idx] = a
        return write_ptr + n

    def merge(self, snap: Mapping) -> None:
        """Fold a worker snapshot into this recorder.

        Run and packet ids are offset past this recorder's counters, so
        merging per-cell snapshots in task order reproduces exactly the
        trace a serial run under one recorder would have recorded.
        """
        if snap.get("format") != TRACE_FORMAT:
            raise ConfigurationError(
                f"cannot merge trace snapshot of format {snap.get('format')!r}"
            )
        run_off = len(self.runs)
        uid_off = self.n_packets
        self.runs.extend(dict(r) for r in snap["runs"])
        self.n_injected += int(snap["n_injected"])
        self.n_packets += int(snap["n_packets"])
        self.n_events += int(snap["n_events"])
        # The merged runs are finished; none of their packets update again.
        self._open.clear()

        pk_rows = {c: np.asarray(snap[f"pk_{c}"], dtype=np.int64) for c in _PK_COLS}
        if len(pk_rows["uid"]):
            pk_rows["uid"] = pk_rows["uid"] + uid_off
            pk_rows["run"] = pk_rows["run"] + run_off
            route = np.asarray(snap["pk_route"], dtype=np.int64)
            if route.shape[1] > self._route.shape[1]:
                grown = np.full(
                    (self.packet_capacity, route.shape[1]), -1, dtype=np.int64
                )
                grown[:, : self._route.shape[1]] = self._route
                self._route = grown
            elif route.shape[1] < self._route.shape[1]:
                padded = np.full(
                    (len(route), self._route.shape[1]), -1, dtype=np.int64
                )
                padded[:, : route.shape[1]] = route
                route = padded
            # Packet columns and the route matrix must land on the same
            # ring rows, so trim and index them together.
            cap = self.packet_capacity
            n, ptr = len(route), self._pk_w
            if n > cap:
                pk_rows = {c: a[-cap:] for c, a in pk_rows.items()}
                route = route[-cap:]
                ptr += n - cap
                n = cap
            idx = (ptr + np.arange(n)) % cap
            for c, a in pk_rows.items():
                self._pk[c][idx] = a
            self._route[idx] = route
            self._pk_w = ptr + n

        ev_rows = {c: np.asarray(snap[f"ev_{c}"], dtype=np.int64) for c in _EV_COLS}
        if len(ev_rows["uid"]):
            ev_rows["uid"] = ev_rows["uid"] + uid_off
            ev_rows["run"] = ev_rows["run"] + run_off
            self._ev_w = self._append_rows(
                self._ev, ev_rows, self._ev_w, self.event_capacity
            )


# ----------------------------------------------- module state / persistence
#: The process's active recorder (``None`` when tracing is off) behind the
#: shared capture-layer lifecycle of :class:`~repro.obs.recorder.Slot`.
#: Simulators read :func:`active` once at construction.
_slot = Slot(TraceRecorder, TRACE_FORMAT, (
    "sample", "event_capacity", "packet_capacity", "route_width",
))
enable = _slot.enable
disable = _slot.disable
enabled = _slot.enabled
active = _slot.active
config = _slot.config
capture = _slot.capture
snapshot = _slot.snapshot
merge_snapshot = _slot.merge_snapshot
save_trace = _slot.save
load_trace = _slot.load


# ------------------------------------------------------------ analysis
class TraceAnalysis:
    """Reader over a trace snapshot (in-memory or :func:`load_trace`)."""

    def __init__(self, snap: Mapping):
        if snap.get("format") != TRACE_FORMAT:
            raise ConfigurationError(
                f"not a {TRACE_FORMAT} snapshot (format={snap.get('format')!r})"
            )
        self.snap = snap
        self.runs: List[dict] = list(snap.get("runs", []))
        self._pk = {
            c: np.asarray(snap[f"pk_{c}"], dtype=np.int64) for c in _PK_COLS
        }
        self._route = np.asarray(snap["pk_route"], dtype=np.int64)
        self._ev = {
            c: np.asarray(snap[f"ev_{c}"], dtype=np.int64) for c in _EV_COLS
        }
        self._departs_by_uid: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._pk["uid"])

    def _label(self, run: int) -> str:
        if 0 <= run < len(self.runs):
            meta = self.runs[run]
            return f"{meta.get('scheme', '?')}/{meta.get('mechanism', '?')}"
        return f"run{run}"

    def _run_meta(self, run: int) -> dict:
        return self.runs[run] if 0 <= run < len(self.runs) else {}

    def intended_route(self, i: int) -> Tuple[int, ...]:
        """The recorded switch route of packet row ``i`` (trimmed)."""
        row = self._route[i]
        return tuple(int(x) for x in row[row >= 0])

    def _complete_mask(self) -> np.ndarray:
        """Rows with a recorded route and a delivery time."""
        pk = self._pk
        return (pk["t_launch"] >= 0) & (pk["t_deliver"] >= 0)

    # ----------------------------------------------------- decomposition
    def latency_decomposition(self) -> Dict[str, dict]:
        """Mean per-packet latency split, grouped by scheme/mechanism.

        For every delivered traced packet the total latency decomposes
        exactly as ``total = source_queue + switch_queue + serialization``:

        - *serialization* — the zero-load pipeline delay,
          ``(hops + 2) * channel_latency`` (injection link, each switch
          link, ejection link);
        - *source_queue* — cycles between creation and winning a VC-0
          buffer slot at the source switch (``t_launch - t_create``);
        - *switch_queue* — the rest: cycles spent queued inside switch
          buffers waiting for credits and arbitration.
        """
        pk = self._pk
        mask = self._complete_mask()
        out: Dict[str, dict] = {}
        acc: Dict[str, List[Tuple[int, int, int, int, int]]] = {}
        for i in np.flatnonzero(mask):
            run = int(pk["run"][i])
            hops = int(pk["hops"][i])
            latency = int(pk["t_deliver"][i] - pk["t_create"][i])
            src_q = int(pk["t_launch"][i] - pk["t_create"][i])
            chan = int(self._run_meta(run).get("channel_latency", 0))
            serial = (hops + 2) * chan
            net_q = latency - src_q - serial
            acc.setdefault(self._label(run), []).append(
                (latency, src_q, net_q, serial, hops)
            )
        for label, rows in sorted(acc.items()):
            arr = np.asarray(rows, dtype=np.float64)
            out[label] = {
                "count": len(rows),
                "mean_total": float(arr[:, 0].mean()),
                "mean_source_queue": float(arr[:, 1].mean()),
                "mean_switch_queue": float(arr[:, 2].mean()),
                "mean_serialization": float(arr[:, 3].mean()),
                "mean_hops": float(arr[:, 4].mean()),
            }
        return out

    # -------------------------------------------------------- path share
    def path_shares(self) -> Dict[str, Dict[int, int]]:
        """How often each path index was chosen, by scheme/mechanism.

        Index ``-1`` collects routes outside the precomputed path table
        (vanilla UGAL's private shortest paths and Valiant composites).
        """
        pk = self._pk
        mask = pk["t_launch"] >= 0
        out: Dict[str, Dict[int, int]] = {}
        for i in np.flatnonzero(mask):
            label = self._label(int(pk["run"][i]))
            idx = int(pk["path_index"][i])
            counts = out.setdefault(label, {})
            counts[idx] = counts.get(idx, 0) + 1
        return out

    # ------------------------------------------------ stall attribution
    def stall_attribution(self) -> dict:
        """Where credit stalls happened: per switch and per hop index.

        ``by_hop`` is keyed by the stalled packet's VC (= its hop index),
        so hop 0 is the source switch, rising toward the destination.
        """
        ev = self._ev
        stalls = ev["kind"] == EV_CREDIT_STALL
        by_switch: Dict[int, int] = {}
        by_hop: Dict[int, int] = {}
        for sw, vc in zip(
            ev["switch"][stalls].tolist(), ev["vc"][stalls].tolist()
        ):
            by_switch[sw] = by_switch.get(sw, 0) + 1
            by_hop[vc] = by_hop.get(vc, 0) + 1
        return {
            "total": int(stalls.sum()),
            "by_switch": by_switch,
            "by_hop": by_hop,
        }

    # ----------------------------------------------------- route audit
    def _departs(self) -> Dict[int, List[int]]:
        """uid -> switch sequence of its hop-depart events, in order."""
        if self._departs_by_uid is None:
            ev = self._ev
            out: Dict[int, List[int]] = {}
            mask = ev["kind"] == EV_HOP_DEPART
            for uid, sw in zip(
                ev["uid"][mask].tolist(), ev["switch"][mask].tolist()
            ):
                out.setdefault(uid, []).append(sw)
            self._departs_by_uid = out
        return self._departs_by_uid

    def realized_route(self, uid: int) -> Tuple[int, ...]:
        """Switch sequence the packet actually traversed (from events)."""
        return tuple(self._departs().get(int(uid), ()))

    def audit_routes(self, paths=None, topology=None) -> List[str]:
        """Verify every traced packet's route; returns violation strings.

        Three checks per delivered packet:

        1. the realized route (hop-depart events) equals the recorded
           intended route — the router forwarded what the mechanism chose;
        2. for KSP-restricted mechanisms, the route is a member of the
           pair's precomputed path set at the recorded path index
           (``paths`` is a :class:`~repro.core.cache.PathCache` or a
           ``{scheme: PathCache}`` mapping);
        3. for table-free routes (vanilla UGAL), the route is loop-free
           and every step is a topology link (when ``topology`` given).

        Packets whose events were overwritten by ring wrap are skipped:
        with any events dropped a short depart sequence is indistinguishable
        from corruption, so realized-route checks need a large enough
        event ring.
        """
        pk = self._pk
        departs = self._departs()
        events_dropped = int(self.snap.get("events_dropped", 0)) > 0
        violations: List[str] = []
        for i in np.flatnonzero(self._complete_mask()):
            uid = int(pk["uid"][i])
            run = int(pk["run"][i])
            meta = self._run_meta(run)
            mechanism = meta.get("mechanism", "?")
            scheme = meta.get("scheme", "?")
            intended = self.intended_route(i)
            realized = tuple(departs.get(uid, ()))
            if len(realized) != len(intended):
                if not events_dropped:
                    violations.append(
                        f"packet {uid} ({scheme}/{mechanism}): realized "
                        f"{len(realized)} hop-departs but intended route "
                        f"has {len(intended)} switches"
                    )
                continue
            if realized != intended:
                violations.append(
                    f"packet {uid} ({scheme}/{mechanism}): realized route "
                    f"{realized} != intended {intended}"
                )
                continue
            pidx = int(pk["path_index"][i])
            src_sw, dst_sw = int(pk["src_sw"][i]), int(pk["dst_sw"][i])
            cache = None
            if paths is not None:
                cache = paths.get(scheme) if isinstance(paths, dict) else paths
            if pidx >= 0:
                if cache is not None:
                    ps = cache.get(src_sw, dst_sw)
                    if pidx >= ps.k or ps[pidx].nodes != intended:
                        violations.append(
                            f"packet {uid} ({scheme}/{mechanism}): route "
                            f"{intended} is not path #{pidx} of pair "
                            f"({src_sw}, {dst_sw})"
                        )
            else:
                if mechanism in KSP_RESTRICTED_MECHANISMS:
                    violations.append(
                        f"packet {uid} ({scheme}/{mechanism}): route "
                        f"{intended} is outside the precomputed path set"
                    )
                    continue
                if len(set(intended)) != len(intended):
                    violations.append(
                        f"packet {uid} ({scheme}/{mechanism}): route "
                        f"{intended} revisits a switch"
                    )
                    continue
                if topology is not None:
                    adj = topology.adjacency
                    for a, b in zip(intended, intended[1:]):
                        if b not in adj[a]:
                            violations.append(
                                f"packet {uid} ({scheme}/{mechanism}): step "
                                f"{a}->{b} is not a topology link"
                            )
                            break
        return violations
