"""Turning application traces into flows (the CODES front-end).

``build_workload`` is the glue between the trace layer and the flow
simulator: it takes host-level messages (from
:func:`repro.traffic.stencil.stencil_messages` +
:func:`repro.traffic.mapping.apply_mapping`), resolves each through the
path-selection scheme under test, and applies a flow-level rendering of the
routing mechanism:

- ``sp`` — the whole message on the minimal path;
- ``random`` — the message split evenly over the pair's ``k`` paths (the
  fluid limit of per-packet uniform spreading);
- ``ksp_adaptive`` — the message split into ``chunks`` pieces, each placed
  on the better (lower already-assigned bytes along the path) of two
  randomly drawn paths — the fluid rendering of the paper's best-of-two
  adaptive choice.

``stencil_time`` wraps the full Table V/VI pipeline for one cell.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.appsim.flows import FlowSpec
from repro.appsim.simulator import AppSimResult, run_flows
from repro.core.cache import PathCache
from repro.errors import ConfigurationError, SimulationError
from repro.topology.jellyfish import Jellyfish
from repro.traffic.mapping import apply_mapping, linear_mapping, random_mapping
from repro.traffic.stencil import stencil_messages
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_in, check_positive_int

__all__ = ["build_workload", "stencil_time"]


def _path_links(topology: Jellyfish, nodes, src_host: int, dst_host: int) -> np.ndarray:
    ids = topology.path_link_ids(nodes)
    return np.asarray(
        [topology.injection_link(src_host), *ids, topology.ejection_link(dst_host)],
        dtype=np.int64,
    )


def build_workload(
    topology: Jellyfish,
    messages: Sequence[Tuple[int, int, float]],
    paths: PathCache,
    mechanism: str = "ksp_adaptive",
    chunks: int = 4,
    seed: SeedLike = 0,
) -> List[FlowSpec]:
    """Resolve host-level ``messages`` into simulator flows.

    ``messages`` are ``(src host, dst host, bytes)``; self-messages are
    rejected (a trace where a rank talks to itself never reaches the
    network).
    """
    check_in(mechanism, ("sp", "random", "ksp_adaptive"), "mechanism")
    check_positive_int(chunks, "chunks")
    rng = ensure_rng(seed)
    flows: List[FlowSpec] = []
    # Bytes already assigned per link: the adaptive mechanism's congestion
    # estimate (the fluid analogue of queue length at injection time).
    assigned = np.zeros(topology.n_links, dtype=np.float64)

    for msg_id, (src, dst, nbytes) in enumerate(messages):
        if src == dst:
            raise SimulationError(f"message {msg_id} is a self-message ({src})")
        ss = topology.switch_of_host(src)
        ds = topology.switch_of_host(dst)
        pathset = paths.get(ss, ds)
        if mechanism == "sp":
            links = _path_links(topology, pathset.minimal.nodes, src, dst)
            flows.append(FlowSpec(src, dst, nbytes, links, msg_id, pathset.minimal.nodes))
            assigned[links] += nbytes
        elif mechanism == "random":
            share = nbytes / pathset.k
            for p in pathset:
                links = _path_links(topology, p.nodes, src, dst)
                flows.append(FlowSpec(src, dst, share, links, msg_id, p.nodes))
                assigned[links] += share
        else:  # ksp_adaptive
            share = nbytes / chunks
            for _ in range(chunks):
                if pathset.k == 1:
                    chosen = pathset.minimal
                    links = _path_links(topology, chosen.nodes, src, dst)
                else:
                    i = int(rng.integers(pathset.k))
                    j = int(rng.integers(pathset.k - 1))
                    if j >= i:
                        j += 1
                    a, b = pathset[i], pathset[j]
                    la = _path_links(topology, a.nodes, src, dst)
                    lb = _path_links(topology, b.nodes, src, dst)
                    if assigned[la].max() <= assigned[lb].max():
                        chosen, links = a, la
                    else:
                        chosen, links = b, lb
                flows.append(FlowSpec(src, dst, share, links, msg_id, chosen.nodes))
                assigned[links] += share

    # Merge same-message flows that landed on an identical link set (the
    # adaptive chunks often reuse a path); fewer flows = faster water-fill.
    merged: dict = {}
    for f in flows:
        key = (f.message_id, f.links.tobytes())
        if key in merged:
            merged[key].nbytes += f.nbytes
        else:
            merged[key] = f
    return list(merged.values())


def stencil_time(
    topology: Jellyfish,
    stencil: str,
    scheme: str,
    *,
    mapping: str = "linear",
    mechanism: str = "ksp_adaptive",
    k: int = 8,
    total_bytes: float = 15e6,
    link_bandwidth: float = 20e9,
    chunks: int = 4,
    n_ranks: int | None = None,
    iterations: int = 1,
    seed: SeedLike = 0,
    paths: PathCache | None = None,
) -> AppSimResult:
    """Communication time of a stencil run (one Table V/VI cell).

    Parameters mirror the paper: 15 MB per rank over 20 GBps links on the
    topology's full host count (override ``n_ranks`` to use fewer hosts).
    ``mapping`` is ``"linear"`` or ``"random"``.

    ``iterations > 1`` simulates that many *sequential* exchange phases
    (real stencil codes iterate), re-running the adaptive path choices per
    phase; completion times accumulate across phases and the returned
    makespan is the total communication time.
    """
    check_in(mapping, ("linear", "random"), "mapping")
    check_positive_int(iterations, "iterations")
    if not (math.isfinite(total_bytes) and total_bytes > 0):
        raise SimulationError(f"each rank has {total_bytes} bytes; need a finite positive count")
    rng = ensure_rng(seed)
    n_ranks = topology.n_hosts if n_ranks is None else int(n_ranks)
    if paths is None:
        paths = PathCache(topology, scheme, k=k, seed=int(rng.integers(2**31)))

    rank_msgs = stencil_messages(stencil, n_ranks, total_bytes)
    if mapping == "linear":
        m = linear_mapping(n_ranks, topology.n_hosts)
    else:
        m = random_mapping(n_ranks, topology.n_hosts, seed=rng)
    host_msgs = apply_mapping(rank_msgs, m)

    results = []
    for _ in range(iterations):
        flows = build_workload(
            topology, host_msgs, paths, mechanism=mechanism, chunks=chunks, seed=rng
        )
        results.append(run_flows(flows, link_bandwidth, topology.n_links))
    if iterations == 1:
        return results[0]
    return _chain_results(results)


def _chain_results(results: Sequence[AppSimResult]) -> AppSimResult:
    """Aggregate sequential phases: phase i starts when phase i-1 ends."""
    offset = 0.0
    completions = []
    messages: dict = {}
    total_bytes = 0.0
    for r in results:
        completions.append(r.flow_completion + offset)
        for mid, t in r.message_completion.items():
            messages[mid] = t + offset  # last phase's completion wins
        total_bytes += r.total_bytes
        offset += r.makespan
    flow_completion = np.concatenate(completions)
    msg_times = np.asarray(list(messages.values()))
    return AppSimResult(
        flow_completion=flow_completion,
        message_completion=messages,
        makespan=offset,
        mean_flow_completion=float(flow_completion.mean()),
        mean_message_completion=float(msg_times.mean()),
        total_bytes=total_bytes,
    )
