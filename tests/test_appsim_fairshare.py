"""Unit tests for max-min fair-share rate computation."""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Jellyfish, PathCache
from repro.appsim import build_workload, run_flows
from repro.appsim.fairshare import maxmin_rates
from repro.errors import SimulationError
from repro.traffic.mapping import apply_mapping, linear_mapping
from repro.traffic.stencil import stencil_messages


def arr(*xs):
    return np.asarray(xs, dtype=np.int64)


class TestBasics:
    def test_single_flow_gets_full_capacity(self):
        rates = maxmin_rates([arr(0, 1)], 10.0, n_links=2)
        assert rates[0] == pytest.approx(10.0)

    def test_equal_sharing_on_common_link(self):
        rates = maxmin_rates([arr(0), arr(0), arr(0)], 9.0, n_links=1)
        assert rates == pytest.approx([3.0, 3.0, 3.0])

    def test_disjoint_flows_independent(self):
        rates = maxmin_rates([arr(0), arr(1)], 5.0, n_links=2)
        assert rates == pytest.approx([5.0, 5.0])

    def test_classic_three_flow_line(self):
        # Line network A-B-C, capacity 1 per link.  Flow 0 uses both links;
        # flows 1 and 2 use one link each.  Max-min: f0=0.5, f1=f2=0.5.
        rates = maxmin_rates([arr(0, 1), arr(0), arr(1)], 1.0, n_links=2)
        assert rates == pytest.approx([0.5, 0.5, 0.5])

    def test_unequal_bottlenecks(self):
        # Flow 0 alone on link 1 after sharing link 0 with flow 1:
        # first fill: both rise to 0.5 (link 0 saturates).
        # Flow 0 keeps... no: flow 0 crosses link 0 too, so both freeze at
        # 0.5 and link 1 is left underused (max-min, not utilisation-max).
        rates = maxmin_rates([arr(0, 1), arr(0)], 1.0, n_links=2)
        assert rates == pytest.approx([0.5, 0.5])

    def test_heterogeneous_capacity(self):
        cap = np.array([1.0, 10.0])
        rates = maxmin_rates([arr(0), arr(1)], cap)
        assert rates == pytest.approx([1.0, 10.0])

    def test_max_min_property(self):
        # After water-filling, every flow's rate is limited by at least
        # one saturated link where it has a maximal rate among users.
        rng = np.random.default_rng(0)
        n_links = 12
        flows = [
            np.unique(rng.integers(0, n_links, size=rng.integers(1, 4)))
            for _ in range(20)
        ]
        cap = np.full(n_links, 4.0)
        rates = maxmin_rates(flows, cap)
        usage = np.zeros(n_links)
        for f, r in zip(flows, rates):
            usage[f] += r
        # Feasibility.
        assert (usage <= cap + 1e-6).all()
        # Bottleneck condition.
        for f, r in zip(flows, rates):
            ok = False
            for link in f:
                if usage[link] >= cap[link] - 1e-6:
                    max_on_link = max(
                        rates[j] for j, g in enumerate(flows) if link in g
                    )
                    if r >= max_on_link - 1e-6:
                        ok = True
                        break
            assert ok, f"flow with rate {r} has no bottleneck"


class TestEdgeCases:
    def test_empty_flow_list(self):
        assert maxmin_rates([], 1.0, n_links=3).size == 0

    def test_linkless_flow_unconstrained(self):
        rates = maxmin_rates([arr(), arr(0)], 2.0, n_links=1)
        assert rates[0] == np.inf
        assert rates[1] == pytest.approx(2.0)

    def test_scalar_capacity_requires_n_links(self):
        with pytest.raises(SimulationError, match="n_links"):
            maxmin_rates([arr(0)], 1.0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(SimulationError, match="positive"):
            maxmin_rates([arr(0)], np.array([0.0]))

    def test_many_flows_one_link_exact(self):
        n = 1000
        rates = maxmin_rates([arr(0)] * n, 1.0, n_links=1)
        assert rates == pytest.approx(np.full(n, 1e-3))

    def test_negative_link_id_rejected(self):
        with pytest.raises(SimulationError, match=r"link id -1 .*n_links=3"):
            maxmin_rates([arr(-1), arr(2)], 1.0, n_links=3)

    def test_link_id_beyond_n_links_rejected(self):
        with pytest.raises(SimulationError, match=r"link id 3 .*n_links=3"):
            maxmin_rates([arr(0), arr(1, 3)], np.ones(3))


# ------------------------------------------------------------------ oracle
# Per-link, per-flow loop versions of the water-fill and of the event loop,
# the exactness oracle: they do the same float operations on the same values
# in the same order as the array code, so results must be bit-identical.

_EPS = 1e-12
_REL_TOL = 1e-9


def _reference_rates(flow_links, capacity, n_links=None):
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

    # Per-link active-flow counts and reverse index link -> flows.
    count = np.zeros(n_links, dtype=np.int64)
    flows_on_link: List[List[int]] = [[] for _ in range(n_links)]
    active = np.zeros(n_flows, dtype=bool)
    for f, links in enumerate(flow_links):
        if len(links) == 0:
            continue  # unconstrained
        active[f] = True
        for link in links:
            count[link] += 1
            flows_on_link[link].append(f)

    fill = 0.0
    remaining = int(active.sum())
    while remaining > 0:
        used = count > 0
        headroom = cap_left[used] / count[used]
        r = float(headroom.min())
        fill += r
        cap_left[used] -= count[used] * r
        # Freeze every active flow crossing a now-saturated link.
        saturated = np.flatnonzero(used & (cap_left <= _EPS * fill + _EPS))
        if saturated.size == 0:
            raise SimulationError("water-filling failed to saturate a link")
        for link in saturated:
            for f in flows_on_link[link]:
                if active[f]:
                    active[f] = False
                    rates[f] = fill
                    remaining -= 1
                    for l2 in flow_links[f]:
                        count[l2] -= 1
    return rates


def _reference_run_flows(flows, capacity, n_links=None):
    """Per-flow completion times of the reference event loop."""
    n = len(flows)
    remaining = np.asarray([f.nbytes for f in flows], dtype=np.float64)
    completion = np.zeros(n)
    alive: List[int] = list(range(n))
    t = 0.0

    guard = 0
    while alive:
        guard += 1
        if guard > n + 1:
            raise SimulationError("flow completion loop failed to converge")
        rates = _reference_rates([flows[i].links for i in alive], capacity, n_links)
        if not (rates > 0).all():
            raise SimulationError("max-min returned a zero rate")
        ttc = remaining[alive] / rates  # inf-rate flows finish instantly
        dt = float(ttc.min())
        t += dt
        threshold = dt * (1 + _REL_TOL)
        still: List[int] = []
        for pos, i in enumerate(alive):
            if ttc[pos] <= threshold:
                completion[i] = t
                remaining[i] = 0.0
            else:
                remaining[i] -= rates[pos] * dt
                still.append(i)
        if len(still) == len(alive):
            raise SimulationError("no flow completed in an event step")
        alive = still
    return completion


@st.composite
def _instances(draw):
    """Random solver inputs: repeated link ids, ~10% linkless flows, and
    capacities that are scalar, per-link uniform, or small integers (the
    last force ties, several links saturating in one level)."""
    n_links = draw(st.integers(1, 40))
    n_flows = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flow_links = [
        rng.integers(0, n_links, size=0 if rng.random() < 0.1 else int(rng.integers(1, 5)))
        for _ in range(n_flows)
    ]
    kind = draw(st.sampled_from(["scalar", "uniform", "small_int"]))
    if kind == "scalar":
        return flow_links, draw(st.floats(0.5, 100.0)), n_links
    if kind == "uniform":
        return flow_links, rng.uniform(0.5, 10.0, size=n_links), None
    return flow_links, rng.integers(1, 4, size=n_links).astype(np.float64), None


class TestMatchesReference:
    @given(inst=_instances())
    @settings(max_examples=200, deadline=None)
    def test_rates_bit_identical(self, inst):
        flow_links, capacity, n_links = inst
        assert np.array_equal(
            maxmin_rates(flow_links, capacity, n_links),
            _reference_rates(flow_links, capacity, n_links),
        )

    def test_table5_cell_bit_identical(self):
        # One Table V cell on the small preset's topology: 2dnndiag, linear
        # mapping, rEDKSP(4) paths, KSP-adaptive chunks.
        topo = Jellyfish(9, 10, 6, seed=0)
        paths = PathCache(topo, "redksp", k=4, seed=1)
        msgs = apply_mapping(
            stencil_messages("2dnndiag", topo.n_hosts),
            linear_mapping(topo.n_hosts, topo.n_hosts),
        )
        flows = build_workload(topo, msgs, paths, chunks=4, seed=2)
        got = run_flows(flows, 20e9, topo.n_links)
        want = _reference_run_flows(flows, 20e9, topo.n_links)
        assert np.array_equal(got.flow_completion, want)
        assert got.makespan == want.max()
