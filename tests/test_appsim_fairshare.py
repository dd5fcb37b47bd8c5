"""Unit tests for max-min fair-share rate computation."""

from typing import List

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import Jellyfish, PathCache
from repro.appsim import FlowSpec, build_workload, fairshare, run_flows
from repro.appsim.fairshare import FillRecord, maxmin_rates
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_scalar_capacity_rejected(self, bad):
        with pytest.raises(SimulationError, match=f"finite and positive, got {bad}"):
            maxmin_rates([arr(0)], bad, n_links=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_link_capacity_rejected(self, bad):
        # An inf link is rejected too, not read as unconstrained.
        with pytest.raises(SimulationError, match=f"link 1 has {bad}"):
            maxmin_rates([arr(0), arr(1)], np.array([1.0, bad]))

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


def _flows(flow_links, nbytes):
    return [FlowSpec(0, 1, b, links, i) for i, (links, b) in enumerate(zip(flow_links, nbytes))]


def _assert_run_matches_reference(flows, capacity, n_links=None):
    got = run_flows(flows, capacity, n_links)
    want = _reference_run_flows(flows, capacity, n_links)
    assert np.array_equal(got.flow_completion, want)


@st.composite
def _event_instances(draw):
    """Event-loop inputs: up to 60 of ``_instances``' flows, with byte
    counts from a small set so that several flows finish in one event."""
    flow_links, capacity, n_links = draw(_instances())
    flow_links = flow_links[: draw(st.integers(1, 60))]
    assume(flow_links)
    sizes = draw(st.sampled_from([(1.0,), (1.0, 2.0), (1.0, 2.0, 3.0, 8.0), (0.25, 1.0, 16.0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nbytes = rng.choice(sizes, size=len(flow_links))
    return _flows(flow_links, nbytes), capacity, n_links


def _solve_and_retire(flow_links, capacity, n_links, done):
    """One solve on a fresh record, then ``retire(done)``."""
    record = FillRecord()
    maxmin_rates(flow_links, capacity, n_links, record)
    levels = len(record.steps)
    record.retire(np.asarray(done))
    return record, levels


class TestWarmStart:
    """Each solve of ``run_flows`` resumes from the previous event's record;
    the completion times must stay those of the cold per-event loop."""

    @given(inst=_event_instances())
    @settings(max_examples=200, deadline=None)
    def test_event_loop_bit_identical(self, inst):
        _assert_run_matches_reference(*inst)

    def test_only_linkless_flows_finish(self):
        # Nothing is cut: the next solve replays every level and fills none.
        links = [arr(), arr(0, 1), arr(0), arr(1), arr()]
        cap = np.array([3.0, 5.0])
        record, levels = _solve_and_retire(links, cap, None, [True, False, False, False, True])
        steps = list(record.steps)
        assert levels == len(steps) == 2
        rates = maxmin_rates(links[1:4], cap, None, record)
        assert record.steps == steps
        assert np.array_equal(rates, maxmin_rates(links[1:4], cap))
        _assert_run_matches_reference(_flows(links, [1.0, 4.0, 3.0, 9.0, 2.0]), cap)

    def test_finished_flow_froze_at_level_zero(self):
        # Flow 0 froze at level 0, so the record is cut to nothing and the
        # next solve runs from level 0.
        links = [arr(0), arr(0, 1), arr(1), arr(2)]
        cap = np.array([2.0, 9.0, 10.0])
        record, levels = _solve_and_retire(links, cap, None, [True, False, False, False])
        assert levels == 3 and record.steps == []
        rates = maxmin_rates(links[1:], cap, None, record)
        assert np.array_equal(rates, maxmin_rates(links[1:], cap))
        _assert_run_matches_reference(_flows(links, [1.0, 6.0, 20.0, 7.0]), cap)

    def test_finished_flow_was_last_on_its_link(self):
        # Level 0 freezes flow 2 at rate 1 (link 2), level 1 flow 0 at 4
        # (link 1), level 2 flow 1 at 6 (link 0).  Flow 0 finishes first and
        # was the last flow on link 1; level 0 is replayed.
        links = [arr(0, 1), arr(0), arr(2)]
        cap = np.array([10.0, 4.0, 1.0])
        assert maxmin_rates(links, cap).tolist() == [4.0, 6.0, 1.0]
        record, levels = _solve_and_retire(links, cap, None, [True, False, False])
        assert levels == 3 and record.steps == [1.0]
        rates = maxmin_rates(links[1:], cap, None, record)
        assert rates.tolist() == [10.0, 1.0]
        assert np.array_equal(rates, maxmin_rates(links[1:], cap))
        _assert_run_matches_reference(_flows(links, [4.0, 100.0, 100.0]), cap)

    def test_replay_in_many_blocks(self, monkeypatch):
        # With the smallest block budget, 6 of this run's 11 replays take
        # two or three blocks.
        monkeypatch.setattr(fairshare, "_BLOCK_CELLS", 1)
        rng = np.random.default_rng(7)
        n_links = 60
        links = [rng.integers(0, n_links, size=int(rng.integers(1, 4))) for _ in range(40)]
        cap = rng.integers(1, 4, size=n_links).astype(np.float64)
        _assert_run_matches_reference(_flows(links, rng.choice([1.0, 2.0, 3.0], size=40)), cap)

    def test_crowded_link_is_not_resumed_from(self):
        # 10,000 flows share link 0, beyond ``_EXACT_COUNT``.  Its step
        # cap0 / 10000 leaves one ulp of cap0 on it, above the saturation
        # threshold, so link 0 sets level 0's step without saturating;
        # flow 0 saturates link 1 (one ulp above that step) and freezes at
        # level 0.  Once a link-0 flow finishes, link 1 sets level 0's step
        # instead, so the record must be cut to level 0.
        n = 10_000
        cap0 = 5881805419446.382
        step = cap0 / n
        assert cap0 - n * step > fairshare._EPS * step + fairshare._EPS
        cap = np.array([cap0, np.nextafter(step, np.inf)])
        links = [arr(1)] + [arr(0)] * n
        done = np.zeros(n + 1, dtype=bool)
        done[1] = True
        record, levels = _solve_and_retire(links, cap, None, done)
        assert levels == 2 and record.barrier == 0 and record.steps == []
        rates = maxmin_rates(links[:1] + links[2:], cap, None, record)
        assert rates[0] == cap[1]
        assert np.array_equal(rates, maxmin_rates(links[:1] + links[2:], cap))
        _assert_run_matches_reference(_flows(links, [1e9, 1e6] + [1e9] * (n - 1)), cap)

    def test_flow_count_must_match_record(self):
        record, _ = _solve_and_retire([arr(0), arr(0)], 1.0, 1, [True, False])
        with pytest.raises(SimulationError, match="2 flows passed, but the record holds 1"):
            maxmin_rates([arr(0), arr(0)], 1.0, 1, record)
