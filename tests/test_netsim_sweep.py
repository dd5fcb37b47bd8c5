"""Unit tests for the sweep module's protocol details."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError
from repro.netsim import (
    PatternTraffic,
    SimConfig,
    UniformTraffic,
    latency_curve,
    saturation_throughput,
    sweep,
)
from repro.netsim.sweep import (
    DEFAULT_RATES,
    SweepPoint,
    check_ladder,
    search_saturation,
)
from repro.traffic import random_permutation

TINY = SimConfig(warmup_cycles=50, sample_cycles=50, n_samples=2)


@pytest.fixture(scope="module")
def setup():
    topo = Jellyfish(8, 8, 5, seed=3)
    return topo, PathCache(topo, "redksp", k=3, seed=1)


class TestDefaults:
    def test_default_rates_cover_unit_interval(self):
        assert DEFAULT_RATES[0] == pytest.approx(0.05)
        assert DEFAULT_RATES[-1] == pytest.approx(1.0)
        assert len(DEFAULT_RATES) == 20
        assert list(DEFAULT_RATES) == sorted(DEFAULT_RATES)

    def test_sweep_point_is_frozen(self, setup):
        topo, paths = setup
        pts = latency_curve(
            topo, paths, "random", UniformTraffic(topo.n_hosts),
            rates=(0.2,), config=TINY, seed=0,
        )
        assert isinstance(pts[0], SweepPoint)
        with pytest.raises(AttributeError):
            pts[0].rate = 0.9


class TestProtocol:
    def test_points_follow_requested_rates(self, setup):
        topo, paths = setup
        rates = (0.1, 0.3, 0.5)
        pts = latency_curve(
            topo, paths, "random", UniformTraffic(topo.n_hosts),
            rates=rates, config=TINY, seed=0, stop_after_saturation=False,
        )
        assert [p.rate for p in pts] == list(rates)

    def test_zero_throughput_when_always_saturated(self, setup):
        topo, paths = setup
        config = SimConfig(
            warmup_cycles=50, sample_cycles=50, n_samples=2,
            saturation_latency=1.0,  # impossible: every run saturates
        )
        th, pts = saturation_throughput(
            topo, paths, "random", UniformTraffic(topo.n_hosts),
            rates=(0.1, 0.2), config=config, seed=0,
        )
        assert th == 0.0
        assert len(pts) == 1  # stopped at the first saturated point

    @pytest.mark.parametrize("rates", [(0.3, 0.1), (0.2, 0.2)])
    def test_stopping_ladder_must_climb(self, setup, rates):
        # The answer is the last rung before the first saturated one: the
        # highest unsaturated rate only on a climbing ladder ((0.3, 0.1)
        # ran both rungs unsaturated and reported 0.1).
        topo, paths = setup
        traffic = UniformTraffic(topo.n_hosts)
        for ladder in (rates, np.array(rates)):
            with pytest.raises(ConfigurationError, match="strictly increasing"):
                saturation_throughput(
                    topo, paths, "random", traffic, rates=ladder, config=TINY,
                    seed=0,
                )
            with pytest.raises(ConfigurationError, match="strictly increasing"):
                latency_curve(
                    topo, paths, "random", traffic, rates=ladder, config=TINY,
                    seed=0,
                )
        # A ladder that runs every rung keeps any order.
        pts = latency_curve(
            topo, paths, "random", traffic, rates=rates, config=TINY, seed=0,
            stop_after_saturation=False,
        )
        assert [p.rate for p in pts] == list(rates)

    @pytest.mark.parametrize(
        "rates",
        [
            (0.1, 1.5),
            (0.1, float("nan")),
            (0.3, float("nan"), 0.2),
            (0.0, 0.5),
            (0.1, float("inf")),
        ],
    )
    def test_every_rung_is_checked(self, setup, rates):
        # A search skips rungs, so a bad rung must fail up front, not
        # only when probed: with every run saturated, (0.1, 1.5) and
        # (0.1, nan) read 0.0 from their first rung.
        topo, paths = setup
        with pytest.raises(ConfigurationError, match="finite"):
            check_ladder(rates)
        with pytest.raises(ConfigurationError, match="finite"):
            check_ladder(rates, stops=False)
        config = SimConfig(
            warmup_cycles=50, sample_cycles=50, n_samples=2,
            saturation_latency=1.0,
        )
        with pytest.raises(ConfigurationError, match="finite"):
            saturation_throughput(
                topo, paths, "random", UniformTraffic(topo.n_hosts),
                rates=rates, config=config, seed=0,
            )

    def test_distinct_seeds_at_each_rate(self, setup):
        # Each ladder step must use an independent stream; identical
        # consecutive results would indicate stream reuse.
        topo, paths = setup
        pts = latency_curve(
            topo, paths, "random", UniformTraffic(topo.n_hosts),
            rates=(0.3, 0.3), config=TINY, seed=0, stop_after_saturation=False,
        )
        assert pts[0].result.delivered != pts[1].result.delivered


class TestSearchEqualsLadder:
    """Real runs: the search gives the ladder's answer and results."""

    RATES = tuple(float(r) for r in np.round(np.linspace(0.3, 1.0, 10), 4))
    CONFIG = SimConfig(
        warmup_cycles=50, sample_cycles=50, n_samples=2, saturation_latency=40.0
    )

    @pytest.mark.parametrize("mechanism", ["random", "ksp_ugal", "ksp_adaptive"])
    def test_search_equals_ladder(self, setup, mechanism):
        # Ladders of 1 to 10 rungs are prefixes of one ladder, whose rung
        # i runs with the same seed draw and rate in every prefix.
        topo, paths = setup
        firsts = set()
        for seed in (0, 1):
            traffic = PatternTraffic(random_permutation(topo.n_hosts, seed=seed))
            ladder = latency_curve(
                topo, paths, mechanism, traffic, rates=self.RATES,
                config=self.CONFIG, seed=seed, stop_after_saturation=False,
            )
            for n in (1, 2, 3, 4, 6, 10):
                th, points = saturation_throughput(
                    topo, paths, mechanism, traffic, rates=self.RATES[:n],
                    config=self.CONFIG, seed=seed,
                )
                first = next(
                    (i for i, p in enumerate(ladder[:n]) if p.result.saturated), n
                )
                firsts.add((first, n))
                assert th == (ladder[first - 1].rate if first else 0.0)
                for p in points:
                    expected = ladder[self.RATES.index(p.rate)].result
                    assert repr(p.result) == repr(expected)
        # Some ladders saturate part-way up, some never.
        assert any(0 < first < n for first, n in firsts)
        assert any(first == n for first, n in firsts)

    def test_shared_generator_ends_where_the_ladder_leaves_it(self, setup):
        topo, paths = setup
        traffic = PatternTraffic(random_permutation(topo.n_hosts, seed=0))
        stopped = []
        for n in (4, 10):
            searched, climbed = np.random.default_rng(5), np.random.default_rng(5)
            saturation_throughput(
                topo, paths, "random", traffic, rates=self.RATES[:n],
                config=self.CONFIG, seed=searched,
            )
            points = latency_curve(
                topo, paths, "random", traffic, rates=self.RATES[:n],
                config=self.CONFIG, seed=climbed,
            )
            stopped.append(len(points) < n)
            assert searched.integers(2**63) == climbed.integers(2**63)
        assert any(stopped)  # a climb that stops early draws fewer seeds


class TestSearchSaturation:
    """The driver's lane packing on real runs."""

    def test_jobs_share_a_batch_only_with_their_own_paths(self, setup):
        # Two tables of one scheme (k = 2 and 3) must not share a batch:
        # a lane runs on its batch's one path cache.
        topo, _ = setup
        config = SimConfig(
            warmup_cycles=50, sample_cycles=50, n_samples=2,
            saturation_latency=40.0, batch_lanes=8,
        )
        traffic = PatternTraffic(random_permutation(topo.n_hosts, seed=0))
        rates = TestSearchEqualsLadder.RATES
        jobs = [
            (PathCache(topo, "redksp", k=k, seed=1), "ksp_adaptive", traffic, 5)
            for k in (2, 3)
        ]
        together = search_saturation(topo, jobs, rates, config, {})
        for job, (th, points, _) in zip(jobs, together):
            [(alone, alone_points, _)] = search_saturation(
                topo, [job], rates, config, {}
            )
            assert th == alone
            assert [repr(p.result) for p in points] == [
                repr(p.result) for p in alone_points
            ]


#: Every saturated-flag pattern of ladders of 1 to 10 rungs.
ALL_FLAGS = [
    flags
    for n in range(1, 11)
    for flags in itertools.product((False, True), repeat=n)
]


def _climb(flags):
    """The climb's answer (rung index, -1 for none) and the rungs it runs."""
    for i, saturated in enumerate(flags):
        if saturated:
            return i - 1, list(range(i + 1))
    return len(flags) - 1, list(range(len(flags)))


@pytest.fixture
def scripted(monkeypatch):
    """Replace each run by a scripted flag; returns a search driver.

    ``search(flags, seed)`` runs ``saturation_throughput`` on the ladder
    0.1, 0.2, ... of ``len(flags)`` rungs and returns ``(rates, output,
    probed)``, where ``probed`` lists ``(rung, run seed)`` in run order;
    ``climb=True`` runs ``latency_curve`` instead, ``climb="all"`` with
    ``stop_after_saturation=False``.
    """
    state = {}

    def fake_run(topology, paths, mechanism, traffic, rate, config, seed):
        i = state["rates"].index(rate)
        state["probed"].append((i, seed))
        return SimpleNamespace(saturated=state["flags"][i])

    monkeypatch.setattr(sweep, "_run_one", fake_run)

    def search(flags, seed=0, climb=False):
        rates = tuple((i + 1) / 10 for i in range(len(flags)))
        state.update(flags=flags, rates=rates, probed=[])
        if climb:
            out = latency_curve(
                None, None, "random", None, rates=rates, seed=seed,
                stop_after_saturation=climb != "all",
            )
        else:
            out = saturation_throughput(
                None, None, "random", None, rates=rates, seed=seed
            )
        return rates, out, state["probed"]

    return search


class TestLadderSearch:
    """The search over scripted saturated flags."""

    def test_no_rung_probed_twice(self, scripted):
        for flags in ALL_FLAGS:
            rates, (_, points), probed = scripted(flags)
            rungs = [i for i, _ in probed]
            assert len(set(rungs)) == len(rungs), flags
            assert [p.rate for p in points] == [rates[i] for i in sorted(rungs)]

    def test_monotone_flags_give_the_ladders_answer(self, scripted):
        for n in range(1, 11):
            for first in range(n + 1):
                flags = (False,) * first + (True,) * (n - first)
                rates, (th, _), _ = scripted(flags)
                answer, _ = _climb(flags)
                assert th == (rates[answer] if answer >= 0 else 0.0), flags

    def test_non_monotone_flags_give_the_documented_answer(self, scripted):
        # An unsaturated rung whose next rung was probed and saturated,
        # or 0.0 (rung 0 saturated), or the top rung (ran unsaturated).
        for flags in ALL_FLAGS:
            rates, (th, _), probed = scripted(flags)
            rungs = {i for i, _ in probed}
            n = len(flags)
            if th == 0.0:
                assert 0 in rungs and flags[0], flags
                continue
            i = rates.index(th)
            assert i in rungs and not flags[i], flags
            assert i == n - 1 or (i + 1 in rungs and flags[i + 1]), flags

    def test_short_ladders_probe_in_ladder_order(self, scripted):
        for flags in ALL_FLAGS:
            if len(flags) <= 3:
                _, _, probed = scripted(flags)
                assert [i for i, _ in probed] == _climb(flags)[1], flags

    def test_ten_unsaturated_rungs_probe_five(self, scripted):
        _, (th, points), probed = scripted((False,) * 10)
        assert [i for i, _ in probed] == [0, 1, 3, 7, 9]
        assert th == 1.0
        assert [p.rate for p in points] == [0.1, 0.2, 0.4, 0.8, 1.0]

    def test_rung_seeds_are_the_ladders_draws(self, scripted):
        # Rung i runs with the ladder's i-th draw, whatever the probe order.
        for flags in ALL_FLAGS[::7]:
            _, _, ladder = scripted(flags, seed=3, climb="all")
            _, _, probed = scripted(flags, seed=3)
            seeds = dict(ladder)
            assert all(seed == seeds[i] for i, seed in probed), flags

    def test_shared_generator_ends_where_the_ladder_leaves_it(self, scripted):
        for n in range(1, 11):
            for first in range(n + 1):
                flags = (False,) * first + (True,) * (n - first)
                searched = np.random.default_rng(11)
                scripted(flags, seed=searched)
                climbed = np.random.default_rng(11)
                scripted(flags, seed=climbed, climb=True)
                assert searched.integers(2**63) == climbed.integers(2**63)
