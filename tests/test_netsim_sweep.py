"""Unit tests for the sweep module's protocol details."""

import numpy as np
import pytest

from repro import Jellyfish, PathCache
from repro.errors import ConfigurationError
from repro.netsim import SimConfig, UniformTraffic, latency_curve, saturation_throughput
from repro.netsim.sweep import DEFAULT_RATES, SweepPoint

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

    def test_distinct_seeds_at_each_rate(self, setup):
        # Each ladder step must use an independent stream; identical
        # consecutive results would indicate stream reuse.
        topo, paths = setup
        pts = latency_curve(
            topo, paths, "random", UniformTraffic(topo.n_hosts),
            rates=(0.3, 0.3), config=TINY, seed=0, stop_after_saturation=False,
        )
        assert pts[0].result.delivered != pts[1].result.delivered
