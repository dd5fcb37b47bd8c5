#!/usr/bin/env python
"""Saturation study: routing mechanisms under demanding shift traffic.

Runs the Figure 9 protocol at example scale: for each path-selection
scheme and each routing mechanism, sweep the injection rate on a random
shift pattern and report the saturation throughput, then print the
latency-versus-load curve of the winning configuration.

Run with::

    python examples/saturation_study.py        (~25 s)
"""

from repro import Jellyfish, PathCache
from repro.netsim import (
    PatternTraffic,
    SimConfig,
    latency_curve,
    saturation_throughput,
)
from repro.traffic import shift
from repro.utils.tables import format_table

MECHANISMS = ("random", "round_robin", "ugal", "ksp_ugal", "ksp_adaptive")
SCHEMES = ("ksp", "redksp")


def main() -> None:
    topo = Jellyfish(12, 10, 6, seed=7)
    pattern = shift(topo.n_hosts, topo.n_hosts // 2)
    traffic = PatternTraffic(pattern)
    config = SimConfig(warmup_cycles=200, sample_cycles=200, n_samples=5)
    rates = [round(0.05 * i, 2) for i in range(1, 21)]

    # Warm each scheme's table for exactly the switch pairs the pattern
    # touches before the sweeps start (the fast path-table pipeline); the
    # simulator then never runs Yen's algorithm mid-measurement.
    pairs = traffic.switch_pairs(topo)

    print(f"saturation throughput of {pattern.name} on {topo}\n")
    rows = []
    best = None
    for scheme in SCHEMES:
        cache = PathCache(topo, scheme, k=4, seed=1)
        cache.warm(pairs)
        row = [scheme]
        for mech in MECHANISMS:
            th, _ = saturation_throughput(
                topo, cache, mech, traffic, rates=rates, config=config, seed=0
            )
            row.append(th)
            if best is None or th > best[0]:
                best = (th, scheme, mech)
        rows.append(row)
    print(format_table(["scheme"] + list(MECHANISMS), rows, ndigits=2))

    th, scheme, mech = best
    print(f"\nbest configuration: {scheme} + {mech} (throughput {th:.2f})")
    print("latency vs offered load for the best configuration:")
    cache = PathCache(topo, scheme, k=4, seed=1)
    cache.warm(pairs)
    points = latency_curve(
        topo, cache, mech, traffic, rates=rates, config=config, seed=0
    )
    print(
        format_table(
            ["offered load", "mean latency (cycles)", "accepted", "saturated"],
            [
                [p.rate, round(p.result.mean_latency, 1),
                 round(p.result.accepted_throughput, 3), p.result.saturated]
                for p in points
            ],
        )
    )


if __name__ == "__main__":
    main()
