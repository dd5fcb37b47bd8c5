#!/usr/bin/env python
"""Figure-shaped reporting: terminal charts and machine-readable export.

Runs two experiment drivers at small scale and renders their results the
way the paper presents them — a latency-versus-load line chart (Figure 11)
and a throughput bar chart (Figure 4) — then exports both to JSON/CSV.

Run with::

    python examples/figures_report.py        (~10 seconds)
"""

import tempfile
from pathlib import Path

from repro.experiments import run_experiment
from repro.report import bar_chart, line_chart, save_result


def main() -> None:
    # Figure 11: latency vs offered load as a line chart.
    fig11 = run_experiment("fig11", scale="small", seed=0)
    print(fig11.to_text())
    print()
    print(
        line_chart(
            {scheme: pts for scheme, pts in fig11.data.items()},
            title="Figure 11 (small scale): latency vs offered load",
            x_label="offered load (flits/node/cycle)",
            y_label="mean packet latency (cycles)",
            width=56,
            height=14,
        )
    )
    print()

    # Figure 4: model throughput per scheme as bars (permutation column).
    fig4 = run_experiment("fig4", scale="small", seed=0)
    print(
        bar_chart(
            {scheme: vals["permutation"] for scheme, vals in fig4.data.items()},
            title="Figure 4 (small scale): model throughput, random permutation",
        )
    )

    # Machine-readable export.
    out = Path(tempfile.mkdtemp(prefix="repro-results-"))
    for result in (fig4, fig11):
        save_result(result, out / f"{result.experiment}.json")
        save_result(result, out / f"{result.experiment}.csv")
    print(f"\nexported JSON/CSV to {out}")


if __name__ == "__main__":
    main()
