"""Compare two sets of benchmark runs: ``compare.py A B``.

``A`` and ``B`` are files written by ``run.py --out``, or directories of
such files: a set measured one seed at a time, alternating with the other
set so that the host's drift favours neither.  Runs are paired by
(workload, seed): each workload's work depends on its seed, so B is
judged by the per-seed ratios B/A, and the seed's own effect cancels.
For every (workload, end-to-end metric) the script prints each set's
median and quartiles (``statistics.quantiles(n=4)``), the median ratio as
a change, the spread (interquartile distance of the ratios over their
median), the metric's bound from ``BENCHMARK.json``, and a verdict for B
against A:

- ``worse``: the median ratio is worse than 1 by more than the bound;
- ``unresolved``: the spread exceeds the bound, so the sets cannot be
  told apart, unless B is better on every seed, which reads ``better``;
- ``better``: the median ratio is better than 1 by more than the bound;
- ``same``: otherwise.

Below each ``wall_ref_s`` row, the raw host time of the call, ``wall_s``,
is printed the same way with ``report`` for a verdict: it is what a user
waits for, but on a shared host its spread is wider than any bound, even
paired by seed (see README.md), so it does not set the exit status.

The ``steady`` column says whether the spread is below a third of the
bound.  Exit status: 0 when every verdict is ``same`` and every run in
both sets checked correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, quartiles

#: Raw run-record samples reported beside the end-to-end metric they belong to.
RAW = {"wall_ref_s": "wall_s"}


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(ratios, bound: float, better: str) -> str:
    """B against A for one metric; ``ratios`` are the per-seed B/A values."""
    change = quartiles(ratios)[1] - 1.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "worse"
    if spread(ratios) > bound:
        if better == "lower":
            all_better = max(ratios) < 1.0
        else:
            all_better = min(ratios) > 1.0
        return "better" if all_better else "unresolved"
    if -worse > bound:
        return "better"
    return "same"


def load_set(path) -> dict:
    """``{"values": {workload: {seed: {metric: value}}}, "bad": [...]}``:
    the untraced runs' end-to-end metrics, and the runs that did not check
    correct.  ``run.py`` gives each round of a set its own seed."""
    path = Path(path)
    runs = []
    for part in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        with open(part, encoding="utf-8") as fh:
            runs += json.load(fh)["runs"]
    values, bad = {}, []
    for run in runs:
        if not run["correct"]:
            bad.append(f"{run['workload']} seed {run['seed']}: {run['errors'][:1]}")
        if run["trace"]:
            continue
        per_seed = {name: m["value"] for name, m in run["metrics"].items()}
        for raw in RAW.values():
            if run["samples"].get(raw):
                per_seed[raw] = statistics.median(run["samples"][raw])
        values.setdefault(run["workload"], {})[run["seed"]] = per_seed
    return {"values": values, "bad": bad}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline set: a run.py --out file or a directory of them")
    ap.add_argument("b", help="candidate set: a run.py --out file or a directory of them")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    rows = []
    for m in metrics:
        rows.append((m, False))
        if m["name"] in RAW:
            rows.append((dict(m, name=RAW[m["name"]]), True))
    a, b = load_set(args.a), load_set(args.b)
    ok = not a["bad"] and not b["bad"]
    for label, s in (("A", a), ("B", b)):
        for line in s["bad"]:
            print(f"{label} run failed: {line}")

    print(f"{'workload':<16} {'metric':<12} {'pairs':>5} {'A median':>10} "
          f"{'A q1..q3':>19} {'B median':>10} {'B q1..q3':>19} {'change':>7} "
          f"{'spread':>7} {'bound':>6} {'steady':>6}  verdict")
    for w in sorted(set(a["values"]) | set(b["values"])):
        sa, sb = a["values"].get(w, {}), b["values"].get(w, {})
        for m, raw in rows:
            name = m["name"]
            seeds = sorted(s for s in set(sa) & set(sb)
                           if name in sa[s] and name in sb[s])
            if not seeds:
                print(f"{w:<16} {name:<12} no seed measured in both sets")
                ok = ok and raw
                continue
            va = [sa[s][name] for s in seeds]
            vb = [sb[s][name] for s in seeds]
            ratios = [y / x for x, y in zip(va, vb)]
            qa, qb = quartiles(va), quartiles(vb)
            sp = spread(ratios)
            v = "report" if raw else verdict(ratios, m["bound"], m["better"])
            steady = "yes" if sp < m["bound"] / 3 else "no"
            print(
                f"{w:<16} {name:<12} {len(seeds):>5} {qa[1]:>10.4g} "
                f"{qa[0]:>9.4g}..{qa[2]:<8.4g} {qb[1]:>10.4g} {qb[0]:>9.4g}..{qb[2]:<8.4g} "
                f"{quartiles(ratios)[1] - 1:>+7.1%} {sp:>7.1%} {m['bound']:>6.0%} "
                f"{steady:>6}  {v}"
            )
            ok = ok and v in ("same", "report")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
