"""Label each (workload, end-to-end metric) of a parent/change comparison.

Usage, from the root of the repository:

    python3 bench/compare.py --parent p1.out p2.out ... --change c1.out c2.out ...

Each file is the saved standard output of one
``bench/run.py --workload W --trace 0`` run.  Runs are paired in the
order given, per workload; make them alternately (parent, change,
change, parent, ...) with identical settings, ten pairs or more.

A metric is ``better`` when the change wins at least 9 in 10 of the
pairs (ties count for neither), the medians differ by more than the
parent's quartile spread and no more calls failed than at the parent;
``worse`` when the change's median is worse than the parent's by more
than the metric's bound in BENCHMARK.json; ``unresolved`` when the
parent's own spread exceeds that bound and not every change run beats
every parent run; ``unchanged`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_run(path) -> tuple[str, dict]:
    """(workload, result) from a saved run output."""
    lines = Path(path).read_text().splitlines()
    meta, result = json.loads(lines[-2]), json.loads(lines[-1])
    return meta["workload"], result


def label(parent: list[float], change: list[float], better: str, bound: float,
          parent_failed: int = 0, change_failed: int = 0) -> str:
    """Verdict for one metric from paired runs (``parent[i]`` with
    ``change[i]``)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if (wins >= 0.9 * len(parent) and sign * (pm - cm) > q3 - q1
            and change_failed <= parent_failed):
        return "better"
    beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
    if q3 - q1 > bound * abs(pm) and not beats_all:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())

    runs = {"parent": defaultdict(list), "change": defaultdict(list)}
    for side in runs:
        for path in getattr(args, side):
            workload, result = read_run(path)
            runs[side][workload].append(result)

    print(f"{'workload':<14} {'metric':<18} {'parent median':>14} {'change median':>14}"
          f"  {'wins':>6}  verdict")
    for workload in sorted(runs["parent"]):
        parent, change = runs["parent"][workload], runs["change"].get(workload, [])
        if len(parent) != len(change):
            print(f"{workload}: {len(parent)} parent runs but {len(change)} change runs",
                  file=sys.stderr)
            return 2
        p_failed = sum(r["failed"] for r in parent)
        c_failed = sum(r["failed"] for r in change)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (p - c) > 0 for p, c in zip(pv, cv))
            verdict = label(pv, cv, metric["better"], metric["bound"], p_failed, c_failed)
            print(f"{workload:<14} {name:<18} {statistics.median(pv):>14.6g} "
                  f"{statistics.median(cv):>14.6g}  {wins:>2}/{len(pv):<3}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
