"""Compare two result sets of the benchmark, parent against change.

Usage, from the root of a checkout::

    python3 perfbench/compare.py parent.jsonl change.jsonl

A result set is a JSON-lines file written by ``series.py run``: one line per
run with ``workload``, ``seed`` and the run's result object.  For every
workload and end-to-end metric the command prints each side's median and
quartiles, the pairs (runs with the same seed) the change wins, and a verdict:

* ``better``: the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile spread, or every change run beats every parent run;
* ``worse``: the same rule with the sides swapped, or the change's median is
  worse than the parent's by more than the metric's bound;
* ``unchanged``: neither, with the parent's spread within the bound;
* ``unresolved``: neither, with the parent's spread wider than the bound.

It also prints the failed share of each side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
WIN_SHARE = 0.9


def load_results(path: Path) -> dict[str, dict[int, dict]]:
    """Runs of a result set, by workload and seed."""
    runs: dict[str, dict[int, dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(metric: dict, parent: list[float], change: list[float], pairs) -> tuple[str, int]:
    """Verdict for one metric and the pairs the change wins.

    *pairs* are (parent, change) values of runs with the same seed.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p_first, p_median, p_third = quartiles(parent)
    spread = p_third - p_first
    gap = sign * (quartiles(change)[1] - p_median)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    if pairs and wins >= WIN_SHARE * len(pairs) and gap > spread:
        return "better", wins
    if min(sign * value for value in change) > max(sign * value for value in parent):
        return "better", wins
    if pairs and losses >= WIN_SHARE * len(pairs) and -gap > spread:
        return "worse", wins
    if -gap > metric["bound"] * abs(p_median):
        return "worse", wins
    if spread > metric["bound"] * abs(p_median):
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_runs: dict, change_runs: dict) -> list[str]:
    """The comparison report, one line per workload and metric."""
    lines = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, {})
        change = change_runs.get(workload, {})
        lines.append(f"{workload}: parent {len(parent)} runs, change {len(change)} runs")
        for side, runs in (("parent", parent), ("change", change)):
            attempted = sum(run["attempted"] for run in runs.values())
            failed = sum(run["failed"] for run in runs.values())
            share = failed / attempted if attempted else 0.0
            lines.append(f"  {side} failed share {share:g} ({failed}/{attempted} jobs)")
        seeds = sorted(set(parent) & set(change))
        for name, metric in END_TO_END.items():
            p_values = [run["metrics"][name]["value"] for run in parent.values()]
            c_values = [run["metrics"][name]["value"] for run in change.values()]
            if not p_values or not c_values:
                continue
            pairs = [
                (parent[seed]["metrics"][name]["value"], change[seed]["metrics"][name]["value"])
                for seed in seeds
            ]
            outcome, wins = verdict(metric, p_values, c_values, pairs)
            p_q, c_q = quartiles(p_values), quartiles(c_values)
            lines.append(
                f"  {name:<26} parent {p_q[1]:.6g} [{p_q[0]:.6g}, {p_q[2]:.6g}]"
                f"  change {c_q[1]:.6g} [{c_q[0]:.6g}, {c_q[2]:.6g}] {metric['unit']}"
                f"  change wins {wins}/{len(pairs)}  {outcome}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    print("\n".join(compare(load_results(args.parent), load_results(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
