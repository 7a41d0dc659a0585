"""Run the benchmark over many seeds, check its spread, and record trajectory points.

Usage, from the root of a checkout::

    # one fresh process per (workload, seed), results appended as JSON lines
    python3 perfbench/series.py run --seeds 1-10 --seconds 27 --trace 0 \\
        --out perfbench/out/e2e.jsonl
    # interquartile spread of each end-to-end metric as a share of its median
    python3 perfbench/series.py spread perfbench/out/e2e.jsonl
    # append a trajectory point: end-to-end medians and the traced layer split
    python3 perfbench/series.py record --e2e perfbench/out/e2e.jsonl \\
        --layers perfbench/out/layers.jsonl --label "first point"
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
sys.path.insert(0, str(ROOT_DIR))

from perfbench.compare import BENCHMARK, END_TO_END, load_results, quartiles  # noqa: E402

TRAJECTORY = BENCH_DIR / "trajectory.jsonl"


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"`` to a list of seeds."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_series(
    workloads: list[str], seeds: list[int], seconds: float, trace: int, out: Path
) -> None:
    """Run every (workload, seed) in a fresh process; append each result line to *out*."""
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            start = time.perf_counter()
            completed = subprocess.run(command, cwd=ROOT_DIR, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            if completed.returncode != 0:
                print(completed.stdout, completed.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}")
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            line = {
                "workload": workload,
                "seed": seed,
                "seconds": seconds,
                "trace": trace,
                "run_s": elapsed,
                **result,
            }
            with out.open("a") as handle:
                handle.write(json.dumps(line) + "\n")
            print(
                f"{workload} seed {seed}: {elapsed:.1f} s, correct {result['correct']}, "
                f"{result['attempted']} jobs",
                flush=True,
            )


def spread_lines(path: Path) -> list[str]:
    """Interquartile spread over seeds of every end-to-end metric, against its bound."""
    lines = []
    for workload, runs in load_results(path).items():
        mean_run_s = sum(run["run_s"] for run in runs.values()) / len(runs)
        lines.append(f"{workload}: {len(runs)} runs, mean run {mean_run_s:.1f} s")
        for name, metric in END_TO_END.items():
            values = [run["metrics"][name]["value"] for run in runs.values()]
            first, median, third = quartiles(values)
            spread = (third - first) / median if median else 0.0
            if spread < metric["bound"] / 3:
                mark = "below a third of the bound"
            elif spread <= metric["bound"]:
                mark = "within the bound"
            else:
                mark = "WIDER THAN THE BOUND"
            lines.append(
                f"  {name:<26} median {median:<12.6g} spread {spread:.3f}"
                f"  bound {metric['bound']}  {mark}"
            )
    return lines


def record(e2e: Path, layers: Path, label: str) -> dict:
    """Append one trajectory point: per workload, end-to-end quartiles and layer medians."""
    point = {
        "label": label,
        "date": time.strftime("%Y-%m-%d"),
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    for workload, runs in load_results(e2e).items():
        entry = point["workloads"].setdefault(workload, {})
        entry["seeds"] = sorted(runs)
        entry["seconds"] = next(iter(runs.values()))["seconds"]
        entry["end_to_end"] = {}
        for name in END_TO_END:
            values = [run["metrics"][name]["value"] for run in runs.values()]
            first, median, third = quartiles(values)
            entry["end_to_end"][name] = {"median": median, "q1": first, "q3": third}
        entry["attempted"] = sum(run["attempted"] for run in runs.values())
        entry["failed"] = sum(run["failed"] for run in runs.values())
    for workload, runs in load_results(layers).items():
        entry = point["workloads"].setdefault(workload, {})
        entry["layer_seeds"] = sorted(runs)
        entry["per_layer"] = {
            name: quartiles([run["metrics"][name]["value"] for run in runs.values()])[1]
            for name in next(iter(runs.values()))["metrics"]
        }
    with TRAJECTORY.open("a") as handle:
        handle.write(json.dumps(point) + "\n")
    return point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", type=Path, required=True)
    spread = commands.add_parser("spread")
    spread.add_argument("results", type=Path)
    rec = commands.add_parser("record")
    rec.add_argument("--e2e", type=Path, required=True)
    rec.add_argument("--layers", type=Path, required=True)
    rec.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    if args.command == "run":
        seeds = parse_seeds(args.seeds)
        run_series(args.workloads.split(","), seeds, args.seconds, args.trace, args.out)
        if args.trace == 0:
            print("\n".join(spread_lines(args.out)))
    elif args.command == "spread":
        print("\n".join(spread_lines(args.results)))
    else:
        print(json.dumps(record(args.e2e, args.layers, args.label), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
