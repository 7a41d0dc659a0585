"""Run one workload of the end-to-end estimate benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zd-s5378-w256 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split (and writes the spans to ``perfbench/out/``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout; without it, or without the stored references, the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent


def _prepare_process() -> None:
    """Import from the checkout, keep temporary files in it, drop REPRO_* overrides."""
    sys.path[:0] = [str(ROOT_DIR / "src"), str(ROOT_DIR)]
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    scratch = BENCH_DIR / "out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)


def _print_result(result, seconds: float, trace: bool) -> None:
    from perfbench.harness import END_TO_END, PER_LAYER

    definitions = PER_LAYER if trace else END_TO_END
    print(
        f"workload {result.workload}  seed {result.seed}  seconds {seconds:g}"
        f"  trace {int(trace)}"
    )
    if trace:
        print(f"{'span':<26}{'calls/job':>12}{'self s/job':>14}{'share':>9}")
        for name, calls, self_s, share in result.table:
            print(f"{name:<26}{calls:>12.1f}{self_s:>14.6f}{share:>9.1%}")
    for name, value in result.metrics.items():
        note = f"  ({result.jobs_timed} jobs)" if name == "estimate_s_p50" else ""
        print(f"{name:<36}{value:>16.6g} {definitions[name]['unit']}{note}")
    share = result.failed / result.attempted if result.attempted else 0.0
    print(f"jobs attempted {result.attempted}  failed {result.failed}  failed_share {share:g}")
    for error in result.errors:
        print(f"failed job {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end DIPE estimate benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT_DIR / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT_DIR / 'src'}", file=sys.stderr)
        return 2
    _prepare_process()
    from perfbench.harness import REFERENCES, WORKLOADS, load_references, run_workload

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"missing {REFERENCES}; run perfbench/make_references.py", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace, load_references())
    _print_result(result, args.seconds, trace)
    print(json.dumps(result.summary()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
