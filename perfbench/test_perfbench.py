"""Tests of the end-to-end estimate benchmark itself (fast: every run uses s27)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from perfbench.compare import verdict
from perfbench.harness import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    job_specs,
    reference_key,
    run_jobs,
    run_workload,
)
from perfbench.make_references import compute_reference

ROOT_DIR = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def s27_references() -> dict[str, float]:
    references = {}
    for power_simulator in ("zero-delay", "event-driven"):
        entry = compute_reference(
            "s27", power_simulator, lanes=64, cycles_per_lane=512, warmup_cycles=64
        )
        references[reference_key("s27", power_simulator)] = entry["average_power_w"]
    return references


def test_same_workload_seed_gives_identical_specs():
    for workload in WORKLOADS:
        first = [spec.to_dict() for spec in islice(job_specs(workload, 7), 4)]
        again = [spec.to_dict() for spec in islice(job_specs(workload, 7), 4)]
        other = [spec.to_dict() for spec in islice(job_specs(workload, 8), 4)]
        assert first == again
        assert [spec["seed"] for spec in first] != [spec["seed"] for spec in other]


def test_failing_specs_are_counted_and_the_loop_goes_on(s27_references):
    good = list(islice(job_specs("zd-s5378-w256", 1, circuit="s27"), 3))
    raising = good[0].__class__.from_dict({**good[0].to_dict(), "circuit": "no-such-circuit"})
    records, _ = run_jobs([good[0], raising, good[1]], 60.0, s27_references)
    assert [record.ok for record in records] == [True, False, True]
    assert "no-such-circuit" in records[1].error

    wrong = {key: 2.0 * value for key, value in s27_references.items()}
    records, _ = run_jobs([good[2]], 60.0, wrong)
    assert records[0].estimate is not None and "off the reference" in records[0].error


def test_metric_and_workload_names_are_well_formed():
    names = list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_of_each_workload_shape_on_s27(workload, trace, s27_references):
    import repro.core.dipe

    original = repro.core.dipe.select_independence_interval
    # Traced runs take about 1 s so that coverage is summed over several jobs.
    seconds = 1.0 if trace else 0.0
    result = run_workload(
        workload, 1, seconds, trace, s27_references, circuit="s27", setup_launches=1
    )
    assert result.attempted >= 2 and result.failed == 0
    expected = PER_LAYER if trace else END_TO_END
    assert list(result.metrics) == list(expected)
    summary = result.summary()
    assert summary["correct"] and summary["metrics"].keys() == expected.keys()
    assert repro.core.dipe.select_independence_interval is original
    if trace:
        # An s27 job takes a few ms, of which run_job's own ~1 ms is not
        # covered by layer spans (real workloads measure above 0.99).
        assert result.metrics["trace.coverage"] >= 0.9
        assert (result.metrics["simulation.ed_measure.calls"] > 0) == ("ed-" in workload)
        assert result.metrics["stimulus.calls"] > 0
    else:
        assert all(value > 0 for value in result.metrics.values())


def test_run_without_program_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT_DIR / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT_DIR / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    benchmark = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    arguments = ["--workload", "zd-s5378-w256", "--seed", "1", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(
        [sys.executable, *benchmark["command"][1:], *arguments],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_compare_verdicts_follow_the_pair_and_spread_rule():
    latency = {"better": "lower", "bound": 0.1}
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [value * 0.8 for value in parent]
    slower = [value * 1.3 for value in parent]
    noisy = [0.5, 1.5, 0.7, 1.3, 0.6, 1.4, 1.0, 0.9, 1.1, 1.2]
    assert verdict(latency, parent, faster, list(zip(parent, faster))) == ("better", 10)
    assert verdict(latency, parent, slower, list(zip(parent, slower))) == ("worse", 0)
    assert verdict(latency, parent, parent, list(zip(parent, parent)))[0] == "unchanged"
    assert verdict(latency, noisy, noisy[::-1], list(zip(noisy, noisy[::-1])))[0] == "unresolved"
