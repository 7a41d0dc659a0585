"""The end-to-end estimate benchmark: workloads, the job loop, the gate and the metrics.

A run of one workload is a closed loop in one process: after set-up and one
untimed warm-up job, a single caller submits seeded :class:`JobSpec` objects
through :func:`repro.api.run_job` back to back until the time budget is spent.
Every result is checked against a stored reference power
(``references.json``, written by ``make_references.py``).  An untraced run
reports the end-to-end metrics; a traced run reports the per-layer split
(see ``tracing.py`` for how spans are recorded).  Workload and metric names,
units, directions and bounds come from ``BENCHMARK.json``; ``spec.json``
adds, by name, each workload's parameters and each metric's definition.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from perfbench.tracing import ROOT, Tracer, job_profiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
SOURCE_DIR = ROOT_DIR / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"
BENCHMARK = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())


def _by_name(key: str) -> dict[str, dict]:
    """BENCHMARK.json's *key* entries by name, each with its spec.json fields added."""
    return {entry["name"]: {**entry, **SPEC[key][entry["name"]]} for entry in BENCHMARK[key]}


WORKLOADS = _by_name("workloads")
END_TO_END = _by_name("end_to_end")
PER_LAYER = _by_name("per_layer")

#: Fresh-process set-ups per run; set-up time is their median.
SETUP_LAUNCHES = 5
#: A job fails when its estimate is off the reference by more than this many
#: times the configured maximum relative error.
GATE_FACTOR = 3.0
#: Seconds a set-up launch may take before the run is abandoned.
SETUP_TIMEOUT = 120.0


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's sources, no REPRO_* overrides."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SOURCE_DIR)
    return env


# ----------------------------------------------------------------- workloads
def job_seeds(seed: int) -> Iterator[int]:
    """The job seeds of workload seed *seed*, in submission order (draw 0 warms up)."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def job_specs(workload: str, seed: int, circuit: str | None = None) -> Iterator:
    """Endless stream of the workload's JobSpecs for *seed* (``circuit`` overrides its circuit)."""
    from repro.api import JobSpec, StimulusSpec
    from repro.core.config import EstimationConfig

    definition = WORKLOADS[workload]
    config = EstimationConfig(**definition["config"])
    for index, job_seed in enumerate(job_seeds(seed)):
        yield JobSpec(
            circuit=circuit or definition["circuit"],
            stimulus=StimulusSpec.bernoulli(0.5),
            config=config,
            seed=job_seed,
            label=f"{workload}/{seed}/{index}",
        )


def reference_key(circuit: str, power_simulator: str) -> str:
    return f"{circuit}/{power_simulator}"


def load_references() -> dict[str, float]:
    """Reference average power (W) by :func:`reference_key`."""
    entries = json.loads(REFERENCES.read_text())["references"]
    return {
        reference_key(entry["circuit"], entry["power_simulator"]): entry["average_power_w"]
        for entry in entries
    }


# ------------------------------------------------------------------ job loop
@dataclass
class JobRecord:
    """One submitted job: its spec, wall-clock, estimate (None if it raised) and verdict."""

    spec: object
    seconds: float
    estimate: object | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def check_estimate(estimate, max_relative_error: float, reference_w: float) -> str | None:
    """Return why *estimate* fails the gate, or None when it passes."""
    if not estimate.accuracy_met:
        return "accuracy not met"
    error = abs(estimate.average_power_w - reference_w) / reference_w
    if error > GATE_FACTOR * max_relative_error:
        return f"off the reference by {error:.1%}"
    return None


def run_jobs(
    specs: Iterable,
    seconds: float,
    references: dict[str, float],
    tracer: Tracer | None = None,
) -> tuple[list[JobRecord], float]:
    """Submit *specs* back to back until *seconds* have passed (at least one job).

    Returns the job records and the wall-clock of the whole loop.  A job that
    raises or fails the gate is recorded as failed and the loop goes on.
    """
    from repro.api import run_job

    records: list[JobRecord] = []
    specs = iter(specs)
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        spec = next(specs, None)
        if spec is None:
            break
        began = time.perf_counter()
        estimate = error = None
        try:
            if tracer is None:
                result = run_job(spec)
            else:
                with tracer.span(ROOT, job=len(records)):
                    result = run_job(spec)
            estimate = result.estimate
        except Exception as exc:  # noqa: BLE001 — a failed job is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds_taken = time.perf_counter() - began
        if estimate is not None:
            reference = references.get(reference_key(spec.circuit, spec.config.power_simulator))
            if reference is None:
                error = f"no reference power for {spec.circuit}/{spec.config.power_simulator}"
            else:
                error = check_estimate(estimate, spec.config.max_relative_error, reference)
        records.append(JobRecord(spec, seconds_taken, estimate, error))
    return records, time.perf_counter() - start


# -------------------------------------------------------------------- set-up
def measure_setup(circuit: str, config: dict, seed: int, launches: int) -> tuple[list, list]:
    """Launch *launches* fresh set-up processes; return their times and layer splits."""
    times, splits = [], []
    for _ in range(launches):
        command = [
            sys.executable,
            str(BENCH_DIR / "setup_probe.py"),
            "--circuit", circuit,
            "--config", json.dumps(config),
            "--seed", str(seed),
        ]
        start = time.perf_counter()
        with subprocess.Popen(
            command,
            cwd=ROOT_DIR,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as process:
            line = process.stdout.readline()
            ready = time.perf_counter()
            try:
                _, errors = process.communicate(timeout=SETUP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                raise RuntimeError("set-up launch did not exit") from None
        if process.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up launch failed ({process.returncode}): {errors.strip()}")
        times.append(ready - start)
        splits.append(json.loads(line))
    return times, splits


# ------------------------------------------------------------------- metrics
def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(records: list[JobRecord], loop_s: float, setup_times: list) -> dict:
    """The end-to-end metrics of an untraced job loop."""
    done = [record for record in records if record.estimate is not None]
    passed = sum(record.ok for record in records)
    return {
        "setup_s": _median(setup_times),
        "estimate_s_p50": _median(record.seconds for record in done),
        "estimates_per_s": passed / loop_s,
        "cycles_per_estimate_p50": _median(record.estimate.cycles_simulated for record in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(
    records: list[JobRecord],
    spans: list[tuple],
    setup_splits: list[dict],
    untraced_p50: float,
    reference_w: float | None,
) -> dict:
    """The per-layer metrics of a traced job loop (0 where a layer did not run)."""
    profiles = job_profiles(spans)
    jobs = [
        (record.estimate, record.spec.config, profiles[index])
        for index, record in enumerate(records)
        if record.estimate is not None
    ]

    def per_job(kind: str, name: str) -> float:
        return _median(getattr(profile, kind).get(name, 0) for _, _, profile in jobs)

    def total(kind: str, *names: str) -> float:
        return sum(getattr(profile, kind).get(name, 0) for _, _, profile in jobs for name in names)

    wall_s = sum(profile.wall_s for _, _, profile in jobs)
    covered_s = sum(profile.covered_s for _, _, profile in jobs)

    metrics = {
        key: _median(split[key] for split in setup_splits)
        for key in (
            "setup.import_s",
            "circuits.build_s",
            "circuits.lower_s",
            "circuits.lowerings",
            "simulation.engine_build_s",
            "simulation.compiler_invocations",
        )
    }
    interval_cycles = [estimate.interval_selection.cycles_simulated for estimate, _, _ in jobs]
    sequence_lengths = [
        sum(trial.sequence_length for trial in estimate.interval_selection.trials)
        for estimate, _, _ in jobs
    ]
    kept = sum(sequence_lengths) + sum(estimate.sample_size for estimate, _, _ in jobs)
    performed = sum(
        length * config.num_chains + estimate.sample_size
        for length, (estimate, config, _) in zip(sequence_lengths, jobs)
    )
    chain_cycles = sum(
        estimate.cycles_simulated * config.num_chains for estimate, config, _ in jobs
    )
    metrics.update(
        {
            "core.warmup_s": per_job("inclusive_s", "core.warmup"),
            "core.interval_s": per_job("inclusive_s", "core.interval"),
            "core.interval_cycles": _median(interval_cycles),
            "core.interval_trials": _median(
                estimate.interval_selection.num_trials for estimate, _, _ in jobs
            ),
            "core.interval_cycle_share": _ratio(
                sum(interval_cycles), sum(estimate.cycles_simulated for estimate, _, _ in jobs)
            ),
            "core.sampling_s": per_job("inclusive_s", "core.sampling"),
            "core.sampling_cycles": _median(
                estimate.cycles_simulated - cycles - config.warmup_cycles
                for (estimate, config, _), cycles in zip(jobs, interval_cycles)
            ),
            "core.useful_lane_share": _ratio(kept, performed),
            "simulation.zd_step.calls": per_job("calls", "simulation.zd_step"),
            "simulation.zd_step.s": per_job("self_s", "simulation.zd_step"),
            "simulation.zd_measure.calls": per_job("calls", "simulation.zd_measure"),
            "simulation.zd_measure.s": per_job("self_s", "simulation.zd_measure"),
            "simulation.zd_measure.us_per_call": 1e6
            * _ratio(
                total("self_s", "simulation.zd_measure"), total("calls", "simulation.zd_measure")
            ),
            "simulation.chain_cycles_per_s": _ratio(
                chain_cycles, total("self_s", "simulation.zd_step", "simulation.zd_measure")
            ),
            "simulation.ed_measure.calls": per_job("calls", "simulation.ed_measure"),
            "simulation.ed_measure.s": per_job("self_s", "simulation.ed_measure"),
            "simulation.ed_measure.ms_per_call": 1e3
            * _ratio(
                total("self_s", "simulation.ed_measure"), total("calls", "simulation.ed_measure")
            ),
            "stimulus.calls": per_job("calls", "stimulus"),
            "stimulus.s": per_job("self_s", "stimulus"),
            "stats.stopping.calls": per_job("calls", "stats.stopping"),
            "stats.stopping.s": per_job("self_s", "stats.stopping"),
            "stats.runs_test.calls": per_job("calls", "stats.runs_test"),
            "stats.runs_test.s": per_job("self_s", "stats.runs_test"),
            "stats.samples_p50": _median(estimate.sample_size for estimate, _, _ in jobs),
            "stats.ci_coverage": _ratio(
                sum(
                    estimate.lower_bound_w <= reference_w <= estimate.upper_bound_w
                    for estimate, _, _ in jobs
                ),
                len(jobs) if reference_w else 0,
            ),
            "stats.rel_err_p50": _median(
                abs(estimate.average_power_w - reference_w) / reference_w
                for estimate, _, _ in jobs
                if reference_w
            ),
            "api.self_s": per_job("self_s", ROOT),
            "trace.coverage": _ratio(covered_s, wall_s),
            "trace.overhead_share": _ratio(
                _median(record.seconds for record in records if record.estimate is not None),
                untraced_p50,
            )
            - 1.0,
        }
    )
    return metrics


def self_time_table(spans: list[tuple]) -> list[tuple[str, float, float, float]]:
    """(span name, calls per job, self seconds per job, share of job wall-clock), by self time."""
    profiles = list(job_profiles(spans).values())
    wall = sum(profile.wall_s for profile in profiles)
    names = {name for profile in profiles for name in profile.self_s}
    rows = []
    for name in names:
        calls = sum(profile.calls.get(name, 0) for profile in profiles)
        self_s = sum(profile.self_s.get(name, 0.0) for profile in profiles)
        rows.append((name, calls / len(profiles), self_s / len(profiles), _ratio(self_s, wall)))
    return sorted(rows, key=lambda row: -row[2])


# ----------------------------------------------------------------------- run
@dataclass
class RunResult:
    """Outcome of one benchmark run: the gate counts, metrics and printable detail."""

    workload: str
    seed: int
    attempted: int
    failed: int
    metrics: dict
    jobs_timed: int
    errors: list[str]
    table: list | None = None

    def summary(self) -> dict:
        """The result line: gate counts and every metric with its unit."""
        units = {name: metric["unit"] for name, metric in {**END_TO_END, **PER_LAYER}.items()}
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in self.metrics.items()
            },
        }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    references: dict[str, float],
    circuit: str | None = None,
    setup_launches: int = SETUP_LAUNCHES,
) -> RunResult:
    """Run one workload once: set-up, warm-up, then the timed (and optionally traced) loop.

    With ``trace`` the time budget is split: the first half runs untraced,
    then the same jobs run again with spans recorded, so the tracing overhead
    is measured on identical work, and the spans are written to
    ``out/trace-<workload>-<circuit>-seed<seed>.json``.
    """
    definition = WORKLOADS[workload]
    circuit = circuit or definition["circuit"]
    power_simulator = definition["config"].get("power_simulator", "zero-delay")
    reference_w = references.get(reference_key(circuit, power_simulator))

    setup_times, setup_splits = measure_setup(circuit, definition["config"], seed, setup_launches)
    specs = job_specs(workload, seed, circuit)
    warmup, _ = run_jobs([next(specs)], 0.0, references)
    if not trace:
        records, loop_s = run_jobs(specs, seconds, references)
        metrics = end_to_end_metrics(records, loop_s, setup_times)
        table = None
        every = warmup + records
    else:
        plain, _ = run_jobs(specs, seconds / 2.0, references)
        tracer = Tracer()
        with tracer.patched():
            again = [record.spec for record in plain]
            records, _ = run_jobs(again, float("inf"), references, tracer)
        untraced_p50 = _median(record.seconds for record in plain if record.estimate is not None)
        spans = tracer.spans
        metrics = layer_metrics(records, spans, setup_splits, untraced_p50, reference_w)
        table = self_time_table(spans)
        tracer.write(
            OUT_DIR / f"trace-{workload}-{circuit}-seed{seed}.json", workload=workload, seed=seed
        )
        every = warmup + plain + records
    return RunResult(
        workload=workload,
        seed=seed,
        attempted=len(every),
        failed=sum(not record.ok for record in every),
        metrics=metrics,
        jobs_timed=len(records),
        errors=[f"{record.spec.name}: {record.error}" for record in every if not record.ok],
        table=table,
    )
