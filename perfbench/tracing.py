"""Span tracing around the program's public layer calls, from outside the program.

:class:`Tracer` keeps spans (name, start, end, parent span, job id) in memory.
:meth:`Tracer.patched` swaps each call listed in :data:`LAYER_CALLS` for a
wrapper that records one span per call, and restores the originals on exit,
so the program itself carries no instrumentation and untraced runs pay
nothing.  Functions are patched where their caller looks them up (for
example ``repro.core.dipe.select_independence_interval``), methods on the
class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: (module, attribute path, span name).  An attribute path ``Class.method``
#: patches the method on that class; a bare name patches the module global.
LAYER_CALLS: tuple[tuple[str, str, str], ...] = (
    ("repro.api.jobs", "resolve_circuit", "circuits.build"),
    ("repro.circuits.program", "CircuitProgram.of", "circuits.lower"),
    ("repro.core.dipe", "make_sampler", "simulation.engine_build"),
    ("repro.core.sampler", "PowerSampler.prepare", "core.warmup"),
    ("repro.core.batch_sampler", "BatchPowerSampler.prepare", "core.warmup"),
    ("repro.core.dipe", "select_independence_interval", "core.interval"),
    ("repro.core.dipe", "draw_sample_block", "core.sampling"),
    ("repro.simulation.zero_delay", "ZeroDelaySimulator.step", "simulation.zd_step"),
    ("repro.simulation.zero_delay", "ZeroDelaySimulator.step_and_measure", "simulation.zd_measure"),
    (
        "repro.simulation.zero_delay",
        "ZeroDelaySimulator.step_and_measure_lanes",
        "simulation.zd_measure",
    ),
    (
        "repro.simulation.power_engines",
        "EventDrivenPowerEngine.measure_lanes",
        "simulation.ed_measure",
    ),
    (
        "repro.simulation.power_engines",
        "EventDrivenPowerEngine.measure_total",
        "simulation.ed_measure",
    ),
    ("repro.stimulus.base", "Stimulus.next_pattern", "stimulus"),
    ("repro.stimulus.base", "Stimulus.next_pattern_words", "stimulus"),
    ("repro.stats.stopping.base", "StoppingCriterion.evaluate", "stats.stopping"),
    ("repro.core.interval", "runs_test_on_values", "stats.runs_test"),
)

#: Span name of the root span the benchmark opens around each run_job call.
ROOT = "api.run_job"


class Tracer:
    """In-memory span recorder for one benchmark process.

    Spans are stored column-wise in flat arrays (parent and job ``-1`` when
    absent) rather than as one object per span, so a long traced run does
    not slow the garbage collector down.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs = array("q")
        self.job = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, job: int | None = None) -> Iterator[None]:
        """Record one span around the ``with`` body (``job`` sets the job id)."""
        if job is not None:
            self.job = job
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, function):
        """Return *function* wrapped to record a span named *name* per call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Patch every call in :data:`LAYER_CALLS` for the ``with`` body."""
        restore = []
        try:
            for module_name, path, name in LAYER_CALLS:
                owner = importlib.import_module(module_name)
                *owners, attribute = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__))
                else:
                    replacement = self.wrap(name, original)
                setattr(owner, attribute, replacement)
                restore.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    @property
    def spans(self) -> list[tuple]:
        """Every span as ``(name, start, end, parent, job)``."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.jobs))

    def write(self, path: Path, **meta) -> None:
        """Write the spans as JSON (``fields`` names the columns of ``spans``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {**meta, "fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")))


class JobProfile:
    """Per-job span totals: self time, outermost inclusive time and calls by name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.wall_s = 0.0
        self.covered_s = 0.0


def job_profiles(spans: list[tuple]) -> dict[int, JobProfile]:
    """Fold the span list into one :class:`JobProfile` per job id.

    A span's self time is its duration minus the durations of its direct
    children (calls are sequential, so children never overlap).  The
    inclusive time of a name counts only spans with no ancestor of the same
    name, so nested calls are not counted twice.
    """
    children_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children_s[parent] += end - start
    profiles: dict[int, JobProfile] = defaultdict(JobProfile)
    for index, span in enumerate(spans):
        name, start, end, parent, job = span
        profile = profiles[job]
        duration = end - start
        profile.self_s[name] += duration - children_s[index]
        profile.calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            profile.inclusive_s[name] += duration
        if name == ROOT:
            profile.wall_s += duration
            profile.covered_s += children_s[index]
    return dict(profiles)
