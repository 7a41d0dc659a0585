"""Throughput benchmark: per-circuit codegen kernel vs. the numpy sweeps.

The codegen backend (PR 10) specializes the lowered :class:`CircuitProgram`
into a straight-line C translation unit — one literal expression per gate
over named row slots — and compiles it once per circuit.  This benchmark
pins the claim the backend was built on: on s5378 at an ensemble width of
256 lanes the compiled sweep sustains at least 5x the chain-cycles/second
of the numpy backend's portable grouped sweep, while remaining bit-identical
to both the numpy and big-int backends.  It also proves the operational
half of the claim: a warm process finds the shared object in the
``REPRO_PROGRAM_CACHE`` directory and performs **zero** compiler
invocations, so shard workers and repeated CI runs never pay gcc twice.

The formatted comparison is written to ``benchmarks/results/codegen.txt``
and ``BENCH_codegen.json`` carries the machine-readable rates per commit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from benchmarks.conftest import write_bench_json, write_report
from repro.circuits.iscas89 import build_circuit
from repro.circuits.program import CircuitProgram
from repro.power.capacitance import CapacitanceModel
from repro.simulation import _native
from repro.simulation.vectorized import VectorizedZeroDelaySimulator
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.stimulus.random_inputs import BernoulliStimulus
from repro.utils.tables import TextTable

#: Ensemble width of the comparison (the acceptance point of the claim).
_WIDTH = 256

#: Circuit the >=5x assertion is evaluated on (the paper's large benchmark).
_CIRCUIT = "s5378"

#: Required compiled-vs-numpy speed-up at ``_WIDTH`` lanes.
_FLOOR = 5.0

needs_compiler = _native.find_compiler() is not None


def _strict() -> bool:
    """False relaxes the 5x assertion to a regression floor (noisy machines)."""
    return os.environ.get("REPRO_BENCH_STRICT", "1") not in ("", "0", "false", "no")


@contextmanager
def _native_disabled(disabled: bool):
    """Build engines as a compiler-less deployment would (``REPRO_NATIVE=0``)."""
    previous = os.environ.get("REPRO_NATIVE")
    if disabled:
        os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = previous


def _sweep_rate(circuit, sweep: str, cycles: int, repeats: int = 3) -> float:
    """Best-of-*repeats* ``step_and_measure`` cycles/second for one strategy.

    ``"groups"`` is the grouped-numpy sweep an engine builds with the C
    kernels disabled, ``"native"`` the generic kernel and ``"codegen"`` the
    per-circuit kernel the ``compiled`` backend asks for.
    """
    caps = CapacitanceModel().node_capacitances(circuit)
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)
    rng = np.random.default_rng(1)
    with _native_disabled(sweep == "groups"):
        simulator = VectorizedZeroDelaySimulator(
            circuit, width=_WIDTH, node_capacitance=caps, codegen=sweep == "codegen"
        )
    assert simulator.sweep == sweep, (
        f"requested sweep {sweep!r} degraded to {simulator.sweep!r}"
    )
    simulator.randomize_state(rng)
    patterns = [stimulus.next_pattern_words(rng, width=_WIDTH) for _ in range(cycles)]
    simulator.settle(patterns[0])

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for pattern in patterns:
            simulator.step_and_measure(pattern)
        best = min(best, time.perf_counter() - start)
    return cycles / best


def _bit_identity(circuit) -> None:
    """Compiled outputs are pinned to the numpy and big-int backends."""
    cycles = 30
    rng = np.random.default_rng(7)
    patterns = [
        [int(v) for v in rng.integers(0, 2, size=circuit.num_inputs)]
        for _ in range(cycles)
    ]
    results = {}
    for backend in ("compiled", "numpy", "bigint"):
        simulator = ZeroDelaySimulator(circuit, width=64, backend=backend)
        simulator.randomize_state(np.random.default_rng(13))
        energies = [simulator.step_and_measure(p) for p in patterns]
        results[backend] = (energies, simulator.latch_state())
    # same word-sliced float reduction: exact equality against numpy
    assert results["compiled"][0] == results["numpy"][0]
    assert results["compiled"][1] == results["numpy"][1]
    # big-int reduces per lane; values agree to float64 resolution
    assert results["compiled"][1] == results["bigint"][1]
    np.testing.assert_allclose(results["compiled"][0], results["bigint"][0], rtol=1e-12)


def _warm_start_invocations(cache_dir: str) -> tuple[int, int]:
    """(cold, warm) gcc invocation counts of two fresh processes sharing a cache."""
    script = (
        "from repro.circuits.iscas89 import build_circuit\n"
        "from repro.circuits.program import CircuitProgram\n"
        "from repro.simulation import _native, codegen\n"
        f"program = CircuitProgram.of(build_circuit({_CIRCUIT!r}))\n"
        "assert codegen.load_program_kernel(program) is not None\n"
        "print(_native.compiler_invocations())\n"
    )
    env = {
        **os.environ,
        "REPRO_PROGRAM_CACHE": cache_dir,
        "PYTHONPATH": os.pathsep.join(sys.path),
    }
    env.pop("REPRO_NATIVE", None)
    counts = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        counts.append(int(result.stdout.strip()))
    return counts[0], counts[1]


def test_bench_codegen_speedup(results_dir, tmp_path):
    """The codegen sweep sustains >=5x the numpy-backend cycle rate at width 256."""
    if not needs_compiler:
        import pytest

        pytest.skip("no C compiler available; codegen backend cannot build")

    circuit = build_circuit(_CIRCUIT)
    program = CircuitProgram.of(circuit)

    _bit_identity(circuit)

    cycles = 150
    groups_rate = _sweep_rate(circuit, "groups", 30)
    native_rate = _sweep_rate(circuit, "native", cycles)
    codegen_rate = _sweep_rate(circuit, "codegen", cycles)
    floor = _FLOOR if _strict() else 0.8
    if codegen_rate < floor * groups_rate:
        # Timing assertions on shared machines deserve one clean retry
        # before they fail the suite.
        groups_rate = _sweep_rate(circuit, "groups", 30)
        codegen_rate = _sweep_rate(circuit, "codegen", cycles)
    speedup = codegen_rate / groups_rate

    cold, warm = _warm_start_invocations(str(tmp_path))

    table = TextTable(
        headers=["Sweep", "cyc/s", "chain-cyc/s", "vs numpy groups"],
        precision=1,
    )
    for label, rate in (
        ("numpy groups", groups_rate),
        ("generic native", native_rate),
        ("codegen", codegen_rate),
    ):
        table.add_row([label, rate, rate * _WIDTH, rate / groups_rate])

    lines = [
        f"Per-circuit codegen sweep vs. numpy backend on {_CIRCUIT} "
        f"({circuit.num_gates} gates) at width {_WIDTH}",
        "",
        table.render(),
        "",
        f"codegen / numpy-groups speed-up: {speedup:.1f}x (floor {_FLOOR}x)",
        f"warm-start gcc invocations: cold={cold} warm={warm} "
        "(shared-object cache hit => no compiler)",
    ]
    write_report(results_dir, "codegen", "\n".join(lines))
    write_bench_json(
        results_dir,
        "codegen",
        {
            "circuit": _CIRCUIT,
            "gates": circuit.num_gates,
            "width": _WIDTH,
            "program_key": program.key,
            "groups_cycles_per_second": groups_rate,
            "native_cycles_per_second": native_rate,
            "codegen_cycles_per_second": codegen_rate,
            "codegen_chain_cycles_per_second": codegen_rate * _WIDTH,
            "groups_chain_cycles_per_second": groups_rate * _WIDTH,
            "speedup_vs_groups": speedup,
            "speedup_vs_native": codegen_rate / native_rate,
            "speedup_floor": _FLOOR,
            "cold_compiler_invocations": cold,
            "warm_compiler_invocations": warm,
            "bit_identical_to": ["numpy", "bigint"],
        },
    )

    assert warm == 0, "warm process re-invoked the compiler despite the disk cache"
    assert cold >= 1
    assert speedup >= floor, (
        f"codegen sweep only {speedup:.1f}x the numpy grouped sweep "
        f"({codegen_rate:.0f} vs {groups_rate:.0f} cyc/s at width {_WIDTH})"
    )
