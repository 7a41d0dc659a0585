"""Two-phase random power sampling (Section IV of the paper).

During the independence interval the circuit only needs to be *advanced* —
"zero-delay simulation of the next-state logic of the FSM is sufficient" — so
the cheap cycle-based simulator is used and no power is recorded.  At the end
of the interval the sampled cycle is simulated with the configured power
engine: either the same zero-delay simulator (functional transitions only) or
the event-driven general-delay simulator (glitches included).

:class:`PowerSampler` owns both engines plus the stimulus and exposes the two
operations the estimators need:

* :meth:`collect_sequence` — an ordered power sequence with a given spacing,
  used by the randomness test during interval selection; and
* :meth:`next_sample` — one random power sample separated from the previous
  one by the selected independence interval.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import get_simulator
from repro.circuits.program import CircuitProgram
from repro.core.config import EstimationConfig
from repro.simulation.event_driven import event_backend_for
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.stimulus.base import Stimulus
from repro.utils.rng import RandomSource, spawn_rng


class PowerSampler:
    """Generates per-cycle switched-capacitance observations from a circuit.

    Parameters
    ----------
    circuit:
        Compiled circuit (or prebuilt
        :class:`~repro.circuits.program.CircuitProgram`) under estimation.
    stimulus:
        Primary-input pattern generator.
    config:
        Estimation configuration (selects the power engine and electrical
        models).
    rng:
        Seed or generator; all randomness of the run flows through it.
    """

    def __init__(
        self,
        circuit,
        stimulus: Stimulus,
        config: EstimationConfig | None = None,
        rng: RandomSource = None,
    ):
        self.program = CircuitProgram.of(circuit)
        self.circuit = self.program.circuit
        self.stimulus = stimulus
        self.config = config or EstimationConfig()
        self.rng: np.random.Generator = spawn_rng(rng)

        if stimulus.num_inputs != self.circuit.num_inputs:
            raise ValueError(
                f"stimulus drives {stimulus.num_inputs} inputs but circuit "
                f"{self.circuit.name!r} has {self.circuit.num_inputs}"
            )

        node_caps = self.program.capacitances(self.config.capacitance_model)
        backend = self.config.simulation_backend
        self._state_engine = ZeroDelaySimulator(
            self.program,
            width=1,
            node_capacitance=node_caps,
            backend=backend,
        )
        self._power = get_simulator(self.config.power_simulator)(
            self.program,
            width=1,
            node_capacitance=node_caps,
            delay_model=self.config.delay_model,
            backend=event_backend_for(backend),
        )
        self._event_engine = self._power.engine

        self.cycles_simulated = 0
        self._prepared = False

    # ----------------------------------------------------------------- set-up
    def prepare(self, warmup_cycles: int | None = None) -> None:
        """Randomise the state, settle the network, and run the warm-up cycles."""
        warmup = self.config.warmup_cycles if warmup_cycles is None else warmup_cycles
        self.stimulus.reset()
        self._state_engine.randomize_state(self.rng)
        self._state_engine.settle(self.stimulus.next_pattern(self.rng, width=1))
        for _ in range(warmup):
            self._advance_one_cycle()
        self._prepared = True

    def _require_prepared(self) -> None:
        if not self._prepared:
            self.prepare()

    # ------------------------------------------------------------------ steps
    def _advance_one_cycle(self) -> None:
        """Advance the state one clock cycle without measuring power."""
        self._state_engine.step(self.stimulus.next_pattern(self.rng, width=1))
        self.cycles_simulated += 1

    def _measure_one_cycle(self) -> float:
        """Simulate one clock cycle with the power engine; return switched capacitance."""
        pattern = self.stimulus.next_pattern(self.rng, width=1)
        switched = self._power.measure_total(self._state_engine, pattern)
        self.cycles_simulated += 1
        return switched

    # ------------------------------------------------------------------ state
    def get_state(self) -> dict:
        """Snapshot the sampler for checkpoint/resume.

        Captures the RNG bit-generator state, the simulator's lane values,
        the stimulus state and the cycle counter — everything needed so a
        restored sampler continues the *same* random trajectory.
        """
        return {
            "rng": self.rng.bit_generator.state,
            "cycles_simulated": self.cycles_simulated,
            "prepared": self._prepared,
            "engine": self._state_engine.get_state(),
            "stimulus": self.stimulus.get_state(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self.rng.bit_generator.state = state["rng"]
        self.cycles_simulated = state["cycles_simulated"]
        self._prepared = state["prepared"]
        self._state_engine.set_state(state["engine"])
        self.stimulus.set_state(state["stimulus"])

    # ------------------------------------------------------------------- API
    def restart_from_random_state(self) -> None:
        """Re-randomise the latch state and settle the network (no warm-up).

        Used by the fixed-warm-up baseline, which draws every sample from an
        independently re-initialised state.
        """
        self._state_engine.randomize_state(self.rng)
        self._state_engine.settle(self.stimulus.next_pattern(self.rng, width=1))
        self._prepared = True

    def advance(self, cycles: int) -> None:
        """Advance the circuit *cycles* clock cycles without measuring power."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._require_prepared()
        for _ in range(cycles):
            self._advance_one_cycle()

    def measure_cycle(self) -> float:
        """Simulate one clock cycle with the power engine and return its switched capacitance."""
        self._require_prepared()
        return self._measure_one_cycle()

    def collect_sequence(self, interval: int, length: int) -> list[float]:
        """Collect an ordered power sequence for the randomness test.

        Adjacent entries are separated by *interval* un-measured clock cycles
        (an interval of 0 measures every cycle).
        """
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if length < 1:
            raise ValueError("length must be at least 1")
        self._require_prepared()
        sequence = []
        for _ in range(length):
            for _ in range(interval):
                self._advance_one_cycle()
            sequence.append(self._measure_one_cycle())
        return sequence

    def next_sample(self, interval: int) -> float:
        """Return one power sample preceded by *interval* un-measured cycles."""
        if interval < 0:
            raise ValueError("interval must be non-negative")
        self._require_prepared()
        for _ in range(interval):
            self._advance_one_cycle()
        return self._measure_one_cycle()

    def samples(self, interval: int, count: int) -> list[float]:
        """Return *count* samples spaced by *interval* cycles."""
        return [self.next_sample(interval) for _ in range(count)]
