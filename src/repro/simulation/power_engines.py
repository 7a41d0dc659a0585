"""Power-measurement engines, dispatched through the simulator registry.

The samplers (:class:`~repro.core.sampler.PowerSampler`,
:class:`~repro.core.batch_sampler.BatchPowerSampler`) always own a cheap
zero-delay *state engine* that advances the chain ensemble through the
independence interval.  What varies between power engines is how the sampled
cycle itself is measured; that choice is a string key
(``EstimationConfig(power_simulator=...)``) resolved through
:data:`~repro.api.registry.SIMULATOR_REGISTRY`, so new measurement engines
plug in by registration instead of new ``if``/``elif`` arms in every sampler.

Factory contract (what :func:`~repro.api.registry.register_simulator`
documents)::

    factory(program, width=1, node_capacitance=None,
            delay_model=None, backend="auto") -> engine

The returned engine exposes:

* ``measure_lanes(state_engine, pattern, lanes=None) -> np.ndarray`` —
  advance the state engine through one clock cycle driven by *pattern* and
  return the switched capacitance of its first *lanes* lanes, shape
  ``(lanes,)``; ``None`` means all ``width`` lanes.  The state engine always
  advances the whole ensemble, so asking for fewer lanes changes no chain
  trajectory — it only skips resolving lanes the caller would discard
  (interval selection keeps chain 0 alone), and ``measure_lanes(...,
  lanes=k)`` equals the first *k* entries of a full measurement;
* ``measure_total(state_engine, pattern) -> float`` — same cycle, lane-summed
  (cheaper when per-chain resolution is not needed);
* ``measure_lanes_with_control(state_engine, pattern) -> (np.ndarray,
  np.ndarray)`` *(optional)* — same cycle measured by **both** this engine
  and the cheap zero-delay state engine on identical lanes; the second array
  is the zero-delay switched capacitance, used as the control variable by
  :class:`repro.variance.control_variate.ControlVariateEstimator`;
* ``engine`` — the underlying simulator object, or ``None`` when measurement
  happens on the state engine itself.

Both built-ins keep the exact cycle semantics the samplers used to inline:
the zero-delay engine measures the functional transitions of the state
engine's own sweep; the event-driven engine re-simulates the sampled cycle
with general delays (glitches included) from the state engine's settled
network, then advances the state engine identically so both agree on the
next present state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.registry import register_simulator
from repro.simulation.delay_models import DelayModel, make_delay_model
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.measurement import resolve_lanes
from repro.utils.bitpack import words_per_width

__all__ = [
    "CompiledEventDrivenPowerEngine",
    "CompiledZeroDelayPowerEngine",
    "EventDrivenPowerEngine",
    "ZeroDelayPowerEngine",
]


@register_simulator("zero-delay")
class ZeroDelayPowerEngine:
    """Functional-transition measurement on the state engine's own sweep."""

    #: No engine of its own — the state engine is the measurement engine.
    engine = None

    #: Simulator classes may pin the *state engine's* backend: the samplers
    #: honour this when the configured backend is "auto" (an explicit user
    #: choice always wins).  ``None`` keeps the width-based auto pick.
    state_backend = None

    def __init__(
        self,
        program,
        width: int = 1,
        node_capacitance: Sequence[float] | np.ndarray | None = None,
        delay_model: DelayModel | str | None = None,
        backend: str = "auto",
    ):
        from repro.circuits.program import CircuitProgram

        self.program = CircuitProgram.of(program)

    def measure_lanes(self, state_engine, pattern, lanes: int | None = None) -> np.ndarray:
        return state_engine.step_and_measure_lanes(pattern, lanes)

    def measure_total(self, state_engine, pattern) -> float:
        return state_engine.step_and_measure(pattern)

    def measure_lanes_with_control(self, state_engine, pattern) -> tuple[np.ndarray, np.ndarray]:
        # The zero-delay measurement *is* the control here: the pair is
        # degenerate (identical arrays), which the control-variate estimator
        # rejects up front — kept for interface completeness.
        switched = state_engine.step_and_measure_lanes(pattern)
        return switched, switched


@register_simulator("event-driven")
class EventDrivenPowerEngine:
    """General-delay re-simulation of the sampled cycle (glitches included)."""

    state_backend = None

    def __init__(
        self,
        program,
        width: int = 1,
        node_capacitance: Sequence[float] | np.ndarray | None = None,
        delay_model: DelayModel | str | None = None,
        backend: str = "auto",
    ):
        from repro.circuits.program import CircuitProgram

        self.program = CircuitProgram.of(program)
        if delay_model is None:
            delay_model = "fanout"
        if isinstance(delay_model, str):
            delay_model = make_delay_model(delay_model)
        self.engine = EventDrivenSimulator(
            self.program,
            delay_model=delay_model,
            node_capacitance=node_capacitance,
            width=width,
            backend=backend,
        )
        #: Narrower engines for measurements of the leading lanes only, by width.
        self._subset_engines: dict[int, EventDrivenSimulator] = {}

    def _settled_state(self, state_engine):
        """The state engine's settled network, in the cheapest shared form."""
        if self.engine.backend != "scalar":
            words = state_engine.words_view()
            if words is not None:
                return words
        return state_engine.values

    def measure_lanes(self, state_engine, pattern, lanes: int | None = None) -> np.ndarray:
        # Re-simulate the same cycle with general delays for every measured
        # chain: load the settled zero-delay network, run the event-driven
        # cycle (counts glitches per lane), and advance the cheap state
        # engine identically so both engines agree on the next present state.
        lanes = resolve_lanes(lanes, self.engine.width)
        if lanes < self.engine.width:
            switched = self._measure_leading_lanes(state_engine, pattern, lanes)
        else:
            self.engine.load_settled_state(self._settled_state(state_engine))
            switched = self.engine.cycle_lanes(pattern)
        state_engine.step(pattern)
        return switched

    def _measure_leading_lanes(self, state_engine, pattern, lanes: int) -> np.ndarray:
        """Re-simulate only lanes ``0 .. lanes-1`` on a width-*lanes* engine."""
        engine = self._subset_engines.get(lanes)
        if engine is None:
            engine = EventDrivenSimulator(
                self.program,
                delay_model=self.engine.delay_model,
                node_capacitance=self.engine.node_capacitance,
                width=lanes,
                backend="scalar" if lanes == 1 else self.engine.backend,
            )
            self._subset_engines[lanes] = engine
        words = state_engine.words_view()
        engine.load_settled_state(
            state_engine.values if words is None else _leading_lanes(words, lanes)
        )
        if isinstance(pattern, np.ndarray):
            pattern = _leading_lanes(pattern, lanes)
        return engine.cycle_lanes(pattern)

    def measure_total(self, state_engine, pattern) -> float:
        self.engine.load_settled_state(self._settled_state(state_engine))
        switched = self.engine.cycle(pattern)
        state_engine.step(pattern)
        return switched

    def measure_lanes_with_control(self, state_engine, pattern) -> tuple[np.ndarray, np.ndarray]:
        # Same cycle, both engines, identical lanes: the event-driven
        # measurement (glitches included) and the zero-delay functional
        # transitions.  Advancing the state engine with step_and_measure_lanes
        # keeps the state trajectory identical to measure_lanes — only the
        # extra per-lane readout differs.
        self.engine.load_settled_state(self._settled_state(state_engine))
        switched = self.engine.cycle_lanes(pattern)
        control = state_engine.step_and_measure_lanes(pattern)
        return switched, control


def _leading_lanes(words: np.ndarray, lanes: int):
    """Lanes ``0 .. lanes-1`` of a ``(rows, num_words)`` word matrix.

    Shaped for a width-*lanes* event engine: the word columns that hold
    those lanes, or one 0/1-carrying value per row for the scalar engine at
    one lane (it keeps bit 0 of each).
    """
    if lanes == 1:
        return words[:, 0].tolist()
    return words[:, : words_per_width(lanes)]


@register_simulator("compiled", aliases=("zero-delay-compiled",))
class CompiledZeroDelayPowerEngine(ZeroDelayPowerEngine):
    """Zero-delay measurement on the per-program codegen sweep.

    Identical measurement semantics (and bit-identical samples) to
    ``"zero-delay"`` — the only difference is that the samplers build the
    shared state engine with ``backend="compiled"``, so every sweep runs the
    straight-line C generated for this circuit
    (:mod:`repro.simulation.codegen`) instead of the interpreted tables.
    Environments without a C compiler (or with ``REPRO_NATIVE=0``) degrade
    to the ordinary numpy sweep transparently.
    """

    state_backend = "compiled"


@register_simulator("event-driven-compiled")
class CompiledEventDrivenPowerEngine(EventDrivenPowerEngine):
    """Event-driven measurement with codegen frontier evaluation.

    Same glitch-aware cycle re-simulation as ``"event-driven"``, but both
    the shared zero-delay state engine and the event-driven measurement
    engine ask for the per-program codegen kernel, with the same transparent
    fallback chain as the zero-delay variant.
    """

    state_backend = "compiled"

    def __init__(
        self,
        program,
        width: int = 1,
        node_capacitance: Sequence[float] | np.ndarray | None = None,
        delay_model: DelayModel | str | None = None,
        backend: str = "auto",
    ):
        # "auto"/"numpy" would resolve to the plain numpy engine; this
        # simulator exists to pin the codegen path.  An explicit "scalar"
        # (width-1 state restore paths) is preserved.
        if backend in ("auto", "numpy"):
            backend = "compiled"
        super().__init__(
            program,
            width=width,
            node_capacitance=node_capacitance,
            delay_model=delay_model,
            backend=backend,
        )
