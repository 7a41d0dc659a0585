"""Property-based glitch equivalence between the event-driven backends.

The scalar and vectorized (numpy) engines behind
:class:`~repro.simulation.event_driven.EventDrivenSimulator` must count
*identical* transitions — per net, per lane, per cycle — for every circuit,
ensemble width and delay model.  This is the property that lets the
multi-chain glitch sampler swap the scalar engine for the time-wheel engine
without changing any estimate, and it is deliberately checked against the
scalar engine as the executable specification (one independent scalar
trajectory per lane).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.circuits.generators import SyntheticCircuitSpec, generate_sequential_circuit
from repro.netlist.cell_library import GateType
from repro.simulation.compiled import CompiledCircuit
from repro.simulation.delay_models import (
    DelayModel,
    FanoutDelay,
    TypeTableDelay,
    UnitDelay,
    ZeroDelay,
)
from repro.simulation.event_driven import EventDrivenSimulator
from repro.stimulus.base import pack_bit_matrix


class MixedDelay(DelayModel):
    """Half the nets instantaneous, half loaded — stresses same-instant cascades."""

    def gate_delay(self, circuit, gate):
        if gate.output % 2:
            return 0.0
        return 0.5 + 0.25 * (gate.output % 3)


def instant_inverter_delay() -> TypeTableDelay:
    """Per-type table with instantaneous NOT/BUFF cells.

    Their outputs cascade within the instant that changed their input, so the
    vectorized engine runs its level worklist instead of the single-batch
    path it takes when every delay is positive.
    """
    return TypeTableDelay({GateType.NOT: 0.0, GateType.BUFF: 0.0}, fanin_factor=0.0)


#: All delay models the equivalence must hold under: pure zero delay,
#: uniform, fanout-loaded, per-type tables, a mix of zero and positive
#: delays, and a per-type table with zero-delay cascades.
DELAY_MODELS = (
    ZeroDelay,
    UnitDelay,
    FanoutDelay,
    TypeTableDelay,
    MixedDelay,
    instant_inverter_delay,
)


def _build_circuit(spec_seed: int) -> CompiledCircuit:
    rng = np.random.default_rng(spec_seed)
    spec = SyntheticCircuitSpec(
        name=f"edprop{spec_seed}",
        num_inputs=int(rng.integers(1, 7)),
        num_outputs=int(rng.integers(1, 4)),
        num_latches=int(rng.integers(1, 7)),
        num_gates=int(rng.integers(25, 70)),
    )
    return CompiledCircuit.from_netlist(generate_sequential_circuit(spec, seed=spec_seed))


@settings(max_examples=20, deadline=None)
@given(
    spec_seed=st.integers(min_value=0, max_value=2**31 - 1),
    width=st.integers(min_value=1, max_value=192),
    run_seed=st.integers(min_value=0, max_value=2**31 - 1),
    model_index=st.integers(min_value=0, max_value=len(DELAY_MODELS) - 1),
)
# Wide ensembles beyond the drawn range: eight full 64-lane words, a partial
# last word, and a zero-delay cascade (spec seed 1 has NOT/BUFF cells) at 512.
@example(spec_seed=4, width=512, run_seed=9, model_index=DELAY_MODELS.index(FanoutDelay))
@example(spec_seed=4, width=520, run_seed=2, model_index=DELAY_MODELS.index(FanoutDelay))
@example(
    spec_seed=1, width=512, run_seed=9, model_index=DELAY_MODELS.index(instant_inverter_delay)
)
def test_event_backends_identical_on_random_netlists(spec_seed, width, run_seed, model_index):
    """Per-lane energies and per-net transition counts agree, glitches included."""
    circuit = _build_circuit(spec_seed)
    model_cls = DELAY_MODELS[model_index]
    rng = np.random.default_rng(run_seed)
    initial_state = int(rng.integers(0, circuit.state_space_size()))
    cycles = 5
    bits = rng.integers(0, 2, size=(cycles, circuit.num_inputs, width), dtype=np.uint8)

    vector = EventDrivenSimulator(
        circuit, delay_model=model_cls(), width=width, backend="numpy"
    )
    vector.reset(latch_state=initial_state)
    vector.settle(pack_bit_matrix(bits[0]))

    scalars = []
    for lane in range(width):
        scalar = EventDrivenSimulator(circuit, delay_model=model_cls(), backend="scalar")
        scalar.reset(latch_state=initial_state)
        scalar.settle(bits[0][:, lane].tolist())
        scalars.append(scalar)

    for step in range(1, cycles):
        lanes = vector.cycle_lanes(pack_bit_matrix(bits[step]))
        expected = [
            scalar.cycle(bits[step][:, lane].tolist()) for lane, scalar in enumerate(scalars)
        ]
        assert lanes == pytest.approx(expected)

    aggregated = np.zeros(circuit.num_nets, dtype=np.int64)
    for scalar in scalars:
        aggregated += scalar.transition_counts
    assert np.array_equal(aggregated, vector.transition_counts)
    # Settled values agree lane for lane after the run.
    for lane, scalar in enumerate(scalars):
        assert vector.latch_state_scalar(lane) == scalar.latch_state_scalar()


@settings(max_examples=10, deadline=None)
@given(
    spec_seed=st.integers(min_value=0, max_value=2**31 - 1),
    run_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_zero_delay_model_matches_functional_counts(spec_seed, run_seed):
    """With all-zero delays the vectorized event engine sees no glitches:
    its lane energies equal the zero-delay simulator's functional ones."""
    from repro.simulation.zero_delay import ZeroDelaySimulator

    circuit = _build_circuit(spec_seed)
    width = 48
    rng = np.random.default_rng(run_seed)
    bits = rng.integers(0, 2, size=(5, circuit.num_inputs, width), dtype=np.uint8)

    event = EventDrivenSimulator(circuit, delay_model=ZeroDelay(), width=width, backend="numpy")
    functional = ZeroDelaySimulator(circuit, width=width, backend="numpy")
    event.reset(latch_state=0)
    functional.reset(latch_state=0)
    event.settle(pack_bit_matrix(bits[0]))
    functional.settle(pack_bit_matrix(bits[0]))

    for step in range(1, 5):
        pattern = pack_bit_matrix(bits[step])
        lanes_event = event.cycle_lanes(pattern)
        lanes_functional = functional.step_and_measure_lanes(pattern)
        assert lanes_event == pytest.approx(lanes_functional)


@settings(max_examples=8, deadline=None)
@given(
    spec_seed=st.integers(min_value=0, max_value=2**31 - 1),
    width=st.integers(min_value=1, max_value=96),
    run_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_event_checkpoint_roundtrip(spec_seed, width, run_seed):
    """get_state/set_state freezes and resumes an identical trajectory."""
    circuit = _build_circuit(spec_seed)
    rng = np.random.default_rng(run_seed)
    bits = rng.integers(0, 2, size=(7, circuit.num_inputs, width), dtype=np.uint8)

    simulator = EventDrivenSimulator(circuit, delay_model=FanoutDelay(), width=width)
    simulator.reset(latch_state=1)
    simulator.settle(pack_bit_matrix(bits[0]))
    simulator.cycle_lanes(pack_bit_matrix(bits[1]))
    snapshot = simulator.get_state()

    first = [simulator.cycle_lanes(pack_bit_matrix(bits[step])).tolist() for step in range(2, 7)]
    counts_first = simulator.transition_counts.copy()

    restored = EventDrivenSimulator(
        circuit, delay_model=FanoutDelay(), width=width,
        backend="numpy" if width > 1 else "scalar",
    )
    restored.set_state(snapshot)
    second = [restored.cycle_lanes(pack_bit_matrix(bits[step])).tolist() for step in range(2, 7)]
    assert second == first
    assert np.array_equal(restored.transition_counts, counts_first)
