"""Cross-engine equivalence suite over power simulators and backends.

Every power engine registered with
:data:`~repro.api.registry.SIMULATOR_REGISTRY`, on every simulation backend
a sampler can hand it, must satisfy the chain-independence contract the
samplers are built on: the per-lane energies of a width-*W* ensemble equal,
lane for lane, the energies of *W* independent width-1 runs driven by the
same per-lane stimulus, for any width — and the state engine's settled latch
state must agree exactly.  The backends are ``"auto"`` (the width-1
references run on the big-int / scalar oracles) and ``"compiled"`` (the
per-circuit codegen kernel for the state sweeps and the event frontier).
One more case builds its engines the way users reach codegen: through
``EstimationConfig(simulation_backend="compiled")`` and
:class:`~repro.core.batch_sampler.BatchPowerSampler`'s own construction.
The simulators come from the registry, so a future registered engine is
pinned the moment it registers, with no new test code.

Widths span the interesting regimes: 1 (scalar/big-int engines), a
non-aligned narrow ensemble, one full 64-lane word, and multi-word widths
with and without a partial last word (1–192, as the PR 1/PR 3 equivalence
suites established for the individual engines).
"""

import numpy as np
import pytest

from repro.api.registry import get_simulator, simulator_names
from repro.circuits.iscas89 import build_circuit
from repro.circuits.program import CircuitProgram
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.power.capacitance import CapacitanceModel
from repro.simulation.event_driven import event_backend_for
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.stimulus.base import pack_bit_matrix
from repro.stimulus.random_inputs import BernoulliStimulus

WIDTHS = (1, 3, 64, 130, 192)
CYCLES = 5

#: (power simulator, simulation backend, built by a sampler) cases; a case is
#: named after its simulator, with the backend appended when it is not
#: "auto".  The "compiled" case is the codegen switch as users set it: the
#: default power simulator under ``simulation_backend="compiled"``, its
#: engines built by a sampler rather than by :func:`_engines`' mirror.
ENGINES = [
    pytest.param(name, backend, False, id=name if backend == "auto" else f"{name}-{backend}")
    for backend in ("auto", "compiled")
    for name in simulator_names()
] + [pytest.param(EstimationConfig().power_simulator, "compiled", True, id="compiled")]


@pytest.fixture(scope="module")
def program() -> CircuitProgram:
    return CircuitProgram.of(build_circuit("s298"))


@pytest.fixture(scope="module")
def caps(program):
    return program.capacitances(CapacitanceModel())


def test_builtin_engines_are_registered():
    assert simulator_names() == ("event-driven", "zero-delay")


def _engines(name, backend, by_sampler, program, caps, width):
    """The (state engine, power engine) pair a sampler builds for *backend*."""
    if by_sampler:
        config = EstimationConfig(
            power_simulator=name, simulation_backend=backend, delay_model="type-table"
        )
        sampler = BatchPowerSampler(
            program,
            BernoulliStimulus(program.circuit.num_inputs, 0.5),
            config,
            num_chains=width,
        )
        assert np.array_equal(sampler._node_caps, caps)
        return sampler._engine, sampler._power
    state = ZeroDelaySimulator(program, width=width, node_capacitance=caps, backend=backend)
    power = get_simulator(name)(
        program,
        width=width,
        node_capacitance=caps,
        delay_model="type-table",
        backend=event_backend_for(backend),
    )
    return state, power


def _run_ensemble(name, backend, by_sampler, program, caps, width, latch_bits, input_bits):
    """Drive one ensemble of *width* lanes; return (energies, latch states)."""
    state, power = _engines(name, backend, by_sampler, program, caps, width)
    state.reset(latch_state=pack_bit_matrix(latch_bits[:, :width]))
    state.settle(pack_bit_matrix(input_bits[0][:, :width]))
    energies = np.empty((CYCLES - 1, width), dtype=np.float64)
    for step in range(1, CYCLES):
        energies[step - 1] = power.measure_lanes(
            state, pack_bit_matrix(input_bits[step][:, :width])
        )
    states = [state.latch_state_scalar(lane) for lane in range(width)]
    return energies, states


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("name,backend,by_sampler", ENGINES)
def test_per_lane_results_match_width_one_runs(name, backend, by_sampler, program, caps, width):
    """Lane *k* of a width-W ensemble == an independent width-1 run of lane *k*."""
    circuit = program.circuit
    rng = np.random.default_rng(1234 + width)
    latch_bits = rng.integers(0, 2, size=(circuit.num_latches, width), dtype=np.uint8)
    input_bits = rng.integers(
        0, 2, size=(CYCLES, circuit.num_inputs, width), dtype=np.uint8
    )

    energies, states = _run_ensemble(
        name, backend, by_sampler, program, caps, width, latch_bits, input_bits
    )

    lanes = range(width) if width <= 4 else sorted({0, width // 2, width - 1})
    for lane in lanes:
        ref_energy, ref_state = _run_ensemble(
            name,
            backend,
            by_sampler,
            program,
            caps,
            1,
            latch_bits[:, lane : lane + 1],
            input_bits[:, :, lane : lane + 1],
        )
        # Energies are capacitance-weighted transition counts.  Zero-delay
        # engines sum the counts in one fixed class order, so a lane's energy
        # is exact whatever the width; the event-driven engines guarantee
        # identical *counts* but may reduce the weighted sum in different
        # orders, hence approx at float64 resolution.
        if name == "zero-delay":
            assert energies[:, lane].tolist() == ref_energy[:, 0].tolist()
        else:
            np.testing.assert_allclose(energies[:, lane], ref_energy[:, 0], rtol=1e-12)
        assert states[lane] == ref_state[0], f"latch state diverged in lane {lane}"


@pytest.mark.parametrize("name,backend,by_sampler", ENGINES)
def test_measure_total_equals_lane_sum(name, backend, by_sampler, program, caps):
    """measure_total is the lane-summed counterpart of measure_lanes."""
    circuit = program.circuit
    width = 96
    rng = np.random.default_rng(77)
    latch_bits = rng.integers(0, 2, size=(circuit.num_latches, width), dtype=np.uint8)
    input_bits = rng.integers(
        0, 2, size=(CYCLES, circuit.num_inputs, width), dtype=np.uint8
    )
    energies, _ = _run_ensemble(
        name, backend, by_sampler, program, caps, width, latch_bits, input_bits
    )

    state, power = _engines(name, backend, by_sampler, program, caps, width)
    state.reset(latch_state=pack_bit_matrix(latch_bits))
    state.settle(pack_bit_matrix(input_bits[0]))
    for step in range(1, CYCLES):
        total = power.measure_total(state, pack_bit_matrix(input_bits[step]))
        assert total == pytest.approx(energies[step - 1].sum(), rel=1e-12)
