"""Exactness of zero-delay power measurement across kernels, backends and lane subsets.

Every zero-delay entry point turns exact integer toggle counts per
(capacitance class, lane) into energy with one fixed-order float sum (see
:mod:`repro.simulation.measurement`).  So the pins here are ``==``, not
``approx``:

* the compiled ``zd_count_lanes`` kernel, its numpy fallback and the big-int
  oracle agree bit for bit, for every width, lane count and capacitance
  vector;
* ``measure_lanes(lanes=k)`` equals the first *k* entries of a full
  measurement on a twin engine, for both power simulators on the default and
  the codegen backend, and for engines a sampler builds from
  ``simulation_backend="compiled"`` (event-driven energies to float64
  resolution, their toggle counts exactly);
* ``collect_sequence``, which measures chain 0 alone, equals lane 0 of a
  twin sampler's full measurement, in process and sharded.
"""

import numpy as np
import pytest

from repro.api.registry import get_simulator, simulator_names
from repro.circuits.iscas89 import build_circuit
from repro.circuits.program import CircuitProgram
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.core.sharded_sampler import ShardedPowerSampler
from repro.power.capacitance import CapacitanceModel
from repro.simulation import _native
from repro.simulation.measurement import CapacitanceClasses, resolve_lanes
from repro.simulation.event_driven import event_backend_for
from repro.simulation.vectorized import VectorizedZeroDelaySimulator
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.stats.randomness import dichotomize, runs_test_on_values
from repro.stimulus.base import pack_bit_matrix
from repro.stimulus.random_inputs import BernoulliStimulus

WIDTHS = (1, 63, 64, 65, 130, 256)
CAPS = ("unit", "model", "random")

#: (power simulator, simulation backend, built by a sampler) cases; a case is
#: named after its simulator, with the backend appended when it is not
#: "auto".  The "compiled" case is the codegen switch as users set it: the
#: default power simulator under ``simulation_backend="compiled"``, its
#: engines built by :class:`BatchPowerSampler` itself.
ENGINES = [
    pytest.param(name, backend, False, id=name if backend == "auto" else f"{name}-{backend}")
    for backend in ("auto", "compiled")
    for name in simulator_names()
] + [pytest.param(EstimationConfig().power_simulator, "compiled", True, id="compiled")]

#: Capacitance models whose per-net vectors are the unit and built-in
#: capacitances of :func:`_caps`, for engines a sampler builds from a config.
CAP_MODELS = {"unit": CapacitanceModel(1.0, 0.0, 0.0, 0.0, 1.0), "model": CapacitanceModel()}

needs_kernel = pytest.mark.skipif(
    not _native.native_kernel_available(), reason="compiled kernel unavailable"
)


@pytest.fixture(scope="module")
def program() -> CircuitProgram:
    return CircuitProgram.of(build_circuit("s298"))


def _caps(program, kind):
    """Single-class unit caps, the built-in model, or one class per net."""
    if kind == "unit":
        return None
    if kind == "model":
        return program.capacitances(CapacitanceModel())
    rng = np.random.default_rng(5)
    return rng.uniform(1e-15, 3e-14, size=program.circuit.num_nets)


def _lane_counts(width):
    """The lane counts measured at *width*: {1, 7, 64, width}, capped at width."""
    return sorted({lanes for lanes in (1, 7, 64, width) if lanes <= width})


def test_class_counts_match_the_builtin_model_sizes():
    sizes = {}
    for name in ("s298", "s1494", "s5378"):
        program = CircuitProgram.of(build_circuit(name))
        sizes[name] = CapacitanceClasses(program.capacitances(CapacitanceModel())).num_classes
    assert sizes == {"s298": 12, "s1494": 13, "s5378": 16}


def test_resolve_lanes_bounds():
    assert resolve_lanes(None, 5) == 5
    assert resolve_lanes(3, 5) == 3
    for bad in (0, 6, -1):
        with pytest.raises(ValueError, match="lanes"):
            resolve_lanes(bad, 5)


@needs_kernel
@pytest.mark.parametrize("kind", CAPS)
@pytest.mark.parametrize("width", WIDTHS)
def test_kernel_equals_numpy_fallback_on_random_diffs(program, kind, width, monkeypatch):
    """Counts from the kernel and the fallback are the same integers."""
    caps = _caps(program, kind)
    if caps is None:
        caps = np.ones(program.circuit.num_nets)
    classes = CapacitanceClasses(caps)

    def fallback_counts(diff, lanes):
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NATIVE", "0")
            assert _native.load_kernel() is None
            return classes.count_lanes(diff, lanes)

    rng = np.random.default_rng(width)
    num_words = (width + 63) // 64
    # Sparse, dense and garbage-beyond-width bits: the kernel must ignore
    # every lane at or above the requested count.
    for density in (1, 2, 4):
        diff = rng.integers(0, 2**64, size=(program.circuit.num_nets, num_words), dtype=np.uint64)
        for _ in range(density - 1):
            diff &= rng.integers(0, 2**64, size=diff.shape, dtype=np.uint64)
        for lanes in _lane_counts(width):
            counts = classes.count_lanes(diff, lanes)
            assert counts.shape == (classes.num_classes, lanes)
            np.testing.assert_array_equal(counts, fallback_counts(diff, lanes))


def test_equal_class_counts_give_equal_energies_and_median_ties(program):
    """Cycles toggling different nets with the same per-class counts tie exactly.

    A net-order float sum would usually split such cycles by rounding; the
    class-count formula makes them bit-identical, so when they sit at the
    median of a sequence the runs test's dichotomisation drops them.
    """
    classes = CapacitanceClasses(program.capacitances(CapacitanceModel()))
    members = [np.flatnonzero(classes.net_class == c) for c in range(classes.num_classes)]
    shared = [nets for nets in members if nets.size >= 2]
    assert len(shared) >= 3
    first = np.zeros((classes.num_nets, 1), dtype=np.uint64)
    second = np.zeros_like(first)
    for nets in shared:
        first[nets[0]] = 1
        second[nets[-1]] = 1
    assert not np.array_equal(first, second)
    counts = classes.count_lanes(first, 1)
    np.testing.assert_array_equal(counts, classes.count_lanes(second, 1))
    energy = float(classes.energy(counts)[0])
    assert energy == float(classes.energy(classes.count_lanes(second, 1))[0])

    low, high = 0.5 * energy, 2.0 * energy
    sequence = [low, energy, high, energy, low, high]
    assert np.median(sequence) == energy
    assert dichotomize(sequence) == [0, 1, 0, 1]
    result = runs_test_on_values(sequence)
    assert (result.num_first, result.num_second) == (2, 2)


def _engine_runs(program, caps, width, lanes, monkeypatch, native):
    """Per-cycle lane energies and totals of the numpy engine and the big-int oracle."""
    if not native:
        monkeypatch.setenv("REPRO_NATIVE", "0")
    assert (_native.load_kernel() is not None) == native
    vector = VectorizedZeroDelaySimulator(program, width=width, node_capacitance=caps)
    bigint = ZeroDelaySimulator(program, width=width, node_capacitance=caps, backend="bigint")
    stimulus = BernoulliStimulus(program.circuit.num_inputs, 0.5)
    results = []
    for engine in (vector, bigint):
        engine.randomize_state(np.random.default_rng(11))
        rng = np.random.default_rng(12)
        engine.settle(stimulus.next_pattern(rng, width=width))
        lanes_out, totals = [], []
        for _ in range(4):
            lanes_out.append(
                engine.step_and_measure_lanes(stimulus.next_pattern(rng, width=width), lanes)
            )
            totals.append(engine.step_and_measure(stimulus.next_pattern(rng, width=width)))
        results.append((np.array(lanes_out), totals))
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return results


@pytest.mark.parametrize("native", [pytest.param(True, marks=needs_kernel), False])
@pytest.mark.parametrize("kind", CAPS)
@pytest.mark.parametrize("width", WIDTHS)
def test_engine_equals_bigint_oracle(program, kind, width, native, monkeypatch):
    """Numpy engine (kernel or fallback) == big-int oracle, lane subsets included."""
    caps = _caps(program, kind)
    for lanes in _lane_counts(width):
        (vec_lanes, vec_totals), (big_lanes, big_totals) = _engine_runs(
            program, caps, width, lanes, monkeypatch, native
        )
        assert vec_lanes.shape == (4, lanes)
        assert vec_lanes.tolist() == big_lanes.tolist()
        assert vec_totals == big_totals


def _sampler_engines(program, name, backend, width, kind):
    """The (state engine, power engine) pair a sampler builds from a config."""
    config = EstimationConfig(
        power_simulator=name,
        simulation_backend=backend,
        delay_model="type-table",
        capacitance_model=CAP_MODELS[kind],
    )
    stimulus = BernoulliStimulus(program.circuit.num_inputs, 0.5)
    sampler = BatchPowerSampler(program, stimulus, config, num_chains=width)
    return sampler._engine, sampler._power


def _twin_ensembles(program, name, backend, width, caps, seed, kind=None):
    """Two identical (state engine, power engine) pairs plus their stimulus bits.

    With *kind* set, a sampler builds each pair from a config whose
    capacitance model stands for *kind* instead of taking *caps*.
    """
    circuit = program.circuit
    rng = np.random.default_rng(seed)
    latch = pack_bit_matrix(rng.integers(0, 2, size=(circuit.num_latches, width), dtype=np.uint8))
    inputs = [
        pack_bit_matrix(rng.integers(0, 2, size=(circuit.num_inputs, width), dtype=np.uint8))
        for _ in range(6)
    ]
    twins = []
    for _ in range(2):
        if kind is not None:
            state, power = _sampler_engines(program, name, backend, width, kind)
        else:
            state = ZeroDelaySimulator(
                program, width=width, node_capacitance=caps, backend=backend
            )
            power = get_simulator(name)(
                program,
                width=width,
                node_capacitance=caps,
                delay_model="type-table",
                backend=event_backend_for(backend),
            )
        state.reset(latch_state=latch)
        state.settle(inputs[0])
        twins.append((state, power))
    return twins, inputs[1:]


@pytest.mark.parametrize("kind", ("unit", "model"))
@pytest.mark.parametrize("width,lanes", [(64, 1), (130, 7), (130, 65), (96, 96)])
@pytest.mark.parametrize("name,backend,by_sampler", ENGINES)
def test_leading_lanes_equal_full_measurement(
    program, name, backend, by_sampler, width, lanes, kind
):
    """measure_lanes(lanes=k) == measure_lanes()[:k]; trajectories unchanged."""
    caps = _caps(program, kind)
    twins, patterns = _twin_ensembles(
        program, name, backend, width, caps, seed=width + lanes, kind=kind if by_sampler else None
    )
    (full_state, full_power), (part_state, part_power) = twins
    exact = kind == "unit" or name == "zero-delay"
    for pattern in patterns:
        full = full_power.measure_lanes(full_state, pattern)
        part = part_power.measure_lanes(part_state, pattern, lanes=lanes)
        assert full.shape == (width,)
        assert part.shape == (lanes,)
        if exact:
            # Unit capacitances make every energy an integer toggle count.
            assert part.tolist() == full[:lanes].tolist()
        else:
            np.testing.assert_allclose(part, full[:lanes], rtol=1e-12)
        assert part_state.values == full_state.values
    assert part_state.cycles_simulated == full_state.cycles_simulated


def _sampler_pair(circuit, chains, config, seed=4):
    return [
        BatchPowerSampler(
            circuit,
            BernoulliStimulus(circuit.num_inputs, 0.5),
            config,
            rng=seed,
            num_chains=chains,
        )
        for _ in range(2)
    ]


@pytest.mark.parametrize("simulator", ["zero-delay", "event-driven"])
@pytest.mark.parametrize("chains", [1, 130])
def test_collect_sequence_is_lane_zero_of_full_measurement(s298_circuit, simulator, chains):
    config = EstimationConfig(warmup_cycles=8, power_simulator=simulator)
    sequence_sampler, full_sampler = _sampler_pair(s298_circuit, chains, config)
    sequence_sampler.prepare()
    full_sampler.prepare()
    interval, length = 2, 12
    sequence = sequence_sampler.collect_sequence(interval, length)
    expected = []
    for _ in range(length):
        full_sampler.advance(interval)
        expected.append(float(full_sampler.measure_cycle()[0]))
    if simulator == "zero-delay":
        assert sequence == expected
    else:
        np.testing.assert_allclose(sequence, expected, rtol=1e-12)
    assert sequence_sampler.cycles_simulated == full_sampler.cycles_simulated
    # Same RNG draws and chain trajectories: later samples agree exactly.
    np.testing.assert_array_equal(
        sequence_sampler.next_samples(1), full_sampler.next_samples(1)
    )


def test_sharded_collect_sequence_equals_in_process(s298_circuit):
    config = EstimationConfig(warmup_cycles=8)
    reference = BatchPowerSampler(
        s298_circuit, BernoulliStimulus(s298_circuit.num_inputs, 0.5), config, rng=9,
        num_chains=130,
    )
    sharded = ShardedPowerSampler(
        s298_circuit, BernoulliStimulus(s298_circuit.num_inputs, 0.5), config, rng=9,
        num_chains=130, num_workers=2, start_method="fork",
    )
    with sharded:
        assert reference.collect_sequence(3, 15) == sharded.collect_sequence(3, 15)
        np.testing.assert_array_equal(reference.next_samples(1), sharded.next_samples(1))
