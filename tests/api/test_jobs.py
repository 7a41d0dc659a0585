"""Serialization and execution tests for JobSpec / JobResult / run_job."""

import json

import pytest

from repro.api.jobs import JobResult, JobSpec, StimulusSpec, resolve_circuit, run_job
from repro.core.config import EstimationConfig
from repro.core.dipe import DipeEstimator
from repro.core.results import PowerEstimate
from repro.power.power_model import PowerModel
from repro.stimulus.correlated_inputs import LagOneMarkovStimulus


@pytest.fixture()
def quick_spec(quick_config):
    return JobSpec(circuit="s27", config=quick_config, seed=7, label="unit:s27")


class TestStimulusSpec:
    def test_bernoulli_helper(self):
        spec = StimulusSpec.bernoulli(0.25)
        stimulus = spec.build(4)
        assert stimulus.num_inputs == 4
        assert float(stimulus.probabilities[0]) == pytest.approx(0.25)

    def test_build_lag_one_markov(self):
        spec = StimulusSpec(kind="lag-one-markov", params={"probability": 0.4, "correlation": 0.3})
        stimulus = spec.build(3)
        assert isinstance(stimulus, LagOneMarkovStimulus)

    def test_round_trip(self):
        spec = StimulusSpec(kind="lag-one-markov", params={"probability": 0.4})
        assert StimulusSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_unknown_kind_fails_at_build(self):
        with pytest.raises(KeyError, match="unknown stimulus"):
            StimulusSpec(kind="white-noise").build(2)


class TestJobSpecSerialization:
    def test_round_trip_bit_exact(self, quick_spec):
        restored = JobSpec.from_dict(json.loads(json.dumps(quick_spec.to_dict())))
        assert restored == quick_spec

    def test_round_trip_with_custom_models_and_params(self):
        config = EstimationConfig(
            max_relative_error=0.03,
            confidence=0.95,
            num_chains=4,
            power_model=PowerModel(vdd=3.3, clock_frequency_hz=50e6),
        )
        spec = JobSpec(
            circuit="s298",
            estimator="fixed-warmup",
            stimulus=StimulusSpec(kind="lag-one-markov", params={"correlation": 0.7}),
            config=config,
            seed=99,
            params={"warmup_period": 12},
        )
        restored = JobSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.config.power_model.vdd == pytest.approx(3.3)
        assert restored.params == {"warmup_period": 12}

    def test_partial_dict_uses_defaults(self):
        spec = JobSpec.from_dict({"circuit": "s27"})
        assert spec.estimator == "dipe"
        assert spec.seed == 2025
        assert spec.config == EstimationConfig()
        assert spec.stimulus == StimulusSpec()

    def test_partial_config_dict(self):
        spec = JobSpec.from_dict({"circuit": "s27", "config": {"min_samples": 32}})
        assert spec.config.min_samples == 32
        assert spec.config.confidence == pytest.approx(0.99)

    def test_name_defaults_to_deterministic_tag(self):
        assert JobSpec(circuit="s27", seed=3).name == "dipe:s27@3"
        assert JobSpec(circuit="s27", label="mine").name == "mine"

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            JobSpec(circuit="s27", seed="abc")

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError, match="circuit"):
            JobSpec(circuit="")


class TestPowerEstimateSerialization:
    def test_round_trip_bit_exact(self, s27_circuit, quick_config):
        estimate = DipeEstimator(s27_circuit, config=quick_config, rng=5).estimate()
        payload = json.loads(json.dumps(estimate.to_dict()))
        assert PowerEstimate.from_dict(payload) == estimate

    def test_interval_selection_survives(self, s27_circuit, quick_config):
        estimate = DipeEstimator(s27_circuit, config=quick_config, rng=6).estimate()
        restored = PowerEstimate.from_dict(estimate.to_dict())
        assert restored.interval_selection == estimate.interval_selection
        assert restored.samples_switched_capacitance_f == estimate.samples_switched_capacitance_f


class TestRunJob:
    def test_matches_direct_estimator(self, s27_circuit, quick_config):
        direct = DipeEstimator(s27_circuit, config=quick_config, rng=7).estimate()
        result = run_job(JobSpec(circuit="s27", config=quick_config, seed=7))
        assert result.ok
        assert result.estimate.average_power_w == direct.average_power_w
        assert result.estimate.sample_size == direct.sample_size
        assert result.estimate.independence_interval == direct.independence_interval

    def test_baseline_estimator_kind(self, quick_config):
        result = run_job(
            JobSpec(
                circuit="s27",
                estimator="fixed-warmup",
                config=quick_config,
                seed=8,
                params={"warmup_period": 5},
            )
        )
        assert result.estimate.method == "fixed-warmup"
        assert result.estimate.independence_interval == 5

    def test_progress_callback_receives_events(self, quick_config):
        kinds = []
        run_job(
            JobSpec(circuit="s27", config=quick_config, seed=9),
            progress=lambda event: kinds.append(event.kind),
        )
        assert kinds[0] == "run-started"
        assert kinds[-1] == "estimate-completed"
        assert "interval-selected" in kinds

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compiled_backend_is_bit_identical_to_numpy(self, workers):
        """``simulation_backend="compiled"`` routes the zero-delay sweeps and
        the event-driven frontier through codegen without changing a sample,
        in process and sharded."""
        estimates = {}
        for backend in ("numpy", "compiled"):
            config = EstimationConfig(
                power_simulator="event-driven",
                num_chains=64,
                num_workers=workers,
                simulation_backend=backend,
                warmup_cycles=16,
                randomness_sequence_length=64,
            )
            estimates[backend] = run_job(JobSpec(circuit="s298", config=config, seed=12)).estimate
        numpy_run, compiled_run = estimates["numpy"], estimates["compiled"]
        assert (
            compiled_run.samples_switched_capacitance_f
            == numpy_run.samples_switched_capacitance_f
        )
        assert compiled_run.average_power_w == numpy_run.average_power_w
        assert compiled_run.sample_size == numpy_run.sample_size
        assert compiled_run.independence_interval == numpy_run.independence_interval
        assert compiled_run.cycles_simulated == numpy_run.cycles_simulated

    def test_unknown_circuit_raises(self, quick_config):
        with pytest.raises(ValueError, match="unknown circuit"):
            run_job(JobSpec(circuit="never-heard-of-it", config=quick_config))

    def test_result_round_trip(self, quick_config):
        result = run_job(JobSpec(circuit="s27", config=quick_config, seed=10))
        restored = JobResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.spec == result.spec
        assert restored.result == result.result
        assert restored.ok

    def test_figure3_job_round_trip(self, quick_config):
        from repro.experiments.figure3 import Figure3Result, figure3_job

        spec = figure3_job(
            circuit_name="s298", max_interval=2, sequence_length=120, config=quick_config, seed=4
        )
        result = run_job(spec)
        assert isinstance(result.result, Figure3Result)
        restored = JobResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.result == result.result
        with pytest.raises(TypeError):
            result.estimate  # noqa: B018 — figure3 payload is not a PowerEstimate


class TestResolveCircuit:
    def test_registered_name(self):
        assert resolve_circuit("s27").name == "s27"

    def test_bench_file(self, tmp_path):
        from repro.circuits.library import S27_BENCH

        path = tmp_path / "mini.bench"
        path.write_text(S27_BENCH)
        assert resolve_circuit(str(path)).num_latches == 3

    def test_unknown_reference(self):
        with pytest.raises(ValueError, match="unknown circuit"):
            resolve_circuit("bogus")
