"""Write the benchmark's reference powers to ``perfbench/references.json``.

Usage, from the root of a checkout::

    python3 perfbench/make_references.py

One reference per (circuit, power simulator) the workloads use, each a long
ensemble average recorded with its seed and budget:

* zero-delay: :func:`repro.power.reference.estimate_reference_power`;
* event-driven: the mean of ``BatchPowerSampler.measure_cycle_total`` over an
  ensemble run with ``power_simulator="event-driven"``.

Both budgets make the reference's own error far smaller than the benchmark's
gate (3x the workload's maximum relative error).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent

#: Reference seed and budgets (measured cycles are lanes x cycles per lane).
SEED = 20_240_601
BUDGETS = {
    "zero-delay": {"lanes": 256, "cycles_per_lane": 4096, "warmup_cycles": 256},
    "event-driven": {"lanes": 64, "cycles_per_lane": 4096, "warmup_cycles": 256},
}


def compute_reference(
    circuit_name: str,
    power_simulator: str,
    lanes: int,
    cycles_per_lane: int,
    warmup_cycles: int,
) -> dict:
    """Long-run average power of *circuit_name* under *power_simulator*, with its budget."""
    from repro.api import resolve_circuit
    from repro.core.batch_sampler import BatchPowerSampler
    from repro.core.config import EstimationConfig
    from repro.power.reference import estimate_reference_power
    from repro.stimulus.random_inputs import BernoulliStimulus

    circuit = resolve_circuit(circuit_name)
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)
    start = time.perf_counter()
    if power_simulator == "zero-delay":
        power_w = estimate_reference_power(
            circuit,
            stimulus,
            total_cycles=lanes * cycles_per_lane,
            lanes=lanes,
            warmup_cycles=warmup_cycles,
            rng=SEED,
        ).average_power_w
    else:
        config = EstimationConfig(power_simulator=power_simulator, warmup_cycles=warmup_cycles)
        sampler = BatchPowerSampler(circuit, stimulus, config=config, rng=SEED, num_chains=lanes)
        sampler.prepare(warmup_cycles)
        switched = sum(sampler.measure_cycle_total() for _ in range(cycles_per_lane))
        power_w = config.power_model.cycle_power(switched / (lanes * cycles_per_lane))
    return {
        "circuit": circuit_name,
        "power_simulator": power_simulator,
        "average_power_w": power_w,
        "seed": SEED,
        "lanes": lanes,
        "cycles_per_lane": cycles_per_lane,
        "warmup_cycles": warmup_cycles,
        "elapsed_s": round(time.perf_counter() - start, 1),
    }


def main() -> int:
    sys.path[:0] = [str(ROOT_DIR / "src"), str(ROOT_DIR)]
    from perfbench.harness import REFERENCES, WORKLOADS

    wanted = sorted(
        {
            (workload["circuit"], workload["config"].get("power_simulator", "zero-delay"))
            for workload in WORKLOADS.values()
        }
    )
    references = []
    for circuit, power_simulator in wanted:
        entry = compute_reference(circuit, power_simulator, **BUDGETS[power_simulator])
        print(json.dumps(entry), flush=True)
        references.append(entry)
    payload = {"command": "python3 perfbench/make_references.py", "references": references}
    REFERENCES.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
