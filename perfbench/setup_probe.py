"""One fresh-process set-up, as every ``repro estimate`` invocation pays it.

Run by the benchmark as a child process::

    python3 perfbench/setup_probe.py --circuit s5378 --config '{"num_chains": 256}' --seed 1

It imports the job API, resolves the circuit, lowers it and builds the first
sampler (which compiles the native kernel), then prints one JSON line with
the time of each step and the lowering and compiler-invocation counts.  The
parent times the whole launch up to that line; the line itself is the set-up
layer split.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", required=True)
    parser.add_argument("--config", required=True, help="EstimationConfig fields as JSON")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    from repro.api import JobSpec, resolve_circuit  # noqa: F401 — resolves repro.api.jobs
    from repro.circuits.program import CircuitProgram, compile_count
    from repro.core.batch_sampler import make_sampler
    from repro.core.config import EstimationConfig
    from repro.simulation._native import compiler_invocations

    imported = time.perf_counter()
    circuit = resolve_circuit(args.circuit)
    built = time.perf_counter()
    lowerings = compile_count()
    program = CircuitProgram.of(circuit)
    lowered = time.perf_counter()
    lowerings = compile_count() - lowerings
    compiles = compiler_invocations()
    spec = JobSpec(
        circuit=args.circuit, config=EstimationConfig(**json.loads(args.config)), seed=args.seed
    )
    sampler = make_sampler(
        program, spec.stimulus.build(circuit.num_inputs), spec.config, rng=spec.seed
    )
    ready = time.perf_counter()
    compiles = compiler_invocations() - compiles
    print(
        json.dumps(
            {
                "ready": True,
                "setup.import_s": imported - started,
                "circuits.build_s": built - imported,
                "circuits.lower_s": lowered - built,
                "circuits.lowerings": lowerings,
                "simulation.engine_build_s": ready - lowered,
                "simulation.compiler_invocations": compiles,
            }
        ),
        flush=True,
    )
    close = getattr(sampler, "close", None)
    if close is not None:
        close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
