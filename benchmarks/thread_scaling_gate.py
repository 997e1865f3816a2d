"""Acceptance gate for the chunk-thread tier.

Measures the native fault-simulation throughput on a syn5378-scale
workload, serial vs 4 chunk threads (``FaultSimulator(threads=4)``: the
fault list cut into chunks whose GIL-released kernel calls run on their
own threads), asserts the detect times bit-identical, and fails unless
the threaded run reaches the target speedup (default 1.8x).

The gate self-skips (exit 0 with a notice) when it cannot mean
anything: no native backend, or fewer physical cores than the measured
thread count — thread speedup on a 1-core container is a scheduling
artifact, not a regression signal.
CI runs it on the native lane where the runner has >= 4 vCPUs; locally
it is an opt-in check for multi-core machines.

Run:  python benchmarks/thread_scaling_gate.py [--min 1.8] [--threads 4]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.circuits.catalog import load_circuit
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.sim.backend import available_backends
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.util.rng import SplitMix64

CIRCUIT = "syn5378"
MAX_FAULTS = 2048
VECTORS = 24
BATCH_WIDTH = 2048


def _stimulus(circuit, length):
    rng = SplitMix64(2024)
    return TestSequence(
        [
            [rng.next_u64() & 1 for _ in range(circuit.num_inputs)]
            for _ in range(length)
        ]
    )


def _best_seconds(simulator, sequence, faults, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = simulator.run(sequence, faults)
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Chunk-thread scaling gate (syn5378)")
    parser.add_argument(
        "--min",
        type=float,
        default=1.8,
        help="required threaded speedup over serial (default: %(default)s)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=4,
        help="chunk threads to measure (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="best-of-N repeats per point (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if "native" not in available_backends():
        print("no native backend on this machine; gate skipped")
        return 0
    cores = os.cpu_count() or 1
    if cores < args.threads:
        print(
            f"{cores} core(s) < {args.threads} threads: thread speedup is "
            "not measurable here; gate skipped"
        )
        return 0

    compiled = CompiledCircuit(load_circuit(CIRCUIT))
    faults = list(FaultUniverse(compiled.circuit).faults())[:MAX_FAULTS]
    sequence = _stimulus(compiled.circuit, VECTORS)

    serial = FaultSimulator(
        compiled, batch_width=BATCH_WIDTH, backend="native"
    )
    threaded = FaultSimulator(
        compiled,
        batch_width=BATCH_WIDTH,
        backend="native",
        threads=args.threads,
    )
    serial_s, serial_result = _best_seconds(serial, sequence, faults, args.repeats)
    threaded_s, threaded_result = _best_seconds(
        threaded, sequence, faults, args.repeats
    )

    if threaded_result.detection_time != serial_result.detection_time:
        print(
            f"FAIL {CIRCUIT}: threaded detect times diverge from serial "
            "— parity violated"
        )
        return 1
    speedup = serial_s / threaded_s if threaded_s else 0.0
    ok = speedup >= args.min
    print(
        f"{CIRCUIT}: native fault run {len(faults)} faults x {VECTORS} "
        f"vectors, serial {serial_s:.4f}s vs {args.threads} threads "
        f"{threaded_s:.4f}s -> {speedup:.2f}x "
        f"(target >= {args.min}x) {'ok' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
