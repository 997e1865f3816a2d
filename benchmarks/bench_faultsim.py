"""Throughput benchmark of the bit-parallel fault simulator backends.

Not a paper table, but the substrate whose speed bounds everything else;
tracked so regressions in either backend are visible.  Reports
gate-evaluations per second (``gates x faults x vectors / seconds``) in
parallel-fault mode and checks that detection times stay bit-identical
across backends *and* worker counts on every measured workload.

Two entry points:

* ``pytest benchmarks/bench_faultsim.py --benchmark-only`` — the
  pytest-benchmark harness, parametrized over backends;
* ``python benchmarks/bench_faultsim.py [--smoke] [--workers N ...]
  [--output FILE]`` — a standalone runner that writes a machine-readable
  ``BENCH_faultsim.json``.  CI runs the smoke profile and gates on the
  committed baseline via ``benchmarks/check_bench_regression.py``; the
  ``machine`` block (CPU count, Python version, platform) records where
  a report was produced so baselines are comparable across runners.

The ``--workers`` axis measures process sharding
(:mod:`repro.sim.sharding`): each worker count is a separate measurement
of the same workload, so the JSON records serial-vs-sharded scaling per
backend.  The ``--threads`` axis measures the third distribution tier —
the native kernel's in-process pthread lanes — as ``t<N>`` rows on the
``native`` backend (the other engines execute thread requests serially,
so only the native axis carries signal); thread detection times are
asserted bit-identical to serial like every other point, and
``--min-thread-speedup`` gates on the largest workload's best thread
speedup (opt-in, hardware-dependent — meaningless on a runner with
fewer cores than lanes).  A ``1-stepped`` axis re-measures each
backend's serial point through the per-step base
:meth:`~repro.sim.backend.SimBackend.run_scan` loop (a bench-local
subclass of the engine), so the whole-sequence ``run_scan`` kernels'
win is tracked and their detection times asserted bit-identical; every
measurement also records its kernel-dispatch counts (``dispatches``:
FFI crossings, scan calls and steps) across the repeats.  A
``good-trace`` row per backend measures the fault-free trace
(:class:`~repro.sim.logicsim.LogicSimulator` on that engine) in
``vectors_per_second`` and asserts its PO values and final state
bit-identical across backends.  The full
profile includes the largest catalog circuit, where the ``native`` C
kernel (when a toolchain is present) must clear a 6x single-thread
speedup over ``python``; ``--smoke`` restricts to small circuits for
quick regression signal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

from repro.circuits.catalog import load_circuit
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.sim.backend import (
    SimBackend,
    available_backends,
    backend_unavailable_reason,
    dispatch_counters,
    get_backend,
    registry_backends,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import LogicSimulator
from repro.sim.native_build import native_threads_available, toolchain_info
from repro.sim.sharding import ShardedFaultSimulator
from repro.util.rng import SplitMix64

#: (circuit, max faults, vectors, python batch width, wide batch width).
#: The word-based native backend is measured at the wide batches it
#: exists for; the python big-int kernel at its historical
#: sweet spot.
_SMOKE_WORKLOADS = [
    ("syn298", 512, 64, 192, 512),
    ("syn641", 1024, 48, 192, 1024),
]
_FULL_WORKLOADS = _SMOKE_WORKLOADS + [
    ("syn1423", 2048, 48, 192, 2048),
    ("syn5378", 2048, 24, 192, 2048),
    ("syn35932", 2048, 12, 192, 2048),
]

#: Worker counts measured by default: serial plus one sharded point.
DEFAULT_WORKER_AXIS = (1, 4)

#: Kernel thread-lane counts measured by default on the native backend.
DEFAULT_THREAD_AXIS = (4,)

#: The good-trace row simulates this many times each workload's vectors
#: (a trace is one slot, far cheaper per vector than a fault batch).
GOOD_TRACE_LENGTH_FACTOR = 4


def _stimulus(circuit, length):
    rng = SplitMix64(2024)
    return TestSequence(
        [
            [rng.next_u64() & 1 for _ in range(circuit.num_inputs)]
            for _ in range(length)
        ]
    )


def machine_block() -> dict:
    """Where this report was produced — baselines are machine-relative.

    Records the C toolchain and per-backend availability alongside the
    hardware facts: a report missing the ``native`` axis on a
    compiler-less runner is then self-explanatory.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "toolchain": toolchain_info(),
        # name -> None (usable) or the human-readable unavailability
        # reason, for every registered backend.
        "backend_availability": {
            name: backend_unavailable_reason(name)
            for name in registry_backends()
        },
    }


def _measure(
    compiled,
    faults,
    sequence,
    backend,
    batch_width,
    workers,
    base_loop=False,
    parallel=None,
    repeats=3,
):
    """Best-of-N wall time and throughput for one backend/workers point.

    ``base_loop=True`` runs the engine's per-step base scan loop (see
    :func:`_base_loop_backend`) instead of its own ``run_scan``.  The
    sharded simulator's worker pool spins up lazily inside the first
    repeat; best-of-N therefore reports warm-pool throughput, which is
    what sustained workloads see.  ``parallel="threads"`` measures the
    in-kernel pthread tier instead of process sharding — same ``workers``
    count, but the lanes live inside the C scan calls.
    """
    engine = _base_loop_backend(compiled, backend) if base_loop else backend
    # The bench exists to measure the distribution tiers, so each tier is
    # built directly: no fallback for being "too small" — the smoke
    # circuits are the small case — nor for running on a single-core
    # machine.
    if parallel == "threads" or workers <= 1:
        simulator = FaultSimulator(
            compiled, batch_width=batch_width, backend=engine, threads=workers
        )
    else:
        simulator = ShardedFaultSimulator(
            compiled,
            batch_width=batch_width,
            backend=engine,
            workers=workers,
            min_shard_faults=1,
        )
    before = dispatch_counters()
    try:
        result = None
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = simulator.run(sequence, faults)
            best = min(best, time.perf_counter() - start)
    finally:
        simulator.close()
    after = dispatch_counters()
    gate_evals = len(compiled.ops) * len(faults) * len(sequence)
    return {
        "backend": backend,
        "batch_width": batch_width,
        "workers": workers,
        "parallel": parallel or "auto",
        "base_loop": base_loop,
        "seconds": best,
        "gate_evals_per_second": gate_evals / best if best else 0.0,
        "detected": result.num_detected,
        # Kernel-dispatch deltas across all repeats (process-wide, so
        # sharded points — whose scans run in worker processes — report
        # only the parent's share, i.e. near zero).
        "dispatches": {
            kind: after[kind] - before.get(kind, 0)
            for kind in sorted(after)
            if after[kind] - before.get(kind, 0)
        },
        "detection_times": result.detection_time,
    }


def _base_loop_backend(compiled, name):
    """A fresh ``name`` engine whose ``run_scan`` is the base per-step loop."""

    class BaseLoop(type(get_backend(compiled, name))):
        run_scan = SimBackend.run_scan

    return BaseLoop(compiled)


def _measure_good_trace(compiled, sequence, backend, repeats=3):
    """Best-of-N fault-free trace throughput on one backend."""
    simulator = LogicSimulator(compiled, backend=backend)
    before = dispatch_counters()
    trace = None
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        trace = simulator.run(sequence)
        best = min(best, time.perf_counter() - start)
    after = dispatch_counters()
    return {
        "backend": backend,
        "vectors": len(sequence),
        "seconds": best,
        "vectors_per_second": len(sequence) / best if best else 0.0,
        "dispatches": {
            kind: after[kind] - before.get(kind, 0)
            for kind in sorted(after)
            if after[kind] - before.get(kind, 0)
        },
        "trace": (trace.po_values, trace.final_state),
    }


def run_profile(
    smoke: bool,
    workers_axis: tuple[int, ...] = DEFAULT_WORKER_AXIS,
    threads_axis: tuple[int, ...] = DEFAULT_THREAD_AXIS,
    progress=print,
) -> dict:
    """Run every workload on every backend x workers; return the report."""
    workloads = _SMOKE_WORKLOADS if smoke else _FULL_WORKLOADS
    backends = available_backends()
    workers_axis = tuple(dict.fromkeys(workers_axis)) or (1,)
    threads_axis = tuple(
        count for count in dict.fromkeys(threads_axis) if count > 1
    )
    measure_threads = "native" in backends and native_threads_available()
    report = {
        "profile": "smoke" if smoke else "full",
        "python_version": platform.python_version(),
        "machine": machine_block(),
        "backends": backends,
        "workers_axis": list(workers_axis),
        "threads_axis": list(threads_axis) if measure_threads else [],
        "workloads": [],
    }
    for name, max_faults, vectors, python_width, wide_width in workloads:
        compiled = CompiledCircuit(load_circuit(name))
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())[:max_faults]
        sequence = _stimulus(compiled.circuit, vectors)
        entry = {
            "circuit": name,
            "gates": len(compiled.ops),
            "faults": len(faults),
            "vectors": vectors,
            "results": {},
        }
        reference_times = None
        trace_sequence = _stimulus(
            compiled.circuit, vectors * GOOD_TRACE_LENGTH_FACTOR
        )
        reference_trace = None
        for backend in backends:
            # The word-based native engine takes the wide batches it
            # exists for; the big-int kernel its historical spot.
            width = python_width if backend == "python" else wide_width
            entry["results"][backend] = {}
            for workers in workers_axis:
                measured = _measure(
                    compiled, faults, sequence, backend, width, workers
                )
                detection_times = measured.pop("detection_times")
                if reference_times is None:
                    reference_times = detection_times
                elif detection_times != reference_times:
                    raise AssertionError(
                        f"{name}: {backend}/workers={workers} detection times "
                        f"diverge from {backends[0]}/workers="
                        f"{workers_axis[0]} — parity violated"
                    )
                entry["results"][backend][str(workers)] = measured
                progress(
                    f"[{name}] {backend:>6}/w{workers} width={width:<4} "
                    f"{measured['seconds']:.3f}s  "
                    f"{measured['gate_evals_per_second'] / 1e6:.1f} Mgate-evals/s"
                )
            serial = entry["results"][backend].get("1")
            if serial is not None:
                for workers in workers_axis:
                    if workers == 1:
                        continue
                    sharded = entry["results"][backend][str(workers)]
                    speedup = serial["seconds"] / sharded["seconds"]
                    sharded["speedup_vs_serial"] = speedup
                    progress(
                        f"[{name}] {backend} sharding speedup at "
                        f"{workers} workers: {speedup:.2f}x"
                    )
            # The thread tier: same workload through the native kernel's
            # in-process pthread lanes (``t<N>`` keys).  Only the native
            # backend has kernel lanes — the others execute thread
            # requests serially, so measuring them would duplicate the
            # serial row.
            if backend == "native" and measure_threads:
                for threads in threads_axis:
                    measured = _measure(
                        compiled,
                        faults,
                        sequence,
                        backend,
                        width,
                        threads,
                        parallel="threads",
                    )
                    detection_times = measured.pop("detection_times")
                    if detection_times != reference_times:
                        raise AssertionError(
                            f"{name}: native/threads={threads} detection "
                            "times diverge from serial — thread-tier "
                            "parity violated"
                        )
                    entry["results"][backend][f"t{threads}"] = measured
                    if serial is not None:
                        speedup = serial["seconds"] / measured["seconds"]
                        measured["speedup_vs_serial"] = speedup
                        progress(
                            f"[{name}] native thread speedup at "
                            f"{threads} lanes: {speedup:.2f}x"
                        )
            # The fused-vs-stepped axis: the same serial workload driven
            # through the per-step base scan loop, so the whole-sequence
            # kernel's win is tracked — and its bit-identical detection
            # times asserted — per backend.
            stepped = _measure(
                compiled, faults, sequence, backend, width, 1, base_loop=True
            )
            stepped_times = stepped.pop("detection_times")
            if stepped_times != reference_times:
                raise AssertionError(
                    f"{name}: {backend}/stepped detection times diverge "
                    "— base-loop parity violated"
                )
            entry["results"][backend]["1-stepped"] = stepped
            if serial is not None:
                speedup = stepped["seconds"] / serial["seconds"]
                entry[f"{backend}_fused_scan_speedup"] = speedup
                progress(
                    f"[{name}] {backend} fused-vs-stepped scan speedup: "
                    f"{speedup:.2f}x"
                )
            # The fault-free trace on this engine: one repro_trace call
            # per sequence on native, the per-step reference loop on the
            # others; PO values and final state must agree bit for bit.
            good = _measure_good_trace(compiled, trace_sequence, backend)
            trace = good.pop("trace")
            if reference_trace is None:
                reference_trace = trace
            elif trace != reference_trace:
                raise AssertionError(
                    f"{name}: {backend} good-machine trace diverges from "
                    f"{backends[0]} — trace parity violated"
                )
            entry["results"][backend]["good-trace"] = good
            progress(
                f"[{name}] {backend:>6}/good-trace "
                f"{good['vectors_per_second']:.0f} vectors/s"
            )
        if "native" in entry["results"] and "python" in entry["results"]:
            first = str(workers_axis[0])
            entry["native_speedup"] = (
                entry["results"]["python"][first]["seconds"]
                / entry["results"]["native"][first]["seconds"]
            )
            progress(f"[{name}] native speedup: {entry['native_speedup']:.2f}x")
        report["workloads"].append(entry)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fault-simulator backend throughput benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small circuits only (CI regression signal)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(DEFAULT_WORKER_AXIS),
        help=(
            "worker counts to measure (default: %(default)s); 1 is the "
            "serial engine, larger values measure process sharding"
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=list(DEFAULT_THREAD_AXIS),
        help=(
            "kernel thread-lane counts to measure on the native backend "
            "(default: %(default)s); counts <= 1 are dropped — the serial "
            "row already covers them"
        ),
    )
    parser.add_argument(
        "--output",
        default="BENCH_faultsim.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=None,
        help=(
            "fail unless the largest workload's best sharding speedup "
            "reaches this factor (opt-in: speedup is hardware-dependent, "
            "so only gate on machines with enough cores for the measured "
            "worker counts)"
        ),
    )
    parser.add_argument(
        "--min-thread-speedup",
        type=float,
        default=None,
        help=(
            "fail unless the largest workload's best native thread-tier "
            "speedup reaches this factor (opt-in for the same reason as "
            "--min-shard-speedup)"
        ),
    )
    args = parser.parse_args(argv)
    report = run_profile(
        smoke=args.smoke,
        workers_axis=tuple(args.workers),
        threads_axis=tuple(args.threads),
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {args.output}")
    largest = report["workloads"][-1]
    if args.min_shard_speedup is not None:
        best = max(
            (
                measured.get("speedup_vs_serial", 0.0)
                for by_workers in largest["results"].values()
                for key, measured in by_workers.items()
                # t-keys are the thread tier — gated separately below.
                if not key.startswith("t")
            ),
            default=0.0,
        )
        print(
            f"largest circuit ({largest['circuit']}): best sharding speedup "
            f"{best:.2f}x (target >= {args.min_shard_speedup}x)"
        )
        if best < args.min_shard_speedup:
            return 1
    if args.min_thread_speedup is not None:
        best = max(
            (
                measured.get("speedup_vs_serial", 0.0)
                for key, measured in largest["results"]
                .get("native", {})
                .items()
                if key.startswith("t")
            ),
            default=0.0,
        )
        print(
            f"largest circuit ({largest['circuit']}): best native thread "
            f"speedup {best:.2f}x (target >= {args.min_thread_speedup}x)"
        )
        if best < args.min_thread_speedup:
            return 1
    failed = False
    if not args.smoke and "native_speedup" in largest:
        # The native backend's acceptance bar: at least 6x the python
        # kernel's single-thread throughput on the largest circuit.
        speedup = largest["native_speedup"]
        print(
            f"largest circuit ({largest['circuit']}): "
            f"native speedup {speedup:.2f}x (target >= 6x)"
        )
        failed = failed or speedup < 6.0
    return 1 if failed else 0


# ----------------------------------------------------------------------
# pytest-benchmark harness
# ----------------------------------------------------------------------
if pytest is not None:

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name,length", [("syn298", 64), ("syn641", 48)])
    def test_parallel_fault_throughput(benchmark, name, length, backend):
        circuit = load_circuit(name)
        compiled = CompiledCircuit(circuit)
        universe = FaultUniverse(circuit)
        simulator = FaultSimulator(compiled, backend=backend)
        sequence = _stimulus(circuit, length)
        faults = list(universe.faults())

        result = benchmark.pedantic(
            lambda: simulator.run(sequence, faults), rounds=3, iterations=1
        )
        assert result.total_faults == len(faults)

    def test_single_fault_latency(benchmark):
        """Latency of the Procedure 2 inner operation (one fault, one batch)."""
        circuit = load_circuit("syn298")
        compiled = CompiledCircuit(circuit)
        universe = FaultUniverse(circuit)
        from repro.sim.seqsim import SequenceBatchSimulator

        simulator = SequenceBatchSimulator(compiled, batch_width=32)
        candidates = [_stimulus(circuit, 16) for _ in range(32)]
        fault = universe.fault(0)

        outcomes = benchmark.pedantic(
            lambda: simulator.detects(fault, candidates), rounds=3, iterations=1
        )
        assert len(outcomes) == 32


if __name__ == "__main__":
    sys.exit(main())
