"""Throughput benchmark of Procedure 2's candidate-detection pipeline.

Measures **candidates per second** through
:class:`~repro.sim.seqsim.SequenceBatchSimulator` on the two candidate
shapes Procedure 2 produces:

* **window search** — ``expand(T0[u, udet])`` for ``u = udet .. 0``
  (phase 1's ``ustart`` scan);
* **vector omission** — ``expand(T'.omit(i))`` for every position of a
  selected window (phase 2's trials).

Each workload runs on every backend through the candidate pipeline
(descriptor-derived candidates expanded by the native kernel, or packed
by the reference packer on the python engine; rows keep their
historical ``packed-w*`` labels) across a small batch-width axis.  The
``--workers`` axis additionally measures **chunk threads**
(:mod:`repro.sim.workerpool`) as ``packed-w*-p*`` rows: the same
workload through a ``SequenceBatchSimulator(threads=N)``, whose scans
fan their plans out in chunks (the python engine holds the GIL and runs
them serially).  On the small (32-vector omission) workloads every backend is
additionally re-measured serially through the per-step base
:meth:`~repro.sim.backend.SimBackend.run_scan` loop (a bench-local
subclass of the engine, axis suffix ``-stepped``), tracking the
whole-sequence ``run_scan`` kernels' win per backend; when the native
kernel was measured, the standalone runner fails unless at least one
workload shows the fused native scan at >= 1.5x the stepped
throughput.  Detection outcomes are asserted identical across every
measured combination — backends, widths, thread counts
*and* the base loop — so the bench doubles as a parity check.  Every
measurement records its kernel-dispatch counts (``dispatches``: FFI
crossings, scan calls and steps) across the repeats.

Each workload entry also records the session's good-machine trace-cache
counters (``trace_cache``): across all measured points and repeats, the
fault-free trace of the stimulus is simulated exactly once and every
distinct candidate base is packed to bit columns exactly once
(``trace_misses == 1``, ``bits_misses == distinct_bases`` — asserted,
not just reported), demonstrating the once-per-(circuit, sequence)
contract of :mod:`repro.sim.trace`.

Two entry points:

* ``python benchmarks/bench_seqsim.py [--smoke] [--workers N ...]
  [--output FILE]`` — the standalone runner writing machine-readable
  ``BENCH_seqsim.json``.  CI runs the smoke profile with ``--workers 1
  4`` and gates on the committed baseline via
  ``benchmarks/check_bench_regression.py`` (same >30% rule as the
  fault-sim gate).
* ``--min-shard-speedup X`` — fail unless the largest sharding-scale
  workload's best thread speedup reaches ``X`` (opt-in:
  hardware-dependent, like the fault bench's flag — meaningless on
  runners with fewer cores than the measured thread counts).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.circuits.catalog import load_circuit
from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.sim.backend import (
    SimBackend,
    available_backends,
    dispatch_counters,
    get_backend,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.sim.trace import SEQUENCE_CACHE_CAPACITY, get_trace_cache
from repro.util.rng import SplitMix64

from bench_faultsim import machine_block

try:
    import numpy  # noqa: F401  (the packed pipeline's bit-column cache)

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy ships in CI
    _HAVE_NUMPY = False

#: (label, circuit, T0 length, expansion repetitions n, omission window,
#: shape, batch-width override).  T0 lengths grow with the circuit so
#: window searches produce realistically full batches.  The small
#: workloads use the historical 32-vector omission base; the
#: sharding-scale workloads (shape "mixed" with omission window None, or
#: "ramp") span candidate counts well past one batch width, the
#: regime where the candidate axis actually fans out (a scan inside one
#: bit-parallel pass costs ~one longest-candidate run regardless of slot
#: count).  Shape "ramp" drops the omission rounds entirely: a pure
#: window ramp is the workload whose per-candidate cost grows linearly,
#: the most skewed shape chunks see.  The ramp stage pins its batch width
#: (last field) well below the span count, so a few-hundred-span smoke
#: ramp still spans many passes.
_SMOKE_WORKLOADS = [
    ("syn298", "syn298", 48, 2, 32, "mixed", None),
    ("syn641", "syn641", 48, 2, 32, "mixed", None),
    # The sharding-scale smoke stage: ~380-candidate window scans and
    # full-prefix omission rounds — several full passes per scan, the
    # multi-pass regime where the candidate axis scales.
    ("syn1423", "syn1423", 384, 2, None, "mixed", None),
    # Pure window ramps on the same circuit: the linear-cost shape.
    ("syn1423-ramp", "syn1423", 320, 2, None, "ramp", 32),
]
_FULL_WORKLOADS = _SMOKE_WORKLOADS + [
    ("syn5378", "syn5378", 96, 2, 32, "mixed", None),
    # s5378-scale candidate universe (the ROADMAP "larger workloads"
    # data point): the syn1423 multi-pass shape on a 2.8k-gate circuit.
    ("syn5378-xl", "syn5378", 256, 2, None, "mixed", None),
    # 16k gates: the largest catalog circuit, where the native kernel's
    # lead over python on candidate throughput is widest.
    ("syn35932", "syn35932", 24, 2, 32, "mixed", None),
]

#: Batch widths measured per backend: the big-int kernel near its sweet
#: spot, the word-based native C kernel additionally at the wide batches
#: it is for (the ``auto`` SelectionConfig widths are 128/256).
_WIDTH_AXIS = {
    "python": (96,),
    "native": (128, 256),
}

#: Thread counts measured by default: serial plus one threaded point.
#: Threaded points run at each backend's first width.
DEFAULT_WORKER_AXIS = (1, 4)


def _stimulus(circuit, length):
    rng = SplitMix64(3025)
    return TestSequence(
        [
            [rng.next_u64() & 1 for _ in range(circuit.num_inputs)]
            for _ in range(length)
        ]
    )


def _workload_plan(compiled, t0, targets, omit_window, shape):
    """The fixed candidate workload: spans and omission bases per fault.

    ``omit_window`` bounds the omission base (``None`` = the full
    ``T0[0, udet]`` prefix, the sharding-scale shape).  Shape ``"ramp"``
    drops the omission rounds: pure window ramps, the linear-cost shape.
    """
    plan = []
    for fault, udet in targets:
        spans = [(u, udet) for u in range(udet, -1, -1)]
        if shape == "ramp":
            plan.append((fault, spans, None, []))
            continue
        start = 0 if omit_window is None else max(0, udet - omit_window + 1)
        base = t0.subsequence(start, udet)
        omissions = list(range(len(base)))
        plan.append((fault, spans, base, omissions))
    return plan


def _run_plan(simulator, plan, t0, expansion):
    """Drive the full workload once; return (candidates, outcomes)."""
    candidates = 0
    outcomes = []
    for fault, spans, base, omissions in plan:
        outcomes.append(simulator.detects_windows(fault, t0, spans, expansion))
        if base is not None:
            outcomes.append(
                simulator.detects_omissions(fault, base, omissions, expansion)
            )
        candidates += len(spans) + len(omissions)
    return candidates, outcomes


def _measure(
    compiled,
    plan,
    t0,
    expansion,
    backend,
    width,
    workers,
    base_loop=False,
    repeats=3,
):
    """Best-of-N throughput for one measured point.

    ``base_loop=True`` runs the engine's per-step base scan loop (see
    :func:`_base_loop_backend`) instead of its own ``run_scan``.

    The chunk-thread pool starts inside the first repeat, so best-of-N
    reports warm-pool throughput — what sustained Procedure 2 runs see.
    The simulator is built directly, so a single-core runner still
    measures ``workers`` threads; scans below the fan-out floor run
    serially, as they do in real runs.
    """
    engine = _base_loop_backend(compiled, backend) if base_loop else backend
    simulator = SequenceBatchSimulator(
        compiled, batch_width=width, backend=engine, threads=workers
    )
    before = dispatch_counters()
    best = float("inf")
    candidates = 0
    outcomes = None
    for _ in range(repeats):
        start = time.perf_counter()
        candidates, outcomes = _run_plan(simulator, plan, t0, expansion)
        best = min(best, time.perf_counter() - start)
    after = dispatch_counters()
    return {
        "backend": backend,
        "batch_width": width,
        "workers": workers,
        "base_loop": base_loop,
        "seconds": best,
        "candidates": candidates,
        "candidates_per_second": candidates / best if best else 0.0,
        # Kernel-dispatch deltas across all repeats (process-wide, chunk
        # threads included).
        "dispatches": {
            kind: after[kind] - before.get(kind, 0)
            for kind in sorted(after)
            if after[kind] - before.get(kind, 0)
        },
    }, outcomes


def _base_loop_backend(compiled, name):
    """A fresh ``name`` engine whose ``run_scan`` is the base per-step loop."""

    class BaseLoop(type(get_backend(compiled, name))):
        run_scan = SimBackend.run_scan

    return BaseLoop(compiled)


def run_profile(
    smoke: bool,
    targets_per_circuit: int = 2,
    workers_axis: tuple[int, ...] = DEFAULT_WORKER_AXIS,
    progress=print,
) -> dict:
    """Run every workload on every backend x width x workers."""
    workloads = _SMOKE_WORKLOADS if smoke else _FULL_WORKLOADS
    backends = available_backends()
    workers_axis = tuple(dict.fromkeys(workers_axis)) or (1,)
    report = {
        "profile": "smoke" if smoke else "full",
        "benchmark": "seqsim",
        "machine": machine_block(),
        "backends": backends,
        "workers_axis": list(workers_axis),
        "workloads": [],
    }
    for (
        label,
        name,
        t0_len,
        repetitions,
        omit_window,
        shape,
        width_override,
    ) in workloads:
        expansion = ExpansionConfig(repetitions=repetitions)
        compiled = CompiledCircuit(load_circuit(name))
        trace_cache = get_trace_cache(compiled)
        trace_cache.reset_stats()
        universe = FaultUniverse(compiled.circuit)
        t0 = _stimulus(compiled.circuit, t0_len)
        baseline = FaultSimulator(compiled).run(t0, list(universe.faults()))
        detection = baseline.detection_time
        # The hardest detected faults give the longest (most realistic)
        # window searches, mirroring Procedure 1's target order.
        targets = sorted(
            detection.items(), key=lambda item: (-item[1], str(item[0]))
        )[:targets_per_circuit]
        if not targets:
            raise AssertionError(f"{label}: stimulus detects no faults")
        plan = _workload_plan(compiled, t0, targets, omit_window, shape)
        entry = {
            "circuit": label,
            "gates": len(compiled.ops),
            "t0_length": t0_len,
            "repetitions": repetitions,
            "shape": shape,
            # Full-prefix workloads are the sharding-scale shape the
            # --min-shard-speedup gate targets; the 32-vector ones
            # scan near the fan-out floor (honest
            # floors, not gate material).
            "sharding_scale": omit_window is None,
            "target_udets": [udet for _, udet in targets],
            "results": {},
        }
        reference_outcomes = None

        def measure_point(backend, width, workers, base_loop=False):
            nonlocal reference_outcomes
            measured, outcomes = _measure(
                compiled,
                plan,
                t0,
                expansion,
                backend,
                width,
                workers,
                base_loop,
            )
            scan = "stepped" if base_loop else "fused"
            if reference_outcomes is None:
                reference_outcomes = outcomes
            elif outcomes != reference_outcomes:
                raise AssertionError(
                    f"{label}: {backend}/w{width}/p{workers}/{scan} outcomes "
                    "diverge — parity violated"
                )
            axis = f"packed-w{width}"
            if workers != 1:
                axis += f"-p{workers}"
            if base_loop:
                axis += "-stepped"
            entry["results"][backend][axis] = measured
            progress(
                f"[{label}] {backend:>6} width={width:<4}"
                f"p{workers}/{scan} "
                f"{measured['seconds']:.3f}s  "
                f"{measured['candidates_per_second']:.0f} cand/s"
            )
            return measured

        for backend in backends:
            entry["results"][backend] = {}
            widths = (
                (width_override,)
                if width_override
                else _WIDTH_AXIS.get(backend, (96,))
            )
            for width in widths:
                measure_point(backend, width, 1)
            # The thread axis: the backend's first (tuned) width for
            # each non-serial thread count.
            for workers in workers_axis:
                if workers == 1:
                    continue
                measured = measure_point(backend, widths[0], workers)
                serial = entry["results"][backend][f"packed-w{widths[0]}"]
                speedup = serial["seconds"] / measured["seconds"]
                measured["speedup_vs_serial"] = speedup
                progress(
                    f"[{label}] {backend} candidate thread speedup at "
                    f"{workers} threads: {speedup:.2f}x"
                )
            # The fused-vs-stepped scan axis, on the small (32-vector
            # omission) workloads: the serial point re-measured through
            # the per-step base scan loop, so the whole-sequence
            # kernels' win — and their bit-identical outcomes, asserted
            # above — are tracked per backend.  The sharding-scale
            # workloads skip it: stepped scans there would multiply
            # bench time for no extra signal.
            if omit_window is not None:
                fused = entry["results"][backend][f"packed-w{widths[0]}"]
                stepped = measure_point(backend, widths[0], 1, base_loop=True)
                if stepped["candidates_per_second"]:
                    speedup = (
                        fused["candidates_per_second"]
                        / stepped["candidates_per_second"]
                    )
                    entry[f"{backend}_fused_scan_speedup"] = speedup
                    progress(
                        f"[{label}] {backend} fused-vs-stepped scan "
                        f"speedup: {speedup:.2f}x"
                    )
        distinct_bases = {t0}
        for _fault, _spans, base, _omissions in plan:
            if base is not None:
                distinct_bases.add(base)
        stats = trace_cache.stats()
        entry["trace_cache"] = dict(stats, distinct_bases=len(distinct_bases))
        progress(
            f"[{label}] trace cache: {stats['trace_misses']} good-machine "
            f"sim(s), {stats['bits_misses']} base packing(s) for "
            f"{len(distinct_bases)} distinct base(s) across all points "
            f"({stats['trace_hits']} trace hits, {stats['bits_hits']} "
            "bits hits)"
        )
        # The once-per-(circuit, sequence) contract, enforced: across
        # every backend/width/workers point and every
        # repeat, the stimulus trace was simulated exactly once...
        if stats["trace_misses"] != 1:
            raise AssertionError(
                f"{label}: expected exactly 1 good-machine simulation, "
                f"recorded {stats['trace_misses']}"
            )
        # ...and (with numpy available, while the distinct bases fit the
        # cache) every base was packed exactly once.
        if (
            _HAVE_NUMPY
            and len(distinct_bases) < SEQUENCE_CACHE_CAPACITY
            and stats["bits_misses"] != len(distinct_bases)
        ):
            raise AssertionError(
                f"{label}: expected {len(distinct_bases)} base packings, "
                f"recorded {stats['bits_misses']}"
            )
        report["workloads"].append(entry)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Procedure-2 candidate-detection throughput benchmark"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small circuits only (CI regression signal)",
    )
    parser.add_argument(
        "--targets",
        type=int,
        default=2,
        help="target faults per circuit (default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(DEFAULT_WORKER_AXIS),
        help=(
            "thread counts to measure (default: %(default)s); 1 is the "
            "serial engine, larger values measure chunk threads"
        ),
    )
    parser.add_argument(
        "--output",
        default="BENCH_seqsim.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=None,
        help=(
            "fail unless the largest sharding-scale workload's best "
            "speedup over serial on the --workers axis reaches this "
            "factor (opt-in: speedup is hardware-dependent, so only gate "
            "on machines with enough cores for the measured thread "
            "counts)"
        ),
    )
    args = parser.parse_args(argv)
    report = run_profile(
        smoke=args.smoke,
        targets_per_circuit=args.targets,
        workers_axis=tuple(args.workers),
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {args.output}")
    failed = False
    if "native" in report["backends"]:
        # The fused-scan acceptance bar, asserted in-bench whenever the
        # native kernel was measured: at least one workload must show
        # the whole-sequence native scan >= 1.5x the per-step reference.
        best = max(
            (
                workload.get("native_fused_scan_speedup", 0.0)
                for workload in report["workloads"]
            ),
            default=0.0,
        )
        ok = best >= 1.5
        failed = failed or not ok
        print(
            f"native fused-vs-stepped scan speedup: best {best:.2f}x "
            f"(target >= 1.5x) {'ok' if ok else 'FAIL'}"
        )
    if args.min_shard_speedup is not None:
        # Gate on the largest sharding-scale workload (syn1423 in smoke,
        # syn5378-xl in full) — the 32-vector workloads' scans sit near
        # the fan-out floor and would report floors, not scaling.
        scaled = [w for w in report["workloads"] if w.get("sharding_scale")]
        largest = (scaled or report["workloads"])[-1]
        best = max(
            (
                measured.get("speedup_vs_serial", 0.0)
                for by_axis in largest["results"].values()
                for measured in by_axis.values()
            ),
            default=0.0,
        )
        ok = best >= args.min_shard_speedup
        failed = failed or not ok
        print(
            f"sharding-scale workload ({largest['circuit']}): best candidate "
            f"thread speedup {best:.2f}x (target >= "
            f"{args.min_shard_speedup}x) {'ok' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
