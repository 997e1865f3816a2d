"""cProfile warm ops of an end-to-end benchmark workload.

Run from the root of a source checkout::

    PYTHONPATH=src python benchmarks/profile_ops.py --workload session-scheme --ops 6

It runs the workload's ops exactly as ``e2ebench/run.py`` times them:
the op list of ``e2ebench/workloads.py`` and the runner of
``e2ebench/worker.py`` (both imported read-only), which warms its
session up with the benchmark's warm-up op and checks every op against
``e2ebench/expected.json`` and the declared execution (native kernel,
serial).  Only the op itself is profiled; building its input and
checking its output run with the profiler off.  It prints the total
function calls, the top rows by self time and, per op, the native
kernel's call counters (scan calls, kernel calls, program compiles),
the genetic phase's counters (populations and candidates scored) and
the scans' evaluated-op counters (the faulty machines' ops as a share
of the good machine's, per axis), and fails if any op failed its check.
Two checkouts that do the same kernel and GA work print the same
counters, so a change that only trims set-up shows up as time alone.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "e2ebench"))

import worker  # noqa: E402
import workloads  # noqa: E402


#: The scan axes whose ``{axis}_faulty_ops`` / ``{axis}_good_ops``
#: dispatch counters the native kernel reports.
AXES = ("fault_axis", "candidate_axis")

#: Dispatch counters of the work handed to the kernel, printed per op.
CALL_COUNTERS = ("scan_calls", "scan_steps", "native_ffi_calls", "program_compiles")

#: Dispatch counters of the genetic phase's work, printed per op.
GA_COUNTERS = ("ga_generations", "ga_candidates")


def profile_ops(
    workload: str, ops: int, seed: int
) -> tuple[pstats.Stats, list[str], dict[str, int]]:
    """Profile ``ops`` warm ops; return the stats, any check failures and
    the dispatch counters the ops added."""
    from repro.sim.backend import dispatch_counters

    runner = worker.RUNNERS[workload]()
    op_list = workloads.op_list(workload, seed, workloads.load_expected(), ops)
    profiler = cProfile.Profile()
    failures = []
    counters: dict[str, int] = {}
    try:
        for op in op_list:
            inputs = runner.prepare(op)
            before = dispatch_counters()
            profiler.enable()
            try:
                output = runner.execute(inputs)
            finally:
                profiler.disable()
            after = dispatch_counters()
            for kind, value in after.items():
                counters[kind] = counters.get(kind, 0) + value - before.get(kind, 0)
            problem = runner.check(op, output)
            if problem is not None:
                failures.append(f"op {op.index} ({op.key}): {problem}")
    finally:
        runner.close()
    return pstats.Stats(profiler), failures, counters


def scan_op_lines(counters: dict[str, int], ops: int) -> list[str]:
    """Per-op kernel call and GA counters, then the evaluated-op
    counters of each scan axis."""
    lines = [
        "per op: "
        + ", ".join(f"{counters.get(kind, 0) / ops:,.1f} {kind}" for kind in kinds)
        for kinds in (CALL_COUNTERS, GA_COUNTERS)
    ]
    for axis in AXES:
        faulty = counters.get(f"{axis}_faulty_ops", 0)
        good = counters.get(f"{axis}_good_ops", 0)
        share = f"{faulty / good:.1%}" if good else "n/a"
        lines.append(
            f"{axis}: {faulty / ops:,.0f} faulty ops/op, {good / ops:,.0f} good "
            f"ops/op (faulty ops evaluated per scan step: {share} of the op list)"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(worker.RUNNERS), required=True)
    parser.add_argument("--ops", type=int, default=6, help="warm ops to profile")
    parser.add_argument("--seed", type=int, default=1, help="workload op-list seed")
    parser.add_argument("--top", type=int, default=25, help="self-time rows shown")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be >= 1")
    stats, failures, counters = profile_ops(args.workload, args.ops, args.seed)
    out = io.StringIO()
    stats.stream = out
    stats.sort_stats("tottime").print_stats(args.top)
    print(
        f"{args.workload}: {args.ops} warm ops, {stats.total_calls} calls "
        f"({stats.prim_calls} primitive) in {stats.total_tt:.3f} s"
    )
    for line in scan_op_lines(counters, args.ops):
        print(line)
    print(out.getvalue())
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
