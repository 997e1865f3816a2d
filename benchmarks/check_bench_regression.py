"""CI gate: compare a fresh benchmark report against a committed baseline.

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_faultsim.json \
        --candidate BENCH_faultsim.fresh.json \
        [--tolerance 0.30]

Works on any report following the shared benchmark JSON shape
(``workloads[] -> results[backend][axis] -> measurement``): both
``bench_faultsim.py`` (throughput key ``gate_evals_per_second``, axis =
worker count; its ``good-trace`` axis carries ``vectors_per_second``)
and ``bench_seqsim.py`` (throughput key ``candidates_per_second``, axis
= pipeline/batch-width label).  Compares
only the **workloads (circuits) present in both reports**: within a
shared workload it walks every ``(backend, axis)`` measurement present
on both sides and fails (exit 1) when the candidate's throughput drops
more than ``tolerance`` below the baseline's.  Faster-than-baseline
results always pass — the gate guards against regressions, not
improvements.

Baselines are machine-relative: both reports carry a ``machine`` block
(CPU count, Python version, platform), which is printed side by side so a
failure on an unusually slow runner is easy to recognize.  Workloads or
measurements present in only one report (a new circuit, a new worker
count, a smoke run against a full baseline) are reported but never fail
the gate, so extending or subsetting the benchmark does not require
regenerating the baseline in the same commit; only a *zero-workload*
overlap — wrong report pairing — fails loudly.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Fail when candidate throughput is below baseline * (1 - TOLERANCE).
DEFAULT_TOLERANCE = 0.30

#: Throughput keys, by report flavor (fault-sim, seqsim, fault-free
#: trace).  A measurement carries exactly one of these.
_RATE_KEYS = (
    "gate_evals_per_second",
    "candidates_per_second",
    "vectors_per_second",
)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _rate(measured: dict) -> float | None:
    """The measurement's throughput, or ``None`` when it carries none.

    ``None`` (e.g. an annotation-only entry written by an older or newer
    bench than this checker knows) is skipped with a note by the
    comparison rather than crashing the gate: baseline files that
    predate a newly added backend or measurement shape must degrade to
    "not gated", never to a KeyError.
    """
    for key in _RATE_KEYS:
        if key in measured:
            return measured[key]
    return None


def _measurements(report: dict) -> dict[tuple[str, str, str], dict]:
    """Flatten a report into {(circuit, backend, axis): measurement}."""
    flat: dict[tuple[str, str, str], dict] = {}
    for workload in report.get("workloads", []):
        circuit = workload["circuit"]
        for backend, by_axis in workload.get("results", {}).items():
            # Pre-workers-axis reports stored one measurement per backend.
            if any(key in by_axis for key in _RATE_KEYS):
                by_axis = {"1": by_axis}
            for axis, measured in by_axis.items():
                flat[(circuit, backend, axis)] = measured
    return flat


def _describe_machine(label: str, report: dict) -> str:
    machine = report.get("machine", {})
    return (
        f"{label}: cpu_count={machine.get('cpu_count', '?')} "
        f"python={machine.get('python_version', '?')} "
        f"platform={machine.get('platform', '?')}"
    )


def compare(
    baseline: dict, candidate: dict, tolerance: float, progress=print
) -> list[tuple[str, str, str]]:
    """Print a comparison table; return the regressed (c, b, w) keys.

    Only workloads (circuits) present in both reports are compared; a
    workload on one side only is announced and skipped wholesale, so a
    smoke candidate gates cleanly against a full baseline (and vice
    versa).
    """
    base = _measurements(baseline)
    cand = _measurements(candidate)
    shared = {key[0] for key in base} & {key[0] for key in cand}
    for circuit in sorted({key[0] for key in base} - shared):
        progress(f"workload {circuit}: only in baseline (skipped)")
    for circuit in sorted({key[0] for key in cand} - shared):
        progress(f"workload {circuit}: only in candidate (skipped)")
    base = {key: value for key, value in base.items() if key[0] in shared}
    cand = {key: value for key, value in cand.items() if key[0] in shared}
    progress(_describe_machine("baseline ", baseline))
    progress(_describe_machine("candidate", candidate))
    progress(
        f"{'circuit':>10} {'backend':>7} {'axis':>12} {'baseline':>12} "
        f"{'candidate':>12} {'ratio':>6}  status"
    )
    regressions: list[tuple[str, str, str]] = []
    for key in sorted(base):
        circuit, backend, axis = key
        base_rate = _rate(base[key])
        if base_rate is None:
            progress(
                f"{circuit:>10} {backend:>7} {axis:>12} {'—':>12} "
                f"{'—':>12} {'—':>6}  no throughput key in baseline (skipped)"
            )
            continue
        if key not in cand:
            progress(
                f"{circuit:>10} {backend:>7} {axis:>12} "
                f"{base_rate:>12.3g} {'—':>12} {'—':>6}  "
                "missing from candidate (skipped)"
            )
            continue
        cand_rate = _rate(cand[key])
        if cand_rate is None:
            progress(
                f"{circuit:>10} {backend:>7} {axis:>12} "
                f"{base_rate:>12.3g} {'—':>12} {'—':>6}  "
                "no throughput key in candidate (skipped)"
            )
            continue
        ratio = cand_rate / base_rate if base_rate else float("inf")
        regressed = ratio < (1.0 - tolerance)
        status = "REGRESSED" if regressed else "ok"
        progress(
            f"{circuit:>10} {backend:>7} {axis:>12} "
            f"{base_rate:>12.3g} {cand_rate:>12.3g} "
            f"{ratio:>5.2f}x  {status}"
        )
        if regressed:
            regressions.append(key)
    for key in sorted(set(cand) - set(base)):
        circuit, backend, axis = key
        cand_rate = _rate(cand[key])
        rate_text = "—" if cand_rate is None else f"{cand_rate:.3g}"
        progress(
            f"{circuit:>10} {backend:>7} {axis:>12} {'—':>12} "
            f"{rate_text:>12} {'—':>6}  "
            "new measurement (not gated)"
        )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmark throughput regresses vs a baseline"
    )
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--candidate", required=True, help="freshly measured JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional throughput drop (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")
    baseline = _load(args.baseline)
    candidate = _load(args.candidate)
    base_workloads = {key[0] for key in _measurements(baseline)}
    cand_workloads = {key[0] for key in _measurements(candidate)}
    if not base_workloads & cand_workloads:
        # A gate that compares nothing passes nothing: mismatched report
        # flavors or renamed circuits must fail loudly, not exit 0.
        print(
            "FAIL: baseline and candidate share no workloads — "
            "wrong report pairing or renamed circuits?"
        )
        return 1
    regressions = compare(baseline, candidate, args.tolerance)
    if regressions:
        print(
            f"FAIL: {len(regressions)} measurement(s) regressed more than "
            f"{args.tolerance:.0%} vs {args.baseline}: "
            + ", ".join("/".join(key) for key in regressions)
        )
        return 1
    print(f"OK: no throughput regression beyond {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
