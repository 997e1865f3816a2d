"""Command line interface: ``repro-bist`` / ``python -m repro``.

Subcommands:

* ``info`` — list available circuits and their statistics.
* ``atpg`` — generate a test sequence ``T0`` for a circuit.
* ``run`` — run the load-and-expand scheme on one circuit.
* ``tables`` — regenerate the paper's Tables 3-5 for a suite.
* ``figure1`` — regenerate Figure 1 for one circuit.
* ``calibrate`` — measure this machine and persist an autotuning profile.
* ``serve`` — run the BIST-as-a-service HTTP front end.

Execution subcommands (``atpg``, ``run``, ``figure1``) all build the
same :class:`~repro.core.request.RunRequest` the HTTP service accepts
and execute it through one :class:`repro.Session` — the CLI is just
another client of the unified request/result API, so ``--json`` output
here is byte-for-byte the ``result`` payload a served job returns.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.atpg.config import AtpgConfig
from repro.circuit.analysis import circuit_stats
from repro.circuits.catalog import available_circuits, load_circuit
from repro.core.config import SelectionConfig
from repro.core.request import RunRequest
from repro.core.session import Session
from repro.harness.figures import render_figure1
from repro.harness.runner import run_suite
from repro.sim.autotune import load_profile
from repro.sim.backend import (
    AUTO_BACKEND,
    DEFAULT_BACKEND,
    backend_unavailable_reason,
    registry_backends,
)
from repro.sim.workerpool import PARALLEL_MODES
from repro.util.text import format_table


def _session_for(args: argparse.Namespace) -> Session:
    """The session an execution subcommand runs under.

    ``--profile`` attaches the persisted machine profile (optionally
    from an explicit path) so calibration overrides the static worker
    thresholds; without the flag the session is profile-free and
    behaves exactly like the historical static code paths.
    """
    profile = None
    if getattr(args, "profile", None) is not None:
        profile = load_profile(args.profile or None)
        if profile is None:
            print("no machine profile found; run `repro-bist calibrate` first")
    return Session(profile=profile)


def _cmd_info(args: argparse.Namespace) -> int:
    rows = []
    for name in available_circuits():
        stats = circuit_stats(load_circuit(name))
        rows.append(
            [
                name,
                stats.num_inputs,
                stats.num_outputs,
                stats.num_flops,
                stats.num_gates,
                stats.depth,
            ]
        )
    print(
        format_table(
            ["circuit", "inputs", "outputs", "flops", "gates", "depth"],
            rows,
            title="Available circuits",
        )
    )
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    request = RunRequest(
        kind="atpg",
        circuit=args.circuit,
        atpg=AtpgConfig.from_cli_args(args),
    )
    with _session_for(args) as session:
        outcome = session.run_detailed(request)
    if args.json:
        print(json.dumps(outcome.result.to_json(), indent=2, sort_keys=True))
        return 0
    result = outcome.atpg
    print(
        f"{result.circuit_name}: {result.detected}/{result.total_faults} faults "
        f"({result.coverage:.1%}), length {result.length}"
    )
    for line in result.phase_log:
        print("  " + line)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for row in result.sequence.to_strings():
                handle.write(row + "\n")
        print(f"T0 written to {args.output}")
    return 0


def _scheme_request(args: argparse.Namespace) -> RunRequest:
    """The one flag-to-request path ``run`` and ``figure1`` share."""
    return RunRequest(
        kind="scheme",
        circuit=args.circuit,
        selection=SelectionConfig.from_cli_args(args),
        atpg=AtpgConfig.from_cli_args(args),
        use_paper_t0=not args.atpg_t0,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    with _session_for(args) as session:
        outcome = session.run_detailed(_scheme_request(args))
    if args.json:
        print(json.dumps(outcome.result.to_json(), indent=2, sort_keys=True))
        return 0
    run = outcome.scheme_run
    result = run.result
    print(
        f"{result.circuit_name} n={result.repetitions}: "
        f"T0 len {result.t0_length}, faults {result.detected_by_t0}/"
        f"{result.total_faults} detected by T0"
    )
    print(
        f"  before compaction: |S|={result.num_sequences_before} "
        f"tot={result.total_length_before} max={result.max_length_before}"
    )
    print(
        f"  after  compaction: |S|={result.num_sequences_after} "
        f"tot={result.total_length_after} max={result.max_length_after}"
    )
    print(
        f"  ratios: tot/len={result.total_ratio:.2f} max/len={result.max_ratio:.2f}; "
        f"applied at-speed vectors: {result.applied_test_length}"
    )
    print(f"  coverage preserved: {result.coverage_preserved}")
    if args.figure:
        print()
        print(render_figure1(run))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    n_values = tuple(args.n) if args.n else None
    result = run_suite(
        args.suite,
        n_values=n_values,
        progress=print,
        backend=args.backend,
        workers=args.workers,
        parallel=args.parallel,
    )
    print()
    print(result.tables())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import write_experiments_report

    result = run_suite(
        args.suite,
        progress=print,
        backend=args.backend,
        workers=args.workers,
        parallel=args.parallel,
    )
    write_experiments_report(result, args.output)
    print(f"report written to {args.output}")
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    with _session_for(args) as session:
        outcome = session.run_detailed(_scheme_request(args))
    print(render_figure1(outcome.scheme_run))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.sim.autotune import calibrate

    profile = calibrate(quick=not args.full)
    print(json.dumps(profile.to_json(), indent=2, sort_keys=True))
    for note in profile.notes:
        print(f"  note: {note}")
    if not args.no_save:
        path = profile.save(args.output or None)
        print(f"profile saved to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import HttpFrontend, JobService

    async def main() -> None:
        service = JobService(
            autotune=not args.no_autotune,
            quick_calibration=not args.full_calibration,
            lanes=args.lanes,
        )
        async with service:
            profile = service.profile
            if profile is not None:
                print(
                    f"machine profile: {profile.source} "
                    f"(workers={profile.workers}, backend={profile.backend})"
                )
            async with HttpFrontend(service, args.host, args.port) as http:
                print(f"serving on {http.address} (lanes={service.lanes})")
                try:
                    await asyncio.Event().wait()  # until interrupted
                except asyncio.CancelledError:
                    pass

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bist",
        description=(
            "Reproduction of Pomeranz & Reddy (DAC 1999): built-in test "
            "sequence generation by loading and expansion of test subsequences"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--backend",
            choices=registry_backends() + [AUTO_BACKEND],
            default=DEFAULT_BACKEND,
            help=(
                "simulation backend (results are identical across "
                "backends; 'python' is the dependency-free big-int "
                "kernel, 'native' the compiled C kernel — fastest "
                "everywhere but toy-sized circuits when a C compiler is "
                "present; 'auto' picks native or python per circuit "
                "size and batch width)"
            ),
        )
        command.add_argument(
            "--workers",
            type=int,
            default=1,
            help=(
                "worker processes for process-sharded simulation on both "
                "hot axes: parallel-fault simulation and Procedure 2's "
                "candidate detection (1 = serial, 0 = one per CPU; both "
                "axes share one persistent pool, results are identical "
                "for any worker count, and small fault universes or "
                "candidate sets always run serially)"
            ),
        )
        command.add_argument(
            "--parallel",
            choices=list(PARALLEL_MODES),
            default="auto",
            help=(
                "work-distribution tier for --workers > 1: 'threads' "
                "splits each native-kernel batch across in-process "
                "thread lanes, 'processes' uses the shard worker pool, "
                "'serial' forces one lane, and 'auto' (default) takes "
                "the tier a calibrated machine profile measured, else "
                "'processes'; one usable core runs serially; results "
                "are identical across tiers"
            ),
        )
        command.add_argument(
            "--profile",
            nargs="?",
            const="",
            default=None,
            metavar="PATH",
            help=(
                "resolve worker counts through the persisted machine "
                "profile (see `calibrate`); optional PATH overrides the "
                "default profile location"
            ),
        )

    sub.add_parser("info", help="list available circuits").set_defaults(
        func=_cmd_info
    )

    atpg = sub.add_parser("atpg", help="generate a test sequence T0")
    atpg.add_argument("--circuit", required=True)
    atpg.add_argument("--seed", type=int, default=20_1999)
    atpg.add_argument("--max-length", type=int, default=600)
    atpg.add_argument("--output", help="write T0 vectors to a file")
    atpg.add_argument(
        "--json",
        action="store_true",
        help="print the RunResult JSON (the serving wire format)",
    )
    add_backend_flag(atpg)
    atpg.set_defaults(func=_cmd_atpg)

    run = sub.add_parser("run", help="run the load-and-expand scheme")
    run.add_argument("--circuit", required=True)
    run.add_argument("--n", type=int, default=4, help="repetition count n")
    run.add_argument("--seed", type=int, default=1999)
    run.add_argument("--max-length", type=int, default=600)
    run.add_argument(
        "--atpg-t0",
        action="store_true",
        help="use ATPG-generated T0 even for s27 (default: paper's T0)",
    )
    run.add_argument("--figure", action="store_true", help="print Figure 1")
    run.add_argument(
        "--json",
        action="store_true",
        help="print the RunResult JSON (the serving wire format)",
    )
    add_backend_flag(run)
    run.set_defaults(func=_cmd_run)

    tables = sub.add_parser("tables", help="regenerate Tables 3-5 for a suite")
    tables.add_argument(
        "--suite", choices=["quick", "standard", "full"], default=None
    )
    tables.add_argument(
        "--n", type=int, nargs="*", help="override the repetition sweep"
    )
    add_backend_flag(tables)
    tables.set_defaults(func=_cmd_tables)

    figure = sub.add_parser("figure1", help="regenerate Figure 1")
    figure.add_argument("--circuit", required=True)
    figure.add_argument("--n", type=int, default=4)
    figure.add_argument("--seed", type=int, default=1999)
    figure.add_argument("--max-length", type=int, default=600)
    figure.add_argument("--atpg-t0", action="store_true")
    add_backend_flag(figure)
    figure.set_defaults(func=_cmd_figure1)

    report = sub.add_parser(
        "report", help="run a suite and write the EXPERIMENTS.md report"
    )
    report.add_argument(
        "--suite", choices=["quick", "standard", "full"], default=None
    )
    report.add_argument("--output", default="EXPERIMENTS.md")
    add_backend_flag(report)
    report.set_defaults(func=_cmd_report)

    calibrate = sub.add_parser(
        "calibrate",
        help="measure serial-vs-sharded crossovers and persist the profile",
    )
    calibrate.add_argument(
        "--full",
        action="store_true",
        help="calibrate on a larger circuit and stimulus (slower, finer)",
    )
    calibrate.add_argument(
        "--output", help="profile path (default: REPRO_PROFILE or ~/.cache)"
    )
    calibrate.add_argument(
        "--no-save", action="store_true", help="measure and print only"
    )
    calibrate.set_defaults(func=_cmd_calibrate)

    serve = sub.add_parser(
        "serve", help="run the BIST-as-a-service HTTP front end"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8199)
    serve.add_argument(
        "--no-autotune",
        action="store_true",
        help="skip profile load/calibration; use static defaults",
    )
    serve.add_argument(
        "--full-calibration",
        action="store_true",
        help="use the full (slow) calibration when measuring at startup",
    )
    serve.add_argument(
        "--lanes",
        type=int,
        default=1,
        help=(
            "concurrent executor lanes over the warm session; beyond 1, "
            "jobs are planned onto the thread tier or serial (never the "
            "shared process pool)"
        ),
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Registered-but-unusable backends (e.g. 'native' without a C
    # compiler, or hidden via REPRO_NO_NATIVE) are valid argparse choices
    # so the reason reaches the user instead of a bare "invalid choice".
    name = getattr(args, "backend", None)
    if name is not None and name != AUTO_BACKEND:
        reason = backend_unavailable_reason(name)
        if reason is not None:
            parser.error(f"--backend {name}: {reason}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
