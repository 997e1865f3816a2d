"""Configuration for the ATPG substrate."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.sim.backend import DEFAULT_BACKEND
from repro.sim.scanplan import CHUNKING_MODES, DEFAULT_CHUNKING
from repro.sim.workerpool import PARALLEL_MODES


@dataclass(frozen=True)
class AtpgConfig:
    """Knobs for :func:`repro.atpg.engine.generate_t0`.

    The defaults suit the quick benchmark suite; the full suite and the
    examples tighten or loosen them explicitly.

    Attributes:
        seed: master seed; every phase derives independent substreams.
        random_chunk: vectors appended per random-phase extension attempt.
        random_patience: consecutive unproductive random extensions before
            moving to the greedy phase.
        greedy_candidates: candidate extensions evaluated per greedy step.
        greedy_chunk: vectors per greedy candidate.
        greedy_patience: consecutive unproductive greedy steps before the
            genetic phase.
        max_length: hard cap on ``len(T0)``.
        genetic_targets: max number of hard faults the GA attacks.
        genetic_population: GA population size.
        genetic_generations: GA generations per target fault.
        genetic_sequence_length: GA candidate sequence length.
        run_compaction: run static compaction at the end.
        compaction_method: ``"restoration"`` (vector restoration, the
            reference [12] approach — default), or ``"omission"``
            (try-delete-resimulate; thorough but quadratic).
        compaction_rounds: max full scan rounds of the omission compactor.
        backend: simulation backend name (see
            :func:`repro.sim.backend.available_backends`), or ``"auto"``
            to pick per circuit size and axis (native when its kernel
            builds, else numpy or the big-int python kernel; see
            :func:`repro.sim.backend.resolve_backend_name`).
        workers: worker processes (or thread lanes, under
            ``parallel="threads"``) for distributed fault simulation
            (:mod:`repro.sim.sharding`), borrowing the session's
            persistent worker pool; ``1`` is serial, ``0`` means one per
            CPU.  Never changes results, only throughput.  (The
            restoration compactor's candidate scans stay serial: each
            scan batch holds at most ``search_batch_width`` candidates,
            below the candidate axis's one-pass sharding floor.)
        parallel: work-distribution tier for multi-worker simulation
            (see :data:`repro.sim.workerpool.PARALLEL_MODES`):
            ``"auto"`` / ``"serial"`` / ``"threads"`` /
            ``"processes"``.  Results are bit-identical across tiers.
        chunking: worker-chunk boundary mode for any sharded candidate
            scan (``"cost"`` / ``"count"``, see
            :mod:`repro.sim.scanplan`); forwarded to the restoration
            compactor's sequence simulator.  Pure throughput knob —
            results are bit-identical either way.
    """

    seed: int = 20_1999
    random_chunk: int = 8
    random_patience: int = 6
    greedy_candidates: int = 6
    greedy_chunk: int = 8
    greedy_patience: int = 4
    max_length: int = 1200
    genetic_targets: int = 24
    genetic_population: int = 10
    genetic_generations: int = 12
    genetic_sequence_length: int = 24
    run_compaction: bool = True
    compaction_method: str = "restoration"
    compaction_rounds: int = 2
    backend: str = DEFAULT_BACKEND
    workers: int = 1
    chunking: str = DEFAULT_CHUNKING
    parallel: str = "auto"

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")
        if self.parallel not in PARALLEL_MODES:
            raise ValueError(
                f"parallel must be one of {PARALLEL_MODES}, got "
                f"{self.parallel!r}"
            )
        if self.chunking not in CHUNKING_MODES:
            raise ValueError(
                f"chunking must be one of {CHUNKING_MODES}, got "
                f"{self.chunking!r}"
            )
        if self.max_length < 1:
            raise ValueError("max_length must be positive")
        if self.random_chunk < 1 or self.greedy_chunk < 1:
            raise ValueError("extension chunks must be positive")
        if self.genetic_population < 2:
            raise ValueError("genetic_population must be at least 2")
        if self.compaction_method not in ("restoration", "omission"):
            raise ValueError(
                f"unknown compaction method {self.compaction_method!r}"
            )

    # ------------------------------------------------------------------
    # Round-trips: JSON (the service wire format) and CLI namespaces
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form for the request/result JSON round-trip."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "AtpgConfig":
        """Inverse of :meth:`to_json` (validation re-runs in __post_init__)."""
        return cls(**payload)

    @classmethod
    def from_cli_args(cls, args) -> "AtpgConfig":
        """Build from an argparse namespace carrying the shared CLI flags."""
        return cls(
            seed=getattr(args, "seed", 20_1999),
            max_length=getattr(args, "max_length", 1200),
            backend=args.backend,
            workers=args.workers,
            chunking=args.chunking,
            parallel=getattr(args, "parallel", "auto"),
        )
