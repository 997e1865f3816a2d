"""Configuration for the ATPG substrate."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.sim.backend import DEFAULT_BACKEND, check_backend_name
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
        run_compaction: run vector-restoration static compaction (the
            reference [12] approach) at the end.
        backend: simulation backend name (``"python"`` or ``"native"``,
            see :func:`repro.sim.backend.registry_backends`), or
            ``"auto"`` to pick per circuit size and axis (native when its
            kernel builds, else the big-int python kernel; see
            :func:`repro.sim.backend.resolve_backend_name`).
        workers: chunk threads for fault simulation and the
            restoration compactor's window searches
            (:mod:`repro.sim.workerpool`); ``1`` is serial, ``0`` means
            one per CPU.  Never changes results, only throughput.
        parallel: work-distribution tier for multi-thread simulation
            (see :data:`repro.sim.workerpool.PARALLEL_MODES`):
            ``"auto"`` / ``"serial"`` / ``"threads"``.  Results are
            bit-identical across tiers.
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
    backend: str = DEFAULT_BACKEND
    workers: int = 1
    parallel: str = "auto"

    def __post_init__(self) -> None:
        check_backend_name(self.backend)
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")
        if self.parallel not in PARALLEL_MODES:
            raise ValueError(
                f"parallel must be one of {PARALLEL_MODES}, got "
                f"{self.parallel!r}"
            )
        if self.max_length < 1:
            raise ValueError("max_length must be positive")
        if self.random_chunk < 1 or self.greedy_chunk < 1:
            raise ValueError("extension chunks must be positive")
        if self.genetic_population < 2:
            raise ValueError("genetic_population must be at least 2")

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
            parallel=getattr(args, "parallel", "auto"),
        )
