"""Configuration records for the selection procedures."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.ops import ExpansionConfig
from repro.sim.backend import AUTO_BACKEND, DEFAULT_BACKEND, check_backend_name
from repro.sim.workerpool import PARALLEL_MODES

#: Batch widths (search, omission, fault).  The big-int kernel peaks near
#: a couple hundred slots, and explicit backend names get its widths.
#: ``"auto"`` gets the wide ones; they act as caps that each simulator
#: clamps back down when it resolves python.  Widths never change
#: results (batching is order-preserving), only speed.
_PYTHON_BATCH_WIDTHS = (32, 96, 192)
_AUTO_BATCH_WIDTHS = (128, 256, 1024)


@dataclass(frozen=True)
class SelectionConfig:
    """Parameters of Procedures 1 and 2 and their simulation batching.

    Attributes:
        expansion: the expansion function parameters (the paper's ``n``
            and the operator set).
        seed: master seed for the random omission order of Procedure 2.
            Every fault gets an independent deterministic substream, so
            results do not depend on the order faults are processed in.
        search_batch_width: how many ``ustart`` candidates Procedure 2
            simulates per bit-parallel pass.
        omission_batch_width: how many single-vector omissions Procedure 2
            simulates per bit-parallel pass.
        fault_batch_width: slots per pass in parallel-fault simulations.
        skip_omission: disable the vector-omission phase of Procedure 2
            (ablation switch; the paper always runs it).
        backend: simulation backend name (``"python"`` or ``"native"``,
            see :func:`repro.sim.backend.registry_backends`), or
            ``"auto"`` to pick python or native per circuit size and axis
            (see :func:`repro.sim.backend.resolve_backend_name`);
            detection results are bit-identical across backends, only
            speed differs.
        workers: chunk threads for *both* hot axes — parallel-fault
            simulation and Procedure 2's candidate detection — which
            share one process-global thread pool
            (:mod:`repro.sim.workerpool`).  ``1`` is serial, ``0`` means
            one per CPU.  Like backends and batch widths, thread counts
            never change results, only throughput (small dispatches
            always run serially).
        parallel: work-distribution tier for multi-thread simulation
            (see :data:`repro.sim.workerpool.PARALLEL_MODES`) —
            ``"auto"`` (default:
            :func:`repro.sim.workerpool.resolve_execution` decides),
            ``"serial"`` or ``"threads"`` (chunk threads over
            GIL-released native kernel calls).  Results are
            bit-identical across tiers.
    """

    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    seed: int = 1999
    search_batch_width: int = 32
    omission_batch_width: int = 96
    fault_batch_width: int = 192
    skip_omission: bool = False
    backend: str = DEFAULT_BACKEND
    workers: int = 1
    parallel: str = "auto"

    def __post_init__(self) -> None:
        check_backend_name(self.backend)
        if self.parallel not in PARALLEL_MODES:
            raise ValueError(
                f"parallel must be one of {PARALLEL_MODES}, got "
                f"{self.parallel!r}"
            )
        if self.search_batch_width < 1:
            raise ValueError("search_batch_width must be >= 1")
        if self.omission_batch_width < 1:
            raise ValueError("omission_batch_width must be >= 1")
        if self.fault_batch_width < 1:
            raise ValueError("fault_batch_width must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")

    @classmethod
    def for_backend(
        cls,
        backend: str,
        expansion: ExpansionConfig | None = None,
        seed: int = 1999,
        skip_omission: bool = False,
        workers: int = 1,
        parallel: str = "auto",
    ) -> "SelectionConfig":
        """A config with batch widths tuned to ``backend``.

        Detection results are identical for any widths; this only picks
        the throughput sweet spot.  Explicit backends (``python`` and
        ``native``) get the big-int kernel's widths.  For
        ``backend="auto"`` the widths are 128/256/1024 and act as
        *caps*: each simulator resolves python or native from its
        circuit and axis, and clamps the width back to the big-int sweet
        spot whenever python wins (see
        :func:`repro.sim.backend.resolve_auto`).
        """
        search, omission, fault = (
            _AUTO_BATCH_WIDTHS if backend == AUTO_BACKEND else _PYTHON_BATCH_WIDTHS
        )
        return cls(
            expansion=expansion or ExpansionConfig(),
            seed=seed,
            search_batch_width=search,
            omission_batch_width=omission,
            fault_batch_width=fault,
            skip_omission=skip_omission,
            backend=backend,
            workers=workers,
            parallel=parallel,
        )

    def with_repetitions(self, repetitions: int) -> "SelectionConfig":
        """A copy with a different expansion repetition count ``n``."""
        expansion = ExpansionConfig(
            repetitions=repetitions,
            use_complement=self.expansion.use_complement,
            use_shift=self.expansion.use_shift,
            use_reverse=self.expansion.use_reverse,
        )
        return dataclasses.replace(self, expansion=expansion)

    # ------------------------------------------------------------------
    # Round-trips: JSON (the service wire format) and CLI namespaces
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form; nested :class:`ExpansionConfig` nests as a dict."""
        payload = dataclasses.asdict(self)
        payload["expansion"] = self.expansion.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "SelectionConfig":
        """Inverse of :meth:`to_json` (validation re-runs in __post_init__)."""
        data = dict(payload)
        expansion = data.pop("expansion", None)
        if expansion is not None and not isinstance(expansion, ExpansionConfig):
            expansion = ExpansionConfig.from_json(expansion)
        return cls(expansion=expansion or ExpansionConfig(), **data)

    @classmethod
    def from_cli_args(cls, args) -> "SelectionConfig":
        """Build from an argparse namespace carrying the shared CLI flags.

        Reads ``backend`` / ``workers`` / ``parallel`` / ``seed`` and the
        optional ``n`` (expansion repetitions); widths come from
        :meth:`for_backend`'s per-engine tuning.  This is the single
        flag-to-config path every CLI subcommand shares.
        """
        expansion = None
        n = getattr(args, "n", None)
        if n is not None:
            expansion = ExpansionConfig(repetitions=n)
        return cls.for_backend(
            args.backend,
            expansion=expansion,
            seed=getattr(args, "seed", 1999),
            workers=args.workers,
            parallel=getattr(args, "parallel", "auto"),
        )
