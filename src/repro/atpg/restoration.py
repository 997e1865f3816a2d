"""Vector-restoration static compaction (reference [12] substitute).

The algorithm of Pomeranz & Reddy's ICCD'97 compaction paper, as the DAC'99
paper uses it for ``T0``:

1. Fault-simulate ``T0``; record ``udet(f)`` for every detected fault.
2. Start from an *empty* set of kept vector positions.
3. Repeatedly take the undetected-by-kept fault ``f`` with the highest
   ``udet``; *restore* the contiguous window ``T0[j .. udet(f)]`` for the
   largest ``j`` such that the kept vectors (in original order) detect
   ``f``.  The window search is one first-hit scan over a
   :class:`~repro.sim.scanplan.WindowRampPlan` that carries the kept
   positions, run by the same executor as Procedure 2's ``ustart``
   search (identity expansion; serial, threaded or sharded alike).
4. Fault-simulate the kept vectors against all still-uncovered faults and
   drop everything detected; loop until all faults are covered.

The result is ``T0`` restricted to the kept positions — never longer, and
by construction it detects every fault ``T0`` detects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ops import IDENTITY_EXPANSION
from repro.core.sequence import TestSequence
from repro.core.session import Session, use_session
from repro.errors import AtpgError
from repro.faults.model import Fault
from repro.sim.compiled import CompiledCircuit
from repro.sim.scanplan import WindowRampPlan


@dataclass(frozen=True)
class RestorationStats:
    """Diagnostics of one restoration-compaction run."""

    original_length: int
    final_length: int
    restoration_events: int
    window_candidates: int

    @property
    def ratio(self) -> float:
        if self.original_length == 0:
            return 1.0
        return self.final_length / self.original_length


def _kept_vectors(t0: TestSequence, kept: set[int]) -> TestSequence:
    """``t0`` restricted to the ``kept`` positions, in original order."""
    vectors = t0.vectors()
    return TestSequence._trusted(
        tuple(vectors[p] for p in sorted(kept)), t0.width
    )


def restoration_compact(
    compiled: CompiledCircuit,
    t0: TestSequence,
    faults: list[Fault],
    search_batch_width: int = 24,
    backend: str | None = None,
    workers: int = 1,
    parallel: str | None = None,
    session: Session | None = None,
) -> tuple[TestSequence, RestorationStats]:
    """Compact ``t0`` by vector restoration, preserving its coverage."""
    with use_session(session) as sess:
        fault_simulator = sess.fault_simulator(
            compiled, backend=backend, workers=workers, parallel=parallel
        )
        sequence_simulator = sess.sequence_simulator(
            compiled,
            batch_width=search_batch_width,
            backend=backend,
            workers=workers,
            parallel=parallel,
        )
        baseline = fault_simulator.run(t0, faults)
        udet = dict(baseline.detection_time)
        if not udet:
            return TestSequence.empty(t0.width), RestorationStats(len(t0), 0, 0, 0)

        uncovered = sorted(udet, key=lambda f: (-udet[f], str(f)))
        kept: set[int] = set()
        events = 0
        candidates_tried = 0

        while uncovered:
            target = uncovered[0]
            end = udet[target]
            # Window search: largest j in [0, end] such that kept + window
            # detects the target.  j = 0 always works (full prefix intact).
            plan = WindowRampPlan(
                t0,
                [(j, end) for j in range(end, -1, -1)],
                IDENTITY_EXPANSION,
                kept=kept,
            )
            position, evaluated = sequence_simulator.first_hit(
                target, plan, chunk=search_batch_width
            )
            candidates_tried += evaluated
            if position is None:
                raise AtpgError(
                    f"restoration could not re-detect {target} even with the "
                    "full prefix restored — simulator inconsistency"
                )
            kept |= set(range(end - position, end + 1))
            events += 1

            current = _kept_vectors(t0, kept)
            sim = fault_simulator.run(current, uncovered)
            covered = set(sim.detection_time)
            if target not in covered:
                raise AtpgError(
                    f"restored window for {target} lost detection in re-simulation"
                )
            uncovered = [f for f in uncovered if f not in covered]

        final = _kept_vectors(t0, kept)
        stats = RestorationStats(
            original_length=len(t0),
            final_length=len(final),
            restoration_events=events,
            window_candidates=candidates_tried,
        )
        return final, stats
