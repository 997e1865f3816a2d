"""Procedure 2: construct the subsequence ``T'`` for one target fault.

Given a fault ``f`` detected by ``T0`` at time ``udet(f)``:

1. **Window search** — find the largest ``ustart`` such that the expanded
   version of ``T' = T0[ustart, udet(f)]`` detects ``f``, scanning
   ``ustart = udet(f), udet(f)-1, ...``.  The scan always terminates: for
   ``ustart = 0`` the unexpanded window detects ``f`` by definition of
   ``udet``, and every expansion begins with a verbatim copy of ``T'``, so
   the expanded window detects ``f`` too.
2. **Vector omission** — repeatedly try to drop single vectors of ``T'``
   in random order, keeping an omission whenever the expanded remainder
   still detects ``f``, restarting the scan after every accepted omission
   (paper Procedure 2 steps 4-9).

Both phases describe their *entire* candidate scan as a
:class:`~repro.sim.scanplan.ScanPlan` — a
:class:`~repro.sim.scanplan.WindowRampPlan` for the descending ``ustart``
ramp, an :class:`~repro.sim.scanplan.OmissionPlan` per omission round —
and hand it to the simulator's
:meth:`~repro.sim.seqsim.SequenceBatchSimulator.first_hit` executor: a
serial simulator runs the historical chunked scan (whole batches of
``search_batch_width`` / ``omission_batch_width`` candidates until the
first hit — a batch of ``W`` candidates costs about as much as simulating
only the longest one, which is what makes this pure-Python reproduction
feasible), while a simulator with chunk threads fans the rest of a
large plan out after its first chunk, with first-hit cancellation
(:mod:`repro.sim.workerpool`).  Either way the winner is the
first detecting candidate in scan order and the evaluated count follows
the serial formula, so the selected subsequences and the reported
statistics are identical for any ``workers=`` / ``parallel=`` setting.

Candidates are *described*, not materialized: windows are ``(start,
end)`` spans and omission trials index lists into a shared base, so the
simulator derives every expanded candidate's packed input columns from
one shared packing of the base sequence (cached per session in
:mod:`repro.sim.trace`) instead of re-packing ``8 n |T'|`` vectors per
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SelectionConfig
from repro.core.sequence import TestSequence
from repro.errors import SelectionError
from repro.faults.model import Fault
from repro.sim.scanplan import OmissionPlan, WindowRampPlan
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class SubsequenceResult:
    """Outcome of Procedure 2 for one fault."""

    fault: Fault
    subsequence: TestSequence
    ustart: int
    udet: int
    window_length: int
    omitted_vectors: int
    candidates_simulated: int

    @property
    def final_length(self) -> int:
        return len(self.subsequence)


def build_subsequence_for_fault(
    simulator: SequenceBatchSimulator,
    t0: TestSequence,
    fault: Fault,
    udet: int,
    config: SelectionConfig,
    fault_salt: int = 0,
) -> SubsequenceResult:
    """Run Procedure 2 for ``fault`` with detection time ``udet``."""
    if not 0 <= udet < len(t0):
        raise SelectionError(
            f"udet {udet} out of range for T0 of length {len(t0)}"
        )
    expansion = config.expansion
    candidates_simulated = 0

    # ------------------------------------------------------------------
    # Phase 1: window search for ustart.
    # ------------------------------------------------------------------
    # The whole descending scan is one plan handed to the first-hit
    # executor; the simulator chunks it by search_batch_width, serially
    # or on chunk threads with cancellation (workers > 1) — same
    # winner, same evaluated count.
    spans = [(u, udet) for u in range(udet, -1, -1)]
    window_plan = WindowRampPlan(t0, spans, expansion)
    position, evaluated = simulator.first_hit(
        fault, window_plan, chunk=config.search_batch_width
    )
    candidates_simulated += evaluated
    ustart = udet - position if position is not None else None
    if ustart is None:
        # Cannot happen for a fault with a valid udet (see module docstring);
        # guard anyway so a simulator bug surfaces loudly.
        raise SelectionError(
            f"Procedure 2 found no detecting window for {fault} "
            f"(udet={udet}); the T0 prefix should always detect"
        )
    subsequence = t0.subsequence(ustart, udet)
    window_length = len(subsequence)

    # ------------------------------------------------------------------
    # Phase 2: vector omission (skippable for ablation).
    # ------------------------------------------------------------------
    omitted = 0
    if not config.skip_omission:
        rng = SplitMix64(derive_seed(config.seed, fault_salt, ustart, udet))
        while len(subsequence) > 1:
            order = list(range(len(subsequence)))
            rng.shuffle(order)
            position, evaluated = simulator.first_hit(
                fault,
                OmissionPlan(subsequence, order, expansion),
                chunk=config.omission_batch_width,
            )
            candidates_simulated += evaluated
            if position is None:
                break
            subsequence = subsequence.omit(order[position])
            omitted += 1

    return SubsequenceResult(
        fault=fault,
        subsequence=subsequence,
        ustart=ustart,
        udet=udet,
        window_length=window_length,
        omitted_vectors=omitted,
        candidates_simulated=candidates_simulated,
    )
