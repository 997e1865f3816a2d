"""Scalar single-fault observation simulator: the genetic phase's oracle.

The genetic phase needs a *gradient*: how close does a candidate sequence
come to detecting a target fault?  Plain detected/not-detected gives no
signal, so the good and faulty machines run together and report, per
time unit, how many flip-flops hold definitely-different values in the
two machines — the classic state-divergence measure STRATEGATE-style
generators steer by — plus the detection time if the fault propagates to
a primary output.

Production scoring runs a whole population as one paired scan
(:meth:`repro.sim.seqsim.SequenceBatchSimulator.observe`).  This module
keeps the one-slot big-int loop as the independent reference the tests
compare that scan against.
"""

from __future__ import annotations

from repro.core.sequence import TestSequence
from repro.faults.model import Fault
from repro.sim.compiled import CompiledCircuit
from repro.sim.kernel import build_run_ops, eval_combinational, source_stem_patches
from repro.sim.seqsim import FaultObservation


class FaultObserver:
    """Runs good+faulty machines and measures state divergence."""

    def __init__(self, compiled: CompiledCircuit) -> None:
        self._compiled = compiled
        self._good_ops = build_run_ops(compiled, None)

    def observe(self, fault: Fault, sequence: TestSequence) -> FaultObservation:
        compiled = self._compiled
        plan = compiled.compile_plan([fault])
        faulty_ops = build_run_ops(compiled, plan)
        src_patches = source_stem_patches(compiled, plan)
        dff_patches = sorted(plan.dff_pin.items())
        po_patches = plan.po_pin

        n = compiled.num_signals
        GH = [0] * n
        GL = [0] * n
        FH = [0] * n
        FL = [0] * n
        pi_indices = compiled.pi_indices
        po_indices = compiled.po_indices
        flop_pairs = compiled.flop_pairs
        good_state: list[tuple[int, int]] = [(0, 0)] * len(flop_pairs)
        faulty_state: list[tuple[int, int]] = [(0, 0)] * len(flop_pairs)

        detected_at: int | None = None
        max_divergence = 0
        area = 0
        divergence = 0

        for t, vector in enumerate(sequence):
            for position, pi_index in enumerate(pi_indices):
                if vector[position]:
                    GH[pi_index] = FH[pi_index] = 1
                    GL[pi_index] = FL[pi_index] = 0
                else:
                    GH[pi_index] = FH[pi_index] = 0
                    GL[pi_index] = FL[pi_index] = 1
            for position, (q_index, _) in enumerate(flop_pairs):
                GH[q_index], GL[q_index] = good_state[position]
                FH[q_index], FL[q_index] = faulty_state[position]
            for signal_index, sa1, sa0 in src_patches:
                FH[signal_index] = (FH[signal_index] | sa1) & ~sa0
                FL[signal_index] = (FL[signal_index] | sa0) & ~sa1

            eval_combinational(self._good_ops, GH, GL)
            eval_combinational(faulty_ops, FH, FL)

            if detected_at is None:
                for position, po_index in enumerate(po_indices):
                    fh = FH[po_index]
                    fl = FL[po_index]
                    patch = po_patches.get(position)
                    if patch is not None:
                        sa1, sa0 = patch
                        fh = (fh | sa1) & ~sa0
                        fl = (fl | sa0) & ~sa1
                    if (GH[po_index] and fl) or (GL[po_index] and fh):
                        detected_at = t
                        break

            good_state = [(GH[d], GL[d]) for _, d in flop_pairs]
            next_faulty = [(FH[d], FL[d]) for _, d in flop_pairs]
            for position, (sa1, sa0) in dff_patches:
                h, l = next_faulty[position]
                next_faulty[position] = ((h | sa1) & ~sa0, (l | sa0) & ~sa1)
            faulty_state = next_faulty

            divergence = 0
            for (gh, gl), (fh, fl) in zip(good_state, faulty_state):
                if (gh and fl) or (gl and fh):
                    divergence += 1
            max_divergence = max(max_divergence, divergence)
            area += divergence
            if detected_at is not None:
                break

        return FaultObservation(
            detected_at=detected_at,
            max_state_divergence=max_divergence,
            final_state_divergence=divergence,
            divergence_area=area,
        )
