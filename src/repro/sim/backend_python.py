"""The reference ``python`` backend: arbitrary-precision big-int words.

One Python integer per signal per rail; a batch of ``W`` slots lives in
the low ``W`` bits.  Evaluation is the historical flat kernel of
:mod:`repro.sim.kernel` — the fastest correct thing CPython does without
third-party dependencies, and the semantic reference the vectorized
backends are tested against.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.faults.model import Fault
from repro.logic.values import ONE, ZERO, Ternary
from repro.sim.backend import SimBackend, SimBatch, SimProgram
from repro.sim.kernel import (
    RunOp,
    build_run_ops,
    detect_pair_mask,
    eval_combinational,
    source_stem_patches,
)


class PythonProgram(SimProgram):
    """Run-ready op list plus the non-gate patch sets of one fault batch."""

    __slots__ = ("run_ops", "src_patches", "dff_patches", "po_patches")

    def __init__(
        self,
        key: tuple[Fault, ...] | None,
        run_ops: list[RunOp],
        src_patches: list[tuple[int, int, int]],
        dff_patches: list[tuple[int, tuple[int, int]]],
        po_patches: dict[int, tuple[int, int]],
    ) -> None:
        super().__init__(key)
        self.run_ops = run_ops
        self.src_patches = src_patches
        self.dff_patches = dff_patches
        self.po_patches = po_patches


class PythonBatch(SimBatch):
    """Batch state over Python-int words."""

    __slots__ = (
        "_compiled",
        "_program",
        "_full",
        "_H",
        "_L",
        "_state",
    )

    def __init__(
        self, compiled, program: PythonProgram, batch_size: int
    ) -> None:
        self._compiled = compiled
        self._program = program
        self._full = (1 << batch_size) - 1
        n = compiled.num_signals
        self._H: list[int] = [0] * n
        self._L: list[int] = [0] * n
        self._state: list[tuple[int, int]] = [(0, 0)] * len(compiled.flop_pairs)

    def load_inputs_broadcast(self, bits: Sequence[int]) -> None:
        H = self._H
        L = self._L
        full = self._full
        for position, pi_index in enumerate(self._compiled.pi_indices):
            if bits[position]:
                H[pi_index] = full
                L[pi_index] = 0
            else:
                H[pi_index] = 0
                L[pi_index] = full

    def load_inputs_packed(
        self, ones: Sequence[int], zeros: Sequence[int]
    ) -> None:
        H = self._H
        L = self._L
        for position, pi_index in enumerate(self._compiled.pi_indices):
            H[pi_index] = ones[position]
            L[pi_index] = zeros[position]

    def load_state(self) -> None:
        H = self._H
        L = self._L
        for position, (q_index, _) in enumerate(self._compiled.flop_pairs):
            H[q_index], L[q_index] = self._state[position]

    def apply_source_patches(self) -> None:
        H = self._H
        L = self._L
        for signal_index, sa1, sa0 in self._program.src_patches:
            H[signal_index] = (H[signal_index] | sa1) & ~sa0
            L[signal_index] = (L[signal_index] | sa0) & ~sa1

    def eval(self) -> None:
        eval_combinational(self._program.run_ops, self._H, self._L)

    def observe_po(self, position: int) -> tuple[int, int]:
        po_index = self._compiled.po_indices[position]
        h = self._H[po_index]
        l = self._L[po_index]
        patch = self._program.po_patches.get(position)
        if patch is not None:
            sa1, sa0 = patch
            h = (h | sa1) & ~sa0
            l = (l | sa0) & ~sa1
        return h, l

    def detect_mask(self, observations: Sequence[tuple[int, int]]) -> int:
        detected = 0
        for po_position, good_value in observations:
            h, l = self.observe_po(po_position)
            if good_value:
                detected |= l
            else:
                detected |= h
        return detected & self._full

    def capture_state(self) -> None:
        H = self._H
        L = self._L
        next_state = [(H[d], L[d]) for _, d in self._compiled.flop_pairs]
        for position, (sa1, sa0) in self._program.dff_patches:
            h, l = next_state[position]
            next_state[position] = ((h | sa1) & ~sa0, (l | sa0) & ~sa1)
        self._state = next_state

    def set_state_words(self, state: Sequence[tuple[int, int]]) -> None:
        self._state = list(state)

    def set_state_scalar(self, values: Sequence[Ternary]) -> None:
        full = self._full
        self._state = [
            (full, 0) if value is ONE else (0, full) if value is ZERO else (0, 0)
            for value in values
        ]

    def read_signal(self, index: int) -> tuple[int, int]:
        return self._H[index], self._L[index]

    def export_state_words(self) -> list[tuple[int, int]]:
        return list(self._state)


class PythonBackend(SimBackend):
    """Backend over the pure-Python big-int kernel (always available)."""

    name = "python"
    word_width = None

    def _compile_program(
        self, faults: tuple[Fault, ...] | None
    ) -> PythonProgram:
        compiled = self._compiled
        plan = None if faults is None else compiled.compile_plan(list(faults))
        run_ops = build_run_ops(compiled, plan)
        src_patches = source_stem_patches(compiled, plan)
        dff_patches = sorted(plan.dff_pin.items()) if plan is not None else []
        po_patches = dict(plan.po_pin) if plan is not None else {}
        return PythonProgram(faults, run_ops, src_patches, dff_patches, po_patches)

    def batch(self, program: SimProgram, batch_size: int) -> PythonBatch:
        assert isinstance(program, PythonProgram)
        return PythonBatch(self._compiled, program, batch_size)

    def detect_step(
        self, good: SimBatch, faulty: SimBatch, alive_mask: int
    ) -> int:
        """Reference paired-batch detection over the big-int rails.

        Semantically identical to the :class:`SimBackend` default, but
        reads the rails directly through the flat kernel loop instead of
        one ``observe_po`` round trip per PO.
        """
        if alive_mask == 0:
            return 0
        assert isinstance(good, PythonBatch) and isinstance(faulty, PythonBatch)
        return (
            detect_pair_mask(
                self._compiled.po_indices,
                good._H,
                good._L,
                faulty._H,
                faulty._L,
                good._program.po_patches,
                faulty._program.po_patches,
            )
            & alive_mask
        )
