"""The ``numpy`` backend: contiguous ``uint64`` rails, vectorized passes.

Storage
    All signal values live in one C-contiguous ``(2 * num_signals, words)``
    ``uint64`` array ``V``, ``words = ceil(batch_size / 64)``; signal ``i``'s
    ``H`` rail is row ``2i`` and its ``L`` rail is row ``2i + 1``, and slot
    ``s`` is bit ``s % 64`` of word ``s // 64``.  In the ``(H, L)``
    encoding, *inverting a signal is swapping its two rows*, which is the
    key to pass fusion below.

Schedule
    The circuit is levelized once per backend (level of a gate = 1 + max
    level of its inputs; PIs and flop outputs are level 0), and the levels
    are then fused into *slots*: a small level whose outputs are not read
    by the next level's fan-in is deferred and merged into a later slot,
    so thin schedule tails collapse into fewer, wider passes (see
    :meth:`NumpyBackend._levelize`).  Within a slot no gate reads
    another's output, so evaluation order inside a slot is free, and gates
    are fused into a handful of vectorized passes per slot:

    * **and-family** — AND, OR, NAND and NOR all normalize to
      ``X = V[i...] & ...``, ``Y = V[j...] | ...`` with input and output
      inversions folded into the gathered row indices (De Morgan as index
      arithmetic); NOT and BUF are the arity-1 degenerate cases.  One pass
      per slot per arity covers all six opcodes.
    * **xor-family** — XOR and XNOR share one muxing pass, with XNOR's
      output inversion folded into its scatter indices.

    Gathers go through ``ndarray.take(..., out=...)`` into preallocated
    scratch buffers, so the hot loop does almost no allocation.  Batches
    that fit a single ``uint64`` word (``words == 1``) run the same passes
    over 1-D views of the rails, skipping the 2-D gather/scatter
    machinery's per-call overhead — the shape Procedure 2's narrow
    omission batches produce.

Fault injection
    A compiled program keeps the static schedule untouched and adds
    per-level *patched passes*: gates with faulted input pins are
    re-evaluated — again fused by family and arity, with the pin patches
    applied as ``(value | force_mask) & keep_mask`` matrices between
    gather and combine — after the level's static passes ran, and stem
    patches are masked onto the just-computed rows in one vectorized
    gather/modify/scatter.  Same-level gates never read each other, so
    overwriting after the static pass is safe, and deeper levels read the
    corrected values.  Wide fault batches patch ~1 site per slot, so these
    passes stay much smaller than the static schedule, and compiled
    programs are LRU-cached per fault batch on top.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.logic.values import ONE, ZERO, Ternary
from repro.sim.backend import (
    ScanDivergence,
    SimBackend,
    SimBatch,
    SimProgram,
    pack_states,
    record_dispatch,
    unpack_states,
)
from repro.sim.compiled import (
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
)
from repro.sim.kernel import merge_stem_patches, source_stem_patches

WORD_BITS = 64
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

# Pass kinds (first tuple element) in static and patched schedules.
_PASS_AND_FAMILY = 0
_PASS_XOR = 1
_PASS_MASK_ROWS = 2

#: Same-arity groups at least this large keep their own pass; smaller
#: groups of a level merge into one padded mixed-arity pass.
_MIN_UNIFORM_GROUP = 48

#: Levels with at most this many gates are deferred and fused into a
#: later slot when the next level's fan-in allows (i.e. does not read any
#: deferred output).  Deep circuits taper into long chains of tiny
#: levels; fusing them cuts per-pass numpy dispatch overhead without
#: changing evaluation semantics.
_FUSE_DEFER_MAX = 32

#: Opcodes that normalize into the and-family pass (NOT/BUF are the
#: arity-1 cases of NOR/AND respectively).
_AND_FAMILY_OF = {
    OP_AND: OP_AND,
    OP_NAND: OP_NAND,
    OP_OR: OP_OR,
    OP_NOR: OP_NOR,
    OP_BUF: OP_AND,
    OP_NOT: OP_NOR,
}


def _mask_to_words(mask: int, words: int) -> np.ndarray:
    """A Python-int slot mask as a little-endian ``uint64`` word array."""
    return np.frombuffer(
        mask.to_bytes(words * 8, "little"), dtype=np.uint64
    ).copy()


def _words_to_mask(row: np.ndarray) -> int:
    """A ``uint64`` word array back to a Python-int slot mask."""
    return int.from_bytes(np.ascontiguousarray(row).tobytes(), "little")


def _masks_to_matrix(masks: Sequence[int], words: int) -> np.ndarray:
    """Stack per-row Python-int masks into a ``(len(masks), words)`` array."""
    nbytes = words * 8
    data = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return np.frombuffer(data, dtype=np.uint64).reshape(len(masks), words)


def _mask_rows_pass(
    row_patches: list[tuple[int, np.ndarray, np.ndarray]], words: int
) -> tuple | None:
    """Build a vectorized ``V[rows] = (V[rows] | force) & keep`` pass.

    ``row_patches`` holds ``(row, force, clear)`` triples; ``keep`` is the
    complement of ``clear``.
    """
    if not row_patches:
        return None
    rows = np.asarray([row for row, _, _ in row_patches], dtype=np.intp)
    force = np.stack([sa for _, sa, _ in row_patches])
    keep = ~np.stack([sa for _, _, sa in row_patches])
    return (_PASS_MASK_ROWS, rows, force, keep)


class NumpyProgram(SimProgram):
    """Per-level patched passes plus non-gate patch arrays for one batch."""

    __slots__ = (
        "batch_size",
        "words",
        "fixups_by_level",
        "src_pass",
        "dff_pass",
        "po_patches",
        "max_group",
    )

    def __init__(
        self,
        key: tuple[Fault, ...] | None,
        batch_size: int | None,
        words: int | None,
        fixups_by_level: dict[int, list[tuple]],
        src_pass: tuple | None,
        dff_pass: tuple | None,
        po_patches: dict[int, tuple[np.ndarray, np.ndarray]],
        max_group: int,
    ) -> None:
        super().__init__(key)
        self.batch_size = batch_size
        self.words = words
        self.fixups_by_level = fixups_by_level
        self.src_pass = src_pass
        self.dff_pass = dff_pass
        self.po_patches = po_patches
        self.max_group = max_group


class NumpyBatch(SimBatch):
    """Batch state over the interleaved ``(2 * num_signals, words)`` rails."""

    def __init__(
        self, backend: "NumpyBackend", program: NumpyProgram, batch_size: int
    ) -> None:
        compiled = backend.compiled
        self._backend = backend
        self._program = program
        self._batch_size = batch_size
        self._full_mask = (1 << batch_size) - 1
        words = (batch_size + WORD_BITS - 1) // WORD_BITS
        self._words = words
        self._num_flops = len(compiled.flop_pairs)
        self._V = np.zeros((2 * compiled.num_signals, words), dtype=np.uint64)
        self._SH = np.zeros((self._num_flops, words), dtype=np.uint64)
        self._SL = np.zeros((self._num_flops, words), dtype=np.uint64)
        self._po_indices = compiled.po_indices
        scratch = max(backend.max_group, program.max_group, 1)
        self._buf = [
            np.empty((scratch, words), dtype=np.uint64) for _ in range(4)
        ]
        # Single-word specialization: with words == 1 the rails are a
        # plain vector, so every pass runs on 1-D views of the rails and
        # scratch buffers (and slices the (g, 1) patch matrices down to
        # vectors), skipping the 2-D machinery's per-call shape handling.
        if words == 1:
            self._rails = self._V.reshape(-1)
            self._scratch = [buffer.reshape(-1) for buffer in self._buf]
            self._mask_apply = _apply_pin_mask_1d
        else:
            self._rails = self._V
            self._scratch = self._buf
            self._mask_apply = _apply_pin_mask
        npi = len(backend.pi_h_rows)
        self._pi_rows_h = np.zeros((npi, words), dtype=np.uint64)
        self._pi_rows_l = np.zeros((npi, words), dtype=np.uint64)

    # ------------------------------------------------------------------
    # Input / state loading
    # ------------------------------------------------------------------
    def load_inputs_broadcast(self, bits: Sequence[int]) -> None:
        backend = self._backend
        npi = len(backend.pi_h_rows)
        ones = np.fromiter(
            (1 if bit else 0 for bit in bits), dtype=bool, count=npi
        )
        rows_h = self._pi_rows_h
        rows_l = self._pi_rows_l
        rows_h[ones] = _FULL_WORD
        rows_h[~ones] = 0
        rows_l[~ones] = _FULL_WORD
        rows_l[ones] = 0
        self._V[backend.pi_h_rows] = rows_h
        self._V[backend.pi_l_rows] = rows_l

    def load_inputs_packed(
        self, ones: Sequence[int], zeros: Sequence[int]
    ) -> None:
        backend = self._backend
        self._V[backend.pi_h_rows] = _masks_to_matrix(ones, self._words)
        self._V[backend.pi_l_rows] = _masks_to_matrix(zeros, self._words)

    def load_inputs_words(self, ones_words, zeros_words) -> None:
        # Native ingestion of pre-packed (num_pis, words) uint64 columns:
        # one fancy-index scatter per rail, no Python-int round trip.
        backend = self._backend
        self._V[backend.pi_h_rows] = ones_words
        self._V[backend.pi_l_rows] = zeros_words

    def load_state(self) -> None:
        backend = self._backend
        self._V[backend.q_h_rows] = self._SH
        self._V[backend.q_l_rows] = self._SL

    def apply_source_patches(self) -> None:
        if self._program.src_pass is not None:
            self._run_mask_rows(self._program.src_pass)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def eval(self) -> None:
        run_pass = self._run_pass
        fixups_by_level = self._program.fixups_by_level
        if not fixups_by_level:
            for passes in self._backend.level_passes:
                for entry in passes:
                    run_pass(entry)
            return
        for slot, passes in enumerate(self._backend.level_passes):
            for entry in passes:
                run_pass(entry)
            for entry in fixups_by_level.get(slot, ()):
                run_pass(entry)

    def _run_pass(self, entry: tuple) -> None:
        # `_rails`/`_scratch`/`_mask_apply` are the 2-D arrays for
        # multi-word batches and their 1-D views for words == 1 (where
        # the patch matrices are also sliced down to vectors); the pass
        # bodies are shape-agnostic (`take(..., axis=0)` on a 1-D array
        # gathers elements).
        V = self._rails
        buf0, buf1, buf2, buf3 = self._scratch
        apply_mask = self._mask_apply
        kind = entry[0]
        if kind == _PASS_AND_FAMILY:
            _, cols_and, masks_and, out_and, cols_or, masks_or, out_or = entry
            g = len(out_and)
            acc_and = V.take(cols_and[0], axis=0, out=buf0[:g])
            if masks_and[0] is not None:
                apply_mask(acc_and, masks_and[0])
            for col, mask in zip(cols_and[1:], masks_and[1:]):
                operand = V.take(col, axis=0, out=buf1[:g])
                if mask is not None:
                    apply_mask(operand, mask)
                np.bitwise_and(acc_and, operand, out=acc_and)
            acc_or = V.take(cols_or[0], axis=0, out=buf2[:g])
            if masks_or[0] is not None:
                apply_mask(acc_or, masks_or[0])
            for col, mask in zip(cols_or[1:], masks_or[1:]):
                operand = V.take(col, axis=0, out=buf3[:g])
                if mask is not None:
                    apply_mask(operand, mask)
                np.bitwise_or(acc_or, operand, out=acc_or)
            V[out_and] = acc_and
            V[out_or] = acc_or
        elif kind == _PASS_XOR:
            _, h_cols, h_masks, l_cols, l_masks, out_h, out_l = entry
            g = len(out_h)
            h = V.take(h_cols[0], axis=0, out=buf0[:g])
            if h_masks[0] is not None:
                apply_mask(h, h_masks[0])
            l = V.take(l_cols[0], axis=0, out=buf1[:g])
            if l_masks[0] is not None:
                apply_mask(l, l_masks[0])
            for h_col, h_mask, l_col, l_mask in zip(
                h_cols[1:], h_masks[1:], l_cols[1:], l_masks[1:]
            ):
                hk = V.take(h_col, axis=0, out=buf2[:g])
                if h_mask is not None:
                    apply_mask(hk, h_mask)
                lk = V.take(l_col, axis=0, out=buf3[:g])
                if l_mask is not None:
                    apply_mask(lk, l_mask)
                h, l = (h & lk) | (l & hk), (h & hk) | (l & lk)
            V[out_h] = h
            V[out_l] = l
        else:  # _PASS_MASK_ROWS
            self._run_mask_rows(entry)

    def _run_mask_rows(self, entry: tuple) -> None:
        V = self._rails
        _, rows, force, keep = entry
        g = len(rows)
        values = V.take(rows, axis=0, out=self._scratch[0][:g])
        self._mask_apply(values, (force, keep))
        V[rows] = values

    # ------------------------------------------------------------------
    # Observation and state advance
    # ------------------------------------------------------------------
    def observe_po(self, position: int) -> tuple[int, int]:
        h_row = 2 * self._po_indices[position]
        h = self._V[h_row]
        l = self._V[h_row + 1]
        patch = self._program.po_patches.get(position)
        if patch is not None:
            sa1, sa0 = patch
            h = (h | sa1) & ~sa0
            l = (l | sa0) & ~sa1
        return _words_to_mask(h), _words_to_mask(l)

    def detect_mask_words(
        self, observations: Sequence[tuple[int, int]]
    ) -> np.ndarray:
        """Fault-axis detection as a ``(words,)`` row (no batch masking)."""
        V = self._V
        detected = np.zeros(self._words, dtype=np.uint64)
        po_patches = self._program.po_patches
        for po_position, good_value in observations:
            h_row = 2 * self._po_indices[po_position]
            h = V[h_row]
            l = V[h_row + 1]
            patch = po_patches.get(po_position)
            if patch is not None:
                sa1, sa0 = patch
                h = (h | sa1) & ~sa0
                l = (l | sa0) & ~sa1
            detected |= l if good_value else h
        return detected

    def detect_mask(self, observations: Sequence[tuple[int, int]]) -> int:
        if not observations:
            return 0
        return (
            _words_to_mask(self.detect_mask_words(observations))
            & self._full_mask
        )

    def capture_state(self) -> None:
        backend = self._backend
        next_h = self._V[backend.d_h_rows]
        next_l = self._V[backend.d_l_rows]
        dff_pass = self._program.dff_pass
        if dff_pass is not None:
            _, positions, force_h, keep_h, force_l, keep_l = dff_pass
            next_h[positions] = (next_h[positions] | force_h) & keep_h
            next_l[positions] = (next_l[positions] | force_l) & keep_l
        self._SH = next_h
        self._SL = next_l

    # ------------------------------------------------------------------
    # State interchange
    # ------------------------------------------------------------------
    def set_state_packed(self, packed: Sequence[int]) -> None:
        pairs = unpack_states(packed, self._num_flops)
        self._SH = _masks_to_matrix([h for h, _ in pairs], self._words).copy()
        self._SL = _masks_to_matrix([l for _, l in pairs], self._words).copy()

    def export_state_packed(self) -> list[int]:
        return pack_states(self.export_state_words(), self._batch_size)

    def set_state_scalar(self, values: Sequence[Ternary]) -> None:
        self._SH = np.zeros((self._num_flops, self._words), dtype=np.uint64)
        self._SL = np.zeros((self._num_flops, self._words), dtype=np.uint64)
        for position, value in enumerate(values):
            if value is ONE:
                self._SH[position] = _FULL_WORD
            elif value is ZERO:
                self._SL[position] = _FULL_WORD

    def read_signal(self, index: int) -> tuple[int, int]:
        return (
            _words_to_mask(self._V[2 * index]),
            _words_to_mask(self._V[2 * index + 1]),
        )

    def export_state_words(self) -> list[tuple[int, int]]:
        return [
            (_words_to_mask(self._SH[f]), _words_to_mask(self._SL[f]))
            for f in range(self._num_flops)
        ]


class NumpyBackend(SimBackend):
    """Vectorized backend over 64-bit word arrays."""

    name = "numpy"
    word_width = WORD_BITS

    def __init__(self, compiled, fuse_levels: bool = True) -> None:
        super().__init__(compiled)
        pi_idx = np.asarray(compiled.pi_indices, dtype=np.intp)
        self.pi_h_rows = 2 * pi_idx
        self.pi_l_rows = 2 * pi_idx + 1
        q_idx = np.asarray([q for q, _ in compiled.flop_pairs], dtype=np.intp)
        d_idx = np.asarray([d for _, d in compiled.flop_pairs], dtype=np.intp)
        self.q_h_rows = 2 * q_idx
        self.q_l_rows = 2 * q_idx + 1
        self.d_h_rows = 2 * d_idx
        self.d_l_rows = 2 * d_idx + 1
        po_idx = np.asarray(compiled.po_indices, dtype=np.intp)
        self.po_h_rows = 2 * po_idx
        self.po_l_rows = 2 * po_idx + 1
        self.fuse_levels = fuse_levels
        #: Emission slot of each op: its value is final once the slot's
        #: static passes have run, and nothing emitted at or before that
        #: slot reads it.  Patched re-evaluations key on this.
        self.op_slot: list[int] = [0] * len(compiled.ops)
        self.level_passes: list[list[tuple]] = []
        self.max_group = 0
        self._signal_slot: dict[int, int] = {}
        self._levelize()

    # ------------------------------------------------------------------
    # Static schedule
    # ------------------------------------------------------------------
    def _levelize(self) -> None:
        """Levelize the ops, fuse small adjacent levels into shared slots.

        Classic ASAP levels first.  Then levels are emitted as *slots*
        (the unit :meth:`NumpyBatch.eval` iterates): a level of at most
        :data:`_FUSE_DEFER_MAX` gates is not emitted immediately but
        deferred into the next level's pool — legal because within one
        slot no gate may read another's output, and a deferred gate's
        output is, by construction, read only by gates that have not been
        emitted yet.  When a later level *does* read a deferred output
        ("fan-in disallows"), the pending gates it reads are flushed into
        their own slot first, preserving producer-before-consumer order.
        The net effect is that thin schedule tails collapse into fewer,
        wider fused passes.
        """
        compiled = self._compiled
        ops = compiled.ops
        level = [0] * compiled.num_signals
        by_level: dict[int, list[int]] = {}
        for position, (_, out, ins) in enumerate(ops):
            lvl = 1 + max(level[k] for k in ins)
            level[out] = lvl
            by_level.setdefault(lvl, []).append(position)
        depth = max(by_level, default=0)

        slots: list[list[int]] = []
        pending: list[int] = []
        for lvl in range(1, depth + 1):
            level_ops = by_level.get(lvl, [])
            if pending:
                reads = {k for p in level_ops for k in ops[p][2]}
                forced = [p for p in pending if ops[p][1] in reads]
                if forced:
                    slots.append(forced)
                    pending = [p for p in pending if ops[p][1] not in reads]
            pool = pending + level_ops
            if self.fuse_levels and lvl < depth and len(pool) <= _FUSE_DEFER_MAX:
                pending = pool
                continue
            slots.append(pool)
            pending = []
        if pending:
            slots.append(pending)

        for slot, pool in enumerate(slots):
            for position in pool:
                self.op_slot[position] = slot
                self._signal_slot[ops[position][1]] = slot
            self.level_passes.append(
                self._build_passes([(position, None) for position in pool])
            )

    def _build_passes(
        self, entries: list[tuple[int, dict | None]], words: int | None = None
    ) -> list[tuple]:
        """Fuse gates (with optional per-pin patches) into vectorized passes.

        ``entries`` holds ``(op position, pin patches or None)`` where pin
        patches map ``pin -> (sa1 words, sa0 words)``.  Used for both the
        static schedule (no patches) and per-level patched passes.
        """
        ops = self._compiled.ops
        and_family: dict[int, list[tuple[int, dict | None]]] = {}
        xors: dict[int, list[tuple[int, dict | None]]] = {}
        for position, patches in entries:
            code, _, ins = ops[position]
            if code in _AND_FAMILY_OF:
                and_family.setdefault(len(ins), []).append((position, patches))
            else:
                xors.setdefault(len(ins), []).append((position, patches))
        passes: list[tuple] = []
        # Large same-arity groups get their own tight pass; the long tail
        # of small groups is merged into one pass padded to the largest
        # remaining arity (padding repeats pin 0, idempotent under AND/OR),
        # trading a little gather volume for far fewer numpy dispatches.
        merged: list[tuple[int, dict | None]] = []
        merged_arity = 0
        for arity in sorted(and_family):
            group = and_family[arity]
            if len(group) >= _MIN_UNIFORM_GROUP:
                passes.append(self._and_family_pass(group, arity, words))
            else:
                merged.extend(group)
                merged_arity = arity
        if merged:
            passes.append(self._and_family_pass(merged, merged_arity, words))
        for arity in sorted(xors):
            passes.append(self._xor_pass(xors[arity], arity, words))
        return passes

    def _and_family_pass(
        self,
        entries: list[tuple[int, dict | None]],
        arity: int,
        words: int | None,
    ) -> tuple:
        """AND/OR/NAND/NOR/NOT/BUF fused via rail-swapped (De Morgan) rows.

        Per gate the pass computes ``X = AND(V[cols_and])`` and
        ``Y = OR(V[cols_or])``; which rails the columns point at and which
        output rows receive X and Y encode the opcode:

        ======== =============== ============== ========== ==========
        opcode   cols_and        cols_or        X goes to  Y goes to
        ======== =============== ============== ========== ==========
        AND/BUF  input H rails   input L rails  out H      out L
        NAND     input H rails   input L rails  out L      out H
        OR       input L rails   input H rails  out L      out H
        NOR/NOT  input L rails   input H rails  out H      out L
        ======== =============== ============== ========== ==========

        Pin patches become ``(value | force) & keep`` matrices applied to
        the gathered rail, with the force/keep roles of ``sa1``/``sa0``
        swapped on L-rail gathers.

        ``arity`` may exceed a gate's input count (mixed-arity merged
        passes): missing pins repeat pin 0, column and patch alike, which
        is idempotent under both AND and OR.
        """
        ops = self._compiled.ops
        k = len(entries)
        cols_and = [[0] * k for _ in range(arity)]
        cols_or = [[0] * k for _ in range(arity)]
        out_and = [0] * k
        out_or = [0] * k
        patch_and: list[dict[int, tuple]] = [{} for _ in range(arity)]
        patch_or: list[dict[int, tuple]] = [{} for _ in range(arity)]
        for j, (position, patches) in enumerate(entries):
            code, out, ins = ops[position]
            family = _AND_FAMILY_OF[code]
            inputs_swapped = family in (OP_OR, OP_NOR)
            output_swapped = family in (OP_NAND, OP_OR)
            for pin in range(arity):
                source_pin = pin if pin < len(ins) else 0
                h_row = 2 * ins[source_pin]
                cols_and[pin][j] = h_row + 1 if inputs_swapped else h_row
                cols_or[pin][j] = h_row if inputs_swapped else h_row + 1
                patch = patches.get(source_pin) if patches else None
                if patch is not None:
                    sa1, sa0 = patch
                    if inputs_swapped:  # gathering L rails
                        patch_and[pin][j] = (sa0, sa1)
                        patch_or[pin][j] = (sa1, sa0)
                    else:  # gathering H rails
                        patch_and[pin][j] = (sa1, sa0)
                        patch_or[pin][j] = (sa0, sa1)
            out_h = 2 * out
            out_and[j] = out_h + 1 if output_swapped else out_h
            out_or[j] = out_h if output_swapped else out_h + 1
        self.max_group = max(self.max_group, k)
        return (
            _PASS_AND_FAMILY,
            tuple(np.asarray(col, dtype=np.intp) for col in cols_and),
            tuple(_pin_masks(p, k, words) for p in patch_and),
            np.asarray(out_and, dtype=np.intp),
            tuple(np.asarray(col, dtype=np.intp) for col in cols_or),
            tuple(_pin_masks(p, k, words) for p in patch_or),
            np.asarray(out_or, dtype=np.intp),
        )

    def _xor_pass(
        self,
        entries: list[tuple[int, dict | None]],
        arity: int,
        words: int | None,
    ) -> tuple:
        """XOR/XNOR fused; XNOR's inversion folds into the output rows."""
        ops = self._compiled.ops
        k = len(entries)
        h_cols = [[0] * k for _ in range(arity)]
        l_cols = [[0] * k for _ in range(arity)]
        out_h = [0] * k
        out_l = [0] * k
        patch_h: list[dict[int, tuple]] = [{} for _ in range(arity)]
        patch_l: list[dict[int, tuple]] = [{} for _ in range(arity)]
        for j, (position, patches) in enumerate(entries):
            code, out, ins = ops[position]
            for pin, source in enumerate(ins):
                h_cols[pin][j] = 2 * source
                l_cols[pin][j] = 2 * source + 1
                patch = patches.get(pin) if patches else None
                if patch is not None:
                    sa1, sa0 = patch
                    patch_h[pin][j] = (sa1, sa0)
                    patch_l[pin][j] = (sa0, sa1)
            row = 2 * out
            if code == OP_XNOR:
                out_h[j] = row + 1
                out_l[j] = row
            else:
                out_h[j] = row
                out_l[j] = row + 1
        self.max_group = max(self.max_group, k)
        return (
            _PASS_XOR,
            tuple(np.asarray(col, dtype=np.intp) for col in h_cols),
            tuple(_pin_masks(p, k, words) for p in patch_h),
            tuple(np.asarray(col, dtype=np.intp) for col in l_cols),
            tuple(_pin_masks(p, k, words) for p in patch_l),
            np.asarray(out_h, dtype=np.intp),
            np.asarray(out_l, dtype=np.intp),
        )

    # ------------------------------------------------------------------
    # Program compilation
    # ------------------------------------------------------------------
    def _compile_program(
        self, faults: tuple[Fault, ...] | None
    ) -> NumpyProgram:
        if faults is None:
            return NumpyProgram(None, None, None, {}, None, None, {}, 0)
        compiled = self._compiled
        batch_size = len(faults)
        words = (batch_size + WORD_BITS - 1) // WORD_BITS
        plan = compiled.compile_plan(list(faults))

        src_pass = _mask_rows_pass(
            [
                entry
                for signal_index, sa1, sa0 in source_stem_patches(compiled, plan)
                for entry in (
                    (
                        2 * signal_index,
                        _mask_to_words(sa1, words),
                        _mask_to_words(sa0, words),
                    ),
                    (
                        2 * signal_index + 1,
                        _mask_to_words(sa0, words),
                        _mask_to_words(sa1, words),
                    ),
                )
            ],
            words,
        )
        dff_pass = None
        if plan.dff_pin:
            items = sorted(plan.dff_pin.items())
            positions = np.asarray([p for p, _ in items], dtype=np.intp)
            force_h = np.stack(
                [_mask_to_words(sa1, words) for _, (sa1, _) in items]
            )
            keep_h = ~np.stack(
                [_mask_to_words(sa0, words) for _, (_, sa0) in items]
            )
            force_l = np.stack(
                [_mask_to_words(sa0, words) for _, (_, sa0) in items]
            )
            keep_l = ~np.stack(
                [_mask_to_words(sa1, words) for _, (sa1, _) in items]
            )
            dff_pass = ("dff", positions, force_h, keep_h, force_l, keep_l)
        po_patches = {
            position: (_mask_to_words(sa1, words), _mask_to_words(sa0, words))
            for position, (sa1, sa0) in plan.po_pin.items()
        }

        # Gates with faulted pins, grouped per level, rebuilt as fused
        # patched passes that overwrite the static result of their level.
        patched_by_level: dict[int, list[tuple[int, dict]]] = {}
        pin_patches_by_position: dict[int, dict[int, tuple]] = {}
        for (position, pin), (sa1, sa0) in sorted(plan.gate_pin.items()):
            pin_patches_by_position.setdefault(position, {})[pin] = (
                _mask_to_words(sa1, words),
                _mask_to_words(sa0, words),
            )
        for position, patches in pin_patches_by_position.items():
            patched_by_level.setdefault(self.op_slot[position], []).append(
                (position, patches)
            )
        max_group_before = self.max_group
        fixups_by_level: dict[int, list[tuple]] = {
            level: self._build_passes(entries, words)
            for level, entries in patched_by_level.items()
        }
        program_max_group = self.max_group
        self.max_group = max_group_before

        # Stem patches on gate outputs run after the patched-gate passes of
        # their level, so a gate that is both pin-faulted and stem-faulted
        # is re-evaluated first and masked second (the kernel's order).
        num_sources = compiled.num_inputs + len(compiled.flop_pairs)
        stems = merge_stem_patches(plan, lambda index: index >= num_sources)
        stem_rows_by_level: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        for signal_index, (sa1, sa0) in sorted(stems.items()):
            level = self._signal_slot[signal_index]
            sa1_words = _mask_to_words(sa1, words)
            sa0_words = _mask_to_words(sa0, words)
            stem_rows_by_level.setdefault(level, []).extend(
                (
                    (2 * signal_index, sa1_words, sa0_words),
                    (2 * signal_index + 1, sa0_words, sa1_words),
                )
            )
        for level, row_patches in stem_rows_by_level.items():
            stem_pass = _mask_rows_pass(row_patches, words)
            if stem_pass is not None:
                fixups_by_level.setdefault(level, []).append(stem_pass)

        # Mask-rows passes gather into the shared scratch buffers too, so
        # their row counts bound the needed scratch height as well.
        if src_pass is not None:
            program_max_group = max(program_max_group, len(src_pass[1]))
        for row_patches in stem_rows_by_level.values():
            program_max_group = max(program_max_group, len(row_patches))

        return NumpyProgram(
            faults,
            batch_size,
            words,
            fixups_by_level,
            src_pass,
            dff_pass,
            po_patches,
            program_max_group,
        )

    def batch(self, program: SimProgram, batch_size: int) -> NumpyBatch:
        assert isinstance(program, NumpyProgram)
        if program.batch_size is not None and program.batch_size != batch_size:
            raise SimulationError(
                f"program compiled for batch size {program.batch_size}, "
                f"batch opened with {batch_size}"
            )
        return NumpyBatch(self, program, batch_size)

    def detect_step(
        self, good: SimBatch, faulty: SimBatch, alive_mask: int
    ) -> int:
        """Fused paired-batch detection: one array pass over all POs.

        Gathers every PO's rails from both batches at once, applies the
        programs' PO pin patches to the (copied) gathered rows, and
        OR-reduces the per-PO contradiction words — no per-position
        ``observe_po`` round trips and no Python-int mask arithmetic until
        the final reduced word row.
        """
        if alive_mask == 0:
            return 0
        assert isinstance(good, NumpyBatch) and isinstance(faulty, NumpyBatch)
        return _words_to_mask(self._detect_step_words(good, faulty)) & alive_mask

    def _detect_step_words(
        self, good: "NumpyBatch", faulty: "NumpyBatch"
    ) -> np.ndarray:
        """:meth:`detect_step`'s reduction as a ``(words,)`` row."""
        gh = good._V[self.po_h_rows]
        gl = good._V[self.po_l_rows]
        fh = faulty._V[self.po_h_rows]
        fl = faulty._V[self.po_l_rows]
        for position, (sa1, sa0) in good._program.po_patches.items():
            gh[position] = (gh[position] | sa1) & ~sa0
            gl[position] = (gl[position] | sa0) & ~sa1
        for position, (sa1, sa0) in faulty._program.po_patches.items():
            fh[position] = (fh[position] | sa1) & ~sa0
            fl[position] = (fl[position] | sa0) & ~sa1
        return np.bitwise_or.reduce((gh & fl) | (gl & fh), axis=0)

    def run_scan(
        self,
        good: "NumpyBatch | None",
        faulty: "NumpyBatch",
        packed_stimulus,
        observation_plan,
        alive_mask,
        *,
        collect_final_states: bool = False,
        divergence: ScanDivergence | None = None,
    ) -> "list[int | None]":
        """Blocked multi-step scan over resident word arrays.

        Same calling sequence as the per-step reference
        (:meth:`~repro.sim.backend.SimBackend.run_scan`), but the
        per-step liveness/pending bookkeeping stays in ``uint64`` word
        rows — no Python-int mask round trips until the final times —
        and the packed stimulus chunks stay resident in the packer's
        ``(T, num_pis, words)`` arrays, scattered in per step.  Flop
        divergence outputs run on the reference loop.
        """
        if divergence is not None:
            return SimBackend.run_scan(
                self,
                good,
                faulty,
                packed_stimulus,
                observation_plan,
                alive_mask,
                collect_final_states=collect_final_states,
                divergence=divergence,
            )
        num_steps = packed_stimulus.num_steps
        num_slots = packed_stimulus.num_slots
        times: list[int | None] = [None] * num_slots
        if num_steps == 0 or num_slots == 0:
            return times
        words = faulty._words
        pending = _mask_to_words((1 << num_slots) - 1, words)
        steady = None
        alive_words = None
        if isinstance(alive_mask, int):
            steady = _mask_to_words(alive_mask, words)
        else:
            alive_words = getattr(packed_stimulus, "alive_words", None)
            if alive_words is None:
                alive_words = _masks_to_matrix(list(alive_mask), words)
        executed = 0
        for t in range(num_steps):
            live = (steady if steady is not None else alive_words[t]) & pending
            if not live.any() and not collect_final_states:
                break
            executed += 1
            packed_stimulus.load_step(t, good, faulty)
            if good is not None:
                good.load_state()
            faulty.load_state()
            faulty.apply_source_patches()
            if good is not None:
                good.eval()
            faulty.eval()
            if observation_plan is None:
                detected = self._detect_step_words(good, faulty) & live
            else:
                detected = faulty.detect_mask_words(observation_plan[t]) & live
            if detected.any():
                bits = np.unpackbits(
                    detected.view(np.uint8), bitorder="little"
                )
                for slot in np.nonzero(bits)[0]:
                    times[int(slot)] = t
                pending &= ~detected
                if not pending.any() and not collect_final_states:
                    break
            if good is not None:
                good.capture_state()
            faulty.capture_state()
        record_dispatch("scan_calls")
        record_dispatch("scan_steps", executed)
        return times


def _apply_pin_mask(values: np.ndarray, mask: tuple) -> None:
    """In-place ``values = (values | force) & keep``."""
    force, keep = mask
    np.bitwise_or(values, force, out=values)
    np.bitwise_and(values, keep, out=values)


def _apply_pin_mask_1d(values: np.ndarray, mask: tuple) -> None:
    """1-D variant: slice the ``(g, 1)`` patch matrices down to vectors."""
    force, keep = mask
    np.bitwise_or(values, force[:, 0], out=values)
    np.bitwise_and(values, keep[:, 0], out=values)


def _pin_masks(
    patches: dict[int, tuple], group_size: int, words: int | None
) -> tuple | None:
    """Dense (force, keep) matrices for one pin of a fused pass."""
    if not patches:
        return None
    force = np.zeros((group_size, words), dtype=np.uint64)
    clear = np.zeros((group_size, words), dtype=np.uint64)
    for j, (force_words, clear_words) in patches.items():
        force[j] = force_words
        clear[j] = clear_words
    return force, ~clear
