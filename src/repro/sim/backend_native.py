"""The ``native`` backend: a C kernel over ``uint64`` rail storage.

Batches keep their signals in the rail layout of
:mod:`repro.sim.backend_numpy` — one C-contiguous
``(2 * num_signals, words)`` ``uint64`` array per batch in the ``(H, L)``
encoding — and the hot loops run in a compiled shared object (see
``_native/repro_kernel.c`` and :mod:`repro.sim.native_build`):

* :meth:`NativeBatch.eval` — one C call walks the full compiled op list
  in topological order (the big-int reference kernel's exact schedule,
  so results are bit-identical by construction).
* :meth:`NativeBatch.detect_mask` — the fault-axis PO comparison, one C
  pass over the observed POs.
* :meth:`NativeBackend.detect_step` — the fused paired-batch
  candidate-axis reduction, likewise one C pass over all POs.
* :meth:`NativeBackend.run_scan` / :meth:`NativeBackend.run_good_trace`
  — whole-sequence fault/candidate scans and the fault-free trace, each
  one GIL-released C call per batch; candidate scans expand derived
  candidates from the base bits inside the kernel.

Input loading, state capture/interchange and the source-stem patches
come from :class:`~repro.sim.backend_numpy.NumpyBatch`; the stepped
calling sequence they serve is the base loop's, and the fused kernels
do the same work in C.

A fault batch compiles into one :class:`NativeProgram` in one pass over
its injection plan: the source, flop and PO patch arrays
(:meth:`~repro.sim.backend_numpy.NumpyBackend._compile_rail_patches`)
plus two sorted, dense-by-entry arrays for the eval walk (gate-pin
patches and gate-output stem patches), which merges them cursor-style
so the unfaulted common case costs one integer compare per op.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.logic.values import Ternary
from repro.sim.backend import (
    ScanDivergence,
    SimBatch,
    SimProgram,
    record_dispatch,
)
from repro.sim.backend_numpy import (
    WORD_BITS,
    NumpyBackend,
    NumpyBatch,
    _mask_to_words,
    _masks_to_matrix,
    _words_to_mask,
)
from repro.sim.kernel import merge_stem_patches
from repro.sim.native_build import load_native_library


#: ``repro_trace`` PO code -> scalar value (codes are Ternary's values).
_TERNARY = tuple(Ternary(code) for code in range(3))


def _addr(array: np.ndarray) -> int:
    """The raw data address of a (C-contiguous) array, for the C ABI."""
    return array.ctypes.data


def _c_args(*values) -> tuple:
    """Arrays as raw addresses, ``None`` and integers as they are."""
    return tuple(
        value if value is None or isinstance(value, int) else _addr(value)
        for value in values
    )


class NativeProgram(SimProgram):
    """Every patch array of one fault batch, C-ready.

    A patch set with no entries holds zero-row arrays, which the kernel
    never reads; the fault-free program (``batch_size is None``) is all
    empty and serves every batch width.
    """

    __slots__ = (
        "batch_size",
        "src_rows",
        "src_force",
        "src_keep",
        "dff_pos",
        "dff_force_h",
        "dff_keep_h",
        "dff_force_l",
        "dff_keep_l",
        "po_patches",
        "pin_ops",
        "pin_pins",
        "pin_sa1",
        "pin_sa0",
        "stem_ops",
        "stem_sa1",
        "stem_sa0",
        "_dense_po",
        "_scan_prefixes",
    )

    def __init__(
        self,
        key: tuple[Fault, ...] | None,
        batch_size: int | None,
        words: int,
    ) -> None:
        super().__init__(key)
        self.batch_size = batch_size
        no_rows = np.zeros(0, dtype=np.int32)
        no_masks = np.zeros((0, words), dtype=np.uint64)
        self.src_rows = self.dff_pos = self.pin_ops = no_rows
        self.pin_pins = self.stem_ops = no_rows
        self.src_force = self.src_keep = no_masks
        self.dff_force_h = self.dff_keep_h = no_masks
        self.dff_force_l = self.dff_keep_l = no_masks
        self.pin_sa1 = self.pin_sa0 = self.stem_sa1 = self.stem_sa0 = no_masks
        self.po_patches: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: words -> dense (num_pos, words) (sa1, sa0) PO masks.  Faulted
        #: programs are bound to one batch width; the fault-free program
        #: serves every width, hence the per-words memo.
        self._dense_po: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: words -> the program-fixed head of repro_scan's arguments.
        self._scan_prefixes: dict[int, tuple] = {}

    def dense_po_masks(
        self, num_pos: int, words: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense per-PO-position pin masks for the C detection passes.

        Unpatched positions hold zeros, making ``(h | sa1) & ~sa0`` the
        identity — the C side needs no branch.
        """
        cached = self._dense_po.get(words)
        if cached is None:
            sa1 = np.zeros((num_pos, words), dtype=np.uint64)
            sa0 = np.zeros((num_pos, words), dtype=np.uint64)
            for position, (force1, force0) in self.po_patches.items():
                sa1[position] = force1
                sa0[position] = force0
            cached = (sa1, sa0)
            self._dense_po[words] = cached
        return cached


class NativeBatch(NumpyBatch):
    """A rail-storage batch whose hot loops run in the compiled kernel."""

    def __init__(
        self, backend: "NativeBackend", program: NativeProgram, batch_size: int
    ) -> None:
        super().__init__(backend, program, batch_size)
        words = self._words
        lib = backend.lib
        self._lib = lib
        num_pos = len(backend.po_sig)
        self._po_sa1, self._po_sa0 = program.dense_po_masks(num_pos, words)
        self._detect_out = np.zeros(words, dtype=np.uint64)
        self._gather = np.empty(
            (2 * max(backend.max_arity, 1), words), dtype=np.uint64
        )
        self._eval_args: tuple | None = None

    def eval(self) -> None:
        record_dispatch("native_ffi_calls")
        if self._eval_args is None:
            self._eval_args = self._build_eval_args()
        self._lib.repro_eval(*self._eval_args)

    def _build_eval_args(self) -> tuple:
        """The eval argument vector, invariant across time steps.

        Built on the first stepped :meth:`eval` (fused scans never need
        it); the arrays it points into are kept alive by
        self/backend/program.
        """
        backend = self._backend
        program = self._program
        return (
            _addr(self._V),
            self._words,
            _addr(backend.c_codes),
            _addr(backend.c_outs),
            _addr(backend.c_in_off),
            _addr(backend.c_ins),
            len(backend.compiled.ops),
            _addr(program.pin_ops),
            _addr(program.pin_pins),
            _addr(program.pin_sa1),
            _addr(program.pin_sa0),
            len(program.pin_ops),
            _addr(program.stem_ops),
            _addr(program.stem_sa1),
            _addr(program.stem_sa0),
            len(program.stem_ops),
            _addr(self._gather),
        )

    def detect_mask(self, positions: Sequence[int], values: Sequence[int]) -> int:
        n = len(positions)
        if not n:
            return 0
        record_dispatch("native_ffi_calls")
        obs_pos = np.asarray(positions, dtype=np.int32)
        good_vals = np.asarray(values, dtype=np.uint8)
        out = self._detect_out
        out[:] = 0
        self._lib.repro_detect_mask(
            _addr(self._V),
            self._words,
            _addr(obs_pos),
            _addr(good_vals),
            n,
            _addr(self._backend.po_sig),
            _addr(self._po_sa1),
            _addr(self._po_sa0),
            _addr(out),
        )
        return _words_to_mask(out) & self._full_mask


class NativeBackend(NumpyBackend):
    """C-kernel backend over the ``uint64`` rail layout."""

    name = "native"
    scans_bits = True
    releases_gil = True

    def __init__(self, compiled) -> None:
        super().__init__(compiled)
        self.lib = load_native_library()
        ops = compiled.ops
        num_ops = len(ops)
        self.c_codes = np.fromiter(
            (code for code, _, _ in ops), dtype=np.int32, count=num_ops
        )
        self.c_outs = np.fromiter(
            (out for _, out, _ in ops), dtype=np.int32, count=num_ops
        )
        offsets = np.zeros(num_ops + 1, dtype=np.int64)
        for position, (_, _, ins) in enumerate(ops):
            offsets[position + 1] = offsets[position] + len(ins)
        self.c_in_off = offsets
        self.c_ins = np.fromiter(
            (k for _, _, ins in ops for k in ins),
            dtype=np.int32,
            count=int(offsets[-1]),
        )
        self.max_arity = max((len(ins) for _, _, ins in ops), default=1)
        self.po_sig = np.asarray(compiled.po_indices, dtype=np.int32)
        self.c_pi = np.asarray(compiled.pi_indices, dtype=np.int32)
        self.c_q = np.asarray(
            [q for q, _ in compiled.flop_pairs], dtype=np.int32
        )
        self.c_d = np.asarray(
            [d for _, d in compiled.flop_pairs], dtype=np.int32
        )
        #: op position of every gate-output signal, for stem patches.
        self._pos_of_out = {out: position for position, (_, out, _) in enumerate(ops)}

    # ------------------------------------------------------------------
    # Program compilation
    # ------------------------------------------------------------------
    def _compile_program(self, faults: tuple[Fault, ...] | None) -> NativeProgram:
        if faults is None:
            return NativeProgram(None, None, 1)
        batch_size = len(faults)
        words = (batch_size + WORD_BITS - 1) // WORD_BITS
        program = NativeProgram(faults, batch_size, words)
        compiled = self._compiled
        plan = compiled.compile_plan(list(faults))
        self._compile_rail_patches(program, plan, words)
        pins = sorted(plan.gate_pin.items())
        if pins:
            program.pin_ops = np.asarray(
                [position for (position, _), _ in pins], dtype=np.int32
            )
            program.pin_pins = np.asarray(
                [pin for (_, pin), _ in pins], dtype=np.int32
            )
            program.pin_sa1 = _masks_to_matrix(
                [sa1 for _, (sa1, _) in pins], words
            )
            program.pin_sa0 = _masks_to_matrix(
                [sa0 for _, (_, sa0) in pins], words
            )
        num_sources = compiled.num_inputs + len(compiled.flop_pairs)
        stems = merge_stem_patches(plan, lambda index: index >= num_sources)
        if stems:
            by_position = sorted(
                (self._pos_of_out[signal_index], sa1, sa0)
                for signal_index, (sa1, sa0) in stems.items()
            )
            program.stem_ops = np.asarray(
                [position for position, _, _ in by_position], dtype=np.int32
            )
            program.stem_sa1 = _masks_to_matrix(
                [sa1 for _, sa1, _ in by_position], words
            )
            program.stem_sa0 = _masks_to_matrix(
                [sa0 for _, _, sa0 in by_position], words
            )
        return program

    def batch(self, program: SimProgram, batch_size: int) -> NativeBatch:
        assert isinstance(program, NativeProgram)
        if program.batch_size is not None and program.batch_size != batch_size:
            raise SimulationError(
                f"program compiled for batch size {program.batch_size}, "
                f"batch opened with {batch_size}"
            )
        return NativeBatch(self, program, batch_size)

    def detect_step(
        self, good: SimBatch, faulty: SimBatch, alive_mask: int
    ) -> int:
        """Paired-batch detection in one C pass over all POs."""
        if alive_mask == 0:
            return 0
        assert isinstance(good, NativeBatch) and isinstance(faulty, NativeBatch)
        assert good._words == faulty._words
        record_dispatch("native_ffi_calls")
        out = good._detect_out
        out[:] = 0
        self.lib.repro_detect_step(
            _addr(good._V),
            _addr(faulty._V),
            good._words,
            _addr(self.po_sig),
            len(self.po_sig),
            _addr(good._po_sa1),
            _addr(good._po_sa0),
            _addr(faulty._po_sa1),
            _addr(faulty._po_sa0),
            _addr(out),
        )
        return _words_to_mask(out) & alive_mask

    # ------------------------------------------------------------------
    # Fused whole-sequence scan
    # ------------------------------------------------------------------
    def _scan_prefix(self, program: NativeProgram, words: int) -> tuple:
        """The program-fixed head of ``repro_scan``'s arguments.

        Built once per program (and word count: the fault-free program
        serves every width) and kept on it; the arrays it points into
        are owned by the program and this backend.
        """
        prefix = program._scan_prefixes.get(words)
        if prefix is None:
            po_sa1, po_sa0 = program.dense_po_masks(len(self.po_sig), words)
            prefix = _c_args(
                self.c_codes,
                self.c_outs,
                self.c_in_off,
                self.c_ins,
                len(self.compiled.ops),
                program.pin_ops,
                program.pin_pins,
                program.pin_sa1,
                program.pin_sa0,
                len(program.pin_ops),
                program.stem_ops,
                program.stem_sa1,
                program.stem_sa0,
                len(program.stem_ops),
                program.src_rows,
                program.src_force,
                program.src_keep,
                len(program.src_rows),
                self.c_pi,
                len(self.c_pi),
                self.c_q,
                self.c_d,
                len(self.c_q),
                program.dff_pos,
                program.dff_force_h,
                program.dff_keep_h,
                program.dff_force_l,
                program.dff_keep_l,
                len(program.dff_pos),
                self.po_sig,
                len(self.po_sig),
                po_sa1,
                po_sa0,
            )
            program._scan_prefixes[words] = prefix
        return prefix

    def run_scan(
        self,
        good: SimBatch | None,
        faulty: SimBatch,
        packed_stimulus,
        observation_plan,
        alive_mask,
        *,
        collect_final_states: bool = False,
        divergence: ScanDivergence | None = None,
        first_hit: bool = False,
    ) -> list[int | None]:
        """All ``num_steps`` time steps in one GIL-released C call.

        The candidate axis takes a derived stimulus (one with a
        ``descriptor``: base bits, kept positions, per-slot
        ``(low, high, a, b)`` rows and the expansion): the kernel
        expands every slot's inputs from the base itself, ends each slot
        with its candidate and, with ``first_hit``, drops the slots
        above the lowest detecting one.  The fault axis takes the
        sequence's bits.  The C side owns the per-step loop — input
        load, good/faulty eval, detection, first-hit bookkeeping and the
        flop latch — and accumulates the flop divergence outputs.
        Stimuli without an array form fall back to the stepped base
        scan.
        """
        paired = observation_plan is None
        if paired:
            descriptor = getattr(packed_stimulus, "descriptor", None)
            stepped = descriptor is None
        else:
            bits_of = getattr(packed_stimulus, "bits", None)
            # The base loop owns the fault-axis divergence rejection.
            stepped = bits_of is None or divergence is not None
        if stepped:
            return super().run_scan(
                good,
                faulty,
                packed_stimulus,
                observation_plan,
                alive_mask,
                collect_final_states=collect_final_states,
                divergence=divergence,
                first_hit=first_hit,
            )
        num_steps = packed_stimulus.num_steps
        num_slots = packed_stimulus.num_slots
        times_out: list[int | None] = [None] * num_slots
        if num_steps == 0 or num_slots == 0:
            record_dispatch("scan_calls")
            return times_out
        assert isinstance(faulty, NativeBatch)
        words = faulty._words
        program = faulty._program
        assert isinstance(program, NativeProgram)
        # A derived stimulus carries its own alive windows; the fault
        # axis's steady alive mask folds into the initial pending words.
        full_mask = (1 << num_slots) - 1
        if not paired:
            full_mask &= alive_mask
        pending = _mask_to_words(full_mask, words)
        times = np.full(words * WORD_BITS, -1, dtype=np.int64)
        det = np.zeros(words, dtype=np.uint64)
        # Per-slot divergence max / final / area rows; NULL pointers
        # switch the outputs off.
        div = (
            None
            if divergence is None
            else np.zeros((3, words * WORD_BITS), dtype=np.int64)
        )
        div_ptrs = (None,) * 3 if div is None else tuple(_addr(row) for row in div)
        if paired:
            assert isinstance(good, NativeBatch) and good._words == words
            base_bits, kept, rows, expansion = descriptor
            # The kernel reads these as C arrays of exactly these types
            # (no copy when they already are); the locals keep them alive.
            base_bits = np.ascontiguousarray(base_bits, dtype=np.uint8)
            kept = np.ascontiguousarray(kept, dtype=np.int32)
            rows = np.ascontiguousarray(rows, dtype=np.int32)
            width_fits = base_bits.shape[1:] == (len(self.c_pi),)
            if not width_fits or rows.shape != (num_slots, 4):
                raise SimulationError("derived stimulus does not fit this batch")
            operators = (
                int(expansion.use_complement)
                | int(expansion.use_shift) << 1
                | int(expansion.use_reverse) << 2
            )
            args = _c_args(
                good._V,
                faulty._V,
                words,
                faulty._gather,
                good._SH,
                good._SL,
                faulty._SH,
                faulty._SL,
                good._po_sa1,
                good._po_sa0,
                None,
                base_bits,
                kept,
                len(kept),
                rows,
                expansion.hold_cycles,
                expansion.repetitions,
                operators,
                num_steps,
                None,
                None,
                None,
            )
        else:
            # Held until the call returns; the observation views below
            # point into the plan's own flat buffers (never NULL, even
            # when no PO is ever binary).
            bits = np.ascontiguousarray(bits_of(), dtype=np.uint8)
            args = _c_args(
                None,
                faulty._V,
                words,
                faulty._gather,
                None,
                None,
                faulty._SH,
                faulty._SL,
                None,
                None,
                bits,
                None,
                None,
                0,
                None,
                0,
                0,
                0,
                num_steps,
                np.frombuffer(observation_plan.offsets, dtype=np.int64),
                np.frombuffer(observation_plan.positions, dtype=np.int32),
                np.frombuffer(observation_plan.values, dtype=np.uint8),
            )
        record_dispatch("native_ffi_calls")
        executed = int(
            self.lib.repro_scan(
                *self._scan_prefix(program, words),
                *args,
                _addr(pending),
                _addr(times),
                _addr(det),
                *div_ptrs,
                int(collect_final_states),
                int(first_hit),
            )
        )
        found = times[:num_slots]
        if first_hit:
            # Only the lowest detecting slot's time is exact; the kernel
            # may have recorded (or pruned) any slot above it.
            hits = np.flatnonzero(found >= 0)
            if hits.size:
                times_out[int(hits[0])] = int(found[hits[0]])
        else:
            for slot, t_hit in enumerate(found.tolist()):
                if t_hit >= 0:
                    times_out[slot] = t_hit
        if divergence is not None:
            divergence.maximum[:] = div[0, :num_slots].tolist()
            divergence.final[:] = div[1, :num_slots].tolist()
            divergence.area[:] = div[2, :num_slots].tolist()
        record_dispatch("scan_calls")
        record_dispatch("scan_steps", executed)
        return times_out

    # ------------------------------------------------------------------
    # Fault-free trace
    # ------------------------------------------------------------------
    def run_good_trace(self, batch, stimulus, *, record_signals=False):
        """The whole PO trace in one GIL-released ``repro_trace`` call.

        The kernel walks the same per-step op sequence as the reference
        loop and writes slot 0's Ternary code per PO per step; the flop
        state arrays are updated in place, so the batch ends in the final
        state.  Signal recording stays on the reference loop.
        """
        if record_signals:
            return super().run_good_trace(batch, stimulus, record_signals=True)
        assert isinstance(batch, NativeBatch) and batch._words == 1
        num_steps = stimulus.num_steps
        codes = np.empty((num_steps, len(self.po_sig)), dtype=np.uint8)
        if num_steps:
            bits = np.ascontiguousarray(stimulus.bits(), dtype=np.uint8)
            record_dispatch("native_ffi_calls")
            self.lib.repro_trace(
                _addr(batch._V),
                _addr(self.c_codes),
                _addr(self.c_outs),
                _addr(self.c_in_off),
                _addr(self.c_ins),
                len(self.compiled.ops),
                _addr(self.c_pi),
                len(self.c_pi),
                _addr(self.c_q),
                _addr(self.c_d),
                len(self.c_q),
                _addr(batch._SH),
                _addr(batch._SL),
                _addr(bits),
                num_steps,
                _addr(self.po_sig),
                len(self.po_sig),
                _addr(codes),
            )
        record_dispatch("trace_calls")
        record_dispatch("trace_steps", num_steps)
        return [[_TERNARY[code] for code in row] for row in codes.tolist()], None
