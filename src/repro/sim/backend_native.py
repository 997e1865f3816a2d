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
  one GIL-released C call per sequence (chunk).

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
        # The eval argument vector is invariant across time steps; the
        # arrays it points into are kept alive by self/backend/program.
        self._eval_args = (
            _addr(self._V),
            words,
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

    def eval(self) -> None:
        record_dispatch("native_ffi_calls")
        self._lib.repro_eval(*self._eval_args, self.threads)

    def detect_mask(self, observations: Sequence[tuple[int, int]]) -> int:
        if not observations:
            return 0
        record_dispatch("native_ffi_calls")
        n = len(observations)
        obs_pos = np.fromiter(
            (position for position, _ in observations),
            dtype=np.int32,
            count=n,
        )
        good_vals = np.fromiter(
            (value for _, value in observations), dtype=np.uint8, count=n
        )
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
            max(good.threads, faulty.threads),
        )
        return _words_to_mask(out) & alive_mask

    # ------------------------------------------------------------------
    # Fused whole-sequence scan
    # ------------------------------------------------------------------
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
    ) -> list[int | None]:
        """All ``num_steps`` time steps in GIL-released C calls.

        Candidate mode (``observation_plan is None``) issues one call per
        packed stimulus chunk; fault mode issues a single call for the
        whole sequence.  The C side owns the per-step loop — input load,
        good/faulty eval, detection, first-hit bookkeeping and the flop
        latch — so the Python cost is O(chunks), not O(steps).  Flop
        divergence outputs accumulate in the same calls.  Stimuli
        without a packed-array form fall back to the stepped base scan.
        """
        paired = observation_plan is None
        if paired:
            chunk_arrays = getattr(packed_stimulus, "chunk_arrays", None)
            if chunk_arrays is None:
                return super().run_scan(
                    good,
                    faulty,
                    packed_stimulus,
                    observation_plan,
                    alive_mask,
                    collect_final_states=collect_final_states,
                    divergence=divergence,
                )
        else:
            bits_of = getattr(packed_stimulus, "bits", None)
            # The base loop owns the fault-axis divergence rejection.
            if bits_of is None or divergence is not None:
                return super().run_scan(
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
        times_out: list[int | None] = [None] * num_slots
        if num_steps == 0 or num_slots == 0:
            record_dispatch("scan_calls")
            return times_out
        assert isinstance(faulty, NativeBatch)
        words = faulty._words
        program = faulty._program
        assert isinstance(program, NativeProgram)
        full_mask = (1 << num_slots) - 1
        # A steady alive mask folds into the initial pending words (the
        # kernel then treats a NULL alive pointer as all-live), which is
        # equivalent to intersecting per step; per-step masks travel as
        # packed (num_steps, words) rows.
        alive_rows: np.ndarray | None = None
        if isinstance(alive_mask, int):
            pending = _mask_to_words(full_mask & alive_mask, words)
        else:
            pending = _mask_to_words(full_mask, words)
            alive_rows = getattr(packed_stimulus, "alive_words", None)
            if alive_rows is None:
                alive_rows = _masks_to_matrix(list(alive_mask), words)
        times = np.full(words * WORD_BITS, -1, dtype=np.int64)
        det = np.zeros(words, dtype=np.uint64)
        # Per-slot divergence max / final / area rows (in/out across
        # chunk calls); NULL pointers switch the outputs off.
        div = (
            None
            if divergence is None
            else np.zeros((3, words * WORD_BITS), dtype=np.int64)
        )
        div_ptrs = (None,) * 3 if div is None else tuple(_addr(row) for row in div)
        if paired:
            assert isinstance(good, NativeBatch) and good._words == words
            gv = _addr(good._V)
            g_sh, g_sl = _addr(good._SH), _addr(good._SL)
            g_po_sa1, g_po_sa0 = _addr(good._po_sa1), _addr(good._po_sa0)
            obs_off = obs_pos = obs_vals = None
        else:
            gv = g_sh = g_sl = g_po_sa1 = g_po_sa0 = None
            plan = observation_plan
            counts = np.fromiter(
                (len(plan[t]) for t in range(num_steps)),
                dtype=np.int64,
                count=num_steps,
            )
            obs_off = np.zeros(num_steps + 1, dtype=np.int64)
            np.cumsum(counts, out=obs_off[1:])
            total = int(obs_off[-1])
            obs_pos = np.fromiter(
                (p for t in range(num_steps) for p, _ in plan[t]),
                dtype=np.int32,
                count=total,
            )
            obs_vals = np.fromiter(
                (
                    1 if v else 0
                    for t in range(num_steps)
                    for _, v in plan[t]
                ),
                dtype=np.uint8,
                count=total,
            )
        # Invariant argument prefix/suffix, built once per scan; only the
        # stimulus pointers, chunk bounds and alive row pointer vary.
        head = (
            gv,
            _addr(faulty._V),
            words,
            _addr(self.c_codes),
            _addr(self.c_outs),
            _addr(self.c_in_off),
            _addr(self.c_ins),
            len(self.compiled.ops),
            _addr(program.pin_ops),
            _addr(program.pin_pins),
            _addr(program.pin_sa1),
            _addr(program.pin_sa0),
            len(program.pin_ops),
            _addr(program.stem_ops),
            _addr(program.stem_sa1),
            _addr(program.stem_sa0),
            len(program.stem_ops),
            _addr(faulty._gather),
            _addr(program.src_rows),
            _addr(program.src_force),
            _addr(program.src_keep),
            len(program.src_rows),
            _addr(self.c_pi),
            len(self.c_pi),
            _addr(self.c_q),
            _addr(self.c_d),
            len(self.c_q),
            _addr(program.dff_pos),
            _addr(program.dff_force_h),
            _addr(program.dff_keep_h),
            _addr(program.dff_force_l),
            _addr(program.dff_keep_l),
            len(program.dff_pos),
            g_sh,
            g_sl,
            _addr(faulty._SH),
            _addr(faulty._SL),
        )
        tail = (
            _addr(self.po_sig),
            len(self.po_sig),
            g_po_sa1,
            g_po_sa0,
            _addr(faulty._po_sa1),
            _addr(faulty._po_sa0),
            None if obs_off is None else _addr(obs_off),
            None if obs_pos is None else _addr(obs_pos),
            None if obs_vals is None else _addr(obs_vals),
        )
        # Thread lanes for the kernel's word-span partition; bit-identical
        # at any count, so the stepped/fused parity contract is unchanged.
        fixed = (
            _addr(pending),
            _addr(times),
            _addr(det),
            *div_ptrs,
            int(collect_final_states),
            faulty.threads,
        )
        executed = 0
        if paired:
            t = 0
            while t < num_steps:
                t0, t1, ones, zeros = chunk_arrays(t)
                alive_ptr = (
                    None
                    if alive_rows is None
                    else alive_rows[t0:t1].ctypes.data
                )
                record_dispatch("native_ffi_calls")
                ret = int(
                    self.lib.repro_scan(
                        *head,
                        _addr(ones),
                        _addr(zeros),
                        None,
                        t0,
                        t1 - t0,
                        *tail,
                        alive_ptr,
                        *fixed,
                    )
                )
                finished = ret < 0
                executed += -ret - 1 if finished else ret
                if finished:
                    break
                t = t1
        else:
            bits = np.ascontiguousarray(bits_of(), dtype=np.uint8)
            record_dispatch("native_ffi_calls")
            ret = int(
                self.lib.repro_scan(
                    *head,
                    None,
                    None,
                    _addr(bits),
                    0,
                    num_steps,
                    *tail,
                    None,
                    *fixed,
                )
            )
            executed = -ret - 1 if ret < 0 else ret
        for slot in range(num_slots):
            t_hit = int(times[slot])
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
