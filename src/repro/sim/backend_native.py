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
  one GIL-released C call per batch; fault-axis scans run their good
  machine inside the call, candidate scans expand derived candidates
  from the base bits and evaluate each faulty machine only where it
  differs from its good machine.

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

A fused scan is one ``repro_scan(program, context)`` call over memory
set up once (kernel ABI 9).  The backend fills a ``ReproCircuit`` with
the circuit's tables when it is created, and each program fills a
``ReproProgram`` (its patches) once per width: a faulted program when it
compiles, the fault-free one on its first scan at each width.  Every
buffer a scan writes — both machines' rails, the outputs and the walk's
working memory — lives in a ``ReproScan`` context from the backend's
pool: a call checks one at least as wide as itself out, writes only the
fields that change (width, stimulus, step and slot counts, the batches'
flop state addresses, the modes), and returns it when done, so
concurrent calls never share one and a serial run holds one.  A batch
only holds its flop state, which the kernel reads and writes in place.
"""

from __future__ import annotations

import ctypes
import threading
from collections.abc import Iterable, Sequence
from functools import cached_property

import numpy as np

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.logic.values import Ternary
from repro.sim.backend import (
    GoodMachine,
    ScanDivergence,
    SimBatch,
    SimProgram,
    record_dispatch,
    record_dispatches,
)
from repro.sim.backend_numpy import (
    WORD_BITS,
    NumpyBackend,
    NumpyBatch,
    _masks_to_matrix,
    _words_to_mask,
)
from repro.sim.kernel import merge_stem_patches
from repro.sim.native_build import (
    ReproCircuit,
    ReproProgram,
    ReproScan,
    load_native_library,
)


#: A Ternary code of the kernel (``repro_trace``'s POs, the fault
#: axis's good state) -> scalar value.
_TERNARY = tuple(Ternary(code) for code in range(3))


#: A program's patch arrays, as named in ``NativeProgram`` and
#: ``ReproProgram`` (which adds the dense PO masks).
_PATCHES = (
    "pin_ops",
    "pin_pins",
    "pin_sa1",
    "pin_sa0",
    "stem_ops",
    "stem_sa1",
    "stem_sa0",
    "src_rows",
    "src_force",
    "src_keep",
    "dff_pos",
    "dff_force_h",
    "dff_keep_h",
    "dff_force_l",
    "dff_keep_l",
)


def _addr(array: np.ndarray) -> int:
    """The raw data address of a (C-contiguous) array, for the C ABI."""
    return array.ctypes.data


def _packed(
    arrays: Iterable[np.ndarray],
) -> tuple[ctypes.Array, list[np.ndarray], list[int]]:
    """Copies of ``arrays`` in one buffer, each 8-byte aligned.

    Returns the buffer (the owner of the memory), the copies (views of
    it) and their addresses.
    """
    arrays = list(arrays)
    offsets = []
    size = 0
    for array in arrays:
        offsets.append(size)
        size += -(-array.nbytes // 8) * 8
    buffer = (ctypes.c_uint64 * max(size // 8, 1))()
    base = ctypes.addressof(buffer)
    copies = []
    for array, offset in zip(arrays, offsets):
        copy = np.frombuffer(
            buffer, dtype=array.dtype, count=array.size, offset=offset
        ).reshape(array.shape)
        copy[...] = array
        copies.append(copy)
    return buffer, copies, [base + offset for offset in offsets]


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
        "_scan_programs",
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
        #: words -> (ReproProgram address, the memory it points into).
        self._scan_programs: dict[int, tuple] = {}

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
    """A rail-storage batch whose hot loops run in the compiled kernel.

    Fused scans read and write only its flop state; the rails and the
    buffers of the stepped calls are allocated on first use.
    """

    @cached_property
    def _po_masks(self) -> tuple[np.ndarray, np.ndarray]:
        return self._program.dense_po_masks(len(self._backend.po_sig), self._words)

    @cached_property
    def _detect_out(self) -> np.ndarray:
        return np.zeros(self._words, dtype=np.uint64)

    @cached_property
    def _eval_args(self) -> tuple:
        """The stepped :meth:`eval`'s argument vector, fixed across steps.

        The arrays it points into are kept alive by self/backend/program.
        """
        backend = self._backend
        program = self._program
        circuit = backend.circuit
        arity = backend.max_arity
        self._gather = np.empty((2 * arity, self._words), dtype=np.uint64)
        self._fanins = np.empty(2 * arity, dtype=np.uintp)
        return (
            _addr(self._V),
            self._words,
            circuit.codes,
            circuit.outs,
            circuit.in_off,
            circuit.ins,
            circuit.num_ops,
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
            _addr(self._fanins),
        )

    def eval(self) -> None:
        record_dispatch("native_ffi_calls")
        self._backend.lib.repro_eval(*self._eval_args)

    def detect_mask(self, positions: Sequence[int], values: Sequence[int]) -> int:
        n = len(positions)
        if not n:
            return 0
        record_dispatch("native_ffi_calls")
        obs_pos = np.asarray(positions, dtype=np.int32)
        good_vals = np.asarray(values, dtype=np.uint8)
        out = self._detect_out
        out[:] = 0
        po_sa1, po_sa0 = self._po_masks
        self._backend.lib.repro_detect_mask(
            _addr(self._V),
            self._words,
            _addr(obs_pos),
            _addr(good_vals),
            n,
            self._backend.circuit.po_sig,
            _addr(po_sa1),
            _addr(po_sa0),
            _addr(out),
        )
        return _words_to_mask(out) & self._full_mask


class _ScanContext:
    """One ``ReproScan`` and every buffer it points into.

    The buffers are sized for ``capacity`` words, allocated when the
    context is created and keep their addresses for its life; a call of
    any width up to the capacity fills in the per-call fields of
    :attr:`call`, ``words`` among them (the kernel lays its buffers out
    by the call's width).  ``times``, ``div`` (flat) and ``good_final``
    view the kernel's outputs.
    """

    __slots__ = (
        "call",
        "address",
        "capacity",
        "times",
        "div",
        "good_final",
        "_buffers",
    )

    def __init__(self, backend: "NativeBackend", capacity: int) -> None:
        compiled = backend.compiled
        signals = compiled.num_signals
        flops = len(compiled.flop_pairs)
        ops = len(compiled.ops)
        arity = backend.max_arity
        words = self.capacity = capacity
        slots = words * WORD_BITS
        # Sizes in 8-byte words (the int32 and byte tables rounded up),
        # one zeroed array each, so a sanitizer sees every buffer's bounds.
        sizes = {
            "GV": 2 * signals * words,
            "FV": 2 * signals * words,
            "good_state": 2 * flops,
            "good_final": -(-flops // 8),
            "alive": words,
            "pending": words,
            "times": slots,
            "div": 3 * slots,
            "stamp": signals,
            "op_step": ops,
            "op_pin0": ops // 2 + 1,
            "op_stem": -(-ops // 2),
            "fdirty": flops * -(-words // WORD_BITS),
            "worklist": ops // WORD_BITS + 1,
            "live": words,
            "det": words,
            "vals": 2 * arity,
            "scratch": 2 * arity * words,
            "ptrs": 2 * arity,
        }
        self._buffers = {
            name: np.zeros(size, dtype=np.uint64) for name, size in sizes.items()
        }
        addresses = {name: _addr(array) for name, array in self._buffers.items()}
        self.call = ReproScan(**addresses)
        self.address = ctypes.addressof(self.call)
        self.times = self._buffers["times"].view(np.int64)
        self.div = self._buffers["div"].view(np.int64)
        self.good_final = self._buffers["good_final"].view(np.uint8)[:flops]


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
        num_signals = compiled.num_signals
        self.c_codes = np.fromiter(
            (code for code, _, _ in ops), dtype=np.int32, count=num_ops
        )
        outs = np.fromiter((out for _, out, _ in ops), dtype=np.int32, count=num_ops)
        arities = np.fromiter(
            (len(ins) for _, _, ins in ops), dtype=np.int64, count=num_ops
        )
        self.c_in_off = np.zeros(num_ops + 1, dtype=np.int64)
        np.cumsum(arities, out=self.c_in_off[1:])
        ins = np.fromiter(
            (k for _, _, ins in ops for k in ins),
            dtype=np.int32,
            count=int(self.c_in_off[-1]),
        )
        self.max_arity = max_arity = int(arities.max(initial=1))
        # The ops reading each signal, for the divergence walk.
        fo_off = np.zeros(num_signals + 1, dtype=np.int32)
        np.cumsum(np.bincount(ins, minlength=num_signals), out=fo_off[1:])
        reader = np.repeat(np.arange(num_ops, dtype=np.int32), arities)
        fo_ops = reader[np.argsort(ins, kind="stable")]
        self.po_sig = np.asarray(compiled.po_indices, dtype=np.int32)
        self.c_pi = np.asarray(compiled.pi_indices, dtype=np.int32)
        q_sig = np.asarray([q for q, _ in compiled.flop_pairs], dtype=np.int32)
        d_sig = np.asarray([d for _, d in compiled.flop_pairs], dtype=np.int32)
        tables = {
            "codes": self.c_codes,
            "outs": outs,
            "in_off": self.c_in_off,
            "ins": ins,
            "iota": np.arange(max_arity, dtype=np.int32),
            "fo_off": fo_off,
            "fo_ops": fo_ops,
            "pi_sig": self.c_pi,
            "q_sig": q_sig,
            "d_sig": d_sig,
            "po_sig": self.po_sig,
        }
        self._circuit_memory, _, addresses = _packed(tables.values())
        #: The kernel's ReproCircuit; its addresses serve every entry point.
        self.circuit = ReproCircuit(
            num_ops=num_ops,
            num_pis=len(self.c_pi),
            num_flops=len(q_sig),
            num_pos=len(self.po_sig),
            **dict(zip(tables, addresses)),
        )
        self._circuit_address = ctypes.addressof(self.circuit)
        #: op position of every gate-output signal, for stem patches.
        self._pos_of_out = {out: position for position, (_, out, _) in enumerate(ops)}
        #: Idle scan contexts (see _ScanContext).
        self._contexts: list[_ScanContext] = []
        self._contexts_lock = threading.Lock()
        #: role -> the (array, address) a scan last pointed that role at.
        self._pointers: dict[str, tuple[np.ndarray, int]] = {}

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
        self._scan_program(program, words)
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
        good_sa1, good_sa0 = good._po_masks
        faulty_sa1, faulty_sa0 = faulty._po_masks
        self.lib.repro_detect_step(
            _addr(good._V),
            _addr(faulty._V),
            good._words,
            self.circuit.po_sig,
            len(self.po_sig),
            _addr(good_sa1),
            _addr(good_sa0),
            _addr(faulty_sa1),
            _addr(faulty_sa0),
            _addr(out),
        )
        return _words_to_mask(out) & alive_mask

    # ------------------------------------------------------------------
    # Fused whole-sequence scan
    # ------------------------------------------------------------------
    def _scan_program(self, program: NativeProgram, words: int) -> tuple:
        """``program``'s ``ReproProgram`` at ``words``: ``(address, owner)``.

        Filled once and kept on the program: a faulted program's when it
        is compiled, the fault-free one's on its first scan at each
        width (it serves every width).  Its patch arrays (and dense PO
        masks) move into one buffer and its non-empty patch attributes
        become views of it, so each patch is held once (an empty one
        keeps its shared zero-row array).  The owner keeps that
        buffer and this backend's ``ReproCircuit`` alive; a caller holds
        it until its call returns.
        """
        held = program._scan_programs.get(words)
        if held is not None:
            return held
        po_sa1, po_sa0 = program.dense_po_masks(len(self.po_sig), words)
        arrays = {name: getattr(program, name) for name in _PATCHES}
        arrays.update(po_sa1=po_sa1, po_sa0=po_sa0)
        memory, copies, addresses = _packed(arrays.values())
        copied = dict(zip(arrays, copies))
        for name in _PATCHES:
            if copied[name].size:
                setattr(program, name, copied[name])
        program._dense_po[words] = (copied["po_sa1"], copied["po_sa0"])
        struct = ReproProgram(
            circuit=self._circuit_address,
            words=words,
            n_pin=len(program.pin_ops),
            n_stem=len(program.stem_ops),
            n_src=len(program.src_rows),
            n_dff=len(program.dff_pos),
            **dict(zip(arrays, addresses)),
        )
        owner = (struct, memory, self.circuit, self._circuit_memory)
        # Threads racing on a new width keep the first one stored.
        return program._scan_programs.setdefault(
            words, (ctypes.addressof(struct), owner)
        )

    def _pointer(self, role: str, array: np.ndarray) -> int:
        """``array``'s address, looked up again only when the array a scan
        passes as ``role`` (its bits, base or kept positions) changes.

        Every batch and width of one dispatch shares its stimulus arrays,
        so they are looked up once per dispatch.  The caller keeps
        ``array`` alive for its call; the memo holds it only so that an
        identity match is never a recycled object.
        """
        held = self._pointers.get(role)
        if held is None or held[0] is not array:
            held = self._pointers[role] = (array, _addr(array))
        return held[1]

    def _checkout(self, words: int) -> _ScanContext:
        """An idle scan context set up for a ``words``-word call.

        One too narrow for the call is dropped for a new one as wide as
        the call, so a serial run holds one context, as wide as its
        widest scan, and each concurrent caller adds at most one more.
        """
        with self._contexts_lock:
            context = self._contexts.pop() if self._contexts else None
        if context is None or context.capacity < words:
            context = _ScanContext(self, words)
        context.call.words = words
        return context

    def _checkin(self, context: _ScanContext) -> None:
        with self._contexts_lock:
            self._contexts.append(context)

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
        sequence's bits and a :class:`~repro.sim.backend.GoodMachine`:
        the kernel runs that good machine as one broadcast word from its
        start state, and with ``collect_final_states`` stores its final
        state back.  The C side owns the per-step loop — input load,
        good/faulty eval (each faulty machine only where it differs
        from the good one), detection, first-hit bookkeeping and the
        flop latch — and accumulates the flop divergence outputs.
        Stimuli without an array form, paired scans against a faulted
        good program and fault-axis scans against a bare observation
        plan fall back to the stepped base scan.
        """
        paired = observation_plan is None
        if paired:
            descriptor = getattr(packed_stimulus, "descriptor", None)
            stepped = descriptor is None or good._program.key is not None
        else:
            bits_of = getattr(packed_stimulus, "bits", None)
            # The base loop owns the fault-axis divergence rejection.
            stepped = (
                bits_of is None
                or divergence is not None
                or not isinstance(observation_plan, GoodMachine)
            )
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
        # Held, like everything else the call points at, until it returns.
        program = self._scan_program(faulty._program, words)
        context = self._checkout(words)
        try:
            call = context.call
            call.num_steps = num_steps
            call.num_slots = num_slots
            call.f_state = faulty._state_address
            call.collect_finals = collect_final_states
            call.first_hit = first_hit
            call.divergence = divergence is not None
            if paired:
                assert isinstance(good, NativeBatch) and good._words == words
                pinned = self._set_derived(call, good, descriptor, num_slots)
            else:
                pinned = self._set_broadcast(
                    call, bits_of(), observation_plan, alive_mask, num_slots
                )
            executed = self.lib.repro_scan(program[0], context.address)
            del pinned  # what the call pointed at lived until it returned
            if executed < 0:
                raise SimulationError("scan context and program differ in width")
            if call.detected:
                found = context.times[:num_slots]
                hits = np.flatnonzero(found >= 0)
                if first_hit:
                    # Only the lowest detecting slot's time is exact; the
                    # kernel may have recorded (or pruned) any slot above it.
                    hits = hits[:1]
                for slot, time in zip(hits.tolist(), found[hits].tolist()):
                    times_out[slot] = time
            if divergence is not None:
                slots = words * WORD_BITS
                rows = context.div[: 3 * slots].reshape(3, slots)
                div = rows[:, :num_slots].tolist()
                divergence.maximum[:], divergence.final[:], divergence.area[:] = div
            if not paired and collect_final_states:
                codes = context.good_final.tobytes()
                observation_plan.final_state = list(map(_TERNARY.__getitem__, codes))
            axis = "candidate_axis" if paired else "fault_axis"
            counts = {
                "native_ffi_calls": 1,
                "scan_calls": 1,
                "scan_steps": executed,
                f"{axis}_faulty_ops": call.ops_faulty,
                f"{axis}_good_ops": call.ops_good,
            }
        finally:
            self._checkin(context)
        record_dispatches(counts)
        return times_out

    def _set_derived(
        self, call: ReproScan, good: NativeBatch, descriptor, num_slots: int
    ) -> tuple:
        """Point a paired call at its derived candidates; return the arrays
        it points at."""
        base_bits, kept, rows, expansion = descriptor
        # The kernel reads these as C arrays of exactly these types (no
        # copy when they already are).
        base_bits = np.ascontiguousarray(base_bits, dtype=np.uint8)
        kept = np.ascontiguousarray(kept, dtype=np.int32)
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        width_fits = base_bits.shape[1:] == (len(self.c_pi),)
        if not width_fits or rows.shape != (num_slots, 4):
            raise SimulationError("derived stimulus does not fit this batch")
        call.g_state = good._state_address
        call.base = self._pointer("base", base_bits)
        # The kernel reads no kept position when there are none.
        call.kept = self._pointer("kept", kept) if len(kept) else None
        call.n_kept = len(kept)
        call.desc = _addr(rows)
        call.hold = expansion.hold_cycles
        call.reps = expansion.repetitions
        call.x_ops = (
            int(expansion.use_complement)
            | int(expansion.use_shift) << 1
            | int(expansion.use_reverse) << 2
        )
        call.use_alive = 0
        return base_bits, kept, rows

    def _set_broadcast(
        self,
        call: ReproScan,
        bits,
        good: GoodMachine,
        alive_mask: int,
        num_slots: int,
    ) -> tuple:
        """Point a fault-axis call at its bits, good start state and slots;
        return what it points at."""
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        call.stim_bits = self._pointer("bits", bits)
        call.desc = None
        start = self._good_start(good)
        call.good_start = None if start is None else start[0]
        full = (1 << num_slots) - 1
        alive = alive_mask & full
        call.use_alive = alive != full
        if alive != full:
            nbytes = 8 * call.words
            ctypes.memmove(call.alive, alive.to_bytes(nbytes, "little"), nbytes)
        return bits, start

    def _good_start(self, good: GoodMachine) -> tuple | None:
        """``good``'s start state as Ternary codes: ``(address, owner)``.

        ``None`` for all-X; converted once per good machine (every batch
        of its dispatch reads the same codes).
        """
        if good.state is None:
            return None
        held = good.engine_state
        if held is None:
            codes = bytes(good.state)
            buffer = (ctypes.c_uint8 * len(codes)).from_buffer_copy(codes)
            held = good.engine_state = (ctypes.addressof(buffer), buffer)
        return held

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
            circuit = self.circuit
            record_dispatch("native_ffi_calls")
            self.lib.repro_trace(
                _addr(batch._V),
                circuit.codes,
                circuit.outs,
                circuit.in_off,
                circuit.ins,
                circuit.num_ops,
                circuit.pi_sig,
                circuit.num_pis,
                circuit.q_sig,
                circuit.d_sig,
                circuit.num_flops,
                batch._state_address,
                batch._state_address + 8 * circuit.num_flops,
                _addr(bits),
                num_steps,
                circuit.po_sig,
                circuit.num_pos,
                _addr(codes),
            )
        record_dispatch("trace_calls")
        record_dispatch("trace_steps", num_steps)
        return [[_TERNARY[code] for code in row] for row in codes.tolist()], None
