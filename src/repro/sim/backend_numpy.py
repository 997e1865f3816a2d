"""``uint64`` rail storage for the array engine (:mod:`repro.sim.backend_native`).

All signal values of a batch live in one C-contiguous
``(2 * num_signals, words)`` ``uint64`` array ``V``,
``words = ceil(batch_size / 64)``; signal ``i``'s ``H`` rail is row ``2i``
and its ``L`` rail is row ``2i + 1``, and slot ``s`` is bit ``s % 64`` of
word ``s // 64``.  Flop state lives in one ``(2, num_flops, words)``
buffer (the ``H`` rows, then the ``L`` rows) at an address fixed for the
batch's life, so the native kernel reads and writes it in place.  ``V``
is allocated on the first stepped operation: a batch that only feeds the
native fused scan (which evaluates in its own scan context) holds just
its flop state.

:class:`NumpyBatch` owns that storage and the per-step operations that
touch it without evaluating gates: input and state loading, the source
stem patches, PO observation, the flop latch with its patches, and state
interchange.  :class:`NumpyBackend` holds the rail-row tables and compiles
the source, flop and PO patch arrays of a fault batch
(:meth:`NumpyBackend._compile_rail_patches`).  Neither is registered: gate
evaluation and detection belong to the subclass that runs them.
"""

from __future__ import annotations

import ctypes
from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.errors import SimulationError
from repro.logic.values import ONE, ZERO, Ternary
from repro.sim.backend import SimBackend, SimBatch
from repro.sim.compiled import InjectionPlan
from repro.sim.kernel import source_stem_patches

WORD_BITS = 64
_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


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


class NumpyBatch(SimBatch):
    """Batch state over the interleaved ``(2 * num_signals, words)`` rails.

    The program must carry the arrays :meth:`NumpyBackend._compile_rail_patches`
    fills in (``src_*``, ``dff_*`` and ``po_patches``).
    """

    def __init__(self, backend: "NumpyBackend", program, batch_size: int) -> None:
        compiled = backend.compiled
        self._backend = backend
        self._program = program
        self._full_mask = (1 << batch_size) - 1
        words = (batch_size + WORD_BITS - 1) // WORD_BITS
        self._words = words
        self._num_flops = len(compiled.flop_pairs)
        self._state = (ctypes.c_uint64 * (2 * self._num_flops * words))()
        self._state_address = ctypes.addressof(self._state)
        self._po_indices = compiled.po_indices

    @cached_property
    def _V(self) -> np.ndarray:
        return np.zeros(
            (2 * self._backend.compiled.num_signals, self._words), dtype=np.uint64
        )

    @cached_property
    def _state_rows(self) -> np.ndarray:
        """The flop state buffer as a ``(2, num_flops, words)`` view."""
        return np.frombuffer(self._state, dtype=np.uint64).reshape(
            2, self._num_flops, self._words
        )

    @cached_property
    def _pi_rows(self) -> np.ndarray:
        """Scratch ``(2, num_pis, words)`` rows for broadcast input loads."""
        npi = len(self._backend.pi_h_rows)
        return np.zeros((2, npi, self._words), dtype=np.uint64)

    # ------------------------------------------------------------------
    # Input / state loading
    # ------------------------------------------------------------------
    def load_inputs_broadcast(self, bits: Sequence[int]) -> None:
        backend = self._backend
        npi = len(backend.pi_h_rows)
        ones = np.fromiter(
            (1 if bit else 0 for bit in bits), dtype=bool, count=npi
        )
        rows_h, rows_l = self._pi_rows
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
        state_h, state_l = self._state_rows
        self._V[backend.q_h_rows] = state_h
        self._V[backend.q_l_rows] = state_l

    def apply_source_patches(self) -> None:
        program = self._program
        rows = program.src_rows
        if len(rows):
            V = self._V
            V[rows] = (V[rows] | program.src_force) & program.src_keep

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

    def capture_state(self) -> None:
        backend = self._backend
        next_h = self._V[backend.d_h_rows]
        next_l = self._V[backend.d_l_rows]
        program = self._program
        positions = program.dff_pos
        if len(positions):
            next_h[positions] = (
                next_h[positions] | program.dff_force_h
            ) & program.dff_keep_h
            next_l[positions] = (
                next_l[positions] | program.dff_force_l
            ) & program.dff_keep_l
        self._state_rows[0] = next_h
        self._state_rows[1] = next_l

    # ------------------------------------------------------------------
    # State interchange
    # ------------------------------------------------------------------
    def set_state_words(self, state: Sequence[tuple[int, int]]) -> None:
        # In place: the buffer's address is the batch's for its life.
        nbytes = self._words * 8
        data = b"".join(h.to_bytes(nbytes, "little") for h, _ in state)
        data += b"".join(l.to_bytes(nbytes, "little") for _, l in state)
        if len(data) != ctypes.sizeof(self._state):
            raise SimulationError(
                f"state has {len(state)} flops, the batch {self._num_flops}"
            )
        ctypes.memmove(self._state, data, len(data))

    def set_state_scalar(self, values: Sequence[Ternary]) -> None:
        rows = self._state_rows
        rows[...] = 0
        for position, value in enumerate(values):
            if value is ONE:
                rows[0, position] = _FULL_WORD
            elif value is ZERO:
                rows[1, position] = _FULL_WORD

    def read_signal(self, index: int) -> tuple[int, int]:
        return (
            _words_to_mask(self._V[2 * index]),
            _words_to_mask(self._V[2 * index + 1]),
        )

    def export_state_words(self) -> list[tuple[int, int]]:
        raw = bytes(self._state)
        nbytes = self._words * 8
        low = len(raw) // 2
        return [
            (
                int.from_bytes(raw[at : at + nbytes], "little"),
                int.from_bytes(raw[low + at : low + at + nbytes], "little"),
            )
            for at in range(0, low, nbytes)
        ]


class NumpyBackend(SimBackend):
    """Rail-row tables and patch compilation over 64-bit word arrays."""

    word_width = WORD_BITS

    def __init__(self, compiled) -> None:
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

    def _compile_rail_patches(
        self, program, plan: InjectionPlan, words: int
    ) -> None:
        """Fill ``program``'s source, flop and PO patch arrays from ``plan``.

        Source stem patches become rail rows with ``(force, keep)``
        masks (``V[row] = (V[row] | force) & keep``, the roles of
        ``sa1``/``sa0`` swapped on L rails); flop pin patches become
        per-position force/keep masks on both rails; PO pin patches stay
        ``position -> (sa1, sa0)`` words.  Every array is C-contiguous
        and C-typed, ready for the kernel.
        """
        rows: list[int] = []
        force: list[int] = []
        clear: list[int] = []
        for signal_index, sa1, sa0 in source_stem_patches(self._compiled, plan):
            rows += (2 * signal_index, 2 * signal_index + 1)
            force += (sa1, sa0)
            clear += (sa0, sa1)
        if rows:
            program.src_rows = np.asarray(rows, dtype=np.int32)
            program.src_force = _masks_to_matrix(force, words)
            program.src_keep = ~_masks_to_matrix(clear, words)
        if plan.dff_pin:
            items = sorted(plan.dff_pin.items())
            sa1s = _masks_to_matrix([sa1 for _, (sa1, _) in items], words)
            sa0s = _masks_to_matrix([sa0 for _, (_, sa0) in items], words)
            program.dff_pos = np.asarray([p for p, _ in items], dtype=np.int32)
            program.dff_force_h = sa1s
            program.dff_keep_h = ~sa0s
            program.dff_force_l = sa0s
            program.dff_keep_l = ~sa1s
        program.po_patches = {
            position: (_mask_to_words(sa1, words), _mask_to_words(sa0, words))
            for position, (sa1, sa0) in plan.po_pin.items()
        }
