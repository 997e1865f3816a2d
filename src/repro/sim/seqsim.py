"""Bit-parallel parallel-sequence simulation of a single fault.

This engine answers the question Procedure 2 asks thousands of times:
*which of these candidate sequences detects fault f?* — with one bit slot
per **candidate sequence** instead of per fault.

Each slot carries its own fault-free machine (the candidates differ, so
their fault-free responses differ) and its own faulty machine with the
same single fault injected in every slot.  Detection in slot ``s`` at time
``t`` requires ``t`` to be inside that candidate's length: slots whose
sequence is exhausted keep simulating padding vectors, but detections in
the padding region are masked off (causality makes the padding harmless
for earlier times).

The hot path is a **described pipeline**:

* Candidates are described, never packed in Python on the native
  engine.  A :class:`~repro.sim.scanplan.ScanPlan` (window spans or
  omission indices into a shared base sequence) turns into a compact
  descriptor — a sorted kept array ``K`` plus one ``(low, high, a, b)``
  row per candidate, the index list ``K[:low] + range(a, b) +
  K[high:]`` (:meth:`~repro.sim.scanplan.ScanPlan.descriptor`) — and an
  explicit candidate list into the same form (the sequences laid end to
  end as the base, ``K`` empty, the identity expansion).  The native
  kernel expands every slot's inputs from the base bits itself, one call
  per batch.  The base bits come from the session's
  :class:`~repro.sim.trace.GoodTraceCache`, so a base reused across
  scans (Procedure 2 scans ``T0`` once per target fault) is converted
  once per session, not once per call.
* The base per-step loop (the python engine's scan, and the spec) steps
  the same descriptor through the reference packer: the three
  per-vector transforms (complement, shift, complement+shift) of the
  base rows a batch reads form a table — the expansion operators only
  reorder time and toggle those transforms — every candidate column is
  a table gather, and one ``packbits`` pass per
  :data:`PACK_CHUNK_STEPS` chunk feeds
  :meth:`~repro.sim.backend.SimBatch.load_inputs_words`.
* First-hit scans (:meth:`SequenceBatchSimulator.first_hit`) run each
  chunk through one primitive, :meth:`SequenceBatchSimulator._chunk_first_hit`,
  in the backend's first-hit mode: the native kernel stops simulating
  the slots above the lowest detecting one.  Chunk threads call the
  same primitive.
* ``threads=N`` cuts a plan into contiguous chunks
  (:mod:`repro.sim.workerpool`) whose batches scan in GIL-released
  kernel calls on their own thread; outcomes merge in chunk order.
* Detection is one fused
  :meth:`~repro.sim.backend.SimBackend.detect_step` pass across all POs
  per time step (no per-PO ``observe_po`` round trips).
* Partial batches are padded up a halving ladder of stable widths
  (``batch_width``, ``batch_width/2``, ...), so the backend's program LRU
  serves a handful of cached programs per fault for the whole search
  instead of recompiling for every trailing short batch — and callers
  that chunk below ``batch_width`` (Procedure 2's search phase under an
  omission-sized simulator) are not padded up to double their width.

Both machines run on the selected :class:`~repro.sim.backend.SimBackend`,
through its :meth:`~repro.sim.backend.SimBackend.run_scan`; the base
class's per-step loop is the specification every override matches.

This turns Procedure 2's ``ustart`` search and its vector-omission trials
from per-candidate simulations into one batched pass per
``batch_width`` candidates — the optimization that makes the pure-Python
reproduction tractable (and the vectorized backends fast).  The genetic
phase's fitness rides the same scan:
:meth:`SequenceBatchSimulator.observe_population` takes the population
bit matrix as the explicit-candidate base and returns each candidate's
detection time plus its flop-divergence guidance
(:meth:`SequenceBatchSimulator.observe` does the same for a list of
sequences).
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import Circuit
from repro.core.ops import IDENTITY_EXPANSION, ExpansionConfig
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.sim.backend import (
    ScanDivergence,
    SimBackend,
    get_backend,
    resolve_auto,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.scanplan import (
    ExplicitPlan,
    OmissionPlan,
    ScanPlan,
    WindowRampPlan,
)
from repro.sim.trace import get_trace_cache
from repro.sim.workerpool import (
    chunk_bounds,
    fans_out,
    map_chunks,
    resolve_execution,
    run_chunks,
)

DEFAULT_SEQ_BATCH_WIDTH = 128

#: Time steps packed per chunk.  Chunking bounds the packer's working-set
#: (``chunk x num_inputs x batch_width`` bits) and keeps early exits from
#: packing columns that are never simulated.
PACK_CHUNK_STEPS = 128

#: The kept set of explicit candidates (each slot is one run).
_NO_KEPT = np.zeros(0, dtype=np.int32)


@dataclass(frozen=True)
class FaultObservation:
    """Detection time and state-divergence guidance for one candidate.

    The divergence fields count flops whose good and faulty values are
    opposite binaries after each simulated step, up to and including
    the detecting step (see :class:`~repro.sim.backend.ScanDivergence`).
    """

    detected_at: int | None
    max_state_divergence: int
    final_state_divergence: int
    divergence_area: int  # sum of per-cycle divergences

    @property
    def detected(self) -> bool:
        return self.detected_at is not None


# ----------------------------------------------------------------------
# Candidate column packers
# ----------------------------------------------------------------------
class _AliveMasks:
    """Per-step alive slot masks of one batch, as ints computed on read.

    Slot ``s`` is alive at step ``t`` while ``t < lengths[s]``.  The
    base per-step loop reads one mask per simulated step; the native
    kernel never reads these (it derives the windows itself), so a
    batch converts nothing it does not use.
    """

    __slots__ = ("_lengths",)

    def __init__(self, lengths) -> None:
        self._lengths = np.asarray(lengths, dtype=np.int64)

    def __getitem__(self, t: int) -> int:
        packed = np.packbits(self._lengths > t, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")


class _NumpyColumns:
    """The reference packer: per-chunk ``packbits`` of candidate bit planes.

    ``bits_for_chunk(t0, t1)`` supplies the raw candidate bits as a
    ``(num_candidates, t1 - t0, width)`` uint8 array; this class owns
    slot-padding to the batch width, the 64-slot word packing and the
    ``zeros = full & ~ones`` complement (padding slots are driven 0).
    """

    __slots__ = (
        "_max_len",
        "_bits_for_chunk",
        "_width",
        "_padded_slots",
        "_full_words",
        "_chunk_start",
        "_chunk_end",
        "_chunk_ones",
        "_chunk_zeros",
    )

    def __init__(
        self, bits_for_chunk, max_len: int, width: int, batch_width: int
    ) -> None:
        self._max_len = max_len
        self._bits_for_chunk = bits_for_chunk
        self._width = width
        words = (batch_width + 63) // 64
        self._padded_slots = words * 64
        full = (1 << batch_width) - 1
        self._full_words = np.frombuffer(
            full.to_bytes(words * 8, "little"), dtype=np.uint64
        )
        self._chunk_start = 0
        self._chunk_end = 0
        self._chunk_ones = None
        self._chunk_zeros = None

    def _pack_chunk(self, t: int) -> None:
        t0 = t
        t1 = min(t + PACK_CHUNK_STEPS, self._max_len)
        bits = self._bits_for_chunk(t0, t1)
        planes = np.zeros(
            (t1 - t0, self._width, self._padded_slots), dtype=np.uint8
        )
        planes[:, :, : bits.shape[0]] = bits.transpose(1, 2, 0)
        ones = np.packbits(planes, axis=-1, bitorder="little").view(np.uint64)
        self._chunk_ones = ones
        self._chunk_zeros = ~ones & self._full_words
        self._chunk_start = t0
        self._chunk_end = t1

    def load_step(self, t: int, good, faulty) -> None:
        if not self._chunk_start <= t < self._chunk_end or self._chunk_ones is None:
            self._pack_chunk(t)
        offset = t - self._chunk_start
        ones = self._chunk_ones[offset]
        zeros = self._chunk_zeros[offset]
        good.load_inputs_words(ones, zeros)
        faulty.load_inputs_words(ones, zeros)


def _expansion_time_map(indices, config: ExpansionConfig):
    """Expanded-time maps of ``expand(base[indices], config)``.

    Returns ``(src, comp, shift)`` arrays over the expanded time axis:
    the vector applied at expanded time ``t`` is base vector ``src[t]``
    complemented iff ``comp[t]`` and circularly left-shifted iff
    ``shift[t]`` (the two per-vector transforms commute).  Mirrors
    :func:`repro.core.ops.expand` stage by stage: hold repeats each index,
    repetition tiles the whole map, and each enabled operator appends a
    transformed copy (complement/shift toggling its flag, reversal
    reversing time).
    """
    src = np.repeat(indices, config.hold_cycles)
    src = np.tile(src, config.repetitions)
    comp = np.zeros(len(src), dtype=np.uint8)
    shift = np.zeros(len(src), dtype=np.uint8)
    if config.use_complement:
        src = np.concatenate([src, src])
        comp = np.concatenate([comp, 1 - comp])
        shift = np.concatenate([shift, shift])
    if config.use_shift:
        src = np.concatenate([src, src])
        comp = np.concatenate([comp, comp])
        shift = np.concatenate([shift, 1 - shift])
    if config.use_reverse:
        src = np.concatenate([src, src[::-1]])
        comp = np.concatenate([comp, comp[::-1]])
        shift = np.concatenate([shift, shift[::-1]])
    return src, comp, shift


def _derived_packer(
    base_bits,
    index_lists: list,
    expansion: ExpansionConfig,
    width: int,
    batch_width: int,
) -> _NumpyColumns:
    """Packer whose candidates are ``expand(base[indices], expansion)``.

    ``base_bits`` is the base sequence as bits
    (:func:`repro.sim.backend.base_bits_of`);
    the four per-vector variants (identity, complement, shift,
    complement+shift) of the base rows ``[low, high)`` the batch reads
    form a ``(4, high - low, width)`` table, and every candidate column
    is a gather ``table[transform[slot, t], src[slot, t] - low]`` — no
    expanded sequence is ever materialized.  Bounding the table by the
    rows read keeps a batch of an explicit plan (whose base is every
    candidate of the plan) at the cost of its own vectors.
    """
    index_arrays = [np.asarray(indices, dtype=np.intp) for indices in index_lists]
    used = [indices for indices in index_arrays if len(indices)]
    low = min((int(indices.min()) for indices in used), default=0)
    high = max((int(indices.max()) + 1 for indices in used), default=low)
    rows = base_bits[low:high]
    shifted = np.roll(rows, -1, axis=1)
    table = np.stack([rows, 1 - rows, shifted, 1 - shifted])

    maps = []
    for indices in index_arrays:
        src, comp, shift = _expansion_time_map(indices - low, expansion)
        maps.append((src, comp + 2 * shift))
    max_len = max((len(src) for src, _ in maps), default=0)
    # Compact index dtypes: a wide batch over a long T0 keeps these
    # matrices at (batch_width x expanded_len) elements.
    src_matrix = np.zeros((len(index_lists), max_len), dtype=np.int32)
    tfm_matrix = np.zeros((len(index_lists), max_len), dtype=np.int8)
    for slot, (src, tfm) in enumerate(maps):
        src_matrix[slot, : len(src)] = src
        tfm_matrix[slot, : len(tfm)] = tfm

    def bits_for_chunk(t0: int, t1: int):
        return table[tfm_matrix[:, t0:t1], src_matrix[:, t0:t1]]

    return _NumpyColumns(bits_for_chunk, max_len, width, batch_width)


def _candidate_lengths(kept, rows, expansion: ExpansionConfig):
    """Each descriptor row's expanded candidate length, as ``int64``."""
    counts = rows[:, 0] + (rows[:, 3] - rows[:, 2]) + (len(kept) - rows[:, 1])
    return counts.astype(np.int64) * expansion.length_multiplier


def _laid_end_to_end(sequences: list[TestSequence], width: int):
    """The descriptor of explicit candidates: the sequences laid end to
    end as the base, an empty kept set, slot ``s`` the run ``[a, b)`` of
    its own vectors and the identity expansion."""
    vectors = [vector for sequence in sequences for vector in sequence.vectors()]
    base_bits = np.asarray(vectors, dtype=np.uint8).reshape(len(vectors), width)
    ends = np.cumsum([len(sequence) for sequence in sequences], dtype=np.int32)
    rows = np.zeros((len(sequences), 4), dtype=np.int32)
    rows[:, 3] = ends
    rows[1:, 2] = ends[:-1]
    return base_bits, _NO_KEPT, rows, IDENTITY_EXPANSION


class _DerivedStimulus:
    """One batch of derived candidates, described instead of packed.

    Slot ``s`` is ``expand(base[K[:low] + range(a, b) + K[high:]])`` for
    ``(low, high, a, b) = rows[s]``, a slice of the plan's
    :meth:`~repro.sim.scanplan.ScanPlan.descriptor` — or, for explicit
    candidates, the sequences laid end to end as the base with an empty
    ``K`` and the identity expansion.  The native kernel takes
    :attr:`descriptor` as it is and expands every slot's inputs itself,
    one call per batch.  The base per-step loop (the python engine's
    scan) steps :meth:`load_step` through the reference packer, built on
    first use from :meth:`index_lists`.
    """

    __slots__ = (
        "descriptor",
        "num_slots",
        "num_steps",
        "batch_width",
        "alive_masks",
        "_width",
        "_packer",
    )

    def __init__(
        self,
        base_bits,
        kept,
        rows,
        expansion: ExpansionConfig,
        width: int,
        batch_width: int,
    ) -> None:
        self.descriptor = (base_bits, kept, rows, expansion)
        lengths = _candidate_lengths(kept, rows, expansion)
        self.num_slots = len(rows)
        self.num_steps = int(lengths.max()) if len(rows) else 0
        self.batch_width = batch_width
        self.alive_masks = _AliveMasks(lengths)
        self._width = width
        self._packer: _NumpyColumns | None = None

    def index_lists(self) -> list:
        """Each slot's base indices, expanded from its descriptor row."""
        _, kept, rows, _ = self.descriptor
        return [
            np.concatenate((kept[:low], np.arange(a, b, dtype=np.int32), kept[high:]))
            for low, high, a, b in rows.tolist()
        ]

    def load_step(self, t: int, good, faulty) -> None:
        if self._packer is None:
            base_bits, _, _, expansion = self.descriptor
            self._packer = _derived_packer(
                base_bits, self.index_lists(), expansion, self._width, self.batch_width
            )
        self._packer.load_step(t, good, faulty)


class SequenceBatchSimulator:
    """Simulates one fault under many candidate sequences at once."""

    def __init__(
        self,
        circuit: Circuit | CompiledCircuit,
        batch_width: int = DEFAULT_SEQ_BATCH_WIDTH,
        backend: str | SimBackend | None = None,
        threads: int = 1,
    ) -> None:
        if isinstance(circuit, CompiledCircuit):
            self._compiled = circuit
        else:
            self._compiled = CompiledCircuit(circuit)
        # "auto" adapts both the engine (paired-axis gate threshold) and,
        # when the big-int kernel wins, the batch width (its sweet spot).
        backend, batch_width = resolve_auto(
            self._compiled, backend, batch_width, paired=True
        )
        self._backend = get_backend(self._compiled, backend)
        self._batch_width = self._backend.validate_batch_width(batch_width)
        # Chunk threads overlap only scans that release the GIL; other
        # engines run serially (outcomes are identical either way).
        self._threads = max(1, int(threads)) if self._backend.releases_gil else 1
        # The session-wide good-machine cache: packed base columns for
        # the derived-candidate pipeline come from here, so a base
        # reused across scans is converted to bits once per session.
        self._trace_cache = get_trace_cache(self._compiled)
        #: The last (fault, width) scanned and its (good, faulty)
        #: programs: consecutive scans of one fault skip the program
        #: cache, whose key hashes ``width`` copies of the fault.
        self._last_programs: tuple | None = None

    @property
    def compiled(self) -> CompiledCircuit:
        return self._compiled

    @property
    def backend(self) -> SimBackend:
        return self._backend

    @property
    def batch_width(self) -> int:
        return self._batch_width

    @property
    def threads(self) -> int:
        """Chunk threads a large scan fans out to (1 = serial)."""
        return self._threads

    # ------------------------------------------------------------------
    # Plan-consuming APIs (the ScanPlan IR's serial executor)
    # ------------------------------------------------------------------
    def scan(self, fault: Fault, plan: ScanPlan) -> list[bool]:
        """Detection outcomes for every candidate a :class:`ScanPlan` holds.

        The single entry point every scan — explicit candidate lists,
        window ramps, omission rounds — funnels through.  With chunk
        threads a large plan is scanned in chunks on the pool, with
        bit-identical outcomes.
        """
        derived = self._derive(plan)

        def scan_chunk(bounds: tuple[int, int]) -> list[bool]:
            return self._scan_range(fault, derived, *bounds)

        # A candidate pass costs about its longest member: a chunk
        # never splits one.
        parts = map_chunks(
            scan_chunk,
            len(plan),
            self._threads,
            self._batch_width,
            self._batch_width,
            self._gate_evals(derived),
        )
        return [outcome for part in parts for outcome in part]

    def first_hit(
        self, fault: Fault, plan: ScanPlan, chunk: int | None = None
    ) -> tuple[int | None, int]:
        """Position of the first detecting candidate, scanning in plan order.

        Returns ``(position, evaluated)``: ``position`` indexes the
        plan's candidates (``None`` when nothing detects) and
        ``evaluated`` is the number of candidates simulated under the
        reference serial chunked scan — whole chunks of ``chunk``
        candidates (default ``batch_width``) up to and including the
        winning chunk.  Chunk threads return the identical pair for any
        thread count: the winner is the *minimum* detecting position
        (what a serial scan finds first) and ``evaluated`` is recomputed
        from this same formula, so Procedure 2's statistics never depend
        on ``workers``.

        With chunk threads, a large plan's first ``chunk`` candidates
        still run on the calling thread — window ramps nearly always hit
        there — and only the rest fans out (:meth:`_first_hit_threaded`).
        """
        chunk = self._first_hit_chunk(chunk)
        derived = self._derive(plan)
        evals = self._gate_evals(derived)
        if not fans_out(self._threads, len(plan), self._batch_width, evals):
            for start in range(0, len(plan), chunk):
                end = min(start + chunk, len(plan))
                hit = self._chunk_first_hit(fault, derived, start, end)
                if hit is not None:
                    return start + hit, end
            return None, len(plan)
        position = self._chunk_first_hit(fault, derived, 0, min(chunk, len(plan)))
        if position is None:
            position = self._first_hit_threaded(fault, derived, len(plan), chunk)
            if position is None:
                return None, len(plan)
        return position, min(len(plan), (position // chunk + 1) * chunk)

    # ------------------------------------------------------------------
    # Public detection APIs (thin wrappers that build the plans)
    # ------------------------------------------------------------------
    def detects(self, fault: Fault, sequences: list[TestSequence]) -> list[bool]:
        """For each candidate sequence, does it detect ``fault``?"""
        return self.scan(fault, ExplicitPlan(sequences))

    def observe(
        self, fault: Fault, sequences: list[TestSequence]
    ) -> list[FaultObservation]:
        """Detection time and flop divergence of each candidate sequence.

        One paired scan per ``batch_width`` candidates, each slot starting
        from the all-X state.  Always serial, also on a simulator with
        chunk threads.
        """
        times, divergence = self._observe(
            fault, self._derive(ExplicitPlan(sequences))
        )
        return list(
            map(
                FaultObservation,
                times,
                divergence.maximum,
                divergence.final,
                divergence.area,
            )
        )

    def observe_population(
        self, fault: Fault, bits, lengths
    ) -> tuple[list[int | None], ScanDivergence]:
        """:meth:`observe` of a population bit matrix — a genetic
        population's whole fitness pass, with no sequence per candidate.

        ``bits`` is a ``(P, T, W)`` uint8 array over the circuit's ``W``
        inputs and candidate ``p`` is the first ``lengths[p]`` rows of
        ``bits[p]``.  Flattened to ``(P * T, W)`` the matrix is the
        explicit-candidate base as it stands, and slot ``p`` is its run
        ``[p * T, p * T + lengths[p])``.  Returns each candidate's
        detection time and the scan's divergence outputs, in population
        order.
        """
        count, steps, width = bits.shape
        if width != self._compiled.num_inputs:
            raise SimulationError(
                f"candidate width {width} != circuit inputs "
                f"{self._compiled.num_inputs}"
            )
        rows = np.zeros((count, 4), dtype=np.int32)
        rows[:, 2] = np.arange(count) * steps
        rows[:, 3] = rows[:, 2] + lengths
        derived = (
            bits.reshape(count * steps, width),
            _NO_KEPT,
            rows,
            IDENTITY_EXPANSION,
        )
        return self._observe(fault, derived)

    def detects_windows(
        self,
        fault: Fault,
        base: TestSequence,
        spans: list[tuple[int, int]],
        expansion: ExpansionConfig,
    ) -> list[bool]:
        """Does ``expand(base[start..end], expansion)`` detect ``fault``?

        One outcome per ``(start, end)`` (inclusive) span — Procedure 2's
        window-search candidates, derived from the shared base without
        materializing any expanded sequence.
        """
        return self.scan(fault, WindowRampPlan(base, spans, expansion))

    def detects_omissions(
        self,
        fault: Fault,
        base: TestSequence,
        omit_indices: Sequence[int],
        expansion: ExpansionConfig,
    ) -> list[bool]:
        """Does ``expand(base.omit(index), expansion)`` detect ``fault``?

        One outcome per omitted index — Procedure 2's vector-omission
        candidates, derived from the shared base.
        """
        return self.scan(fault, OmissionPlan(base, omit_indices, expansion))

    def first_detecting_window(
        self,
        fault: Fault,
        base: TestSequence,
        spans: list[tuple[int, int]],
        expansion: ExpansionConfig,
        chunk: int | None = None,
    ) -> tuple[int | None, int]:
        """Position of the first detecting span, scanning in list order.

        See :meth:`first_hit` for the ``(position, evaluated)`` contract.
        """
        return self.first_hit(fault, WindowRampPlan(base, spans, expansion), chunk)

    def first_detecting_omission(
        self,
        fault: Fault,
        base: TestSequence,
        omit_indices: Sequence[int],
        expansion: ExpansionConfig,
        chunk: int | None = None,
    ) -> tuple[int | None, int]:
        """Position of the first detecting omission, scanning in order.

        See :meth:`first_hit` for the ``(position, evaluated)`` contract.
        """
        return self.first_hit(
            fault, OmissionPlan(base, omit_indices, expansion), chunk
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _first_hit_chunk(self, chunk: int | None) -> int:
        if chunk is None:
            return self._batch_width
        if chunk < 1:
            raise SimulationError(f"first-hit chunk must be >= 1, got {chunk}")
        return chunk

    def _check_widths(self, sequences: list[TestSequence]) -> None:
        width = self._compiled.num_inputs
        for sequence in sequences:
            if len(sequence) and sequence.width != width:
                raise SimulationError(
                    f"candidate width {sequence.width} != circuit inputs {width}"
                )

    def _gate_evals(self, derived) -> int:
        """Gate evaluations a scan of ``derived`` runs: ops x machines x
        slot-steps, each candidate counted at its expanded length (only
        weighed when chunk threads could fan the scan out)."""
        _, kept, rows, expansion = derived
        if self._threads <= 1 or len(rows) <= self._batch_width:
            return 0  # a single pass never fans out: skip the count
        slot_steps = int(_candidate_lengths(kept, rows, expansion).sum())
        # Paired scans run a good and a faulty machine per slot.
        return 2 * len(self._compiled.ops) * slot_steps

    def _first_hit_threaded(
        self, fault: Fault, derived, count: int, chunk: int
    ) -> int | None:
        """The minimum detecting position of candidates ``chunk:count``,
        on the pool.

        Each thread scans its chunk ``chunk`` candidates at a time and
        consults this dispatch's lock-guarded best position between
        steps: once the best precedes everything left in its chunk, the
        rest cannot change the answer and is abandoned.  Every chunk
        that could hold a smaller position keeps running, so the result
        is the serial scan's first hit for any chunk boundaries.
        """
        best: list[int | None] = [None]
        lock = threading.Lock()

        def scan_chunk(bounds: tuple[int, int]) -> None:
            start, end = bounds
            for low in range(start, end, chunk):
                with lock:
                    if best[0] is not None and best[0] <= low:
                        return
                high = min(low + chunk, end)
                hit = self._chunk_first_hit(fault, derived, low, high)
                if hit is not None:
                    with lock:
                        if best[0] is None or low + hit < best[0]:
                            best[0] = low + hit
                    return

        # Chunks are floored at the caller's serial chunk width (the
        # cancellation granularity), not the batch width: a scan usually
        # resolves long before its deepest chunks run, and abandoning a
        # narrow chunk wastes less than abandoning a full-width one.
        chunks = [
            (chunk + start, chunk + end)
            for start, end in chunk_bounds(count - chunk, self._threads, chunk)
        ]
        run_chunks(scan_chunk, chunks, self._threads)
        return best[0]

    def _check_base(self, base: TestSequence) -> None:
        width = self._compiled.num_inputs
        if len(base) and base.width != width:
            raise SimulationError(
                f"base width {base.width} != circuit inputs {width}"
            )

    def _derive(self, plan: ScanPlan):
        """``(base_bits, kept, rows, expansion)``: every candidate of
        ``plan`` as one descriptor row.

        Derived plans describe their candidates over their base, whose
        bits the session trace cache converts once per (circuit,
        sequence); an explicit plan's sequences are laid end to end as
        the base (:func:`_laid_end_to_end`).  Validates the base's or
        the candidates' width.
        """
        if plan.kind == "explicit":
            self._check_widths(plan.items)
            return _laid_end_to_end(plan.items, self._compiled.num_inputs)
        self._check_base(plan.base)
        base_bits = self._trace_cache.base_bits(plan.base)
        kept, rows = plan.descriptor(base_bits.shape[0])
        return base_bits, kept, rows, plan.expansion

    def _derived_batch(self, derived, start: int, end: int) -> _DerivedStimulus:
        """Candidates ``start:end`` of a :meth:`_derive` result as one batch."""
        base_bits, kept, rows, expansion = derived
        rows = rows[start:end]
        return _DerivedStimulus(
            base_bits,
            kept,
            rows,
            expansion,
            self._compiled.num_inputs,
            self._pad_width(len(rows)),
        )

    def _batches(self, derived, start: int, end: int):
        """``(low, batch)`` for candidates ``start:end`` of a
        :meth:`_derive` result, ``batch_width`` at a time, in order."""
        for low in range(start, end, self._batch_width):
            yield low, self._derived_batch(
                derived, low, min(low + self._batch_width, end)
            )

    def _chunk_first_hit(
        self, fault: Fault, derived, start: int, end: int
    ) -> int | None:
        """The first detecting candidate of ``start:end``, from ``start``.

        The per-chunk first-hit primitive of the serial scan and of the
        chunk threads alike: batches run in plan order in the backend's
        first-hit mode, stopping at the first batch that detects.
        """
        for low, batch in self._batches(derived, start, end):
            times = self._scan_times(fault, batch, first_hit=True)
            hit = next((i for i, time in enumerate(times) if time is not None), None)
            if hit is not None:
                return low - start + hit
        return None

    def _scan_range(self, fault: Fault, derived, start: int, end: int) -> list[bool]:
        """Detection outcomes of candidates ``start:end``, batch by batch:
        the serial primitive :meth:`scan` runs whole or per chunk."""
        return [
            time is not None
            for _, batch in self._batches(derived, start, end)
            for time in self._scan_times(fault, batch)
        ]

    def _observe(self, fault: Fault, derived) -> tuple[list, ScanDivergence]:
        """Detection times and divergence outputs of every candidate of
        a :meth:`_derive` result, batch after batch, joined in order."""
        times: list[int | None] = []
        joined = ScanDivergence(0)
        for _, batch in self._batches(derived, 0, len(derived[2])):
            divergence = ScanDivergence(batch.num_slots)
            times += self._scan_times(fault, batch, divergence)
            joined.maximum += divergence.maximum
            joined.final += divergence.final
            joined.area += divergence.area
        return times, joined

    def _pad_width(self, count: int) -> int:
        """Slot width a ``count``-candidate batch is padded to.

        The smallest rung of the halving ladder ``batch_width``,
        ``batch_width/2``, ``batch_width/4``, ... that holds ``count``.
        Stable rungs keep the backend program LRU at a handful of entries
        per fault (no per-trailing-size recompiles) without padding far
        past the real batch — e.g. Procedure 2's search batches (half the
        omission width) pad to their own rung, not to double the slots.
        """
        width = self._batch_width
        while width // 2 >= count:
            width //= 2
        return width

    def _scan_times(
        self,
        fault: Fault,
        stimulus,
        divergence: ScanDivergence | None = None,
        first_hit: bool = False,
    ) -> list[int | None]:
        """Drive one candidate batch; return per-slot detection times.

        The batch is opened at the stimulus's padded width (see
        :meth:`_pad_width`) — dead slots beyond the real candidates are
        masked out of ``alive`` — so the backend LRU serves a small set
        of cached programs per fault for the whole search.
        ``divergence`` collects the scan's per-slot flop-divergence
        outputs; ``first_hit`` reads only the lowest detecting slot (see
        :meth:`~repro.sim.backend.SimBackend.run_scan`).
        """
        if not stimulus.num_slots:
            return []
        backend = self._backend
        batch_width = stimulus.batch_width
        last = self._last_programs
        if last is not None and last[0] is fault and last[1] == batch_width:
            good_program, faulty_program = last[2:]
        else:
            good_program = backend.program(None)
            faulty_program = backend.program((fault,) * batch_width)
            self._last_programs = (fault, batch_width, good_program, faulty_program)
        good = backend.batch(good_program, batch_width)
        faulty = backend.batch(faulty_program, batch_width)
        # The whole per-step loop — input load, paired eval, detection,
        # first-hit bookkeeping, state latch — lives in run_scan.
        return backend.run_scan(
            good,
            faulty,
            stimulus,
            None,
            stimulus.alive_masks,
            divergence=divergence,
            first_hit=first_hit,
        )


def make_sequence_simulator(
    circuit: Circuit | CompiledCircuit,
    batch_width: int = DEFAULT_SEQ_BATCH_WIDTH,
    backend: str | SimBackend | None = None,
    workers: int | None = 1,
    parallel: str | None = None,
) -> SequenceBatchSimulator:
    """The work-distribution seam for every candidate-simulation consumer.

    :func:`~repro.sim.workerpool.resolve_execution` turns ``parallel``
    and ``workers`` into a thread count, as for
    :func:`~repro.sim.faultsim.make_fault_simulator`.  Outcomes, first-hit
    winners and evaluated counts are bit-identical across every setting.
    """
    _, threads = resolve_execution(parallel, workers)
    return SequenceBatchSimulator(
        circuit, batch_width=batch_width, backend=backend, threads=threads
    )
