"""Pluggable simulation backend layer.

Every bit-parallel engine in this package (fault-free logic simulation,
parallel-fault simulation, parallel-sequence simulation) runs the same
abstract loop over a compiled circuit:

1. **compile** — lower an :class:`~repro.sim.compiled.InjectionPlan` into a
   backend-native combinational program (:meth:`SimBackend.program`);
2. **load inputs** — write one time step's primary-input values into every
   slot of the batch;
3. **eval combinational** — run the program over the ``(H, L)`` words;
4. **observe POs** — read primary outputs (with per-PO fault patches) for
   the detection comparison;
5. **advance state** — latch the flop ``D`` values (with per-flop fault
   patches) as the next cycle's state.

:class:`SimBackend` is the seam between that loop and the data
representation.  The ``python`` backend keeps the historical
arbitrary-precision-integer kernel (one big int per signal per rail); the
``native`` backend stores the rails as contiguous ``uint64`` arrays
(:mod:`repro.sim.backend_numpy`) and drives the hot loops from a lazily
compiled C kernel (:mod:`repro.sim.backend_native`).
All observe the **(H, L) encoding contract** of
:mod:`repro.logic.encoding`: per slot, ``H`` set means 1, ``L`` set means
0, neither means X, and both set never occurs.

All slot masks crossing the backend boundary (detection masks, per-flop
state words, packed input columns) are plain Python integers, so the
simulators' bookkeeping is backend-independent and results are
bit-identical across backends by construction.

Backends also memoize compiled programs per fault batch
(:meth:`SimBackend.program` keeps a small LRU), which makes the thousands
of repeated Procedure 2 trials against the same fault free of recompilation
cost.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Sequence

from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.logic.values import ONE, X, ZERO, Ternary
from repro.sim.compiled import CompiledCircuit

#: Default backend used when a consumer does not select one explicitly.
DEFAULT_BACKEND = "python"

#: Selector name for adaptive per-circuit/per-batch backend resolution.
AUTO_BACKEND = "auto"

#: Crossovers for the compiled C kernel (``native``), fault axis and
#: paired candidate axis, measured with `benchmarks/bench_faultsim.py` /
#: `bench_seqsim.py` on the catalog circuits.  The native engine removes
#: all interpreter dispatch overhead, so it overtakes the big-int kernel
#: almost immediately: by syn298 (119 gates) it already leads both axes,
#: and the gap widens monotonically with circuit size.  The thresholds
#: sit under the smallest catalog circuit; only toy circuits
#: (pedagogical examples, unit-test fixtures) stay on the big-int
#: kernel, where build/ctypes overhead is not worth amortizing.
AUTO_NATIVE_GATE_THRESHOLD = 64
AUTO_NATIVE_PAIRED_GATE_THRESHOLD = 64

#: Batch widths ``"auto"`` clamps to when it resolves the big-int kernel:
#: python throughput peaks near these slot counts (fault axis / paired
#: candidate axis), so an auto consumer handed word-engine-tuned wide
#: batches narrows them instead of dragging huge ints past the sweet spot.
AUTO_PYTHON_FAULT_WIDTH = 192
AUTO_PYTHON_PAIRED_WIDTH = 96

#: Max entries kept in each backend's per-fault-batch program cache.
PROGRAM_CACHE_SIZE = 256

#: Rough per-circuit memory budget for cached programs, in signal units
#: (a compiled program's size scales with the circuit's signal count, for
#: both backends).  Shrinks the entry cap on large circuits so a sweep of
#: one-shot wide batches cannot pin hundreds of megabyte-scale op lists.
PROGRAM_CACHE_SIGNAL_BUDGET = 4_000_000


# ----------------------------------------------------------------------
# Dispatch accounting
# ----------------------------------------------------------------------
#: Process-wide backend-boundary dispatch counters.  ``native_ffi_calls``
#: counts actual ctypes crossings into the C kernel; ``scan_calls`` /
#: ``scan_steps`` count whole-sequence scans and the time steps they
#: simulated; ``fault_axis_faulty_ops`` / ``fault_axis_good_ops`` and
#: ``candidate_axis_faulty_ops`` / ``candidate_axis_good_ops`` the ops
#: the native kernel evaluated per axis for the faulty and the good
#: machines, summed over scan steps (an op evaluated in several words of
#: a step counts once); ``trace_calls`` / ``trace_steps`` count
#: fault-free traces (:meth:`SimBackend.run_good_trace`) and their
#: vectors;
#: ``program_compiles`` counts program-cache misses
#: (:meth:`SimBackend.program`) and ``session_repacks`` the times a
#: :class:`~repro.sim.faultsim.FaultSimSession` re-packed its live
#: slots into dense batches.  ``fault_sim_runs`` counts one-shot
#: :meth:`~repro.sim.faultsim.FaultSimulator.run` calls, once per call
#: however many batches or chunks it spans; ``chunk_fanouts`` counts
#: dispatches that handed chunks to the chunk-thread pool
#: (:mod:`repro.sim.workerpool`) and ``pool_chunks`` the chunks that ran
#: on pool threads rather than on their calling thread.  Chunk threads
#: and concurrent serving lanes all record into this one table, so
#: updates take the lock below — a plain dict read-modify-write would
#: silently drop counts under contention.
_DISPATCH_COUNTERS: dict[str, int] = {}
_DISPATCH_LOCK = threading.Lock()


def record_dispatch(kind: str, count: int = 1) -> None:
    """Add ``count`` dispatches of ``kind`` to the process counters."""
    with _DISPATCH_LOCK:
        _DISPATCH_COUNTERS[kind] = _DISPATCH_COUNTERS.get(kind, 0) + count


def record_dispatches(counts: dict[str, int]) -> None:
    """Add several dispatch counts under one lock acquisition."""
    with _DISPATCH_LOCK:
        for kind, count in counts.items():
            _DISPATCH_COUNTERS[kind] = _DISPATCH_COUNTERS.get(kind, 0) + count


def dispatch_counters() -> dict[str, int]:
    """A snapshot of the process dispatch counters."""
    with _DISPATCH_LOCK:
        return dict(_DISPATCH_COUNTERS)


def reset_dispatch_counters() -> None:
    """Zero the process dispatch counters (benchmark bracketing)."""
    with _DISPATCH_LOCK:
        _DISPATCH_COUNTERS.clear()


def base_bits_of(sequence, width: int):
    """``sequence`` as a ``(len(sequence), width)`` uint8 bit matrix.

    The one conversion of a test sequence to array form (requires
    numpy): the native kernel's fault-axis scan and fault-free trace
    read it, and the derived-candidate pipeline takes it from the trace
    cache
    (:meth:`~repro.sim.trace.GoodTraceCache.base_bits`).
    """
    import numpy as np

    if len(sequence):
        return np.asarray(sequence.vectors(), dtype=np.uint8)
    return np.zeros((0, width), dtype=np.uint8)


class BroadcastStimulus:
    """Whole-sequence fault-axis stimulus: one scalar vector per step.

    The :meth:`SimBackend.run_scan` stimulus for the fault axis — every
    slot of the (single faulty) batch receives the same per-step primary
    input vector, broadcast across slots.  ``bits()`` exposes the whole
    sequence as a ``(num_steps, num_inputs)`` uint8 array for array
    backends: the ``bits`` the caller already holds (one matrix shared by
    every batch of a call), else converted on first use (requires numpy).
    """

    __slots__ = ("sequence", "num_steps", "num_slots", "_bits")

    def __init__(self, sequence, num_slots: int, bits=None) -> None:
        self.sequence = sequence
        self.num_steps = len(sequence)
        self.num_slots = num_slots
        self._bits = bits

    def load_step(self, t: int, good, faulty) -> None:
        faulty.load_inputs_broadcast(self.sequence[t])

    def bits(self):
        if self._bits is None:
            self._bits = base_bits_of(self.sequence, self.sequence.width)
        return self._bits


class ScanDivergence:
    """Per-slot flop-divergence outputs of a paired :meth:`SimBackend.run_scan`.

    After each step's flop latch, every slot live at that step (alive and
    not detected before it) counts the flops where its good and faulty
    machines hold opposite binary values, ``(Hg & Lf) | (Lg & Hf)``.
    ``maximum`` keeps the largest count, ``final`` the last live step's
    count and ``area`` their sum — the state-divergence guidance the
    genetic phase steers by.  Lists start at zero and are filled in place.
    """

    __slots__ = ("maximum", "final", "area")

    def __init__(self, num_slots: int) -> None:
        self.maximum = [0] * num_slots
        self.final = [0] * num_slots
        self.area = [0] * num_slots

    def accumulate(
        self,
        good_state: Sequence[tuple[int, int]],
        faulty_state: Sequence[tuple[int, int]],
        live: int,
    ) -> None:
        """Add one latched step (per-flop ``(H, L)`` words) to ``live`` slots."""
        counts: dict[int, int] = {}
        for (gh, gl), (fh, fl) in zip(good_state, faulty_state):
            diverged = ((gh & fl) | (gl & fh)) & live
            while diverged:
                low = diverged & -diverged
                slot = low.bit_length() - 1
                counts[slot] = counts.get(slot, 0) + 1
                diverged ^= low
        while live:
            low = live & -live
            slot = low.bit_length() - 1
            live ^= low
            count = counts.get(slot, 0)
            if count > self.maximum[slot]:
                self.maximum[slot] = count
            self.final[slot] = count
            self.area[slot] += count


class GoodMachine:
    """The fault-free machine a fault-axis :meth:`SimBackend.run_scan` checks.

    Every batch of one fault-axis dispatch compares against the same
    good machine: ``state`` is its per-flop start state (``None`` =
    all-X).  Engines that run it inside their scan (the native kernel)
    read ``state`` — converted once to their own form and kept in
    ``engine_state`` for every batch — and, after a scan that collects
    final states, set ``final_state``.  The others read its observation
    plan row by row (:meth:`row`, as an
    :class:`~repro.sim.trace.ObservationPlan`), simulated on first use by
    ``simulate`` — a callable returning the plan and the final state
    (``None`` when not needed).
    """

    __slots__ = ("state", "final_state", "engine_state", "_simulate", "_plan", "_lock")

    def __init__(self, state: "list[Ternary] | None", simulate) -> None:
        self.state = state
        self.final_state: list[Ternary] | None = None
        self.engine_state = None
        self._simulate = simulate
        self._plan = None
        self._lock = threading.Lock()

    def plan(self):
        """The observation plan, simulated once (chunk threads may ask)."""
        with self._lock:
            if self._plan is None:
                self._plan, final_state = self._simulate()
                if final_state is not None:
                    self.final_state = final_state
            return self._plan

    def row(self, t: int):
        """Step ``t``'s binary PO ``(positions, values)``."""
        plan = self._plan
        return (plan if plan is not None else self.plan()).row(t)

    def end_state(self) -> "list[Ternary]":
        """The final state: as a scan stored it, else simulated."""
        if self.final_state is None:
            self.plan()
        return self.final_state


class SimProgram:
    """A backend-compiled combinational program for one fault batch.

    Opaque to the simulators: they obtain one from
    :meth:`SimBackend.program` and hand it back to
    :meth:`SimBackend.batch`.  ``key`` is the fault tuple the program was
    compiled for (``None`` = fault-free).
    """

    __slots__ = ("key",)

    def __init__(self, key: tuple[Fault, ...] | None) -> None:
        self.key = key


class SimBatch(ABC):
    """One in-flight batch of slot machines over a compiled program.

    The per-time-step calling sequence is::

        load_inputs_broadcast(...)   # or load_inputs_packed(...)
        load_state()
        apply_source_patches()
        eval()
        ... observe_po() / detect_mask() ...
        capture_state()

    State starts all-X; :meth:`set_state_words` /
    :meth:`set_state_scalar` override it before the first step, and
    :meth:`export_state_words` reads it back.  Per-flop ``(H, L)`` words
    are the only per-slot state interchange: a caller that keeps
    machines between batches (a fault session) stores these words.
    """

    @abstractmethod
    def load_inputs_broadcast(self, bits: Sequence[int]) -> None:
        """Drive each PI with one scalar bit, replicated into every slot."""

    @abstractmethod
    def load_inputs_packed(self, ones: Sequence[int], zeros: Sequence[int]) -> None:
        """Drive each PI with per-slot values given as (ones, zeros) masks."""

    def load_inputs_words(self, ones_words, zeros_words) -> None:
        """Drive each PI from ``(num_pis, words)`` little-endian ``uint64``
        matrices (row ``p`` packs PI ``p``'s per-slot values, 64 slots per
        word).

        This is the zero-copy ingestion path for NumPy-packed candidate
        columns (:mod:`repro.sim.seqsim`).  The default converts each row
        back to a Python-int mask and defers to
        :meth:`load_inputs_packed`; array-native backends override it with
        a direct scatter.
        """
        self.load_inputs_packed(
            [int.from_bytes(row.tobytes(), "little") for row in ones_words],
            [int.from_bytes(row.tobytes(), "little") for row in zeros_words],
        )

    @abstractmethod
    def load_state(self) -> None:
        """Write the current flop state into the flop-output signals."""

    @abstractmethod
    def apply_source_patches(self) -> None:
        """Force stuck values on faulted PI / flop-output stems."""

    @abstractmethod
    def eval(self) -> None:
        """Evaluate the combinational program over the current signals."""

    @abstractmethod
    def observe_po(self, position: int) -> tuple[int, int]:
        """The ``(H, L)`` Python-int masks of PO ``position`` (patched)."""

    @abstractmethod
    def detect_mask(self, positions: Sequence[int], values: Sequence[int]) -> int:
        """Slots whose PO response contradicts the fault-free machine.

        ``positions`` are the POs binary in the fault-free machine this
        time step and ``values`` their 0/1 good values (one
        :meth:`~repro.sim.trace.ObservationPlan.row`).
        """

    @abstractmethod
    def capture_state(self) -> None:
        """Latch the flop ``D`` values (with flop patches) as next state."""

    @abstractmethod
    def set_state_words(self, state: Sequence[tuple[int, int]]) -> None:
        """Set every slot's flop state from per-flop ``(H, L)`` words.

        The inverse of :meth:`export_state_words`: ``state[f]`` holds
        flop ``f``'s rails, slot ``s`` in bit ``s``.
        """

    @abstractmethod
    def set_state_scalar(self, values: Sequence[Ternary]) -> None:
        """Set every slot's flop state from one scalar ternary vector."""

    @abstractmethod
    def read_signal(self, index: int) -> tuple[int, int]:
        """The raw ``(H, L)`` Python-int masks of signal ``index``."""

    def export_state_scalar(self) -> list[Ternary]:
        """Slot 0's flop state as scalar ternary values."""
        values: list[Ternary] = []
        for h, l in self.export_state_words():
            if h & 1:
                values.append(ONE)
            elif l & 1:
                values.append(ZERO)
            else:
                values.append(X)
        return values

    @abstractmethod
    def export_state_words(self) -> list[tuple[int, int]]:
        """Current flop states as per-flop ``(H, L)`` Python-int pairs."""


class SimBackend(ABC):
    """A simulation engine implementation bound to one compiled circuit."""

    #: Registry name ("python", "native").
    name: str = "abstract"
    #: Slot granularity of the backend's words: batches are stored in
    #: units of this many slots.  ``None`` means arbitrary precision (the
    #: big-int backend); the native backend uses 64 and rounds storage up
    #: to whole words.
    word_width: int | None = None
    #: Whether the fault-axis :meth:`run_scan` and :meth:`run_good_trace`
    #: read the whole sequence through :meth:`BroadcastStimulus.bits`
    #: (the native kernel) rather than stepping
    #: :meth:`BroadcastStimulus.load_step`.  Callers that trace and scan
    #: one sequence over many batches convert it once when set.
    scans_bits: bool = False
    #: Whether :meth:`run_scan` releases the GIL for the whole scan (one
    #: ctypes call on the native kernel), so chunk threads
    #: (:mod:`repro.sim.workerpool`) can scan in parallel.  Engines that
    #: hold it (the big-int kernel) run every dispatch serially.
    releases_gil: bool = False

    def __init__(self, compiled: CompiledCircuit) -> None:
        self._compiled = compiled
        self._programs: OrderedDict[tuple[Fault, ...] | None, SimProgram] = (
            OrderedDict()
        )
        # One backend instance is shared by every consumer of a compiled
        # circuit (see get_backend), including concurrent serving lanes,
        # so the LRU's pop/insert/evict must be atomic.
        self._program_lock = threading.Lock()
        self._program_cache_limit = max(
            8,
            min(
                PROGRAM_CACHE_SIZE,
                PROGRAM_CACHE_SIGNAL_BUDGET // max(1, compiled.num_signals),
            ),
        )

    @property
    def compiled(self) -> CompiledCircuit:
        return self._compiled

    def validate_batch_width(self, batch_width: int) -> int:
        """Check a requested batch width against this backend's words.

        Returns the width unchanged when acceptable; raises
        :class:`~repro.errors.SimulationError` otherwise.
        """
        if batch_width < 1:
            raise SimulationError(
                f"batch width must be >= 1, got {batch_width}"
            )
        return batch_width

    def program(self, faults: tuple[Fault, ...] | None) -> SimProgram:
        """The compiled program for ``faults`` (LRU-cached per batch).

        Fault ``i`` of the tuple occupies slot ``i``; ``None`` compiles the
        fault-free program.  Repeated requests for the same batch (the
        normal case in Procedure 2's trial loops) return the cached
        program without rebuilding op lists.
        """
        cache = self._programs
        with self._program_lock:
            program = cache.pop(faults, None)
            if program is not None:
                cache[faults] = program
                return program
        # Compile outside the lock: two lanes racing on the same new
        # batch may both compile, but the loser's program is simply
        # dropped — correctness never depends on cache identity.
        record_dispatch("program_compiles")
        program = self._compile_program(faults)
        with self._program_lock:
            cached = cache.pop(faults, None)
            if cached is not None:
                program = cached
            cache[faults] = program
            while len(cache) > self._program_cache_limit:
                cache.popitem(last=False)
        return program

    @abstractmethod
    def _compile_program(self, faults: tuple[Fault, ...] | None) -> SimProgram:
        """Lower ``faults`` into a backend-native program (uncached)."""

    @abstractmethod
    def batch(self, program: SimProgram, batch_size: int) -> SimBatch:
        """Open a fresh batch of ``batch_size`` all-X machines."""

    def detect_step(self, good: SimBatch, faulty: SimBatch, alive_mask: int) -> int:
        """Paired-batch detection: slots where ``faulty`` contradicts ``good``.

        Both batches must have been evaluated for the same time step with
        identical per-slot inputs; slot ``s`` of ``good`` runs the
        fault-free machine of candidate ``s`` and slot ``s`` of ``faulty``
        the faulted one.  A slot detects when some PO is binary in both
        machines with opposite values — ``(Hg & Lf) | (Lg & Hf)`` per PO,
        OR-reduced across all POs — masked by ``alive_mask`` (slots whose
        candidate sequence still covers this time step).

        This default walks :meth:`SimBatch.observe_po` per PO and is the
        semantic reference; backends override it with a fused pass over
        all POs at once.
        """
        if alive_mask == 0:
            return 0
        detected = 0
        for position in range(len(self._compiled.po_indices)):
            gh, gl = good.observe_po(position)
            fh, fl = faulty.observe_po(position)
            detected |= (gh & fl) | (gl & fh)
        return detected & alive_mask

    def run_scan(
        self,
        good: "SimBatch | None",
        faulty: SimBatch,
        packed_stimulus,
        observation_plan,
        alive_mask,
        *,
        collect_final_states: bool = False,
        divergence: ScanDivergence | None = None,
        first_hit: bool = False,
    ) -> "list[int | None]":
        """Execute a whole-sequence scan in one backend call.

        Runs every time step — input load, good/faulty evaluation, flop
        latch, detect reduction — and returns per-slot **first detection
        times** (``None`` for slots never detected).  This default is the
        per-step reference loop (the semantic gate the fused kernels are
        bit-identical to); array backends override it with fused
        multi-step kernels.

        Two axes share the primitive:

        * **paired candidate axis** (``observation_plan is None``):
          ``good`` and ``faulty`` run side by side, detection is
          :meth:`detect_step` across all POs, and ``alive_mask`` is a
          per-step sequence of slot masks (candidates end at different
          times; the masks shrink monotonically, so a drained live mask
          ends the scan).
        * **fault axis** (``observation_plan`` is the fault-free
          machine: a :class:`GoodMachine`, or a bare
          :class:`~repro.sim.trace.ObservationPlan`): ``good`` is
          ``None``, detection is :meth:`SimBatch.detect_mask` on the
          plan's row ``t``, and ``alive_mask`` is one constant int
          mask.  Engines may instead run a :class:`GoodMachine`
          themselves (the native kernel does); the plan is the
          specification they match.

        ``packed_stimulus`` supplies ``num_steps``, ``num_slots`` and
        ``load_step(t, good, faulty)`` (a candidate column packer or a
        :class:`BroadcastStimulus`).  State ownership: the batches'
        flop state advances exactly as the stepped calling sequence
        would — ``capture_state`` is skipped after the early-exiting
        step — and with ``collect_final_states`` the scan never exits
        early and latches every step, so
        :meth:`SimBatch.export_state_words` afterwards matches the
        stepped path bit for bit.

        ``divergence`` (paired axis only; ``None`` = off) receives the
        per-slot flop-divergence outputs described by
        :class:`ScanDivergence`, computed here from
        :meth:`SimBatch.export_state_words` after each latch.  With it
        on, the step on which the last pending slot detects still
        latches, so that step is counted too.

        ``first_hit`` (paired axis): only the lowest detecting slot
        matters.  Times are exact for every slot up to and including it;
        every later slot reads ``None``.  This loop simply blanks them;
        the native kernel stops simulating them, so it may also end the
        scan earlier.
        """
        if divergence is not None and good is None:
            raise SimulationError("flop divergence needs the paired candidate axis")
        num_steps = packed_stimulus.num_steps
        num_slots = packed_stimulus.num_slots
        steady = isinstance(alive_mask, int)
        pending = (1 << num_slots) - 1
        times: list[int | None] = [None] * num_slots
        executed = 0
        for t in range(num_steps):
            live = (alive_mask if steady else alive_mask[t]) & pending
            if live == 0 and not collect_final_states:
                # Alive masks only shrink (candidates end, detections
                # clear pending), so nothing can detect from here on.
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
                detected_now = self.detect_step(good, faulty, live)
            else:
                detected_now = faulty.detect_mask(*observation_plan.row(t)) & live
            if detected_now:
                slot = 0
                remaining = detected_now
                while remaining:
                    if remaining & 1:
                        times[slot] = t
                    remaining >>= 1
                    slot += 1
                pending &= ~detected_now
                if pending == 0 and not collect_final_states and divergence is None:
                    break
            if good is not None:
                good.capture_state()
            faulty.capture_state()
            if divergence is not None:
                divergence.accumulate(
                    good.export_state_words(), faulty.export_state_words(), live
                )
                if pending == 0 and not collect_final_states:
                    break
        if first_hit:
            winner = next(
                (slot for slot, time in enumerate(times) if time is not None),
                num_slots,
            )
            times[winner + 1 :] = [None] * (num_slots - winner - 1)
        record_dispatch("scan_calls")
        record_dispatch("scan_steps", executed)
        return times

    def run_good_trace(
        self,
        batch: SimBatch,
        stimulus: BroadcastStimulus,
        *,
        record_signals: bool = False,
    ) -> "tuple[list[list[Ternary]], list[list[Ternary]] | None]":
        """Simulate the fault-free machine in slot 0 of ``batch``.

        Runs every step of ``stimulus`` from the batch's current flop
        state (load inputs, load state, eval, observe, latch) and returns
        ``(po_values, signal_values)``: per-step scalar PO values and,
        with ``record_signals``, every signal's value per step (else
        ``None``).  The batch's state advances through the last step, so
        :meth:`SimBatch.export_state_scalar` afterwards is the final
        state.  ``batch`` must be a 1-slot batch of the fault-free
        program.

        This default is the per-step reference loop, and the only path
        that records signals; the native backend overrides the
        PO-only trace with one kernel call per sequence.
        """
        compiled = self._compiled
        num_outputs = len(compiled.po_indices)
        po_values: list[list[Ternary]] = []
        signal_values: list[list[Ternary]] | None = [] if record_signals else None
        for t in range(stimulus.num_steps):
            stimulus.load_step(t, None, batch)
            batch.load_state()
            batch.eval()
            po_values.append(
                [_scalar(*batch.observe_po(p)) for p in range(num_outputs)]
            )
            if signal_values is not None:
                signal_values.append(
                    [
                        _scalar(*batch.read_signal(i))
                        for i in range(compiled.num_signals)
                    ]
                )
            batch.capture_state()
        record_dispatch("trace_calls")
        record_dispatch("trace_steps", stimulus.num_steps)
        return po_values, signal_values


def _scalar(h: int, l: int) -> Ternary:
    """Slot 0 of an ``(H, L)`` mask pair as a scalar ternary value."""
    if h & 1:
        return ONE
    if l & 1:
        return ZERO
    return X


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Guards the per-compiled-circuit backend-instance memo in get_backend:
#: concurrent serving lanes resolving the same circuit must converge on
#: one shared instance (and therefore one program cache).
_BACKEND_MEMO_LOCK = threading.Lock()


def _load_python_backend() -> type[SimBackend]:
    from repro.sim.backend_python import PythonBackend

    return PythonBackend


def _load_native_backend() -> type[SimBackend]:
    try:
        import numpy  # noqa: F401
    except ImportError as error:  # pragma: no cover - numpy ships in CI
        raise SimulationError(
            "the 'native' simulation backend requires numpy; install it or "
            "select backend='python'"
        ) from error
    # Compiles the C kernel on first use; raises SimulationError with the
    # unavailability reason (no compiler, failed build, REPRO_NO_NATIVE).
    from repro.sim.native_build import load_native_library

    load_native_library()
    from repro.sim.backend_native import NativeBackend

    return NativeBackend


_REGISTRY = {
    "python": _load_python_backend,
    "native": _load_native_backend,
}


def registry_backends() -> list[str]:
    """Every registered backend name, whether or not it is usable here.

    Parity suites parametrize over this (not :func:`available_backends`)
    so an engine that cannot run on the current machine shows up as an
    explicit skip with :func:`backend_unavailable_reason`, never as
    silent absence.
    """
    return list(_REGISTRY)


def check_backend_name(name: str) -> None:
    """Reject a ``backend=`` name that is neither registered nor ``"auto"``.

    Raises :class:`ValueError`, like the other config-field checks.
    Checks the name only: nothing is probed or compiled, so a registered
    engine that cannot run here still fails later, with its reason.
    """
    names = registry_backends() + [AUTO_BACKEND]
    if name not in names:
        raise ValueError(f"backend must be one of {names}, got {name!r}")


def backend_unavailable_reason(name: str) -> str | None:
    """Why backend ``name`` cannot be used here, or ``None`` if it can.

    Probing may do real work (the native backend compiles its kernel on
    the first probe), after which the answer is memoized by the loader.
    """
    loader = _REGISTRY.get(name)
    if loader is None:
        return f"unknown backend {name!r}; registered: {registry_backends()}"
    try:
        loader()
    except SimulationError as error:
        return str(error)
    return None


def available_backends() -> list[str]:
    """Backend names accepted by ``backend=`` selectors, best first."""
    names = []
    for name, loader in _REGISTRY.items():
        try:
            loader()
        except SimulationError:
            continue
        names.append(name)
    return names


def _auto_usable(name: str) -> bool:
    """Availability probe for ``auto`` resolution (never raises)."""
    try:
        _REGISTRY[name]()
    except SimulationError:
        return False
    return True


def resolve_backend_name(
    compiled: CompiledCircuit,
    backend: str | None,
    paired: bool = False,
) -> str:
    """Resolve a backend *name* selector, expanding :data:`AUTO_BACKEND`.

    ``"auto"`` picks the engine the benchmarks show fastest for this
    circuit, per axis: ``native`` at or above its measured gate-count
    crossover (:data:`AUTO_NATIVE_GATE_THRESHOLD` /
    :data:`AUTO_NATIVE_PAIRED_GATE_THRESHOLD`, fault / paired candidate
    axis) when it is usable here, else ``python``.  An unavailable
    native engine (numpy not importable, no C compiler,
    ``REPRO_NO_NATIVE``) is silently skipped.
    The choice is deterministic in ``(circuit, paired)`` on a given
    machine.  Results are bit-identical either way; only
    throughput differs.
    """
    name = backend or DEFAULT_BACKEND
    if name != AUTO_BACKEND:
        return name
    threshold = (
        AUTO_NATIVE_PAIRED_GATE_THRESHOLD if paired else AUTO_NATIVE_GATE_THRESHOLD
    )
    if len(compiled.ops) >= threshold and _auto_usable("native"):
        return "native"
    return "python"


def engines_release_gil(compiled: CompiledCircuit, backend: str | None) -> bool:
    """Whether an engine ``backend`` resolves to on ``compiled`` releases the GIL.

    Either axis counts (:func:`resolve_backend_name` per axis); an
    engine that cannot run here does not.  When none does, chunk
    threads could only take turns, so the run is serial.
    """
    names = {resolve_backend_name(compiled, backend, axis) for axis in (False, True)}
    return any(
        _auto_usable(name) and _REGISTRY[name]().releases_gil for name in names
    )


def resolve_auto(
    compiled: CompiledCircuit,
    backend: "str | SimBackend | None",
    batch_width: int,
    paired: bool = False,
) -> "tuple[str | SimBackend | None, int]":
    """Adaptive backend *and batch width* resolution for a simulator.

    Non-``"auto"`` selectors (names, instances, ``None``) pass through
    with the requested width untouched.  ``"auto"`` resolves the engine
    via :func:`resolve_backend_name` and, when that lands on the big-int
    kernel, clamps the batch width down to the kernel's measured sweet
    spot (:data:`AUTO_PYTHON_FAULT_WIDTH` /
    :data:`AUTO_PYTHON_PAIRED_WIDTH`) — batch widths never change
    results, so an auto consumer configured with native-tuned wide
    batches gets the python-tuned shape instead of oversized ints.
    """
    if not isinstance(backend, str) or backend != AUTO_BACKEND:
        return backend, batch_width
    name = resolve_backend_name(compiled, backend, paired)
    if name == "python":
        sweet_spot = (
            AUTO_PYTHON_PAIRED_WIDTH if paired else AUTO_PYTHON_FAULT_WIDTH
        )
        batch_width = min(batch_width, sweet_spot) if batch_width > 0 else batch_width
    return name, batch_width


def get_backend(
    compiled: CompiledCircuit,
    backend: "str | SimBackend | None" = None,
) -> SimBackend:
    """Resolve a ``backend=`` selector against a compiled circuit.

    Accepts a registry name (including ``"auto"``, resolved by gate count
    via :func:`resolve_backend_name`; batch-shape-aware consumers go
    through :func:`resolve_auto` first), an existing :class:`SimBackend`
    instance (which must be bound to the same compiled circuit), or
    ``None`` for :data:`DEFAULT_BACKEND`.  Instances are memoized on the
    compiled circuit so every consumer of the same circuit shares one
    backend — and therefore one program cache.
    """
    if isinstance(backend, SimBackend):
        if backend.compiled is not compiled:
            raise SimulationError(
                "backend instance is bound to a different compiled circuit"
            )
        return backend
    name = resolve_backend_name(compiled, backend)
    loader = _REGISTRY.get(name)
    if loader is None:
        raise SimulationError(
            f"unknown simulation backend {name!r}; "
            f"available: {available_backends()}"
        )
    with _BACKEND_MEMO_LOCK:
        cache: dict[str, SimBackend] = compiled.__dict__.setdefault(
            "_sim_backends", {}
        )
        instance = cache.get(name)
    if instance is None:
        instance = loader()(compiled)
        with _BACKEND_MEMO_LOCK:
            instance = cache.setdefault(name, instance)
    return instance
