"""Bit-parallel parallel-fault simulation.

One input sequence, many faults: each bit slot of the ``(H, L)`` words is
an independent faulty machine, compared against one fault-free machine
(:class:`~repro.sim.backend.GoodMachine`): fault ``f`` is detected at
time ``t`` if some PO is binary in the fault-free machine and takes the
complementary binary value in ``f``'s machine — the paper's detection
criterion with both machines starting from the all-unspecified state.
The native kernel runs the good machine inside each scan, as one
broadcast word; the other engines compare against its observation plan,
traced once per sequence.

Faults are simulated in batches of ``batch_width`` slots; a batch stops as
soon as every slot has been detected (sequences detect most faults early,
so this early exit matters).

All slot storage and gate evaluation is delegated to a pluggable
:class:`~repro.sim.backend.SimBackend` (``backend="python"`` big-int
kernel by default, ``backend="native"`` for the compiled C kernel); the
detection bookkeeping here is backend-independent, so detection times are
bit-identical across backends.

Two usage modes:

* :meth:`FaultSimulator.run` — one-shot, all-X initial state; used by the
  paper's procedures, whose detection semantics require a fresh start.
* :class:`FaultSimSession` — incremental: machine states persist across
  appended extensions, so test *generation* (which grows a sequence chunk
  by chunk) costs O(total length) instead of O(length²).  Each fault
  keeps one slot of one batch for the life of the session; the batch
  holds its compiled program and its machines' flop state as per-flop
  ``(H, L)`` words, and a detected fault only leaves the batch's alive
  mask.  Batches are re-packed (and their programs re-fetched) only when
  the live slots fill less than half of the occupied ones.

``threads=N`` runs both modes on chunk threads
(:mod:`repro.sim.workerpool`): a one-shot run cuts the fault list into
contiguous chunks, a session advance its live batches, and each chunk's
batches scan in GIL-released kernel calls on their own thread.  Results
merge in chunk order, so they equal the serial ones bit for bit.
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.core.sequence import TestSequence
from repro.faults.model import Fault
from repro.logic.values import X, Ternary
from repro.sim.backend import (
    AUTO_BACKEND,
    BroadcastStimulus,
    GoodMachine,
    SimBackend,
    SimProgram,
    base_bits_of,
    get_backend,
    record_dispatch,
    resolve_auto,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.detection import FaultSimResult
from repro.sim.logicsim import LogicSimulator
from repro.sim.workerpool import map_chunks, resolve_execution

# The observation-plan machinery lives with the good-machine trace cache
# (:mod:`repro.sim.trace`); re-exported here for its historical importers.
from repro.sim.trace import (  # noqa: F401  (re-export)
    ObservationPlan,
    build_observation_plan,
    get_trace_cache,
)

DEFAULT_BATCH_WIDTH = 192


class FaultSimulator:
    """Parallel-fault simulator bound to one circuit."""

    def __init__(
        self,
        circuit: Circuit | CompiledCircuit,
        batch_width: int = DEFAULT_BATCH_WIDTH,
        backend: str | SimBackend | None = None,
        threads: int = 1,
    ) -> None:
        if isinstance(circuit, CompiledCircuit):
            self._compiled = circuit
        else:
            self._compiled = CompiledCircuit(circuit)
        # "auto" adapts both the engine (by gate count) and, when the
        # big-int kernel wins, the batch width (down to its sweet spot).
        backend, batch_width = resolve_auto(self._compiled, backend, batch_width)
        self._backend = get_backend(self._compiled, backend)
        self._batch_width = self._backend.validate_batch_width(batch_width)
        # Chunk threads overlap only scans that release the GIL; other
        # engines run serially (detection times are identical either way).
        self._threads = max(1, int(threads)) if self._backend.releases_gil else 1
        # Engines that do not run the good machine inside their scans
        # compare against its trace, simulated as a single slot
        # independently of the batch backend ("auto": one native kernel
        # call per sequence at the fault axis's native crossover, else
        # the big-int kernel).  One-shot (all-X) traces come from the
        # session-wide cache — simulated once per (circuit, sequence) no
        # matter how many simulators or dispatches ask; the private
        # LogicSimulator serves sessions, whose good machine starts from
        # an evolving state.
        self._trace_cache = get_trace_cache(self._compiled)
        self._logic = LogicSimulator(self._compiled, backend=AUTO_BACKEND)

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
        """Chunk threads a large dispatch fans out to (1 = serial)."""
        return self._threads

    # ------------------------------------------------------------------
    # One-shot API (all-X initial state)
    # ------------------------------------------------------------------
    def run(self, sequence: TestSequence, faults: list[Fault]) -> FaultSimResult:
        """Simulate ``faults`` under ``sequence``; return detection times."""
        record_dispatch("fault_sim_runs")
        result = FaultSimResult(
            sequence_length=len(sequence), total_faults=len(faults)
        )
        if len(sequence) == 0 or not faults:
            return result
        good = self._good_machine(sequence)
        bits = self._stimulus_bits(sequence, one_shot=True)
        width = self._batch_width

        def run_chunk(bounds: tuple[int, int]) -> list[int | None]:
            start, end = bounds
            times: list[int | None] = []
            for low in range(start, end, width):
                batch = faults[low : min(low + width, end)]
                times.extend(self._run_batch(sequence, batch, good, bits))
            return times

        # A fault's cost is the sequence, whatever its slot: chunks may
        # split one pass, down to single 64-slot words.
        parts = self._map_chunks(
            run_chunk,
            len(faults),
            width,
            min(64, width),
            len(faults) * len(sequence),
        )
        times = [time for part in parts for time in part]
        for fault, time in zip(faults, times):
            if time is not None:
                result.detection_time[fault] = time
        return result

    def detects(self, sequence: TestSequence, fault: Fault) -> bool:
        """Whether ``sequence`` detects the single fault ``fault``.

        Fast path: one single-slot batch whose inner loop short-circuits
        at the first detection, with no :class:`FaultSimResult` built.
        """
        if len(sequence) == 0:
            return False
        good = self._good_machine(sequence)
        bits = self._stimulus_bits(sequence, one_shot=True)
        times = self._run_batch(sequence, [fault], good, bits)
        return times[0] is not None

    def session(self, faults: list[Fault]) -> "FaultSimSession":
        """Open an incremental session over ``faults`` (all start at all-X)."""
        return FaultSimSession(self, faults)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _map_chunks(
        self, function, num_items: int, width: int, unit: int, slot_steps: int
    ):
        """``function`` over chunks of ``range(num_items)``, merged in order.

        ``slot_steps`` is the dispatch's slots times the steps each is
        scanned over; times the op count, it is the work
        :func:`~repro.sim.workerpool.map_chunks` weighs against the
        fan-out floor.
        """
        return map_chunks(
            function,
            num_items,
            self._threads,
            width,
            unit,
            len(self._compiled.ops) * slot_steps,
        )

    @property
    def trace_cache(self):
        """The session's :class:`~repro.sim.trace.GoodTraceCache`."""
        return self._trace_cache

    def _good_machine(
        self,
        sequence: TestSequence,
        state: list[Ternary] | None = None,
        bits=None,
    ) -> GoodMachine:
        """The good machine of one dispatch over ``sequence``.

        ``state`` is its start state (``None`` = all-X, whose plan is
        the run-invariant trace, cached per session); ``bits`` is
        ``sequence`` already converted.  Nothing is simulated unless an
        engine asks for the observation plan.
        """
        if state is None:
            return GoodMachine(
                None, lambda: (self._trace_cache.observation_plan(sequence), None)
            )

        def simulate():
            trace = self._logic.run(sequence, initial_state=state, bits=bits)
            return build_observation_plan(trace), trace.final_state

        return GoodMachine(state, simulate)

    def _stimulus_bits(self, sequence: TestSequence, one_shot: bool = False):
        """``sequence`` as bits if the engine scans bits, else ``None``.

        Converted once per call and shared by all of its batches;
        one-shot (all-X) calls take the trace cache's matrix, the one
        the candidate axis packs from.
        """
        if not self._backend.scans_bits:
            return None
        if one_shot:
            return self._trace_cache.base_bits(sequence)
        return base_bits_of(sequence, self._compiled.num_inputs)

    def _run_batch(
        self,
        sequence: TestSequence,
        batch: list[Fault],
        good: GoodMachine,
        bits=None,
    ) -> list[int | None]:
        """Per-slot first detection times of one all-X batch of faults."""
        program = self._backend.program(tuple(batch))
        times, _ = self._scan(program, len(batch), sequence, good, bits=bits)
        return times

    def _scan(
        self,
        program: SimProgram,
        size: int,
        sequence: TestSequence,
        good: GoodMachine | ObservationPlan,
        state: list[tuple[int, int]] | None = None,
        alive: int | None = None,
        collect_final_states: bool = False,
        bits=None,
    ) -> tuple[list[int | None], list[tuple[int, int]] | None]:
        """Scan ``sequence`` over one fresh batch of ``program``'s machines.

        ``good``: the fault-free machine the slots are compared with;
        ``state``: per-flop ``(H, L)`` start words (``None`` = all-X);
        ``alive``: the slots that may detect (``None`` = all ``size``);
        ``bits``: ``sequence`` already converted (:meth:`_stimulus_bits`).
        Returns per-slot first detection times (``None`` for slots never
        detected or not alive) and, if requested, the final per-flop
        words.  The batch itself is dropped on return.
        """
        machines = self._backend.batch(program, size)
        if state is not None:
            machines.set_state_words(state)
        # The whole per-step loop runs inside the backend's run_scan.
        times = self._backend.run_scan(
            None,
            machines,
            BroadcastStimulus(sequence, size, bits),
            good,
            (1 << size) - 1 if alive is None else alive,
            collect_final_states=collect_final_states,
        )
        final = machines.export_state_words() if collect_final_states else None
        return times, final


class _SessionBatch:
    """One batch of a :class:`FaultSimSession`: its slots for its life.

    Slot ``s`` runs ``faults[s]``; ``state`` holds every slot's flop
    state as per-flop ``(H, L)`` words, and ``alive`` the slots whose
    fault is still undetected.
    """

    __slots__ = ("faults", "program", "state", "alive")

    def __init__(
        self,
        faults: tuple[Fault, ...],
        program: SimProgram,
        state: list[tuple[int, int]],
    ) -> None:
        self.faults = faults
        self.program = program
        self.state = state
        self.alive = (1 << len(faults)) - 1


def _live_runs(alive: int) -> list[tuple[int, int]]:
    """The runs of set bits of ``alive`` as ``(start, length)``, low first."""
    runs = []
    slot = 0
    while alive:
        gap = (alive & -alive).bit_length() - 1
        alive >>= gap
        slot += gap
        length = (alive ^ (alive + 1)).bit_length() - 1
        runs.append((slot, length))
        alive >>= length
        slot += length
    return runs


class FaultSimSession:
    """Incremental fault simulation across appended sequence extensions.

    Tracks the fault-free machine's state and, for every still-undetected
    fault, its faulty machine's state; :meth:`commit` advances everything
    by an extension, and :meth:`peek` evaluates an extension without
    advancing (the ATPG's candidate trials).

    The faults (de-duplicated, in order) are split once into
    ``batch_width`` batches, each with its program fetched once and its
    machines' flop state kept as per-flop ``(H, L)`` words.  Every call
    opens a short-lived backend batch per batch with live slots, loads
    the words and scans with the alive mask; :meth:`commit` stores the
    final words back and clears the detected slots.  When the live slots
    fill less than half of the occupied ones, they are gathered in order
    into new dense batches — the only point where a session compiles
    programs.  A fault's detection time does not depend on its slot, so
    results equal a fresh re-batching of the remaining faults on every
    call, and :attr:`remaining_faults` keeps the original order.
    """

    def __init__(self, simulator: FaultSimulator, faults: list[Fault]) -> None:
        self._simulator = simulator
        self._compiled = simulator.compiled
        self._num_flops = len(self._compiled.flop_pairs)
        self._good_state: list[Ternary] = [X] * self._num_flops
        unique = list(dict.fromkeys(faults))
        width = simulator.batch_width
        self._batches = [
            self._new_batch(unique[start : start + width])
            for start in range(0, len(unique), width)
        ]
        self._detection_time: dict[Fault, int] = {}
        self._elapsed = 0

    @property
    def elapsed(self) -> int:
        """Total vectors committed so far."""
        return self._elapsed

    @property
    def detection_time(self) -> dict[Fault, int]:
        """Global first-detection times of all faults detected so far."""
        return dict(self._detection_time)

    @property
    def remaining_faults(self) -> list[Fault]:
        return [
            batch.faults[slot]
            for batch in self._batches
            for start, length in _live_runs(batch.alive)
            for slot in range(start, start + length)
        ]

    @property
    def num_remaining(self) -> int:
        return sum(batch.alive.bit_count() for batch in self._batches)

    def peek(self, extension: TestSequence) -> int:
        """How many remaining faults ``extension`` would newly detect."""
        if len(extension) == 0:
            return 0
        bits = self._simulator._stimulus_bits(extension)
        good = self._simulator._good_machine(extension, self._good_state, bits)
        return len(self._advance(extension, good, False, bits))

    def commit(self, extension: TestSequence) -> dict[Fault, int]:
        """Advance all machines by ``extension``; return new detections."""
        if len(extension) == 0:
            return {}
        bits = self._simulator._stimulus_bits(extension)
        good = self._simulator._good_machine(extension, self._good_state, bits)
        detected = self._advance(extension, good, True, bits)
        self._detection_time.update(detected)
        self._good_state = good.end_state()
        self._elapsed += len(extension)
        return detected

    def _advance(
        self,
        extension: TestSequence,
        good: GoodMachine,
        commit: bool,
        bits=None,
    ) -> dict[Fault, int]:
        """Scan every live batch; with ``commit``, keep the results.

        ``bits``: ``extension`` as :meth:`FaultSimulator._stimulus_bits`
        converted it, once for every batch.
        """
        simulator = self._simulator
        live = [batch for batch in self._batches if batch.alive]

        def scan_chunk(bounds: tuple[int, int]) -> list:
            return [
                simulator._scan(
                    batch.program,
                    len(batch.faults),
                    extension,
                    good,
                    state=batch.state,
                    alive=batch.alive,
                    collect_final_states=commit,
                    bits=bits,
                )
                for batch in live[bounds[0] : bounds[1]]
            ]

        # Chunks are runs of whole batches (each keeps its program and
        # resident state); the results merge below in batch order.
        slots = sum(len(batch.faults) for batch in live)
        parts = simulator._map_chunks(
            scan_chunk, len(live), 1, 1, slots * len(extension)
        )
        detected: dict[Fault, int] = {}
        outcomes = (outcome for part in parts for outcome in part)
        for batch, (times, final) in zip(live, outcomes):
            for slot, time in enumerate(times):
                if time is not None:
                    detected[batch.faults[slot]] = self._elapsed + time
                    if commit:
                        batch.alive &= ~(1 << slot)
            if final is not None:
                batch.state = final
        if commit:
            self._repack_if_sparse()
        return detected

    def _new_batch(
        self, faults: list[Fault], state: list[tuple[int, int]] | None = None
    ) -> _SessionBatch:
        """A batch of ``faults`` (all live) from its per-flop start words.

        ``state=None`` is all-X.  Fetches the batch's program.
        """
        chunk = tuple(faults)
        if state is None:
            state = [(0, 0)] * self._num_flops
        return _SessionBatch(chunk, self._simulator.backend.program(chunk), state)

    def _repack_if_sparse(self) -> None:
        """Gather the live slots, in order, into dense batches.

        Runs only when they fill less than half of the occupied slots;
        each run of live slots moves as one shift-and-mask per flop rail.
        """
        occupied = sum(len(batch.faults) for batch in self._batches)
        if 2 * self.num_remaining >= occupied:
            return
        width = self._simulator.batch_width
        batches: list[_SessionBatch] = []
        faults: list[Fault] = []
        state = [(0, 0)] * self._num_flops
        for batch in self._batches:
            for start, length in _live_runs(batch.alive):
                while length:
                    take = min(length, width - len(faults))
                    mask = (1 << take) - 1
                    offset = len(faults)
                    faults.extend(batch.faults[start : start + take])
                    state = [
                        (
                            h | ((bh >> start) & mask) << offset,
                            l | ((bl >> start) & mask) << offset,
                        )
                        for (h, l), (bh, bl) in zip(state, batch.state)
                    ]
                    start += take
                    length -= take
                    if len(faults) == width:
                        batches.append(self._new_batch(faults, state))
                        faults = []
                        state = [(0, 0)] * self._num_flops
        if faults:
            batches.append(self._new_batch(faults, state))
        self._batches = batches
        record_dispatch("session_repacks")


def make_fault_simulator(
    circuit: Circuit | CompiledCircuit,
    batch_width: int = DEFAULT_BATCH_WIDTH,
    backend: str | SimBackend | None = None,
    workers: int | None = 1,
    parallel: str | None = None,
) -> FaultSimulator:
    """The work-distribution seam used by every fault-simulation consumer.

    :func:`~repro.sim.workerpool.resolve_execution` turns ``parallel``
    and ``workers`` into a thread count: ``serial`` is one thread,
    ``threads`` fans large dispatches out to that many chunk threads.
    ``workers=0`` / ``workers=None`` mean "one per CPU".  Detection
    times are bit-identical across every ``(parallel, workers)``
    setting.
    """
    _, threads = resolve_execution(parallel, workers)
    return FaultSimulator(
        circuit, batch_width=batch_width, backend=backend, threads=threads
    )
