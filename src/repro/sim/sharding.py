"""Process-sharded parallel-fault simulation.

The bit-parallel :class:`~repro.sim.faultsim.FaultSimulator` is already
fault-parallel *within* one process (one fault per slot of the ``(H, L)``
words); this module adds the second axis: the fault universe is partitioned
into chunks and the chunks are simulated by a pool of worker processes,
each owning its own backend instance over its own compiled copy of the
circuit.

The design follows three rules:

* **Pickle once per worker.**  The circuit, the backend name, the batch
  width and the full fault list are published to the session's shared
  :class:`~repro.sim.workerpool.WorkerPool` as a *context*: each worker
  receives the spec exactly once and builds its own simulator from it.
  The pool itself persists across simulators (Procedure 1, Procedure 2,
  compaction and restoration all borrow the same processes), so spawn
  cost is paid once per session and the circuit once per worker per
  fault list.  Tasks reference faults by index into the published list
  (the context is rebound if a caller switches to faults outside it),
  so a task pickles the input sequence, its good-machine
  :class:`~repro.sim.trace.ObservationPlan` and a tuple of ints.  A
  one-shot run's plan comes from the session's
  :class:`~repro.sim.trace.GoodTraceCache` (simulated once per
  (circuit, sequence)); a session advance ships its per-extension plan,
  whose good machine starts from an evolving state.
* **Merge plain ints.**  Workers return per-slot first-detection times
  and, for sessions, per-fault packed flop states (:func:`pack_states`,
  2 bits per flop: this tier's wire format, so a fault's state travels
  with its index whatever chunk it lands in).  Both are
  backend-independent Python integers, so merging is dictionary updates
  and results are bit-identical to a serial run by construction.
* **Steal work.**  Chunks are oversplit
  (:data:`~repro.sim.workerpool.OVERSPLIT` chunks per worker, fed through
  ``imap_unordered`` one at a time), so a skewed chunk — e.g. a run of
  hard faults that never early-exit — does not leave the other workers
  idle.

Sharding only pays off once the universe is large enough to amortize the
inter-process traffic; below :data:`SERIAL_FALLBACK_FAULTS` (or whatever
``min_shard_faults`` is set to) every entry point silently runs the serial
engine instead, so a ``workers=8`` config is safe for s27-sized circuits.

The public entry point for consumers is :func:`make_fault_simulator`,
which returns a plain :class:`FaultSimulator` for ``workers <= 1`` and a
:class:`ShardedFaultSimulator` otherwise; the sharded class is a drop-in
subclass (same ``run`` / ``detects`` / ``session`` API), so Procedure 1/2,
the ATPG engine, the baselines and the harness opt in purely through the
``workers`` knob on their configs.  The candidate axis of Procedure 2 is
sharded by the sibling :mod:`repro.sim.seqshard` over the same pool.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.netlist import Circuit
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.sim.autotune import MachineProfile
from repro.sim.backend import SimBackend, record_dispatch
from repro.sim.compiled import CompiledCircuit
from repro.sim.detection import FaultSimResult
from repro.sim.faultsim import (
    DEFAULT_BATCH_WIDTH,
    FaultSimSession,
    FaultSimulator,
)
from repro.sim.trace import ObservationPlan
from repro.sim.workerpool import (
    OVERSPLIT,
    PoolContext,
    cpu_count,
    get_worker_pool,
    resolve_execution,
    worker_state,
)

#: Below this many faults a sharded simulator runs serially: the cost of
#: shipping the sequence + observation plan to the pool and collecting the
#: results exceeds the simulation itself on small universes.
SERIAL_FALLBACK_FAULTS = 512

__all__ = [
    "SERIAL_FALLBACK_FAULTS",
    "plan_chunks",
    "ShardedFaultSimulator",
    "ShardedFaultSimSession",
    "make_fault_simulator",
]


# Per-flop 2-bit state codes of a packed machine state.
STATE_X = 0
STATE_ONE = 1
STATE_ZERO = 2


def unpack_states(packed: Sequence[int], num_flops: int) -> list[tuple[int, int]]:
    """Per-slot packed states -> per-flop ``(H, L)`` Python-int word pairs."""
    state: list[tuple[int, int]] = []
    for flop in range(num_flops):
        shift = 2 * flop
        h = 0
        l = 0
        for slot, code_word in enumerate(packed):
            code = (code_word >> shift) & 3
            if code == STATE_ONE:
                h |= 1 << slot
            elif code == STATE_ZERO:
                l |= 1 << slot
        state.append((h, l))
    return state


def pack_states(state: Sequence[tuple[int, int]], batch_size: int) -> list[int]:
    """Per-flop ``(H, L)`` word pairs -> per-slot packed states."""
    packed = [0] * batch_size
    for flop, (h, l) in enumerate(state):
        shift = 2 * flop
        for slot in range(batch_size):
            bit = 1 << slot
            if h & bit:
                packed[slot] |= STATE_ONE << shift
            elif l & bit:
                packed[slot] |= STATE_ZERO << shift
    return packed


def plan_chunks(
    num_faults: int, workers: int, batch_width: int
) -> list[tuple[int, int]]:
    """Partition ``range(num_faults)`` into contiguous ``(start, end)`` chunks.

    The fault axis is uniform-cost (every fault in a dispatch is
    simulated over the same sequence), so its plan counts faults: it
    aims for ``workers * OVERSPLIT`` chunks with two floors that keep
    per-chunk backend passes efficient —

    * a chunk is never narrower than one full backend pass
      (``batch_width`` slots) unless even ``workers`` plain chunks would
      be — oversplitting below a full pass trades vectorization for
      stealing granularity;
    * chunks wider than one pass are rounded up to whole multiples of
      ``batch_width`` so only each chunk's final pass can be ragged.

    Work stealing emerges exactly in the regime sharding is for
    (universes well past ``workers * batch_width`` slots).  Never
    returns empty chunks, so a universe smaller than the worker count
    simply yields fewer chunks than workers.  (The candidate axis cuts
    by cost instead: :func:`repro.sim.scanplan.plan_cost_chunks`.)
    """
    if num_faults <= 0:
        return []
    workers = max(1, workers)
    size = -(-num_faults // (workers * OVERSPLIT))  # ceil
    per_worker = -(-num_faults // workers)
    size = max(size, min(batch_width, per_worker))
    if size > batch_width:
        size = -(-size // batch_width) * batch_width
    return [
        (start, min(start + size, num_faults))
        for start in range(0, num_faults, size)
    ]


# ----------------------------------------------------------------------
# Worker-process side: fault-context builder and chunk task, both
# module-level (spawn-picklable) and dispatched by the shared pool.
# ----------------------------------------------------------------------
def build_fault_context(spec: tuple) -> dict:
    """Build this worker's simulator for one published fault context."""
    _, circuit, backend_name, batch_width, faults = spec
    compiled = CompiledCircuit(circuit)
    return {
        "simulator": FaultSimulator(
            compiled, batch_width=batch_width, backend=backend_name
        ),
        "faults": faults,
    }


def _run_fault_chunk(
    task: tuple,
) -> tuple[int, list[int | None], list[int] | None]:
    """Simulate one chunk of faults; return (chunk id, times, final states).

    ``indices`` reference the fault list published with the context (the
    parent rebinds the context whenever it is asked about faults outside
    that list), so faults travel as plain ints.  The sequence is
    converted to bits once for all of the chunk's batches.
    """
    (
        context_id,
        chunk_id,
        indices,
        sequence,
        observation_plan,
        initial_states,
        collect,
    ) = task
    context = worker_state()["contexts"][context_id]
    simulator: FaultSimulator = context["simulator"]
    universe: list[Fault] = context["faults"]
    faults = [universe[index] for index in indices]
    bits = simulator._stimulus_bits(sequence)
    width = simulator.batch_width
    num_flops = len(simulator.compiled.flop_pairs)
    times: list[int | None] = []
    finals: list[int] | None = [] if collect else None
    for start in range(0, len(faults), width):
        batch = faults[start : start + width]
        state = (
            unpack_states(initial_states[start : start + width], num_flops)
            if initial_states is not None
            else None
        )
        batch_times, final = simulator._scan(
            simulator.backend.program(tuple(batch)),
            len(batch),
            sequence,
            observation_plan,
            state=state,
            collect_final_states=collect,
            bits=bits,
        )
        times.extend(batch_times)
        if finals is not None and final is not None:
            finals.extend(pack_states(final, len(batch)))
    return chunk_id, times, finals


class _FaultContext:
    """Parent-side handle: a registered fault context plus its index map."""

    __slots__ = ("handle", "faults", "index_of")

    def __init__(self, pool, context_id: int, faults: Sequence[Fault]) -> None:
        self.handle = PoolContext(pool, context_id)
        self.faults = list(faults)
        self.index_of: dict[Fault, int] = {
            fault: index for index, fault in enumerate(self.faults)
        }

    def covers(self, faults: Sequence[Fault]) -> bool:
        """Whether every fault can be referenced by index in this context."""
        index_of = self.index_of
        return all(fault in index_of for fault in faults)


class ShardedFaultSimulator(FaultSimulator):
    """A :class:`FaultSimulator` that fans fault chunks out to processes.

    Drop-in: ``run`` / ``session`` shard across ``workers`` processes when
    the fault list is large enough, and fall back to the inherited serial
    engine otherwise (including ``detects``, which is always a single
    fault and therefore always serial).  Detection times and session
    states are bit-identical to the serial simulator for any worker
    count — the parity suite enforces this.

    The simulator borrows the session's persistent
    :class:`~repro.sim.workerpool.WorkerPool` on the first sharded call
    and publishes its circuit/fault payload as a pool context;
    :meth:`close` (or the context manager) retires the context, while the
    pool itself stays warm for the next simulator.
    """

    def __init__(
        self,
        circuit: Circuit | CompiledCircuit,
        batch_width: int = DEFAULT_BATCH_WIDTH,
        backend: str | SimBackend | None = None,
        workers: int | None = None,
        min_shard_faults: int = SERIAL_FALLBACK_FAULTS,
    ) -> None:
        super().__init__(circuit, batch_width=batch_width, backend=backend)
        if workers is None:
            workers = cpu_count()
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._min_shard_faults = max(1, min_shard_faults)
        self._context: _FaultContext | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    def close(self, _deferred: bool = False) -> None:
        """Retire this simulator's pool context (idempotent).

        The underlying worker pool is session-owned and stays warm; see
        :func:`repro.sim.workerpool.close_worker_pools` for final teardown.
        """
        if self._context is not None:
            self._context.handle.retire(deferred=_deferred)
            self._context = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            # Deferred: a finalizer may run on any thread mid-dispatch,
            # where a barrier broadcast on the shared pool is unsafe.
            self.close(_deferred=True)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Sharded entry points
    # ------------------------------------------------------------------
    def run(self, sequence: TestSequence, faults: list[Fault]) -> FaultSimResult:
        if not self.should_shard(len(faults)) or len(sequence) == 0:
            return super().run(sequence, faults)
        record_dispatch("fault_sim_runs")
        result = FaultSimResult(
            sequence_length=len(sequence), total_faults=len(faults)
        )
        observation_plan = self._observation_plan(sequence, None)
        times = self._run_sharded(sequence, faults, observation_plan)
        for fault, time in zip(faults, times):
            if time is not None:
                result.detection_time[fault] = time
        return result

    def session(self, faults: list[Fault]) -> FaultSimSession:
        if not self.should_shard(len(faults)):
            return FaultSimSession(self, faults)
        return ShardedFaultSimSession(self, faults)

    def should_shard(self, num_faults: int) -> bool:
        """Whether a fault list of this size goes to the pool."""
        return self._workers > 1 and num_faults >= self._min_shard_faults

    # ------------------------------------------------------------------
    # Internals (also used by ShardedFaultSimSession)
    # ------------------------------------------------------------------
    def _ensure_context(self, faults: list[Fault]) -> _FaultContext:
        """The current fault context, rebound if it cannot index ``faults``.

        Rebinding re-publishes the fault list to the (persistent) pool,
        so it only happens when a caller switches to a fault set that is
        not a subset of the one the context was built for (sessions and
        Procedure 1's shrinking target sets stay on the index path).
        """
        pool = get_worker_pool(self._workers)
        context = self._context
        if (
            context is not None
            and context.handle.pool is pool
            and context.covers(faults)
        ):
            return context
        if context is not None:
            context.handle.retire()
        spec = (
            "fault",
            self._compiled.circuit,
            self._backend.name,
            self._batch_width,
            list(faults),
        )
        self._context = _FaultContext(pool, pool.register_context(spec), faults)
        return self._context

    def _run_sharded(
        self,
        sequence: TestSequence,
        faults: list[Fault],
        observation_plan: ObservationPlan,
        initial_states: list[int] | None = None,
        collect_final_states: bool = False,
    ) -> list[int | None] | tuple[list[int | None], list[int]]:
        """Fan ``faults`` out in chunks; merge into fault-list order."""
        context = self._ensure_context(faults)
        chunks = plan_chunks(len(faults), self._workers, self._batch_width)
        tasks = []
        for chunk_id, (start, end) in enumerate(chunks):
            indices = tuple(context.index_of[fault] for fault in faults[start:end])
            initial = (
                initial_states[start:end] if initial_states is not None else None
            )
            tasks.append(
                (
                    context.handle.context_id,
                    chunk_id,
                    indices,
                    sequence,
                    observation_plan,
                    initial,
                    collect_final_states,
                )
            )
        times: list[int | None] = [None] * len(faults)
        finals: list[int] = [0] * len(faults) if collect_final_states else []
        outcomes = context.handle.pool.run_tasks(_run_fault_chunk, tasks)
        for chunk_id, chunk_times, chunk_finals in outcomes:
            start, end = chunks[chunk_id]
            times[start:end] = chunk_times
            if collect_final_states and chunk_finals is not None:
                finals[start:end] = chunk_finals
        if collect_final_states:
            return times, finals
        return times


class ShardedFaultSimSession(FaultSimSession):
    """A :class:`FaultSimSession` whose advances run on the shard pool.

    While the remaining faults are many enough to shard, their states
    live in the parent as per-fault packed ints (the pool's wire format)
    and only the faulty-machine batches travel.  The first advance after
    fault dropping shrinks the remaining set below the sharding threshold
    hands those states, once, to the inherited serial session's resident
    batches; every later advance runs serially.
    """

    def __init__(
        self, simulator: ShardedFaultSimulator, faults: list[Fault]
    ) -> None:
        super().__init__(simulator, [])
        self._sharded = simulator
        #: fault -> packed state while sharding; ``None`` after hand-off.
        self._packed: dict[Fault, int] | None = dict.fromkeys(faults, 0)
        # Bind the context to the full universe up front: every later peek
        # / commit works on a subset, so chunks stay on the index path.
        simulator._ensure_context(faults)

    @property
    def remaining_faults(self) -> list[Fault]:
        if self._packed is None:
            return super().remaining_faults
        return list(self._packed)

    @property
    def num_remaining(self) -> int:
        if self._packed is None:
            return super().num_remaining
        return len(self._packed)

    def _advance(self, extension, observation_plan, commit, bits=None):
        packed = self._packed
        if packed is not None and not self._sharded.should_shard(len(packed)):
            self._hand_off(packed)
            packed = None
        if packed is None:
            return super()._advance(extension, observation_plan, commit, bits)
        faults = list(packed)
        outcome = self._sharded._run_sharded(
            extension,
            faults,
            observation_plan,
            initial_states=list(packed.values()),
            collect_final_states=commit,
        )
        times, finals = outcome if commit else (outcome, None)
        detected: dict[Fault, int] = {}
        for position, (fault, time) in enumerate(zip(faults, times)):
            if time is not None:
                detected[fault] = self._elapsed + time
                if commit:
                    del packed[fault]
            elif finals is not None:
                packed[fault] = finals[position]
        return detected

    def _hand_off(self, packed: dict[Fault, int]) -> None:
        """Move the packed states into resident serial batches, in order."""
        faults = list(packed)
        width = self._sharded.batch_width
        self._batches = [
            self._new_batch(
                faults[start : start + width],
                unpack_states(
                    [packed[fault] for fault in faults[start : start + width]],
                    self._num_flops,
                ),
            )
            for start in range(0, len(faults), width)
        ]
        self._packed = None


def make_fault_simulator(
    circuit: Circuit | CompiledCircuit,
    batch_width: int = DEFAULT_BATCH_WIDTH,
    backend: str | SimBackend | None = None,
    workers: int | None = 1,
    min_shard_faults: int = SERIAL_FALLBACK_FAULTS,
    parallel: str | None = None,
    profile: MachineProfile | None = None,
) -> FaultSimulator:
    """The work-distribution seam used by every fault-simulation consumer.

    :func:`~repro.sim.workerpool.resolve_execution` turns ``parallel``,
    ``workers`` and the machine ``profile`` into a tier: ``serial`` one
    simulator on one kernel thread, ``threads`` one simulator whose
    native kernel splits each batch across that many in-process thread
    lanes, ``processes`` a :class:`ShardedFaultSimulator` (which still
    runs small universes serially — see :data:`SERIAL_FALLBACK_FAULTS`).
    ``workers=0`` / ``workers=None`` mean "one per CPU" without a
    profile and the profile's recommendation with one.  One usable core
    resolves to serial unless a calibrated profile measured a parallel
    win; constructing :class:`ShardedFaultSimulator` or
    ``FaultSimulator(threads=n)`` directly builds exactly that tier on
    any machine.  Detection times are bit-identical across every
    ``(parallel, workers)`` setting.
    """
    tier, workers, _ = resolve_execution(parallel, workers, profile=profile)
    if tier != "processes":
        # Serial resolves to one lane, so ``threads=workers`` covers both.
        return FaultSimulator(
            circuit, batch_width=batch_width, backend=backend, threads=workers
        )
    return ShardedFaultSimulator(
        circuit,
        batch_width=batch_width,
        backend=backend,
        workers=workers,
        min_shard_faults=min_shard_faults,
    )
