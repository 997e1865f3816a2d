"""Process-sharded parallel-sequence (candidate-axis) simulation.

:mod:`repro.sim.sharding` shards the *fault* axis; this module shards the
other hot axis: the candidate sets of Procedure 2, the restoration
compactor and the partitioning baseline.  A
:class:`ShardedSequenceBatchSimulator` splits a
:class:`~repro.sim.scanplan.ScanPlan` into chunked, work-stealing tasks
on the session's persistent
:class:`~repro.sim.workerpool.WorkerPool` — the same pool the fault axis
borrows, so Procedure 1's fault universes and Procedure 2's candidate
populations interleave on one warm set of processes.

Three mechanisms keep the IPC off the hot path:

* **Context publication.**  The circuit, resolved backend name and
  batch width are published once as a pool context; each worker
  builds its own serial :class:`~repro.sim.seqsim.SequenceBatchSimulator`
  from them.  Tasks then carry a context id plus per-call data.
* **Bases as bits.**  When numpy is importable a derived plan's base
  crosses the boundary as its ``uint8`` bit matrix, the session
  :class:`~repro.sim.trace.GoodTraceCache`'s
  :meth:`~repro.sim.trace.GoodTraceCache.base_bits` (converted once per
  (circuit, sequence), shared with the serial packers).  Each task
  pickles that matrix and its slice of the plan *without* the base;
  the worker hands both to the same serial derived entry point the
  parent uses, so the plan alone decides what each candidate is.
  Outcomes come back pickled.  Without numpy whole plans (base
  included) travel, with identical results.
* **First-hit cancellation.**  Window searches only need the *first*
  detecting candidate.  :meth:`first_hit` scans the first chunk in the
  parent (window ramps nearly always hit there); when it misses, the
  rest is dispatched at once and shares the pool's ``first_hit`` value:
  a worker that finds a detection publishes its global candidate index,
  and every worker abandons sub-batches that can no longer beat the
  current minimum.  The merged answer is the minimum detecting index —
  exactly what the serial scan returns — and the reported
  evaluated-candidate count is recomputed from the serial formula, so
  results and statistics are bit-identical for any worker count.

The cost model dictates the chunk shape: a candidate batch costs about as
much as simulating its *longest* member (bit-parallel slots ride along),
so a chunk narrower than one full backend pass multiplies total steps
without shrinking the critical path.  Chunk boundaries come from the
:class:`~repro.sim.scanplan.ScanPlan` the caller hands in — equal
simulated-step budgets (the right shape for Procedure 2's
linearly-growing window ramps), floored at one full ``batch_width``
pass.  Sharding wins appear once a scan spans several serial passes
(candidates well past ``batch_width`` — exactly the s5378/s35932-class
scans), and the serial-fallback floor scales with
the batch width (:data:`SERIAL_FALLBACK_CANDIDATES` or one full pass,
whichever is larger, unless ``min_shard_candidates`` overrides it
explicitly).  First-hit scans are the exception: their serial cost is
the ramp of whole chunks up to the winner, so fanning the scan out pays
only when the winner sits past the first chunk, and a scan that misses
entirely pays one serial chunk before the pool starts.

The consumer seam is :func:`make_sequence_simulator`, mirroring
:func:`~repro.sim.sharding.make_fault_simulator`: Procedure 1/2,
restoration and the partitioning baseline opt in purely through the
``workers`` knob already on their configs.
"""

from __future__ import annotations

try:  # numpy enables the bit-matrix base transport.
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships in CI
    np = None

from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.sim.autotune import MachineProfile
from repro.sim.backend import SimBackend
from repro.sim.compiled import CompiledCircuit
from repro.sim.scanplan import ScanPlan
from repro.sim.seqsim import DEFAULT_SEQ_BATCH_WIDTH, SequenceBatchSimulator
from repro.sim.workerpool import (
    PoolContext,
    cpu_count,
    get_worker_pool,
    resolve_execution,
    worker_state,
)

#: Baseline serial-fallback floor for the candidate axis.  The effective
#: default floor is ``max(SERIAL_FALLBACK_CANDIDATES, batch_width)``: a
#: scan that fits one bit-parallel pass costs about one longest-candidate
#: simulation either way, so there is nothing for a second process to
#: take off the critical path.
SERIAL_FALLBACK_CANDIDATES = 64


# ----------------------------------------------------------------------
# Worker-process side.  Module-level (spawn-picklable) context builder
# and task functions, dispatched by the shared pool.
# ----------------------------------------------------------------------
def build_seq_context(spec: tuple) -> dict:
    """Build this worker's serial simulator for one published context."""
    _, circuit, backend_name, batch_width = spec
    compiled = CompiledCircuit(circuit)
    return {
        "simulator": SequenceBatchSimulator(
            compiled, batch_width=batch_width, backend=backend_name
        )
    }


def _chunk_outcomes(
    simulator: SequenceBatchSimulator,
    fault: Fault,
    base_bits,
    plan: ScanPlan,
) -> list[bool]:
    """Detection outcomes for one plan slice.

    A derived plan that travelled without its base (``base_bits`` is its
    bit matrix) runs the serial derived entry point over the bits;
    anything else — an explicit plan, or a derived plan that carries its
    own base — runs the serial executor as it is.
    """
    if base_bits is None:
        return simulator.scan(fault, plan)
    return simulator._scan_derived(fault, plan, base_bits)


def _run_seq_chunk(task: tuple) -> tuple[int, list[bool]]:
    """Evaluate one candidate chunk; return its outcomes."""
    context_id, chunk_id, fault, base_bits, plan = task
    simulator = worker_state()["contexts"][context_id]["simulator"]
    return chunk_id, _chunk_outcomes(simulator, fault, base_bits, plan)


def _run_seq_chunk_first_hit(task: tuple) -> tuple[int, int | None]:
    """First-hit variant: stop early once no remaining candidate can win.

    Scans the chunk in ``step``-sized sub-chunks through the serial
    per-chunk first-hit primitive.  Between sub-chunks the worker
    consults the pool's shared ``first_hit`` value: if the published
    minimum already precedes everything left in this chunk, the rest is
    abandoned — it cannot change the (deterministic) answer, which is
    the global minimum detecting index.
    """
    context_id, chunk_id, fault, base_bits, plan, global_start, step = task
    state = worker_state()
    simulator = state["contexts"][context_id]["simulator"]
    first_hit = state["first_hit"]
    # A plan that travelled without its base derives from the bits; a
    # plan carrying its own base (no numpy) scans as it is.
    derived = None if base_bits is None else simulator._derive(plan, base_bits)
    for start in range(0, len(plan), step):
        # Locked read: a torn 64-bit load (32-bit platforms) could
        # fabricate a small index and wrongly abandon the true minimum.
        with first_hit.get_lock():
            best_so_far = first_hit.value
        if best_so_far <= global_start + start:
            break
        end = min(start + step, len(plan))
        hit = simulator._chunk_first_hit(fault, plan, derived, start, end)
        if hit is not None:
            found = global_start + start + hit
            with first_hit.get_lock():
                if found < first_hit.value:
                    first_hit.value = found
            return chunk_id, found
    return chunk_id, None


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ShardedSequenceBatchSimulator(SequenceBatchSimulator):
    """A :class:`SequenceBatchSimulator` that shards the candidate axis.

    Drop-in: every detection API shards across ``workers`` processes when
    the candidate list is large enough and falls back to the inherited
    serial engine otherwise.  Outcomes are bit-identical to serial for
    any worker count — candidate slots are independent machines and
    batching is order-preserving, so partitioning the list cannot change
    results; the parity suite enforces it.

    The simulator borrows the session's persistent worker pool; circuit
    pickling happens once per worker when the context is first published.
    :meth:`close` retires the context; the pool stays warm for the next
    borrower.
    """

    def __init__(
        self,
        circuit: Circuit | CompiledCircuit,
        batch_width: int = DEFAULT_SEQ_BATCH_WIDTH,
        backend: str | SimBackend | None = None,
        workers: int | None = None,
        min_shard_candidates: int | None = None,
    ) -> None:
        super().__init__(circuit, batch_width=batch_width, backend=backend)
        if workers is None:
            workers = cpu_count()
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        if min_shard_candidates is None:
            # One bit-parallel pass costs ~one longest-candidate run no
            # matter how many slots it carries: scans inside a single
            # pass have nothing to parallelize (see the module docstring).
            min_shard_candidates = max(
                SERIAL_FALLBACK_CANDIDATES, self._batch_width + 1
            )
        self._min_shard_candidates = max(1, min_shard_candidates)
        self._context: PoolContext | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    def should_shard(self, num_candidates: int) -> bool:
        """Whether a candidate list of this size goes to the pool."""
        return self._workers > 1 and num_candidates >= self._min_shard_candidates

    def close(self, _deferred: bool = False) -> None:
        """Retire this simulator's pool context (idempotent).

        The worker pool is session-owned and stays warm; see
        :func:`repro.sim.workerpool.close_worker_pools`.
        """
        if self._context is not None:
            self._context.retire(deferred=_deferred)
            self._context = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            # Deferred: a finalizer may run on any thread mid-dispatch,
            # where a barrier broadcast on the shared pool is unsafe.
            self.close(_deferred=True)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Sharded plan executors (the public detection APIs inherit from the
    # serial class and funnel through these two overrides)
    # ------------------------------------------------------------------
    def scan(self, fault: Fault, plan: ScanPlan) -> list[bool]:
        if not self.should_shard(len(plan)):
            return super().scan(fault, plan)
        self._validate_plan(plan)
        return self._run_sharded(fault, plan)

    def first_hit(
        self, fault: Fault, plan: ScanPlan, chunk: int | None = None
    ) -> tuple[int | None, int]:
        if not self.should_shard(len(plan)):
            return super().first_hit(fault, plan, chunk)
        self._validate_plan(plan)
        # Window ramps (restoration, Procedure 2's window search,
        # partition's extensions) nearly always hit in their first
        # chunk, where a fan-out costs more than it saves, so that chunk
        # runs here and only the rest goes to the pool.  A scan that
        # misses entirely (Procedure 2's last omission round, once its
        # subsequence reaches the shard floor) pays one serial chunk
        # before the pool starts.
        serial_chunk = self._first_hit_chunk(chunk)
        position = self._chunk_first_hit(
            fault, plan, self._derive(plan), 0, min(serial_chunk, len(plan))
        )
        if position is None:
            rest = plan.slice(serial_chunk, len(plan))
            if self.should_shard(len(rest)):
                found = self._first_hit_sharded(fault, rest, serial_chunk)
            else:
                found, _ = super().first_hit(fault, rest, serial_chunk)
            if found is None:
                return None, len(plan)
            position = serial_chunk + found
        # The serial chunked scan's evaluated count, so statistics never
        # depend on where the scan ran.
        return position, min(len(plan), (position // serial_chunk + 1) * serial_chunk)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_plan(self, plan: ScanPlan) -> None:
        width = self._compiled.num_inputs
        if plan.base is not None:
            if len(plan.base) and plan.base.width != width:
                raise SimulationError(
                    f"base width {plan.base.width} != circuit inputs {width}"
                )
            return
        for sequence in plan.items:
            if len(sequence) and sequence.width != width:
                raise SimulationError(
                    f"candidate width {sequence.width} != circuit inputs {width}"
                )

    def _ensure_context(self) -> PoolContext:
        """The published context, rebound if the session pool changed."""
        pool = get_worker_pool(self._workers)
        context = self._context
        if context is not None and context.pool is pool and not pool.closed:
            return context
        if context is not None:
            context.retire()
        spec = (
            "seq",
            self._compiled.circuit,
            self._backend.name,
            self._batch_width,
        )
        self._context = PoolContext(pool, pool.register_context(spec))
        return self._context

    def _use_derived_bits(self) -> bool:
        """Whether bases cross the boundary as bit matrices.

        Requires numpy on the parent; the workers run the same
        interpreter, so the capability matches.
        """
        return np is not None

    def _task_payload(self, plan: ScanPlan) -> tuple[object, ScanPlan]:
        """``(base_bits, plan)`` as the chunk tasks carry them.

        A derived plan's base crosses as the session
        :class:`~repro.sim.trace.GoodTraceCache`'s bit matrix — converted
        once per (circuit, sequence), shared with the serial packers —
        and the plan travels without it.  Explicit plans, and every plan
        when bits are unavailable, travel whole with ``None`` bits.
        """
        if plan.kind == "explicit" or not self._use_derived_bits():
            return None, plan
        return self._trace_cache.base_bits(plan.base), plan.without_base()

    def _run_sharded(self, fault: Fault, plan: ScanPlan) -> list[bool]:
        """Fan a plan's chunks out; merge outcomes into candidate order."""
        context = self._ensure_context()
        chunks = plan.chunks(self._workers, self._batch_width)
        base_bits, payload = self._task_payload(plan)
        tasks = [
            (context.context_id, chunk_id, fault, base_bits, payload.slice(start, end))
            for chunk_id, (start, end) in enumerate(chunks)
        ]
        results = context.pool.run_tasks(_run_seq_chunk, tasks)
        outcomes: list[bool] = [False] * len(plan)
        for chunk_id, chunk_outcomes in results:
            start, end = chunks[chunk_id]
            outcomes[start:end] = chunk_outcomes
        return outcomes

    def _first_hit_sharded(
        self,
        fault: Fault,
        plan: ScanPlan,
        serial_chunk: int,
    ) -> int | None:
        """Cancellable scan for the minimum detecting candidate index.

        Deterministic by construction: every chunk that could contain a
        smaller index than the current best keeps running, so the merged
        minimum equals the serial scan's first hit; chunks wholly past
        the best abandon early.  Chunk boundaries only shape the worker
        tasks.
        """
        context = self._ensure_context()
        # First-hit chunks are floored at the caller's serial chunk width
        # (the cancellation granularity), not the batch width: a scan
        # usually resolves long before its deepest chunks run, and
        # abandoning a narrow chunk wastes less than abandoning a
        # full-width one.
        chunks = plan.chunks(self._workers, serial_chunk)
        base_bits, payload = self._task_payload(plan)
        context.pool.reset_first_hit()
        tasks = [
            (
                context.context_id,
                chunk_id,
                fault,
                base_bits,
                payload.slice(start, end),
                start,
                serial_chunk,
            )
            for chunk_id, (start, end) in enumerate(chunks)
        ]
        results = context.pool.run_tasks(_run_seq_chunk_first_hit, tasks)
        return min(
            (found for _, found in results if found is not None),
            default=None,
        )


def make_sequence_simulator(
    circuit: Circuit | CompiledCircuit,
    batch_width: int = DEFAULT_SEQ_BATCH_WIDTH,
    backend: str | SimBackend | None = None,
    workers: int | None = 1,
    min_shard_candidates: int | None = None,
    parallel: str | None = None,
    profile: MachineProfile | None = None,
) -> SequenceBatchSimulator:
    """The work-distribution seam for every candidate-simulation consumer.

    :func:`~repro.sim.workerpool.resolve_execution` turns ``parallel``,
    ``workers`` and the machine ``profile`` into a tier: ``serial`` one
    simulator on one kernel thread, ``threads`` one simulator whose
    native kernel splits each packed batch across that many in-process
    thread lanes, ``processes`` a :class:`ShardedSequenceBatchSimulator`
    (which still runs candidate sets that fit one bit-parallel pass
    serially — see :data:`SERIAL_FALLBACK_CANDIDATES`).  ``workers=0``
    / ``workers=None`` mean "one per CPU" without a profile and the
    profile's recommendation with one.

    One usable core resolves to serial unless a calibrated profile
    measured a parallel win; constructing
    :class:`ShardedSequenceBatchSimulator` or
    ``SequenceBatchSimulator(threads=n)`` directly builds exactly that
    tier on any machine.
    """
    tier, workers, _ = resolve_execution(parallel, workers, profile=profile)
    if tier != "processes":
        # Serial resolves to one lane, so ``threads=workers`` covers both.
        return SequenceBatchSimulator(
            circuit, batch_width=batch_width, backend=backend, threads=workers
        )
    return ShardedSequenceBatchSimulator(
        circuit,
        batch_width=batch_width,
        backend=backend,
        workers=workers,
        min_shard_candidates=min_shard_candidates,
    )
