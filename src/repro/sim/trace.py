"""The good-machine trace cache shared by every simulator of a circuit.

The fault-free response to a base sequence is an *invariant of the run*:
Procedure 1 fault-simulates ``T0`` once, then the scheme's verification,
the baselines and every sharded fault dispatch re-derive the same
fault-free trace — and the candidate axis re-packs the same base input
columns — over and over.  This module computes each piece **once per
(circuit, sequence) per session** and hands every consumer the cached
copy:

* the :class:`~repro.sim.logicsim.GoodTrace` itself (per-step binary PO
  observations and the final flop state), simulated exactly once — by
  one native ``repro_trace`` kernel call when ``"auto"`` resolves the
  circuit's fault axis to the native engine, else by the big-int
  kernel's per-step loop;
* the **observation plan** derived from it — the per-step binary PO
  values the parallel-fault detection comparison needs, as one flat
  :class:`ObservationPlan` (:func:`build_observation_plan`) that every
  engine reads as is: the native kernel takes its three arrays by
  address, the python engine and the base loop slice row ``t``;
* the base sequence's packed **PI bit columns**
  (:func:`base_bits_of`) — the interchange format of the derived-candidate
  pipeline (:mod:`repro.sim.seqsim`) and the candidate-axis sharder.

For the process-sharded axes the cache also *publishes* the cached
artifacts through the worker pool's shared-memory contract
(:mod:`repro.sim.workerpool`): :meth:`GoodTraceCache.bits_ref` exposes
the bit matrix as a named segment (the candidate axis attaches instead
of unpickling a base per task) and :meth:`GoodTraceCache.plan_ref`
exposes the pickled observation plan the same way (fault-axis chunk
tasks carry a segment name instead of ``workers x OVERSPLIT`` pickled
copies of the plan).  Workers resolve either reference through
:func:`resolve_observation_plan` / the sharder's bit-matrix helper,
caching attachments by segment name.  Both paths degrade gracefully:
without numpy or ``shared_memory`` (or with ``REPRO_SEQSHARD_NO_SHM``
set) the artifacts travel pickled, bit-identically.

Caches are registered per :class:`~repro.sim.compiled.CompiledCircuit`
(:func:`get_trace_cache`) and keep a small LRU of sequences — Procedure
2 alternates one hot window base (``T0``) with a shrinking omission
base, so a handful of entries make re-simulation rare.  Hit/miss
counters are recorded per cache; ``benchmarks/bench_seqsim.py`` reports
them so CI can see the good machine really is simulated once.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass

try:  # Packed bit columns need numpy; the trace itself does not.
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships in CI
    np = None

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - platform without shm
    shared_memory = None

from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.logic.values import ONE, ZERO
from repro.sim.backend import AUTO_BACKEND
from repro.sim.compiled import CompiledCircuit
from repro.sim.logicsim import GoodTrace, LogicSimulator

#: Sequences retained per circuit.  Procedure 2 alternates one window
#: base (``T0``) and a shrinking omission base; the scheme's verification
#: adds expanded selections.  Four entries keep the hot bases resident.
SEQUENCE_CACHE_CAPACITY = 4

#: Circuits with live caches per session.  Evicting a cache closes its
#: shared-memory segments; consumers transparently recompute.
CIRCUIT_CACHE_CAPACITY = 8

#: Set (to any non-empty value) to disable the shared-memory publication
#: paths — the same escape hatch the candidate-axis sharder honours.
NO_SHM_ENV = "REPRO_SEQSHARD_NO_SHM"


def shm_available() -> bool:
    """Whether the shared-memory publication path is usable here."""
    return (
        shared_memory is not None
        and np is not None
        and not os.environ.get(NO_SHM_ENV)
    )


@dataclass(frozen=True)
class ObservationPlan:
    """Per time step, the binary fault-free PO values to compare against.

    Flat, in the layout the native kernel reads: step ``t``'s rows are
    indices ``offsets[t]:offsets[t + 1]`` of ``positions`` (the PO
    positions binary in the fault-free machine, ascending) and
    ``values`` (its 0/1 value there).  The arrays are ``int64``,
    ``int32`` and ``uint8`` :class:`array.array` buffers, so the plan
    needs no numpy, pickles compactly and crosses to a C call or a numpy
    view without copying.  Built once per trace and never mutated.
    """

    offsets: array
    positions: array
    values: array

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def row(self, t: int) -> tuple[array, array]:
        """Step ``t``'s ``(positions, values)``."""
        start = self.offsets[t]
        end = self.offsets[t + 1]
        return self.positions[start:end], self.values[start:end]


def build_observation_plan(trace: GoodTrace) -> ObservationPlan:
    """The :class:`ObservationPlan` of a fault-free trace."""
    offsets = [0]
    positions: list[int] = []
    values: list[int] = []
    for row in trace.po_values:
        for position, value in enumerate(row):
            if value is ONE:
                positions.append(position)
                values.append(1)
            elif value is ZERO:
                positions.append(position)
                values.append(0)
        offsets.append(len(positions))
    return ObservationPlan(
        array("q", offsets), array("i", positions), array("B", values)
    )


def base_bits_of(base: TestSequence, width: int):
    """``base`` as a ``(len(base), width)`` uint8 bit matrix.

    The interchange format of the derived-candidate pipeline: the packer
    consumes it directly, and the candidate-axis sharder publishes
    exactly this matrix through a shared-memory buffer so workers attach
    instead of unpickling the base per task.
    """
    if len(base):
        return np.asarray(base.vectors(), dtype=np.uint8)
    return np.zeros((0, width), dtype=np.uint8)


def _unlink_segment(segment) -> None:
    """Close and unlink a parent-owned shared-memory segment (tolerant)."""
    if segment is None:
        return
    try:
        segment.close()
        segment.unlink()
    except (FileNotFoundError, BufferError):  # pragma: no cover - teardown race
        pass


class _TraceEntry:
    """Lazily computed artifacts of one (circuit, sequence) pair."""

    __slots__ = (
        "sequence",
        "trace",
        "observation_plan",
        "bits",
        "bits_segment",
        "plan_segment",
        "plan_size",
    )

    def __init__(self, sequence: TestSequence) -> None:
        self.sequence = sequence
        self.trace: GoodTrace | None = None
        self.observation_plan: ObservationPlan | None = None
        self.bits = None
        self.bits_segment = None
        self.plan_segment = None
        self.plan_size = 0

    def close(self, unlink: bool) -> None:
        if unlink:
            _unlink_segment(self.bits_segment)
            _unlink_segment(self.plan_segment)
        self.bits_segment = None
        self.plan_segment = None
        self.plan_size = 0


class GoodTraceCache:
    """Per-circuit cache of fault-free traces and packed base columns.

    All methods key on the *value* of the sequence (``TestSequence`` is
    immutable and hashable), so equal sequences share one entry no matter
    how many objects describe them.  The cache is an LRU of
    :data:`SEQUENCE_CACHE_CAPACITY` sequences; eviction unlinks any
    published shared-memory segments.
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        capacity: int = SEQUENCE_CACHE_CAPACITY,
    ) -> None:
        self.compiled = compiled
        self._capacity = max(1, capacity)
        # Only the process that created a cache may unlink its shm
        # segments.  A fork-started pool worker inherits the parent's
        # registry (and the cache objects in it); evicting one there
        # must not destroy segment names the parent still publishes.
        self._owner_pid = os.getpid()
        # "auto" traces on the native kernel (one call per sequence) at
        # the fault axis's native crossover, else on the big-int kernel.
        # Every engine runs the same op walk, so observation plans are
        # identical whichever batch backend consumes them.
        self._logic = LogicSimulator(compiled, backend=AUTO_BACKEND)
        # Concurrent serving lanes share one cache per circuit; the lock
        # serializes the LRU bookkeeping and trace computation.
        # Computation happens under it too, so a cold (circuit, sequence)
        # pair is simulated once even when two lanes race on it.
        self._lock = threading.RLock()
        self._entries: OrderedDict[TestSequence, _TraceEntry] = OrderedDict()
        self._counters = {
            "trace_hits": 0,
            "trace_misses": 0,
            "bits_hits": 0,
            "bits_misses": 0,
        }

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------
    def _owns_segments(self) -> bool:
        return os.getpid() == self._owner_pid

    def _entry(self, sequence: TestSequence) -> _TraceEntry:
        entry = self._entries.get(sequence)
        if entry is None:
            entry = _TraceEntry(sequence)
            self._entries[sequence] = entry
            while len(self._entries) > self._capacity:
                _, stale = self._entries.popitem(last=False)
                stale.close(unlink=self._owns_segments())
        else:
            self._entries.move_to_end(sequence)
        return entry

    # ------------------------------------------------------------------
    # Good-machine artifacts
    # ------------------------------------------------------------------
    def trace(self, sequence: TestSequence) -> GoodTrace:
        """The fault-free response, simulated once per (circuit, sequence).

        Only the all-X-initial-state trace is cached — the one every
        one-shot ``run`` shares.  Incremental sessions carry their own
        evolving state and bypass the cache.
        """
        with self._lock:
            entry = self._entry(sequence)
            if entry.trace is None:
                self._counters["trace_misses"] += 1
                entry.trace = self._logic.run(sequence)
            else:
                self._counters["trace_hits"] += 1
            return entry.trace

    def observation_plan(self, sequence: TestSequence) -> ObservationPlan:
        """The detection comparison rows derived from the cached trace."""
        with self._lock:
            entry = self._entry(sequence)
            if entry.observation_plan is None:
                entry.observation_plan = build_observation_plan(
                    self.trace(sequence)
                )
            else:
                # Served without touching trace(): still a trace reuse.
                self._counters["trace_hits"] += 1
            return entry.observation_plan

    def base_bits(self, sequence: TestSequence):
        """The packed PI bit columns (requires numpy), computed once."""
        if np is None:
            raise SimulationError("base_bits requires numpy")
        with self._lock:
            entry = self._entry(sequence)
            if entry.bits is None:
                self._counters["bits_misses"] += 1
                entry.bits = np.ascontiguousarray(
                    base_bits_of(sequence, self.compiled.num_inputs)
                )
            else:
                self._counters["bits_hits"] += 1
            return entry.bits

    # ------------------------------------------------------------------
    # Shared-memory publication (the worker-pool broadcast contract)
    # ------------------------------------------------------------------
    def bits_ref(self, sequence: TestSequence) -> tuple:
        """Cross-process reference for the base's bit matrix.

        ``("shm", name, length, width)`` when shared memory is usable
        (the segment is cache-owned: created once per sequence, unlinked
        on eviction/:meth:`close`), else ``("bytes", payload, length,
        width)`` — the pickle fallback with identical worker-side
        semantics.
        """
        with self._lock:
            bits = self.base_bits(sequence)
            if shm_available() and bits.size:
                entry = self._entry(sequence)
                if entry.bits_segment is None:
                    segment = shared_memory.SharedMemory(
                        create=True, size=bits.nbytes
                    )
                    np.ndarray(bits.shape, dtype=np.uint8, buffer=segment.buf)[
                        :
                    ] = bits
                    entry.bits_segment = segment
                return (
                    "shm",
                    entry.bits_segment.name,
                    bits.shape[0],
                    bits.shape[1],
                )
            return ("bytes", bits.tobytes(), bits.shape[0], bits.shape[1])

    def plan_ref(self, sequence: TestSequence) -> tuple | None:
        """Cross-process reference for the pickled :class:`ObservationPlan`.

        ``("shmplan", name, size)`` when shared memory is usable, else
        ``None`` — the caller then ships the plan pickled per task, the
        historical contract.
        """
        if not shm_available():
            return None
        with self._lock:
            entry = self._entry(sequence)
            if entry.plan_segment is None:
                payload = pickle.dumps(
                    self.observation_plan(sequence),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, len(payload))
                )
                segment.buf[: len(payload)] = payload
                entry.plan_segment = segment
                entry.plan_size = len(payload)
            return ("shmplan", entry.plan_segment.name, entry.plan_size)

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Hit/miss counters (misses == good-machine simulations run)."""
        with self._lock:
            return dict(self._counters)

    def reset_stats(self) -> None:
        with self._lock:
            for key in self._counters:
                self._counters[key] = 0

    def close(self) -> None:
        """Drop all entries and unlink published segments (idempotent).

        The cache stays usable afterwards — consumers transparently
        recompute — so eviction from the per-session registry can never
        break a live simulator, only cost it a re-simulation.  In a
        process that merely *inherited* the cache across a fork, the
        segments are left alone: only their creating process may unlink
        names other processes still resolve.
        """
        unlink = self._owns_segments()
        with self._lock:
            while self._entries:
                _, entry = self._entries.popitem(last=False)
                entry.close(unlink=unlink)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def resolve_observation_plan(plan_or_ref) -> ObservationPlan:
    """Resolve a task's observation plan (inline plan or shm reference).

    Workers cache deserialized plans by segment name (the parent creates
    one segment per cached sequence, so names are stable across the
    chunks of a dispatch and across dispatches over the same base).
    """
    if not (isinstance(plan_or_ref, tuple) and plan_or_ref[:1] == ("shmplan",)):
        return plan_or_ref
    from repro.sim.workerpool import worker_attach_shm, worker_state

    _, name, size = plan_or_ref
    state = worker_state()
    cache: OrderedDict = state.setdefault("plans", OrderedDict())
    plan = cache.get(name)
    if plan is None:
        segment = worker_attach_shm(name)
        plan = pickle.loads(bytes(segment.buf[:size]))
        cache[name] = plan
        while len(cache) > SEQUENCE_CACHE_CAPACITY:
            cache.popitem(last=False)
    else:
        cache.move_to_end(name)
    return plan


# ----------------------------------------------------------------------
# Per-session registry
# ----------------------------------------------------------------------
_CACHES: OrderedDict[int, GoodTraceCache] = OrderedDict()
_CACHES_LOCK = threading.Lock()


def get_trace_cache(compiled: CompiledCircuit) -> GoodTraceCache:
    """The session's shared trace cache for ``compiled``.

    Keyed by circuit identity (every simulator of one
    :class:`CompiledCircuit` shares one cache), LRU-bounded at
    :data:`CIRCUIT_CACHE_CAPACITY` circuits; eviction closes the evicted
    cache's segments.  The identity check guards against ``id`` reuse
    after garbage collection.  Thread-safe: concurrent serving lanes
    resolving the same circuit get the same cache object.
    """
    key = id(compiled)
    with _CACHES_LOCK:
        cache = _CACHES.get(key)
        if cache is not None and cache.compiled is compiled:
            _CACHES.move_to_end(key)
            return cache
        if cache is not None:
            cache.close()
        cache = GoodTraceCache(compiled)
        _CACHES[key] = cache
        while len(_CACHES) > CIRCUIT_CACHE_CAPACITY:
            _, stale = _CACHES.popitem(last=False)
            stale.close()
        return cache


def close_trace_caches() -> None:
    """Close every registered cache (registered ``atexit``)."""
    with _CACHES_LOCK:
        caches = list(_CACHES.values())
        _CACHES.clear()
    for cache in caches:
        cache.close()


atexit.register(close_trace_caches)
