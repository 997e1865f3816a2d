"""The good-machine trace cache shared by every simulator of a circuit.

The fault-free response to a base sequence is an *invariant of the run*:
Procedure 1 fault-simulates ``T0`` once, then the scheme's verification,
the baselines and every one-shot fault dispatch re-derive the same
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
  (:meth:`GoodTraceCache.base_bits`, converted by
  :func:`~repro.sim.backend.base_bits_of`) — the interchange format of
  the derived-candidate pipeline (:mod:`repro.sim.seqsim`) and the
  native fault-axis scan.

Chunk threads read what they take from here without copying: every
chunk of a dispatch shares the caller's bit matrix and observation
plan.

Caches are registered per :class:`~repro.sim.compiled.CompiledCircuit`
(:func:`get_trace_cache`) and keep a small LRU of sequences — Procedure
2 alternates one hot window base (``T0``) with a shrinking omission
base, so a handful of entries make re-simulation rare.  Hit/miss
counters are recorded per cache; ``benchmarks/bench_seqsim.py`` reports
them so CI can see the good machine really is simulated once.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.sequence import TestSequence
from repro.logic.values import ONE, ZERO
from repro.sim.backend import AUTO_BACKEND, base_bits_of
from repro.sim.compiled import CompiledCircuit
from repro.sim.logicsim import GoodTrace, LogicSimulator

#: Sequences retained per circuit.  Procedure 2 alternates one window
#: base (``T0``) and a shrinking omission base; the scheme's verification
#: adds expanded selections.  Four entries keep the hot bases resident.
SEQUENCE_CACHE_CAPACITY = 4

#: Circuits with live caches per session.  Consumers of an evicted
#: cache transparently recompute.
CIRCUIT_CACHE_CAPACITY = 8


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


class _TraceEntry:
    """Lazily computed artifacts of one (circuit, sequence) pair."""

    __slots__ = ("trace", "observation_plan", "bits")

    def __init__(self) -> None:
        self.trace: GoodTrace | None = None
        self.observation_plan: ObservationPlan | None = None
        self.bits = None


class GoodTraceCache:
    """Per-circuit cache of fault-free traces and packed base columns.

    All methods key on the *value* of the sequence (``TestSequence`` is
    immutable and hashable), so equal sequences share one entry no matter
    how many objects describe them.  The cache is an LRU of
    :data:`SEQUENCE_CACHE_CAPACITY` sequences.
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        capacity: int = SEQUENCE_CACHE_CAPACITY,
    ) -> None:
        self.compiled = compiled
        self._capacity = max(1, capacity)
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
    def _entry(self, sequence: TestSequence) -> _TraceEntry:
        entry = self._entries.get(sequence)
        if entry is None:
            entry = _TraceEntry()
            self._entries[sequence] = entry
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
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
                # An engine that traces from bits shares the one
                # conversion the fault scans of this sequence read.
                bits = (
                    self.base_bits(sequence) if self._logic.backend.scans_bits else None
                )
                entry.trace = self._logic.run(sequence, bits=bits)
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
        """The packed PI bit columns, computed once."""
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
        """Drop all entries (idempotent).

        The cache stays usable afterwards — consumers transparently
        recompute — so eviction from the per-session registry can never
        break a live simulator, only cost it a re-simulation.
        """
        with self._lock:
            self._entries.clear()


# ----------------------------------------------------------------------
# Per-session registry
# ----------------------------------------------------------------------
_CACHES: OrderedDict[int, GoodTraceCache] = OrderedDict()
_CACHES_LOCK = threading.Lock()


def get_trace_cache(compiled: CompiledCircuit) -> GoodTraceCache:
    """The session's shared trace cache for ``compiled``.

    Keyed by circuit identity (every simulator of one
    :class:`CompiledCircuit` shares one cache), LRU-bounded at
    :data:`CIRCUIT_CACHE_CAPACITY` circuits.  The identity check guards
    against ``id`` reuse after garbage collection.  Thread-safe:
    concurrent serving lanes resolving the same circuit get the same
    cache object.
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
    """Close every registered cache and empty the registry."""
    with _CACHES_LOCK:
        caches = list(_CACHES.values())
        _CACHES.clear()
    for cache in caches:
        cache.close()
