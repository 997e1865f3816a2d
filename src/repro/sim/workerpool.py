"""The persistent worker pool shared by every process-sharded simulator.

Before this module existed, each :class:`~repro.sim.sharding.ShardedFaultSimulator`
owned its own ``multiprocessing.Pool``: every simulator construction paid
the full spawn cost (process startup, module imports under ``spawn``) and
re-pickled the circuit, even though Procedure 1, Procedure 2, compaction
and restoration all run over the *same* circuit within one session.  This
module hoists pool ownership out of the simulators:

* **One pool per (worker count, start method), per process.**
  :func:`get_worker_pool` returns a process-global :class:`WorkerPool`
  that is created lazily on first use and lives until
  :func:`close_worker_pools` (registered ``atexit``).  Simulators *borrow*
  the pool; their ``close()`` releases only their own state.
* **Contexts instead of initializers.**  A simulator publishes its
  payload (circuit, backend name, batch width, fault list, ...) as a
  *context*: :meth:`WorkerPool.register_context` broadcasts the spec to
  every worker exactly once (a barrier inside the install task guarantees
  each worker takes exactly one copy), and each worker builds its
  simulator from the spec and caches it by context id.  Tasks then carry
  just the context id plus per-call data, so the heavy payload crosses
  the process boundary once per worker per simulator — not once per
  simulator construction, and never per task.
* **A shared first-hit rendezvous.**  ``first_hit`` is one
  ``multiprocessing.Value`` per pool holding the smallest detecting
  candidate index found so far (:data:`FIRST_HIT_SENTINEL` = none yet).
  The candidate-axis sharder (:mod:`repro.sim.seqshard`) uses it to
  cancel chunks that can no longer influence a deterministic
  first-detection answer.  The parent resets it between dispatches
  (dispatches never overlap — the parent is single-threaded).

Pickling is the only transport: a context spec crosses once per worker,
and each task tuple carries its own per-call data (a fault-index tuple,
the input sequence and its observation plan on the fault axis; a fault,
the base's ``uint8`` bit matrix and a base-less plan slice on the
candidate axis).  Results come back pickled the same way.  Every
worker-side function is module-level, so the design is spawn-safe;
``REPRO_SHARDING_START_METHOD`` overrides the default start method
(``fork`` where available, else ``spawn``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.autotune import SHARD_SPEEDUP_THRESHOLD

if TYPE_CHECKING:
    from repro.sim.autotune import MachineProfile

#: ``first_hit`` value meaning "no detecting candidate found yet".
FIRST_HIT_SENTINEL = 1 << 62

#: Target chunks per worker on both sharded axes.  Oversplitting is what
#: makes the pool work-stealing: a worker that drew an easy chunk (early
#: exits everywhere) pulls the next one from the shared queue instead of
#: idling.
OVERSPLIT = 4

#: Ceiling on how long a context broadcast waits for every worker to
#: rendezvous.  A worker that died would otherwise hang the barrier (and
#: the parent) forever; a broken barrier surfaces as an error instead.
BROADCAST_TIMEOUT_S = 300.0


def cpu_count() -> int:
    """Usable CPU cores, honouring the ``REPRO_ASSUME_CPUS`` override.

    Usable means this process's affinity set where the platform reports
    one (``taskset -c 0`` gives 1 on a many-core host), else
    :func:`os.cpu_count`.  The override exists so calibration and
    :func:`resolve_execution` can be pinned to a known machine shape —
    CI's serve-smoke lane runs with ``REPRO_ASSUME_CPUS=1`` to exercise
    the 1-core policy on multi-core runners deterministically.
    """
    assumed = os.environ.get("REPRO_ASSUME_CPUS")
    if assumed:
        try:
            return max(1, int(assumed))
        except ValueError as exc:
            raise SimulationError(
                f"REPRO_ASSUME_CPUS={assumed!r} is not an integer"
            ) from exc
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def resolve_start_method() -> str:
    """The multiprocessing start method for shard pools.

    Honors ``REPRO_SHARDING_START_METHOD`` (``fork`` / ``spawn`` /
    ``forkserver``); otherwise prefers ``fork`` where available (cheap,
    and the worker payload is inherited rather than pickled) and falls
    back to ``spawn`` — for which this module is fully pickle-safe.
    """
    override = os.environ.get("REPRO_SHARDING_START_METHOD")
    if override:
        if override not in multiprocessing.get_all_start_methods():
            raise SimulationError(
                f"REPRO_SHARDING_START_METHOD={override!r} is not supported "
                f"here; available: {multiprocessing.get_all_start_methods()}"
            )
        return override
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


#: The three work-distribution tiers plus ``auto``, which asks
#: :func:`resolve_execution` to choose.  ``serial`` — one simulator, one
#: kernel thread; ``threads`` — one simulator whose native kernel splits
#: each batch's words axis across the in-process pthread pool;
#: ``processes`` — the shard pool (one simulator per worker process).
PARALLEL_MODES = ("auto", "serial", "threads", "processes")


def resolve_execution(
    parallel: str | None,
    workers: int | None,
    *,
    profile: MachineProfile | None = None,
    lanes: int = 1,
) -> tuple[str, int, tuple[str, ...]]:
    """The one place that picks a work-distribution tier and its count.

    Returns ``(tier, count, notes)``: ``tier`` is ``"serial"``,
    ``"threads"`` or ``"processes"`` (never ``"auto"``), ``count`` the
    worker processes or thread lanes (``1`` exactly when serial), and
    ``notes`` why a profile or the lane count changed the request.
    ``C`` is :func:`cpu_count`; a *calibrated* profile is one whose
    ``source`` is ``"calibrated"``.

    1. Worker count: without a profile ``None``/``0`` mean ``C``; with
       one they mean ``profile.workers``.  A calibrated profile with
       ``workers == 1`` (it measured serial winning) turns an explicit
       count above 1 into 1; a static profile never overrides.
    2. A count of 1 or ``parallel="serial"`` is ``("serial", 1)``.
    3. Explicit ``threads``/``processes`` keep their tier; ``auto``
       takes a calibrated profile's ``parallel_mode``, else
       ``processes``.
    4. One usable core (``C <= 1``) is ``("serial", 1)`` unless a
       calibrated profile measured ``workers > 1`` winning here.
    5. ``lanes > 1`` (a concurrent service) pins an ``auto`` or
       ``processes`` request away from the shared process pool, whose
       parent serves one dispatch at a time: to ``threads`` unless a
       calibrated profile measured threads below
       ``SHARD_SPEEDUP_THRESHOLD``, else to ``("serial", 1)``.

    Results are bit-identical across tiers, so this only moves
    throughput.  Resolving an output again with the same profile
    returns it unchanged, which is what lets the service plan a request
    and the :class:`~repro.core.session.Session` re-resolve it.
    """
    requested = parallel or "auto"
    if requested not in PARALLEL_MODES:
        raise SimulationError(
            f"unknown parallel mode {requested!r}; expected one of "
            f"{PARALLEL_MODES}"
        )
    if workers is not None and workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    calibrated = profile is not None and profile.calibrated
    notes: list[str] = []

    if profile is None:
        count = workers or cpu_count()
    elif not workers:
        count = profile.workers
        notes.append(f"auto workers -> {count} ({profile.source} profile)")
    elif workers > 1 and calibrated and profile.workers == 1:
        count = 1
        notes.append(
            f"profile overrode workers {workers} -> 1: "
            + "; ".join(profile.notes or ("measured serial wins",))
        )
    else:
        count = workers

    tier = requested
    if tier == "auto" and calibrated:
        tier = profile.parallel_mode
    if tier == "auto":
        tier = "processes"
    if count <= 1 or tier == "serial":
        return ("serial", 1, tuple(notes))
    if cpu_count() <= 1 and not (calibrated and profile.workers > 1):
        return ("serial", 1, tuple(notes))

    if lanes > 1 and requested in ("auto", "processes"):
        threads_win = not calibrated or SHARD_SPEEDUP_THRESHOLD <= max(
            profile.fault_thread_speedup, profile.candidate_thread_speedup
        )
        pinned = "threads" if threads_win else "serial"
        notes.append(
            f"lanes={lanes}: tier {requested!r} pinned to {pinned!r} "
            "(concurrent jobs must stay off the shared worker pool)"
        )
        if not threads_win:
            return ("serial", 1, tuple(notes))
        tier = "threads"
    return (tier, int(count), tuple(notes))


# ----------------------------------------------------------------------
# Worker-process side.  Module-level (spawn-picklable) state and
# functions; each worker holds its built contexts.
# ----------------------------------------------------------------------
_WORKER: dict = {}


def worker_state() -> dict:
    """This worker process's state dict (contexts, first-hit slot)."""
    return _WORKER


def _worker_init(barrier, first_hit) -> None:
    _WORKER["barrier"] = barrier
    _WORKER["first_hit"] = first_hit
    _WORKER["contexts"] = {}


def _build_context(spec: tuple) -> object:
    """Build a worker-side context from its published spec.

    Specs are tagged tuples; the owning module supplies the builder.
    Imported lazily so a spawn-started worker only loads the axis it
    actually serves.
    """
    kind = spec[0]
    if kind == "fault":
        from repro.sim.sharding import build_fault_context

        return build_fault_context(spec)
    if kind == "seq":
        from repro.sim.seqshard import build_seq_context

        return build_seq_context(spec)
    raise SimulationError(f"unknown worker context kind {kind!r}")


def _worker_install(payload: tuple) -> int:
    """Install one context in this worker (broadcast task).

    The barrier makes the broadcast exact: all ``workers`` install tasks
    must be in flight simultaneously before any completes, so no worker
    can take a second copy while another has none.
    """
    context_id, spec = payload
    _WORKER["barrier"].wait(BROADCAST_TIMEOUT_S)
    _WORKER["contexts"][context_id] = _build_context(spec)
    return context_id


def _worker_retire(context_id: int) -> int:
    """Drop one context in this worker (broadcast task)."""
    _WORKER["barrier"].wait(BROADCAST_TIMEOUT_S)
    _WORKER["contexts"].pop(context_id, None)
    return context_id


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class WorkerPool:
    """A persistent process pool hosting contexts for many simulators.

    Simulators do not construct this directly — they call
    :func:`get_worker_pool` and register a context.  ``run_tasks`` feeds
    chunk tasks through ``imap_unordered(chunksize=1)``, which is what
    makes the chunk plans work-stealing.
    """

    def __init__(self, workers: int, start_method: str) -> None:
        if workers < 2:
            raise SimulationError(
                f"a worker pool needs at least 2 processes, got {workers}"
            )
        self._workers = workers
        self._start_method = start_method
        context = multiprocessing.get_context(start_method)
        self._barrier = context.Barrier(workers)
        self._first_hit = context.Value("q", FIRST_HIT_SENTINEL)
        self._pool = context.Pool(
            processes=workers,
            initializer=_worker_init,
            initargs=(self._barrier, self._first_hit),
        )
        self._next_context_id = 0
        self._deferred_retires: list[int] = []
        self._closed = False

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def start_method(self) -> str:
        return self._start_method

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def register_context(self, spec: tuple) -> int:
        """Broadcast ``spec`` to every worker; return its context id."""
        if self._closed:
            raise SimulationError("worker pool is closed")
        self._flush_deferred_retires()
        context_id = self._next_context_id
        self._next_context_id += 1
        self._pool.map(
            _worker_install, [(context_id, spec)] * self._workers, chunksize=1
        )
        return context_id

    def retire_context(self, context_id: int) -> None:
        """Broadcast removal of a context (frees worker memory)."""
        if self._closed:
            return
        self._pool.map(_worker_retire, [context_id] * self._workers, chunksize=1)

    def defer_retire(self, context_id: int) -> None:
        """Queue a retire without touching the pool (GC-safe).

        ``__del__`` may fire on any thread at any allocation point —
        including mid-dispatch on this very pool — where a barrier
        broadcast would interleave with in-flight tasks and corrupt the
        exactly-once-per-worker install guarantee.  Deferred retires are
        flushed at the next owning-thread dispatch; until then the stale
        worker-side context merely holds memory.
        """
        self._deferred_retires.append(context_id)

    def _flush_deferred_retires(self) -> None:
        while self._deferred_retires and not self._closed:
            self.retire_context(self._deferred_retires.pop())

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def run_tasks(self, function, tasks: list[tuple]) -> list:
        """Run chunk tasks with work stealing; result order is arbitrary."""
        self._flush_deferred_retires()
        return list(self._pool.imap_unordered(function, tasks, chunksize=1))

    # ------------------------------------------------------------------
    # First-hit rendezvous
    # ------------------------------------------------------------------
    def reset_first_hit(self) -> None:
        """Arm the shared first-hit slot before a cancellable dispatch."""
        with self._first_hit.get_lock():
            self._first_hit.value = FIRST_HIT_SENTINEL

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate the worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.terminate()
        self._pool.join()


class PoolContext:
    """Parent-side handle for one registered context (retire exactly once)."""

    __slots__ = ("pool", "context_id", "_retired")

    def __init__(self, pool: WorkerPool, context_id: int) -> None:
        self.pool = pool
        self.context_id = context_id
        self._retired = False

    def retire(self, deferred: bool = False) -> None:
        """Release the context: broadcast now, or queue it (``deferred``).

        Pass ``deferred=True`` from finalizers — a broadcast from a GC
        callback can interleave with an in-flight dispatch on the shared
        pool (see :meth:`WorkerPool.defer_retire`).
        """
        if self._retired:
            return
        self._retired = True
        try:
            if deferred:
                self.pool.defer_retire(self.context_id)
            else:
                self.pool.retire_context(self.context_id)
        except Exception:  # pragma: no cover - pool torn down concurrently
            pass


_POOLS: dict[tuple[int, str], WorkerPool] = {}


def get_worker_pool(workers: int) -> WorkerPool:
    """The session's shared pool for ``workers`` processes.

    Keyed by (worker count, resolved start method), created lazily and
    reused by every sharded simulator until :func:`close_worker_pools` —
    so spawn cost and per-worker circuit pickling are paid once per
    session, not once per simulator.
    """
    method = resolve_start_method()
    key = (workers, method)
    pool = _POOLS.get(key)
    if pool is None or pool.closed:
        pool = WorkerPool(workers, method)
        _POOLS[key] = pool
    return pool


def close_worker_pools() -> None:
    """Terminate every session pool (registered ``atexit``)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(close_worker_pools)
