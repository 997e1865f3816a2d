"""Chunk threads: the one parallel tier of both simulation axes.

The work the paper parallelises is made of independent batches:
Procedure 1's fault simulations (one batch of faults per slot word) and
Procedure 2's candidate scans (one batch of candidates per fault).  On
the native engine each batch is one GIL-released ``ctypes`` call, so
plain Python threads running those calls overlap on the hot loops.  A
simulator built with ``threads=N`` cuts its work into contiguous chunks
(:func:`chunk_bounds`) and hands them to :func:`run_chunks`:

* **One process-global pool.**  Helper threads are daemon threads
  created on first use and kept for the process lifetime; the pool
  grows to the largest helper count any dispatch asked for and never
  shrinks.  Every simulator and every concurrent serving lane shares it.
* **The caller drains too.**  A dispatch queues ``N - 1`` drain tasks
  for the helpers and then claims chunks itself until none are left, so
  no dispatch ever waits on a busy pool: a helper that arrives late
  finds nothing to claim and returns.  The caller then waits only for
  chunks already running on helpers.
* **Results merge in chunk order.**  :func:`run_chunks` returns one
  result per chunk in the order the chunks were given, whichever thread
  ran them, so outcomes are bit-identical to a serial pass by
  construction.

Fanning out costs a few thread hand-offs per dispatch (~30 us), which
small calls cannot amortize; :func:`fans_out` is the one rule both axes
use, derived from the work the call already knows: its item count and
the gate evaluations it is about to run.

This module also holds the policy that picks a tier and a thread count,
:func:`resolve_execution`.
"""

from __future__ import annotations

import os
import queue
import threading
from collections.abc import Callable, Sequence

from repro.errors import SimulationError
from repro.sim.backend import record_dispatch

#: Target chunks per thread on both axes.  Oversplitting is what makes
#: the pool work-stealing: a thread that drew an easy chunk (early exits
#: everywhere) claims the next one instead of idling.
OVERSPLIT = 4

#: Fewest gate evaluations (``ops x machines x slots x steps``) a
#: dispatch must carry before it fans out.  Measured at 2 threads on a
#: 2-core host (fault runs with cached programs, 7 alternating rounds):
#: under ~11 million evaluations results were mixed, 0.67-0.93x serial
#: on ``syn1423`` runs of 2.7-10.8 million; from ~19 million on they won
#: 1.3-1.9x.  Early exits make the count an upper bound on the work.
FAN_OUT_FLOOR = 16_000_000

#: Most threads one dispatch runs on (the cap the kernel's lane pool
#: had): a mistyped ``workers=`` must not start thousands of threads.
#: :func:`resolve_execution` clamps counts to it and :func:`run_chunks`
#: enforces it.
MAX_THREADS = 64


def cpu_count() -> int:
    """Usable CPU cores, honouring the ``REPRO_ASSUME_CPUS`` override.

    Usable means this process's affinity set where the platform reports
    one (``taskset -c 0`` gives 1 on a many-core host), else
    :func:`os.cpu_count`.  The override exists so
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


#: The work-distribution tiers plus ``auto``, which asks
#: :func:`resolve_execution` to choose.  ``serial`` — one thread;
#: ``threads`` — chunks of each dispatch on the chunk-thread pool.
PARALLEL_MODES = ("auto", "serial", "threads")


def resolve_execution(
    parallel: str | None, workers: int | None, releases_gil: bool = True
) -> tuple[str, int]:
    """The one place that picks a work-distribution tier and its count.

    Returns ``(tier, count)``: ``tier`` is ``"serial"`` or ``"threads"``
    (never ``"auto"``) and ``count`` the chunk threads, ``1`` exactly
    when serial.

    1. ``None`` and ``0`` mean one thread per usable core
       (:func:`cpu_count`).
    2. A count of 1, ``parallel="serial"``, one usable core or engines
       that hold the GIL (``releases_gil=False``, see
       :func:`~repro.sim.backend.engines_release_gil`) is
       ``("serial", 1)``.
    3. Everything else is ``("threads", count)``, the count capped at
       :data:`MAX_THREADS` so it names what :func:`run_chunks` runs.
       Whether a given dispatch fans out is :func:`fans_out`'s call.

    Results are bit-identical across tiers, so this only moves
    throughput.  Resolving an output again returns it unchanged, which
    is what lets the service plan a request and the
    :class:`~repro.core.session.Session` re-resolve it.
    """
    requested = parallel or "auto"
    if requested not in PARALLEL_MODES:
        raise SimulationError(
            f"unknown parallel mode {requested!r}; expected one of "
            f"{PARALLEL_MODES}"
        )
    if workers is not None and workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    cpus = cpu_count()
    count = workers or cpus
    if count <= 1 or requested == "serial" or cpus <= 1 or not releases_gil:
        return ("serial", 1)
    return ("threads", min(int(count), MAX_THREADS))


# ----------------------------------------------------------------------
# Chunk cut and fan-out floor
# ----------------------------------------------------------------------
def chunk_bounds(
    num_items: int, threads: int, batch_width: int
) -> list[tuple[int, int]]:
    """Partition ``range(num_items)`` into contiguous ``(start, end)`` chunks.

    Aims for ``threads * OVERSPLIT`` equal-count chunks with two floors
    that keep per-chunk backend passes efficient —

    * a chunk is never narrower than one full backend pass
      (``batch_width`` items) unless even ``threads`` plain chunks would
      be — oversplitting below a full pass trades vectorization for
      stealing granularity;
    * chunks wider than one pass are rounded up to whole multiples of
      ``batch_width`` so only each chunk's final pass can be ragged.

    Both axes cut this way: faults (every fault of a dispatch costs the
    same) and candidates (a window ramp's candidates grow linearly, but
    at 2 threads equal-step budgets measured no better than equal
    counts).
    Never returns empty chunks.
    """
    if num_items <= 0:
        return []
    threads = max(1, threads)
    size = -(-num_items // (threads * OVERSPLIT))  # ceil
    per_thread = -(-num_items // threads)
    size = max(size, min(batch_width, per_thread))
    if size > batch_width:
        size = -(-size // batch_width) * batch_width
    return [
        (start, min(start + size, num_items))
        for start in range(0, num_items, size)
    ]


def fans_out(threads: int, num_items: int, unit: int, gate_evals: int) -> bool:
    """Whether a dispatch uses the pool.

    It must carry :data:`FAN_OUT_FLOOR` gate evaluations and more than
    ``unit`` items, the most that splitting cannot speed up: one 64-slot
    word of faults (a pass over one word costs the same split or whole),
    one session batch, or one full pass of candidates (a candidate pass
    costs about its longest member, so halving it leaves the critical
    path as long: a single 192-candidate ramp pass ran at 0.73x serial
    when split in two).
    """
    return threads > 1 and num_items > unit and gate_evals >= FAN_OUT_FLOOR


# ----------------------------------------------------------------------
# The chunk-thread pool
# ----------------------------------------------------------------------
_TASKS: queue.SimpleQueue = queue.SimpleQueue()
_HELPERS: list[threading.Thread] = []
_HELPERS_LOCK = threading.Lock()


def _helper_loop() -> None:
    while True:
        _TASKS.get()()


def _ensure_helpers(count: int) -> None:
    """Grow the process-global pool to at least ``count`` helper threads."""
    with _HELPERS_LOCK:
        while len(_HELPERS) < count:
            helper = threading.Thread(
                target=_helper_loop,
                name=f"repro-chunk-{len(_HELPERS)}",
                daemon=True,
            )
            helper.start()
            _HELPERS.append(helper)


class _Dispatch:
    """One :func:`run_chunks` call: its chunks, claims and results."""

    def __init__(self, function: Callable, chunks: Sequence) -> None:
        self._function = function
        self._chunks = chunks
        self.results: list = [None] * len(chunks)
        self.error: BaseException | None = None
        self._claimed = 0
        self._finished = 0
        self._cond = threading.Condition()

    def _claim(self) -> int | None:
        with self._cond:
            if self._claimed == len(self._chunks) or self.error is not None:
                return None
            self._claimed += 1
            return self._claimed - 1

    def drain(self, on_pool: bool) -> None:
        """Run chunks until none are left to claim."""
        while (index := self._claim()) is not None:
            try:
                result = self._function(self._chunks[index])
            except BaseException as error:  # re-raised by the caller
                with self._cond:
                    self.error = self.error or error
                    self._finished += 1
                    self._cond.notify_all()
                return
            if on_pool:
                record_dispatch("pool_chunks")
            with self._cond:
                self.results[index] = result
                self._finished += 1
                self._cond.notify_all()

    def wait(self) -> None:
        """Block until every claimed chunk has finished."""
        with self._cond:
            self._cond.wait_for(lambda: self._finished == self._claimed)


def run_chunks(function: Callable, chunks: Sequence, threads: int) -> list:
    """``[function(chunk) for chunk in chunks]`` on up to ``threads`` threads
    (at most :data:`MAX_THREADS`).

    The calling thread is one of them (see the module docstring).  The
    first exception a chunk raises stops further claims and is re-raised
    here once the running chunks finish.
    """
    dispatch = _Dispatch(function, chunks)
    helpers = min(threads, len(chunks), MAX_THREADS) - 1
    if helpers > 0:
        record_dispatch("chunk_fanouts")
        _ensure_helpers(helpers)
        for _ in range(helpers):
            _TASKS.put(lambda: dispatch.drain(on_pool=True))
    dispatch.drain(on_pool=False)
    dispatch.wait()
    if dispatch.error is not None:
        raise dispatch.error
    return dispatch.results


def map_chunks(
    function: Callable[[tuple[int, int]], object],
    num_items: int,
    threads: int,
    batch_width: int,
    unit: int,
    gate_evals: int,
) -> list:
    """``function`` over chunk bounds of ``range(num_items)``, in order.

    One whole-range call on the calling thread unless the dispatch fans
    out (:func:`fans_out` with ``unit``); then :func:`chunk_bounds`
    chunks on the pool.
    """
    if not fans_out(threads, num_items, unit, gate_evals):
        return [function((0, num_items))]
    return run_chunks(function, chunk_bounds(num_items, threads, batch_width), threads)
