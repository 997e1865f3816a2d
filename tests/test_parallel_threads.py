"""Chunk threads: the pool, the fan-out rule and parity with serial.

``threads=N`` cuts a dispatch — a fault run, a session advance, a
candidate scan or first-hit search — into contiguous chunks and runs
them on the process-global chunk-thread pool, the caller draining too.
The thread count is a pure throughput knob: detection times, session
flop states, scan outcomes, first-hit winners and evaluated counts must
be bit-identical to the serial simulator, so every parity test compares
exact equality.  Test workloads sit far below the fan-out floor, so the
parity tests run inside ``fanned_out()`` and assert through the
``pool_chunks`` dispatch counter that chunks really ran on pool threads.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.circuits.catalog import load_circuit
from repro.core.config import SelectionConfig
from repro.core.ops import IDENTITY_EXPANSION, ExpansionConfig
from repro.core.procedure2 import build_subsequence_for_fault
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.universe import FaultUniverse
from repro.sim import workerpool
from repro.sim.backend import (
    backend_unavailable_reason,
    dispatch_counters,
    record_dispatch,
    registry_backends,
    reset_dispatch_counters,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator, make_fault_simulator
from repro.sim.scanplan import ExplicitPlan, WindowRampPlan
from repro.sim.seqsim import SequenceBatchSimulator, make_sequence_simulator
from repro.sim.workerpool import chunk_bounds, fans_out, run_chunks
from repro.util.rng import SplitMix64

needs_native = pytest.mark.skipif(
    backend_unavailable_reason("native") is not None,
    reason=f"native backend unavailable: {backend_unavailable_reason('native')}",
)

EXPANSION = ExpansionConfig(repetitions=2)


def _stimulus(circuit, length, seed=2026):
    rng = SplitMix64(seed)
    return TestSequence(
        [
            [rng.next_u64() & 1 for _ in range(circuit.num_inputs)]
            for _ in range(length)
        ]
    )


@pytest.fixture(scope="module")
def syn298():
    circuit = load_circuit("syn298")
    compiled = CompiledCircuit(circuit)
    faults = list(FaultUniverse(circuit).faults())
    sequence = _stimulus(circuit, 24)
    return compiled, faults, sequence


@pytest.fixture(scope="module")
def workload():
    """One syn298 fault with a deep detection time, plus candidate sets."""
    circuit = load_circuit("syn298")
    compiled = CompiledCircuit(circuit)
    t0 = _stimulus(circuit, 32)
    universe = FaultUniverse(circuit)
    detection = FaultSimulator(compiled).run(t0, list(universe.faults()))
    fault, udet = max(
        detection.detection_time.items(), key=lambda item: (item[1], str(item[0]))
    )
    undetected = [f for f in universe.faults() if f not in detection.detection_time]
    spans = [(u, udet) for u in range(udet, -1, -1)]
    base = t0.subsequence(0, udet)
    omissions = list(range(len(base)))
    return compiled, t0, fault, udet, spans, base, omissions, undetected


def _until_pooled(pool_chunks, check, attempts=20) -> None:
    """Repeat the parity ``check`` until a chunk has run on a pool thread.

    The caller drains chunks too, so a test-sized dispatch can finish
    every chunk before a helper wakes: on a busy 2-core host a two-chunk
    dispatch did so up to 27 times in a row.  The first attempt runs the
    pool as it is; later ones hold the calling thread back until a
    helper has claimed a chunk (see :func:`_caller_waits_for_a_helper`).
    Each attempt checks parity again.
    """
    check()
    if pool_chunks():
        return
    with _caller_waits_for_a_helper():
        for _ in range(attempts - 1):
            check()
            if pool_chunks():
                return
    pytest.fail(f"no chunk ran on a pool thread in {attempts} attempts")


@contextmanager
def _caller_waits_for_a_helper(timeout=1.0):
    """Multi-chunk dispatches start on a helper thread.

    The calling thread drains only once a helper has claimed a chunk (or
    ``timeout`` seconds have passed), a schedule the pool may always
    take, so parity checked under it still crosses threads.  One-chunk
    dispatches have no helper and are left alone.
    """
    drain = workerpool._Dispatch.drain

    def held_back(dispatch, on_pool):
        if not on_pool and len(dispatch._chunks) > 1:
            deadline = time.monotonic() + timeout
            while dispatch._claimed == 0 and time.monotonic() < deadline:
                time.sleep(0.0005)
        drain(dispatch, on_pool)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workerpool._Dispatch, "drain", held_back)
        yield


def _kept_plan(t0, udet, spans):
    """The restoration compactor's shape: a window ramp plus kept vectors
    on both sides of it, under the identity expansion."""
    return WindowRampPlan(
        t0, spans, IDENTITY_EXPANSION, kept={0, udet // 2, udet, len(t0) - 1}
    )


class TestChunkBounds:
    def test_empty(self):
        assert chunk_bounds(0, 4, 192) == []

    def test_covers_every_item_exactly_once(self):
        for num, threads, width in [(7, 4, 192), (467, 3, 100), (5000, 8, 512)]:
            chunks = chunk_bounds(num, threads, width)
            assert chunks[0][0] == 0
            assert chunks[-1][1] == num
            for (_, prev_end), (start, end) in zip(chunks, chunks[1:]):
                assert start == prev_end
                assert end > start

    def test_fewer_items_than_threads(self):
        assert chunk_bounds(3, 8, 192) == [(0, 1), (1, 2), (2, 3)]

    def test_never_splits_below_full_pass_needlessly(self):
        # 512 items over 4 threads at width 512: 4 chunks of 128, not 16
        # slivers.
        assert chunk_bounds(512, 4, 512) == [
            (0, 128),
            (128, 256),
            (256, 384),
            (384, 512),
        ]

    def test_oversplit_emerges_on_large_dispatches(self):
        chunks = chunk_bounds(8192, 4, 512)
        assert len(chunks) == 16
        assert all(end - start == 512 for start, end in chunks)

    def test_wide_chunks_align_to_batch_width(self):
        chunks = chunk_bounds(2000, 4, 192)
        assert all(end - start == 192 for start, end in chunks[:-1])


class TestRunChunks:
    def test_results_merge_in_chunk_order(self):
        def slow_for_early(chunk):
            time.sleep(0.001 * (5 - chunk % 5))
            return chunk * chunk

        for threads in (1, 2, 3, 8):
            assert run_chunks(slow_for_early, list(range(12)), threads) == [
                chunk * chunk for chunk in range(12)
            ]

    def test_caller_drains_when_the_pool_is_busy(self):
        """Every helper blocked: the caller runs all chunks itself."""
        workerpool._ensure_helpers(2)
        release = threading.Event()
        busy = threading.Barrier(len(workerpool._HELPERS) + 1)

        def block():
            busy.wait()
            release.wait()

        for _ in workerpool._HELPERS:
            workerpool._TASKS.put(block)
        busy.wait()  # every helper is inside ``block``
        try:
            before = dispatch_counters().get("pool_chunks", 0)
            callers = []
            results = run_chunks(
                lambda chunk: callers.append(threading.get_ident()) or chunk,
                [1, 2, 3, 4],
                threads=3,
            )
            assert results == [1, 2, 3, 4]
            assert set(callers) == {threading.get_ident()}
            assert dispatch_counters().get("pool_chunks", 0) == before
        finally:
            release.set()

    def test_thread_count_is_capped(self):
        """An absurd thread request runs on at most ``MAX_THREADS``."""
        idents = set()
        idents_lock = threading.Lock()

        def record(chunk):
            with idents_lock:
                idents.add(threading.get_ident())
            time.sleep(0.001)
            return chunk

        chunks = list(range(4 * workerpool.MAX_THREADS))
        assert run_chunks(record, chunks, threads=10_000) == chunks
        assert len(idents) <= workerpool.MAX_THREADS
        assert len(workerpool._HELPERS) <= workerpool.MAX_THREADS - 1

    def test_first_error_is_raised_and_the_pool_survives(self):
        def fail_on_three(chunk):
            if chunk == 3:
                raise ValueError("chunk 3")
            return chunk

        with pytest.raises(ValueError, match="chunk 3"):
            run_chunks(fail_on_three, list(range(8)), threads=2)
        assert run_chunks(lambda c: -c, [1, 2, 3], threads=2) == [-1, -2, -3]

    def test_concurrent_dispatches_run_every_chunk_once(self):
        """Stress: 6 callers x 8 threads on a 2-core host, with a short
        switch interval; a lost claim update would run a chunk twice or
        never, and a lost result would leave a ``None`` in the merge."""
        runs: dict[tuple[int, int], int] = {}
        runs_lock = threading.Lock()
        results = {}

        def work(chunk):
            with runs_lock:
                runs[chunk] = runs.get(chunk, 0) + 1
            return chunk

        def dispatch(tag):
            for round_ in range(20):
                chunks = [(tag, round_ * 100 + i) for i in range(24)]
                assert run_chunks(work, chunks, threads=8) == chunks
            results[tag] = True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [
                threading.Thread(target=dispatch, args=(i,)) for i in range(6)
            ]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
        assert results == {tag: True for tag in range(6)}
        assert len(runs) == 6 * 20 * 24
        assert set(runs.values()) == {1}


class TestFanOutRule:
    def test_thresholds(self):
        floor = workerpool.FAN_OUT_FLOOR
        assert fans_out(2, 1000, 128, floor)
        assert not fans_out(1, 1000, 128, floor)
        assert not fans_out(2, 1000, 128, floor - 1)
        # One unit (a fault word, a session batch, a candidate pass) has
        # nothing to split.
        assert not fans_out(2, 128, 128, floor)
        assert not fans_out(2, 1, 1, floor)
        assert fans_out(2, 129, 128, floor)

    @needs_native
    def test_a_single_candidate_pass_stays_on_the_caller(self, workload, fanned_out):
        """A candidate pass costs about its longest member, so a scan
        that fits one pass is never split; two passes fan out."""
        compiled, t0, fault, udet, spans, *_ = workload
        assert 16 < len(spans) <= 64
        for width, fanned in ((64, False), (16, True)):
            simulator = SequenceBatchSimulator(
                compiled, batch_width=width, backend="native", threads=2
            )
            with fanned_out() as count:
                simulator.detects_windows(fault, t0, spans, EXPANSION)
                simulator.first_detecting_window(fault, t0, spans, EXPANSION)
                assert (count("chunk_fanouts") > 0) == fanned, width

    def test_gil_holding_engine_stays_serial(self, syn298):
        compiled, _, _ = syn298
        assert FaultSimulator(compiled, backend="python", threads=4).threads == 1
        simulator = SequenceBatchSimulator(compiled, backend="python", threads=4)
        assert simulator.threads == 1

    @needs_native
    def test_small_dispatches_stay_on_the_caller(self, s27, s27_t0):
        compiled = CompiledCircuit(s27)
        faults = list(FaultUniverse(s27).faults())
        simulator = FaultSimulator(compiled, backend="native", threads=2)
        assert simulator.threads == 2
        before = dispatch_counters().get("pool_chunks", 0)
        simulator.run(s27_t0, faults)
        assert dispatch_counters().get("pool_chunks", 0) == before


class TestDispatchCounterHammer:
    def test_concurrent_recording_loses_no_increment(self):
        """8 threads x 1000 increments land exactly once each."""
        reset_dispatch_counters()
        barrier = threading.Barrier(8)

        def hammer(kind):
            barrier.wait()
            for _ in range(1000):
                record_dispatch("hammer")
                record_dispatch(kind, 2)

        workers = [
            threading.Thread(target=hammer, args=(f"kind-{i % 2}",))
            for i in range(8)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        counters = dispatch_counters()
        reset_dispatch_counters()
        assert counters["hammer"] == 8000
        assert counters["kind-0"] + counters["kind-1"] == 16000


class TestFactories:
    @needs_native
    def test_threads_tier_builds_a_threaded_simulator(self, syn298, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "4")
        compiled, _, _ = syn298
        fault_sim = make_fault_simulator(
            compiled, backend="native", workers=4, parallel="threads"
        )
        seq_sim = make_sequence_simulator(
            compiled, backend="native", workers=4, parallel="threads"
        )
        assert (fault_sim.threads, seq_sim.threads) == (4, 4)

    @needs_native
    def test_workers_zero_means_one_per_cpu(self, syn298, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "3")
        compiled = syn298[0]
        assert make_fault_simulator(compiled, backend="native", workers=0).threads == 3

    @needs_native
    @pytest.mark.parametrize(
        "factory", [make_fault_simulator, make_sequence_simulator]
    )
    def test_explicit_count_runs_as_asked(self, syn298, factory, monkeypatch):
        """Nothing measured overrides the client: on two cores
        ``workers=2`` builds two chunk threads."""
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        compiled = syn298[0]
        assert factory(compiled, backend="native", workers=2).threads == 2

    def test_serial_tier_stays_serial(self, syn298):
        compiled, _, _ = syn298
        simulator = make_fault_simulator(compiled, workers=4, parallel="serial")
        assert simulator.threads == 1

    @needs_native
    def test_single_core_stays_serial(self, syn298, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        compiled, _, _ = syn298
        assert make_fault_simulator(compiled, backend="native", workers=4).threads == 1

    @needs_native
    @pytest.mark.parametrize(
        "factory", [make_fault_simulator, make_sequence_simulator]
    )
    def test_workers_one_is_serial(self, syn298, factory):
        compiled, _, _ = syn298
        assert factory(compiled, backend="native", workers=1).threads == 1

    @pytest.mark.parametrize(
        "factory", [make_fault_simulator, make_sequence_simulator]
    )
    def test_negative_worker_count_rejected(self, syn298, factory):
        compiled, _, _ = syn298
        with pytest.raises(SimulationError, match="workers must be >= 0"):
            factory(compiled, workers=-1)

    @pytest.mark.parametrize("tier", ["processes", "bogus"])
    def test_unknown_tiers_are_rejected(self, syn298, tier):
        compiled, _, _ = syn298
        with pytest.raises(SimulationError, match="unknown parallel mode"):
            make_fault_simulator(compiled, workers=2, parallel=tier)
        with pytest.raises(SimulationError, match="unknown parallel mode"):
            make_sequence_simulator(compiled, workers=2, parallel=tier)


@needs_native
@pytest.mark.parametrize("threads", [2, 3, 4])
class TestThreadParity:
    """Chunk threads are a pure throughput knob — outputs never move."""

    def test_fault_runs(self, syn298, fanned_out, threads):
        compiled, faults, sequence = syn298
        serial = FaultSimulator(compiled, batch_width=64, backend="native")
        threaded = FaultSimulator(
            compiled, batch_width=64, backend="native", threads=threads
        )

        def check():
            for length in (24, 12, 5):
                part = sequence.subsequence(0, length - 1)
                expected = serial.run(part, faults)
                got = threaded.run(part, faults)
                assert got.detection_time == expected.detection_time
                assert got.total_faults == expected.total_faults

        with fanned_out() as pool_chunks:
            _until_pooled(pool_chunks, check)
            # Fewer faults than threads: chunks of one fault each.
            few = faults[:2]
            assert (
                threaded.run(sequence, few).detection_time
                == serial.run(sequence, few).detection_time
            )
            empty = TestSequence.empty(compiled.num_inputs)
            assert threaded.run(empty, faults).num_detected == 0
            assert threaded.run(sequence, []).num_detected == 0

    def test_session_advances(self, syn298, fanned_out, threads):
        """Detections, remaining faults and every batch's final flop
        words track the serial session over peeks and 4 commits."""
        compiled, faults, sequence = syn298

        def check():
            serial = FaultSimulator(
                compiled, batch_width=32, backend="native"
            ).session(faults)
            threaded = FaultSimulator(
                compiled, batch_width=32, backend="native", threads=threads
            ).session(faults)
            for start in range(0, len(sequence), 6):
                extension = sequence.subsequence(start, start + 5)
                assert threaded.peek(extension) == serial.peek(extension)
                assert threaded.commit(extension) == serial.commit(extension)
                assert threaded.remaining_faults == serial.remaining_faults
                assert [
                    (batch.faults, batch.alive, batch.state)
                    for batch in threaded._batches
                ] == [
                    (batch.faults, batch.alive, batch.state)
                    for batch in serial._batches
                ]
            assert threaded.detection_time == serial.detection_time
            assert threaded.elapsed == serial.elapsed == len(sequence)

        with fanned_out() as pool_chunks:
            _until_pooled(pool_chunks, check)

    def test_all_outcome_scans(self, workload, fanned_out, threads):
        compiled, t0, fault, udet, spans, base, omissions, _ = workload
        kept = _kept_plan(t0, udet, spans)
        explicit = [t0.subsequence(u, udet) for u in range(udet, -1, -1)] + [t0]
        serial = SequenceBatchSimulator(compiled, batch_width=16, backend="native")
        threaded = SequenceBatchSimulator(
            compiled, batch_width=16, backend="native", threads=threads
        )

        def check():
            assert threaded.detects_windows(
                fault, t0, spans, EXPANSION
            ) == serial.detects_windows(fault, t0, spans, EXPANSION)
            assert threaded.detects_omissions(
                fault, base, omissions, EXPANSION
            ) == serial.detects_omissions(fault, base, omissions, EXPANSION)
            assert threaded.scan(fault, kept) == serial.scan(fault, kept)
            assert threaded.detects(fault, explicit) == serial.detects(
                fault, explicit
            )

        with fanned_out() as pool_chunks:
            _until_pooled(pool_chunks, check)

    @pytest.mark.parametrize("floor", ["dropped", "default"])
    @pytest.mark.parametrize("winner", [0, 5, 8, 13, 23, 40, 47, None])
    def test_first_hit_winner_and_evaluated_count(
        self, workload, fanned_out, monkeypatch, threads, winner, floor
    ):
        """The first ``chunk`` candidates run on the caller; only when
        they miss, and only past the fan-out floor, does the rest fan
        out (under the default floor this test-sized plan finishes on
        the caller).  ``(position, evaluated)`` equals the serial chunked
        scan's pair wherever the winner sits, including nowhere."""
        compiled, t0, fault, udet, *_ = workload
        miss = t0.subsequence(0, udet - 1)  # ends before the detection
        hit = t0.subsequence(0, udet)
        candidates = [miss] * 48
        if winner is not None:
            candidates[winner] = hit
        plan = ExplicitPlan(candidates)
        expected = (None, 48) if winner is None else (winner, (winner // 8 + 1) * 8)
        serial = SequenceBatchSimulator(compiled, batch_width=16, backend="native")
        assert serial.first_hit(fault, plan, chunk=8) == expected
        threaded = SequenceBatchSimulator(
            compiled, batch_width=16, backend="native", threads=threads
        )
        fanned = []
        original = threaded._first_hit_threaded

        def recording(*args):
            fanned.append(args[-1])
            return original(*args)

        monkeypatch.setattr(threaded, "_first_hit_threaded", recording)
        if floor == "dropped":
            with fanned_out():
                assert threaded.first_hit(fault, plan, chunk=8) == expected
        else:
            assert threaded.first_hit(fault, plan, chunk=8) == expected
        first_chunk_hit = winner is not None and winner < 8
        assert fanned == ([] if first_chunk_hit or floor == "default" else [8])

    def test_first_hits_on_derived_plans(self, workload, fanned_out, threads):
        compiled, t0, fault, udet, spans, base, omissions, undetected = workload
        serial = SequenceBatchSimulator(compiled, batch_width=16, backend="native")
        threaded = SequenceBatchSimulator(
            compiled, batch_width=16, backend="native", threads=threads
        )
        kept = _kept_plan(t0, udet, spans)

        def check():
            for chunk in (1, 3, 8, 16, None):
                assert threaded.first_detecting_window(
                    fault, t0, spans, EXPANSION, chunk=chunk
                ) == serial.first_detecting_window(
                    fault, t0, spans, EXPANSION, chunk=chunk
                )
                assert threaded.first_detecting_omission(
                    fault, base, omissions, EXPANSION, chunk=chunk
                ) == serial.first_detecting_omission(
                    fault, base, omissions, EXPANSION, chunk=chunk
                )
                assert threaded.first_hit(fault, kept, chunk=chunk) == serial.first_hit(
                    fault, kept, chunk=chunk
                )
            # Faults T0 misses: the whole ramp is scanned, every chunk
            # past the first fans out, and nobody wins.
            misses = 0
            for ghost in undetected[:6]:
                expected = serial.first_detecting_window(
                    ghost, t0, spans, IDENTITY_EXPANSION, chunk=4
                )
                misses += expected == (None, len(spans))
                assert (
                    threaded.first_detecting_window(
                        ghost, t0, spans, IDENTITY_EXPANSION, chunk=4
                    )
                    == expected
                )
            assert misses, "expected a fault no window detects"

        with fanned_out() as pool_chunks:
            _until_pooled(pool_chunks, check)

    def test_procedure2_identical_to_serial(self, workload, fanned_out, threads):
        """Procedure 2's output — sequence, ustart and the evaluated
        statistic — does not depend on the thread count."""
        compiled, t0, fault, udet, *_ = workload
        config = SelectionConfig(
            expansion=ExpansionConfig(repetitions=1),
            seed=17,
            search_batch_width=8,
            omission_batch_width=12,
        )
        serial = build_subsequence_for_fault(
            SequenceBatchSimulator(compiled, batch_width=12, backend="native"),
            t0,
            fault,
            udet,
            config,
            fault_salt=3,
        )
        with fanned_out():
            threaded = build_subsequence_for_fault(
                SequenceBatchSimulator(
                    compiled, batch_width=12, backend="native", threads=threads
                ),
                t0,
                fault,
                udet,
                config,
                fault_salt=3,
            )
        assert threaded == serial

    def test_chunks_share_one_trace(self, syn298, fanned_out, threads):
        """Every chunk reads the caller's cached bits: a fresh sequence
        is converted once per run, and never traced — each chunk's
        kernel calls run the good machine themselves."""
        compiled, faults, sequence = syn298
        fresh = _stimulus(compiled.circuit, 20, seed=threads)
        simulator = FaultSimulator(
            compiled, batch_width=64, backend="native", threads=threads
        )
        cache = simulator.trace_cache
        before = cache.stats()
        with fanned_out():
            got = simulator.run(fresh, faults)
        after = cache.stats()
        assert after["trace_misses"] - before["trace_misses"] == 0
        assert after["bits_misses"] - before["bits_misses"] <= 1
        expected = FaultSimulator(compiled, backend="python").run(fresh, faults)
        assert got.detection_time == expected.detection_time


@pytest.mark.parametrize("backend", registry_backends())
@pytest.mark.parametrize("threads", [2, 4])
class TestBackendParity:
    """The thread count moves no output on any engine.

    An engine whose scan holds the GIL (python) builds a serial
    simulator for any ``threads``; the native points run with the floor
    dropped and must put chunks on pool threads.
    """

    @staticmethod
    def _across_tiers(threaded, fanned_out, check) -> None:
        with fanned_out() as pool_chunks:
            if threaded.threads > 1:
                _until_pooled(pool_chunks, check)
            else:
                check()
                assert pool_chunks("chunk_fanouts") == 0

    def test_run_and_session_match_serial(
        self, syn298, fanned_out, backend, threads, require_backend
    ):
        require_backend(backend)
        compiled, faults, sequence = syn298
        serial = FaultSimulator(compiled, batch_width=64, backend=backend)
        expected = serial.run(sequence, faults).detection_time
        threaded = FaultSimulator(
            compiled, batch_width=64, backend=backend, threads=threads
        )
        assert threaded.threads == (threads if backend == "native" else 1)
        half = len(sequence) // 2
        first = sequence.subsequence(0, half - 1)
        second = sequence.subsequence(half, len(sequence) - 1)

        def check():
            result = threaded.run(sequence, faults)
            assert result.detection_time == expected
            assert result.total_faults == len(faults)
            # Two committed extensions, interleaved with peeks, track the
            # serial session and end at the one-shot run's times.
            serial_session = serial.session(faults)
            session = threaded.session(faults)
            for extension in (first, second):
                assert session.peek(extension) == serial_session.peek(extension)
                assert session.commit(extension) == serial_session.commit(extension)
                assert session.remaining_faults == serial_session.remaining_faults
            assert session.detection_time == serial_session.detection_time
            assert session.detection_time == expected

        self._across_tiers(threaded, fanned_out, check)

    @pytest.mark.parametrize("reference_scan", ["engine", "base-loop"])
    def test_explicit_candidates(
        self,
        workload,
        base_loop_backend,
        fanned_out,
        backend,
        threads,
        reference_scan,
        require_backend,
    ):
        """Chunks run the engine's own scan; the ``base-loop`` points
        check it against the per-step specification across threads."""
        require_backend(backend)
        compiled, t0, fault, udet, *_ = workload
        candidates = [t0.subsequence(u, udet) for u in range(udet, -1, -1)] + [t0]
        engine = (
            base_loop_backend(compiled, backend)
            if reference_scan == "base-loop"
            else backend
        )
        expected = SequenceBatchSimulator(
            compiled, batch_width=16, backend=engine
        ).detects(fault, candidates)
        assert any(expected) and not all(expected)
        threaded = SequenceBatchSimulator(
            compiled, batch_width=16, backend=backend, threads=threads
        )

        def check():
            assert threaded.detects(fault, candidates) == expected

        self._across_tiers(threaded, fanned_out, check)

    def test_procedure2_identical_to_serial(
        self, workload, fanned_out, backend, threads, require_backend
    ):
        require_backend(backend)
        compiled, t0, fault, udet, *_ = workload
        config = SelectionConfig(
            expansion=ExpansionConfig(repetitions=1),
            seed=5,
            search_batch_width=8,
            omission_batch_width=8,
        )

        def build(threads):
            return build_subsequence_for_fault(
                SequenceBatchSimulator(
                    compiled, batch_width=8, backend=backend, threads=threads
                ),
                t0,
                fault,
                udet,
                config,
                fault_salt=1,
            )

        serial = build(1)
        with fanned_out():
            assert build(threads) == serial


@needs_native
class TestPoolEdges:
    @pytest.mark.parametrize("threads", [2, 3])
    def test_session_fans_in_as_faults_drop(self, s27, s27_t0, monkeypatch, threads):
        """Detections shrink a session's work as it runs: its advances
        fan out while the live faults span several batches past the
        floor, and stay on the caller once repacking leaves one batch —
        tracking the serial session throughout."""
        compiled = CompiledCircuit(s27)
        faults = list(FaultUniverse(s27).faults())
        # The floor is exactly one two-vector advance over every fault.
        monkeypatch.setattr(
            workerpool, "FAN_OUT_FLOOR", len(compiled.ops) * len(faults) * 2
        )
        serial = FaultSimulator(compiled, batch_width=8, backend="native").session(
            faults
        )
        threaded = FaultSimulator(
            compiled, batch_width=8, backend="native", threads=threads
        ).session(faults)

        def fanouts() -> int:
            return dispatch_counters().get("chunk_fanouts", 0)

        # One vector over every fault is below the floor.
        before = fanouts()
        single = s27_t0.subsequence(0, 0)
        assert threaded.peek(single) == serial.peek(single)
        assert fanouts() == before
        fanned = []
        for start in range(0, len(s27_t0), 2):
            extension = s27_t0.subsequence(start, start + 1)
            before = fanouts()
            assert threaded.peek(extension) == serial.peek(extension)
            assert threaded.commit(extension) == serial.commit(extension)
            fanned.append(fanouts() - before)
            assert threaded.remaining_faults == serial.remaining_faults
        assert threaded.detection_time == serial.detection_time
        assert threaded.elapsed == serial.elapsed == len(s27_t0)
        # Four live batches for three advances (a peek and a commit
        # each); the third commit's detections repack the rest into one.
        assert fanned == [2, 2, 2, 0, 0]

    def test_detects_single_fault_stays_on_the_caller(self, syn298, fanned_out):
        compiled, faults, sequence = syn298
        serial = FaultSimulator(compiled, backend="native")
        threaded = FaultSimulator(compiled, backend="native", threads=2)
        with fanned_out() as count:
            for fault in faults[:5]:
                assert threaded.detects(sequence, fault) == serial.detects(
                    sequence, fault
                )
            assert count("chunk_fanouts") == 0

    @pytest.mark.parametrize("width", [8, 16, 96])
    def test_fan_out_unit_scales_with_batch_width(
        self, workload, fanned_out, width
    ):
        """One candidate pass is never split: ``width`` candidates stay
        on the caller and ``width + 1`` fan out, with serial outcomes."""
        compiled, t0, fault, udet, *_ = workload
        pool = [t0.subsequence(u, udet) for u in range(udet + 1)] + [t0]
        serial = SequenceBatchSimulator(compiled, batch_width=width, backend="native")
        threaded = SequenceBatchSimulator(
            compiled, batch_width=width, backend="native", threads=2
        )
        for size, fanned in ((width, 0), (width + 1, 1)):
            candidates = [pool[i % len(pool)] for i in range(size)]
            with fanned_out() as count:
                assert threaded.detects(fault, candidates) == serial.detects(
                    fault, candidates
                )
                assert count("chunk_fanouts") == fanned, size

    def test_both_axes_share_one_pool(self, syn298, workload, fanned_out, monkeypatch):
        """Fault- and candidate-axis simulators run their chunks on the
        same process-global helper threads; the pool does not grow."""
        compiled, faults, sequence = syn298
        s_compiled, t0, fault, _udet, spans, *_ = workload
        fault_sim = FaultSimulator(
            compiled, batch_width=64, backend="native", threads=2
        )
        seq_sim = SequenceBatchSimulator(
            s_compiled, batch_width=16, backend="native", threads=2
        )
        names: dict[str, set[str]] = {"faults": set(), "candidates": set()}

        def recording(axis, original):
            def wrapper(*args, **kwargs):
                names[axis].add(threading.current_thread().name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            fault_sim, "_run_batch", recording("faults", fault_sim._run_batch)
        )
        monkeypatch.setattr(
            seq_sim, "_scan_range", recording("candidates", seq_sim._scan_range)
        )
        caller = threading.current_thread().name
        with fanned_out():
            fault_sim.run(sequence, faults)
            helpers = len(workerpool._HELPERS)
            for _ in range(20):
                fault_sim.run(sequence, faults)
                seq_sim.detects_windows(fault, t0, spans, EXPANSION)
                if all(axis - {caller} for axis in names.values()):
                    break
            else:
                pytest.fail("an axis never ran a chunk on a pool thread")
        pool = {helper.name for helper in workerpool._HELPERS}
        for axis in names.values():
            assert axis - {caller} <= pool
        assert len(workerpool._HELPERS) == helpers
