"""The in-kernel thread tier: resolution, clamping, parity, counters.

The thread tier's contract mirrors the process-sharding one: the lane
count is a pure throughput knob.  Detection masks and first-detection
times must be bit-identical to the serial simulator at any thread count
(the kernel partitions the ``words`` axis, and each bit slot's detection
depends only on its own word column), so every parity test here compares
exact equality, not approximations.
"""

from __future__ import annotations

import threading

import pytest

from repro.circuits.catalog import load_circuit
from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.universe import FaultUniverse
from repro.sim.backend import (
    dispatch_counters,
    get_backend,
    record_dispatch,
    reset_dispatch_counters,
    resolve_simulator_threads,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.native_build import native_threads_available
from repro.sim.seqshard import make_sequence_simulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.sim.sharding import make_fault_simulator
from repro.sim.workerpool import PARALLEL_MODES, resolve_work_distribution
from repro.util.rng import SplitMix64

needs_native_threads = pytest.mark.skipif(
    not native_threads_available(),
    reason="native kernel thread pool unavailable on this machine",
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


class TestResolveWorkDistribution:
    def test_modes_registry(self):
        assert PARALLEL_MODES == ("auto", "serial", "threads", "processes")

    def test_default_is_serial_on_one_core(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        assert resolve_work_distribution(None, None) == ("serial", 1)
        assert resolve_work_distribution("auto", 0) == ("serial", 1)

    def test_assume_cpus_feeds_thread_auto_count(self, monkeypatch):
        """Satellite: REPRO_ASSUME_CPUS is honoured by thread resolution."""
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "8")
        assert resolve_work_distribution("threads", 0) == ("threads", 8)
        assert resolve_work_distribution("threads", None) == ("threads", 8)
        assert resolve_work_distribution("threads", 3) == ("threads", 3)

    def test_explicit_processes_pass_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "8")
        assert resolve_work_distribution("processes", 3) == ("processes", 3)

    def test_single_core_collapses_threads_unless_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        assert resolve_work_distribution("threads", 4) == ("serial", 1)
        assert resolve_work_distribution("threads", 4, force=True) == (
            "threads",
            4,
        )

    def test_serial_wins_any_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "8")
        assert resolve_work_distribution("serial", 4) == ("serial", 1)

    def test_invalid_mode_rejected(self):
        with pytest.raises(SimulationError, match="parallel"):
            resolve_work_distribution("fibers", 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            resolve_work_distribution("threads", -2)


class TestResolveSimulatorThreads:
    def test_one_or_less_is_serial(self, syn298):
        backend = get_backend(syn298[0], "python")
        assert resolve_simulator_threads(backend, 1) == 1
        assert resolve_simulator_threads(backend, 0) == 1

    def test_non_native_backends_resolve_to_serial(self, syn298):
        backend = get_backend(syn298[0], "python")
        assert resolve_simulator_threads(backend, 4) == 1

    @needs_native_threads
    def test_native_grants_at_most_the_request(self, syn298):
        backend = get_backend(syn298[0], "native")
        granted = resolve_simulator_threads(backend, 4)
        assert 1 <= granted <= 4
        # Regression: the pool never shrinks, so after warming 4 lanes a
        # smaller request must still clamp to *its own* count, not the
        # pool size.
        assert resolve_simulator_threads(backend, 2) <= 2


class TestDispatchCounterHammer:
    def test_concurrent_recording_loses_no_increment(self):
        """Satellite: 8 threads x 1000 increments land exactly once each."""
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


class TestFactoryThreadTier:
    def test_threads_mode_returns_in_process_simulator(self, syn298):
        compiled, _, _ = syn298
        simulator = make_fault_simulator(
            compiled, workers=4, parallel="threads", force_shard=True
        )
        # The thread tier never mints the process-sharded class: lanes
        # live inside the kernel, the Python object stays the serial one.
        assert type(simulator) is FaultSimulator
        assert simulator.threads >= 1
        simulator.close()

    def test_threads_mode_sequence_simulator(self, syn298):
        compiled, _, _ = syn298
        simulator = make_sequence_simulator(
            compiled, workers=4, parallel="threads", force_shard=True
        )
        assert type(simulator) is SequenceBatchSimulator
        assert simulator.threads >= 1
        simulator.close()

    def test_serial_mode_ignores_worker_count(self, syn298):
        compiled, _, _ = syn298
        simulator = make_fault_simulator(compiled, workers=4, parallel="serial")
        assert type(simulator) is FaultSimulator
        assert simulator.threads == 1
        simulator.close()

    def test_invalid_tier_rejected(self, syn298):
        compiled, _, _ = syn298
        with pytest.raises(SimulationError, match="parallel"):
            make_fault_simulator(compiled, workers=2, parallel="bogus")

    @needs_native_threads
    def test_native_threads_simulator_carries_lanes(self, syn298):
        compiled, _, _ = syn298
        simulator = make_fault_simulator(
            compiled,
            workers=4,
            parallel="threads",
            backend="native",
            force_shard=True,
        )
        assert simulator.threads > 1
        simulator.close()


@needs_native_threads
class TestThreadParity:
    """Thread lanes are a pure throughput knob — outputs never move."""

    @pytest.mark.parametrize("threads", [2, 4])
    def test_fault_axis_detection_times_bit_identical(self, syn298, threads):
        compiled, faults, sequence = syn298
        serial = FaultSimulator(compiled, backend="native").run(sequence, faults)
        threaded_sim = FaultSimulator(
            compiled, backend="native", threads=threads
        )
        threaded = threaded_sim.run(sequence, faults)
        assert threaded.detection_time == serial.detection_time
        assert threaded.total_faults == serial.total_faults

    @pytest.mark.parametrize("threads", [2, 4])
    def test_candidate_axis_bit_identical(self, syn298, threads):
        compiled, faults, t0 = syn298
        detection = FaultSimulator(compiled, backend="native").run(t0, faults)
        fault, udet = max(
            detection.detection_time.items(),
            key=lambda item: (item[1], str(item[0])),
        )
        spans = [(u, udet) for u in range(udet, -1, -1)]
        base = t0.subsequence(0, udet)
        omissions = list(range(len(base)))
        serial = SequenceBatchSimulator(compiled, batch_width=16, backend="native")
        threaded = SequenceBatchSimulator(
            compiled, batch_width=16, backend="native", threads=threads
        )
        assert threaded.threads > 1
        assert threaded.detects_windows(
            fault, t0, spans, EXPANSION
        ) == serial.detects_windows(fault, t0, spans, EXPANSION)
        assert threaded.detects_omissions(
            fault, base, omissions, EXPANSION
        ) == serial.detects_omissions(fault, base, omissions, EXPANSION)
        assert threaded.first_detecting_window(
            fault, t0, spans, EXPANSION, chunk=8
        ) == serial.first_detecting_window(fault, t0, spans, EXPANSION, chunk=8)
        assert threaded.first_detecting_omission(
            fault, base, omissions, EXPANSION, chunk=8
        ) == serial.first_detecting_omission(
            fault, base, omissions, EXPANSION, chunk=8
        )

    def test_fault_session_parity_across_extensions(self, syn298):
        compiled, faults, sequence = syn298
        serial_session = FaultSimulator(compiled, backend="native").session(faults)
        threaded_session = FaultSimulator(
            compiled, backend="native", threads=4
        ).session(faults)
        half = len(sequence) // 2
        first = sequence.subsequence(0, half - 1)
        second = sequence.subsequence(half, len(sequence) - 1)
        assert threaded_session.peek(first) == serial_session.peek(first)
        assert threaded_session.commit(first) == serial_session.commit(first)
        assert threaded_session.commit(second) == serial_session.commit(second)
        assert threaded_session.detection_time == serial_session.detection_time
