"""Sharded-vs-serial parity for process-sharded fault simulation.

The contract of :mod:`repro.sim.sharding` is that the worker count is a
pure throughput knob: detection masks, first-detection times and session
states must be bit-identical to the serial simulator for every backend
and every worker count, including universes smaller than the worker pool.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.circuits.catalog import load_circuit
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.sim.backend import available_backends, registry_backends
from repro.sim.autotune import static_profile
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimSession, FaultSimulator
from repro.sim.sharding import (
    SERIAL_FALLBACK_FAULTS,
    ShardedFaultSimSession,
    ShardedFaultSimulator,
    make_fault_simulator,
    plan_chunks,
)
from repro.util.rng import SplitMix64

#: Every test here exercises real multi-worker process pools; the quick
#: CI lane deselects them (tier-1 verify and the full matrix run all).
pytestmark = pytest.mark.slow


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
def serial_reference(syn298):
    """Serial detection times per backend, computed once."""
    compiled, faults, sequence = syn298
    reference = {}
    for backend in available_backends():
        result = FaultSimulator(compiled, backend=backend).run(sequence, faults)
        reference[backend] = result.detection_time
    return reference


class TestPlanChunks:
    def test_empty_universe(self):
        assert plan_chunks(0, 4, 192) == []

    def test_covers_every_fault_exactly_once(self):
        for num, workers, width in [(7, 4, 192), (467, 3, 100), (5000, 8, 512)]:
            chunks = plan_chunks(num, workers, width)
            assert chunks[0][0] == 0
            assert chunks[-1][1] == num
            for (_, prev_end), (start, end) in zip(chunks, chunks[1:]):
                assert start == prev_end
                assert end > start

    def test_universe_smaller_than_workers(self):
        chunks = plan_chunks(3, 8, 192)
        assert chunks == [(0, 1), (1, 2), (2, 3)]

    def test_never_splits_below_full_pass_needlessly(self):
        # 512 faults over 4 workers with width 512: 4 chunks of one full
        # 128-slot pass each, not 16 slivers.
        assert plan_chunks(512, 4, 512) == [
            (0, 128),
            (128, 256),
            (256, 384),
            (384, 512),
        ]

    def test_oversplit_emerges_on_large_universes(self):
        chunks = plan_chunks(8192, 4, 512)
        assert len(chunks) == 16
        assert all(end - start == 512 for start, end in chunks)

    def test_wide_chunks_align_to_batch_width(self):
        chunks = plan_chunks(2000, 4, 192)
        assert all(end - start == 192 for start, end in chunks[:-1])


class TestFactory:
    def test_workers_one_is_plain_serial(self, syn298):
        compiled, _, _ = syn298
        simulator = make_fault_simulator(compiled, workers=1)
        assert type(simulator) is FaultSimulator

    def test_workers_zero_shards_one_per_cpu(self, syn298, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "3")
        compiled = syn298[0]
        with make_fault_simulator(compiled, workers=0) as simulator:
            assert isinstance(simulator, ShardedFaultSimulator)
            assert simulator.workers == 3

    def test_single_core_machine_falls_back_to_serial(self, syn298, monkeypatch):
        compiled, _, _ = syn298
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        simulator = make_fault_simulator(compiled, workers=4)
        assert type(simulator) is FaultSimulator

    def test_calibrated_win_overrides_single_core_fallback(
        self, syn298, monkeypatch
    ):
        """A measured multi-worker win outranks the one-core guess."""
        compiled = syn298[0]
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        profile = replace(static_profile(), workers=2, source="calibrated")
        with make_fault_simulator(compiled, workers=2, profile=profile) as simulator:
            assert isinstance(simulator, ShardedFaultSimulator)
            assert simulator.workers == 2

    def test_multi_core_machine_keeps_sharding(self, syn298, monkeypatch):
        compiled, _, _ = syn298
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        with make_fault_simulator(compiled, workers=2) as simulator:
            assert isinstance(simulator, ShardedFaultSimulator)

    def test_small_universe_falls_back_to_serial_session(self, syn298):
        compiled, faults, _ = syn298
        assert len(faults) < SERIAL_FALLBACK_FAULTS
        with ShardedFaultSimulator(compiled, workers=4) as simulator:
            assert not simulator.should_shard(len(faults))
            session = simulator.session(faults)
            assert type(session) is FaultSimSession

    def test_invalid_worker_count_rejected(self, syn298):
        compiled, _, _ = syn298
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            ShardedFaultSimulator(compiled, workers=-1)


@pytest.mark.parametrize("backend", registry_backends())
@pytest.mark.parametrize("workers", [2, 4])
class TestShardedParity:
    def test_run_and_session_match_serial(
        self, syn298, serial_reference, backend, workers, require_backend
    ):
        require_backend(backend)
        compiled, faults, sequence = syn298
        with ShardedFaultSimulator(
            compiled, backend=backend, workers=workers, min_shard_faults=1
        ) as simulator:
            assert simulator.should_shard(len(faults))

            # One-shot: identical first-detection times for every fault.
            sharded = simulator.run(sequence, faults)
            assert sharded.detection_time == serial_reference[backend]
            assert sharded.total_faults == len(faults)

            # Session: commits in two extensions, interleaved with peeks,
            # must track the serial session exactly (detections, states,
            # remaining set).
            serial_session = FaultSimulator(compiled, backend=backend).session(
                faults
            )
            sharded_session = simulator.session(faults)
            assert isinstance(sharded_session, ShardedFaultSimSession)
            half = len(sequence) // 2
            first = sequence.subsequence(0, half - 1)
            second = sequence.subsequence(half, len(sequence) - 1)
            assert sharded_session.peek(first) == serial_session.peek(first)
            assert sharded_session.commit(first) == serial_session.commit(first)
            assert sharded_session.peek(second) == serial_session.peek(second)
            assert sharded_session.commit(second) == serial_session.commit(second)
            assert (
                sharded_session.detection_time == serial_session.detection_time
            )
            assert set(sharded_session.remaining_faults) == set(
                serial_session.remaining_faults
            )
            # Two committed extensions must equal the one-shot full run.
            assert sharded_session.detection_time == serial_reference[backend]


class TestEdgeCases:
    def test_universe_smaller_than_worker_count(self, syn298):
        """Fewer faults than workers: chunks degrade to one fault each."""
        compiled, faults, sequence = syn298
        few = faults[:3]
        serial = FaultSimulator(compiled).run(sequence, few)
        with ShardedFaultSimulator(
            compiled, workers=4, min_shard_faults=1
        ) as simulator:
            sharded = simulator.run(sequence, few)
            assert sharded.detection_time == serial.detection_time

    def test_session_transitions_to_serial_as_faults_drop(self, syn298):
        """Fault dropping below the threshold mid-session stays exact.

        The first advance below the threshold hands the packed states to
        resident serial batches; advances after that hand-off (a peek
        and a third commit) must still track the serial session, and the
        remaining faults keep the serial session's order.
        """
        compiled, faults, sequence = syn298
        serial_session = FaultSimulator(compiled).session(faults)
        # Threshold chosen so the first commit's detections push the
        # remaining set below it and later advances run serially.
        with ShardedFaultSimulator(
            compiled, workers=2, min_shard_faults=len(faults) - 40
        ) as simulator:
            session = simulator.session(faults)
            assert isinstance(session, ShardedFaultSimSession)
            half = len(sequence) // 2
            three_quarters = 3 * len(sequence) // 4
            first = sequence.subsequence(0, half - 1)
            second = sequence.subsequence(half, three_quarters - 1)
            third = sequence.subsequence(three_quarters, len(sequence) - 1)
            assert session.commit(first) == serial_session.commit(first)
            assert session.remaining_faults == serial_session.remaining_faults
            assert not simulator.should_shard(session.num_remaining)
            assert session.commit(second) == serial_session.commit(second)
            assert session.remaining_faults == serial_session.remaining_faults
            assert session.peek(third) == serial_session.peek(third)
            assert session.num_remaining == serial_session.num_remaining
            assert session.commit(third) == serial_session.commit(third)
            assert session.remaining_faults == serial_session.remaining_faults
            assert session.detection_time == serial_session.detection_time
            assert session.elapsed == serial_session.elapsed == len(sequence)

    def test_empty_sequence_and_empty_faults(self, syn298):
        compiled, faults, _ = syn298
        empty = TestSequence.empty(compiled.num_inputs)
        with ShardedFaultSimulator(
            compiled, workers=2, min_shard_faults=1
        ) as simulator:
            assert simulator.run(empty, faults).num_detected == 0
            result = simulator.run(_stimulus(compiled.circuit, 4), [])
            assert result.num_detected == 0

    def test_detects_single_fault_stays_serial(self, syn298):
        compiled, faults, sequence = syn298
        serial = FaultSimulator(compiled)
        with ShardedFaultSimulator(
            compiled, workers=2, min_shard_faults=1
        ) as simulator:
            for fault in faults[:5]:
                assert simulator.detects(sequence, fault) == serial.detects(
                    sequence, fault
                )

    def test_spawn_start_method_parity(self, syn298, monkeypatch):
        """The pool design must survive spawn (nothing inherited)."""
        compiled, faults, sequence = syn298
        monkeypatch.setenv("REPRO_SHARDING_START_METHOD", "spawn")
        serial = FaultSimulator(compiled).run(sequence, faults)
        with ShardedFaultSimulator(
            compiled, workers=2, min_shard_faults=1
        ) as simulator:
            sharded = simulator.run(sequence, faults)
            assert sharded.detection_time == serial.detection_time
