"""Sharded-vs-serial parity for process-sharded candidate detection.

The contract of :mod:`repro.sim.seqshard` mirrors the fault axis's: the
worker count is a pure throughput knob.  Detection outcomes, first-hit
winners *and* the evaluated-candidate statistics must be bit-identical
to the serial :class:`~repro.sim.seqsim.SequenceBatchSimulator` for
every backend, worker count, transport (base bits or whole plans) and
start method.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.circuits.catalog import load_circuit
from repro.core.config import SelectionConfig
from repro.core.ops import IDENTITY_EXPANSION, ExpansionConfig
from repro.core.procedure2 import build_subsequence_for_fault
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.universe import FaultUniverse
from repro.sim.backend import available_backends, registry_backends
from repro.sim.autotune import static_profile
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.scanplan import ExplicitPlan, WindowRampPlan
from repro.sim.seqshard import (
    SERIAL_FALLBACK_CANDIDATES,
    ShardedSequenceBatchSimulator,
    make_sequence_simulator,
)
from repro.sim.seqsim import SequenceBatchSimulator
from repro.sim.sharding import ShardedFaultSimulator
from repro.sim.workerpool import get_worker_pool
from repro.util.rng import SplitMix64

#: Every test here exercises real multi-worker process pools; the quick
#: CI lane deselects them (tier-1 verify and the full matrix run all).
pytestmark = pytest.mark.slow

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


def _kept_plan(t0, udet, spans):
    """The restoration compactor's shape: a window ramp plus kept vectors
    on both sides of it, under the identity expansion."""
    return WindowRampPlan(
        t0, spans, IDENTITY_EXPANSION, kept={0, udet // 2, udet, len(t0) - 1}
    )


#: Which scan computes the serial reference: the engine's own
#: ``run_scan`` or the base per-step loop that specifies it.  Sharded
#: workers always run the engine's own scan, so the ``base-loop`` points
#: check that scan against the specification across process boundaries.
REFERENCE_SCANS = ["engine", "base-loop"]


@pytest.fixture(scope="module")
def serial_reference(workload, base_loop_backend):
    """Serial outcomes per backend and reference scan, computed once."""
    compiled, t0, fault, udet, spans, base, omissions, _ = workload
    kept_plan = _kept_plan(t0, udet, spans)
    reference = {}
    for backend in available_backends():
        for scan in REFERENCE_SCANS:
            engine = (
                base_loop_backend(compiled, backend) if scan == "base-loop" else backend
            )
            serial = SequenceBatchSimulator(compiled, batch_width=16, backend=engine)
            reference[backend, scan] = {
                "windows": serial.detects_windows(fault, t0, spans, EXPANSION),
                "omissions": serial.detects_omissions(
                    fault, base, omissions, EXPANSION
                ),
                "first_window": serial.first_detecting_window(
                    fault, t0, spans, EXPANSION, chunk=8
                ),
                "first_omission": serial.first_detecting_omission(
                    fault, base, omissions, EXPANSION, chunk=8
                ),
                "kept_windows": serial.scan(fault, kept_plan),
                "first_kept_window": serial.first_hit(fault, kept_plan, chunk=8),
            }
    return reference


class TestFactory:
    def test_workers_one_is_plain_serial(self, workload):
        compiled = workload[0]
        simulator = make_sequence_simulator(compiled, workers=1)
        assert type(simulator) is SequenceBatchSimulator
        simulator.close()  # no-op on the serial class

    def test_workers_zero_shards_one_per_cpu(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "3")
        compiled = workload[0]
        with make_sequence_simulator(compiled, workers=0) as simulator:
            assert isinstance(simulator, ShardedSequenceBatchSimulator)
            assert simulator.workers == 3

    def test_single_core_machine_falls_back_to_serial(self, workload, monkeypatch):
        compiled = workload[0]
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        simulator = make_sequence_simulator(compiled, workers=4)
        assert type(simulator) is SequenceBatchSimulator
        simulator.close()

    def test_calibrated_win_overrides_single_core_fallback(
        self, workload, monkeypatch
    ):
        """A measured multi-worker win outranks the one-core guess."""
        compiled = workload[0]
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        profile = replace(static_profile(), workers=2, source="calibrated")
        with make_sequence_simulator(compiled, workers=2, profile=profile) as simulator:
            assert isinstance(simulator, ShardedSequenceBatchSimulator)
            assert simulator.workers == 2

    def test_multi_core_machine_keeps_sharding(self, workload, monkeypatch):
        compiled = workload[0]
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        with make_sequence_simulator(compiled, workers=2) as simulator:
            assert isinstance(simulator, ShardedSequenceBatchSimulator)

    def test_default_floor_scales_with_batch_width(self, workload):
        compiled = workload[0]
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=96, workers=2
        ) as simulator:
            # One bit-parallel pass has nothing to parallelize.
            assert not simulator.should_shard(96)
            assert simulator.should_shard(97)
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=8, workers=2
        ) as simulator:
            assert not simulator.should_shard(SERIAL_FALLBACK_CANDIDATES - 1)
            assert simulator.should_shard(SERIAL_FALLBACK_CANDIDATES)

    def test_invalid_worker_count_rejected(self, workload):
        compiled = workload[0]
        with pytest.raises(SimulationError):
            ShardedSequenceBatchSimulator(compiled, workers=-2)

    def test_small_sets_run_serially(self, workload):
        compiled, t0, fault, udet, *_ = workload
        with ShardedSequenceBatchSimulator(compiled, workers=4) as simulator:
            # Below the floor nothing touches the pool: no context exists
            # after the call.
            outcome = simulator.detects_windows(fault, t0, [(udet, udet)], EXPANSION)
            assert outcome in ([True], [False])
            assert simulator._context is None


@pytest.mark.parametrize("backend", registry_backends())
@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("reference_scan", REFERENCE_SCANS)
class TestShardedParity:
    """Worker count is a pure throughput knob.

    Each point is checked against a serial reference computed with the
    engine's own scan and against one computed with the base loop.
    """

    def test_windows_omissions_and_first_hits(
        self,
        workload,
        serial_reference,
        backend,
        workers,
        reference_scan,
        require_backend,
    ):
        require_backend(backend)
        compiled, t0, fault, udet, spans, base, omissions, _ = workload
        reference = serial_reference[backend, reference_scan]
        with ShardedSequenceBatchSimulator(
            compiled,
            batch_width=16,
            backend=backend,
            workers=workers,
            min_shard_candidates=1,
        ) as simulator:
            assert simulator.should_shard(len(spans))
            assert (
                simulator.detects_windows(fault, t0, spans, EXPANSION)
                == reference["windows"]
            )
            assert (
                simulator.detects_omissions(fault, base, omissions, EXPANSION)
                == reference["omissions"]
            )
            # First-hit: same winner and the same evaluated count (the
            # serial chunked-scan formula), for any worker count.
            assert (
                simulator.first_detecting_window(fault, t0, spans, EXPANSION, chunk=8)
                == reference["first_window"]
            )
            assert (
                simulator.first_detecting_omission(
                    fault, base, omissions, EXPANSION, chunk=8
                )
                == reference["first_omission"]
            )
            # Kept windows: the tasks carry the kept set with the plan.
            kept_plan = _kept_plan(t0, udet, spans)
            assert simulator.scan(fault, kept_plan) == reference["kept_windows"]
            assert (
                simulator.first_hit(fault, kept_plan, chunk=8)
                == reference["first_kept_window"]
            )

    def test_explicit_candidates(
        self,
        workload,
        base_loop_backend,
        backend,
        workers,
        reference_scan,
        require_backend,
    ):
        require_backend(backend)
        compiled, t0, fault, udet, *_ = workload
        candidates = [t0.subsequence(u, udet) for u in range(udet, -1, -1)] + [t0]
        engine = (
            base_loop_backend(compiled, backend)
            if reference_scan == "base-loop"
            else backend
        )
        serial = SequenceBatchSimulator(
            compiled, batch_width=16, backend=engine
        ).detects(fault, candidates)
        with ShardedSequenceBatchSimulator(
            compiled,
            batch_width=16,
            backend=backend,
            workers=workers,
            min_shard_candidates=1,
        ) as simulator:
            assert simulator.detects(fault, candidates) == serial


class TestFirstHitEdgeCases:
    def test_no_winner_evaluates_everything(self, workload):
        compiled, t0, _fault, _udet, spans, *_rest, undetected = workload
        assert undetected, "syn298 stimulus should leave some faults undetected"
        # A fault t0 misses may still be caught by an *expanded* window,
        # so scan for one whose whole window search comes up empty.
        identity = ExpansionConfig(
            repetitions=1, use_complement=False, use_shift=False, use_reverse=False
        )
        serial = SequenceBatchSimulator(compiled, batch_width=16)

        def never_detects(fault):
            outcome = serial.first_detecting_window(
                fault, t0, spans, identity, chunk=8
            )
            return outcome == (None, len(spans))

        ghost = next((fault for fault in undetected if never_detects(fault)), None)
        assert ghost is not None, "expected an expanded-window-proof fault"
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=1
        ) as simulator:
            outcome = simulator.first_detecting_window(
                ghost, t0, spans, identity, chunk=8
            )
            assert outcome == (None, len(spans))

    def test_chunk_width_variants_agree_on_winner(self, workload):
        compiled, t0, fault, _udet, spans, *_ = workload
        serial = SequenceBatchSimulator(compiled, batch_width=16)
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=1
        ) as simulator:
            for chunk in (1, 3, 16, None):
                expected = serial.first_detecting_window(
                    fault, t0, spans, EXPANSION, chunk=chunk
                )
                observed = simulator.first_detecting_window(
                    fault, t0, spans, EXPANSION, chunk=chunk
                )
                assert observed == expected, f"chunk={chunk}"

    @pytest.mark.parametrize("floor", [1, 20])
    @pytest.mark.parametrize("winner", [0, 7, 8, 13, 23, None])
    def test_first_chunk_runs_in_the_parent(
        self, workload, winner, floor, monkeypatch
    ):
        """The first ``chunk`` candidates are scanned in the parent; the
        pool sees only the rest, only when the first chunk misses and only
        when the rest reaches the shard floor (16 candidates are below a
        floor of 20 and finish serially).  ``(position, evaluated)``
        equals the serial scan either way."""
        compiled, t0, fault, udet, *_ = workload
        miss = t0.subsequence(0, udet - 1)  # ends before the first detection
        hit = t0.subsequence(0, udet)
        candidates = [miss] * 24
        if winner is not None:
            candidates[winner] = hit
        plan = ExplicitPlan(candidates)
        expected = SequenceBatchSimulator(compiled, batch_width=16).first_hit(
            fault, plan, chunk=8
        )
        assert expected == (
            (None, 24) if winner is None else (winner, (winner // 8 + 1) * 8)
        )
        fanned_out = []
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=floor
        ) as simulator:
            original = simulator._first_hit_sharded

            def recording(fault, rest, chunk):
                fanned_out.append(len(rest))
                return original(fault, rest, chunk)

            monkeypatch.setattr(simulator, "_first_hit_sharded", recording)
            assert simulator.first_hit(fault, plan, chunk=8) == expected
        first_chunk_hit = winner is not None and winner < 8
        assert fanned_out == ([] if first_chunk_hit or floor > 16 else [16])


class TestTransports:
    def test_pickled_base_transport(self, workload, monkeypatch):
        """Without base bits (no numpy), plans ship whole, base included."""
        compiled, t0, fault, udet, spans, base, omissions, _ = workload
        serial = SequenceBatchSimulator(compiled, batch_width=16)
        monkeypatch.setattr(
            ShardedSequenceBatchSimulator, "_use_derived_bits", lambda self: False
        )
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=1
        ) as simulator:
            kept_plan = _kept_plan(t0, udet, spans)
            assert simulator._task_payload(kept_plan) == (None, kept_plan)
            assert simulator.scan(fault, kept_plan) == serial.scan(fault, kept_plan)
            assert simulator.detects_windows(
                fault, t0, spans, EXPANSION
            ) == serial.detects_windows(fault, t0, spans, EXPANSION)
            assert simulator.detects_omissions(
                fault, base, omissions, EXPANSION
            ) == serial.detects_omissions(fault, base, omissions, EXPANSION)
            assert simulator.first_detecting_window(
                fault, t0, spans, EXPANSION, chunk=8
            ) == serial.first_detecting_window(fault, t0, spans, EXPANSION, chunk=8)

    def test_spawn_start_method_parity(self, workload, monkeypatch):
        """The design must survive spawn (nothing inherited)."""
        compiled, t0, fault, _udet, spans, *_ = workload
        serial = SequenceBatchSimulator(compiled, batch_width=16).detects_windows(
            fault, t0, spans, EXPANSION
        )
        monkeypatch.setenv("REPRO_SHARDING_START_METHOD", "spawn")
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=1
        ) as simulator:
            assert simulator.detects_windows(fault, t0, spans, EXPANSION) == serial


class TestSharedPool:
    def test_both_axes_borrow_one_pool(self, workload):
        """Fault- and candidate-axis simulators reuse the same processes."""
        compiled, t0, fault, _udet, spans, *_ = workload
        faults = list(FaultUniverse(compiled.circuit).faults())
        pool = get_worker_pool(2)
        with ShardedFaultSimulator(
            compiled, workers=2, min_shard_faults=1
        ) as fault_sim, ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=1
        ) as seq_sim:
            fault_sim.run(t0, faults)
            seq_sim.detects_windows(fault, t0, spans, EXPANSION)
            assert fault_sim._context.handle.pool is pool
            assert seq_sim._context.pool is pool
        # Closing the simulators retires their contexts but keeps the
        # session pool warm for the next borrower.
        assert not pool.closed
        assert get_worker_pool(2) is pool

    def test_finalizer_defers_retire_to_next_dispatch(self, workload):
        """__del__ must not broadcast on the shared pool; the retire is
        queued and flushed at the next owning-thread dispatch."""
        compiled, t0, fault, _udet, spans, *_ = workload
        simulator = ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=1
        )
        expected = simulator.detects_windows(fault, t0, spans, EXPANSION)
        pool = simulator._context.pool
        context_id = simulator._context.context_id
        simulator.__del__()
        assert context_id in pool._deferred_retires
        # The next simulator's dispatch flushes the queue and still
        # computes correct results.
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=1
        ) as fresh:
            assert fresh.detects_windows(fault, t0, spans, EXPANSION) == expected
        assert pool._deferred_retires == []

    def test_context_republished_after_close(self, workload):
        compiled, t0, fault, _udet, spans, *_ = workload
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=16, workers=2, min_shard_candidates=1
        ) as simulator:
            first = simulator.detects_windows(fault, t0, spans, EXPANSION)
            simulator.close()
            assert simulator._context is None
            # A further call transparently republishes the context.
            assert simulator.detects_windows(fault, t0, spans, EXPANSION) == first


class TestProcedure2EndToEnd:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_subsequence_identical_to_serial(self, workload, workers):
        """Procedure 2 output — sequence, ustart and the evaluated-candidate
        statistic — must not depend on the worker count."""
        compiled, t0, fault, udet, *_ = workload
        config = SelectionConfig(
            expansion=ExpansionConfig(repetitions=1),
            seed=17,
            search_batch_width=8,
            omission_batch_width=12,
        )
        serial = build_subsequence_for_fault(
            SequenceBatchSimulator(compiled, batch_width=12),
            t0,
            fault,
            udet,
            config,
            fault_salt=3,
        )
        with ShardedSequenceBatchSimulator(
            compiled, batch_width=12, workers=workers, min_shard_candidates=1
        ) as simulator:
            sharded = build_subsequence_for_fault(
                simulator, t0, fault, udet, config, fault_salt=3
            )
        assert sharded == serial
