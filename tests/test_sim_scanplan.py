"""The ScanPlan IR: chunk-plan invariants and cost/count parity.

Two contracts are enforced here:

* **Planner invariants** — both chunk planners cover every candidate
  exactly once with contiguous, non-empty chunks, respect the
  batch-width floor (no chunk below one bit-parallel pass unless even
  ``workers`` plain chunks would be), and the cost planner actually
  balances simulated-step budgets on ramp-shaped scans.
* **Chunking is a pure throughput knob** — cost-balanced and
  count-based plans yield bit-identical detection outcomes, first-hit
  winners *and* evaluated counts across workers 1/2/4 and both
  backends, including the empty-ramp and single-candidate edges.
"""

from __future__ import annotations

import pytest

from repro.circuits.catalog import load_circuit
from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.universe import FaultUniverse
from repro.sim.backend import registry_backends
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.scanplan import (
    CHUNKING_MODES,
    ExplicitPlan,
    OmissionPlan,
    WindowRampPlan,
    plan_cost_chunks,
    plan_count_chunks,
    validate_chunking,
)
from repro.sim.seqshard import ShardedSequenceBatchSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64

EXPANSION = ExpansionConfig(repetitions=2)

#: Sharded-parity parameter axis: serial plus two pool sizes.  The
#: multi-worker points spin real process pools, so they carry the
#: ``slow`` marker and stay out of the quick CI lane.
WORKER_AXIS = [
    1,
    pytest.param(2, marks=pytest.mark.slow),
    pytest.param(4, marks=pytest.mark.slow),
]


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
    """One syn298 fault with a deep detection time, plus its T0."""
    circuit = load_circuit("syn298")
    compiled = CompiledCircuit(circuit)
    t0 = _stimulus(circuit, 32)
    universe = FaultUniverse(circuit)
    detection = FaultSimulator(compiled).run(t0, list(universe.faults()))
    fault, udet = max(
        detection.detection_time.items(), key=lambda item: (item[1], str(item[0]))
    )
    return compiled, t0, fault, udet


def _assert_chunk_invariants(chunks, num_items, workers, batch_width):
    if num_items == 0:
        assert chunks == []
        return
    assert chunks[0][0] == 0
    assert chunks[-1][1] == num_items
    floor = min(batch_width, -(-num_items // workers))
    for position, (start, end) in enumerate(chunks):
        assert end > start, "chunks must be non-empty"
        if position < len(chunks) - 1:
            assert chunks[position + 1][0] == end, "chunks must be contiguous"
            assert end - start >= floor, "no chunk below one pass"


class TestPlanners:
    @pytest.mark.parametrize("num", [0, 1, 7, 96, 97, 385, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_count_plan_invariants(self, num, workers):
        chunks = plan_count_chunks(num, workers, 96)
        _assert_chunk_invariants(chunks, num, workers, 96)

    @pytest.mark.parametrize("num", [0, 1, 7, 96, 97, 385, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cost_plan_invariants_on_a_ramp(self, num, workers):
        costs = [length + 1 for length in range(num)]  # window-ramp shape
        chunks = plan_cost_chunks(costs, workers, 96)
        _assert_chunk_invariants(chunks, num, workers, 96)

    def test_cost_plan_uniform_costs_degenerates_to_count_shape(self):
        costs = [17] * 1000
        chunks = plan_cost_chunks(costs, 4, 96)
        _assert_chunk_invariants(chunks, 1000, 4, 96)
        # Chunks above one pass stay whole-pass aligned, like the count plan.
        for start, end in chunks[:-1]:
            size = end - start
            assert size <= 96 or size % 96 == 0

    def test_cost_plan_balances_a_ramp_better_than_count(self):
        # A long ustart ramp: cost grows linearly with position.
        base = TestSequence([[0] for _ in range(2048)])
        spans = [(0, end) for end in range(2048)]
        plan = WindowRampPlan(base, spans, EXPANSION)
        cost_stats = plan.chunk_stats(4, 96, chunking="cost")
        count_stats = plan.chunk_stats(4, 96, chunking="count")
        assert cost_stats["total_cost"] == count_stats["total_cost"]
        assert cost_stats["cost_imbalance"] < count_stats["cost_imbalance"]
        # Equal-step budgets keep the heaviest chunk near the mean (the
        # batch-width floor bounds what is achievable at the expensive
        # end of the ramp); the count plan's tail chunk is ~2x the mean.
        assert cost_stats["cost_imbalance"] < 1.6
        assert count_stats["cost_imbalance"] > 1.7

    def test_validate_chunking(self):
        for mode in CHUNKING_MODES:
            assert validate_chunking(mode) == mode
        with pytest.raises(SimulationError):
            validate_chunking("random")


class TestPlanIR:
    def test_window_costs_are_expanded_lengths(self, workload):
        _, t0, _, udet = workload
        spans = [(u, udet) for u in range(udet, -1, -1)]
        plan = WindowRampPlan(t0, spans, EXPANSION)
        multiplier = EXPANSION.length_multiplier
        assert plan.costs() == [
            (end - start + 1) * multiplier for start, end in spans
        ]
        assert plan.total_cost() == sum(plan.costs())

    def test_omission_costs_are_uniform(self, workload):
        _, t0, _, _ = workload
        plan = OmissionPlan(t0, range(len(t0)), EXPANSION)
        expected = (len(t0) - 1) * EXPANSION.length_multiplier
        assert plan.costs() == [expected] * len(t0)

    def test_explicit_costs_are_lengths(self, workload):
        _, t0, _, _ = workload
        plan = ExplicitPlan([t0.subsequence(0, end) for end in (0, 3, 7)])
        assert plan.costs() == [1, 4, 8]

    def test_slice_preserves_base_and_expansion(self, workload):
        _, t0, _, udet = workload
        spans = [(u, udet) for u in range(udet, -1, -1)]
        plan = WindowRampPlan(t0, spans, EXPANSION)
        part = plan.slice(2, 5)
        assert part.kind == "windows"
        assert part.items == spans[2:5]
        assert part.base is t0
        assert part.expansion is EXPANSION
        assert part.costs() == plan.costs()[2:5]

    def test_validation_rejects_bad_payloads(self, workload):
        _, t0, _, _ = workload
        with pytest.raises(SimulationError):
            WindowRampPlan(t0, [(0, len(t0))], EXPANSION)
        with pytest.raises(SimulationError):
            WindowRampPlan(t0, [(3, 2)], EXPANSION)
        with pytest.raises(SimulationError):
            OmissionPlan(t0, [len(t0)], EXPANSION)


@pytest.mark.parametrize("backend", registry_backends())
@pytest.mark.parametrize("workers", WORKER_AXIS)
@pytest.mark.parametrize("reference_scan", ["engine", "base-loop"])
class TestChunkingParity:
    """Cost and count plans are bit-identical for any worker count.

    The serial reference is computed either with the engine's own scan
    or with the base per-step loop that specifies it, so the
    ``base-loop`` points also prove every chunked scan matches the spec.
    """

    def _reference(self, compiled, backend, reference_scan, base_loop_backend):
        engine = (
            base_loop_backend(compiled, backend)
            if reference_scan == "base-loop"
            else backend
        )
        return SequenceBatchSimulator(compiled, batch_width=16, backend=engine)

    def _simulators(self, compiled, backend, workers):
        if workers == 1:
            serial = SequenceBatchSimulator(compiled, batch_width=16, backend=backend)
            return {chunking: serial for chunking in CHUNKING_MODES}
        # Built directly: the multi-worker axis must exercise the sharded
        # path even on a single-core runner.
        return {
            chunking: ShardedSequenceBatchSimulator(
                compiled,
                batch_width=16,
                backend=backend,
                workers=workers,
                min_shard_candidates=1,
                chunking=chunking,
            )
            for chunking in CHUNKING_MODES
        }

    def test_first_hit_and_outcomes_identical(
        self,
        workload,
        backend,
        workers,
        reference_scan,
        base_loop_backend,
        require_backend,
    ):
        require_backend(backend)
        compiled, t0, fault, udet = workload
        spans = [(u, udet) for u in range(udet, -1, -1)]
        window_plan = WindowRampPlan(t0, spans, EXPANSION)
        omission_plan = OmissionPlan(
            t0.subsequence(0, udet), range(udet + 1), EXPANSION
        )
        reference = self._reference(
            compiled, backend, reference_scan, base_loop_backend
        )
        expected = {
            "windows": reference.scan(fault, window_plan),
            "omissions": reference.scan(fault, omission_plan),
            "first_window": reference.first_hit(fault, window_plan, chunk=8),
            "first_omission": reference.first_hit(fault, omission_plan, chunk=8),
        }
        simulators = self._simulators(compiled, backend, workers)
        try:
            for chunking, simulator in simulators.items():
                label = f"{chunking}/w{workers}/{backend}/{reference_scan}"
                assert (
                    simulator.scan(fault, window_plan) == expected["windows"]
                ), label
                assert (
                    simulator.scan(fault, omission_plan) == expected["omissions"]
                ), label
                assert (
                    simulator.first_hit(fault, window_plan, chunk=8)
                    == expected["first_window"]
                ), label
                assert (
                    simulator.first_hit(fault, omission_plan, chunk=8)
                    == expected["first_omission"]
                ), label
        finally:
            for simulator in simulators.values():
                simulator.close()

    def test_empty_ramp_and_single_candidate_edges(
        self,
        workload,
        backend,
        workers,
        reference_scan,
        base_loop_backend,
        require_backend,
    ):
        require_backend(backend)
        compiled, t0, fault, udet = workload
        empty_plan = WindowRampPlan(t0, [], EXPANSION)
        single_plan = WindowRampPlan(t0, [(udet, udet)], EXPANSION)
        reference = self._reference(
            compiled, backend, reference_scan, base_loop_backend
        )
        expected_single = reference.first_hit(fault, single_plan, chunk=8)
        simulators = self._simulators(compiled, backend, workers)
        try:
            for chunking, simulator in simulators.items():
                label = f"{chunking}/w{workers}/{backend}/{reference_scan}"
                assert simulator.scan(fault, empty_plan) == [], label
                assert simulator.first_hit(fault, empty_plan, chunk=8) == (
                    None,
                    0,
                ), label
                assert (
                    simulator.first_hit(fault, single_plan, chunk=8)
                    == expected_single
                ), label
        finally:
            for simulator in simulators.values():
                simulator.close()
