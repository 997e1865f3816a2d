"""The ScanPlan IR: chunk-plan invariants and executor parity.

Three contracts are enforced here:

* **Planner invariants** — the candidate axis's cost planner and the
  fault axis's count planner cover every item exactly once with
  contiguous, non-empty chunks and respect the batch-width floor (no
  chunk below one bit-parallel pass unless even ``workers`` plain
  chunks would be), and the cost planner balances simulated-step
  budgets on ramp-shaped scans better than equal-count chunks.
* **Plans own their candidates** — costs and index lists of window,
  kept-window and omission plans, and slices that keep every field.
* **The executor tier is a pure throughput knob** — the serial scan,
  ``threads=2`` and process sharding (``workers=2``) yield bit-identical
  detection outcomes, first-hit winners *and* evaluated counts on
  window, kept-window and omission plans for both backends, including
  the empty-ramp and single-candidate edges, each checked against the
  engine's own scan and the base per-step loop.
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
    ExplicitPlan,
    OmissionPlan,
    WindowRampPlan,
    plan_cost_chunks,
)
from repro.sim.seqshard import ShardedSequenceBatchSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.sim.sharding import plan_chunks
from repro.util.rng import SplitMix64

EXPANSION = ExpansionConfig(repetitions=2)

#: Executor-tier axis.  The process-pool points spin real worker pools,
#: so they carry the ``slow`` marker and stay out of the quick CI lane.
TIER_AXIS = [
    "serial",
    "threads2",
    pytest.param("processes2", marks=pytest.mark.slow),
    pytest.param("processes4", marks=pytest.mark.slow),
]


def _kept_ramp(t0, udet):
    """A restoration-shaped kept-window ramp as ``(spans, kept)``.

    The windows end halfway to ``udet`` and the vectors from there to
    ``udet`` are kept (plus the first and last vector of ``t0``), so the
    kept set decides which candidates detect a fault detected at
    ``udet``.
    """
    middle = udet // 2
    spans = [(u, middle) for u in range(middle, -1, -1)]
    kept = {0, *range(middle + 1, udet + 1), len(t0) - 1}
    return spans, kept


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
        chunks = plan_chunks(num, workers, 96)
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
        cost_stats = plan.chunk_stats(4, 96)
        costs = plan.costs()
        count_costs = [
            sum(costs[start:end]) for start, end in plan_chunks(len(plan), 4, 96)
        ]
        count_imbalance = max(count_costs) / (sum(count_costs) / len(count_costs))
        assert cost_stats["total_cost"] == sum(count_costs)
        # Equal-step budgets keep the heaviest chunk near the mean (the
        # batch-width floor bounds what is achievable at the expensive
        # end of the ramp); equal-count chunks put ~2x the mean in the
        # tail chunk.
        assert cost_stats["cost_imbalance"] < 1.6
        assert count_imbalance > 1.7


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

    def test_kept_window_candidates_and_costs(self, workload):
        _, t0, _, udet = workload
        spans, kept = _kept_ramp(t0, udet)
        plan = WindowRampPlan(t0, spans, EXPANSION, kept=kept)
        expected = [
            sorted(kept | set(range(start, end + 1))) for start, end in spans
        ]
        assert [list(indices) for indices in plan.index_lists(len(t0))] == expected
        multiplier = EXPANSION.length_multiplier
        assert plan.costs() == [len(indices) * multiplier for indices in expected]

    def test_plain_windows_are_spans(self, workload):
        _, t0, _, udet = workload
        plan = WindowRampPlan(t0, [(2, udet), (0, 3)], EXPANSION)
        assert [list(indices) for indices in plan.index_lists(len(t0))] == [
            list(range(2, udet + 1)),
            [0, 1, 2, 3],
        ]

    def test_omission_index_lists(self, workload):
        _, t0, _, _ = workload
        plan = OmissionPlan(t0.subsequence(0, 4), [0, 3, 4], EXPANSION)
        assert plan.index_lists(5) == [[1, 2, 3, 4], [0, 1, 2, 4], [0, 1, 2, 3]]

    def test_slice_and_without_base_keep_the_kept_set(self, workload):
        _, t0, _, udet = workload
        spans, kept = _kept_ramp(t0, udet)
        plan = WindowRampPlan(t0, spans, EXPANSION, kept=kept)
        part = plan.slice(1, 4)
        assert part.kept == plan.kept
        assert part.index_lists(len(t0)) == plan.index_lists(len(t0))[1:4]
        stripped = part.without_base()
        assert stripped.base is None and part.base is t0
        assert stripped.items == part.items and stripped.kept == part.kept
        assert stripped.index_lists(len(t0)) == part.index_lists(len(t0))

    def test_validation_rejects_bad_payloads(self, workload):
        _, t0, _, _ = workload
        with pytest.raises(SimulationError):
            WindowRampPlan(t0, [(0, len(t0))], EXPANSION)
        with pytest.raises(SimulationError):
            WindowRampPlan(t0, [(3, 2)], EXPANSION)
        with pytest.raises(SimulationError):
            WindowRampPlan(t0, [(0, 1)], EXPANSION, kept=[len(t0)])
        with pytest.raises(SimulationError):
            WindowRampPlan(t0, [(0, 1)], EXPANSION, kept=[-1])
        with pytest.raises(SimulationError):
            OmissionPlan(t0, [len(t0)], EXPANSION)


@pytest.mark.parametrize("backend", registry_backends())
@pytest.mark.parametrize("tier", TIER_AXIS)
@pytest.mark.parametrize("reference_scan", ["engine", "base-loop"])
class TestExecutorParity:
    """Every executor tier is bit-identical to the serial reference.

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

    def _simulator(self, compiled, backend, tier):
        if tier == "serial":
            return SequenceBatchSimulator(compiled, batch_width=16, backend=backend)
        if tier == "threads2":
            return SequenceBatchSimulator(
                compiled, batch_width=16, backend=backend, threads=2
            )
        # Built directly: the process axis must exercise the sharded path
        # even on a single-core runner.
        return ShardedSequenceBatchSimulator(
            compiled,
            batch_width=16,
            backend=backend,
            workers=int(tier.removeprefix("processes")),
            min_shard_candidates=1,
        )

    def test_first_hit_and_outcomes_identical(
        self,
        workload,
        backend,
        tier,
        reference_scan,
        base_loop_backend,
        require_backend,
    ):
        require_backend(backend)
        compiled, t0, fault, udet = workload
        spans = [(u, udet) for u in range(udet, -1, -1)]
        kept_spans, kept = _kept_ramp(t0, udet)
        plans = {
            "windows": WindowRampPlan(t0, spans, EXPANSION),
            "kept-windows": WindowRampPlan(t0, kept_spans, EXPANSION, kept=kept),
            "omissions": OmissionPlan(
                t0.subsequence(0, udet), range(udet + 1), EXPANSION
            ),
        }
        reference = self._reference(
            compiled, backend, reference_scan, base_loop_backend
        )
        expected = {
            name: (
                reference.scan(fault, plan),
                reference.first_hit(fault, plan, chunk=8),
            )
            for name, plan in plans.items()
        }
        with self._simulator(compiled, backend, tier) as simulator:
            for name, plan in plans.items():
                label = f"{name}/{tier}/{backend}/{reference_scan}"
                observed = (
                    simulator.scan(fault, plan),
                    simulator.first_hit(fault, plan, chunk=8),
                )
                assert observed == expected[name], label

    def test_empty_ramp_and_single_candidate_edges(
        self,
        workload,
        backend,
        tier,
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
        with self._simulator(compiled, backend, tier) as simulator:
            label = f"{tier}/{backend}/{reference_scan}"
            assert simulator.scan(fault, empty_plan) == [], label
            assert simulator.first_hit(fault, empty_plan, chunk=8) == (
                None,
                0,
            ), label
            assert (
                simulator.first_hit(fault, single_plan, chunk=8)
                == expected_single
            ), label
