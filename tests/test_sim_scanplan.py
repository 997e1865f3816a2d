"""The ScanPlan IR: chunk-plan invariants and executor parity.

Three contracts are enforced here:

* **Chunk invariants** — the one chunk cut both axes use covers every
  item exactly once with contiguous, non-empty chunks and respects the
  batch-width floor (no chunk below one bit-parallel pass unless even
  ``threads`` plain chunks would be).
* **Plans own their candidates** — index lists of window, kept-window
  and omission plans, and slices that keep every field.
* **The thread count is a pure throughput knob** — the serial scan and
  chunk threads (``threads=2``, ``3`` and ``4``, fanned out past the floor)
  yield bit-identical detection outcomes, first-hit winners *and*
  evaluated counts on window, kept-window and omission plans for both
  backends, including the empty-ramp and single-candidate edges, each
  checked against the engine's own scan and the base per-step loop.
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
from repro.sim.scanplan import OmissionPlan, WindowRampPlan
from repro.sim.seqsim import SequenceBatchSimulator
from repro.sim.workerpool import chunk_bounds
from repro.util.rng import SplitMix64

EXPANSION = ExpansionConfig(repetitions=2)

#: Chunk threads per executor point (1 = the serial scan).
TIER_AXIS = {"serial": 1, "threads2": 2, "threads3": 3, "threads4": 4}


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


class TestChunkBounds:
    @pytest.mark.parametrize("num", [0, 1, 7, 96, 97, 385, 1000])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_count_plan_invariants(self, num, workers):
        chunks = chunk_bounds(num, workers, 96)
        _assert_chunk_invariants(chunks, num, workers, 96)


class TestPlanIR:
    def test_slice_preserves_base_and_expansion(self, workload):
        _, t0, _, udet = workload
        spans = [(u, udet) for u in range(udet, -1, -1)]
        plan = WindowRampPlan(t0, spans, EXPANSION)
        part = plan.slice(2, 5)
        assert part.kind == "windows"
        assert part.items == spans[2:5]
        assert part.base is t0
        assert part.expansion is EXPANSION

    def test_kept_window_candidates(self, workload):
        _, t0, _, udet = workload
        spans, kept = _kept_ramp(t0, udet)
        plan = WindowRampPlan(t0, spans, EXPANSION, kept=kept)
        expected = [
            sorted(kept | set(range(start, end + 1))) for start, end in spans
        ]
        assert [list(indices) for indices in plan.index_lists(len(t0))] == expected

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

    def test_slice_keeps_the_kept_set(self, workload):
        _, t0, _, udet = workload
        spans, kept = _kept_ramp(t0, udet)
        plan = WindowRampPlan(t0, spans, EXPANSION, kept=kept)
        part = plan.slice(1, 4)
        assert part.kept == plan.kept and part.base is t0
        assert part.index_lists(len(t0)) == plan.index_lists(len(t0))[1:4]

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
    """Every thread count is bit-identical to the serial reference.

    The serial reference is computed either with the engine's own scan
    or with the base per-step loop that specifies it, so the
    ``base-loop`` points also prove every chunked scan matches the spec.
    Executors run with the fan-out floor dropped (``fanned_out``).
    """

    def _reference(self, compiled, backend, reference_scan, base_loop_backend):
        engine = (
            base_loop_backend(compiled, backend)
            if reference_scan == "base-loop"
            else backend
        )
        return SequenceBatchSimulator(compiled, batch_width=16, backend=engine)

    def _simulator(self, compiled, backend, tier):
        return SequenceBatchSimulator(
            compiled, batch_width=16, backend=backend, threads=TIER_AXIS[tier]
        )

    def test_first_hit_and_outcomes_identical(
        self,
        workload,
        backend,
        tier,
        reference_scan,
        base_loop_backend,
        require_backend,
        fanned_out,
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
        simulator = self._simulator(compiled, backend, tier)
        with fanned_out():
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
        fanned_out,
    ):
        require_backend(backend)
        compiled, t0, fault, udet = workload
        empty_plan = WindowRampPlan(t0, [], EXPANSION)
        single_plan = WindowRampPlan(t0, [(udet, udet)], EXPANSION)
        reference = self._reference(
            compiled, backend, reference_scan, base_loop_backend
        )
        expected_single = reference.first_hit(fault, single_plan, chunk=8)
        simulator = self._simulator(compiled, backend, tier)
        with fanned_out():
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
