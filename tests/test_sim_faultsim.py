"""Tests for the parallel-fault simulator, cross-checked against the
reference simulator and exercised across batch widths and sessions."""

from __future__ import annotations

import pytest

from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.model import STEM, Fault, FaultSite
from repro.faults.universe import FaultUniverse
from repro.sim.backend import dispatch_counters
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.reference import ReferenceSimulator
from repro.util.rng import SplitMix64


def _random_sequence(seed: int, width: int, length: int) -> TestSequence:
    rng = SplitMix64(seed)
    return TestSequence(
        [[rng.next_u64() & 1 for _ in range(width)] for _ in range(length)]
    )


class TestAgainstReference:
    def test_s27_paper_t0_detection_times_match_reference(
        self, s27, s27_universe, s27_t0
    ):
        fast = FaultSimulator(s27).run(s27_t0, list(s27_universe.faults()))
        reference = ReferenceSimulator(s27)
        for fault in s27_universe.faults():
            assert fast.detection_time.get(fault) == reference.detection_time(
                s27_t0, fault
            ), str(fault)

    def test_synthetic_circuit_matches_reference(self, small_synthetic):
        universe = FaultUniverse(small_synthetic)
        sequence = _random_sequence(7, small_synthetic.num_inputs, 30)
        fast = FaultSimulator(small_synthetic).run(sequence, list(universe.faults()))
        reference = ReferenceSimulator(small_synthetic)
        for fault in universe.faults():
            assert fast.detection_time.get(fault) == reference.detection_time(
                sequence, fault
            ), str(fault)


class TestBatching:
    @pytest.mark.parametrize("width", [1, 3, 7, 64, 500])
    def test_batch_width_does_not_change_results(
        self, s27, s27_universe, s27_t0, width
    ):
        baseline = FaultSimulator(s27, batch_width=192).run(
            s27_t0, list(s27_universe.faults())
        )
        other = FaultSimulator(s27, batch_width=width).run(
            s27_t0, list(s27_universe.faults())
        )
        assert baseline.detection_time == other.detection_time

    def test_invalid_batch_width(self, s27):
        with pytest.raises(SimulationError):
            FaultSimulator(s27, batch_width=0)


class TestResultObject:
    def test_paper_detection_profile(self, s27, s27_universe, s27_t0):
        result = FaultSimulator(s27).run(s27_t0, list(s27_universe.faults()))
        assert result.num_detected == 32
        assert result.coverage == 1.0
        from collections import Counter

        profile = Counter(result.detection_time.values())
        assert dict(profile) == {1: 9, 2: 4, 4: 1, 5: 11, 6: 2, 8: 3, 9: 2}

    def test_empty_inputs(self, s27, s27_universe):
        result = FaultSimulator(s27).run(TestSequence([]), list(s27_universe.faults()))
        assert result.num_detected == 0
        result = FaultSimulator(s27).run(paper_seq(), [])
        assert result.total_faults == 0

    def test_detects_single(self, s27, s27_universe, s27_t0):
        fault = s27_universe.fault(0)
        assert FaultSimulator(s27).detects(s27_t0, fault)

    def test_records(self, s27, s27_universe, s27_t0):
        result = FaultSimulator(s27).run(s27_t0, list(s27_universe.faults()))
        records = result.records(list(s27_universe.faults()))
        assert all(r.detected for r in records)
        assert all(r.detection_time is not None for r in records)


def paper_seq() -> TestSequence:
    from repro.circuits.catalog import paper_t0_s27

    return paper_t0_s27()


class TestStuckSemantics:
    def test_pi_stem_fault_forces_input(self, tiny_combinational):
        # y = NAND(a, b); a stuck-at-0 forces y=1 always.
        fault = Fault(FaultSite("a", STEM), 0)
        simulator = FaultSimulator(tiny_combinational)
        detecting = TestSequence([[1, 1]])  # good y=0, faulty y=1
        non_detecting = TestSequence([[0, 1]])  # both 1
        assert simulator.detects(detecting, fault)
        assert not simulator.detects(non_detecting, fault)

    def test_flop_output_stem_fault_applies_at_time_zero(self, resettable_toggle):
        # q stuck-at-1: out = NOT(q) is 0 in the faulty machine at t=0,
        # but the good machine is X at t=0, so detection needs the reset.
        fault = Fault(FaultSite("q", STEM), 1)
        simulator = FaultSimulator(resettable_toggle)
        result = simulator.run(TestSequence([[0, 0], [0, 1]]), [fault])
        # After reset good q=0 -> out=1; faulty q stuck 1 -> out=0.
        assert result.detection_time[fault] == 1

    def test_po_branch_fault_only_affects_observation(self):
        from repro.circuit.builder import CircuitBuilder
        from repro.faults.model import BRANCH

        # y fans out to PO y and gate z (also a PO).
        builder = CircuitBuilder("c")
        builder.add_input("a")
        builder.add_not("y", "a")
        builder.add_not("z", "y")
        builder.add_output("y")
        builder.add_output("z")
        circuit = builder.build()
        fault = Fault(
            FaultSite("y", BRANCH, sink="y", pin=0, load_kind="po"), 0
        )
        simulator = FaultSimulator(circuit)
        result = simulator.run(TestSequence([[0]]), [fault])
        # Good: y=1, z=0.  Faulty PO y reads 0 -> detected at PO y;
        # z is NOT affected by the PO branch fault.
        assert result.detection_time[fault] == 0


class TestSession:
    def test_session_matches_one_shot(self, s27, s27_universe, s27_t0):
        faults = list(s27_universe.faults())
        one_shot = FaultSimulator(s27).run(s27_t0, faults)
        session = FaultSimulator(s27).session(faults)
        first = session.commit(s27_t0.subsequence(0, 3))
        second = session.commit(s27_t0.subsequence(4, 9))
        merged = {**first, **second}
        assert merged == one_shot.detection_time

    def test_session_on_synthetic(self, small_synthetic):
        universe = FaultUniverse(small_synthetic)
        sequence = _random_sequence(11, small_synthetic.num_inputs, 24)
        one_shot = FaultSimulator(small_synthetic).run(
            sequence, list(universe.faults())
        )
        session = FaultSimulator(small_synthetic).session(list(universe.faults()))
        merged: dict = {}
        for start in range(0, 24, 5):
            end = min(23, start + 4)
            merged.update(session.commit(sequence.subsequence(start, end)))
        assert merged == one_shot.detection_time

    def test_peek_does_not_advance(self, s27, s27_universe, s27_t0):
        session = FaultSimulator(s27).session(list(s27_universe.faults()))
        before = session.num_remaining
        count = session.peek(s27_t0)
        assert count == 32
        assert session.num_remaining == before
        assert session.elapsed == 0

    def test_commit_tracking(self, s27, s27_universe, s27_t0):
        session = FaultSimulator(s27).session(list(s27_universe.faults()))
        session.commit(s27_t0)
        assert session.elapsed == 10
        assert session.num_remaining == 0
        assert len(session.detection_time) == 32

    def test_empty_extension(self, s27, s27_universe):
        session = FaultSimulator(s27).session(list(s27_universe.faults()))
        assert session.commit(TestSequence([])) == {}
        assert session.peek(TestSequence([])) == 0

    def test_duplicate_faults_count_once(self, s27, s27_universe, s27_t0):
        faults = list(s27_universe.faults())
        doubled = faults + faults[::-1] + faults[:5]
        unique = FaultSimulator(s27, batch_width=5).session(faults)
        session = FaultSimulator(s27, batch_width=5).session(doubled)
        assert session.num_remaining == len(faults)
        assert session.remaining_faults == faults
        extension = s27_t0.subsequence(0, 3)
        assert session.peek(extension) == unique.peek(extension)
        assert session.commit(extension) == unique.commit(extension)
        assert session.remaining_faults == unique.remaining_faults
        assert session.commit(s27_t0.subsequence(4, 9)) == unique.commit(
            s27_t0.subsequence(4, 9)
        )
        assert session.detection_time == unique.detection_time
        assert session.num_remaining == 0


def _counter_delta(before: dict, kind: str) -> int:
    return dispatch_counters().get(kind, 0) - before.get(kind, 0)


class TestSlotStableSession:
    """Each fault keeps its slot; only a sparse session re-packs."""

    def test_repacks_keep_order_and_results(self, small_synthetic):
        faults = list(FaultUniverse(small_synthetic).faults())
        sequence = _random_sequence(11, small_synthetic.num_inputs, 24)
        one_shot = FaultSimulator(small_synthetic).run(sequence, faults)
        session = FaultSimulator(small_synthetic, batch_width=3).session(faults)
        before = dispatch_counters()
        merged: dict = {}
        for start in range(0, 24, 3):
            merged.update(session.commit(sequence.subsequence(start, start + 2)))
            assert session.remaining_faults == [
                fault for fault in faults if fault not in merged
            ]
            assert session.num_remaining == len(faults) - len(merged)
        assert merged == one_shot.detection_time
        assert _counter_delta(before, "session_repacks") > 0

    def test_programs_compile_only_at_construction_and_repack(
        self, s27, s27_t0
    ):
        # A fresh compiled circuit has a fresh backend and program cache.
        compiled = CompiledCircuit(s27)
        faults = list(FaultUniverse(s27).faults())
        width = 4
        simulator = FaultSimulator(compiled, batch_width=width)
        before = dispatch_counters()
        session = simulator.session(faults)
        assert _counter_delta(before, "program_compiles") == len(faults) // width
        for start in range(0, len(s27_t0), 2):
            extension = s27_t0.subsequence(start, start + 1)
            before = dispatch_counters()
            session.peek(extension)
            assert _counter_delta(before, "program_compiles") == 0
            session.commit(extension)
            repacked = _counter_delta(before, "session_repacks")
            assert repacked in (0, 1)
            expected = -(-session.num_remaining // width) if repacked else 0
            assert _counter_delta(before, "program_compiles") == expected
        assert session.num_remaining == 0
