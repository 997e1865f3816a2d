"""Tests for Procedure 2, Procedure 1 and the Section 3.2 postprocessing."""

from __future__ import annotations

import pytest

from repro.core.config import SelectionConfig
from repro.core.ops import ExpansionConfig, expand
from repro.core.postprocess import statically_compact
from repro.core.procedure1 import select_subsequences, simulate_t0
from repro.core.procedure2 import build_subsequence_for_fault
from repro.sim.backend import dispatch_counters
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.seqsim import SequenceBatchSimulator


@pytest.fixture(scope="module")
def s27_setup(s27, s27_universe, s27_t0):
    compiled = CompiledCircuit(s27)
    fault_sim = FaultSimulator(compiled)
    udet = simulate_t0(fault_sim, s27_universe, s27_t0)
    return compiled, fault_sim, udet


class TestProcedure2:
    def test_paper_example_window(self, s27_setup, s27_t0):
        """The paper's f10: udet=9, n=1, window search stops at ustart=6."""
        compiled, _, udet = s27_setup
        seq_sim = SequenceBatchSimulator(compiled)
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=1))
        targets = [f for f, u in udet.items() if u == 9]
        assert len(targets) == 2  # the paper's f10 and f12
        # At least one of the two time-9 faults exhibits the paper's
        # exact window [6, 9]; both windows must detect their fault.
        ustarts = []
        for fault in targets:
            result = build_subsequence_for_fault(
                seq_sim, s27_t0, fault, 9, config, fault_salt=0
            )
            ustarts.append(result.ustart)
            expanded = expand(result.subsequence, config.expansion)
            assert FaultSimulator(compiled).detects(expanded, fault)
        assert 6 in ustarts

    def test_window_is_t0_slice_before_omission(self, s27_setup, s27_t0):
        compiled, _, udet = s27_setup
        seq_sim = SequenceBatchSimulator(compiled)
        config = SelectionConfig(
            expansion=ExpansionConfig(repetitions=1), skip_omission=True
        )
        fault = max(udet, key=lambda f: udet[f])
        result = build_subsequence_for_fault(
            seq_sim, s27_t0, fault, udet[fault], config
        )
        expected = s27_t0.subsequence(result.ustart, result.udet)
        assert result.subsequence == expected
        assert result.omitted_vectors == 0

    def test_omission_shortens_or_keeps(self, s27_setup, s27_t0):
        compiled, _, udet = s27_setup
        seq_sim = SequenceBatchSimulator(compiled)
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=1), seed=7)
        for fault in list(udet)[:6]:
            result = build_subsequence_for_fault(
                seq_sim, s27_t0, fault, udet[fault], config,
                fault_salt=hash(str(fault)) & 0xFFFF,
            )
            assert 1 <= result.final_length <= result.window_length
            assert result.omitted_vectors == result.window_length - result.final_length

    def test_every_fault_gets_a_detecting_subsequence(self, s27_setup, s27_t0):
        """The termination guarantee, checked exhaustively on s27."""
        compiled, fault_sim, udet = s27_setup
        seq_sim = SequenceBatchSimulator(compiled)
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=2), seed=3)
        for salt, (fault, detection_time) in enumerate(sorted(udet.items())):
            result = build_subsequence_for_fault(
                seq_sim, s27_t0, fault, detection_time, config, fault_salt=salt
            )
            expanded = expand(result.subsequence, config.expansion)
            assert fault_sim.detects(expanded, fault), str(fault)

    def test_invalid_udet_rejected(self, s27_setup, s27_t0):
        compiled, _, udet = s27_setup
        seq_sim = SequenceBatchSimulator(compiled)
        fault = next(iter(udet))
        with pytest.raises(Exception):
            build_subsequence_for_fault(
                seq_sim, s27_t0, fault, len(s27_t0), SelectionConfig()
            )


class TestProcedure1:
    def test_s27_n1_reproduces_paper_walkthrough(self, s27, s27_t0):
        """Section 3.1: three sequences, detecting 26, then 1, then 5 faults."""
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=1), seed=7)
        selection = select_subsequences(s27, s27_t0, config)
        assert selection.num_sequences == 3
        assert [s.faults_detected_when_added for s in selection.sequences] == [26, 1, 5]
        assert [s.udet for s in selection.sequences] == [9, 5, 4]
        # First sequence: the paper's T' = (1001, 0000) from window [6, 9].
        assert selection.sequences[0].ustart == 6
        assert selection.sequences[0].sequence.to_strings() == ["1001", "0000"]
        # Second: the paper's T' = (1001) from window [3, 5].
        assert selection.sequences[1].ustart == 3
        assert selection.sequences[1].sequence.to_strings() == ["1001"]

    def test_targets_processed_by_decreasing_udet(self, s27, s27_t0):
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=1), seed=11)
        selection = select_subsequences(s27, s27_t0, config)
        udets = [s.udet for s in selection.sequences]
        assert udets == sorted(udets, reverse=True)

    def test_expanded_set_covers_f(self, s27, s27_universe, s27_t0):
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=2), seed=5)
        selection = select_subsequences(s27, s27_t0, config)
        fault_sim = FaultSimulator(s27)
        covered = set()
        for entry in selection.sequences:
            expanded = expand(entry.sequence, config.expansion)
            covered.update(
                fault_sim.run(expanded, list(s27_universe.faults())).detection_time
            )
        assert covered == set(selection.udet)

    def test_deterministic_given_seed(self, s27, s27_t0):
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=2), seed=13)
        a = select_subsequences(s27, s27_t0, config)
        b = select_subsequences(s27, s27_t0, config)
        assert [s.sequence for s in a.sequences] == [s.sequence for s in b.sequences]

    def test_stats_properties(self, s27, s27_t0):
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=2), seed=5)
        selection = select_subsequences(s27, s27_t0, config)
        assert selection.total_length == sum(len(s.sequence) for s in selection.sequences)
        assert selection.max_length == max(len(s.sequence) for s in selection.sequences)
        assert selection.applied_test_length == 16 * selection.total_length
        assert selection.t0_length == 10
        assert selection.detected_by_t0 == 32

    def test_synthetic_circuit_selection(self, medium_synthetic):
        from repro.atpg import generate_t0, AtpgConfig

        atpg = generate_t0(
            medium_synthetic, AtpgConfig(max_length=120, genetic_targets=0)
        )
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=2), seed=3)
        selection = select_subsequences(medium_synthetic, atpg.sequence, config)
        assert selection.num_sequences >= 1
        assert selection.detected_by_t0 == atpg.detected


class TestPostprocessing:
    def _selection(self, s27, s27_t0, n=1, seed=7):
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=n), seed=seed)
        return select_subsequences(s27, s27_t0, config)

    def test_four_passes_reported(self, s27, s27_t0):
        selection = self._selection(s27, s27_t0)
        result = statically_compact(selection)
        assert [p.order_name for p in result.passes] == [
            "increasing length",
            "decreasing length",
            "reverse generation",
            "decreasing previous detections",
        ]

    def test_coverage_preserved_after_compaction(
        self, s27, s27_compiled, s27_universe, s27_t0
    ):
        selection = self._selection(s27, s27_t0, n=2, seed=19)
        target = set(selection.udet)
        result = statically_compact(selection)
        fault_sim = FaultSimulator(s27_compiled)
        covered = set()
        for entry in result.sequences:
            expanded = expand(entry.sequence, selection.config.expansion)
            covered.update(
                fault_sim.run(expanded, sorted(target)).detection_time
            )
        assert covered == target

    def test_compaction_never_grows(self, s27, s27_t0):
        selection = self._selection(s27, s27_t0, n=2, seed=23)
        before_count = selection.num_sequences
        before_total = selection.total_length
        result = statically_compact(selection)
        assert result.num_sequences <= before_count
        assert result.total_length <= before_total

    def test_compaction_simulates_nothing(self, s27, s27_t0):
        """The passes work on Procedure 1's rows: no fault simulation."""
        selection = self._selection(s27, s27_t0, n=2, seed=23)
        before = dispatch_counters()
        statically_compact(selection)
        after = dispatch_counters()
        for kind in ("fault_sim_runs", "scan_calls", "trace_calls"):
            assert after.get(kind, 0) - before.get(kind, 0) == 0, kind

    def test_generation_order_preserved(self, s27, s27_t0):
        selection = self._selection(s27, s27_t0, n=1, seed=7)
        result = statically_compact(selection)
        indices = [entry.index for entry in result.sequences]
        assert indices == sorted(indices)
