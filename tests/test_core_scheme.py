"""Tests for the end-to-end LoadAndExpandScheme orchestration."""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.scheme as scheme_module
from repro.core.config import SelectionConfig
from repro.core.ops import ExpansionConfig
from repro.core.scheme import LoadAndExpandScheme
from repro.errors import SelectionError
from repro.sim.backend import dispatch_counters


@pytest.fixture(scope="module")
def s27_run(s27, s27_t0):
    scheme = LoadAndExpandScheme(s27)
    config = SelectionConfig(expansion=ExpansionConfig(repetitions=2), seed=7)
    return scheme.run(s27_t0, config)


class TestSchemeResult:
    def test_fault_accounting(self, s27_run):
        result = s27_run.result
        assert result.total_faults == 32
        assert result.detected_by_t0 == 32
        assert result.detected_by_scheme == 32
        assert result.coverage_preserved

    def test_before_after_consistency(self, s27_run):
        result = s27_run.result
        assert result.num_sequences_after <= result.num_sequences_before
        assert result.total_length_after <= result.total_length_before
        assert result.max_length_after <= result.max_length_before

    def test_ratios(self, s27_run):
        result = s27_run.result
        assert result.total_ratio == result.total_length_after / 10
        assert result.max_ratio == result.max_length_after / 10
        assert 0 < result.total_ratio <= 1.0

    def test_applied_test_length_is_8nl(self, s27_run):
        result = s27_run.result
        assert result.applied_test_length == 8 * 2 * result.total_length_after

    def test_timings_populated(self, s27_run):
        result = s27_run.result
        assert result.t0_simulation_seconds > 0
        assert result.procedure1_seconds > 0
        assert result.compaction_seconds > 0
        assert result.normalized_procedure1_time == pytest.approx(
            result.procedure1_seconds / result.t0_simulation_seconds
        )

    def test_run_objects_linked(self, s27_run):
        assert s27_run.selection.num_sequences == s27_run.result.num_sequences_after
        assert len(s27_run.udet) == 32
        assert s27_run.compaction.selection is s27_run.selection

    def test_repetitions_property(self, s27_run):
        assert s27_run.result.repetitions == 2


class TestSweep:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_all_n_values_preserve_coverage(self, s27, s27_t0, n):
        scheme = LoadAndExpandScheme(s27)
        run = scheme.run(
            s27_t0, SelectionConfig(expansion=ExpansionConfig(repetitions=n), seed=3)
        )
        assert run.result.coverage_preserved
        assert run.result.applied_test_length == (
            8 * n * run.result.total_length_after
        )

    def test_default_config(self, s27, s27_t0):
        run = LoadAndExpandScheme(s27).run(s27_t0)
        assert run.result.coverage_preserved

    def test_scheme_on_synthetic(self, medium_synthetic):
        from repro.atpg import generate_t0, AtpgConfig

        atpg = generate_t0(
            medium_synthetic, AtpgConfig(max_length=120, genetic_targets=0)
        )
        run = LoadAndExpandScheme(medium_synthetic).run(
            atpg.sequence,
            SelectionConfig(expansion=ExpansionConfig(repetitions=2), seed=3),
        )
        assert run.result.coverage_preserved
        assert run.result.detected_by_scheme == atpg.detected


class TestDetectionRows:
    def test_fault_sim_runs_count(self, s27, s27_t0):
        """T0 once, each Procedure 1 expansion once, then the coverage check.

        Compaction adds nothing; the coverage check simulates at most the
        survivors.
        """
        scheme = LoadAndExpandScheme(s27)
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=2), seed=7)
        before = dispatch_counters().get("fault_sim_runs", 0)
        result = scheme.run(s27_t0, config).result
        runs = dispatch_counters().get("fault_sim_runs", 0) - before
        floor = 1 + result.num_sequences_before
        assert floor <= runs <= floor + result.num_sequences_after

    def test_corrupt_row_is_a_structured_error(self, s27, s27_t0, monkeypatch):
        """A survivor's row that disagrees with re-simulation is reported."""
        real_compact = scheme_module.statically_compact

        def compact_then_corrupt(selection):
            compaction = real_compact(selection)
            entries = selection.sequences
            for position, entry in enumerate(entries):
                others = frozenset().union(
                    *(e.detects for e in entries if e is not entry)
                )
                unique = entry.detects - others
                if unique:
                    dropped = min(unique)
                    entries[position] = dataclasses.replace(
                        entry, detects=entry.detects - {dropped}
                    )
                    return compaction
            raise AssertionError("no survivor covers a fault alone")

        monkeypatch.setattr(scheme_module, "statically_compact", compact_then_corrupt)
        config = SelectionConfig(expansion=ExpansionConfig(repetitions=1), seed=7)
        with pytest.raises(SelectionError, match="recorded detection rows; 1 faults differ"):
            LoadAndExpandScheme(s27).run(s27_t0, config)
