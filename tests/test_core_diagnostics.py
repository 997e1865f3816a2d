"""Tests for the coverage diagnostics helpers."""

from __future__ import annotations

import pytest

from repro.core.config import SelectionConfig
from repro.core.diagnostics import (
    coverage_matrix,
    essential_sequences,
    overlap_histogram,
)
from repro.core.ops import ExpansionConfig
from repro.core.procedure1 import select_subsequences
from repro.core.postprocess import statically_compact
from repro.sim.compiled import CompiledCircuit


@pytest.fixture(scope="module")
def diagnostics(s27, s27_universe, s27_t0):
    config = SelectionConfig(expansion=ExpansionConfig(repetitions=1), seed=7)
    selection = select_subsequences(s27, s27_t0, config)
    compiled = CompiledCircuit(s27)
    diag = coverage_matrix(
        compiled,
        selection.sequences,
        config.expansion,
        sorted(selection.udet),
    )
    return selection, compiled, diag


class TestCoverageMatrix:
    def test_all_faults_covered(self, diagnostics):
        _, _, diag = diagnostics
        assert diag.uncovered() == frozenset()

    def test_matrix_matches_procedure1_counts_for_first_sequence(self, diagnostics):
        selection, _, diag = diagnostics
        first = selection.sequences[0]
        # Procedure 1 saw 26 faults when the set was still empty, so the
        # full matrix must agree exactly for the first sequence.
        assert len(diag.detected_by[first.index]) == 26

    def test_sequences_covering_consistency(self, diagnostics):
        _, _, diag = diagnostics
        for fault in diag.target_faults:
            for index in diag.sequences_covering(fault):
                assert fault in diag.detected_by[index]


class TestOverlap:
    def test_histogram_sums_to_target(self, diagnostics):
        _, _, diag = diagnostics
        histogram = overlap_histogram(diag)
        assert sum(histogram.values()) == len(diag.target_faults)
        assert 0 not in histogram  # everything covered at least once

    def test_essential_sequences_survive_compaction(self, diagnostics, s27):
        selection, compiled, diag = diagnostics
        essential = essential_sequences(diag)
        statically_compact(selection)
        surviving = {entry.index for entry in selection.sequences}
        assert set(essential) <= surviving
