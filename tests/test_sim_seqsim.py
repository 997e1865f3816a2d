"""Tests for the parallel-sequence (one fault, many candidates) simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ops import ExpansionConfig, expand
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.faults.universe import FaultUniverse
from repro.sim.faultsim import FaultSimulator
from repro.sim.reference import ReferenceSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64


def _random_sequences(seed, width, count, max_len):
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        out.append(
            TestSequence(
                [[rng.next_u64() & 1 for _ in range(width)] for _ in range(length)]
            )
        )
    return out


class TestAgainstFaultSimulator:
    def test_s27_all_faults_random_candidates(self, s27, s27_universe):
        batch_sim = SequenceBatchSimulator(s27, batch_width=16)
        fault_sim = FaultSimulator(s27)
        candidates = _random_sequences(5, 4, 20, 12)
        for fault in list(s27_universe.faults())[:8]:
            batched = batch_sim.detects(fault, candidates)
            singly = [fault_sim.detects(c, fault) for c in candidates]
            assert batched == singly, str(fault)

    def test_synthetic_circuit(self, small_synthetic):
        universe = FaultUniverse(small_synthetic)
        batch_sim = SequenceBatchSimulator(small_synthetic, batch_width=8)
        fault_sim = FaultSimulator(small_synthetic)
        candidates = _random_sequences(9, small_synthetic.num_inputs, 12, 20)
        for fault in list(universe.faults())[::7]:
            batched = batch_sim.detects(fault, candidates)
            singly = [fault_sim.detects(c, fault) for c in candidates]
            assert batched == singly, str(fault)


class TestBatchMechanics:
    @pytest.mark.parametrize("width", [1, 2, 5, 64])
    def test_batch_width_invariance(self, s27, s27_universe, width):
        fault = s27_universe.fault(3)
        candidates = _random_sequences(13, 4, 17, 9)
        baseline = SequenceBatchSimulator(s27, batch_width=128).detects(
            fault, candidates
        )
        other = SequenceBatchSimulator(s27, batch_width=width).detects(
            fault, candidates
        )
        assert baseline == other

    def test_mixed_lengths_padding_is_harmless(self, s27, s27_universe, s27_t0):
        # A candidate equal to a T0 prefix must behave identically whether
        # batched with longer candidates or alone.
        fault = s27_universe.fault(0)
        prefix = s27_t0.subsequence(0, 2)
        longer = s27_t0
        simulator = SequenceBatchSimulator(s27)
        alone = simulator.detects(fault, [prefix])
        together = simulator.detects(fault, [prefix, longer])
        assert together[0] == alone[0]

    def test_empty_candidate_list(self, s27, s27_universe):
        assert SequenceBatchSimulator(s27).detects(s27_universe.fault(0), []) == []

    def test_zero_length_candidate_detects_nothing(self, s27, s27_universe):
        simulator = SequenceBatchSimulator(s27)
        assert simulator.detects(s27_universe.fault(0), [TestSequence([])]) == [False]

    def test_width_mismatch_rejected(self, s27, s27_universe):
        simulator = SequenceBatchSimulator(s27)
        with pytest.raises(SimulationError):
            simulator.detects(s27_universe.fault(0), [TestSequence([[0, 1]])])
        with pytest.raises(SimulationError, match="circuit inputs"):
            simulator.observe_population(
                s27_universe.fault(0), np.zeros((1, 1, 2), np.uint8), np.ones(1)
            )

    def test_invalid_batch_width(self, s27):
        with pytest.raises(SimulationError):
            SequenceBatchSimulator(s27, batch_width=0)


#: Expansion configurations covering every operator-toggle combination the
#: derived packer has to map (the paper's default plus ablations and the
#: hold-cycles extension).
EXPANSIONS = [
    ExpansionConfig(repetitions=1),
    ExpansionConfig(repetitions=2),
    ExpansionConfig(repetitions=2, use_complement=False),
    ExpansionConfig(repetitions=1, use_shift=False, use_reverse=False),
    ExpansionConfig(repetitions=2, hold_cycles=2),
]


class TestDerivedCandidates:
    """detects_windows / detects_omissions vs materialized expansion."""

    @pytest.mark.parametrize("backend", ["python", "native"])
    @pytest.mark.parametrize("expansion", EXPANSIONS)
    def test_windows_match_materialized_expansion(
        self, s27, s27_universe, s27_t0, backend, expansion, require_backend
    ):
        require_backend(backend)
        simulator = SequenceBatchSimulator(s27, batch_width=9, backend=backend)
        udet = len(s27_t0) - 1
        spans = [(u, udet) for u in range(udet, -1, -1)]
        for fault in list(s27_universe.faults())[::5]:
            derived = simulator.detects_windows(fault, s27_t0, spans, expansion)
            materialized = simulator.detects(
                fault,
                [
                    expand(s27_t0.subsequence(start, end), expansion)
                    for start, end in spans
                ],
            )
            assert derived == materialized, str(fault)

    @pytest.mark.parametrize("backend", ["python", "native"])
    @pytest.mark.parametrize("expansion", EXPANSIONS)
    def test_omissions_match_materialized_expansion(
        self, s27, s27_universe, s27_t0, backend, expansion, require_backend
    ):
        require_backend(backend)
        simulator = SequenceBatchSimulator(s27, batch_width=7, backend=backend)
        base = s27_t0.subsequence(1, len(s27_t0) - 2)
        omissions = list(range(len(base)))
        for fault in list(s27_universe.faults())[::5]:
            derived = simulator.detects_omissions(fault, base, omissions, expansion)
            materialized = simulator.detects(
                fault, [expand(base.omit(index), expansion) for index in omissions]
            )
            assert derived == materialized, str(fault)

    def test_single_vector_base_omission_is_empty_candidate(
        self, s27, s27_universe
    ):
        """Omitting the only vector yields the empty (never-detecting) case."""
        simulator = SequenceBatchSimulator(s27)
        base = TestSequence([[0, 1, 0, 1]])
        assert simulator.detects_omissions(
            s27_universe.fault(0), base, [0], ExpansionConfig(repetitions=2)
        ) == [False]

    def test_window_span_out_of_range_rejected(self, s27, s27_universe, s27_t0):
        simulator = SequenceBatchSimulator(s27)
        expansion = ExpansionConfig(repetitions=1)
        with pytest.raises(SimulationError, match="window"):
            simulator.detects_windows(
                s27_universe.fault(0), s27_t0, [(0, len(s27_t0))], expansion
            )
        with pytest.raises(SimulationError, match="omit index"):
            simulator.detects_omissions(
                s27_universe.fault(0), s27_t0, [len(s27_t0)], expansion
            )


class TestAgainstReferenceSimulator:
    """Packed candidate batches agree with the scalar reference, one by one."""

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_outcomes_identical(self, s27, s27_universe, backend, require_backend):
        require_backend(backend)
        reference = ReferenceSimulator(s27)
        candidates = _random_sequences(21, 4, 30, 11)
        for fault in list(s27_universe.faults())[::6]:
            packed = SequenceBatchSimulator(
                s27, batch_width=8, backend=backend
            ).detects(fault, candidates)
            singly = [reference.detects(c, fault) for c in candidates]
            assert packed == singly, str(fault)


class TestPartialBatchProgramCache:
    """Partial batches pad up a stable ladder, so a handful of cached
    programs (not one per trailing size) serves a whole search."""

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_one_program_per_fault_regardless_of_partial_batches(
        self, s27_compiled, s27_universe, backend, require_backend
    ):
        require_backend(backend)
        simulator = SequenceBatchSimulator(
            s27_compiled, batch_width=8, backend=backend
        )
        cache = simulator.backend._programs
        cache.clear()
        fault = s27_universe.fault(2)
        # 21 candidates = two full batches of 8 plus a trailing 5, which
        # pads back up to the 8-slot rung (8/2 = 4 < 5): one program.
        candidates = _random_sequences(33, 4, 21, 6)
        simulator.detects(fault, candidates)
        keys = [key for key in cache if key is not None]
        assert keys == [(fault,) * 8]
        # A repeat against the same fault recompiles nothing.
        program = cache[(fault,) * 8]
        simulator.detects(fault, candidates[:6])
        assert cache[(fault,) * 8] is program
        # A far smaller batch drops to its own ladder rung instead of
        # simulating 8 slots for 2 candidates.
        simulator.detects(fault, candidates[:2])
        assert (fault,) * 2 in cache

    def test_half_width_chunks_pad_to_their_own_rung(
        self, s27_compiled, s27_universe
    ):
        """A caller chunking below batch_width is not padded up to it."""
        simulator = SequenceBatchSimulator(s27_compiled, batch_width=16)
        cache = simulator.backend._programs
        cache.clear()
        fault = s27_universe.fault(4)
        # Procedure 1's shape: an omission-sized simulator fed
        # search-sized (half-width) window chunks.
        candidates = _random_sequences(41, 4, 8, 6)
        simulator.detects(fault, candidates)
        assert [key for key in cache if key is not None] == [(fault,) * 8]
