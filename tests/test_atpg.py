"""Tests for the ATPG substrate: phases, compaction, engine contract."""

from __future__ import annotations

import copy

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.atpg import genetic
from repro.atpg.config import AtpgConfig
from repro.atpg.engine import generate_t0
from repro.atpg.genetic import attack_fault
from repro.atpg.observe import FaultObserver
from repro.atpg.random_gen import (
    crossover,
    mutate_sequence,
    random_sequence,
    random_vector,
    weighted_sequence,
)
from repro.atpg.restoration import restoration_compact
from repro.circuits.catalog import load_circuit
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.sequence import TestSequence
from repro.faults.sites import enumerate_faults
from repro.faults.universe import FaultUniverse
from repro.sim.backend import backend_unavailable_reason, dispatch_counters
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64, derive_seed


class TestRandomGen:
    def test_random_vector_shape(self):
        rng = SplitMix64(1)
        vector = random_vector(rng, 16)
        assert len(vector) == 16
        assert set(vector) <= {0, 1}

    def test_random_sequence_shape(self):
        seq = random_sequence(SplitMix64(2), 5, 7)
        assert len(seq) == 7
        assert seq.width == 5

    def test_weighted_sequence_bias(self):
        heavy = weighted_sequence(SplitMix64(3), 50, 40, 0.9)
        ones = sum(sum(v) for v in heavy)
        assert ones > 0.7 * 50 * 40

    def test_mutation_preserves_shape(self):
        seq = random_sequence(SplitMix64(4), 6, 10)
        mutated = mutate_sequence(SplitMix64(5), seq, 0.3)
        assert len(mutated) == len(seq)
        assert mutated.width == seq.width

    def test_mutation_zero_probability_is_identity(self):
        seq = random_sequence(SplitMix64(6), 6, 10)
        assert mutate_sequence(SplitMix64(7), seq, 0.0) == seq

    def test_crossover_properties(self):
        left = random_sequence(SplitMix64(8), 4, 6)
        right = random_sequence(SplitMix64(9), 4, 9)
        child = crossover(SplitMix64(10), left, right)
        assert child.width == 4
        assert 1 <= len(child) <= len(left) + len(right)

    def test_crossover_with_empty(self):
        left = random_sequence(SplitMix64(11), 4, 5)
        child = crossover(SplitMix64(12), left, TestSequence.empty(4))
        assert child == left


class TestObserver:
    def test_detectable_fault_is_detected(self, s27, s27_universe, s27_t0):
        observer = FaultObserver(CompiledCircuit(s27))
        fault_sim = FaultSimulator(s27)
        result = fault_sim.run(s27_t0, list(s27_universe.faults()))
        fault = next(iter(result.detection_time))
        observation = observer.observe(fault, s27_t0)
        assert observation.detected
        assert observation.detected_at == result.detection_time[fault]

    def test_divergence_field_invariants(self, s27, s27_universe, s27_t0):
        compiled = CompiledCircuit(s27)
        observer = FaultObserver(compiled)
        peaks = []
        for fault in s27_universe.faults():
            observation = observer.observe(fault, s27_t0)
            assert (
                0
                <= observation.final_state_divergence
                <= observation.max_state_divergence
                <= observation.divergence_area
            )
            assert observation.max_state_divergence <= len(compiled.flop_pairs)
            peaks.append(observation.max_state_divergence)
        assert any(peaks), "no fault ever diverged a flop: vacuous"

    def test_empty_sequence(self, s27, s27_universe):
        observer = FaultObserver(CompiledCircuit(s27))
        observation = observer.observe(s27_universe.fault(0), TestSequence([]))
        assert not observation.detected
        assert observation.max_state_divergence == 0


class TestGenetic:
    def test_ga_finds_an_s27_fault(self, s27, s27_universe):
        config = AtpgConfig(
            genetic_population=8, genetic_generations=6, genetic_sequence_length=10
        )
        outcome = attack_fault(CompiledCircuit(s27), s27_universe.fault(0), config, salt=0)
        assert outcome.succeeded
        assert FaultSimulator(s27).detects(outcome.sequence, s27_universe.fault(0))

    def test_ga_counts_scored_populations(self, s27, s27_universe):
        config = AtpgConfig(genetic_population=6, genetic_generations=4)
        before = dispatch_counters()
        outcome = attack_fault(CompiledCircuit(s27), s27_universe.fault(3), config, 1)
        after = dispatch_counters()

        def grew(kind: str) -> int:
            return after.get(kind, 0) - before.get(kind, 0)

        assert grew("ga_generations") == outcome.generations_used + 1
        assert grew("ga_candidates") == 6 * grew("ga_generations")

    def test_ga_is_deterministic(self, s27, s27_universe):
        config = AtpgConfig(genetic_population=6, genetic_generations=4)
        a = attack_fault(CompiledCircuit(s27), s27_universe.fault(3), config, salt=1)
        b = attack_fault(CompiledCircuit(s27), s27_universe.fault(3), config, salt=1)
        assert a.sequence == b.sequence
        assert a.evaluations == b.evaluations


def _reference_attack(compiled, fault, config, salt):
    """The GA with one scalar ``FaultObserver`` run per candidate.

    The population evolution is copied from ``attack_fault``; only the
    scoring differs, so equal outcomes prove the batched scan reproduces
    the one-at-a-time fitness and evaluation count.
    """
    rng = SplitMix64(derive_seed(config.seed, 0x6E6, salt))
    observer = FaultObserver(compiled)
    width = compiled.num_inputs

    def score(candidate):
        observation = observer.observe(fault, candidate)
        if observation.detected:
            return None
        return (
            observation.max_state_divergence * 1000
            + observation.final_state_divergence * 100
            + observation.divergence_area
        )

    population = [
        random_sequence(rng, width, config.genetic_sequence_length)
        for _ in range(config.genetic_population)
    ]
    evaluations = 0
    for generation in range(config.genetic_generations + 1):
        if generation:
            ranked = sorted(
                range(len(population)), key=lambda i: scores[i], reverse=True
            )
            elite = [population[i] for i in ranked[: max(2, len(ranked) // 3)]]
            next_population = list(elite)
            while len(next_population) < config.genetic_population:
                parent_a = elite[rng.randint(0, len(elite) - 1)]
                parent_b = population[rng.randint(0, len(population) - 1)]
                child = crossover(rng, parent_a, parent_b)
                if len(child) > 2 * config.genetic_sequence_length:
                    child = child.subsequence(
                        0, 2 * config.genetic_sequence_length - 1
                    )
                child = mutate_sequence(
                    rng, child, bit_flip_probability=2.0 / max(1, width)
                )
                next_population.append(child)
            population = next_population
        scores = []
        for candidate in population:
            evaluations += 1
            fitness = score(candidate)
            if fitness is None:
                return candidate, generation, evaluations
            scores.append(fitness)
    return None, config.genetic_generations, evaluations


class TestGeneticBitIdentity:
    """The one-scan-per-generation GA equals the scalar reference GA."""

    @pytest.mark.parametrize(
        "circuit_name, backend, config",
        [
            (
                "s27",
                "python",
                AtpgConfig(
                    genetic_population=6,
                    genetic_generations=4,
                    genetic_sequence_length=3,
                ),
            ),
            (
                # "auto" resolves syn298 to the native kernel when it
                # builds (and to the big-int kernel otherwise).
                "syn298",
                "auto",
                AtpgConfig(
                    genetic_population=8,
                    genetic_generations=5,
                    genetic_sequence_length=8,
                    backend="auto",
                ),
            ),
        ],
    )
    def test_outcomes_match_scalar_reference(self, circuit_name, backend, config):
        compiled = CompiledCircuit(load_circuit(circuit_name))
        faults = list(FaultUniverse(compiled.circuit).faults())
        simulator = SequenceBatchSimulator(compiled, backend=backend)
        outcomes = []
        for salt, fault in enumerate(faults[:: max(1, len(faults) // 12)][:12]):
            outcome = attack_fault(compiled, fault, config, salt, simulator=simulator)
            got = (outcome.sequence, outcome.generations_used, outcome.evaluations)
            assert got == _reference_attack(compiled, fault, config, salt), str(fault)
            outcomes.append(outcome)
        assert len(outcomes) >= 10
        assert any(o.succeeded and o.generations_used for o in outcomes)
        assert any(not o.succeeded for o in outcomes)


@st.composite
def ga_cases(draw, engines: tuple[str, ...]):
    """A generated circuit, one of its faults, a small GA config and one
    of ``engines``."""
    inputs = draw(st.integers(min_value=1, max_value=4))
    flops = draw(st.integers(min_value=1, max_value=4))
    circuit = generate_circuit(
        SyntheticSpec(
            "ga",
            inputs,
            draw(st.integers(min_value=1, max_value=3)),
            flops,
            draw(st.integers(min_value=flops + 3, max_value=20)),
            seed=draw(st.integers(min_value=0, max_value=2**32)),
        )
    )
    faults = enumerate_faults(circuit)
    fault = faults[draw(st.integers(min_value=0, max_value=len(faults) - 1))]
    config = AtpgConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        genetic_population=draw(st.integers(min_value=2, max_value=12)),
        genetic_generations=draw(st.integers(min_value=0, max_value=6)),
        genetic_sequence_length=draw(st.integers(min_value=1, max_value=6)),
    )
    return circuit, fault, config, draw(st.sampled_from(engines))


def _edge_case():
    """A case whose crossovers both cap a child and splice nothing
    (a one-vector GA that runs all its generations)."""
    circuit = generate_circuit(SyntheticSpec("ga", 2, 1, 3, 12, seed=1))
    config = AtpgConfig(
        seed=1,
        genetic_population=12,
        genetic_generations=6,
        genetic_sequence_length=1,
    )
    return circuit, enumerate_faults(circuit)[0], config, "python"


class _RecordingSimulator(SequenceBatchSimulator):
    """Notes every population it scores, as vector tuples per candidate."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.populations: list[list[tuple]] = []

    def observe(self, fault, sequences):
        self.populations.append([sequence.vectors() for sequence in sequences])
        return super().observe(fault, sequences)

    def observe_population(self, fault, bits, lengths):
        self.populations.append(
            [
                tuple(map(tuple, rows[:length].tolist()))
                for rows, length in zip(bits, lengths.tolist())
            ]
        )
        return super().observe_population(fault, bits, lengths)


def _tuple_attack(compiled, fault, config, simulator, monkeypatch, seen):
    """The tuple GA (``genetic._tuple_search``) on ``attack_fault``'s
    stream, as ``(sequence, generations_used, evaluations)``, noting the
    crossovers that were capped or spliced nothing."""
    cap = 2 * config.genetic_sequence_length

    def noting_crossover(rng, left, right):
        cuts = copy.copy(rng)
        head = cuts.randint(0, len(left))
        tail = len(right) - cuts.randint(0, len(right))
        if not head + tail:
            seen.add("empty splice")
        elif head + tail > cap:
            seen.add("capped")
        return crossover(rng, left, right)

    rng = SplitMix64(derive_seed(config.seed, 0x6E6, 3))
    with monkeypatch.context() as patch:
        patch.setattr(genetic, "crossover", noting_crossover)
        return genetic._tuple_search(
            simulator, fault, config, rng, compiled.num_inputs
        )


def test_matrix_ga_equals_tuple_ga(monkeypatch):
    """The population-matrix GA draws, breeds and scores exactly as the
    tuple GA does, population by population; the cases include both
    crossover edge rules."""
    seen: set[str] = set()
    native = backend_unavailable_reason("native") is None
    engines = ("python", "native") if native else ("python",)

    @settings(max_examples=80, deadline=None)
    @given(ga_cases(engines))
    @example(_edge_case())
    def check(case):
        circuit, fault, config, engine = case
        compiled = CompiledCircuit(circuit)
        simulator = _RecordingSimulator(compiled, backend=engine)
        matrix = attack_fault(compiled, fault, config, salt=3, simulator=simulator)
        scored = simulator.populations
        simulator.populations = []
        tuple_ga = _tuple_attack(
            compiled, fault, config, simulator, monkeypatch, seen
        )
        assert scored == simulator.populations
        got = (matrix.sequence, matrix.generations_used, matrix.evaluations)
        assert got == tuple_ga
        if matrix.sequence is not None:
            assert all(type(bit) is int for vector in matrix.sequence for bit in vector)

    check()
    assert seen == {"empty splice", "capped"}


class TestCompaction:
    def test_restoration_preserves_coverage(self, s27, s27_universe, s27_t0):
        compiled = CompiledCircuit(s27)
        faults = list(s27_universe.faults())
        padded = s27_t0.extend(s27_t0)
        compacted, stats = restoration_compact(compiled, padded, faults)
        before = set(FaultSimulator(s27).run(padded, faults).detection_time)
        after = set(FaultSimulator(s27).run(compacted, faults).detection_time)
        assert after >= before
        assert stats.final_length <= stats.original_length
        assert stats.restoration_events >= 1
        assert stats.ratio <= 1.0

    def test_restoration_on_undetecting_sequence(self, s27, s27_universe):
        compiled = CompiledCircuit(s27)
        constant = TestSequence([[0, 0, 0, 0]])
        compacted, stats = restoration_compact(
            compiled, constant, list(s27_universe.faults())
        )
        # The all-zero vector detects nothing by itself -> empty result.
        assert stats.final_length == len(compacted)


class TestEngine:
    def test_s27_full_coverage(self, s27, s27_universe):
        result = generate_t0(s27, AtpgConfig(max_length=200), universe=s27_universe)
        assert result.detected == 32
        assert result.coverage == 1.0
        assert result.length <= 200
        # The generated sequence really achieves what the result claims.
        sim = FaultSimulator(s27).run(result.sequence, list(s27_universe.faults()))
        assert sim.num_detected == 32

    def test_deterministic(self, s27):
        a = generate_t0(s27, AtpgConfig(max_length=150, seed=5))
        b = generate_t0(s27, AtpgConfig(max_length=150, seed=5))
        assert a.sequence == b.sequence

    def test_seed_changes_outcome(self, s27):
        a = generate_t0(s27, AtpgConfig(max_length=150, seed=5))
        b = generate_t0(s27, AtpgConfig(max_length=150, seed=6))
        assert a.sequence != b.sequence

    def test_max_length_respected(self, medium_synthetic):
        result = generate_t0(
            medium_synthetic,
            AtpgConfig(max_length=40, genetic_targets=0),
        )
        assert result.length <= 40

    def test_phase_log_populated(self, s27):
        result = generate_t0(s27, AtpgConfig(max_length=150))
        assert any(line.startswith("random:") for line in result.phase_log)
        assert any(line.startswith("restoration:") for line in result.phase_log)

    def test_no_compaction_option(self, s27):
        result = generate_t0(s27, AtpgConfig(max_length=150, run_compaction=False))
        assert result.compaction is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AtpgConfig(max_length=0)
        with pytest.raises(ValueError):
            AtpgConfig(genetic_population=1)
