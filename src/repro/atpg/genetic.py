"""Per-fault genetic search for hard-to-detect faults.

A small GA over whole input sequences, steered by the state-divergence
fitness STRATEGATE's dynamic state traversal uses.  The GA is only
invoked for faults the random and greedy phases leave undetected, and
only for a bounded number of targets.  A population's fitness is a
parallel fault simulation: each generation is scored by one paired
candidate-axis scan (:meth:`~repro.sim.seqsim.SequenceBatchSimulator.observe`),
one slot per candidate, instead of one scalar simulation per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.config import AtpgConfig
from repro.atpg.random_gen import crossover, mutate_sequence, random_sequence
from repro.core.sequence import TestSequence
from repro.faults.model import Fault
from repro.sim.compiled import CompiledCircuit
from repro.sim.seqsim import FaultObservation, SequenceBatchSimulator
from repro.util.rng import SplitMix64, derive_seed

@dataclass(frozen=True)
class GeneticOutcome:
    """Result of one GA run for one target fault."""

    fault: Fault
    sequence: TestSequence | None
    generations_used: int
    evaluations: int

    @property
    def succeeded(self) -> bool:
        return self.sequence is not None


def _fitness(observation: FaultObservation) -> int:
    """Divergence score of an undetecting candidate (detection ends the GA)."""
    return (
        observation.max_state_divergence * 1000
        + observation.final_state_divergence * 100
        + observation.divergence_area
    )


def attack_fault(
    compiled: CompiledCircuit,
    fault: Fault,
    config: AtpgConfig,
    salt: int,
    simulator: SequenceBatchSimulator | None = None,
) -> GeneticOutcome:
    """Run the GA for one fault; returns a detecting sequence if found.

    ``simulator`` scores each population in one scan (default: a serial
    simulator on ``config.backend``).  Candidates are still counted in
    population order: the first detecting candidate wins, and
    ``evaluations`` counts up to and including it, exactly as scoring
    them one at a time would.
    """
    if simulator is None:
        simulator = SequenceBatchSimulator(compiled, backend=config.backend)
    rng = SplitMix64(derive_seed(config.seed, 0x6E6, salt))
    width = compiled.num_inputs
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
        observations = simulator.observe(fault, population)
        for index, observation in enumerate(observations):
            if observation.detected:
                return GeneticOutcome(
                    fault, population[index], generation, evaluations + index + 1
                )
        evaluations += len(population)
        scores = [_fitness(observation) for observation in observations]
    return GeneticOutcome(fault, None, config.genetic_generations, evaluations)
