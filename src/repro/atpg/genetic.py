"""Per-fault genetic search for hard-to-detect faults.

A small GA over whole input sequences, steered by the state-divergence
fitness STRATEGATE's dynamic state traversal uses.  The GA is only
invoked for faults the random and greedy phases leave undetected, and
only for a bounded number of targets.  A population's fitness is a
parallel fault simulation: each generation is scored by one paired
candidate-axis scan, one slot per candidate, instead of one scalar
simulation per candidate.

The population lives in the simulator's layout: one ``(P, 2L, W)``
uint8 bit matrix (``L`` the configured sequence length, ``W`` the
circuit's inputs) plus a length per row, scored as it stands by
:meth:`~repro.sim.seqsim.SequenceBatchSimulator.observe_population`.
Crossover copies row slices, and a generation's mutation bits are one
:meth:`~repro.util.rng.SplitMix64.bits_below` block over the stretch of
the stream the generation consumes: parent picks and cuts are drawn one
by one, each child's mutation run is skipped
(:meth:`~repro.util.rng.SplitMix64.skip`), and the run is then sliced
out of the block at the offset its own draw would have had.  Only the
winner becomes a :class:`~repro.core.sequence.TestSequence`.

The tuple GA (:func:`_tuple_search`, one
:class:`~repro.core.sequence.TestSequence` per candidate, over
:func:`~repro.atpg.random_gen.crossover` and
:func:`~repro.atpg.random_gen.mutate_sequence`) is the specification,
run only by the tests: the matrix GA draws the same stream in the same
order and returns the same winner, generation and evaluation count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atpg.config import AtpgConfig
from repro.atpg.random_gen import crossover, mutate_sequence, random_sequence
from repro.core.sequence import TestSequence
from repro.faults.model import Fault
from repro.sim.backend import record_dispatches
from repro.sim.compiled import CompiledCircuit
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64, derive_seed

#: Scalar draws per child before its mutation bits: two parent picks
#: and two crossover cuts.
_CHILD_PICKS = 4


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


def _fitness(maximum: int, final: int, area: int) -> int:
    """Divergence score of an undetecting candidate (detection ends the GA)."""
    return maximum * 1000 + final * 100 + area


def _elite(scores: list[int]) -> list[int]:
    """Positions of the best third (at least two), best first, ties in order."""
    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return ranked[: max(2, len(ranked) // 3)]


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
    them one at a time would.  The ``ga_generations`` and
    ``ga_candidates`` dispatch counters count the populations scored
    and their candidates.
    """
    if simulator is None:
        simulator = SequenceBatchSimulator(compiled, backend=config.backend)
    rng = SplitMix64(derive_seed(config.seed, 0x6E6, salt))
    sequence, generation, evaluations = _matrix_search(
        simulator, fault, config, rng, compiled.num_inputs
    )
    scored = generation + 1  # every generation up to it scored a population
    record_dispatches(
        {
            "ga_generations": scored,
            "ga_candidates": scored * config.genetic_population,
        }
    )
    return GeneticOutcome(fault, sequence, generation, evaluations)


def _tuple_search(
    simulator: SequenceBatchSimulator,
    fault: Fault,
    config: AtpgConfig,
    rng: SplitMix64,
    width: int,
) -> tuple[TestSequence | None, int, int]:
    """The GA over sequences: ``(winner, generation, evaluations)``.

    The specification :func:`_matrix_search` equals, draw for draw.
    """
    length = config.genetic_sequence_length
    population = [
        random_sequence(rng, width, length) for _ in range(config.genetic_population)
    ]
    evaluations = 0
    for generation in range(config.genetic_generations + 1):
        if generation:
            elite = [population[i] for i in _elite(scores)]
            next_population = list(elite)
            while len(next_population) < config.genetic_population:
                parent_a = elite[rng.randint(0, len(elite) - 1)]
                parent_b = population[rng.randint(0, len(population) - 1)]
                child = crossover(rng, parent_a, parent_b)
                if len(child) > 2 * length:
                    child = child.subsequence(0, 2 * length - 1)
                child = mutate_sequence(
                    rng, child, bit_flip_probability=2.0 / max(1, width)
                )
                next_population.append(child)
            population = next_population
        observations = simulator.observe(fault, population)
        for index, observation in enumerate(observations):
            if observation.detected:
                return population[index], generation, evaluations + index + 1
        evaluations += len(population)
        scores = [
            _fitness(
                observation.max_state_divergence,
                observation.final_state_divergence,
                observation.divergence_area,
            )
            for observation in observations
        ]
    return None, config.genetic_generations, evaluations


def _matrix_search(
    simulator: SequenceBatchSimulator,
    fault: Fault,
    config: AtpgConfig,
    rng: SplitMix64,
    width: int,
) -> tuple[TestSequence | None, int, int]:
    """:func:`_tuple_search` on a population bit matrix."""
    count = config.genetic_population
    length = config.genetic_sequence_length
    # The first population is ``count`` consecutive random_sequence blocks.
    draws = rng.block_u64(count * length * width) & np.uint64(1)
    bits = np.zeros((count, 2 * length, width), dtype=np.uint8)
    bits[:, :length] = draws.reshape(count, length, width)
    lengths = np.full(count, length, dtype=np.int64)
    evaluations = 0
    for generation in range(config.genetic_generations + 1):
        if generation:
            bits, lengths = _breed(rng, bits, lengths, _elite(scores))
        times, divergence = simulator.observe_population(fault, bits, lengths)
        for index, time in enumerate(times):
            if time is not None:
                rows = bits[index, : lengths[index]].tolist()
                winner = TestSequence._trusted(tuple(map(tuple, rows)), width)
                return winner, generation, evaluations + index + 1
        evaluations += count
        scores = list(
            map(_fitness, divergence.maximum, divergence.final, divergence.area)
        )
    return None, config.genetic_generations, evaluations


def _breed(rng: SplitMix64, bits, lengths, elite: list[int]):
    """The next population matrix and lengths: the elite, then children.

    Each child is the tuple GA's: an elite row's head spliced to any
    row's tail, cut to the matrix's ``2L`` rows (an empty splice keeps
    the elite row's first vector), then mutated.  The scalar draws run
    in the tuple GA's order while each child's mutation run is skipped;
    stepping back over the whole stretch and drawing it as one block
    then gives every run at its offset.
    """
    count, cap, width = bits.shape
    kept = len(elite)
    children = np.zeros_like(bits)
    children[:kept] = bits[elite]
    sizes = lengths.tolist()
    child_sizes = [sizes[i] for i in elite]
    runs = []  # (child, offset, size) of each mutation run
    drawn = 0
    for child in range(kept, count):
        a = elite[rng.randint(0, kept - 1)]
        b = rng.randint(0, count - 1)
        head = rng.randint(0, sizes[a])
        cut = rng.randint(0, sizes[b])
        tail = min(sizes[b] - cut, cap - head)
        if not head + tail:
            head = 1
        children[child, :head] = bits[a, :head]
        children[child, head : head + tail] = bits[b, cut : cut + tail]
        size = head + tail
        child_sizes.append(size)
        runs.append((child, drawn + _CHILD_PICKS, size))
        drawn += _CHILD_PICKS + size * width
        rng.skip(size * width)
    rng.skip(-drawn)
    flips = rng.bits_below(drawn, 2.0 / max(1, width))
    for child, offset, size in runs:
        run = flips[offset : offset + size * width]
        children[child, :size] ^= run.reshape(size, width)
    return children, np.array(child_sizes, dtype=lengths.dtype)
