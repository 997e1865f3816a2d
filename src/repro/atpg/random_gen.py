"""Random-vector helpers shared by the ATPG phases.

The random and greedy phases' producers draw their bits as one
SplitMix64 block (:meth:`~repro.util.rng.SplitMix64.block_u64`),
vector-major, and leave the generator where a per-bit loop over
:func:`random_vector` or :meth:`~repro.util.rng.SplitMix64.sample_bits`
would: those scalar draws are the specification the blocks equal bit
for bit (``tests/test_util_rng.py``).

:func:`crossover` and :func:`mutate_sequence` are the operators of the
GA's specification (:func:`repro.atpg.genetic._tuple_search`); the GA
itself splices and mutates rows of its population matrix, drawing what
these draw in the same order, so they stay scalar.
"""

from __future__ import annotations

import numpy as np

from repro.core.sequence import TestSequence
from repro.util.rng import SplitMix64


def _rows(bits, length: int, width: int) -> tuple[tuple[int, ...], ...]:
    """A flat 0/1 array of ``length * width`` draws as vector tuples."""
    flat = bits.astype(np.uint8).tolist()
    return tuple(tuple(flat[t * width : (t + 1) * width]) for t in range(length))


def random_vector(rng: SplitMix64, width: int) -> list[int]:
    """One uniformly random binary input vector."""
    return [rng.next_u64() & 1 for _ in range(width)]


def random_sequence(rng: SplitMix64, width: int, length: int) -> TestSequence:
    """A sequence of ``length`` uniformly random vectors."""
    bits = rng.block_u64(length * width) & np.uint64(1)
    return TestSequence._trusted(_rows(bits, length, width), width)


def weighted_sequence(
    rng: SplitMix64, width: int, length: int, ones_probability: float
) -> TestSequence:
    """A random sequence with biased bit probability.

    Biased vectors help activate faults deep in AND/OR trees, a standard
    weighted-random-pattern trick; the greedy phase mixes several weights.
    """
    bits = rng.bits_below(length * width, ones_probability)
    return TestSequence._trusted(_rows(bits, length, width), width)


def mutate_sequence(
    rng: SplitMix64, sequence: TestSequence, bit_flip_probability: float
) -> TestSequence:
    """Flip each bit independently with the given probability (GA mutation)."""
    vectors = tuple(
        tuple(
            bit ^ 1 if rng.random() < bit_flip_probability else bit
            for bit in vector
        )
        for vector in sequence
    )
    return TestSequence._trusted(vectors, sequence.width)


def crossover(
    rng: SplitMix64, left: TestSequence, right: TestSequence
) -> TestSequence:
    """Single-point crossover at a vector boundary (GA recombination).

    Both parents non-empty must share one width (:class:`ValueError`
    otherwise, before anything is drawn).
    """
    if len(left) == 0 or len(right) == 0:
        return left if len(left) else right
    if left.width != right.width:
        raise ValueError(
            f"cannot cross width {left.width} with width {right.width}"
        )
    cut_left = rng.randint(0, len(left))
    cut_right = rng.randint(0, len(right))
    vectors = left.vectors()[:cut_left] + right.vectors()[cut_right:]
    if not vectors:
        vectors = left.vectors()[:1]
    return TestSequence._trusted(vectors, left.width)
