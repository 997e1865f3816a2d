"""Random-vector helpers shared by the ATPG phases.

With numpy, the random and greedy phases' producers draw their bits as
one SplitMix64 block (:meth:`~repro.util.rng.SplitMix64.block_u64`),
vector-major, and leave the generator where the per-bit loop would: the
scalar loops below run without numpy and are the specification the
block path equals bit for bit (``tests/test_util_rng.py``).  numpy is
looked up on :mod:`repro.util.rng` at call time, so that module's ``np``
is the one switch between the two paths.

:func:`crossover` and :func:`mutate_sequence` are the tuple GA's
operators (:mod:`repro.atpg.genetic`), which runs only without numpy;
with numpy the GA splices and mutates rows of its population matrix,
drawing what these draw in the same order, so they stay scalar.
"""

from __future__ import annotations

from repro.core.sequence import TestSequence
from repro.util import rng as _rng
from repro.util.rng import SplitMix64


def _rows(bits, length: int, width: int) -> tuple[tuple[int, ...], ...]:
    """A flat 0/1 array of ``length * width`` draws as vector tuples."""
    flat = bits.astype(_rng.np.uint8).tolist()
    return tuple(tuple(flat[t * width : (t + 1) * width]) for t in range(length))


def random_vector(rng: SplitMix64, width: int) -> list[int]:
    """One uniformly random binary input vector."""
    return [rng.next_u64() & 1 for _ in range(width)]


def random_sequence(rng: SplitMix64, width: int, length: int) -> TestSequence:
    """A sequence of ``length`` uniformly random vectors."""
    if _rng.np is None:
        vectors = tuple(tuple(random_vector(rng, width)) for _ in range(length))
    else:
        bits = rng.block_u64(length * width) & _rng.np.uint64(1)
        vectors = _rows(bits, length, width)
    return TestSequence._trusted(vectors, width)


def weighted_sequence(
    rng: SplitMix64, width: int, length: int, ones_probability: float
) -> TestSequence:
    """A random sequence with biased bit probability.

    Biased vectors help activate faults deep in AND/OR trees, a standard
    weighted-random-pattern trick; the greedy phase mixes several weights.
    """
    if _rng.np is None:
        vectors = tuple(
            tuple(rng.sample_bits(width, ones_probability)) for _ in range(length)
        )
    else:
        bits = rng.bits_below(length * width, ones_probability)
        vectors = _rows(bits, length, width)
    return TestSequence._trusted(vectors, width)


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
