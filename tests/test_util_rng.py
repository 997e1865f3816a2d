"""Tests for the deterministic RNG utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg import random_gen
from repro.core.sequence import TestSequence
from repro.util.rng import SplitMix64, derive_seed

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)

#: Probabilities the block comparison must get exactly right: the ends,
#: the GA's ``2 / width`` mutation rate, exact multiples of ``2**-53`` (the
#: threshold then equals the scaled probability, no rounding) and values
#: outside ``[0, 1]``.
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, -0.5, 1.5, -1e300, 1e300, 0.5]),
    st.integers(min_value=1, max_value=64).map(lambda width: 2.0 / width),
    st.integers(min_value=0, max_value=2**53).map(lambda k: k * 2.0**-53),
    st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
)


class TestSplitMix64:
    def test_same_seed_same_stream(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = SplitMix64(123)
        b = SplitMix64(124)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]

    def test_known_first_value_is_stable(self):
        # Pin the stream so refactors cannot silently change every
        # experiment in the repository.
        assert SplitMix64(0).next_u64() == 16294208416658607535

    def test_outputs_are_64_bit(self):
        rng = SplitMix64(7)
        for _ in range(100):
            value = rng.next_u64()
            assert 0 <= value < (1 << 64)

    @given(st.integers(min_value=-50, max_value=50), st.integers(min_value=0, max_value=100))
    def test_randint_within_bounds(self, low, span):
        rng = SplitMix64(99)
        high = low + span
        for _ in range(20):
            assert low <= rng.randint(low, high) <= high

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            SplitMix64(1).randint(5, 4)

    def test_random_unit_interval(self):
        rng = SplitMix64(5)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        # Crude uniformity check: mean near 0.5.
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_choice_draws_members(self):
        rng = SplitMix64(11)
        items = ["a", "b", "c"]
        for _ in range(30):
            assert rng.choice(items) in items

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SplitMix64(1).choice([])

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(17)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_shuffle_deterministic(self):
        a_items = list(range(20))
        b_items = list(range(20))
        SplitMix64(3).shuffle(a_items)
        SplitMix64(3).shuffle(b_items)
        assert a_items == b_items

    def test_sample_bits_width_and_values(self):
        rng = SplitMix64(23)
        bits = rng.sample_bits(64, 0.5)
        assert len(bits) == 64
        assert set(bits) <= {0, 1}

    def test_sample_bits_extreme_probabilities(self):
        rng = SplitMix64(29)
        assert rng.sample_bits(32, 0.0) == [0] * 32
        assert rng.sample_bits(32, 1.0) == [1] * 32

    def test_fork_independent_of_parent_consumption(self):
        parent_a = SplitMix64(41)
        fork_a = parent_a.fork(1)
        parent_b = SplitMix64(41)
        fork_b = parent_b.fork(1)
        assert fork_a.next_u64() == fork_b.next_u64()


class TestBlockDraws:
    """The numpy block draws against the scalar stream they replace."""

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.integers(min_value=0, max_value=300))
    def test_block_equals_scalar_draws_and_state(self, seed, n):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        drawn = block.block_u64(n)
        assert drawn.dtype == np.uint64
        assert drawn.tolist() == [scalar.next_u64() for _ in range(n)]
        assert block.next_u64() == scalar.next_u64()

    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(min_value=0, max_value=300), PROBABILITIES)
    def test_bits_below_equals_random_comparison(self, seed, n, probability):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        mask = block.bits_below(n, probability)
        assert mask.tolist() == [scalar.random() < probability for _ in range(n)]
        assert block.next_u64() == scalar.next_u64()

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.integers(min_value=0, max_value=400), st.integers(0, 20))
    def test_skip_equals_discarded_draws(self, seed, n, after):
        """``skip(n)`` is ``n`` unread draws; ``skip(-k)`` rereads ``k``."""
        skipped, drawn = SplitMix64(seed), SplitMix64(seed)
        skipped.skip(n)
        for _ in range(n):
            drawn.next_u64()
        tail = [drawn.next_u64() for _ in range(after)]
        assert [skipped.next_u64() for _ in range(after)] == tail
        skipped.skip(-after)
        assert [skipped.next_u64() for _ in range(after)] == tail

    @settings(max_examples=80, deadline=None)
    @given(
        SEEDS,
        st.integers(min_value=0, max_value=6),
        st.lists(st.integers(min_value=0, max_value=12), max_size=12),
        PROBABILITIES,
    )
    def test_generation_block_equals_per_child_runs(self, seed, width, sizes, p):
        """Four scalar draws, then ``size * width`` bits, per child: drawn
        child by child, or with each run skipped and then the whole
        stretch drawn as one block and sliced at each run's offset."""
        per_child, block = SplitMix64(seed), SplitMix64(seed)
        want = []
        for size in sizes:
            picks = [per_child.randint(0, 2 * size + 1) for _ in range(4)]
            want.append((picks, per_child.bits_below(size * width, p).tolist()))
        got, offsets, drawn = [], [], 0
        for size in sizes:
            got.append([block.randint(0, 2 * size + 1) for _ in range(4)])
            offsets.append(drawn + 4)
            drawn += 4 + size * width
            block.skip(size * width)
        block.skip(-drawn)
        flips = block.bits_below(drawn, p)
        got = [
            (picks, flips[offset : offset + size * width].tolist())
            for picks, offset, size in zip(got, offsets, sizes)
        ]
        assert got == want
        assert block.next_u64() == per_child.next_u64()

    def test_bits_below_threshold_edges(self):
        """A draw sitting exactly on the threshold is not below it."""
        rng = SplitMix64(5)
        (z,) = SplitMix64(5).block_u64(1).tolist()
        exact = (z >> 11) * 2.0**-53
        assert rng.bits_below(1, exact).tolist() == [False]
        rng = SplitMix64(5)
        assert rng.bits_below(1, exact + 2.0**-53).tolist() == [True]


def _producers(rng: SplitMix64, width: int, length: int, p: float):
    """Every block-drawing producer, interleaved with scalar draws."""
    seq = random_gen.random_sequence(rng, width, length)
    marker = rng.randint(0, 1000)
    weighted = random_gen.weighted_sequence(rng, width, length, p)
    mutated = random_gen.mutate_sequence(rng, seq, p)
    return seq, marker, weighted, mutated, rng.next_u64()


def _scalar_producers(rng: SplitMix64, width: int, length: int, p: float):
    """:func:`_producers` drawn one bit at a time: the scalar oracle."""
    seq = TestSequence._trusted(
        tuple(tuple(random_gen.random_vector(rng, width)) for _ in range(length)),
        width,
    )
    marker = rng.randint(0, 1000)
    weighted = TestSequence._trusted(
        tuple(tuple(rng.sample_bits(width, p)) for _ in range(length)), width
    )
    mutated = random_gen.mutate_sequence(rng, seq, p)
    return seq, marker, weighted, mutated, rng.next_u64()


class TestProducersAgainstScalarDraws:
    """The block producers equal per-bit scalar draws, stream position
    included."""

    @settings(max_examples=40, deadline=None)
    @given(
        SEEDS,
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        PROBABILITIES,
    )
    def test_block_and_scalar_draws_agree(self, seed, width, length, p):
        block = _producers(SplitMix64(seed), width, length, p)
        scalar = _scalar_producers(SplitMix64(seed), width, length, p)
        assert block == scalar
        for sequence in (block[0], block[2], block[3]):
            assert all(type(bit) is int for vector in sequence for bit in vector)
            assert sequence.width == width

    def test_random_sequence_is_the_low_bit_stream(self):
        rng = SplitMix64(3)
        seq = random_gen.random_sequence(rng, 4, 3)
        reference = SplitMix64(3)
        expected = [[reference.next_u64() & 1 for _ in range(4)] for _ in range(3)]
        assert seq == TestSequence(expected)
        assert rng.next_u64() == reference.next_u64()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_salt_order_matters(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_different_bases_differ(self):
        assert derive_seed(1, 7) != derive_seed(2, 7)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_result_is_64_bit(self, base):
        assert 0 <= derive_seed(base, 5) < (1 << 64)
