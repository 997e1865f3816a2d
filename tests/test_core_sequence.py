"""Tests for the TestSequence value type."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.atpg.random_gen import crossover
from repro.core.ops import complement, concat, expand, ExpansionConfig
from repro.core.sequence import TestSequence
from repro.util.rng import SplitMix64

bits = st.integers(min_value=0, max_value=1)


class TestConstruction:
    def test_from_strings_roundtrip(self):
        rows = ["0111", "1001"]
        seq = TestSequence.from_strings(rows)
        assert seq.to_strings() == rows
        assert seq.width == 4
        assert len(seq) == 2

    def test_vectors_are_tuples(self):
        seq = TestSequence([[0, 1]])
        assert seq[0] == (0, 1)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            TestSequence([[0, 2]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            TestSequence([[0, 1], [0]])

    def test_empty(self):
        seq = TestSequence.empty(5)
        assert len(seq) == 0
        assert seq.width == 5

    def test_equality_and_hash(self):
        a = TestSequence.from_strings(["01", "10"])
        b = TestSequence.from_strings(["01", "10"])
        c = TestSequence.from_strings(["01"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "01 10"

    def test_iteration(self):
        seq = TestSequence.from_strings(["01", "10"])
        assert list(seq) == [(0, 1), (1, 0)]


class TestSubsequenceSemantics:
    def test_inclusive_bounds_match_paper_notation(self):
        # T0[u1, u2] includes both endpoints (paper Section 3.1).
        t0 = TestSequence.from_strings(["00", "01", "10", "11"])
        assert t0.subsequence(1, 2).to_strings() == ["01", "10"]
        assert t0.subsequence(0, 3) == t0
        assert t0.subsequence(2, 2).to_strings() == ["10"]

    def test_out_of_range(self):
        t0 = TestSequence.from_strings(["00", "01"])
        with pytest.raises(IndexError):
            t0.subsequence(0, 2)
        with pytest.raises(IndexError):
            t0.subsequence(-1, 1)
        with pytest.raises(IndexError):
            t0.subsequence(1, 0)

    def test_omit(self):
        t0 = TestSequence.from_strings(["00", "01", "10"])
        assert t0.omit(1).to_strings() == ["00", "10"]
        assert t0.omit(0).to_strings() == ["01", "10"]
        assert t0.omit(2).to_strings() == ["00", "01"]

    def test_omit_out_of_range(self):
        with pytest.raises(IndexError):
            TestSequence.from_strings(["00"]).omit(1)

    def test_omit_does_not_mutate(self):
        t0 = TestSequence.from_strings(["00", "01"])
        t0.omit(0)
        assert len(t0) == 2

    def test_append_and_extend(self):
        seq = TestSequence.from_strings(["00"]).append([1, 1])
        assert seq.to_strings() == ["00", "11"]
        combined = seq.extend(TestSequence.from_strings(["10"]))
        assert combined.to_strings() == ["00", "11", "10"]

    def test_extend_width_mismatch(self):
        with pytest.raises(ValueError):
            TestSequence.from_strings(["00"]).extend(
                TestSequence.from_strings(["000"])
            )


class TestValidationBoundary:
    """Bits are checked where data enters; widths wherever inputs meet."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TestSequence([[0, 1], [1, 2]]),
            lambda: TestSequence.from_strings(["01", "12"]),
            lambda: TestSequence.from_strings(["01"]).append([0, 2]),
        ],
        ids=["constructor", "from_strings", "append"],
    )
    def test_entry_points_reject_a_bit_of_two(self, build):
        with pytest.raises(ValueError):
            build()

    def test_append_rejects_a_ragged_vector(self):
        with pytest.raises(ValueError):
            TestSequence.from_strings(["01"]).append([0, 1, 1])

    @pytest.mark.parametrize(
        "join",
        [
            lambda a, b: concat(a, b),
            lambda a, b: concat(a, TestSequence.empty(7), b),
            lambda a, b: a.extend(b),
            lambda a, b: crossover(SplitMix64(1), a, b),
        ],
        ids=["concat", "concat-through-empty", "extend", "crossover"],
    )
    def test_mixed_non_empty_widths_raise(self, join):
        narrow = TestSequence.from_strings(["01", "10"])
        wide = TestSequence.from_strings(["011", "101"])
        with pytest.raises(ValueError):
            join(narrow, wide)
        with pytest.raises(ValueError):
            join(wide, narrow)

    def test_crossover_width_check_draws_nothing(self):
        rng = SplitMix64(9)
        with pytest.raises(ValueError):
            crossover(
                rng,
                TestSequence.from_strings(["01"]),
                TestSequence.from_strings(["011"]),
            )
        assert rng.next_u64() == SplitMix64(9).next_u64()

    @pytest.mark.parametrize(
        "join",
        [concat, lambda a, b: a.extend(b), lambda a, b: crossover(SplitMix64(1), a, b)],
        ids=["concat", "extend", "crossover"],
    )
    def test_empty_side_takes_the_non_empty_width(self, join):
        empty = TestSequence.empty(9)
        filled = TestSequence.from_strings(["011", "101"])
        for left, right in ((empty, filled), (filled, empty)):
            joined = join(left, right)
            assert joined == filled
            assert joined.width == 3

    def test_all_empty_join_is_width_zero(self):
        assert concat(TestSequence.empty(4), TestSequence.empty(5)).width == 0
        assert concat().width == 0

    def test_trusted_producers_keep_width_and_int_bits(self):
        seq = TestSequence.from_strings(["011", "100"])
        for derived in (
            seq.subsequence(0, 0),
            seq.omit(1),
            seq.omit(0).omit(0),
            complement(seq),
            expand(seq, ExpansionConfig(repetitions=2, hold_cycles=2)),
        ):
            assert derived.width == 3
            assert all(
                type(bit) is int and bit in (0, 1)
                for vector in derived
                for bit in vector
            )
            assert derived == TestSequence(derived.vectors())


@given(
    st.lists(st.lists(bits, min_size=3, max_size=3), min_size=1, max_size=20),
    st.data(),
)
def test_subsequence_matches_python_slice(rows, data):
    seq = TestSequence(rows)
    start = data.draw(st.integers(min_value=0, max_value=len(seq) - 1))
    end = data.draw(st.integers(min_value=start, max_value=len(seq) - 1))
    assert seq.subsequence(start, end).vectors() == seq.vectors()[start : end + 1]


@given(st.lists(st.lists(bits, min_size=2, max_size=2), min_size=2, max_size=15), st.data())
def test_omit_length_and_content(rows, data):
    seq = TestSequence(rows)
    index = data.draw(st.integers(min_value=0, max_value=len(seq) - 1))
    shorter = seq.omit(index)
    assert len(shorter) == len(seq) - 1
    assert shorter.vectors() == seq.vectors()[:index] + seq.vectors()[index + 1 :]
