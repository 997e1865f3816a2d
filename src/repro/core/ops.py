"""Sequence manipulations and the expansion function (paper Section 2).

The four primitive operations — repetition, complementation, circular left
shift, reversal — are chosen because each has a trivial hardware
realization next to the on-chip test memory:

* repetition — a counter incremented when the address counter wraps;
* complementation — inverters plus a 2:1 mux per memory output;
* shifting — a mux per output selecting output ``(i+1) mod m``;
* reversal — running the address counter in down mode.

The combined expansion (paper, end of Section 2)::

    S'exp   = S^n                       (n repetitions)
    S''exp  = S'exp  . comp(S'exp)
    S'''exp = S''exp . (S''exp << 1)
    Sexp    = S'''exp . reverse(S'''exp)

giving ``len(Sexp) == 8 * n * len(S)`` — the figure used in Table 5's
``test len`` column.  :class:`ExpansionConfig` also supports disabling
individual stages, which the ablation benchmarks use to measure how much
each operator contributes to coverage.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.sequence import TestSequence


def repeat(sequence: TestSequence, times: int) -> TestSequence:
    """``S^times``: the sequence repeated ``times`` times."""
    if times < 1:
        raise ValueError(f"repetition count must be >= 1, got {times}")
    return TestSequence._trusted(sequence.vectors() * times, sequence.width)


def hold(sequence: TestSequence, times: int) -> TestSequence:
    """Each vector applied ``times`` consecutive clock cycles.

    An *extension* operator (not used by the paper's evaluation): holding
    input vectors is the coverage-boosting manipulation of Nachman et al.
    [3], which the paper cites as prior art.  In hardware it is a hold
    counter gating the address counter.  ``hold(S, 1) == S``.
    """
    if times < 1:
        raise ValueError(f"hold count must be >= 1, got {times}")
    if times == 1:
        return sequence
    held = tuple(vector for vector in sequence.vectors() for _ in range(times))
    return TestSequence._trusted(held, sequence.width)


def complement(sequence: TestSequence) -> TestSequence:
    """Complement every bit of every vector."""
    return TestSequence._trusted(
        tuple(tuple(1 - bit for bit in vector) for vector in sequence.vectors()),
        sequence.width,
    )


def shift_left(sequence: TestSequence, positions: int = 1) -> TestSequence:
    """Circular left shift of every vector by ``positions``.

    Bit 0 is the most significant (leftmost) position, as in the paper:
    output ``i`` takes the value of output ``(i + positions) mod m``.
    """
    width = sequence.width
    if width == 0:
        return sequence
    offset = positions % width
    return TestSequence._trusted(
        tuple(vector[offset:] + vector[:offset] for vector in sequence.vectors()),
        width,
    )


def reverse(sequence: TestSequence) -> TestSequence:
    """``rS``: the vectors in reverse order."""
    return TestSequence._trusted(sequence.vectors()[::-1], sequence.width)


def concat(*sequences: TestSequence) -> TestSequence:
    """Concatenate sequences left to right.

    The non-empty sequences must share one width (:class:`ValueError`
    otherwise); empty ones join any.
    """
    return TestSequence._concat(sequences)


@dataclass(frozen=True)
class ExpansionConfig:
    """Parameters of the expansion function.

    ``repetitions`` is the paper's ``n``.  The three ``use_*`` flags enable
    the complementation, shift and reversal stages; the paper always uses
    all three (the default), and the ablation benchmarks turn them off
    selectively.  ``hold_cycles`` is an extension beyond the paper (see
    :func:`hold`): each loaded vector is applied for that many consecutive
    clock cycles before the other operators; 1 (the default) reproduces
    the paper exactly.
    """

    repetitions: int = 2
    use_complement: bool = True
    use_shift: bool = True
    use_reverse: bool = True
    hold_cycles: int = 1

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.hold_cycles < 1:
            raise ValueError(
                f"hold_cycles must be >= 1, got {self.hold_cycles}"
            )

    @property
    def length_multiplier(self) -> int:
        """``len(expand(S)) / len(S)`` for this configuration."""
        factor = self.repetitions * self.hold_cycles
        if self.use_complement:
            factor *= 2
        if self.use_shift:
            factor *= 2
        if self.use_reverse:
            factor *= 2
        return factor

    def to_json(self) -> dict:
        """Plain-dict form for the request/result JSON round-trip."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "ExpansionConfig":
        """Inverse of :meth:`to_json`; unknown keys are rejected."""
        return cls(**payload)


#: The identity expansion: the loaded sequence is applied verbatim.  The
#: partitioning baseline and the restoration compactor run their window
#: searches on Procedure 2's derived-window pipeline under it.
IDENTITY_EXPANSION = ExpansionConfig(
    repetitions=1, use_complement=False, use_shift=False, use_reverse=False
)


def expand(sequence: TestSequence, config: ExpansionConfig) -> TestSequence:
    """Compute ``Sexp`` from ``S`` (paper Section 2, Table 1)."""
    if len(sequence) == 0:
        return sequence
    stage = hold(sequence, config.hold_cycles)
    stage = repeat(stage, config.repetitions)
    if config.use_complement:
        stage = concat(stage, complement(stage))
    if config.use_shift:
        stage = concat(stage, shift_left(stage, 1))
    if config.use_reverse:
        stage = concat(stage, reverse(stage))
    return stage


def expanded_length(loaded_length: int, config: ExpansionConfig) -> int:
    """Length of the expanded version of a loaded sequence of given length.

    With the full operator set this is the paper's ``8 n L``.
    """
    return loaded_length * config.length_multiplier
