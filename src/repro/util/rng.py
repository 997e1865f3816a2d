"""Deterministic random number generation.

Everything stochastic in this library (synthetic circuit generation, the
random omission order in Procedure 2, the genetic ATPG) draws from an
explicitly seeded generator so that experiments are exactly reproducible.

:class:`SplitMix64` is a tiny, well-known 64-bit mixing generator.  We use
it instead of :mod:`random` in the inner loops both for speed and so the
stream is stable across Python versions.

Bulk draws (:meth:`SplitMix64.block_u64`, :meth:`SplitMix64.bits_below`)
produce the next ``n`` outputs at once as numpy ``uint64`` arrays, equal
output for output to ``n`` scalar :meth:`SplitMix64.next_u64` calls and
leaving the generator in the same state.  SplitMix64's state after ``k``
draws is ``seed + k*gamma`` (mod 2**64), so a block is one wrapping
multiply-add plus the vectorized mixer.  ``bits_below(n, p)`` is exactly
``[random() < p for _ in range(n)]``: ``random()`` is ``(z >> 11) *
2**-53`` with no rounding, so ``random() < p`` holds iff the integer
``z >> 11`` is below ``ceil(p * 2**53)``.  The same arithmetic makes
:meth:`SplitMix64.skip` one multiply-add, either way: a consumer that
interleaves scalar draws with bit runs (the genetic phase's parent
picks, cuts and mutation masks) can skip each run, step back over the
whole stretch and draw it as one block.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MANTISSA = 1 << 53


def derive_seed(base: int, *salts: int) -> int:
    """Derive a child seed from ``base`` and an arbitrary tuple of salts.

    Used to give every sub-component (circuit generator, ATPG phase,
    omission shuffle for fault ``f``...) an independent, reproducible
    stream without the components having to share generator state.
    """
    z = (base + _GOLDEN) & _MASK64
    for salt in salts:
        z = (z ^ ((salt * 0xBF58476D1CE4E5B9) & _MASK64)) & _MASK64
        z = ((z ^ (z >> 30)) * 0x94D049BB133111EB) & _MASK64
    return z & _MASK64


class SplitMix64:
    """SplitMix64 pseudo random generator with convenience draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def randint(self, low: int, high: int) -> int:
        """Return an integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def random(self) -> float:
        """Return a float uniformly distributed in ``[0, 1)``."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def choice(self, seq):
        """Return a uniformly random element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.next_u64() % len(seq)]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_bits(self, width: int, ones_probability: float = 0.5) -> list[int]:
        """Return ``width`` independent bits, each 1 with the given probability."""
        return [1 if self.random() < ones_probability else 0 for _ in range(width)]

    def skip(self, n: int) -> None:
        """Advance past the next ``n`` outputs without computing them.

        A negative ``n`` steps back over the last ``-n`` outputs.
        """
        self._state = (self._state + n * _GOLDEN) & _MASK64

    def block_u64(self, n: int):
        """The next ``n`` outputs as a ``uint64`` array."""
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)
        self.skip(n)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def bits_below(self, n: int, probability: float):
        """``n`` draws as a boolean array: ``random() < probability`` each.

        Exact for every ``probability`` (see the module docstring);
        values at or below 0 (and NaN) give all ``False`` and values of
        1 or more all ``True``, as the scalar comparison does.
        """
        if not probability > 0:  # NaN included: no draw is below it
            threshold = 0
        elif probability >= 1:
            threshold = _MANTISSA
        else:
            threshold = math.ceil(probability * _MANTISSA)
        return (self.block_u64(n) >> np.uint64(11)) < np.uint64(threshold)

    def fork(self, *salts: int) -> "SplitMix64":
        """Return an independent child generator derived from this one."""
        return SplitMix64(derive_seed(self._state, *salts))
