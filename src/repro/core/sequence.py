"""Test sequences: ordered lists of binary input vectors.

A :class:`TestSequence` is the unit of data the whole library moves around:
the deterministic sequence ``T0``, the selected subsequences ``S``, and the
expanded sequences ``Sexp`` are all instances.  Vectors are fully specified
(binary); bit ``i`` of a vector drives primary input ``i`` of the circuit.

The class is immutable: every manipulation returns a new sequence.  This
matches how the paper treats sequences (values, not buffers) and makes the
expansion operators trivially safe to compose.

Bits are validated once, where data enters: the public constructor,
:meth:`TestSequence.from_strings` (the paper's published ``T0`` comes
through it) and the vector :meth:`TestSequence.append` adds.  Producers
whose bits are 0/1 by construction — slicing, the expansion operators,
the ATPG's random and genetic draws — build through the private
:meth:`TestSequence._trusted`, which checks nothing per bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


class TestSequence:
    """An immutable sequence of binary input vectors of uniform width."""

    __slots__ = ("_vectors", "_width")

    #: Tell pytest this is a library class, not a test case collection.
    __test__ = False

    def __init__(self, vectors: Iterable[Sequence[int]]) -> None:
        materialized = tuple(tuple(int(bit) for bit in vector) for vector in vectors)
        for vector in materialized:
            for bit in vector:
                if bit not in (0, 1):
                    raise ValueError(f"test vector bit must be 0 or 1, got {bit}")
        if materialized:
            width = len(materialized[0])
            for vector in materialized:
                if len(vector) != width:
                    raise ValueError(
                        f"inconsistent vector widths: {len(vector)} vs {width}"
                    )
        else:
            width = 0
        self._vectors = materialized
        self._width = width

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(
        cls, vectors: tuple[tuple[int, ...], ...], width: int
    ) -> "TestSequence":
        """Wrap ``vectors`` without checking a bit.

        For internal producers only: ``vectors`` must already be a tuple
        of 0/1 int tuples, each ``width`` long (``width`` is advisory
        when ``vectors`` is empty).
        """
        seq = object.__new__(cls)
        seq._vectors = vectors
        seq._width = width
        return seq

    @classmethod
    def _concat(cls, parts: Iterable["TestSequence"]) -> "TestSequence":
        """The parts joined left to right, checked once per part.

        Their bits are already valid, so only widths are checked: the
        non-empty parts must agree (:class:`ValueError` otherwise) and
        give the result its width; empty parts, whatever their advisory
        width, are skipped.  No non-empty part gives an empty width-0
        sequence.
        """
        width = 0
        vectors: tuple[tuple[int, ...], ...] = ()
        for part in parts:
            if not part._vectors:
                continue
            if not vectors:
                width = part._width
            elif part._width != width:
                raise ValueError(
                    f"cannot concatenate width {width} with width {part._width}"
                )
            vectors += part._vectors
        return cls._trusted(vectors, width)

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "TestSequence":
        """Build from strings like ``["0111", "1001"]``."""
        return cls([[int(ch) for ch in row] for row in rows])

    @classmethod
    def empty(cls, width: int = 0) -> "TestSequence":
        """An empty sequence (width is advisory; empty sequences match any)."""
        return cls._trusted((), width)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of bits per vector (the circuit's primary input count)."""
        return self._width

    def __len__(self) -> int:
        return len(self._vectors)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._vectors)

    def __getitem__(self, index: int) -> tuple[int, ...]:
        return self._vectors[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TestSequence):
            return NotImplemented
        return self._vectors == other._vectors

    def __hash__(self) -> int:
        return hash(self._vectors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self) <= 4:
            body = ", ".join(self.to_strings())
        else:
            shown = ", ".join(self.to_strings()[:3])
            body = f"{shown}, ... {len(self)} vectors"
        return f"TestSequence([{body}])"

    def to_strings(self) -> list[str]:
        """Render each vector as a bit string (paper Table 1/2 style)."""
        return ["".join(str(bit) for bit in vector) for vector in self._vectors]

    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """The raw tuple-of-tuples payload."""
        return self._vectors

    # ------------------------------------------------------------------
    # Subsequence operations used by Procedures 1 and 2
    # ------------------------------------------------------------------
    def subsequence(self, start: int, end: int) -> "TestSequence":
        """The paper's ``T0[u1, u2]``: time units ``start..end`` inclusive."""
        if start < 0 or end >= len(self) or start > end:
            raise IndexError(
                f"subsequence [{start}, {end}] out of range for length {len(self)}"
            )
        return TestSequence._trusted(self._vectors[start : end + 1], self._width)

    def omit(self, index: int) -> "TestSequence":
        """A copy with the vector at ``index`` removed (Procedure 2 step 7)."""
        if not 0 <= index < len(self):
            raise IndexError(f"omit index {index} out of range")
        return TestSequence._trusted(
            self._vectors[:index] + self._vectors[index + 1 :], self._width
        )

    def append(self, vector: Sequence[int]) -> "TestSequence":
        """A copy with ``vector`` (validated) appended."""
        return TestSequence._concat((self, TestSequence([vector])))

    def extend(self, other: "TestSequence") -> "TestSequence":
        """Concatenation (alias of :func:`repro.core.ops.concat`)."""
        return TestSequence._concat((self, other))
