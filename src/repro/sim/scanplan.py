"""The ScanPlan IR: one description of a candidate scan for every executor.

Procedure 2's inner loop is millions of *candidate scans* — "which of
these derived sequences detects fault ``f``, and which one first?".
A :class:`ScanPlan` carries the whole scan — the candidate payload, the
shared base and the expansion operator — and owns its candidates:
:meth:`descriptor` is the one rule that turns a derived plan into the
executors' compact form (a sorted kept array ``K`` plus one
``(low, high, a, b)`` row per candidate, the index list
``K[:low] + range(a, b) + K[high:]``, built with numpy and no
per-candidate Python), for the serial executor and for every chunk
thread alike, so results are bit-identical by construction for any
thread count.  :meth:`index_lists` spells the same candidates out as
lists: the reference the tests hold descriptors to.  An
:class:`ExplicitPlan` has no base to describe; the executor lays its
sequences end to end and scans them through the same descriptor form.
:meth:`slice` is the sub-plan a chunk scans.

Chunk boundaries never influence *results* — outcomes merge by
candidate index, first-hit winners are the global minimum detecting
index, and first-hit evaluated counts are recomputed from the serial
chunked-scan formula — which the parity suite
(``tests/test_sim_scanplan.py``) enforces at every thread count.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.errors import SimulationError


# ----------------------------------------------------------------------
# The plan IR
# ----------------------------------------------------------------------
class ScanPlan:
    """One candidate scan: payload, base and expansion.

    Subclasses fix ``kind`` (``"explicit"`` for materialized candidates,
    anything else for candidates derived from the base); derived plans
    implement :meth:`descriptor` and :meth:`index_lists`.  :meth:`slice`
    (a sub-plan over a contiguous candidate range) is what a chunk of a
    scan consumes.

    Plans validate their payload against the base at construction, so a
    malformed scan fails before any simulator work; the executor still
    checks the base's *width* against its circuit (a plan is
    circuit-independent).
    """

    __slots__ = ("items", "base", "expansion")

    kind = "abstract"

    def __init__(
        self,
        items: list,
        base: TestSequence | None,
        expansion: ExpansionConfig | None,
    ) -> None:
        self.items = items
        self.base = base
        self.expansion = expansion

    @property
    def num_candidates(self) -> int:
        return len(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def index_lists(self, base_length: int) -> list:
        """Each candidate as an index list into a base of ``base_length``.

        The packer's input: candidate ``i`` is
        ``expand(base[index_lists[i]], expansion)``.
        """
        raise NotImplementedError

    def descriptor(self, base_length: int):
        """Every candidate as one compact row.

        Returns ``(kept, rows)``: a sorted ``int32`` array ``K`` and an
        ``(num_candidates, 4)`` ``int32`` array whose row
        ``(low, high, a, b)`` stands for the index list
        ``K[:low] + range(a, b) + K[high:]`` — exactly
        :meth:`index_lists`, built without per-candidate Python.  The
        native kernel expands candidates straight from these rows.
        """
        raise NotImplementedError

    def slice(self, start: int, end: int) -> "ScanPlan":
        """The sub-plan over candidates ``start:end`` (same base/expansion)."""
        clone = copy.copy(self)
        clone.items = self.items[start:end]
        return clone


class WindowRampPlan(ScanPlan):
    """Spans ``(start, end)`` of a base, plus an optional kept set.

    Candidate ``(start, end)`` is ``expand(base[positions], x)`` where
    ``positions`` is ``sorted(kept ∪ [start..end])`` — just the window
    when ``kept`` is empty.  Procedure 2's phase-1 ``ustart`` ramp, the
    partitioning baseline's extension search (identity expansion) and
    the restoration compactor's window search (identity expansion, the
    vectors restored so far as ``kept``).
    """

    __slots__ = ("kept",)

    kind = "windows"

    def __init__(
        self,
        base: TestSequence,
        spans: Sequence[tuple[int, int]],
        expansion: ExpansionConfig,
        kept: Iterable[int] = (),
    ) -> None:
        spans = [tuple(span) for span in spans]
        length = len(base)
        for start, end in spans:
            if start < 0 or end >= length or start > end:
                raise SimulationError(
                    f"window [{start}, {end}] out of range for base of "
                    f"length {length}"
                )
        kept = tuple(sorted({int(position) for position in kept}))
        if kept and (kept[0] < 0 or kept[-1] >= length):
            raise SimulationError(
                f"kept positions out of range for base of length {length}"
            )
        super().__init__(spans, base, expansion)
        self.kept = kept

    def _kept_inside(self, start: int, end: int) -> tuple[int, int]:
        """Bounds of the kept positions inside ``[start, end]``."""
        return bisect_left(self.kept, start), bisect_right(self.kept, end)

    def index_lists(self, base_length: int) -> list:
        kept = self.kept
        if not kept:
            return [range(start, end + 1) for start, end in self.items]
        lists = []
        for start, end in self.items:
            low, high = self._kept_inside(start, end)
            lists.append([*kept[:low], *range(start, end + 1), *kept[high:]])
        return lists

    def descriptor(self, base_length: int):
        """``K`` is the kept set; a span ``[s, e]`` is the run ``[s, e + 1)``
        with the kept positions inside it (``low:high``) left out."""
        kept = np.asarray(self.kept, dtype=np.int32)
        spans = np.asarray(self.items, dtype=np.int32).reshape(-1, 2)
        rows = np.empty((len(spans), 4), dtype=np.int32)
        rows[:, 0] = np.searchsorted(kept, spans[:, 0], side="left")
        rows[:, 1] = np.searchsorted(kept, spans[:, 1], side="right")
        rows[:, 2] = spans[:, 0]
        rows[:, 3] = spans[:, 1] + 1
        return kept, rows


class OmissionPlan(ScanPlan):
    """Single-vector omissions: ``expand(base.omit(index), x)``.

    Procedure 2's phase-2 trials.
    """

    __slots__ = ()

    kind = "omissions"

    def __init__(
        self,
        base: TestSequence,
        omit_indices: Sequence[int],
        expansion: ExpansionConfig,
    ) -> None:
        omit_indices = [int(index) for index in omit_indices]
        length = len(base)
        for index in omit_indices:
            if not 0 <= index < length:
                raise SimulationError(
                    f"omit index {index} out of range for base of length "
                    f"{length}"
                )
        super().__init__(omit_indices, base, expansion)

    def index_lists(self, base_length: int) -> list:
        return [
            [j for j in range(base_length) if j != index] for index in self.items
        ]

    def descriptor(self, base_length: int):
        """``K`` is the whole base; omitting ``o`` skips ``K[o]`` with an
        empty run."""
        omitted = np.asarray(self.items, dtype=np.int32)
        rows = np.zeros((len(omitted), 4), dtype=np.int32)
        rows[:, 0] = omitted
        rows[:, 1] = omitted + 1
        return np.arange(base_length, dtype=np.int32), rows


class ExplicitPlan(ScanPlan):
    """Materialized candidate sequences (no shared base, no expansion).

    The generic ``detects`` and ``observe`` APIs.
    """

    __slots__ = ()

    kind = "explicit"

    def __init__(self, sequences: Sequence[TestSequence]) -> None:
        super().__init__(list(sequences), None, None)
