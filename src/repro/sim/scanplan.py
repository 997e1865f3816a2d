"""The ScanPlan IR: one description of a candidate scan for every executor.

Procedure 2's inner loop is millions of *candidate scans* — "which of
these derived sequences detects fault ``f``, and which one first?".
Before this module, the description of such a scan was smeared across
four layers: Procedure 2 built span/index lists, :mod:`repro.sim.seqsim`
re-derived chunk boundaries for its serial first-hit loop,
:mod:`repro.sim.seqshard` planned worker chunks by candidate *count*,
and the partitioning baseline rebuilt the same window ramp with its own
identity expansion.  A :class:`ScanPlan` now carries the whole scan —
the candidate payload, the shared base, the expansion operator and a
per-candidate **cost** — and owns its candidates: :meth:`descriptor`
is the one rule that turns a derived plan into the executors' compact
form (a sorted kept array ``K`` plus one ``(low, high, a, b)`` row per
candidate, the index list ``K[:low] + range(a, b) + K[high:]``, built
with numpy and no per-candidate Python), for the serial executor and
for every shard worker alike, so results are bit-identical by
construction for any worker count.  :meth:`index_lists` spells the same
candidates out as lists: the reference the tests hold descriptors to,
and the no-numpy fallback's input.

Cost model
----------

A bit-parallel candidate batch costs about as much as simulating its
*longest* member: slots ride along for free, passes are per-time-step
dispatch-dominated on both backends.  The cost of a candidate is
therefore its **expanded length** — for a window ``[s, e]`` under
expansion config ``x`` that is ``(e - s + 1) * x.length_multiplier``
time steps.  Procedure 2's window ramps are extreme: the scan
``ustart = udet .. 0`` grows linearly, so the last count-equal chunk of
a ramp holds ~2x the simulated steps of the first.  Worker chunks are
therefore cut by :func:`plan_cost_chunks` at equal simulated-step
budgets, floored at ``batch_width`` candidates so no chunk drops below
one bit-parallel pass.  (The fault axis, where every fault costs the
same, keeps the count plan :func:`repro.sim.sharding.plan_chunks`.)

Chunk boundaries never influence *results* — outcomes merge by
candidate index, first-hit winners are the global minimum detecting
index, and first-hit evaluated counts are recomputed from the serial
chunked-scan formula — which the parity suite
(``tests/test_sim_scanplan.py``) enforces on every executor tier.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence

try:  # Descriptors are numpy arrays; index lists need no numpy.
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships in CI
    np = None

from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.sim.workerpool import OVERSPLIT


def plan_cost_chunks(
    costs: Sequence[int], workers: int, batch_width: int
) -> list[tuple[int, int]]:
    """Cost-balanced contiguous chunks: equal simulated-step budgets.

    Aims for ``workers * OVERSPLIT`` chunks (work stealing) and greedily
    cuts the candidate list so every chunk carries about
    ``remaining_cost / remaining_chunks`` simulated steps (the budget is
    re-derived per cut, so one expensive candidate cannot starve the
    tail into slivers).  Two floors keep per-chunk passes efficient: a
    chunk never holds fewer than ``batch_width`` candidates (unless even
    ``workers`` plain chunks would — no chunk drops below one
    bit-parallel pass), and chunks wider than one pass snap up to whole
    ``batch_width`` multiples so only each chunk's final pass is ragged.

    With uniform costs the boundaries are equal-count chunks up to
    rounding; on Procedure 2's window ramps (cost linear in position)
    the expensive end of the ramp gets proportionally fewer candidates
    per chunk, which is what balances worker wall-clock.  Never returns
    empty chunks.
    """
    num_items = len(costs)
    if num_items <= 0:
        return []
    workers = max(1, workers)
    target = workers * OVERSPLIT
    floor = min(batch_width, -(-num_items // workers))
    chunks: list[tuple[int, int]] = []
    remaining_cost = sum(costs)
    start = 0
    while start < num_items:
        remaining_chunks = max(1, target - len(chunks))
        budget = remaining_cost / remaining_chunks
        end = start
        acc = 0
        while end < num_items and (end - start < floor or acc < budget):
            acc += costs[end]
            end += 1
        size = end - start
        if size > batch_width:
            # Snap to whole passes; only the chunk's last pass is ragged.
            size = -(-size // batch_width) * batch_width
            end = min(start + size, num_items)
            acc = sum(costs[start:end])
        chunks.append((start, end))
        remaining_cost -= acc
        start = end
    return chunks


# ----------------------------------------------------------------------
# The plan IR
# ----------------------------------------------------------------------
class ScanPlan:
    """One candidate scan: payload, base, expansion and per-candidate cost.

    Subclasses fix ``kind`` (``"explicit"`` for materialized candidates,
    anything else for candidates derived from the base) and implement
    :meth:`costs` (simulated steps per candidate); derived plans also
    implement :meth:`descriptor` and :meth:`index_lists`.  :meth:`slice`
    (a sub-plan over a contiguous candidate range) is what the serial
    chunked first-hit scan and the sharded chunk tasks consume;
    :meth:`without_base` is what a shard task carries when the base
    travels separately as its bit matrix.

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

    def costs(self) -> list[int]:
        """Simulated-step cost per candidate (its expanded length)."""
        raise NotImplementedError

    def total_cost(self) -> int:
        return sum(self.costs())

    def index_lists(self, base_length: int) -> list:
        """Each candidate as an index list into a base of ``base_length``.

        The packer's input: candidate ``i`` is
        ``expand(base[index_lists[i]], expansion)``.  The base length is
        passed in because a shard task's plan travels without its base.
        """
        raise NotImplementedError

    def descriptor(self, base_length: int):
        """Every candidate as one compact row (requires numpy).

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

    def without_base(self) -> "ScanPlan":
        """This plan minus its base (which a shard task ships as bits)."""
        clone = copy.copy(self)
        clone.base = None
        return clone

    def chunks(self, workers: int, batch_width: int) -> list[tuple[int, int]]:
        """Cost-balanced ``(start, end)`` chunk boundaries for distribution."""
        return plan_cost_chunks(self.costs(), workers, batch_width)

    def chunk_stats(self, workers: int, batch_width: int) -> dict:
        """Observability: chunk count and cost spread of a plan's chunks.

        ``cost_imbalance`` is ``max_chunk_cost / mean_chunk_cost`` — 1.0
        is a perfectly balanced plan; equal-count chunks of a window
        ramp approach ~2x.  Recorded per workload by
        ``benchmarks/bench_seqsim.py``.
        """
        boundaries = self.chunks(workers, batch_width)
        costs = self.costs()
        chunk_costs = [sum(costs[start:end]) for start, end in boundaries]
        total = sum(chunk_costs)
        mean = total / len(chunk_costs) if chunk_costs else 0.0
        return {
            "num_chunks": len(boundaries),
            "total_cost": total,
            "max_chunk_cost": max(chunk_costs, default=0),
            "min_chunk_cost": min(chunk_costs, default=0),
            "cost_imbalance": (max(chunk_costs) / mean) if mean else 0.0,
        }


class WindowRampPlan(ScanPlan):
    """Spans ``(start, end)`` of a base, plus an optional kept set.

    Candidate ``(start, end)`` is ``expand(base[positions], x)`` where
    ``positions`` is ``sorted(kept ∪ [start..end])`` — just the window
    when ``kept`` is empty.  Procedure 2's phase-1 ``ustart`` ramp, the
    partitioning baseline's extension search (identity expansion) and
    the restoration compactor's window search (identity expansion, the
    vectors restored so far as ``kept``).  Cost grows linearly with the
    window length — the shape cost-balanced chunks exist for.
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

    def costs(self) -> list[int]:
        multiplier = self.expansion.length_multiplier
        costs = []
        for start, end in self.items:
            low, high = self._kept_inside(start, end)
            length = end - start + 1 + len(self.kept) - (high - low)
            costs.append(length * multiplier)
        return costs

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

    Procedure 2's phase-2 trials.  Uniform cost (every candidate is one
    vector shorter than the base), so cost-balanced chunks are
    equal-count chunks up to rounding.
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

    def costs(self) -> list[int]:
        cost = max(0, len(self.base) - 1) * self.expansion.length_multiplier
        return [cost] * len(self.items)

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

    The generic ``detects`` API.  Cost is each candidate's own length.
    """

    __slots__ = ()

    kind = "explicit"

    def __init__(self, sequences: Sequence[TestSequence]) -> None:
        super().__init__(list(sequences), None, None)

    def costs(self) -> list[int]:
        return [len(sequence) for sequence in self.items]
