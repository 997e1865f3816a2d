"""Static compaction of the selected set ``S`` (paper Section 3.2).

After Procedure 1, earlier sequences may have become redundant: all the
faults they covered may also be covered by sequences added later.  The
paper removes such sequences by re-simulating the expanded set in four
different orders; in each pass, every sequence that detects no
still-undetected fault *at its turn in that order* is dropped:

1. by increasing loaded length (gives long sequences a chance to drop);
2. by decreasing loaded length (drops short sequences that long, fault-rich
   sequences subsume);
3. in reverse order of generation (drops early sequences subsumed by later
   ones — the common case);
4. by decreasing number of faults detected during the *previous* pass.

Every expanded sequence starts from the all-X state, so the faults it
detects do not depend on the order or on which other faults are
simulated with it.  Procedure 1 records that set once per sequence (its
``detects`` row), and each pass here is set arithmetic over the rows:
what a sequence detects at its turn is its row intersected with the
faults still undetected.  That equals re-simulating the pass by
construction, and nothing here simulates.

The full-coverage invariant is preserved by construction: a sequence is
only removed when the remaining ones, in the pass's order, already
detect everything it would have detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.procedure1 import SelectedSequence, SelectionResult
from repro.faults.model import Fault


@dataclass
class CompactionPassReport:
    """What one reorder-and-drop pass did."""

    order_name: str
    sequences_before: int
    sequences_dropped: int
    detection_counts: dict[int, int] = field(default_factory=dict)


@dataclass
class CompactionResult:
    """The compacted set ``S`` plus per-pass diagnostics."""

    selection: SelectionResult
    passes: list[CompactionPassReport]

    @property
    def sequences(self) -> list[SelectedSequence]:
        return self.selection.sequences

    @property
    def num_sequences(self) -> int:
        return self.selection.num_sequences

    @property
    def total_length(self) -> int:
        return self.selection.total_length

    @property
    def max_length(self) -> int:
        return self.selection.max_length

    @property
    def applied_test_length(self) -> int:
        return self.selection.applied_test_length


def _run_pass(
    selection: SelectionResult,
    ordered: list[SelectedSequence],
    order_name: str,
) -> CompactionPassReport:
    """Walk ``ordered`` over the rows; drop zero-contribution sequences."""
    target_faults: set[Fault] = set(selection.udet)
    report = CompactionPassReport(
        order_name=order_name,
        sequences_before=len(ordered),
        sequences_dropped=0,
    )
    survivors: list[SelectedSequence] = []
    for entry in ordered:
        if not target_faults:
            # Everything already covered: the rest contribute nothing.
            report.sequences_dropped += 1
            report.detection_counts[entry.index] = 0
            continue
        detected = entry.detects & target_faults
        report.detection_counts[entry.index] = len(detected)
        if detected:
            survivors.append(entry)
            target_faults -= detected
        else:
            report.sequences_dropped += 1
    # Preserve original generation order in the stored selection.
    keep = {entry.index for entry in survivors}
    selection.sequences = [s for s in selection.sequences if s.index in keep]
    return report


def statically_compact(selection: SelectionResult) -> CompactionResult:
    """Run the four compaction passes of Section 3.2 on ``selection``.

    ``selection`` is modified in place (its sequence list shrinks) and also
    returned wrapped in a :class:`CompactionResult`.
    """
    passes: list[CompactionPassReport] = []

    by_increasing_length = sorted(
        selection.sequences, key=lambda s: (s.length, s.index)
    )
    passes.append(_run_pass(selection, by_increasing_length, "increasing length"))

    by_decreasing_length = sorted(
        selection.sequences, key=lambda s: (-s.length, s.index)
    )
    passes.append(_run_pass(selection, by_decreasing_length, "decreasing length"))

    reverse_generation = sorted(selection.sequences, key=lambda s: -s.index)
    passes.append(_run_pass(selection, reverse_generation, "reverse generation"))

    previous_counts = passes[-1].detection_counts
    by_previous_detections = sorted(
        selection.sequences,
        key=lambda s: (-previous_counts.get(s.index, 0), s.index),
    )
    passes.append(
        _run_pass(
            selection, by_previous_detections, "decreasing previous detections"
        )
    )
    return CompactionResult(selection=selection, passes=passes)
