"""The partitioning and full-load baselines.

Partitioning semantics: each chunk is loaded into on-chip memory and
applied from the unknown (all-X) state, exactly like the proposed
scheme's subsequences, but *without expansion*.  A fault detected by
``T0`` at time ``udet`` inside chunk ``[s, e]`` is not necessarily
detected by the chunk alone — the machine state at ``s`` differs — so the
chunk must be extended backward (duplicating vectors before ``s``) until
coverage is restored.  The extension search reuses the same batched
window search as Procedure 2, with the identity expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ops import IDENTITY_EXPANSION
from repro.core.sequence import TestSequence
from repro.core.session import Session, use_session
from repro.errors import SelectionError
from repro.faults.model import Fault
from repro.sim.compiled import CompiledCircuit
from repro.sim.scanplan import WindowRampPlan
from repro.sim.seqsim import SequenceBatchSimulator


@dataclass(frozen=True)
class FullLoadBaseline:
    """Store/load all of ``T0``: the paper's most expensive alternative."""

    t0_length: int

    @property
    def total_loaded_length(self) -> int:
        return self.t0_length

    @property
    def max_loaded_length(self) -> int:
        return self.t0_length

    @property
    def applied_vectors(self) -> int:
        return self.t0_length


def full_load_baseline(t0: TestSequence) -> FullLoadBaseline:
    """The trivial baseline record for ``t0``."""
    return FullLoadBaseline(t0_length=len(t0))


@dataclass
class PartitionChunk:
    """One loaded subsequence of the partitioning baseline."""

    index: int
    start: int  # first T0 position included (after extension)
    nominal_start: int  # partition boundary before extension
    end: int  # last T0 position included (inclusive)

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def extension(self) -> int:
        return self.nominal_start - self.start


@dataclass
class PartitionResult:
    """Outcome of the partitioning baseline."""

    chunk_length: int
    chunks: list[PartitionChunk] = field(default_factory=list)
    coverage_preserved: bool = False
    faults_requiring_extension: int = 0
    #: Window candidates simulated by the extension searches — the same
    #: first-hit evaluated-count statistic Procedure 2 reports, so the
    #: baselines' search effort is comparable to the scheme's.
    candidates_simulated: int = 0

    @property
    def total_loaded_length(self) -> int:
        return sum(chunk.length for chunk in self.chunks)

    @property
    def max_loaded_length(self) -> int:
        return max((chunk.length for chunk in self.chunks), default=0)

    @property
    def applied_vectors(self) -> int:
        """No expansion: applied == loaded."""
        return self.total_loaded_length


def partition_baseline(
    compiled: CompiledCircuit,
    t0: TestSequence,
    faults: list[Fault],
    chunk_length: int,
    search_batch_width: int = 24,
    backend: str | None = None,
    workers: int = 1,
    session: Session | None = None,
) -> PartitionResult:
    """Partition ``t0`` into chunks of ``chunk_length``, extend for coverage.

    Guarantees the returned chunks jointly detect every fault ``t0``
    detects (the same contract the proposed scheme honours), at the cost
    of loading every vector at least once plus the overlap extensions.
    """
    if chunk_length < 1:
        raise SelectionError(f"chunk length must be positive, got {chunk_length}")
    with use_session(session) as sess:
        fault_simulator = sess.fault_simulator(
            compiled, backend=backend, workers=workers
        )
        sequence_simulator = sess.sequence_simulator(
            compiled,
            batch_width=search_batch_width,
            backend=backend,
            workers=workers,
        )
        baseline = fault_simulator.run(t0, faults)
        udet = dict(baseline.detection_time)

        result = PartitionResult(chunk_length=chunk_length)
        if not udet:
            result.coverage_preserved = True
            return result

        # Nominal partition into contiguous chunks.
        chunks: list[PartitionChunk] = []
        position = 0
        index = 0
        while position < len(t0):
            end = min(position + chunk_length - 1, len(t0) - 1)
            chunks.append(
                PartitionChunk(index=index, start=position, nominal_start=position, end=end)
            )
            position = end + 1
            index += 1

        # Assign faults to the chunk containing their detection time, check
        # chunk-local detection, extend backward where coverage is lost.
        for chunk in chunks:
            local_faults = [
                fault for fault, time in udet.items() if chunk.nominal_start <= time <= chunk.end
            ]
            if not local_faults:
                continue
            chunk_seq = t0.subsequence(chunk.start, chunk.end)
            detected = set(
                fault_simulator.run(chunk_seq, local_faults).detection_time
            )
            missing = [fault for fault in local_faults if fault not in detected]
            for fault in sorted(missing, key=lambda f: -udet[f]):
                result.faults_requiring_extension += 1
                new_start, evaluated = _extend_for_fault(
                    sequence_simulator,
                    t0,
                    fault,
                    udet[fault],
                    chunk,
                    search_batch_width,
                )
                result.candidates_simulated += evaluated
                chunk.start = min(chunk.start, new_start)

        result.chunks = chunks

        # Verify the contract with a final joint simulation.
        remaining = set(udet)
        for chunk in chunks:
            if not remaining:
                break
            chunk_seq = t0.subsequence(chunk.start, chunk.end)
            remaining -= set(
                fault_simulator.run(chunk_seq, sorted(remaining)).detection_time
            )
        result.coverage_preserved = not remaining
        if remaining:
            raise SelectionError(
                f"partition baseline lost {len(remaining)} faults — extension "
                "search inconsistency"
            )
        return result


def _extend_for_fault(
    sequence_simulator: SequenceBatchSimulator,
    t0: TestSequence,
    fault: Fault,
    detection_time: int,
    chunk: PartitionChunk,
    batch_width: int,
) -> tuple[int, int]:
    """Largest start ``j <= chunk.start`` such that ``T0[j, chunk.end]``
    detects ``fault`` (guaranteed at ``j = 0``), plus the number of
    window candidates the scan evaluated (the serial chunked-scan
    formula — worker-independent, like Procedure 2's).

    One first-hit scan over a :class:`WindowRampPlan`: candidates are
    described as ``(j, end)`` spans of ``T0`` (never materialized) and a
    sharded simulator spreads the plan across workers with first-hit
    cancellation at cost-balanced boundaries.
    """
    spans = [(j, chunk.end) for j in range(chunk.start, -1, -1)]
    plan = WindowRampPlan(t0, spans, IDENTITY_EXPANSION)
    position, evaluated = sequence_simulator.first_hit(
        fault, plan, chunk=batch_width
    )
    if position is None:
        raise SelectionError(
            f"chunk extension failed for {fault} (udet={detection_time}); "
            "the full prefix must detect it"
        )
    return chunk.start - position, evaluated
