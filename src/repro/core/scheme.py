"""End-to-end orchestration of the load-and-expand BIST scheme.

:class:`LoadAndExpandScheme` glues the pieces together the way Section 4
of the paper runs its experiments:

1. fault-simulate ``T0`` (timed — the normalization baseline of Table 4);
2. Procedure 1 (timed) — gives the set ``S`` *before* compaction;
3. static compaction of ``S`` (timed) — gives the final set;
4. verify the full-coverage invariant: the union of faults detected by
   the expanded final sequences equals the faults detected by ``T0``.
   This step re-simulates the final sequences independently of the
   detection rows compaction worked on, and checks that the two agree.

All steps share one :class:`~repro.sim.trace.GoodTraceCache` keyed on
the scheme's compiled circuit, so the fault-free trace of ``T0`` (and of
each expanded selection) is simulated once for the whole run — step 1
computes it, Procedure 1's ``precomputed_udet`` path and the
verification sweep reuse it.  :class:`SchemeRun` records the cache's
hit/miss counters for observability.

The returned :class:`SchemeResult` carries every column of the paper's
Tables 3, 4 and 5 for one ``(circuit, n)`` run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.core.config import SelectionConfig
from repro.core.ops import expand
from repro.core.postprocess import CompactionResult, statically_compact
from repro.core.procedure1 import SelectionResult, select_subsequences, simulate_t0
from repro.core.sequence import TestSequence
from repro.errors import SelectionError
from repro.core.session import Session, use_session
from repro.faults.model import Fault
from repro.faults.universe import FaultUniverse
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.util.timing import Stopwatch


@dataclass
class SchemeResult:
    """All reported quantities for one circuit at one ``n``."""

    circuit_name: str
    config: SelectionConfig
    total_faults: int
    detected_by_t0: int
    t0_length: int
    # Before static compaction of S:
    num_sequences_before: int
    total_length_before: int
    max_length_before: int
    # After static compaction of S:
    num_sequences_after: int
    total_length_after: int
    max_length_after: int
    applied_test_length: int
    coverage_preserved: bool
    detected_by_scheme: int
    # Timing (seconds, and the paper's normalized form):
    t0_simulation_seconds: float
    procedure1_seconds: float
    compaction_seconds: float

    @property
    def repetitions(self) -> int:
        return self.config.expansion.repetitions

    @property
    def total_ratio(self) -> float:
        """Table 5: total loaded length / len(T0)."""
        return self.total_length_after / self.t0_length if self.t0_length else 0.0

    @property
    def max_ratio(self) -> float:
        """Table 5: max loaded length / len(T0)."""
        return self.max_length_after / self.t0_length if self.t0_length else 0.0

    @property
    def normalized_procedure1_time(self) -> float:
        """Table 4: Procedure 1 time / T0 simulation time."""
        if self.t0_simulation_seconds == 0:
            return 0.0
        return self.procedure1_seconds / self.t0_simulation_seconds

    @property
    def normalized_compaction_time(self) -> float:
        """Table 4: compaction time / T0 simulation time."""
        if self.t0_simulation_seconds == 0:
            return 0.0
        return self.compaction_seconds / self.t0_simulation_seconds


@dataclass
class SchemeRun:
    """A :class:`SchemeResult` plus the underlying detailed objects.

    ``selection.sequences`` reflects the set *after* static compaction
    (compaction works in place); ``sequences_before_compaction`` preserves
    the full Procedure 1 output for inspection.
    """

    result: SchemeResult
    selection: SelectionResult
    compaction: CompactionResult
    udet: dict[Fault, int]
    sequences_before_compaction: list = None
    #: Good-machine trace cache counters at the end of the run (misses ==
    #: fault-free simulations actually executed for this circuit).
    trace_stats: dict = None


class LoadAndExpandScheme:
    """The paper's scheme, bound to one circuit."""

    def __init__(self, circuit: Circuit | CompiledCircuit) -> None:
        self._compiled = (
            circuit if isinstance(circuit, CompiledCircuit) else CompiledCircuit(circuit)
        )
        self._universe = FaultUniverse(self._compiled.circuit)

    @property
    def compiled(self) -> CompiledCircuit:
        return self._compiled

    @property
    def universe(self) -> FaultUniverse:
        return self._universe

    def run(
        self,
        t0: TestSequence,
        config: SelectionConfig | None = None,
        session: Session | None = None,
    ) -> SchemeRun:
        """Run selection + compaction + verification for ``t0``.

        ``session`` shares a caller's :class:`~repro.core.session.Session`
        (warm caches, profile-resolved workers, scoped simulator
        lifecycle); without one an ephemeral session is created for the
        duration of the run.
        """
        config = config or SelectionConfig()
        with use_session(session) as sess:
            fault_simulator = sess.fault_simulator(
                self._compiled,
                batch_width=config.fault_batch_width,
                backend=config.backend,
                workers=config.workers,
                parallel=config.parallel,
            )
            t0_watch = Stopwatch().start()
            udet = simulate_t0(fault_simulator, self._universe, t0)
            t0_seconds = t0_watch.stop()

            proc1_watch = Stopwatch().start()
            selection = select_subsequences(
                self._compiled,
                t0,
                config=config,
                universe=self._universe,
                precomputed_udet=udet,
                session=sess,
            )
            proc1_seconds = proc1_watch.stop()

            before_num = selection.num_sequences
            before_total = selection.total_length
            before_max = selection.max_length
            sequences_before = list(selection.sequences)

            comp_watch = Stopwatch().start()
            compaction = statically_compact(selection)
            comp_seconds = comp_watch.stop()

            detected = self._detected_by_sequences(fault_simulator, selection, udet)
            recorded = frozenset().union(*(s.detects for s in selection.sequences))
            if detected != recorded:
                differing = sorted(detected ^ recorded, key=self._universe.id_of)
                raise SelectionError(
                    f"{self._compiled.circuit.name}: re-simulating the compacted "
                    f"set disagrees with its recorded detection rows; "
                    f"{len(differing)} faults differ, e.g. {differing[:5]}"
                )
            coverage_preserved = detected == set(udet)
            unexplained = set(udet) - detected - set(selection.uncoverable)
            if unexplained:
                missing = sorted(unexplained, key=self._universe.id_of)[:5]
                raise SelectionError(
                    f"{self._compiled.circuit.name}: scheme lost coverage of "
                    f"{len(unexplained)} faults, e.g. {missing}"
                )

            result = SchemeResult(
                circuit_name=self._compiled.circuit.name,
                config=config,
                total_faults=len(self._universe),
                detected_by_t0=len(udet),
                t0_length=len(t0),
                num_sequences_before=before_num,
                total_length_before=before_total,
                max_length_before=before_max,
                num_sequences_after=selection.num_sequences,
                total_length_after=selection.total_length,
                max_length_after=selection.max_length,
                applied_test_length=selection.applied_test_length,
                coverage_preserved=coverage_preserved,
                detected_by_scheme=len(detected),
                t0_simulation_seconds=t0_seconds,
                procedure1_seconds=proc1_seconds,
                compaction_seconds=comp_seconds,
            )
            return SchemeRun(
                result=result,
                selection=selection,
                compaction=compaction,
                udet=udet,
                sequences_before_compaction=sequences_before,
                trace_stats=fault_simulator.trace_cache.stats(),
            )

    def _detected_by_sequences(
        self,
        fault_simulator: FaultSimulator,
        selection: SelectionResult,
        udet: dict[Fault, int],
    ) -> set[Fault]:
        """Faults of ``F`` detected by the union of expanded sequences."""
        remaining = set(udet)
        detected: set[Fault] = set()
        for entry in selection.sequences:
            if not remaining:
                break
            expanded = expand(entry.sequence, selection.config.expansion)
            sim = fault_simulator.run(
                expanded, sorted(remaining, key=self._universe.id_of)
            )
            newly = set(sim.detection_time)
            detected |= newly
            remaining -= newly
        return detected
