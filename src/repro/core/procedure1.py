"""Procedure 1: the overall subsequence selection loop.

Simulate ``T0`` to obtain the detected fault set ``F`` and first-detection
times ``udet``; then repeatedly target the not-yet-covered fault with the
highest ``udet`` (hard faults give long, productive subsequences), build a
subsequence for it with Procedure 2, and fault-simulate its expanded
version against all of ``F`` (its detection row) to drop every newly
covered fault, until the expanded selections cover all of ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.netlist import Circuit
from repro.core.config import SelectionConfig
from repro.core.ops import expand, expanded_length
from repro.core.procedure2 import build_subsequence_for_fault
from repro.core.sequence import TestSequence
from repro.errors import SelectionError
from repro.faults.model import Fault
from repro.faults.universe import FaultUniverse
from repro.core.session import Session, use_session
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator


@dataclass
class SelectedSequence:
    """One member of the selected set ``S`` with its provenance.

    ``detects`` is the sequence's detection row: the faults of ``F`` its
    expansion detects from the all-X state.  That set does not depend on
    which other faults are simulated alongside, so Procedure 1 records it
    once and static compaction (:mod:`repro.core.postprocess`) works on
    the rows instead of simulating again.
    """

    index: int
    sequence: TestSequence
    target_fault: Fault
    ustart: int
    udet: int
    window_length: int
    omitted_vectors: int
    faults_detected_when_added: int
    detects: frozenset[Fault]

    @property
    def length(self) -> int:
        return len(self.sequence)


@dataclass
class SelectionResult:
    """Outcome of Procedure 1 (the set ``S`` before postprocessing)."""

    circuit_name: str
    config: SelectionConfig
    t0_length: int
    total_faults: int
    detected_by_t0: int
    udet: dict[Fault, int]
    sequences: list[SelectedSequence] = field(default_factory=list)
    candidates_simulated: int = 0
    #: Faults no expanded window can detect.  Always empty for the paper's
    #: operator sets (expansion starts with a verbatim copy of S, so the
    #: full T0 prefix is a guaranteed fallback); can be non-empty for the
    #: hold-cycles extension, which rewrites the applied sequence.
    uncoverable: list[Fault] = field(default_factory=list)

    @property
    def num_sequences(self) -> int:
        return len(self.sequences)

    @property
    def total_length(self) -> int:
        """Total loaded length — the paper's ``tot len`` column."""
        return sum(len(s.sequence) for s in self.sequences)

    @property
    def max_length(self) -> int:
        """Longest loaded sequence — the paper's ``max len`` column."""
        return max((len(s.sequence) for s in self.sequences), default=0)

    @property
    def applied_test_length(self) -> int:
        """Total at-speed vectors applied — the paper's ``test len`` (8nL)."""
        return expanded_length(self.total_length, self.config.expansion)

    def test_sequences(self) -> list[TestSequence]:
        return [s.sequence for s in self.sequences]


def simulate_t0(
    fault_simulator: FaultSimulator,
    universe: FaultUniverse,
    t0: TestSequence,
) -> dict[Fault, int]:
    """Step 1 of Procedure 1: ``udet`` for every fault ``T0`` detects."""
    result = fault_simulator.run(t0, list(universe.faults()))
    return dict(result.detection_time)


def select_subsequences(
    circuit: Circuit | CompiledCircuit,
    t0: TestSequence,
    config: SelectionConfig | None = None,
    universe: FaultUniverse | None = None,
    precomputed_udet: dict[Fault, int] | None = None,
    session: Session | None = None,
) -> SelectionResult:
    """Run Procedure 1 and return the selected set ``S``."""
    config = config or SelectionConfig()
    compiled = (
        circuit if isinstance(circuit, CompiledCircuit) else CompiledCircuit(circuit)
    )
    if universe is None:
        universe = FaultUniverse(compiled.circuit)
    with use_session(session) as sess:
        fault_simulator = sess.fault_simulator(
            compiled,
            batch_width=config.fault_batch_width,
            backend=config.backend,
            workers=config.workers,
            parallel=config.parallel,
        )
        sequence_simulator = sess.sequence_simulator(
            compiled,
            batch_width=config.omission_batch_width,
            backend=config.backend,
            workers=config.workers,
            parallel=config.parallel,
        )
        if precomputed_udet is None:
            udet = simulate_t0(fault_simulator, universe, t0)
        else:
            udet = dict(precomputed_udet)

        result = SelectionResult(
            circuit_name=compiled.circuit.name,
            config=config,
            t0_length=len(t0),
            total_faults=len(universe),
            detected_by_t0=len(udet),
            udet=udet,
        )
        # Ftarg ordered: highest udet first; ties broken by universe id so the
        # procedure is deterministic.
        targets = sorted(
            udet, key=lambda fault: (-udet[fault], universe.id_of(fault))
        )
        remaining: set[Fault] = set(targets)

        iteration = 0
        while remaining:
            target = next(fault for fault in targets if fault in remaining)
            try:
                sub = build_subsequence_for_fault(
                    sequence_simulator,
                    t0,
                    target,
                    udet[target],
                    config,
                    fault_salt=universe.id_of(target),
                )
            except SelectionError:
                if config.expansion.hold_cycles == 1:
                    # The guarantee holds for the paper's operator sets; a
                    # failure here means a simulator bug, not a hard fault.
                    raise
                result.uncoverable.append(target)
                remaining.discard(target)
                continue
            result.candidates_simulated += sub.candidates_simulated
            expanded = expand(sub.subsequence, config.expansion)
            # One simulation against all of F gives the sequence's row;
            # the same fault list every time keeps batch programs cached.
            row = frozenset(fault_simulator.run(expanded, targets).detection_time)
            newly_detected = row & remaining
            if target not in newly_detected:
                raise SelectionError(
                    f"{compiled.circuit.name}: expanded subsequence for {target} "
                    "does not detect its own target fault — simulator inconsistency"
                )
            result.sequences.append(
                SelectedSequence(
                    index=iteration,
                    sequence=sub.subsequence,
                    target_fault=target,
                    ustart=sub.ustart,
                    udet=sub.udet,
                    window_length=sub.window_length,
                    omitted_vectors=sub.omitted_vectors,
                    faults_detected_when_added=len(newly_detected),
                    detects=row,
                )
            )
            remaining -= newly_detected
            iteration += 1
        return result
