"""Top-level test generation: produce ``T0`` for a circuit.

See the package docstring for the phase structure.  The engine works
against the collapsed fault universe, keeps per-fault machine state in a
:class:`~repro.sim.faultsim.FaultSimSession` so that growing the sequence
is linear in its final length, and reports per-phase statistics so the
experiment harness can show where coverage came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atpg.config import AtpgConfig
from repro.atpg.genetic import attack_fault
from repro.atpg.random_gen import random_sequence, weighted_sequence
from repro.atpg.restoration import RestorationStats, restoration_compact
from repro.circuit.netlist import Circuit
from repro.core.ops import concat
from repro.core.sequence import TestSequence
from repro.core.session import Session, use_session
from repro.faults.universe import FaultUniverse
from repro.sim.compiled import CompiledCircuit
from repro.util.rng import SplitMix64, derive_seed

#: Bit-probability mix for the weighted-random greedy candidates.
_WEIGHTS = (0.5, 0.25, 0.75, 0.1, 0.9)


@dataclass
class AtpgResult:
    """``T0`` and how it was obtained."""

    circuit_name: str
    sequence: TestSequence
    total_faults: int
    detected: int
    detected_random: int = 0
    detected_greedy: int = 0
    detected_genetic: int = 0
    genetic_attempts: int = 0
    compaction: RestorationStats | None = None
    phase_log: list[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 0.0
        return self.detected / self.total_faults

    @property
    def length(self) -> int:
        return len(self.sequence)


def generate_t0(
    circuit: Circuit | CompiledCircuit,
    config: AtpgConfig | None = None,
    universe: FaultUniverse | None = None,
    session: Session | None = None,
) -> AtpgResult:
    """Generate a deterministic test sequence for ``circuit``."""
    config = config or AtpgConfig()
    compiled = (
        circuit if isinstance(circuit, CompiledCircuit) else CompiledCircuit(circuit)
    )
    if universe is None:
        universe = FaultUniverse(compiled.circuit)
    with use_session(session) as sess:
        simulator = sess.fault_simulator(
            compiled,
            backend=config.backend,
            workers=config.workers,
            parallel=config.parallel,
        )
        width = compiled.num_inputs
        all_faults = list(universe.faults())
        session = simulator.session(all_faults)
        sequence = TestSequence.empty(width)
        result = AtpgResult(
            circuit_name=compiled.circuit.name,
            sequence=sequence,
            total_faults=len(all_faults),
            detected=0,
        )

        def commit(extension: TestSequence) -> int:
            nonlocal sequence
            sequence = concat(sequence, extension)
            return len(session.commit(extension))

        # ------------------------------------------------------------------
        # Phase 1: plain random extension.
        # ------------------------------------------------------------------
        rng = SplitMix64(derive_seed(config.seed, 0xA7B6))
        unproductive = 0
        while (
            session.num_remaining
            and unproductive < config.random_patience
            and len(sequence) + config.random_chunk <= config.max_length
        ):
            gained = commit(random_sequence(rng, width, config.random_chunk))
            result.detected_random += gained
            unproductive = 0 if gained else unproductive + 1
        result.phase_log.append(
            f"random: len={len(sequence)} detected={result.detected_random}"
        )

        # ------------------------------------------------------------------
        # Phase 2: greedy candidate selection with weighted randomness.
        # ------------------------------------------------------------------
        greedy_rng = SplitMix64(derive_seed(config.seed, 0x93ED))
        unproductive = 0
        while (
            session.num_remaining
            and unproductive < config.greedy_patience
            and len(sequence) + config.greedy_chunk <= config.max_length
        ):
            best_gain = 0
            best_extension: TestSequence | None = None
            for candidate_index in range(config.greedy_candidates):
                weight = _WEIGHTS[candidate_index % len(_WEIGHTS)]
                extension = weighted_sequence(
                    greedy_rng, width, config.greedy_chunk, weight
                )
                gain = session.peek(extension)
                if gain > best_gain:
                    best_gain = gain
                    best_extension = extension
            if best_extension is None:
                unproductive += 1
                continue
            result.detected_greedy += commit(best_extension)
            unproductive = 0
        result.phase_log.append(
            f"greedy: len={len(sequence)} detected={result.detected_greedy}"
        )

        # ------------------------------------------------------------------
        # Phase 3: genetic attack on the hardest remaining faults.
        # Candidates are evaluated stand-alone (all-X start) by the GA, so a
        # successful candidate is appended and the session advanced over it.
        # One candidate-scan simulator scores every population.
        # ------------------------------------------------------------------
        if session.num_remaining and config.genetic_targets > 0:
            ga_simulator = sess.sequence_simulator(
                compiled,
                backend=config.backend,
                workers=config.workers,
                parallel=config.parallel,
            )
            targets = sorted(session.remaining_faults)[: config.genetic_targets]
            still_remaining = set(session.remaining_faults)
            for salt, fault in enumerate(targets):
                if fault not in still_remaining:
                    continue  # covered as a side effect of an earlier attack
                if len(sequence) + 2 * config.genetic_sequence_length > config.max_length:
                    break
                outcome = attack_fault(
                    compiled, fault, config, salt=salt, simulator=ga_simulator
                )
                result.genetic_attempts += 1
                if outcome.succeeded and outcome.sequence is not None:
                    result.detected_genetic += commit(outcome.sequence)
                    still_remaining = set(session.remaining_faults)
            result.phase_log.append(
                f"genetic: len={len(sequence)} detected={result.detected_genetic} "
                f"attempts={result.genetic_attempts}"
            )

        # ------------------------------------------------------------------
        # Phase 4: static compaction (reference [12] role).
        # ------------------------------------------------------------------
        if len(sequence) and config.run_compaction:
            sequence, stats = restoration_compact(
                compiled,
                sequence,
                all_faults,
                backend=config.backend,
                workers=config.workers,
                parallel=config.parallel,
                session=sess,
            )
            result.compaction = stats
            result.phase_log.append(
                f"restoration: {stats.original_length} -> {stats.final_length} "
                f"({stats.restoration_events} events)"
            )

        final = simulator.run(sequence, all_faults)
        result.sequence = sequence
        result.detected = final.num_detected
        return result
