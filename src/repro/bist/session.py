"""A full BIST session: load, expand, apply, compact, compare.

:class:`BistSession` emulates the complete test-application flow the
paper implies:

1. size the on-chip memory for the longest sequence in ``S``;
2. compute golden signatures: for every subsequence, load it, run the
   expansion controller cycle by cycle against the fault-free circuit,
   and capture the MISR signature (masking capture on cycles whose
   fault-free outputs are not fully binary — the paper's synchronization
   requirement);
3. test a device (optionally with an injected fault): same flow, compare
   per-subsequence signatures.

The controller output is, by construction and by test, bit-identical to
``expand(S_i, config)``, so a device fails the session iff some expanded
subsequence detects its fault *at a signature-visible cycle*.  The
sequence-level verdicts also report plain PO-compare detection so the
MISR masking effect can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bist.controller import ExpansionController
from repro.bist.cost import BistCostModel
from repro.bist.memory import TestMemory
from repro.bist.misr import Misr
from repro.circuit.netlist import Circuit
from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.errors import HardwareModelError
from repro.faults.model import Fault
from repro.logic.values import X
from repro.sim.backend import AUTO_BACKEND
from repro.sim.compiled import CompiledCircuit
from repro.sim.logicsim import LogicSimulator
from repro.sim.sharding import make_fault_simulator
from repro.sim.reference import ReferenceSimulator


@dataclass(frozen=True)
class SequenceVerdict:
    """Outcome of applying one expanded subsequence to one device."""

    sequence_index: int
    loaded_length: int
    applied_length: int
    golden_signature: int
    observed_signature: int
    po_mismatch: bool  # plain PO comparison (no compaction) saw a difference

    @property
    def signature_mismatch(self) -> bool:
        return self.golden_signature != self.observed_signature


@dataclass
class SessionReport:
    """Outcome of one device test across all subsequences."""

    fault: Fault | None
    verdicts: list[SequenceVerdict] = field(default_factory=list)

    @property
    def fails(self) -> bool:
        """Device flagged faulty by signature comparison."""
        return any(v.signature_mismatch for v in self.verdicts)

    @property
    def detected_without_compaction(self) -> bool:
        return any(v.po_mismatch for v in self.verdicts)

    @property
    def total_load_cycles(self) -> int:
        return sum(v.loaded_length for v in self.verdicts)

    @property
    def total_at_speed_cycles(self) -> int:
        return sum(v.applied_length for v in self.verdicts)


class BistSession:
    """Emulated BIST deployment for one circuit and one selected set."""

    def __init__(
        self,
        circuit: Circuit | CompiledCircuit,
        sequences: list[TestSequence],
        config: ExpansionConfig,
        misr_length: int = 24,
        backend: str | None = None,
        workers: int = 1,
    ) -> None:
        if not sequences:
            raise HardwareModelError("a BIST session needs at least one sequence")
        self._compiled = (
            circuit if isinstance(circuit, CompiledCircuit) else CompiledCircuit(circuit)
        )
        self._circuit = self._compiled.circuit
        self._sequences = list(sequences)
        self._config = config
        self._word_bits = self._circuit.num_inputs
        self._capacity = max(len(s) for s in sequences)
        self._misr_length = misr_length
        # The golden trace is one slot whatever the fault-axis engine:
        # "auto" traces each expanded sequence in one native kernel call
        # at the native crossover, else on the big-int kernel.
        self._logic = LogicSimulator(self._compiled, backend=AUTO_BACKEND)
        self._fault_simulator = make_fault_simulator(
            self._compiled, backend=backend, workers=workers
        )
        # Per-sequence golden data: (expanded TestSequence, capture mask,
        # golden signature), computed once.
        self._golden: list[tuple[TestSequence, list[bool], int]] = []
        self._prepare_golden()

    def close(self) -> None:
        """Release the session's fault-simulation resources (worker pools)."""
        self._fault_simulator.close()

    def __enter__(self) -> "BistSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Construction-time golden run
    # ------------------------------------------------------------------
    def _expand_via_hardware(self, sequence: TestSequence) -> TestSequence:
        memory = TestMemory(self._word_bits, self._capacity)
        memory.load(sequence)
        controller = ExpansionController(memory, self._config)
        return TestSequence(controller.generate_all())

    def _prepare_golden(self) -> None:
        for sequence in self._sequences:
            expanded = self._expand_via_hardware(sequence)
            trace = self._logic.run(expanded)
            capture_mask = [
                all(value is not X for value in row) for row in trace.po_values
            ]
            misr = Misr(self._misr_length, self._circuit.num_outputs)
            for t, row in enumerate(trace.po_values):
                if capture_mask[t]:
                    misr.capture(row)
            self._golden.append((expanded, capture_mask, misr.signature()))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def memory(self) -> TestMemory:
        """A fresh memory instance sized like the session's hardware."""
        return TestMemory(self._word_bits, self._capacity)

    @property
    def cost_model(self) -> BistCostModel:
        return BistCostModel(
            num_inputs=self._word_bits,
            t0_length=0,  # callers with a T0 baseline override via cost_for_t0
            total_loaded_length=sum(len(s) for s in self._sequences),
            max_loaded_length=self._capacity,
            expansion=self._config,
        )

    def cost_for_t0(self, t0_length: int) -> BistCostModel:
        """Cost model with the store-``T0`` baseline filled in."""
        return BistCostModel(
            num_inputs=self._word_bits,
            t0_length=t0_length,
            total_loaded_length=sum(len(s) for s in self._sequences),
            max_loaded_length=self._capacity,
            expansion=self._config,
        )

    def golden_signatures(self) -> list[int]:
        return [signature for _, _, signature in self._golden]

    def test_device(self, fault: Fault | None = None) -> SessionReport:
        """Run the whole session against a device (faulty or fault-free)."""
        report = SessionReport(fault=fault)
        reference = ReferenceSimulator(self._circuit) if fault is not None else None
        for index, (sequence, golden) in enumerate(
            zip(self._sequences, self._golden)
        ):
            expanded, capture_mask, golden_signature = golden
            if fault is None:
                observed_signature = golden_signature
                po_mismatch = False
            else:
                faulty_trace = reference.simulate(expanded, fault=fault)
                misr = Misr(self._misr_length, self._circuit.num_outputs)
                for t, row in enumerate(faulty_trace):
                    if capture_mask[t]:
                        misr.capture(row)
                observed_signature = misr.signature()
                po_mismatch = self._fault_simulator.run(
                    expanded, [fault]
                ).is_detected(fault)
            report.verdicts.append(
                SequenceVerdict(
                    sequence_index=index,
                    loaded_length=len(sequence),
                    applied_length=len(expanded),
                    golden_signature=golden_signature,
                    observed_signature=observed_signature,
                    po_mismatch=po_mismatch,
                )
            )
        return report
