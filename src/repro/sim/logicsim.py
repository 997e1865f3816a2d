"""Fault-free 3-valued sequential logic simulation.

Runs a single-slot batch of the selected simulation backend with no
injection plan, through :meth:`~repro.sim.backend.SimBackend.run_good_trace`
(one ``repro_trace`` kernel call per sequence on the native backend, the
per-step reference loop elsewhere).  The resulting :class:`GoodTrace`
(per-cycle primary output values, and optionally all signal values) is
consumed by the fault simulators for detection comparison, by the ATPG
for guidance, and by the BIST session model for computing the fault-free
signature.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.logic.values import X, Ternary
from repro.sim.backend import BroadcastStimulus, SimBackend, get_backend
from repro.sim.compiled import CompiledCircuit


@dataclass
class GoodTrace:
    """Fault-free response to a sequence.

    Attributes:
        po_values: ``po_values[t][p]`` is the value of PO ``p`` at time ``t``.
        final_state: flop values after the last vector.
        signal_values: optional full trace ``signal_values[t][signal_index]``.
    """

    po_values: list[list[Ternary]]
    final_state: list[Ternary]
    signal_values: list[list[Ternary]] | None = None

    @property
    def length(self) -> int:
        return len(self.po_values)

    def known_output_fraction(self) -> float:
        """Fraction of PO observations that are binary (initialization metric)."""
        total = sum(len(row) for row in self.po_values)
        if total == 0:
            return 0.0
        known = sum(1 for row in self.po_values for v in row if v is not X)
        return known / total


class LogicSimulator:
    """Fault-free simulator for one circuit (reusable across sequences)."""

    def __init__(
        self,
        circuit: Circuit | CompiledCircuit,
        backend: str | SimBackend | None = None,
    ) -> None:
        if isinstance(circuit, CompiledCircuit):
            self._compiled = circuit
        else:
            self._compiled = CompiledCircuit(circuit)
        self._backend = get_backend(self._compiled, backend)
        self._program = self._backend.program(None)

    @property
    def compiled(self) -> CompiledCircuit:
        return self._compiled

    @property
    def backend(self) -> SimBackend:
        return self._backend

    def run(
        self,
        sequence: TestSequence,
        record_signals: bool = False,
        initial_state: list[Ternary] | None = None,
    ) -> GoodTrace:
        """Simulate ``sequence``; flops start at ``initial_state`` (default all-X)."""
        compiled = self._compiled
        if len(sequence) and sequence.width != compiled.num_inputs:
            raise SimulationError(
                f"sequence width {sequence.width} != circuit inputs "
                f"{compiled.num_inputs}"
            )
        machine = self._backend.batch(self._program, 1)
        if initial_state is not None:
            if len(initial_state) != len(compiled.flop_pairs):
                raise SimulationError(
                    f"initial state has {len(initial_state)} flop values, "
                    f"circuit has {len(compiled.flop_pairs)} flops"
                )
            machine.set_state_scalar(initial_state)
        po_trace, signal_trace = self._backend.run_good_trace(
            machine,
            BroadcastStimulus(sequence, 1),
            record_signals=record_signals,
        )
        return GoodTrace(
            po_values=po_trace,
            final_state=machine.export_state_scalar(),
            signal_values=signal_trace,
        )
