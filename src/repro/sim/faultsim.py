"""Bit-parallel parallel-fault simulation.

One input sequence, many faults: each bit slot of the ``(H, L)`` words is
an independent faulty machine.  The fault-free machine is simulated once
(one slot) and its primary output values drive the detection comparison:
fault ``f`` is detected at time ``t`` if some PO is binary in the
fault-free machine and takes the complementary binary value in ``f``'s
machine — the paper's detection criterion with both machines starting from
the all-unspecified state.

Faults are simulated in batches of ``batch_width`` slots; a batch stops as
soon as every slot has been detected (sequences detect most faults early,
so this early exit matters).

All slot storage and gate evaluation is delegated to a pluggable
:class:`~repro.sim.backend.SimBackend` (``backend="python"`` big-int
kernel by default, ``backend="numpy"`` for the vectorized engine); the
detection bookkeeping here is backend-independent, so detection times are
bit-identical across backends.

Two usage modes:

* :meth:`FaultSimulator.run` — one-shot, all-X initial state; used by the
  paper's procedures, whose detection semantics require a fresh start.
* :class:`FaultSimSession` — incremental: machine states persist across
  appended extensions, so test *generation* (which grows a sequence chunk
  by chunk) costs O(total length) instead of O(length²).
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.core.sequence import TestSequence
from repro.faults.model import Fault
from repro.logic.values import X, Ternary
from repro.sim.backend import (
    AUTO_BACKEND,
    BroadcastStimulus,
    SimBackend,
    get_backend,
    resolve_auto,
    resolve_simulator_threads,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.detection import FaultSimResult
from repro.sim.logicsim import LogicSimulator

# The observation-plan machinery lives with the good-machine trace cache
# (:mod:`repro.sim.trace`); re-exported here for its historical importers.
from repro.sim.trace import (  # noqa: F401  (re-export)
    ObservationRow,
    build_observation_plan,
    get_trace_cache,
)

DEFAULT_BATCH_WIDTH = 192


class FaultSimulator:
    """Parallel-fault simulator bound to one circuit."""

    def __init__(
        self,
        circuit: Circuit | CompiledCircuit,
        batch_width: int = DEFAULT_BATCH_WIDTH,
        backend: str | SimBackend | None = None,
        threads: int = 1,
    ) -> None:
        if isinstance(circuit, CompiledCircuit):
            self._compiled = circuit
        else:
            self._compiled = CompiledCircuit(circuit)
        # "auto" adapts both the engine (by gate count) and, when the
        # big-int kernel wins, the batch width (down to its sweet spot).
        backend, batch_width = resolve_auto(self._compiled, backend, batch_width)
        self._backend = get_backend(self._compiled, backend)
        self._batch_width = self._backend.validate_batch_width(batch_width)
        # In-kernel thread lanes: the native backend splits every batch's
        # words axis across the kernel's persistent pool.  Warm the pool
        # here and clamp to what it actually granted; other engines run
        # serial regardless (detection times are identical either way).
        self._threads = resolve_simulator_threads(self._backend, threads)
        # The fault-free machine is a single slot, traced independently
        # of the batch backend ("auto": one native kernel call per
        # sequence at the fault axis's native crossover, else the big-int
        # kernel).  One-shot (all-X) traces come from the session-wide
        # cache — simulated once per (circuit, sequence) no matter how
        # many simulators or dispatches ask; the private LogicSimulator
        # serves sessions, whose good machine starts from an evolving
        # state.
        self._trace_cache = get_trace_cache(self._compiled)
        self._logic = LogicSimulator(self._compiled, backend=AUTO_BACKEND)

    @property
    def compiled(self) -> CompiledCircuit:
        return self._compiled

    @property
    def backend(self) -> SimBackend:
        return self._backend

    @property
    def batch_width(self) -> int:
        return self._batch_width

    @property
    def threads(self) -> int:
        """Kernel thread lanes each batch dispatch may use (1 = serial)."""
        return self._threads

    def close(self) -> None:
        """Release simulator resources.

        A no-op here; the process-sharded subclass
        (:class:`repro.sim.sharding.ShardedFaultSimulator`) retires its
        worker-pool context.  Present on the base class so consumers built
        against :func:`repro.sim.sharding.make_fault_simulator` can close
        unconditionally.
        """

    def __enter__(self) -> "FaultSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # One-shot API (all-X initial state)
    # ------------------------------------------------------------------
    def run(self, sequence: TestSequence, faults: list[Fault]) -> FaultSimResult:
        """Simulate ``faults`` under ``sequence``; return detection times."""
        result = FaultSimResult(
            sequence_length=len(sequence), total_faults=len(faults)
        )
        if len(sequence) == 0 or not faults:
            return result
        observation_plan = self._observation_plan(sequence, None)
        width = self._batch_width
        for start in range(0, len(faults), width):
            batch = faults[start : start + width]
            times, _ = self._run_batch(sequence, batch, observation_plan)
            for fault, time in zip(batch, times):
                if time is not None:
                    result.detection_time[fault] = time
        return result

    def detects(self, sequence: TestSequence, fault: Fault) -> bool:
        """Whether ``sequence`` detects the single fault ``fault``.

        Fast path: one single-slot batch whose inner loop short-circuits
        at the first detection, with no :class:`FaultSimResult` built.
        """
        if len(sequence) == 0:
            return False
        observation_plan = self._observation_plan(sequence, None)
        times, _ = self._run_batch(sequence, [fault], observation_plan)
        return times[0] is not None

    def session(self, faults: list[Fault]) -> "FaultSimSession":
        """Open an incremental session over ``faults`` (all start at all-X)."""
        return FaultSimSession(self, faults)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def trace_cache(self):
        """The session's :class:`~repro.sim.trace.GoodTraceCache`."""
        return self._trace_cache

    def _observation_plan(
        self,
        sequence: TestSequence,
        good_initial_state: list[Ternary] | None,
    ) -> list[ObservationRow]:
        if good_initial_state is None:
            # All-X start: the run-invariant trace, cached per session.
            return self._trace_cache.observation_plan(sequence)
        good = self._logic.run(sequence, initial_state=good_initial_state)
        return build_observation_plan(good)

    def _run_batch(
        self,
        sequence: TestSequence,
        batch: list[Fault],
        observation_plan: list[ObservationRow],
        initial_states: list[int] | None = None,
        collect_final_states: bool = False,
    ) -> tuple[list[int | None], list[int] | None]:
        """Simulate one batch.

        ``initial_states``: per-slot packed flop states (2 bits per flop,
        see :mod:`repro.sim.backend`); None means all-X.  Returns per-slot
        first detection times and, if requested, per-slot packed final
        states.
        """
        backend = self._backend
        program = backend.program(tuple(batch))
        machines = backend.batch(program, len(batch))
        machines.threads = self._threads
        if initial_states is not None:
            machines.set_state_packed(initial_states)

        # The whole per-step loop runs inside the backend's run_scan.
        detect_time = backend.run_scan(
            None,
            machines,
            BroadcastStimulus(sequence, len(batch)),
            observation_plan,
            (1 << len(batch)) - 1,
            collect_final_states=collect_final_states,
        )

        final_states = (
            machines.export_state_packed() if collect_final_states else None
        )
        return detect_time, final_states


class FaultSimSession:
    """Incremental fault simulation across appended sequence extensions.

    Tracks, for every still-undetected fault, the packed state of its
    faulty machine, plus the fault-free machine state; :meth:`commit`
    advances everything by an extension, and :meth:`peek` evaluates an
    extension without advancing (the ATPG's candidate trials).
    """

    def __init__(self, simulator: FaultSimulator, faults: list[Fault]) -> None:
        self._simulator = simulator
        self._compiled = simulator.compiled
        self._num_flops = len(self._compiled.flop_pairs)
        self._good_state: list[Ternary] = [X] * self._num_flops
        self._fault_states: dict[Fault, int] = {fault: 0 for fault in faults}
        self._detection_time: dict[Fault, int] = {}
        self._elapsed = 0

    @property
    def elapsed(self) -> int:
        """Total vectors committed so far."""
        return self._elapsed

    @property
    def detection_time(self) -> dict[Fault, int]:
        """Global first-detection times of all faults detected so far."""
        return dict(self._detection_time)

    @property
    def remaining_faults(self) -> list[Fault]:
        return list(self._fault_states)

    @property
    def num_remaining(self) -> int:
        return len(self._fault_states)

    def peek(self, extension: TestSequence) -> int:
        """How many remaining faults ``extension`` would newly detect."""
        detected, _, _ = self._advance(extension, commit=False)
        return len(detected)

    def commit(self, extension: TestSequence) -> dict[Fault, int]:
        """Advance all machines by ``extension``; return new detections."""
        detected, final_states, good_final = self._advance(extension, commit=True)
        for fault, time in detected.items():
            self._detection_time[fault] = time
            del self._fault_states[fault]
        if final_states is not None:
            self._fault_states.update(final_states)
        if good_final is not None:
            self._good_state = good_final
        self._elapsed += len(extension)
        return detected

    def _advance(
        self, extension: TestSequence, commit: bool
    ) -> tuple[
        dict[Fault, int], dict[Fault, int] | None, list[Ternary] | None
    ]:
        if len(extension) == 0:
            return {}, ({} if commit else None), (list(self._good_state) if commit else None)
        simulator = self._simulator
        good = simulator._logic.run(
            extension, initial_state=self._good_state
        )
        observation_plan = build_observation_plan(good)

        detected: dict[Fault, int] = {}
        final_states: dict[Fault, int] | None = {} if commit else None
        faults = list(self._fault_states)
        width = simulator.batch_width
        for start in range(0, len(faults), width):
            batch = faults[start : start + width]
            initial = [self._fault_states[fault] for fault in batch]
            times, finals = simulator._run_batch(
                extension,
                batch,
                observation_plan,
                initial_states=initial,
                collect_final_states=commit,
            )
            for slot, (fault, time) in enumerate(zip(batch, times)):
                if time is not None:
                    detected[fault] = self._elapsed + time
                elif commit and finals is not None and final_states is not None:
                    final_states[fault] = finals[slot]
        good_final = good.final_state if commit else None
        return detected, final_states, good_final
