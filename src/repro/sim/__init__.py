"""Simulation engines.

* :mod:`repro.sim.compiled` — compiles a netlist to a flat op program.
* :mod:`repro.sim.backend` — the pluggable backend layer: the
  :class:`SimBackend` protocol, the registry (:func:`get_backend`,
  :func:`available_backends`) and the per-fault-batch program cache.
* :mod:`repro.sim.backend_python` — reference big-int backend.
* :mod:`repro.sim.backend_numpy` — the ``uint64`` rail storage the
  native backend builds on (not a registered engine).
* :mod:`repro.sim.backend_native` — the compiled C-kernel backend.
* :mod:`repro.sim.logicsim` — fault-free 3-valued sequential simulation.
* :mod:`repro.sim.faultsim` — bit-parallel parallel-fault simulation
  (one input sequence, many faults) with fault dropping
  (:func:`make_fault_simulator` is the ``workers=`` seam).
* :mod:`repro.sim.scanplan` — the :class:`ScanPlan` IR every candidate
  scan is described as (window ramps with optional kept vectors,
  omission rounds, explicit lists).
* :mod:`repro.sim.trace` — the per-session good-machine trace cache:
  fault-free traces, observation plans and packed base bit columns
  computed once per (circuit, sequence) (:func:`get_trace_cache`).
* :mod:`repro.sim.workerpool` — chunk threads, the one parallel tier of
  both axes: the process-global helper threads, the chunk cut, the
  fan-out floor and the tier policy (:func:`resolve_execution`).
* :mod:`repro.sim.seqsim` — bit-parallel parallel-sequence simulation
  (one fault, many candidate input sequences), the Procedure 2 engine
  (:func:`make_sequence_simulator` is the candidate-axis ``workers=``
  seam).
* :mod:`repro.sim.reference` — slow, obviously-correct per-fault scalar
  simulator used to cross-check the fast engines in the tests.
"""

from repro.sim.backend import (
    DEFAULT_BACKEND,
    SimBackend,
    SimBatch,
    SimProgram,
    available_backends,
    get_backend,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.logicsim import LogicSimulator, GoodTrace
from repro.sim.faultsim import FaultSimulator, FaultSimResult, make_fault_simulator
from repro.sim.scanplan import (
    ExplicitPlan,
    OmissionPlan,
    ScanPlan,
    WindowRampPlan,
)
from repro.sim.seqsim import SequenceBatchSimulator, make_sequence_simulator
from repro.sim.trace import (
    GoodTraceCache,
    close_trace_caches,
    get_trace_cache,
)
from repro.sim.detection import DetectionRecord

__all__ = [
    "ScanPlan",
    "WindowRampPlan",
    "OmissionPlan",
    "ExplicitPlan",
    "GoodTraceCache",
    "get_trace_cache",
    "close_trace_caches",
    "CompiledCircuit",
    "DEFAULT_BACKEND",
    "SimBackend",
    "SimBatch",
    "SimProgram",
    "available_backends",
    "get_backend",
    "LogicSimulator",
    "GoodTrace",
    "FaultSimulator",
    "FaultSimResult",
    "make_fault_simulator",
    "SequenceBatchSimulator",
    "make_sequence_simulator",
    "DetectionRecord",
]
