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
  (one input sequence, many faults) with fault dropping.
* :mod:`repro.sim.scanplan` — the :class:`ScanPlan` IR every candidate
  scan is described as (window ramps with optional kept vectors,
  omission rounds, explicit lists), with per-candidate cost and
  cost-balanced chunk boundaries shared by the serial and sharded
  executors.
* :mod:`repro.sim.trace` — the per-session good-machine trace cache:
  fault-free traces, observation plans and packed base bit columns
  computed once per (circuit, sequence) and pickled into the sharded
  axes' tasks (:func:`get_trace_cache`).
* :mod:`repro.sim.workerpool` — the persistent per-session worker pool
  both sharded axes borrow (one spawn + one circuit pickle per worker
  per context, shared first-hit cancellation slot).
* :mod:`repro.sim.sharding` — process-sharded fault simulation: chunked
  work-stealing across worker processes behind the same simulator API
  (:func:`make_fault_simulator` is the ``workers=`` seam).
* :mod:`repro.sim.seqsim` — bit-parallel parallel-sequence simulation
  (one fault, many candidate input sequences), the Procedure 2 engine.
* :mod:`repro.sim.seqshard` — process-sharded candidate detection:
  window/omission scans chunked over the shared pool, each task
  carrying the base's bit matrix and a base-less plan slice
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
from repro.sim.faultsim import FaultSimulator, FaultSimResult
from repro.sim.sharding import (
    ShardedFaultSimSession,
    ShardedFaultSimulator,
    make_fault_simulator,
)
from repro.sim.scanplan import (
    ExplicitPlan,
    OmissionPlan,
    ScanPlan,
    WindowRampPlan,
)
from repro.sim.seqsim import SequenceBatchSimulator
from repro.sim.seqshard import (
    ShardedSequenceBatchSimulator,
    make_sequence_simulator,
)
from repro.sim.trace import (
    GoodTraceCache,
    close_trace_caches,
    get_trace_cache,
)
from repro.sim.workerpool import WorkerPool, close_worker_pools, get_worker_pool
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
    "ShardedFaultSimSession",
    "ShardedFaultSimulator",
    "make_fault_simulator",
    "SequenceBatchSimulator",
    "ShardedSequenceBatchSimulator",
    "make_sequence_simulator",
    "WorkerPool",
    "get_worker_pool",
    "close_worker_pools",
    "DetectionRecord",
]
