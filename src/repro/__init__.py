"""repro — reproduction of Pomeranz & Reddy, DAC 1999.

"Built-In Test Sequence Generation for Synchronous Sequential Circuits
Based on Loading and Expansion of Test Subsequences."

Public API quick reference::

    import repro

    with repro.Session() as session:
        result = session.run(repro.RunRequest(kind="scheme", circuit="s27"))
    print(result.fingerprint())

:class:`Session` is the facade over everything underneath — backend
resolution, per-circuit program LRUs and good-machine trace caches — and
:class:`RunRequest` / :class:`RunResult` are the serializable request
and result records every surface (CLI, harness, examples, the
:mod:`repro.serve` HTTP service) shares.  Lower-level pieces remain
importable::

    from repro import (
        load_circuit, parse_bench, CircuitBuilder,      # circuits
        FaultUniverse,                                   # faults
        FaultSimulator, LogicSimulator,                  # simulation
        available_backends,                              # sim backends
        TestSequence, ExpansionConfig, expand,           # sequences
        SelectionConfig, LoadAndExpandScheme,            # the paper's scheme
    )

Every simulator accepts ``backend="python"`` (default, dependency-free
big-int kernel), ``backend="native"`` (a lazily compiled C kernel over
numpy word arrays) or ``backend="auto"`` (native by circuit size when it
builds, else python); results are bit-identical.  Both hot axes additionally scale
across chunk threads with identical results (``workers=``).  Sessions
hand out simulators and trace caches on their shared compiled circuits
(:meth:`Session.fault_simulator`, :meth:`Session.sequence_simulator`,
:meth:`Session.trace_cache`).
"""

from repro.circuit import CircuitBuilder, Circuit, GateType, parse_bench, parse_bench_file
from repro.circuits import load_circuit, paper_t0_s27, available_circuits
from repro.core import (
    ExpansionConfig,
    LoadAndExpandScheme,
    SelectionConfig,
    TestSequence,
    complement,
    concat,
    expand,
    expanded_length,
    repeat,
    reverse,
    select_subsequences,
    shift_left,
    statically_compact,
)
from repro.core.request import RunRequest, RunResult, circuit_content_hash
from repro.core.session import RunOutcome, Session, use_session
from repro.errors import ReproError
from repro.faults import Fault, FaultSite, FaultUniverse, collapse_faults
from repro.sim import (
    ExplicitPlan,
    FaultSimulator,
    GoodTraceCache,
    LogicSimulator,
    OmissionPlan,
    ScanPlan,
    SequenceBatchSimulator,
    SimBackend,
    WindowRampPlan,
    available_backends,
    close_trace_caches,
    get_backend,
)

__version__ = "1.0.0"

__all__ = [
    "Session",
    "use_session",
    "RunRequest",
    "RunResult",
    "RunOutcome",
    "circuit_content_hash",
    "Circuit",
    "CircuitBuilder",
    "GateType",
    "parse_bench",
    "parse_bench_file",
    "load_circuit",
    "paper_t0_s27",
    "available_circuits",
    "TestSequence",
    "ExpansionConfig",
    "expand",
    "expanded_length",
    "repeat",
    "complement",
    "shift_left",
    "reverse",
    "concat",
    "SelectionConfig",
    "select_subsequences",
    "statically_compact",
    "LoadAndExpandScheme",
    "ReproError",
    "Fault",
    "FaultSite",
    "FaultUniverse",
    "collapse_faults",
    "FaultSimulator",
    "LogicSimulator",
    "SequenceBatchSimulator",
    "ScanPlan",
    "WindowRampPlan",
    "OmissionPlan",
    "ExplicitPlan",
    "GoodTraceCache",
    "close_trace_caches",
    "SimBackend",
    "available_backends",
    "get_backend",
    "__version__",
]
