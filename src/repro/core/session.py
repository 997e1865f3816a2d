"""The ``repro.Session`` facade: one object that owns execution state.

Everything PRs 1–6 built — backend resolution, per-backend program
LRUs, the :class:`~repro.sim.trace.GoodTraceCache` — is machinery that pays for
itself when *amortized across requests*, but until this module the only
way to reach it was a kwarg soup (``backend=``, ``workers=`` and
throughput knobs threaded through configs and factories) and every consumer
hand-rolled its own ``try/finally close()``.  :class:`Session` is the
single facade in front of all of it:

* **Circuits are keyed by content hash.**  :meth:`Session.compile`
  resolves a catalog name, a :class:`~repro.circuit.netlist.Circuit` or
  inline ``.bench`` text to one shared
  :class:`~repro.sim.compiled.CompiledCircuit` per distinct netlist
  (:func:`~repro.core.request.circuit_content_hash`), so two requests
  for the same circuit — from different tenants, in any order — share
  one compiled program, one program LRU and one good-machine trace
  cache.  Each netlist is hashed once per session: the key is kept
  with its memo entry, so a warm request hashes nothing.  The second
  request's ``trace_stats`` show cache *hits* where the first showed
  misses: that is the cross-request warmth the serving layer exists
  for.
* **Simulators come from the session.**
  :meth:`fault_simulator` / :meth:`sequence_simulator` wrap the
  ``workers=`` factories on the session's shared compiled circuits;
  simulators hold nothing to release.  :func:`use_session` hands
  library code either the caller's session or a private one that
  closes on exit.
* **One execution policy.**  The factories and :meth:`run` resolve
  ``workers`` and ``parallel`` through
  :func:`~repro.sim.workerpool.resolve_execution`, the one place that
  picks a tier and a thread count; omitting ``workers`` on a session
  simulator stays serial, and a run whose engines all hold the GIL is
  serial whatever it asks.  :meth:`run` records the resolved tier and
  count in ``RunResult.execution``.
* **Requests run to results.**  :meth:`Session.run` executes a
  :class:`~repro.core.request.RunRequest` (scheme or ATPG) and returns a
  :class:`~repro.core.request.RunResult` whose deterministic payload is
  bit-identical for the same request no matter the backend, worker
  count, machine or whether the call arrived over HTTP — the contract
  :mod:`repro.serve` and the CI smoke lane are built on.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.core.config import SelectionConfig
from repro.core.request import RunRequest, RunResult, circuit_content_hash
from repro.core.sequence import TestSequence
from repro.errors import ReproError
from repro.sim.backend import engines_release_gil
from repro.sim.compiled import CompiledCircuit
from repro.sim.trace import GoodTraceCache, get_trace_cache
from repro.sim.workerpool import resolve_execution
from repro.util.timing import Stopwatch


@dataclass
class RunOutcome:
    """A :class:`RunResult` plus the rich in-process objects behind it.

    ``scheme_run`` (for scheme requests) keeps the full
    :class:`~repro.core.scheme.SchemeRun` so callers like the CLI can
    render Figure 1; ``atpg`` keeps the
    :class:`~repro.atpg.engine.AtpgResult` with the actual sequence.
    Only ``result`` crosses process boundaries.
    """

    result: RunResult
    scheme_run: object | None = None
    atpg: object | None = None
    t0: TestSequence | None = None


class Session:
    """Owner of compiled circuits, schemes and the caches behind them.

    Use as a context manager::

        with repro.Session() as session:
            result = session.run(repro.RunRequest(kind="scheme", circuit="s27"))

    Concurrent :meth:`run` calls from multiple threads are supported —
    the circuit/scheme registries are lock-guarded — which is what lets
    :class:`repro.serve.JobService` drive N executor lanes over one warm
    session.  ``own_caches=True`` makes
    :meth:`close` also tear down the process-global trace caches — the
    serving layer uses this so service shutdown releases everything; the
    default leaves them warm for other sessions.
    """

    def __init__(self, own_caches: bool = False) -> None:
        self._own_caches = own_caches
        self._compiled: dict[str, CompiledCircuit] = {}
        # Catalog name -> its entry in ``_compiled``: a warm name skips
        # regenerating the netlist and hashing its content.
        self._by_name: dict[str, CompiledCircuit] = {}
        # id(compiled object) -> (that object, its entry in ``_compiled``,
        # the entry's content hash): every entry is listed under its own
        # id, so a compiled circuit is hashed once per session, and
        # adopting a caller's object hashes its netlist once.  Holding
        # the object keeps its id from being reused.
        self._adopted: dict[
            int, tuple[CompiledCircuit, CompiledCircuit, str]
        ] = {}
        self._schemes: dict[str, object] = {}
        # Concurrent ``run`` calls (the serving layer's executor lanes)
        # share this session, so the registries are lock-guarded.
        self._lock = threading.RLock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Circuits (shared per content hash)
    # ------------------------------------------------------------------
    def compile(self, circuit: str | Circuit | CompiledCircuit) -> CompiledCircuit:
        """The session's shared compiled form of ``circuit``.

        Accepts a catalog name, a netlist or an already-compiled
        circuit.  Equal netlist *content* maps to one
        :class:`CompiledCircuit` object, so program LRUs and the trace
        cache are shared across every request that names it.  A name is
        loaded and hashed once per session.
        """
        self._check_open()
        if isinstance(circuit, CompiledCircuit):
            # Adopt the caller's compiled object for its content hash so
            # later name/netlist lookups resolve to the same instance.
            return self._adopt(circuit)
        if isinstance(circuit, str):
            with self._lock:
                compiled = self._by_name.get(circuit)
            if compiled is not None:
                return compiled
            from repro.circuits.catalog import load_circuit

            compiled = self.compile(load_circuit(circuit))
            with self._lock:
                return self._by_name.setdefault(circuit, compiled)
        key = circuit_content_hash(circuit)
        # Compiling under the lock keeps the one-object-per-content-hash
        # identity exact: two lanes racing on a cold circuit must not
        # mint two CompiledCircuits (they would split the trace cache).
        with self._lock:
            compiled = self._compiled.get(key)
            if compiled is None:
                compiled = CompiledCircuit(circuit)
                self._compiled[key] = compiled
                self._adopted[id(compiled)] = (compiled, compiled, key)
        return compiled

    def compile_bench(self, text: str, name: str = "uploaded") -> CompiledCircuit:
        """Compile inline ``.bench`` netlist text (service uploads)."""
        from repro.circuit.bench_io import parse_bench

        return self.compile(parse_bench(text, name=name))

    def circuit_hash(self, circuit: str | Circuit | CompiledCircuit) -> str:
        """The content hash a circuit is cached under."""
        return self._key(self.compile(circuit))

    def _key(self, compiled: CompiledCircuit) -> str:
        """The content hash of a circuit :meth:`compile` returned."""
        with self._lock:
            return self._adopted[id(compiled)][2]

    def _adopt(self, compiled: CompiledCircuit) -> CompiledCircuit:
        with self._lock:
            adopted = self._adopted.get(id(compiled))
        if adopted is not None:
            return adopted[1]
        key = circuit_content_hash(compiled.circuit)
        with self._lock:
            entry = self._compiled.setdefault(key, compiled)
            self._adopted[id(compiled)] = (compiled, entry, key)
            self._adopted.setdefault(id(entry), (entry, entry, key))
            return entry

    # ------------------------------------------------------------------
    # Simulators and shared stores
    # ------------------------------------------------------------------
    def fault_simulator(
        self,
        circuit: str | Circuit | CompiledCircuit,
        batch_width: int | None = None,
        backend: str | None = None,
        workers: int | None = 1,
        parallel: str | None = None,
    ):
        """A parallel-fault simulator on the session's compiled circuit.

        :func:`repro.sim.faultsim.make_fault_simulator` resolves
        ``workers`` and ``parallel`` (``None`` and ``0`` mean one per
        core); an omitted ``workers`` is serial.
        """
        from repro.sim.faultsim import DEFAULT_BATCH_WIDTH, make_fault_simulator

        self._check_open()
        return make_fault_simulator(
            self.compile(circuit),
            batch_width=DEFAULT_BATCH_WIDTH if batch_width is None else batch_width,
            backend=backend,
            workers=workers,
            parallel=parallel,
        )

    def sequence_simulator(
        self,
        circuit: str | Circuit | CompiledCircuit,
        batch_width: int | None = None,
        backend: str | None = None,
        workers: int | None = 1,
        parallel: str | None = None,
    ):
        """A candidate-scan simulator, resolved as :meth:`fault_simulator`."""
        from repro.sim.seqsim import DEFAULT_SEQ_BATCH_WIDTH, make_sequence_simulator

        self._check_open()
        return make_sequence_simulator(
            self.compile(circuit),
            batch_width=(
                DEFAULT_SEQ_BATCH_WIDTH if batch_width is None else batch_width
            ),
            backend=backend,
            workers=workers,
            parallel=parallel,
        )

    def trace_cache(self, circuit: str | Circuit | CompiledCircuit) -> GoodTraceCache:
        """The cross-request good-machine trace cache for ``circuit``."""
        self._check_open()
        return get_trace_cache(self.compile(circuit))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("this Session is closed")

    def close(self) -> None:
        """Release everything this session owns (idempotent, never raises
        on double close — closing an already-closed cache is a silent
        no-op).
        """
        if self._closed:
            return
        self._closed = True
        self._schemes.clear()
        self._compiled.clear()
        self._by_name.clear()
        self._adopted.clear()
        if self._own_caches:
            from repro.sim.trace import close_trace_caches

            close_trace_caches()

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Running requests
    # ------------------------------------------------------------------
    def run(self, request: RunRequest) -> RunResult:
        """Execute ``request`` and return its serializable result."""
        return self.run_detailed(request).result

    def run_detailed(self, request: RunRequest) -> RunOutcome:
        """Execute ``request`` keeping the rich in-process objects too."""
        from repro.sim.backend import dispatch_counters

        self._check_open()
        compiled = self.request_circuit(request)
        before = dispatch_counters()
        if request.kind == "atpg":
            outcome = self._run_atpg(request, compiled)
        else:
            outcome = self._run_scheme(request, compiled)
        # Per-run backend-boundary dispatch deltas (FFI crossings, scan
        # calls/steps) for this process, chunk threads included.
        # Observability only: execution is excluded from the result
        # fingerprint.
        after = dispatch_counters()
        outcome.result.execution["dispatches"] = {
            kind: after[kind] - before.get(kind, 0)
            for kind in sorted(after)
            if after[kind] - before.get(kind, 0)
        }
        return outcome

    def request_circuit(self, request: RunRequest) -> CompiledCircuit:
        """The session's compiled circuit for ``request`` (catalog or bench)."""
        if request.bench is not None:
            return self.compile_bench(
                request.bench, name=request.circuit or "uploaded"
            )
        return self.compile(request.circuit)

    def _scheme(self, compiled: CompiledCircuit):
        """One LoadAndExpandScheme (and fault universe) per circuit hash."""
        from repro.core.scheme import LoadAndExpandScheme

        key = self._key(compiled)
        with self._lock:
            scheme = self._schemes.get(key)
            if scheme is None:
                scheme = LoadAndExpandScheme(compiled)
                self._schemes[key] = scheme
        return scheme

    def _execution_record(self, config, compiled: CompiledCircuit) -> dict:
        """What ran: the tier and count the factories resolved ``config``
        to, serial when no engine of the run releases the GIL."""
        tier, count = resolve_execution(
            config.parallel,
            config.workers,
            engines_release_gil(compiled, config.backend),
        )
        return {
            "backend": config.backend,
            "parallel_requested": config.parallel,
            "parallel": tier,
            "workers_requested": config.workers,
            "workers": count,
        }

    def _t0_for_scheme(self, request: RunRequest, compiled, selection):
        from repro.atpg.config import AtpgConfig
        from repro.atpg.engine import generate_t0
        from repro.circuits.catalog import paper_t0_s27

        if request.use_paper_t0 and compiled.circuit.name == "s27":
            return paper_t0_s27(), None
        atpg_config = request.atpg or AtpgConfig(
            backend=selection.backend,
            workers=selection.workers,
            parallel=selection.parallel,
        )
        atpg_result = generate_t0(compiled, atpg_config, session=self)
        return atpg_result.sequence, atpg_result

    def _run_scheme(self, request: RunRequest, compiled) -> RunOutcome:
        selection_config = request.selection or SelectionConfig()
        t0, atpg_result = self._t0_for_scheme(request, compiled, selection_config)
        scheme = self._scheme(compiled)
        run = scheme.run(t0, selection_config, session=self)
        res = run.result
        data = {
            "n": res.repetitions,
            "total_faults": res.total_faults,
            "detected_by_t0": res.detected_by_t0,
            "detected_by_scheme": res.detected_by_scheme,
            "t0_length": res.t0_length,
            "t0": list(t0.to_strings()),
            "num_sequences_before": res.num_sequences_before,
            "total_length_before": res.total_length_before,
            "max_length_before": res.max_length_before,
            "num_sequences_after": res.num_sequences_after,
            "total_length_after": res.total_length_after,
            "max_length_after": res.max_length_after,
            "applied_test_length": res.applied_test_length,
            "coverage_preserved": res.coverage_preserved,
            "sequences": [
                list(entry.sequence.to_strings())
                for entry in run.selection.sequences
            ],
        }
        result = RunResult(
            kind="scheme",
            circuit_name=res.circuit_name,
            circuit_hash=self._key(compiled),
            data=data,
            execution=self._execution_record(selection_config, compiled),
            timings={
                "t0_simulation_seconds": res.t0_simulation_seconds,
                "procedure1_seconds": res.procedure1_seconds,
                "compaction_seconds": res.compaction_seconds,
            },
            trace_stats=dict(run.trace_stats or {}),
            label=request.label,
        )
        return RunOutcome(
            result=result, scheme_run=run, atpg=atpg_result, t0=t0
        )

    def _run_atpg(self, request: RunRequest, compiled) -> RunOutcome:
        from repro.atpg.config import AtpgConfig
        from repro.atpg.engine import generate_t0

        config = request.atpg or AtpgConfig()
        watch = Stopwatch().start()
        atpg_result = generate_t0(compiled, config, session=self)
        seconds = watch.stop()
        data = {
            "total_faults": atpg_result.total_faults,
            "detected": atpg_result.detected,
            "detected_random": atpg_result.detected_random,
            "detected_greedy": atpg_result.detected_greedy,
            "detected_genetic": atpg_result.detected_genetic,
            "length": atpg_result.length,
            "sequence": list(atpg_result.sequence.to_strings()),
            "phase_log": list(atpg_result.phase_log),
        }
        result = RunResult(
            kind="atpg",
            circuit_name=atpg_result.circuit_name,
            circuit_hash=self._key(compiled),
            data=data,
            execution=self._execution_record(config, compiled),
            timings={"atpg_seconds": seconds},
            trace_stats=self.trace_cache(compiled).stats(),
            label=request.label,
        )
        return RunOutcome(result=result, atpg=atpg_result, t0=atpg_result.sequence)


@contextmanager
def use_session(session: Session | None = None):
    """The session library code runs under.

    Yields a caller-provided session as it is (the caller keeps
    ownership).  Without one, creates a private session that closes when
    the block ends, so the consumer writes no ``try/finally``.
    """
    if session is not None:
        yield session
        return
    private = Session()
    try:
        yield private
    finally:
        private.close()
