"""Cross-backend parity: every engine must be bit-identical to python.

The ``python`` big-int kernel is the semantic reference (itself checked
against the scalar :mod:`repro.sim.reference` simulator elsewhere); every
other backend must produce *identical* detection times, traces and
outcomes on the same workloads — not merely equivalent coverage.

The suite parametrizes over the backend registry
(:func:`repro.sim.backend.registry_backends`), not a hardcoded list, so
a new engine is auto-covered the moment it registers; an engine that
cannot run on this machine (numpy missing, no C compiler,
``REPRO_NO_NATIVE=1``) skips with its unavailability reason instead of
failing.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.circuits.catalog import load_circuit, paper_t0_s27
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.errors import SimulationError
from repro.atpg.observe import FaultObserver
from repro.faults.model import BRANCH, STEM, Fault, FaultSite
from repro.faults.universe import FaultUniverse
from repro.logic.values import ONE, X, ZERO
from repro.sim.backend import (
    AUTO_NATIVE_GATE_THRESHOLD,
    AUTO_NATIVE_PAIRED_GATE_THRESHOLD,
    BroadcastStimulus,
    ScanDivergence,
    SimBackend,
    available_backends,
    backend_unavailable_reason,
    get_backend,
    registry_backends,
    resolve_backend_name,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator, make_fault_simulator
from repro.sim.logicsim import LogicSimulator
from repro.sim.native_build import NO_NATIVE_ENV
from repro.sim.scanplan import WindowRampPlan
from repro.sim.seqsim import SequenceBatchSimulator, make_sequence_simulator
from repro.util.rng import SplitMix64

pytest.importorskip("numpy")

#: Generated circuits beside the catalog ones: flop-heavy and PI-heavy.
GENERATED_SPECS = {
    "gen-flops": SyntheticSpec("gen-flops", 3, 2, 9, 70, seed=31),
    "gen-inputs": SyntheticSpec("gen-inputs", 7, 4, 4, 60, seed=32),
}

#: Circuits small enough to sweep their full fault universe here:
#: catalog ones and the generated ones.
PARITY_CIRCUITS = ["s27", "syn298", "syn344", "syn382", "syn641", *GENERATED_SPECS]

#: Engines checked against the big-int reference.
NON_REFERENCE_BACKENDS = [
    name for name in registry_backends() if name != "python"
]


def _require_backend(name: str) -> str:
    reason = backend_unavailable_reason(name)
    if reason is not None:
        pytest.skip(f"backend {name!r} unavailable: {reason}")
    return name


@pytest.fixture(params=NON_REFERENCE_BACKENDS)
def backend_name(request) -> str:
    """Each registered non-reference engine; unavailable ones skip."""
    return _require_backend(request.param)


@dataclass(frozen=True)
class EngineConfig:
    """One way of running a non-reference engine.

    ``base_loop`` drives the engine's batches through the base per-step
    loops (:meth:`SimBackend.run_scan`/:meth:`SimBackend.run_good_trace`)
    instead of its own scan and trace; ``threads`` is the simulator's
    chunk-thread count.
    """

    name: str
    base_loop: bool = False
    threads: int = 1

    def __str__(self) -> str:
        suffix = "-base" if self.base_loop else ""
        return self.name + suffix + (f"-t{self.threads}" if self.threads > 1 else "")


#: Scan configurations of each engine: its own scan serially and on
#: two chunk threads, and its per-step batch API under the base loop.
SCAN_ENGINES = [
    config
    for name in NON_REFERENCE_BACKENDS
    for config in (
        EngineConfig(name),
        EngineConfig(name, threads=2),
        EngineConfig(name, base_loop=True),
    )
]

#: Trace configurations: the engine's own trace and the base loop's.
TRACE_ENGINES = [
    config
    for name in NON_REFERENCE_BACKENDS
    for config in (EngineConfig(name), EngineConfig(name, base_loop=True))
]


def _engine_factory(config: EngineConfig, base_loop_backend):
    _require_backend(config.name)

    def backend(compiled: CompiledCircuit):
        if config.base_loop:
            return base_loop_backend(compiled, config.name)
        return config.name

    return backend


@pytest.fixture(params=SCAN_ENGINES, ids=str)
def scan_engine(request, base_loop_backend, fanned_out):
    """``make(compiled)`` -> simulator keywords for one scan config.

    Runs the test with the fan-out floor dropped, so the two-thread
    configs really scan their test-sized dispatches in chunks.
    """
    backend = _engine_factory(request.param, base_loop_backend)

    def make(compiled: CompiledCircuit) -> dict:
        return {"backend": backend(compiled), "threads": request.param.threads}

    with fanned_out():
        yield make


@pytest.fixture(params=TRACE_ENGINES, ids=str)
def trace_engine(request, base_loop_backend):
    """``make(compiled)`` -> the ``backend=`` of one trace config."""
    return _engine_factory(request.param, base_loop_backend)


def _load_compiled(name: str) -> CompiledCircuit:
    spec = GENERATED_SPECS.get(name) or next(
        (spec for spec in TRACE_SPECS if spec.name == name), None
    )
    if spec is not None:
        return CompiledCircuit(generate_circuit(spec))
    return CompiledCircuit(load_circuit(name))


def _random_sequence(circuit, length, seed=2024) -> TestSequence:
    rng = SplitMix64(seed)
    return TestSequence(
        [
            [rng.next_u64() & 1 for _ in range(circuit.num_inputs)]
            for _ in range(length)
        ]
    )


@pytest.fixture(scope="module", params=PARITY_CIRCUITS)
def compiled(request) -> CompiledCircuit:
    return _load_compiled(request.param)


class TestBackendRegistry:
    def test_registry_names(self):
        assert registry_backends() == ["python", "native"]

    def test_available_is_registry_subset_with_python(self):
        available = available_backends()
        assert "python" in available
        assert set(available) <= set(registry_backends())
        # Availability and the per-name diagnostic must agree.
        for name in registry_backends():
            assert (backend_unavailable_reason(name) is None) == (
                name in available
            )

    def test_unknown_backend_rejected(self, compiled):
        for name in ("cuda", "numpy"):
            with pytest.raises(SimulationError, match="unknown simulation backend"):
                get_backend(compiled, name)
        assert "unknown backend" in backend_unavailable_reason("cuda")

    def test_backend_instances_memoized_per_circuit(self, compiled, backend_name):
        assert get_backend(compiled, backend_name) is get_backend(
            compiled, backend_name
        )
        assert get_backend(compiled, "python") is not get_backend(
            compiled, backend_name
        )


class TestFaultSimParity:
    def test_full_universe_detection_times_identical(self, compiled, scan_engine):
        """The acceptance property: same udet for every fault."""
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())
        sequence = _random_sequence(compiled.circuit, 48)
        python = FaultSimulator(compiled, backend="python").run(sequence, faults)
        other = FaultSimulator(compiled, **scan_engine(compiled)).run(
            sequence, faults
        )
        assert python.detection_time == other.detection_time
        assert python.num_detected > 0  # the comparison is not vacuous

    def test_batch_wider_than_64_slots(self, compiled, scan_engine):
        """Batches crossing uint64 word boundaries (and not word-aligned)."""
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())
        sequence = _random_sequence(compiled.circuit, 32)
        reference = FaultSimulator(compiled, backend="python").run(
            sequence, faults
        )
        for width in (65, 96, 127, 200):
            result = FaultSimulator(
                compiled, batch_width=width, **scan_engine(compiled)
            ).run(sequence, faults)
            assert result.detection_time == reference.detection_time

    def test_pi_stem_fault(self, compiled, scan_engine):
        """Faults on PI stems exercise the source-patch path."""
        circuit = compiled.circuit
        sequence = _random_sequence(circuit, 24)
        engine = FaultSimulator(compiled, **scan_engine(compiled))
        for pi in circuit.inputs:
            for stuck in (0, 1):
                fault = Fault(site=FaultSite(signal=pi, kind=STEM), stuck_value=stuck)
                python = FaultSimulator(compiled, backend="python").detects(
                    sequence, fault
                )
                assert python == engine.detects(sequence, fault)

    def test_session_parity_from_all_x_state(self, compiled, scan_engine):
        """Incremental sessions advance both backends' machines from all-X
        through several extensions with identical global detection times."""
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())
        sessions = {
            "python": FaultSimulator(compiled, backend="python").session(faults),
            "engine": FaultSimulator(compiled, **scan_engine(compiled)).session(
                faults
            ),
        }
        for chunk_seed in (7, 8, 9):
            extension = _random_sequence(compiled.circuit, 12, seed=chunk_seed)
            detected = {
                name: session.commit(extension)
                for name, session in sessions.items()
            }
            assert detected["python"] == detected["engine"]
            assert (
                sessions["python"].peek(extension)
                == sessions["engine"].peek(extension)
            )
        assert (
            sessions["python"].detection_time
            == sessions["engine"].detection_time
        )
        assert set(sessions["python"].remaining_faults) == set(
            sessions["engine"].remaining_faults
        )


class TestLogicSimParity:
    def test_traces_identical(self, compiled, trace_engine):
        sequence = _random_sequence(compiled.circuit, 32)
        python = LogicSimulator(compiled, backend="python").run(
            sequence, record_signals=True
        )
        other = LogicSimulator(compiled, backend=trace_engine(compiled)).run(
            sequence, record_signals=True
        )
        assert python.po_values == other.po_values
        assert python.final_state == other.final_state
        assert python.signal_values == other.signal_values

    def test_explicit_initial_states(self, compiled, trace_engine):
        """All-X, all-binary and mixed initial states round-trip the same."""
        num_flops = len(compiled.flop_pairs)
        sequence = _random_sequence(compiled.circuit, 16)
        patterns = [
            [X] * num_flops,
            [ONE] * num_flops,
            [ZERO if i % 2 else ONE for i in range(num_flops)],
            [X if i % 3 == 0 else ZERO for i in range(num_flops)],
        ]
        engine = LogicSimulator(compiled, backend=trace_engine(compiled))
        for initial in patterns:
            python = LogicSimulator(compiled, backend="python").run(
                sequence, initial_state=initial
            )
            other = engine.run(sequence, initial_state=initial)
            assert python.po_values == other.po_values
            assert python.final_state == other.final_state


#: Generated circuits for the good-trace rows: flop-heavy, multi-output,
#: and one without flops (a purely combinational trace).
TRACE_SPECS = [
    SyntheticSpec("trace-a", 4, 3, 6, 40, seed=11),
    SyntheticSpec("trace-b", 7, 5, 12, 90, seed=12),
    SyntheticSpec("trace-c", 3, 2, 0, 20, seed=13),
]


def _good_trace(backend: SimBackend, sequence, initial_state=None):
    """``(po_values, final_state)`` of one run_good_trace call."""
    batch = backend.batch(backend.program(None), 1)
    if initial_state is not None:
        batch.set_state_scalar(initial_state)
    po_values, signals = backend.run_good_trace(
        batch, BroadcastStimulus(sequence, 1)
    )
    assert signals is None
    return po_values, batch.export_state_scalar()


def _reference_trace(compiled, sequence, initial_state=None):
    """The python backend's per-step reference loop."""
    return _good_trace(get_backend(compiled, "python"), sequence, initial_state)


class TestGoodTraceParity:
    """run_good_trace on each engine == the python reference loop."""

    @pytest.fixture(
        scope="class",
        params=PARITY_CIRCUITS + [spec.name for spec in TRACE_SPECS],
    )
    def trace_circuit(self, request) -> CompiledCircuit:
        return _load_compiled(request.param)

    def _assert_parity(self, compiled, trace_engine, sequence, initial=None):
        expected = _reference_trace(compiled, sequence, initial)
        actual = _good_trace(
            get_backend(compiled, trace_engine(compiled)), sequence, initial
        )
        assert actual == expected
        return expected

    def test_from_all_x(self, trace_circuit, trace_engine):
        po_values, _ = self._assert_parity(
            trace_circuit,
            trace_engine,
            _random_sequence(trace_circuit.circuit, 60, seed=31),
        )
        assert any(v is not X for row in po_values for v in row)

    def test_given_initial_state(self, trace_circuit, trace_engine):
        num_flops = len(trace_circuit.flop_pairs)
        initial = [(ONE, ZERO, X)[i % 3] for i in range(num_flops)]
        self._assert_parity(
            trace_circuit,
            trace_engine,
            _random_sequence(trace_circuit.circuit, 20, seed=32),
            initial,
        )

    def test_empty_sequence(self, trace_circuit, trace_engine):
        num_flops = len(trace_circuit.flop_pairs)
        initial = [ONE] * num_flops
        po_values, final = self._assert_parity(
            trace_circuit, trace_engine, TestSequence([]), initial
        )
        assert po_values == [] and final == initial

    def test_one_vector(self, trace_circuit, trace_engine):
        po_values, _ = self._assert_parity(
            trace_circuit,
            trace_engine,
            _random_sequence(trace_circuit.circuit, 1, seed=33),
        )
        assert len(po_values) == 1

    def test_width_mismatch_rejected(self, trace_circuit, trace_engine):
        wide = TestSequence([[0] * (trace_circuit.num_inputs + 1)])
        for backend in ("python", trace_engine(trace_circuit)):
            with pytest.raises(SimulationError, match="sequence width"):
                LogicSimulator(trace_circuit, backend=backend).run(wide)


class TestSeqSimParity:
    def test_mixed_length_candidates(self, compiled, scan_engine):
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())
        candidates = [
            _random_sequence(compiled.circuit, 3 + (j % 11), seed=100 + j)
            for j in range(70)  # > 64: crosses a word boundary in one batch
        ]
        python = SequenceBatchSimulator(compiled, batch_width=70, backend="python")
        engine = SequenceBatchSimulator(
            compiled, batch_width=70, **scan_engine(compiled)
        )
        for fault in faults[:: max(1, len(faults) // 6)]:
            assert python.detects(fault, candidates) == engine.detects(
                fault, candidates
            ), str(fault)


@pytest.fixture(scope="module")
def scan_workload():
    """One syn298 fault with a deep detection time, plus its T0."""
    circuit = load_circuit("syn298")
    compiled = CompiledCircuit(circuit)
    t0 = _random_sequence(circuit, 32, seed=2026)
    universe = FaultUniverse(circuit)
    detection = FaultSimulator(compiled).run(t0, list(universe.faults()))
    fault, udet = max(
        detection.detection_time.items(),
        key=lambda item: (item[1], str(item[0])),
    )
    undetected = [
        f for f in universe.faults() if f not in detection.detection_time
    ]
    return compiled, t0, fault, udet, undetected


class TestBaseLoopParity:
    """Every engine's own ``run_scan`` equals the base per-step loop.

    :meth:`SimBackend.run_scan` is the specification: detection times,
    candidate outcomes, first-hit winners *and* the evaluated-candidate
    statistic must be bit-identical between each engine's scan and the
    base loop run on the same engine.
    """

    @pytest.mark.parametrize("base_loop", [False, True], ids=["own", "base"])
    def test_fault_axis_detection_times(
        self, compiled, backend_name, base_loop, base_loop_backend
    ):
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())
        sequence = _random_sequence(compiled.circuit, 32, seed=900)
        reference = FaultSimulator(
            compiled, backend=base_loop_backend(compiled, "python")
        ).run(sequence, faults)
        backend = (
            base_loop_backend(compiled, backend_name) if base_loop else backend_name
        )
        result = FaultSimulator(compiled, backend=backend).run(sequence, faults)
        assert result.detection_time == reference.detection_time
        assert reference.num_detected > 0

    @pytest.mark.parametrize("backend", registry_backends())
    def test_candidate_outcomes_identical(self, compiled, backend, base_loop_backend):
        _require_backend(backend)
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())
        candidates = [
            _random_sequence(compiled.circuit, 3 + (j % 11), seed=800 + j)
            for j in range(70)  # > 64: crosses a word boundary in one batch
        ]
        own = SequenceBatchSimulator(compiled, batch_width=70, backend=backend)
        base = SequenceBatchSimulator(
            compiled,
            batch_width=70,
            backend=base_loop_backend(compiled, backend),
        )
        for fault in faults[:: max(1, len(faults) // 5)]:
            assert own.detects(fault, candidates) == base.detects(
                fault, candidates
            ), str(fault)

    @pytest.mark.parametrize("backend", registry_backends())
    def test_first_hit_winner_and_evaluated_count(
        self, scan_workload, backend, base_loop_backend
    ):
        """Early exit must stop at the same chunk on either scan."""
        _require_backend(backend)
        compiled, t0, fault, udet, _ = scan_workload
        spans = [(u, udet) for u in range(udet, -1, -1)]
        plan = WindowRampPlan(t0, spans, ExpansionConfig(repetitions=2))
        outcomes = [
            SequenceBatchSimulator(
                compiled, batch_width=16, backend=engine
            ).first_hit(fault, plan, chunk=8)
            for engine in (backend, base_loop_backend(compiled, backend))
        ]
        assert outcomes[0] == outcomes[1]
        position, evaluated = outcomes[0]
        assert position is not None
        # The documented serial-chunked-scan statistic: whole chunks up
        # to and including the winning one.
        assert evaluated == min(len(spans), ((position // 8) + 1) * 8)

    @pytest.mark.parametrize("backend", registry_backends())
    def test_no_winner_evaluates_everything(
        self, scan_workload, backend, base_loop_backend
    ):
        _require_backend(backend)
        compiled, t0, _fault, udet, undetected = scan_workload
        assert undetected, "syn298 stimulus should leave some faults undetected"
        spans = [(u, udet) for u in range(udet, -1, -1)]
        # A fault t0 misses may still be caught by an *expanded* window,
        # so scan for one whose whole window search comes up empty.
        identity = ExpansionConfig(
            repetitions=1, use_complement=False, use_shift=False, use_reverse=False
        )
        plan = WindowRampPlan(t0, spans, identity)
        serial = SequenceBatchSimulator(compiled, batch_width=16)
        ghost = next(
            (
                f
                for f in undetected
                if serial.first_hit(f, plan, chunk=8) == (None, len(spans))
            ),
            None,
        )
        assert ghost is not None, "expected an expanded-window-proof fault"
        for engine in (backend, base_loop_backend(compiled, backend)):
            simulator = SequenceBatchSimulator(
                compiled, batch_width=16, backend=engine
            )
            assert simulator.first_hit(ghost, plan, chunk=8) == (
                None,
                len(spans),
            ), engine


#: Constructors that once took ``scan_mode=`` (all four) or
#: ``pipeline=`` (the candidate axis's two).  Each engine now has one
#: scan path, so both keywords must be rejected rather than ignored.
SCAN_MODE_SIGNATURES = [
    FaultSimulator,
    make_fault_simulator,
    SequenceBatchSimulator,
    make_sequence_simulator,
]
PIPELINE_SIGNATURES = [
    SequenceBatchSimulator,
    make_sequence_simulator,
]


class TestRetiredScanOptions:
    @pytest.mark.parametrize(
        "factory", SCAN_MODE_SIGNATURES, ids=lambda factory: factory.__name__
    )
    def test_scan_mode_keyword_rejected(self, factory):
        compiled = CompiledCircuit(load_circuit("s27"))
        with pytest.raises(TypeError, match="scan_mode"):
            factory(compiled, scan_mode="stepped")

    @pytest.mark.parametrize(
        "factory", PIPELINE_SIGNATURES, ids=lambda factory: factory.__name__
    )
    def test_pipeline_keyword_rejected(self, factory):
        compiled = CompiledCircuit(load_circuit("s27"))
        with pytest.raises(TypeError, match="pipeline"):
            factory(compiled, pipeline="legacy")


def _detect_step_trace(compiled, backend, fault, sequences, batch_size):
    """Replay the paired-batch loop, returning every detect_step mask.

    Exercises the backend's fused ``detect_step`` exactly as the packed
    seqsim pipeline drives it (identical per-slot inputs in both
    machines), without seqsim's own batching/early-exit policy on top.
    """
    width = compiled.num_inputs
    good = backend.batch(backend.program(None), batch_size)
    faulty = backend.batch(backend.program((fault,) * batch_size), batch_size)
    lengths = [len(sequence) for sequence in sequences]
    full = (1 << batch_size) - 1
    masks = []
    for t in range(max(lengths)):
        ones = []
        zeros = []
        for position in range(width):
            word = 0
            for slot, sequence in enumerate(sequences):
                if t < lengths[slot] and sequence[t][position]:
                    word |= 1 << slot
            ones.append(word)
            zeros.append(full & ~word)
        alive = 0
        for slot, length in enumerate(lengths):
            if t < length:
                alive |= 1 << slot
        good.load_inputs_packed(ones, zeros)
        faulty.load_inputs_packed(ones, zeros)
        good.load_state()
        faulty.load_state()
        faulty.apply_source_patches()
        good.eval()
        faulty.eval()
        masks.append(backend.detect_step(good, faulty, alive))
        good.capture_state()
        faulty.capture_state()
    return masks


class TestDetectStep:
    """Cross-backend parity of the fused paired-batch detection pass."""

    #: Batch sizes straddling the 64-slot word boundary: 3 fits one
    #: word, 70 spans two.
    BATCH_SIZES = (3, 70)

    def test_masks_identical_across_backends(self, compiled, backend_name):
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())
        for batch_size in self.BATCH_SIZES:
            candidates = [
                _random_sequence(compiled.circuit, 2 + (j % 7), seed=300 + j)
                for j in range(batch_size)
            ]
            for fault in faults[:: max(1, len(faults) // 4)]:
                python = _detect_step_trace(
                    compiled,
                    get_backend(compiled, "python"),
                    fault,
                    candidates,
                    batch_size,
                )
                other = _detect_step_trace(
                    compiled,
                    get_backend(compiled, backend_name),
                    fault,
                    candidates,
                    batch_size,
                )
                assert python == other, str(fault)

    def test_fused_pass_matches_reference_observe_po_loop(
        self, compiled, backend_name
    ):
        """Each backend's override equals the SimBackend default."""
        universe = FaultUniverse(compiled.circuit)
        fault = list(universe.faults())[1]
        for name in ("python", backend_name):
            backend = get_backend(compiled, name)
            for batch_size in self.BATCH_SIZES:
                candidates = [
                    _random_sequence(compiled.circuit, 5, seed=400 + j)
                    for j in range(batch_size)
                ]
                fused = _detect_step_trace(
                    compiled, backend, fault, candidates, batch_size
                )
                override = type(backend).detect_step
                try:
                    # Force the inherited reference implementation.
                    type(backend).detect_step = SimBackend.detect_step
                    reference = _detect_step_trace(
                        compiled, backend, fault, candidates, batch_size
                    )
                finally:
                    type(backend).detect_step = override
                assert fused == reference, name

    def test_po_branch_fault_patches_applied(self, compiled, backend_name):
        """Faults on PO branch pins exercise detect_step's patch path."""
        universe = FaultUniverse(compiled.circuit)
        po_faults = [
            fault
            for fault in universe.faults()
            if fault.site.kind != STEM and fault.site.load_kind == "po"
        ]
        candidates = [
            _random_sequence(compiled.circuit, 6, seed=500 + j) for j in range(9)
        ]
        for fault in po_faults[:4]:
            python = _detect_step_trace(
                compiled, get_backend(compiled, "python"), fault, candidates, 9
            )
            other = _detect_step_trace(
                compiled, get_backend(compiled, backend_name), fault, candidates, 9
            )
            assert python == other, str(fault)
            assert any(python), f"{fault} never detected — vacuous comparison"


class TestAutoBackend:
    """backend="auto" resolves adaptively and never changes results."""

    def test_resolution_prefers_native_when_available(self):
        _require_backend("native")
        small = CompiledCircuit(load_circuit("s27"))
        large = CompiledCircuit(load_circuit("syn1423"))
        # s27 sits below every crossover; the catalog circuits are all
        # above the native thresholds on both axes.
        assert resolve_backend_name(small, "auto") == "python"
        assert resolve_backend_name(large, "auto") == "native"
        assert resolve_backend_name(large, "auto", paired=True) == "native"

    def test_resolution_without_native_is_python(self, monkeypatch):
        """With the native engine hidden, auto is python at every size."""
        from types import SimpleNamespace

        monkeypatch.setenv(NO_NATIVE_ENV, "1")
        small = CompiledCircuit(load_circuit("s27"))
        huge = CompiledCircuit(load_circuit("syn5378"))  # 2779 gates
        giant = SimpleNamespace(ops=[None] * 16_000)
        for compiled in (small, huge, giant):
            assert resolve_backend_name(compiled, "auto") == "python"
            assert resolve_backend_name(compiled, "auto", paired=True) == "python"
        assert resolve_backend_name(small, "python") == "python"
        assert resolve_backend_name(small, None) == "python"

    def test_native_crossover_on_each_axis(self):
        """Auto switches to native exactly at each axis's gate threshold."""
        from types import SimpleNamespace

        _require_backend("native")
        for paired, threshold in (
            (False, AUTO_NATIVE_GATE_THRESHOLD),
            (True, AUTO_NATIVE_PAIRED_GATE_THRESHOLD),
        ):
            below = SimpleNamespace(ops=[None] * (threshold - 1))
            at = SimpleNamespace(ops=[None] * threshold)
            assert resolve_backend_name(below, "auto", paired=paired) == "python"
            assert resolve_backend_name(at, "auto", paired=paired) == "native"

    def test_auto_clamps_python_batch_widths_to_sweet_spot(self, monkeypatch):
        """Auto on the big-int kernel narrows native-tuned wide batches."""
        monkeypatch.setenv(NO_NATIVE_ENV, "1")
        small = CompiledCircuit(load_circuit("syn298"))
        fault_sim = FaultSimulator(small, batch_width=1024, backend="auto")
        assert fault_sim.backend.name == "python"
        assert fault_sim.batch_width == 192
        seq_sim = SequenceBatchSimulator(small, batch_width=256, backend="auto")
        assert seq_sim.backend.name == "python"
        assert seq_sim.batch_width == 96
        # Narrower-than-sweet-spot requests pass through untouched.
        assert FaultSimulator(small, batch_width=8, backend="auto").batch_width == 8
        # Explicit backends never clamp.
        explicit = FaultSimulator(small, batch_width=1024, backend="python")
        assert explicit.batch_width == 1024

    def test_auto_keeps_wide_batches_on_native(self):
        """The word-based native engine never triggers the python clamp."""
        _require_backend("native")
        small = CompiledCircuit(load_circuit("syn298"))
        fault_sim = FaultSimulator(small, batch_width=1024, backend="auto")
        assert fault_sim.backend.name == "native"
        assert fault_sim.batch_width == 1024

    def test_scalar_logic_simulation_resolves_native_or_big_int(
        self, monkeypatch
    ):
        """Auto traces on native at the fault axis's native crossover and
        on the big-int kernel otherwise."""
        small = CompiledCircuit(load_circuit("s27"))
        huge = CompiledCircuit(load_circuit("syn5378"))  # 2779 gates
        native = backend_unavailable_reason("native") is None
        assert LogicSimulator(small, backend="auto").backend.name == "python"
        assert LogicSimulator(huge, backend="auto").backend.name == (
            "native" if native else "python"
        )
        monkeypatch.setenv(NO_NATIVE_ENV, "1")
        assert resolve_backend_name(huge, "auto") == "python"
        assert LogicSimulator(huge, backend="auto").backend.name == "python"

    def test_get_backend_resolves_auto_to_registry_instance(self, compiled):
        resolved = get_backend(compiled, "auto")
        assert resolved is get_backend(compiled, resolved.name)

    def test_auto_bit_identical_to_all_backends(self, compiled):
        """The adaptive property: auto == every engine, bit for bit."""
        universe = FaultUniverse(compiled.circuit)
        faults = list(universe.faults())
        sequence = _random_sequence(compiled.circuit, 32, seed=600)
        names = available_backends() + ["auto"]
        runs = {
            name: FaultSimulator(compiled, backend=name).run(sequence, faults)
            for name in names
        }
        for name in names:
            assert runs[name].detection_time == runs["python"].detection_time

        candidates = [
            _random_sequence(compiled.circuit, 3 + (j % 9), seed=700 + j)
            for j in range(40)
        ]
        for fault in faults[:: max(1, len(faults) // 3)]:
            outcomes = {
                name: SequenceBatchSimulator(
                    compiled, batch_width=40, backend=name
                ).detects(fault, candidates)
                for name in names
            }
            for name in names:
                assert outcomes[name] == outcomes["python"], (name, str(fault))


class TestPaperWalkthrough:
    def test_s27_profile_is_backend_independent(self, scan_engine):
        """The paper's own worked example, replayed on each engine."""
        compiled = CompiledCircuit(load_circuit("s27"))
        universe = FaultUniverse(compiled.circuit)
        result = FaultSimulator(compiled, **scan_engine(compiled)).run(
            paper_t0_s27(), list(universe.faults())
        )
        assert result.num_detected == 32
        from collections import Counter

        assert dict(Counter(result.detection_time.values())) == {
            1: 9, 2: 4, 4: 1, 5: 11, 6: 2, 8: 3, 9: 2,
        }


class TestBatchWidthValidation:
    @pytest.mark.parametrize("backend", registry_backends())
    def test_invalid_width_rejected(self, compiled, backend):
        _require_backend(backend)
        with pytest.raises(SimulationError, match="batch width"):
            FaultSimulator(compiled, batch_width=0, backend=backend)
        with pytest.raises(SimulationError, match="batch width"):
            SequenceBatchSimulator(compiled, batch_width=-3, backend=backend)

    def test_word_width_metadata(self, compiled, backend_name):
        assert get_backend(compiled, "python").word_width is None
        assert get_backend(compiled, backend_name).word_width == 64


class TestProgramCache:
    def test_programs_cached_per_fault_batch(self, compiled, backend_name):
        universe = FaultUniverse(compiled.circuit)
        faults = tuple(universe.faults())[:8]
        for name in ("python", backend_name):
            backend = get_backend(compiled, name)
            assert backend.program(faults) is backend.program(faults)
            assert backend.program(None) is backend.program(None)
            assert backend.program(faults) is not backend.program(faults[:4])


# ----------------------------------------------------------------------
# Candidate-axis observation: detection times + flop divergence
# ----------------------------------------------------------------------
#: (backend, base loop, chunk threads) engines checked against the
#: scalar FaultObserver oracle; unavailable backends skip.  The python
#: engine and the base-loop native instance both run the per-step
#: :meth:`SimBackend.run_scan`; ``observe`` stays serial on a threaded
#: simulator.
OBSERVE_ENGINES = [
    ("python", False, 1),
    ("native", False, 1),
    ("native", False, 2),
    ("native", True, 1),
]

#: Candidate lengths cycled through a ragged set: empty and one-vector
#: candidates sit beside ones long enough to detect.
OBSERVE_LENGTHS = (0, 1, 7, 2, 19, 0, 12, 1, 30, 5)


def _pin_faults(circuit) -> list[Fault]:
    """Stuck-at faults on flop D pins and PO pins, two sites of each."""
    sites = [
        FaultSite(d, BRANCH, sink=q, load_kind="dff") for q, d in circuit.flops[:2]
    ] + [
        FaultSite(po, BRANCH, sink=po, load_kind="po") for po in circuit.outputs[:2]
    ]
    return [Fault(site, value) for site in sites for value in (0, 1)]


@pytest.fixture(scope="module", params=["s27", "syn298", "syn382", *GENERATED_SPECS])
def observe_case(request):
    """A circuit, 129 ragged candidates and the oracle's observations."""
    compiled = _load_compiled(request.param)
    circuit = compiled.circuit
    universe = list(FaultUniverse(circuit).faults())
    faults = _pin_faults(circuit) + universe[:: max(1, len(universe) // 4)][:4]
    candidates = [
        _random_sequence(
            circuit, OBSERVE_LENGTHS[j % len(OBSERVE_LENGTHS)], seed=700 + j
        )
        if OBSERVE_LENGTHS[j % len(OBSERVE_LENGTHS)]
        else TestSequence.empty(circuit.num_inputs)
        for j in range(129)
    ]
    oracle = FaultObserver(compiled)
    expected = {
        fault: [oracle.observe(fault, candidate) for candidate in candidates]
        for fault in faults
    }
    return compiled, candidates, expected


def _assert_matches_oracle(got, want, fault) -> None:
    """Detection times for every slot; divergence for undetected slots."""
    assert [o.detected_at for o in got] == [o.detected_at for o in want], str(fault)
    for slot, (g, w) in enumerate(zip(got, want)):
        if not w.detected:
            assert g == w, (str(fault), slot)


class TestObserveParity:
    """``SequenceBatchSimulator.observe`` vs the scalar ``FaultObserver``."""

    @pytest.mark.parametrize("slots", [63, 64, 65, 129])
    @pytest.mark.parametrize(
        "engine",
        OBSERVE_ENGINES,
        ids=lambda e: f"{e[0]}{'-base' if e[1] else ''}-t{e[2]}",
    )
    def test_matches_scalar_oracle(
        self, observe_case, engine, slots, base_loop_backend
    ):
        name, base_loop, threads = engine
        _require_backend(name)
        compiled, candidates, expected = observe_case
        simulator = SequenceBatchSimulator(
            compiled,
            batch_width=slots,
            backend=base_loop_backend(compiled, name) if base_loop else name,
            threads=threads,
        )
        for fault, want in expected.items():
            _assert_matches_oracle(simulator.observe(fault, candidates), want, fault)

    def test_oracle_workload_is_not_vacuous(self, observe_case):
        _, candidates, expected = observe_case
        observations = [o for want in expected.values() for o in want]
        assert any(o.detected for o in observations)
        assert any(not o.detected and o.max_state_divergence for o in observations)
        assert {0, 1} <= {len(candidate) for candidate in candidates}

    def test_empty_candidate_list(self, observe_case):
        compiled, _, expected = observe_case
        fault = next(iter(expected))
        assert SequenceBatchSimulator(compiled).observe(fault, []) == []

    def test_divergence_needs_the_paired_axis(self, observe_case):
        compiled, _, _ = observe_case
        backend = get_backend(compiled, "python")
        batch = backend.batch(backend.program(None), 1)
        stimulus = BroadcastStimulus(TestSequence.empty(compiled.num_inputs), 1)
        with pytest.raises(SimulationError, match="paired"):
            backend.run_scan(None, batch, stimulus, [], 1, divergence=ScanDivergence(1))
