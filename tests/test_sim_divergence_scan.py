"""Differential tests of the native kernel's in-scan good machine.

The native fault axis runs its good machine inside each scan (one
broadcast word, started from the dispatch's good state) instead of
reading a traced observation plan, and the paired candidate axis
evaluates each faulty machine only where it differs from its good
machine (the divergence walk of ``_native/repro_kernel.c``).  These
tests hold both to two independent references on generated circuits:
the scalar :class:`~repro.sim.reference.ReferenceSimulator` and the base
per-step loop (:meth:`~repro.sim.backend.SimBackend.run_scan` through the
``base_loop_backend`` fixture, which compares against the observation
plan).  The circuits carry a PO on some flops' D drivers, so every fault
universe holds PI-stem, flop-output-stem, gate-pin and flop-pin faults.
Without a usable native kernel the native cases skip with its reason.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.netlist import Circuit
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.ops import ExpansionConfig, expand
from repro.core.sequence import TestSequence
from repro.faults.model import BRANCH, STEM
from repro.faults.sites import enumerate_faults
from repro.sim.backend import backend_unavailable_reason, dispatch_counters
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.reference import ReferenceSimulator
from repro.sim.scanplan import WindowRampPlan
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64

#: Slot widths straddling one and two 64-slot words.
SLOT_WIDTHS = (63, 64, 65, 129)

#: Chunk threads of the native engines checked (serial and two).
THREADS = (1, 2)


def _require_native() -> None:
    reason = backend_unavailable_reason("native")
    if reason is not None:
        pytest.skip(f"backend 'native' unavailable: {reason}")


def _vectors(rng: SplitMix64, count: int, width: int) -> TestSequence:
    return TestSequence(
        [[rng.next_u64() & 1 for _ in range(width)] for _ in range(count)]
    )


def _fault_kinds(circuit: Circuit, faults) -> set[str]:
    """Which of the four site kinds ``faults`` cover."""
    flop_outputs = {q for q, _ in circuit.flops}
    kinds = set()
    for fault in faults:
        site = fault.site
        if site.kind == STEM and site.signal in circuit.inputs:
            kinds.add("pi-stem")
        elif site.kind == STEM and site.signal in flop_outputs:
            kinds.add("flop-output-stem")
        elif site.kind == BRANCH and site.load_kind == "gate":
            kinds.add("gate-pin")
        elif site.kind == BRANCH and site.load_kind == "dff":
            kinds.add("flop-pin")
    return kinds


@st.composite
def sequential_circuits(draw):
    """A generated circuit with flops, one more PO on each flop's D
    driver (so the branch into the flop is a fault site of its own) and
    a SplitMix64 stream for its stimuli."""
    seed = draw(st.integers(min_value=0, max_value=2**32))
    inputs = draw(st.integers(min_value=1, max_value=5))
    flops = draw(st.integers(min_value=1, max_value=4))
    gates = draw(st.integers(min_value=flops + 3, max_value=24))
    outputs = draw(st.integers(min_value=1, max_value=3))
    circuit = generate_circuit(
        SyntheticSpec("divergence", inputs, outputs, flops, gates, seed=seed)
    )
    drivers = dict.fromkeys(d for _, d in circuit.flops)
    circuit = Circuit(
        circuit.name,
        list(circuit.inputs),
        list(circuit.outputs)
        + [driver for driver in drivers if driver not in circuit.outputs],
        list(circuit.flops),
        dict(circuit.gates),
    )
    rng = SplitMix64(draw(st.integers(min_value=0, max_value=2**32)))
    return circuit, rng


def _reference_times(reference, sequence, faults) -> dict:
    times = {}
    for fault in faults:
        time = reference.detection_time(sequence, fault)
        if time is not None:
            times[fault] = time
    return times


def _fault_engines(compiled, base_loop_backend):
    """(name, simulator) per checked width: native serial and threaded,
    and the base loop over the observation plan."""
    for width in SLOT_WIDTHS:
        for threads in THREADS:
            yield f"native-t{threads}-w{width}", FaultSimulator(
                compiled, batch_width=width, backend="native", threads=threads
            )
        yield f"base-loop-w{width}", FaultSimulator(
            compiled,
            batch_width=width,
            backend=base_loop_backend(compiled, "native"),
        )


def test_fault_axis_runs_match_reference(base_loop_backend, fanned_out):
    """One-shot runs of every uncollapsed fault, from the all-X start."""
    _require_native()
    kinds = set()

    @settings(max_examples=25, deadline=None)
    @given(sequential_circuits(), st.integers(min_value=1, max_value=14))
    def check(data, length):
        circuit, rng = data
        sequence = _vectors(rng, length, circuit.num_inputs)
        faults = enumerate_faults(circuit)
        kinds.update(_fault_kinds(circuit, faults))
        expected = _reference_times(ReferenceSimulator(circuit), sequence, faults)
        compiled = CompiledCircuit(circuit)
        for name, simulator in _fault_engines(compiled, base_loop_backend):
            assert simulator.run(sequence, faults).detection_time == expected, name
            fault = faults[rng.next_u64() % len(faults)]
            assert simulator.detects(sequence, fault) == (fault in expected), name

    with fanned_out() as count:
        check()
        assert count("chunk_fanouts") > 0
    assert kinds == {"pi-stem", "flop-output-stem", "gate-pin", "flop-pin"}


def test_session_chains_match_reference(base_loop_backend, fanned_out):
    """Peeks and commits of random extensions, each scan starting from
    the session's evolving good and faulty states: peek counts and
    commit detections follow the reference on the committed prefix, and
    every engine ends in the base loop's good state."""
    _require_native()

    @settings(max_examples=15, deadline=None)
    @given(
        sequential_circuits(),
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=6)),
            min_size=1,
            max_size=6,
        ),
    )
    def check(data, operations):
        circuit, rng = data
        faults = enumerate_faults(circuit)
        reference = ReferenceSimulator(circuit)
        compiled = CompiledCircuit(circuit)
        engines = dict(_fault_engines(compiled, base_loop_backend))
        sessions = {name: sim.session(faults) for name, sim in engines.items()}
        committed = TestSequence.empty(circuit.num_inputs)
        detected: dict = {}
        for commit, length in operations:
            extension = _vectors(rng, length, circuit.num_inputs)
            whole = committed.extend(extension)
            fresh = {
                fault: time
                for fault, time in _reference_times(reference, whole, faults).items()
                if time >= len(committed)
            }
            for name, session in sessions.items():
                if commit:
                    assert session.commit(extension) == fresh, name
                else:
                    assert session.peek(extension) == len(fresh), name
            if commit:
                committed = whole
                detected.update(fresh)
        for name, session in sessions.items():
            assert session.detection_time == detected, name
            good_state = sessions[f"base-loop-w{SLOT_WIDTHS[0]}"]._good_state
            assert session._good_state == good_state, name

    with fanned_out():
        check()


def _late_detected_faults(circuit, reference, sequence, rng, count=3) -> list:
    """``count`` faults, preferring ones ``sequence`` detects after its
    first vector (through the flops), in a random order."""
    faults = enumerate_faults(circuit)
    start = rng.next_u64() % len(faults)
    ordered = faults[start:] + faults[:start]
    late = [
        fault
        for fault in ordered
        if (reference.detection_time(sequence, fault) or 0) > 0
    ]
    return (late + ordered)[:count]


def _candidate_engines(compiled, base_loop_backend, width):
    return {
        **{
            f"native-t{threads}": SequenceBatchSimulator(
                compiled, batch_width=width, backend="native", threads=threads
            )
            for threads in THREADS
        },
        "base-loop": SequenceBatchSimulator(
            compiled, batch_width=width, backend=base_loop_backend(compiled, "native")
        ),
    }


def test_candidate_scans_match_reference(base_loop_backend, fanned_out):
    """Paired first-hit and all-outcome scans of window candidates, and
    explicit candidates, for faults of every kind."""
    _require_native()

    @settings(max_examples=12, deadline=None)
    @given(
        sequential_circuits(),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=150),
    )
    def check(data, length, count):
        circuit, rng = data
        base = _vectors(rng, length, circuit.num_inputs)
        spans = []
        for _ in range(count):
            start = rng.next_u64() % length
            spans.append((start, start + rng.next_u64() % (length - start)))
        plan = WindowRampPlan(base, spans, ExpansionConfig(repetitions=2))
        candidates = [
            expand(TestSequence([base[j] for j in indices]), plan.expansion)
            if len(indices)
            else TestSequence.empty(base.width)
            for indices in plan.index_lists(len(base))
        ]
        explicit = [
            _vectors(rng, rng.next_u64() % 13, circuit.num_inputs)
            for _ in range(count)
        ]
        reference = ReferenceSimulator(circuit)
        whole = expand(base, plan.expansion)
        picked = _late_detected_faults(circuit, reference, whole, rng)
        compiled = CompiledCircuit(circuit)
        for fault in picked:
            windows = [
                reference.detects(candidate, fault) for candidate in candidates
            ]
            first = next((i for i, hit in enumerate(windows) if hit), None)
            wanted = [reference.detects(candidate, fault) for candidate in explicit]
            for width in SLOT_WIDTHS:
                for name, simulator in _candidate_engines(
                    compiled, base_loop_backend, width
                ).items():
                    where = (name, width, str(fault))
                    assert simulator.scan(fault, plan) == windows, where
                    assert simulator.first_hit(fault, plan)[0] == first, where
                    assert simulator.detects(fault, explicit) == wanted, where

    with fanned_out():
        check()


@settings(max_examples=25, deadline=None)
@given(sequential_circuits(), st.integers(min_value=1, max_value=150))
def test_divergence_outputs_match_base_loop(base_loop_backend, data, count):
    """The GA's per-candidate detection time and flop divergence (max,
    final, area) equal the base loop's, which recounts them from the
    latched states."""
    _require_native()
    circuit, rng = data
    candidates = [
        _vectors(rng, rng.next_u64() % 12, circuit.num_inputs) for _ in range(count)
    ]
    reference = ReferenceSimulator(circuit)
    probe = _vectors(rng, 12, circuit.num_inputs)
    compiled = CompiledCircuit(circuit)
    for fault in _late_detected_faults(circuit, reference, probe, rng):
        for width in SLOT_WIDTHS:
            native = SequenceBatchSimulator(
                compiled, batch_width=width, backend="native"
            )
            base = SequenceBatchSimulator(
                compiled,
                batch_width=width,
                backend=base_loop_backend(compiled, "native"),
            )
            got = native.observe(fault, candidates)
            assert got == base.observe(fault, candidates), (width, str(fault))


def test_native_fault_simulation_traces_nothing():
    """A native one-shot run and a session commit run their good
    machine inside the scan: no good-machine trace is dispatched."""
    _require_native()
    rng = SplitMix64(7)
    circuit = generate_circuit(SyntheticSpec("notrace", 4, 2, 3, 30, seed=11))
    sequence = _vectors(rng, 20, circuit.num_inputs)
    faults = enumerate_faults(circuit)
    simulator = FaultSimulator(circuit, batch_width=64, backend="native")
    before = dispatch_counters()
    result = simulator.run(sequence, faults)
    session = simulator.session(faults)
    session.commit(sequence.subsequence(0, 9))
    session.peek(sequence.subsequence(10, 19))
    after = dispatch_counters()

    def grew(kind: str) -> int:
        return after.get(kind, 0) - before.get(kind, 0)

    assert grew("trace_calls") == 0
    assert grew("scan_calls") > 0
    assert grew("fault_axis_good_ops") > 0
    assert result.detection_time == _reference_times(
        ReferenceSimulator(circuit), sequence, faults
    )
