"""Explicit candidate lists on the descriptor path.

An :class:`~repro.sim.scanplan.ExplicitPlan` has no shared base: the
sequence simulator lays its sequences end to end as the base and
describes each candidate as the run of its own vectors (an empty kept
set, the identity expansion), the same descriptor form window and
omission plans scan through.  These tests hold ``scan``, ``first_hit``
(at the batch width and at a chunk below it) and ``observe`` of such
plans — mixed lengths, empty candidates, all-empty plans — to the scalar
:class:`~repro.sim.reference.ReferenceSimulator` and
:class:`~repro.atpg.observe.FaultObserver` on every engine: python,
native, the base per-step loop over native, and native on two chunk
threads with every dispatch fanned out.  ``observe`` of a list must also
equal ``observe_population`` of the same candidates as a bit matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.observe import FaultObserver
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.sequence import TestSequence
from repro.faults.sites import enumerate_faults
from repro.sim.backend import backend_unavailable_reason
from repro.sim.compiled import CompiledCircuit
from repro.sim.reference import ReferenceSimulator
from repro.sim.scanplan import ExplicitPlan
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64

#: Slot widths below, at and above one 64-slot word.
SLOT_WIDTHS = (16, 64, 65)

#: A first-hit chunk below every slot width.
NARROW_CHUNK = 5

ENGINES = ("python", "native", "base-loop", "native-threads2")


def _simulator(engine, compiled, width, base_loop_backend):
    if engine == "python":
        return SequenceBatchSimulator(compiled, batch_width=width, backend="python")
    reason = backend_unavailable_reason("native")
    if reason is not None:
        pytest.skip(f"backend 'native' unavailable: {reason}")
    if engine == "base-loop":
        backend = base_loop_backend(compiled, "native")
        return SequenceBatchSimulator(compiled, batch_width=width, backend=backend)
    threads = 2 if engine == "native-threads2" else 1
    return SequenceBatchSimulator(
        compiled, batch_width=width, backend="native", threads=threads
    )


def _candidates(rng: SplitMix64, count: int, longest: int, width: int) -> list:
    """``count`` candidates of 0..``longest`` random vectors; empty ones
    come with their circuit's width or with none (widths are advisory
    when there are no vectors)."""
    candidates = []
    for _ in range(count):
        length = rng.next_u64() % (longest + 1)
        if length == 0:
            candidates.append(
                TestSequence.empty(width) if rng.next_u64() & 1 else TestSequence([])
            )
            continue
        candidates.append(
            TestSequence(
                [[rng.next_u64() & 1 for _ in range(width)] for _ in range(length)]
            )
        )
    return candidates


@st.composite
def explicit_scans(draw):
    """A generated circuit and an explicit candidate list behind ``lead``
    empty candidates (which never detect, so winners move across words
    and batches); one example in a few is all empty."""
    seed = draw(st.integers(min_value=0, max_value=2**32))
    inputs = draw(st.integers(min_value=1, max_value=5))
    flops = draw(st.integers(min_value=0, max_value=4))
    gates = draw(st.integers(min_value=flops + 3, max_value=24))
    outputs = draw(st.integers(min_value=1, max_value=3))
    circuit = generate_circuit(
        SyntheticSpec("explicit", inputs, outputs, flops, gates, seed=seed)
    )
    rng = SplitMix64(draw(st.integers(min_value=0, max_value=2**32)))
    longest = draw(st.sampled_from((0, 2, 4, 6, 9, 12)))
    count = draw(st.integers(min_value=1, max_value=90))
    lead = draw(st.integers(min_value=0, max_value=80))
    candidates = [TestSequence([])] * lead + _candidates(rng, count, longest, inputs)
    fault_pick = draw(st.integers(min_value=0, max_value=10_000))
    return circuit, candidates, fault_pick


def _picked_fault(circuit, candidates, fault_pick, reference):
    """A fault one of the three longest candidates detects when there is
    one (so candidates detect often), else any."""
    faults = enumerate_faults(circuit)
    ordered = [faults[(fault_pick + k) % len(faults)] for k in range(len(faults))]
    probes = sorted(candidates, key=len)[-3:]
    for fault in ordered:
        if any(reference.detects(probe, fault) for probe in probes):
            return fault
    return ordered[0]


def _evaluated(position: int | None, total: int, chunk: int) -> int:
    """The serial chunked scan's evaluated-candidate count."""
    if position is None:
        return total
    return min(total, (position // chunk + 1) * chunk)


def _population(candidates: list, width: int):
    """The candidates as a ``(P, T, W)`` bit matrix and their lengths."""
    steps = max((len(candidate) for candidate in candidates), default=0)
    bits = np.zeros((len(candidates), steps, width), dtype=np.uint8)
    for slot, candidate in enumerate(candidates):
        if len(candidate):
            bits[slot, : len(candidate)] = candidate.vectors()
    lengths = np.array([len(candidate) for candidate in candidates], dtype=np.int64)
    return bits, lengths


def _check(simulator, circuit, candidates, fault, reference, observer):
    """scan, first_hit and observe of ``candidates`` against the oracles."""
    times = [reference.detection_time(candidate, fault) for candidate in candidates]
    plan = ExplicitPlan(candidates)
    assert simulator.scan(fault, plan) == [time is not None for time in times]
    first = next((i for i, time in enumerate(times) if time is not None), None)
    width = simulator.batch_width
    for chunk in (None, NARROW_CHUNK):
        want = (first, _evaluated(first, len(candidates), chunk or width))
        assert simulator.first_hit(fault, plan, chunk=chunk) == want, chunk
    observed = simulator.observe(fault, candidates)
    assert [observation.detected_at for observation in observed] == times
    assert observed == [observer.observe(fault, c) for c in candidates]
    bits, lengths = _population(candidates, circuit.num_inputs)
    population_times, divergence = simulator.observe_population(fault, bits, lengths)
    assert population_times == times
    assert divergence.maximum == [o.max_state_divergence for o in observed]
    assert divergence.final == [o.final_state_divergence for o in observed]
    assert divergence.area == [o.divergence_area for o in observed]


@pytest.mark.parametrize("engine", ENGINES)
def test_explicit_plans_match_the_scalar_oracles(engine, base_loop_backend, fanned_out):
    """Mixed-length explicit plans scan, first-hit and observe as the
    scalar simulators say, at every slot width."""

    @settings(max_examples=20, deadline=None)
    @given(explicit_scans())
    def check(data):
        circuit, candidates, fault_pick = data
        reference = ReferenceSimulator(circuit)
        compiled = CompiledCircuit(circuit)
        observer = FaultObserver(compiled)
        fault = _picked_fault(circuit, candidates, fault_pick, reference)
        for width in SLOT_WIDTHS:
            simulator = _simulator(engine, compiled, width, base_loop_backend)
            _check(simulator, circuit, candidates, fault, reference, observer)

    with fanned_out() as count:
        check()
        if engine == "native-threads2":
            assert count("chunk_fanouts") > 0
            assert count() > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_all_empty_plans_detect_nothing(engine, base_loop_backend, fanned_out):
    """Plans of empty candidates only (more than a batch of them, and
    none at all) scan to nothing on every engine."""
    circuit = generate_circuit(SyntheticSpec("empty", 3, 2, 2, 12, seed=5))
    compiled = CompiledCircuit(circuit)
    reference = ReferenceSimulator(circuit)
    observer = FaultObserver(compiled)
    with fanned_out():
        for width in SLOT_WIDTHS:
            simulator = _simulator(engine, compiled, width, base_loop_backend)
            for count in (0, 1, 3 * width + 1):
                candidates = [TestSequence.empty(3), TestSequence([])] * count
                for fault in enumerate_faults(circuit)[:3]:
                    _check(simulator, circuit, candidates, fault, reference, observer)
