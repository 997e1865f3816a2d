"""Reusing a native scan context is safe.

A native ``repro_scan`` (kernel ABI 9) writes into a ``ReproScan``
context checked out of its backend's pool, so in a serial run one
context serves every scan in turn, whatever its width up to the widest
so far: fault-axis runs and session steps, first-hit and all-outcome
candidate scans, and the GA's divergence scans.  The kernel resets what
a call reads back (times, pending, the divergence rows, its dirty and
queued bits) and draws its divergence stamps from the context's epoch.
These tests interleave every kind of scan on one backend, at widths
straddling one and two words and up to 16 words, and hold each result
to the base per-step loop (the ``base_loop_backend`` fixture) and to a
fresh backend whose contexts are new.  Without a usable native kernel
they skip with its reason.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.netlist import Circuit
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.faults.sites import enumerate_faults
from repro.sim.backend import backend_unavailable_reason, get_backend
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64

#: Slot widths: around one and two 64-slot words, three words and 16.
SLOT_WIDTHS = (63, 64, 65, 129, 1024)

#: Two generated circuits: a small one and one with more flops than a
#: word of divergence counts can hide.
CIRCUITS = (
    SyntheticSpec("context-small", 3, 2, 3, 18, seed=5),
    SyntheticSpec("context-large", 5, 3, 6, 60, seed=9),
)

#: Fault-axis one-shot runs and session peek/commit chains; first-hit
#: window and omission scans, all-outcome scans and divergence scans.
OPERATIONS = (
    "run",
    "session",
    "window-first-hit",
    "omission-first-hit",
    "scan",
    "observe",
)


def _require_native() -> None:
    reason = backend_unavailable_reason("native")
    if reason is not None:
        pytest.skip(f"backend 'native' unavailable: {reason}")


def _native_class():
    from repro.sim.backend_native import NativeBackend

    return NativeBackend


def _circuit(spec: SyntheticSpec) -> Circuit:
    """``spec``'s circuit with a PO on every flop's D driver too."""
    circuit = generate_circuit(spec)
    drivers = dict.fromkeys(d for _, d in circuit.flops)
    return Circuit(
        circuit.name,
        list(circuit.inputs),
        list(circuit.outputs)
        + [driver for driver in drivers if driver not in circuit.outputs],
        list(circuit.flops),
        dict(circuit.gates),
    )


def _vectors(rng: SplitMix64, count: int, width: int) -> TestSequence:
    return TestSequence(
        [[rng.next_u64() & 1 for _ in range(width)] for _ in range(count)]
    )


def _perform(kind: str, backend, width: int, seed: int, circuit, compiled):
    """One operation of ``kind`` at ``width`` slots, its inputs drawn from
    ``seed`` (so every engine sees the same ones); returns its results."""
    rng = SplitMix64(seed)
    faults = enumerate_faults(circuit)
    num_inputs = circuit.num_inputs
    if kind == "run":
        # Repeat the faults so one batch fills all ``width`` slots.
        pool = (faults * (width // len(faults) + 1))[:width]
        simulator = FaultSimulator(compiled, batch_width=width, backend=backend)
        sequence = _vectors(rng, 1 + rng.next_u64() % 14, num_inputs)
        return simulator.run(sequence, pool).detection_time
    if kind == "session":
        simulator = FaultSimulator(compiled, batch_width=width, backend=backend)
        session = simulator.session(faults)
        outcomes = []
        for _ in range(1 + rng.next_u64() % 4):
            extension = _vectors(rng, 1 + rng.next_u64() % 5, num_inputs)
            if rng.next_u64() & 1:
                outcomes.append(session.commit(extension))
            else:
                outcomes.append(session.peek(extension))
        states = [batch.state for batch in session._batches]
        return outcomes, session._good_state, states
    fault = faults[rng.next_u64() % len(faults)]
    simulator = SequenceBatchSimulator(compiled, batch_width=width, backend=backend)
    if kind == "observe":
        candidates = [
            _vectors(rng, rng.next_u64() % 12, num_inputs) for _ in range(width)
        ]
        return simulator.observe(fault, candidates)
    length = 1 + rng.next_u64() % 8
    base = _vectors(rng, length, num_inputs)
    expansion = ExpansionConfig(repetitions=1 + rng.next_u64() % 2)
    if kind == "omission-first-hit":
        omitted = [rng.next_u64() % length for _ in range(width)]
        return simulator.first_detecting_omission(fault, base, omitted, expansion)
    spans = []
    for _ in range(width):
        start = rng.next_u64() % length
        spans.append((start, start + rng.next_u64() % (length - start)))
    if kind == "window-first-hit":
        return simulator.first_detecting_window(fault, base, spans, expansion)
    return simulator.detects_windows(fault, base, spans, expansion)


@pytest.mark.parametrize("spec", CIRCUITS, ids=lambda spec: spec.name)
def test_interleaved_scans_on_one_backend_match(spec, base_loop_backend):
    """A random interleaving of every scan kind and width on one backend
    equals the base loop and a fresh backend, operation by operation."""
    _require_native()
    native = _native_class()
    circuit = _circuit(spec)
    compiled = CompiledCircuit(circuit)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OPERATIONS),
                st.sampled_from(SLOT_WIDTHS),
                st.integers(min_value=0, max_value=2**32),
            ),
            min_size=3,
            max_size=8,
        )
    )
    def check(operations):
        shared = native(compiled)
        for kind, width, seed in operations:
            where = (kind, width, seed)
            got = _perform(kind, shared, width, seed, circuit, compiled)
            fresh = _perform(kind, native(compiled), width, seed, circuit, compiled)
            base_loop = base_loop_backend(compiled, "native")
            want = _perform(kind, base_loop, width, seed, circuit, compiled)
            assert got == want, where
            assert got == fresh, where
        # A serial run keeps at most one context (none if every scan
        # had zero steps or slots and so never reached the kernel).
        assert len(shared._contexts) <= 1

    check()


def _pending(backend, words: int) -> list[int]:
    """The pending words a ``words``-word call left in ``backend``'s idle
    context."""
    (context,) = backend._contexts
    array = ctypes.cast(context.call.pending, ctypes.POINTER(ctypes.c_uint64))
    return np.ctypeslib.as_array(array, (words,)).tolist()


def test_narrow_call_after_wide_call_on_one_context():
    """A 130-slot call on the context 192-slot calls used before, and a
    60-slot one after them, return exactly what a fresh context returns:
    detection times, pending words (nothing above their slots),
    divergence rows and final states."""
    _require_native()
    native = _native_class()
    circuit = _circuit(CIRCUITS[1])
    compiled = CompiledCircuit(circuit)
    faults = enumerate_faults(circuit)
    rng = SplitMix64(2024)
    shared = native(compiled)
    fresh = native(compiled)
    # Wide: 192 long candidates leave times, pending and divergence in
    # every slot of the context.
    wide = [_vectors(rng, 12, circuit.num_inputs) for _ in range(192)]
    narrow = [_vectors(rng, 1 + slot % 3, circuit.num_inputs) for slot in range(130)]
    sims = {
        name: SequenceBatchSimulator(compiled, batch_width=192, backend=backend)
        for name, backend in (("shared", shared), ("fresh", fresh))
    }
    # The first fault the wide candidates detect (the search itself
    # runs wide scans on the shared context).
    fault = next(
        fault
        for fault in faults
        if any(seen.detected for seen in sims["shared"].observe(fault, wide))
    )
    got = sims["shared"].observe(fault, narrow)
    assert got == sims["fresh"].observe(fault, narrow)
    assert _pending(shared, 3) == _pending(fresh, 3)
    assert _pending(shared, 3)[2] >> 2 == 0  # slots 130.. never pending

    # The fault axis: a session of 130 faults after a 192-fault run
    # (both 3 words), committed so the final states come back.
    sequence = _vectors(rng, 10, circuit.num_inputs)
    pool = (faults * 2)[:192]
    FaultSimulator(compiled, batch_width=192, backend=shared).run(sequence, pool)
    narrow_faults = faults[:130]
    sessions = {
        backend: FaultSimulator(compiled, batch_width=192, backend=backend).session(
            narrow_faults
        )
        for backend in (shared, fresh)
    }
    extension = _vectors(rng, 6, circuit.num_inputs)
    commits = [session.commit(extension) for session in sessions.values()]
    assert commits[0] == commits[1]
    states = [
        (session._good_state, [batch.state for batch in session._batches])
        for session in sessions.values()
    ]
    assert states[0] == states[1]
    assert _pending(shared, 3) == _pending(fresh, 3)

    # Narrower still: one word, laid out anew on the same buffers.
    short = narrow[:60]
    assert sims["shared"].observe(fault, short) == sims["fresh"].observe(fault, short)
    assert _pending(shared, 1) == _pending(fresh, 1)
    assert _pending(shared, 1)[0] >> 60 == 0


def test_one_context_serves_a_serial_run():
    """Serial scans reuse one context, replaced only by a wider one."""
    _require_native()
    circuit = _circuit(CIRCUITS[0])
    compiled = CompiledCircuit(circuit)
    backend = get_backend(compiled, "native")
    backend._contexts.clear()
    faults = enumerate_faults(circuit)
    pool = faults * 3
    rng = SplitMix64(3)
    for width, capacity in ((64, 1), (192, 3), (64, 3), (129, 3)):
        simulator = FaultSimulator(compiled, batch_width=width, backend=backend)
        for _ in range(3):
            simulator.run(_vectors(rng, 6, circuit.num_inputs), pool[:width])
        (context,) = backend._contexts
        assert context.capacity == capacity
