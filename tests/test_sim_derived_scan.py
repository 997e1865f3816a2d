"""Differential tests of native derived-candidate scans.

The native kernel expands window and omission candidates from the base
bits itself (a plan's :meth:`~repro.sim.scanplan.ScanPlan.descriptor`)
and, in first-hit mode, stops simulating the slots above the lowest
detecting one.  These tests hold that fast path to two independent
references on generated circuits: the base per-step loop
(:meth:`~repro.sim.backend.SimBackend.run_scan` through the
``base_loop_backend`` fixture, which steps the reference packer), and
the scalar :class:`~repro.sim.reference.ReferenceSimulator` over
candidates materialized with :func:`~repro.core.ops.expand`.  Without a
usable native kernel the native cases skip with its reason.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.ops import IDENTITY_EXPANSION, ExpansionConfig, expand
from repro.core.sequence import TestSequence
from repro.faults.sites import enumerate_faults
from repro.sim.backend import (
    backend_unavailable_reason,
    dispatch_counters,
    get_backend,
    reset_dispatch_counters,
)
from repro.sim.compiled import CompiledCircuit
from repro.sim.reference import ReferenceSimulator
from repro.sim.scanplan import OmissionPlan, WindowRampPlan
from repro.sim.seqsim import SequenceBatchSimulator, _DerivedStimulus
from repro.util.rng import SplitMix64

#: Slot widths straddling one and two 64-slot words.
SLOT_WIDTHS = (63, 64, 65, 129)


def _require_native() -> None:
    reason = backend_unavailable_reason("native")
    if reason is not None:
        pytest.skip(f"backend 'native' unavailable: {reason}")


def _bits(rng: SplitMix64, length: int, width: int) -> TestSequence:
    return TestSequence(
        [[rng.next_u64() & 1 for _ in range(width)] for _ in range(length)]
    )


@st.composite
def derived_scans(draw):
    """A generated circuit, a base, an expansion and a derived plan.

    The plan is a window list (with or without a kept set) or an
    omission list of up to 150 candidates, so batches of every slot
    width in :data:`SLOT_WIDTHS` hold one to three words.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32))
    inputs = draw(st.integers(min_value=1, max_value=5))
    flops = draw(st.integers(min_value=0, max_value=4))
    gates = draw(st.integers(min_value=flops + 3, max_value=24))
    outputs = draw(st.integers(min_value=1, max_value=3))
    circuit = generate_circuit(
        SyntheticSpec("derived", inputs, outputs, flops, gates, seed=seed)
    )
    rng = SplitMix64(draw(st.integers(min_value=0, max_value=2**32)))
    length = draw(st.integers(min_value=1, max_value=8))
    base = _bits(rng, length, inputs)
    expansion = ExpansionConfig(
        repetitions=draw(st.integers(min_value=1, max_value=2)),
        use_complement=draw(st.booleans()),
        use_shift=draw(st.booleans()),
        use_reverse=draw(st.booleans()),
        hold_cycles=draw(st.integers(min_value=1, max_value=2)),
    )
    count = draw(st.integers(min_value=1, max_value=150))
    kind = draw(st.sampled_from(("windows", "kept", "omissions")))
    if kind == "omissions":
        plan = OmissionPlan(
            base, [rng.next_u64() % length for _ in range(count)], expansion
        )
    else:
        spans = []
        for _ in range(count):
            start = rng.next_u64() % length
            spans.append((start, start + rng.next_u64() % (length - start)))
        kept = (
            [j for j in range(length) if rng.next_u64() & 1]
            if kind == "kept"
            else []
        )
        plan = WindowRampPlan(base, spans, expansion, kept=kept)
    fault_pick = draw(st.integers(min_value=0, max_value=10_000))
    lead = draw(st.integers(min_value=0, max_value=250))
    return circuit, plan, fault_pick, lead


def _materialized(plan) -> list[TestSequence]:
    """Every candidate as ``expand(base[indices])``, built vector by vector."""
    base = plan.base
    candidates = []
    for indices in plan.index_lists(len(base)):
        if not len(indices):
            candidates.append(TestSequence.empty(base.width))
            continue
        loaded = TestSequence([base[j] for j in indices])
        candidates.append(expand(loaded, plan.expansion))
    return candidates


def _picked_faults(circuit, plan, fault_pick, reference) -> list:
    """Two faults, preferring ones the whole expanded base detects (so
    candidates detect often)."""
    faults = enumerate_faults(circuit)
    ordered = [faults[(fault_pick + k) % len(faults)] for k in range(len(faults))]
    whole = expand(plan.base, plan.expansion)
    detected = [fault for fault in ordered if reference.detects(whole, fault)]
    return (detected + ordered)[:2]


def _deep(plan, candidates, fault, reference, lead):
    """``plan`` behind ``lead`` copies of one of its non-detecting
    candidates, and the scalar oracle's first detecting position in it.

    The leading duds push winners across word and batch boundaries.
    """
    first = dud = None
    for position, candidate in enumerate(candidates):
        if reference.detects(candidate, fault):
            first = position if first is None else first
        elif dud is None:
            dud = position
        if first is not None and dud is not None:
            break
    if dud is None:
        return plan, first
    items = [plan.items[dud]] * lead + list(plan.items)
    if isinstance(plan, OmissionPlan):
        deep = OmissionPlan(plan.base, items, plan.expansion)
    else:
        deep = WindowRampPlan(plan.base, items, plan.expansion, kept=plan.kept)
    return deep, None if first is None else lead + first


def _evaluated(position: int | None, total: int, chunk: int) -> int:
    """The serial chunked scan's evaluated-candidate count."""
    if position is None:
        return total
    return min(total, (position // chunk + 1) * chunk)


@settings(max_examples=20, deadline=None)
@given(derived_scans())
def test_native_first_hit_matches_base_loop_and_scalar_oracle(
    base_loop_backend, data
):
    """The first detecting candidate and the evaluated count agree with
    the base loop and the scalar reference, at every slot width, serial
    and on two kernel thread lanes; all-outcome scans agree too."""
    _require_native()
    circuit, plan, fault_pick, lead = data
    reference = ReferenceSimulator(circuit)
    candidates = _materialized(plan)
    compiled = CompiledCircuit(circuit)
    for fault in _picked_faults(circuit, plan, fault_pick, reference):
        deep, expected = _deep(plan, candidates, fault, reference, lead)
        for width in SLOT_WIDTHS:
            engines = {
                "native": SequenceBatchSimulator(
                    compiled, batch_width=width, backend="native"
                ),
                "native-threads": SequenceBatchSimulator(
                    compiled, batch_width=width, backend="native", threads=2
                ),
                "base-loop": SequenceBatchSimulator(
                    compiled,
                    batch_width=width,
                    backend=base_loop_backend(compiled, "native"),
                ),
            }
            want = (expected, _evaluated(expected, len(deep), width))
            outcomes = {}
            for name, simulator in engines.items():
                got = simulator.first_hit(fault, deep)
                assert got == want, (name, width, str(fault))
                outcomes[name] = simulator.scan(fault, deep)
            assert outcomes["native"] == outcomes["base-loop"], (width, str(fault))
            assert outcomes["native-threads"] == outcomes["base-loop"]
            first = next((i for i, hit in enumerate(outcomes["native"]) if hit), None)
            assert first == expected


@settings(max_examples=40, deadline=None)
@given(derived_scans())
def test_descriptors_reproduce_index_lists(data):
    """A plan's descriptor rows expand to exactly its index lists."""
    _, plan, _, _ = data
    base_bits = np.asarray(plan.base.vectors(), dtype=np.uint8)
    kept, rows = plan.descriptor(len(plan.base))
    assert kept.dtype == np.int32 and rows.dtype == np.int32
    assert rows.shape == (len(plan), 4)
    assert np.all(kept[:-1] < kept[1:])
    stimulus = _DerivedStimulus(
        base_bits, kept, rows, plan.expansion, plan.base.width, 256
    )
    derived = [list(indices) for indices in stimulus.index_lists()]
    assert derived == [list(indices) for indices in plan.index_lists(len(plan.base))]
    assert stimulus.num_steps == max(plan.costs(), default=0)


def _run(simulator, fault, plan, first_hit):
    """One batch of ``plan`` straight through the backend's run_scan."""
    batch = simulator._derived_batch(simulator._derive(plan), 0, len(plan))
    return simulator._scan_times(fault, batch, first_hit=first_hit)


@settings(max_examples=15, deadline=None)
@given(derived_scans())
def test_first_hit_times_are_the_scan_times_up_to_the_winner(
    base_loop_backend, data
):
    """``first_hit=True`` returns the full scan's times through the
    lowest detecting slot and ``None`` after it, on every engine."""
    _require_native()
    circuit, plan, fault_pick, lead = data
    reference = ReferenceSimulator(circuit)
    fault = _picked_faults(circuit, plan, fault_pick, reference)[0]
    plan, _ = _deep(plan, _materialized(plan), fault, reference, lead)
    plan = plan.slice(0, 129)
    compiled = CompiledCircuit(circuit)
    engines = (
        SequenceBatchSimulator(compiled, batch_width=129, backend="native"),
        SequenceBatchSimulator(
            compiled, batch_width=129, backend="native", threads=2
        ),
        SequenceBatchSimulator(
            compiled, batch_width=129, backend=base_loop_backend(compiled, "native")
        ),
    )
    full = _run(engines[2], fault, plan, first_hit=False)
    winner = next((slot for slot, time in enumerate(full) if time is not None), None)
    expected = [
        time if winner is not None and slot <= winner else None
        for slot, time in enumerate(full)
    ]
    for simulator in engines:
        assert _run(simulator, fault, plan, first_hit=False) == full
        assert _run(simulator, fault, plan, first_hit=True) == expected


def test_first_hit_prunes_scan_steps_on_window_ramps(s27, s27_t0):
    """Procedure 2's window ramps stop once their winner detects: over
    every s27 fault the native first-hit scans simulate strictly fewer
    steps than all-outcome scans of the same ramps (never more for any
    one ramp), with the same winners."""
    _require_native()
    compiled = CompiledCircuit(s27)
    simulator = SequenceBatchSimulator(compiled, batch_width=64, backend="native")
    reference = ReferenceSimulator(s27)
    first_hit_steps = scan_steps = 0
    ramps = 0
    for fault in enumerate_faults(s27):
        udet = reference.detection_time(s27_t0, fault)
        if udet is None:
            continue
        plan = WindowRampPlan(
            s27_t0, [(u, udet) for u in range(udet, -1, -1)], IDENTITY_EXPANSION
        )
        reset_dispatch_counters()
        position, _ = simulator.first_hit(fault, plan)
        hit_steps = dispatch_counters().get("scan_steps", 0)
        reset_dispatch_counters()
        outcomes = simulator.scan(fault, plan)
        all_steps = dispatch_counters().get("scan_steps", 0)
        assert position == outcomes.index(True)
        assert hit_steps <= all_steps, str(fault)
        first_hit_steps += hit_steps
        scan_steps += all_steps
        ramps += 1
    assert ramps > 10
    assert first_hit_steps < scan_steps


def test_native_backend_never_builds_the_reference_packer(monkeypatch, s27, s27_t0):
    """The native engine's own scan reads the descriptor; only stepped
    scans build the packer."""
    _require_native()
    import repro.sim.seqsim as seqsim

    def refuse(*args, **kwargs):
        raise AssertionError("the native scan built the reference packer")

    monkeypatch.setattr(seqsim, "_derived_packer", refuse)
    compiled = CompiledCircuit(s27)
    assert get_backend(compiled, "native").name == "native"
    simulator = SequenceBatchSimulator(compiled, backend="native")
    plan = OmissionPlan(s27_t0, range(len(s27_t0)), ExpansionConfig())
    for fault in enumerate_faults(s27)[:4]:
        simulator.first_hit(fault, plan)
        simulator.scan(fault, plan)
