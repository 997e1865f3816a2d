"""Property-based cross-checks: the simulators must agree with the reference.

Hypothesis drives random (circuit, sequence, fault) triples through the
reference simulator, the parallel-fault simulator and the parallel-
sequence simulator and requires identical detection verdicts.  This is
the strongest correctness evidence in the suite: the engines share no
evaluation code path with the reference.

The default python engine runs at a narrow width; the native engine is
checked serially at slot widths around the 64-slot word boundary, with
multi-fault batches on the fault axis and ragged candidate lists on the
candidate axis, and on two and three chunk threads at a narrow and a
word-crossing width, with the fan-out floor dropped so every example's
dispatches fan out (asserted through the dispatch counters).  Without a
usable native kernel those cases skip with its unavailability reason.

Fault sessions (:class:`~repro.sim.faultsim.FaultSimSession`) are checked
differentially too: a sequence split into random commits, with peeks in
between, must detect exactly what the reference detects on the whole
sequence.  Their circuits carry a PO on some flop's D driver, so the
universe holds flop-pin (``dff_pin``) faults, whose patches act on the
state a session keeps between commits; the generator alone never draws
them (a flop's D driver has no other load).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.netlist import Circuit
from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.sequence import TestSequence
from repro.faults.sites import enumerate_faults
from repro.faults.universe import FaultUniverse
from repro.sim.backend import backend_unavailable_reason
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.reference import ReferenceSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.util.rng import SplitMix64


@st.composite
def circuit_and_stimulus(draw, min_flops=0):
    seed = draw(st.integers(min_value=0, max_value=2**32))
    inputs = draw(st.integers(min_value=1, max_value=5))
    flops = draw(st.integers(min_value=min_flops, max_value=4))
    gates = draw(st.integers(min_value=flops + 3, max_value=24))
    outputs = draw(st.integers(min_value=1, max_value=3))
    spec = SyntheticSpec("prop", inputs, outputs, flops, gates, seed=seed)
    circuit = generate_circuit(spec)
    length = draw(st.integers(min_value=1, max_value=12))
    rng = SplitMix64(draw(st.integers(min_value=0, max_value=2**32)))
    sequence = TestSequence(
        [[rng.next_u64() & 1 for _ in range(inputs)] for _ in range(length)]
    )
    fault_pick = draw(st.integers(min_value=0, max_value=10_000))
    return circuit, sequence, fault_pick


#: Slot widths straddling one and two 64-slot words.
SLOT_WIDTHS = (63, 64, 65, 129)

#: (chunk threads, slot widths) of the native engine users get.  The
#: threaded points add a narrow width so that even small fault lists and
#: candidate sets span several passes, which is what fans them out.
NATIVE_ENGINES = ((1, SLOT_WIDTHS), (2, (8, 65)), (3, (8, 65)))


def _across_examples(fanned_out, property_check) -> None:
    """Run a ``@given`` check with the fan-out floor dropped, then assert
    that, across its examples, the threaded engines' dispatches fanned
    out and chunks ran on pool threads (tiny examples may finish every
    chunk on the calling thread before a helper wakes)."""
    with fanned_out() as count:
        property_check()
        assert count("chunk_fanouts") > 0
        assert count() > 0


def _require_native() -> None:
    reason = backend_unavailable_reason("native")
    if reason is not None:
        pytest.skip(f"backend 'native' unavailable: {reason}")


@st.composite
def circuit_and_candidates(draw):
    """A generated circuit plus up to 150 candidates of 0-12 vectors."""
    circuit, _, fault_pick = draw(circuit_and_stimulus())
    count = draw(st.integers(min_value=1, max_value=150))
    rng = SplitMix64(draw(st.integers(min_value=0, max_value=2**32)))
    candidates = [
        TestSequence(
            [
                [rng.next_u64() & 1 for _ in range(circuit.num_inputs)]
                for _ in range(rng.next_u64() % 13)
            ]
        )
        for _ in range(count)
    ]
    return circuit, candidates, fault_pick


@settings(max_examples=40, deadline=None)
@given(circuit_and_stimulus())
def test_uncollapsed_fault_detection_agrees_across_engines(data):
    circuit, sequence, fault_pick = data
    faults = enumerate_faults(circuit)
    fault = faults[fault_pick % len(faults)]

    reference = ReferenceSimulator(circuit)
    expected_time = reference.detection_time(sequence, fault)

    fault_sim = FaultSimulator(circuit, batch_width=4)
    result = fault_sim.run(sequence, [fault])
    assert result.detection_time.get(fault) == expected_time

    seq_sim = SequenceBatchSimulator(circuit, batch_width=4)
    assert seq_sim.detects(fault, [sequence]) == [expected_time is not None]


@settings(max_examples=15, deadline=None)
@given(circuit_and_stimulus())
def test_collapsed_classes_detected_together(data):
    """Every fault in an equivalence class has the same detection verdict."""
    circuit, sequence, _ = data
    universe = FaultUniverse(circuit)
    collapse = universe.collapse_result
    fault_sim = FaultSimulator(circuit)
    all_faults = list(collapse.class_of)
    result = fault_sim.run(sequence, all_faults)
    for representative in list(universe.faults())[:20]:
        members = collapse.class_members(representative)
        verdicts = {result.is_detected(member) for member in members}
        assert len(verdicts) == 1, f"class of {representative} disagrees"


@settings(max_examples=20, deadline=None)
@given(circuit_and_stimulus(), st.integers(min_value=1, max_value=6))
def test_fault_dropping_invariance(data, width):
    """Detection results are independent of simulator batch width."""
    circuit, sequence, _ = data
    universe = FaultUniverse(circuit)
    faults = list(universe.faults())
    wide = FaultSimulator(circuit, batch_width=256).run(sequence, faults)
    narrow = FaultSimulator(circuit, batch_width=width).run(sequence, faults)
    assert wide.detection_time == narrow.detection_time


def test_native_fault_batches_agree_with_reference(fanned_out):
    """Every uncollapsed fault, batched at widths around a word boundary."""
    _require_native()

    @settings(max_examples=25, deadline=None)
    @given(circuit_and_stimulus())
    def check(data):
        circuit, sequence, _ = data
        faults = enumerate_faults(circuit)
        reference = ReferenceSimulator(circuit)
        expected = {
            fault: reference.detection_time(sequence, fault) for fault in faults
        }
        compiled = CompiledCircuit(circuit)
        for threads, widths in NATIVE_ENGINES:
            for width in widths:
                result = FaultSimulator(
                    compiled, batch_width=width, backend="native", threads=threads
                ).run(sequence, faults)
                got = {fault: result.detection_time.get(fault) for fault in faults}
                assert got == expected, (threads, width)

    _across_examples(fanned_out, check)


def test_native_ragged_candidates_agree_with_reference(fanned_out):
    """Ragged candidate lists (0-12 vectors each) over several batches."""
    _require_native()

    @settings(max_examples=25, deadline=None)
    @given(circuit_and_candidates())
    def check(data):
        circuit, candidates, fault_pick = data
        faults = enumerate_faults(circuit)
        picked = [faults[(fault_pick + k * 7) % len(faults)] for k in range(3)]
        reference = ReferenceSimulator(circuit)
        expected = {
            fault: [reference.detects(candidate, fault) for candidate in candidates]
            for fault in picked
        }
        compiled = CompiledCircuit(circuit)
        for threads, widths in NATIVE_ENGINES:
            for width in widths:
                simulator = SequenceBatchSimulator(
                    compiled, batch_width=width, backend="native", threads=threads
                )
                for fault in picked:
                    got = simulator.detects(fault, candidates)
                    assert got == expected[fault], (threads, width, str(fault))

    _across_examples(fanned_out, check)


def with_flop_pin_sites(circuit: Circuit, picks: list[int]) -> Circuit:
    """``circuit`` with a PO added on the D driver of each picked flop.

    The driver then has two loads, so the branch into the flop is a
    fault site of its own: a flop-pin fault.
    """
    drivers = dict.fromkeys(circuit.flops[pick][1] for pick in picks)
    outputs = list(circuit.outputs)
    outputs += [driver for driver in drivers if driver not in outputs]
    return Circuit(
        circuit.name,
        list(circuit.inputs),
        outputs,
        list(circuit.flops),
        dict(circuit.gates),
    )


@st.composite
def session_case(draw):
    """A circuit with flop-pin faults, a sequence, its commit cuts and a
    decoy extension to peek between commits."""
    circuit, _, _ = draw(circuit_and_stimulus(min_flops=1))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=circuit.num_flops - 1),
            min_size=1,
            max_size=circuit.num_flops,
        )
    )
    circuit = with_flop_pin_sites(circuit, picks)
    length = draw(st.integers(min_value=1, max_value=16))
    rng = SplitMix64(draw(st.integers(min_value=0, max_value=2**32)))

    def vectors(count):
        return TestSequence(
            [
                [rng.next_u64() & 1 for _ in range(circuit.num_inputs)]
                for _ in range(count)
            ]
        )

    sequence = vectors(length)
    # Inner cut points only (a one-vector sequence has none).
    positions = st.integers(min_value=1, max_value=max(1, length - 1))
    cuts = sorted(draw(st.sets(positions, max_size=5)) - {length})
    decoy = vectors(draw(st.integers(min_value=1, max_value=6)))
    return circuit, sequence, cuts, decoy


def _reference_times(circuit, sequence, faults) -> dict:
    reference = ReferenceSimulator(circuit)
    times = {}
    for fault in faults:
        time = reference.detection_time(sequence, fault)
        if time is not None:
            times[fault] = time
    return times


def _check_session(simulator, faults, sequence, cuts, decoy, expected) -> None:
    """Commit ``sequence`` in pieces, peeking before each commit."""
    unique = list(dict.fromkeys(faults))
    session = simulator.session(faults)
    assert session.num_remaining == len(unique)
    bounds = [0, *cuts, len(sequence)]
    detected: dict = {}
    for start, end in zip(bounds, bounds[1:]):
        chunk = sequence.subsequence(start, end - 1)
        remaining, elapsed = session.num_remaining, session.elapsed
        session.peek(decoy)
        assert (session.num_remaining, session.elapsed) == (remaining, elapsed)
        count = session.peek(chunk)
        assert (session.num_remaining, session.elapsed) == (remaining, elapsed)
        newly = session.commit(chunk)
        assert count == len(newly)
        detected.update(newly)
        assert session.elapsed == end
        assert session.remaining_faults == [
            fault for fault in unique if fault not in detected
        ]
    assert detected == expected
    assert session.detection_time == expected


@settings(max_examples=30, deadline=None)
@given(session_case(), st.integers(min_value=1, max_value=6))
def test_session_commits_agree_with_reference(data, width):
    """python sessions at widths 1-6 (sparse batches force re-packs),
    over a fault list with duplicates."""
    circuit, sequence, cuts, decoy = data
    faults = enumerate_faults(circuit)
    assert any(fault.site.load_kind == "dff" for fault in faults)
    expected = _reference_times(circuit, sequence, faults)
    simulator = FaultSimulator(circuit, batch_width=width, backend="python")
    _check_session(simulator, faults + faults[::3], sequence, cuts, decoy, expected)


def test_native_session_commits_agree_with_reference(fanned_out):
    """native sessions, serial and threaded, around the word boundary."""
    _require_native()

    @settings(max_examples=15, deadline=None)
    @given(session_case())
    def check(data):
        circuit, sequence, cuts, decoy = data
        faults = enumerate_faults(circuit)
        assert any(fault.site.load_kind == "dff" for fault in faults)
        expected = _reference_times(circuit, sequence, faults)
        compiled = CompiledCircuit(circuit)
        for threads, widths in NATIVE_ENGINES:
            for width in widths:
                simulator = FaultSimulator(
                    compiled, batch_width=width, backend="native", threads=threads
                )
                _check_session(simulator, faults, sequence, cuts, decoy, expected)

    _across_examples(fanned_out, check)
