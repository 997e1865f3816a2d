"""Property: row-based static compaction equals re-simulating compaction.

Procedure 1 records, for every selected sequence, the faults of ``F``
its expansion detects (``SelectedSequence.detects``), and
:func:`~repro.core.postprocess.statically_compact` runs the paper's four
passes as set arithmetic over those rows.  Hypothesis draws generated
circuits, a random ``T0`` and an expansion ``n`` and checks that fast
path against independent simulation:

1. every recorded row equals the :func:`~repro.core.diagnostics.coverage_matrix`
   row of its sequence (simulated by the python engine at its default
   width, apart from Procedure 1's batching);
2. compaction keeps the same survivors, drops and per-pass detection
   counts as :func:`resimulating_compact`, which fault-simulates every
   pass the way the paper describes it;
3. the paper's invariants hold: re-simulating the survivors covers ``F``
   minus ``uncoverable``, and ``|S|``, total and max length never grow.

It runs on the python engine at width 4 and on native serial; without a
usable native kernel the native case skips with its unavailability
reason.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.generator import SyntheticSpec, generate_circuit
from repro.core.config import SelectionConfig
from repro.core.diagnostics import coverage_matrix
from repro.core.ops import ExpansionConfig, expand
from repro.core.postprocess import CompactionPassReport, statically_compact
from repro.core.procedure1 import SelectedSequence, SelectionResult, select_subsequences
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.sim.backend import backend_unavailable_reason
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.util.rng import SplitMix64

#: The SelectionConfig fields of each engine under test.
ENGINES = {
    "python-w4": dict(
        backend="python",
        fault_batch_width=4,
        search_batch_width=4,
        omission_batch_width=4,
    ),
    "native-serial": dict(backend="native", workers=1),
}


@st.composite
def circuit_t0_and_n(draw):
    """A generated circuit, a random T0 of 4-16 vectors and n in {1, 2, 4}."""
    seed = draw(st.integers(min_value=0, max_value=2**32))
    inputs = draw(st.integers(min_value=1, max_value=5))
    flops = draw(st.integers(min_value=0, max_value=4))
    gates = draw(st.integers(min_value=flops + 3, max_value=24))
    outputs = draw(st.integers(min_value=1, max_value=3))
    circuit = generate_circuit(
        SyntheticSpec("prop", inputs, outputs, flops, gates, seed=seed)
    )
    length = draw(st.integers(min_value=4, max_value=16))
    rng = SplitMix64(draw(st.integers(min_value=0, max_value=2**32)))
    t0 = TestSequence(
        [[rng.next_u64() & 1 for _ in range(inputs)] for _ in range(length)]
    )
    n = draw(st.sampled_from((1, 2, 4)))
    return circuit, t0, n


def _resimulating_pass(
    fault_simulator: FaultSimulator,
    selection: SelectionResult,
    ordered: list[SelectedSequence],
    order_name: str,
) -> CompactionPassReport:
    """One pass, simulating each sequence against the undetected faults."""
    target_faults = set(selection.udet)
    report = CompactionPassReport(
        order_name=order_name,
        sequences_before=len(ordered),
        sequences_dropped=0,
    )
    survivors = []
    for entry in ordered:
        if not target_faults:
            report.sequences_dropped += 1
            report.detection_counts[entry.index] = 0
            continue
        expanded = expand(entry.sequence, selection.config.expansion)
        sim = fault_simulator.run(expanded, sorted(target_faults))
        detected = set(sim.detection_time)
        report.detection_counts[entry.index] = len(detected)
        if detected:
            survivors.append(entry)
            target_faults -= detected
        else:
            report.sequences_dropped += 1
    keep = {entry.index for entry in survivors}
    selection.sequences = [s for s in selection.sequences if s.index in keep]
    return report


def resimulating_compact(
    fault_simulator: FaultSimulator, selection: SelectionResult
) -> list[CompactionPassReport]:
    """The four Section 3.2 passes, each one fault-simulated again."""
    passes = []
    orders = (
        ("increasing length", lambda s: (s.length, s.index)),
        ("decreasing length", lambda s: (-s.length, s.index)),
        ("reverse generation", lambda s: -s.index),
    )
    for name, key in orders:
        ordered = sorted(selection.sequences, key=key)
        passes.append(_resimulating_pass(fault_simulator, selection, ordered, name))
    counts = passes[-1].detection_counts
    ordered = sorted(selection.sequences, key=lambda s: (-counts.get(s.index, 0), s.index))
    passes.append(
        _resimulating_pass(
            fault_simulator, selection, ordered, "decreasing previous detections"
        )
    )
    return passes


def _check_compaction(engine: str, circuit, t0: TestSequence, n: int) -> None:
    compiled = CompiledCircuit(circuit)
    universe = FaultUniverse(circuit)
    config = SelectionConfig(
        expansion=ExpansionConfig(repetitions=n), **ENGINES[engine]
    )
    selection = select_subsequences(compiled, t0, config, universe=universe)
    targets = sorted(selection.udet, key=universe.id_of)

    # 1. Every recorded row is what an independent simulation detects.
    matrix = coverage_matrix(
        compiled, selection.sequences, config.expansion, targets, backend="python"
    )
    for entry in selection.sequences:
        assert entry.detects == matrix.detected_by[entry.index], entry.index

    # 2. Set arithmetic over the rows == re-simulating every pass.
    oracle_selection = dataclasses.replace(
        selection, sequences=list(selection.sequences)
    )
    simulator = FaultSimulator(
        compiled, batch_width=config.fault_batch_width, backend=config.backend
    )
    expected_passes = resimulating_compact(simulator, oracle_selection)
    before = (selection.num_sequences, selection.total_length, selection.max_length)
    result = statically_compact(selection)
    assert [entry.index for entry in result.sequences] == [
        entry.index for entry in oracle_selection.sequences
    ]
    assert result.passes == expected_passes

    # 3. The paper's invariants: coverage kept, nothing grows.
    covered = set()
    for entry in result.sequences:
        expanded = expand(entry.sequence, config.expansion)
        covered |= set(simulator.run(expanded, targets).detection_time)
    assert covered == set(selection.udet) - set(selection.uncoverable)
    assert result.num_sequences <= before[0]
    assert result.total_length <= before[1]
    assert result.max_length <= before[2]


@settings(max_examples=100, deadline=None)
@given(circuit_t0_and_n())
def test_row_compaction_matches_resimulation_python(data):
    _check_compaction("python-w4", *data)


@settings(max_examples=100, deadline=None)
@given(circuit_t0_and_n())
def test_row_compaction_matches_resimulation_native(data):
    reason = backend_unavailable_reason("native")
    if reason is not None:
        pytest.skip(f"backend 'native' unavailable: {reason}")
    _check_compaction("native-serial", *data)
