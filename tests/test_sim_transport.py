"""What crosses the process boundary on the two sharded axes.

Pickling is the only transport.  A candidate task carries the base's
``uint8`` bit matrix and a plan slice without its base; a one-shot
fault task carries the good machine's
:class:`~repro.sim.trace.ObservationPlan`.  No sharded call creates a
shared-memory segment, under either start method.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.circuits.catalog import load_circuit
from repro.core.ops import ExpansionConfig
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.sim.backend import base_bits_of
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.scanplan import WindowRampPlan
from repro.sim.seqshard import (
    ShardedSequenceBatchSimulator,
    _run_seq_chunk,
    _run_seq_chunk_first_hit,
)
from repro.sim.seqsim import SequenceBatchSimulator
from repro.sim.sharding import ShardedFaultSimulator, _run_fault_chunk
from repro.sim.trace import ObservationPlan
from repro.sim.workerpool import WorkerPool
from repro.util.rng import SplitMix64

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships in CI
    np = None

#: Every test here starts real multi-worker process pools.
pytestmark = pytest.mark.slow

#: Where POSIX shared memory names live on Linux; ``SharedMemory``
#: segments are named ``psm_*``.
SHM_DIR = "/dev/shm"


def _segments() -> set[str]:
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


@pytest.fixture(scope="module")
def workload():
    """syn298, a detected and an undetected fault, and a window ramp."""
    circuit = load_circuit("syn298")
    compiled = CompiledCircuit(circuit)
    rng = SplitMix64(2026)
    t0 = TestSequence(
        [[rng.next_u64() & 1 for _ in range(circuit.num_inputs)] for _ in range(32)]
    )
    faults = list(FaultUniverse(circuit).faults())
    detection = FaultSimulator(compiled).run(t0, faults)
    detected = max(detection.detection_time, key=detection.detection_time.get)
    undetected = next(f for f in faults if f not in detection.detection_time)
    spans = [(u, len(t0) - 1) for u in range(len(t0) - 1, -1, -1)]
    plan = WindowRampPlan(t0, spans, ExpansionConfig(repetitions=2))
    return compiled, t0, faults, detection, detected, undetected, plan


@pytest.fixture
def dispatched(monkeypatch):
    """Every ``(task function, tasks)`` pair sent to a worker pool."""
    sent: list[tuple[object, list[tuple]]] = []
    run_tasks = WorkerPool.run_tasks

    def recording(self, function, tasks):
        sent.append((function, tasks))
        return run_tasks(self, function, tasks)

    monkeypatch.setattr(WorkerPool, "run_tasks", recording)
    return sent


def _sharded_calls(workload):
    """A sharded fault run, ``scan`` and ``first_hit``, checked against
    serial."""
    compiled, t0, faults, detection, detected, undetected, plan = workload
    serial = SequenceBatchSimulator(compiled, batch_width=16)
    with ShardedFaultSimulator(compiled, workers=2, min_shard_faults=1) as simulator:
        assert simulator.run(t0, faults).detection_time == detection.detection_time
    with ShardedSequenceBatchSimulator(
        compiled, batch_width=16, workers=2, min_shard_candidates=1
    ) as simulator:
        assert simulator.scan(detected, plan) == serial.scan(detected, plan)
        # T0 misses this fault and so does the parent's first chunk of
        # windows, so the rest of the scan fans out.
        assert simulator.first_hit(undetected, plan, chunk=8) == serial.first_hit(
            undetected, plan, chunk=8
        )


@pytest.mark.skipif(not os.path.isdir(SHM_DIR), reason=f"no {SHM_DIR} here")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_sharded_calls_create_no_shared_memory(
    workload, dispatched, monkeypatch, method
):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable")
    monkeypatch.setenv("REPRO_SHARDING_START_METHOD", method)
    before = _segments()
    _sharded_calls(workload)
    assert _segments() <= before
    assert [function for function, _ in dispatched] == [
        _run_fault_chunk,
        _run_seq_chunk,
        _run_seq_chunk_first_hit,
    ]


@pytest.mark.skipif(np is None, reason="bases travel as bits only with numpy")
def test_candidate_tasks_carry_base_bits_and_a_baseless_slice(workload, dispatched):
    compiled, t0, *_ = workload
    _sharded_calls(workload)
    expected = base_bits_of(t0, compiled.num_inputs)
    candidate_tasks = [
        task
        for function, tasks in dispatched
        if function is not _run_fault_chunk
        for task in tasks
    ]
    assert candidate_tasks
    for task in candidate_tasks:
        base_bits, part = task[3], task[4]
        assert isinstance(base_bits, np.ndarray) and base_bits.dtype == np.uint8
        assert np.array_equal(base_bits, expected)
        assert isinstance(part, WindowRampPlan) and part.base is None


def test_one_shot_fault_tasks_carry_the_observation_plan(workload, dispatched):
    compiled, t0, faults, *_ = workload
    _sharded_calls(workload)
    with FaultSimulator(compiled) as simulator:
        expected = simulator.trace_cache.observation_plan(t0)
    fault_tasks = [
        task
        for function, tasks in dispatched
        if function is _run_fault_chunk
        for task in tasks
    ]
    assert len(fault_tasks) > 1
    for task in fault_tasks:
        assert isinstance(task[4], ObservationPlan) and task[4] == expected
