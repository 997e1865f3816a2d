"""Restoration compaction against its materializing reference loop.

:func:`repro.atpg.restoration.restoration_compact` finds each restored
window with one first-hit scan over a kept-window
:class:`~repro.sim.scanplan.WindowRampPlan`.  The oracle below is the
loop that scan replaced: it materializes every candidate as
``T0[sorted(kept | window)]`` and scans hand-rolled batches of
``search_batch_width`` through ``detects``.  Both must agree on the
compacted ``T0`` and on every :class:`RestorationStats` field — the
evaluated-candidate count included — for each engine and execution tier.
"""

from __future__ import annotations

import pytest

from repro.atpg.config import AtpgConfig
from repro.atpg.engine import generate_t0
from repro.atpg.restoration import RestorationStats, restoration_compact
from repro.circuits.catalog import load_circuit
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.sim.backend import registry_backends
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.seqsim import SequenceBatchSimulator

SEARCH_BATCH_WIDTH = 24

#: ``(parallel, workers)`` per tier.  The process tier spins a real
#: worker pool, so it carries the ``slow`` marker.
TIERS = {
    "serial": ("serial", 1),
    "threads": ("threads", 2),
    "processes": ("processes", 2),
}


def _oracle_restoration(compiled, t0, faults, backend):
    """The materializing restoration loop, kept as the reference."""
    fault_simulator = FaultSimulator(compiled, backend=backend)
    sequence_simulator = SequenceBatchSimulator(
        compiled, batch_width=SEARCH_BATCH_WIDTH, backend=backend
    )
    udet = dict(fault_simulator.run(t0, faults).detection_time)
    if not udet:
        return TestSequence.empty(t0.width), RestorationStats(len(t0), 0, 0, 0)

    def candidate(kept, start, end):
        positions = sorted(kept | set(range(start, end + 1)))
        return TestSequence([t0[p] for p in positions])

    uncovered = sorted(udet, key=lambda f: (-udet[f], str(f)))
    kept: set[int] = set()
    events = 0
    tried = 0
    while uncovered:
        target = uncovered[0]
        end = udet[target]
        found = None
        next_j = end
        while next_j >= 0 and found is None:
            batch_js = list(
                range(next_j, max(-1, next_j - SEARCH_BATCH_WIDTH), -1)
            )
            candidates = [candidate(kept, j, end) for j in batch_js]
            outcomes = sequence_simulator.detects(target, candidates)
            tried += len(candidates)
            for j, detected in zip(batch_js, outcomes):
                if detected:
                    found = j
                    break
            next_j = batch_js[-1] - 1
        assert found is not None, f"oracle lost {target}"
        kept |= set(range(found, end + 1))
        events += 1
        current = TestSequence([t0[p] for p in sorted(kept)])
        covered = set(fault_simulator.run(current, uncovered).detection_time)
        uncovered = [f for f in uncovered if f not in covered]
    final = TestSequence([t0[p] for p in sorted(kept)])
    return final, RestorationStats(len(t0), len(final), events, tried)


#: ``(circuit, ATPG seed)`` of each uncompacted ``T0``.  On the s27
#: seed-4 and the seed-2 ``T0``s the kept vectors change the outcome: a
#: window search that ignored them would restore a different ``T0``.
WORKLOADS = [
    ("s27", 4),
    ("syn298", 1),
    ("syn298", 2),
    ("syn382", 1),
    ("syn382", 2),
]


@pytest.fixture(scope="module")
def workloads():
    """Uncompacted ATPG ``T0`` per workload, with its oracle outcomes."""
    cache = {}

    def get(workload, backend):
        if workload not in cache:
            circuit_name, seed = workload
            compiled = CompiledCircuit(load_circuit(circuit_name))
            t0 = generate_t0(
                compiled,
                AtpgConfig(
                    seed=seed,
                    genetic_targets=2,
                    run_compaction=False,
                    backend="auto",
                ),
            ).sequence
            faults = list(FaultUniverse(compiled.circuit).faults())
            cache[workload] = {"compiled": compiled, "t0": t0, "faults": faults}
        entry = cache[workload]
        if backend not in entry:
            entry[backend] = _oracle_restoration(
                entry["compiled"], entry["t0"], entry["faults"], backend
            )
        return entry["compiled"], entry["t0"], entry["faults"], entry[backend]

    return get


@pytest.mark.parametrize(
    "workload", WORKLOADS, ids=[f"{name}-seed{seed}" for name, seed in WORKLOADS]
)
@pytest.mark.parametrize("backend", registry_backends())
@pytest.mark.parametrize(
    "tier",
    ["serial", "threads", pytest.param("processes", marks=pytest.mark.slow)],
)
def test_plan_scan_matches_materializing_oracle(
    workloads, workload, backend, tier, require_backend, monkeypatch
):
    require_backend(backend)
    # Two usable CPUs, so the resolver keeps the requested tier.
    monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
    compiled, t0, faults, (expected_t0, expected_stats) = workloads(
        workload, backend
    )
    assert expected_stats.restoration_events > 1, "want kept windows to scan"
    parallel, workers = TIERS[tier]
    compacted, stats = restoration_compact(
        compiled,
        t0,
        faults,
        search_batch_width=SEARCH_BATCH_WIDTH,
        backend=backend,
        workers=workers,
        parallel=parallel,
    )
    assert stats == expected_stats
    assert compacted == expected_t0
