"""The good-machine trace cache: once-per-(circuit, sequence) semantics.

The contract of :mod:`repro.sim.trace`: the fault-free trace, the
observation plan and the packed base bit columns are computed exactly
once per (circuit, sequence) per session no matter how many simulators
or dispatches ask, the artifacts pickled into worker tasks give the same
answers there, and none of it changes any detection result.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.circuits.catalog import load_circuit, paper_t0_s27
from repro.core.sequence import TestSequence
from repro.faults.universe import FaultUniverse
from repro.logic.values import ONE, ZERO
from repro.sim.backend import base_bits_of, dispatch_counters, registry_backends
from repro.sim.compiled import CompiledCircuit
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import LogicSimulator
from repro.sim.seqsim import SequenceBatchSimulator
from repro.sim.trace import (
    GoodTraceCache,
    ObservationPlan,
    build_observation_plan,
    close_trace_caches,
    get_trace_cache,
)
from repro.util.rng import SplitMix64

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships in CI
    np = None


def _stimulus(circuit, length, seed=2026):
    rng = SplitMix64(seed)
    return TestSequence(
        [
            [rng.next_u64() & 1 for _ in range(circuit.num_inputs)]
            for _ in range(length)
        ]
    )


@pytest.fixture(scope="module")
def compiled():
    return CompiledCircuit(load_circuit("s27"))


class TestGoodTraceCache:
    def test_trace_simulated_once_per_sequence(self, compiled):
        cache = GoodTraceCache(compiled)
        t0 = paper_t0_s27()
        first = cache.trace(t0)
        assert cache.stats()["trace_misses"] == 1
        assert cache.trace(t0) is first
        assert cache.stats() == {
            "trace_hits": 1,
            "trace_misses": 1,
            "bits_hits": 0,
            "bits_misses": 0,
        }

    def test_equal_sequences_share_one_entry(self, compiled):
        cache = GoodTraceCache(compiled)
        t0 = paper_t0_s27()
        twin = TestSequence(t0.vectors())
        assert twin is not t0
        cache.trace(t0)
        assert cache.trace(twin) is cache.trace(t0)
        assert cache.stats()["trace_misses"] == 1

    def test_matches_direct_simulation(self, compiled):
        cache = GoodTraceCache(compiled)
        t0 = paper_t0_s27()
        direct = LogicSimulator(compiled).run(t0)
        assert cache.trace(t0).po_values == direct.po_values
        assert cache.trace(t0).final_state == direct.final_state
        assert cache.observation_plan(t0) == build_observation_plan(direct)

    @pytest.mark.skipif(np is None, reason="packed bits require numpy")
    def test_base_bits_match_and_are_cached(self, compiled):
        cache = GoodTraceCache(compiled)
        t0 = paper_t0_s27()
        bits = cache.base_bits(t0)
        assert np.array_equal(bits, base_bits_of(t0, compiled.num_inputs))
        assert cache.base_bits(t0) is bits
        stats = cache.stats()
        assert (stats["bits_misses"], stats["bits_hits"]) == (1, 1)

    def test_lru_eviction_recomputes(self, compiled):
        cache = GoodTraceCache(compiled, capacity=2)
        sequences = [_stimulus(compiled.circuit, 4, seed=s) for s in range(3)]
        for sequence in sequences:
            cache.trace(sequence)
        # The first sequence was evicted; asking again is a fresh miss.
        cache.trace(sequences[0])
        assert cache.stats()["trace_misses"] == 4
        cache.close()

    def test_close_is_idempotent_and_cache_stays_usable(self, compiled):
        cache = GoodTraceCache(compiled)
        t0 = paper_t0_s27()
        cache.trace(t0)
        cache.close()
        cache.close()
        assert cache.trace(t0).length == len(t0)

    @pytest.mark.parametrize("circuit_name", ["s27", "syn298"])
    def test_miss_costs_exactly_one_trace_call(self, circuit_name):
        """One miss is one good-machine trace dispatch (one native kernel
        call at or above the crossover, one reference loop below it);
        hits dispatch nothing."""
        circuit = CompiledCircuit(load_circuit(circuit_name))
        cache = GoodTraceCache(circuit)
        sequence = _stimulus(circuit.circuit, 25)

        def delta(action):
            before = dispatch_counters()
            action()
            after = dispatch_counters()
            return {
                kind: after.get(kind, 0) - before.get(kind, 0)
                for kind in ("trace_calls", "trace_steps")
            }

        assert delta(lambda: cache.trace(sequence)) == {
            "trace_calls": 1,
            "trace_steps": 25,
        }
        assert delta(lambda: cache.observation_plan(sequence)) == {
            "trace_calls": 0,
            "trace_steps": 0,
        }

    def test_registry_shares_one_cache_per_compiled(self, compiled):
        assert get_trace_cache(compiled) is get_trace_cache(compiled)
        other = CompiledCircuit(load_circuit("s27"))
        assert get_trace_cache(other) is not get_trace_cache(compiled)
        close_trace_caches()
        # After a session-wide close a fresh cache is handed out.
        assert isinstance(get_trace_cache(compiled), GoodTraceCache)


class TestObservationPlan:
    def test_flat_rows_match_the_trace(self):
        compiled = CompiledCircuit(load_circuit("syn298"))
        trace = LogicSimulator(compiled).run(_stimulus(compiled.circuit, 30))
        plan = build_observation_plan(trace)
        assert len(plan) == trace.length
        assert (plan.offsets.typecode, plan.positions.typecode) == ("q", "i")
        assert plan.values.typecode == "B"
        for t, row in enumerate(trace.po_values):
            positions, values = plan.row(t)
            assert list(zip(positions, values)) == [
                (position, 1 if value is ONE else 0)
                for position, value in enumerate(row)
                if value is ONE or value is ZERO
            ]
        assert pickle.loads(pickle.dumps(plan)) == plan

    @pytest.mark.parametrize("name", registry_backends())
    @pytest.mark.parametrize("base_loop", [False, True], ids=["own", "base"])
    def test_unobservable_plan_detects_nothing_and_still_latches(
        self, name, base_loop, require_backend, base_loop_backend, compiled
    ):
        """A plan with no binary PO at any step (empty position buffer)
        detects nothing on every engine, and states still advance."""
        require_backend(name)
        sequence = _stimulus(compiled.circuit, 6)
        plan = ObservationPlan(array("q", [0] * 7), array("i"), array("B"))
        faults = list(FaultUniverse(compiled.circuit).faults())
        backend = base_loop_backend(compiled, name) if base_loop else name
        reference = FaultSimulator(compiled, backend="python")
        simulator = FaultSimulator(compiled, backend=backend)
        outcomes = []
        for sim in (reference, simulator):
            outcomes.append(
                sim._scan(
                    sim.backend.program(tuple(faults)),
                    len(faults),
                    sequence,
                    plan,
                    collect_final_states=True,
                )
            )
        (ref_times, ref_final), (times, final) = outcomes
        assert times == ref_times == [None] * len(faults)
        full = (1 << len(faults)) - 1
        assert [(h & full, l & full) for h, l in final] == ref_final


class TestSimulatorIntegration:
    def test_fault_simulator_reuses_the_trace(self, compiled):
        close_trace_caches()
        t0 = paper_t0_s27()
        faults = list(FaultUniverse(compiled.circuit).faults())
        simulator = FaultSimulator(compiled)
        first = simulator.run(t0, faults)
        second = simulator.run(t0, faults)
        assert first.detection_time == second.detection_time
        stats = simulator.trace_cache.stats()
        assert stats["trace_misses"] == 1
        assert stats["trace_hits"] >= 1

    def test_two_simulators_share_one_cache(self, compiled):
        close_trace_caches()
        t0 = paper_t0_s27()
        faults = list(FaultUniverse(compiled.circuit).faults())
        fault_sim = FaultSimulator(compiled)
        fault_sim.run(t0, faults)
        other = FaultSimulator(compiled)
        other.run(t0, faults)
        assert other.trace_cache is fault_sim.trace_cache
        assert other.trace_cache.stats()["trace_misses"] == 1

    @pytest.mark.skipif(np is None, reason="packed pipeline requires numpy")
    def test_seqsim_packs_the_window_base_once(self, compiled):
        close_trace_caches()
        t0 = paper_t0_s27()
        faults = list(FaultUniverse(compiled.circuit).faults())
        from repro.core.ops import ExpansionConfig

        expansion = ExpansionConfig(repetitions=2)
        spans = [(u, len(t0) - 1) for u in range(len(t0) - 1, -1, -1)]
        simulator = SequenceBatchSimulator(compiled, batch_width=8)
        for fault in faults[:4]:
            simulator.detects_windows(fault, t0, spans, expansion)
        stats = simulator._trace_cache.stats()
        assert stats["bits_misses"] == 1
        assert stats["bits_hits"] >= 3

    def test_fault_axis_converts_each_sequence_once(self, monkeypatch, require_backend):
        """One conversion per sequence for its trace and every later
        run/detects (the trace cache's), and one per peek/commit,
        however many batches scan the sequence.  Native is the engine
        that traces and scans bits."""
        require_backend("native")
        import repro.sim.backend as backend_module
        import repro.sim.faultsim as faultsim_module
        import repro.sim.trace as trace_module

        conversions = []

        def counting(sequence, width):
            conversions.append(len(sequence))
            return base_bits_of(sequence, width)

        for module in (backend_module, faultsim_module, trace_module):
            monkeypatch.setattr(module, "base_bits_of", counting)
        circuit = load_circuit("syn298")
        t0 = _stimulus(circuit, 16)
        faults = list(FaultUniverse(circuit).faults())
        simulator = FaultSimulator(
            CompiledCircuit(circuit), batch_width=64, backend="native"
        )
        assert len(faults) > 3 * simulator.batch_width
        assert simulator.trace_cache._logic.backend.scans_bits
        simulator.trace_cache.trace(t0)
        assert conversions == [len(t0)]
        first = simulator.run(t0, faults)
        assert simulator.detects(t0, faults[0]) == (faults[0] in first.detection_time)
        assert simulator.run(t0, faults).detection_time == first.detection_time
        assert conversions == [len(t0)]
        session = simulator.session(faults)
        extension = t0.subsequence(0, 4)
        session.peek(extension)
        session.commit(extension)
        assert conversions == [len(t0), len(extension), len(extension)]

    def test_session_advances_bypass_the_cache(self, compiled):
        """Sessions start from evolving states — their plans are not the
        run-invariant trace and must not pollute (or hit) the cache."""
        close_trace_caches()
        t0 = paper_t0_s27()
        faults = list(FaultUniverse(compiled.circuit).faults())
        simulator = FaultSimulator(compiled)
        session = simulator.session(faults)
        extension = t0.subsequence(0, 4)
        session.commit(extension)
        session.commit(extension)
        # Only the plan for an all-X start would be cached; the second
        # commit's good machine starts from the advanced state.
        misses = simulator.trace_cache.stats()["trace_misses"]
        assert misses <= 1


class TestThreadedPlanSharing:
    """Fault-axis chunk threads all read the caller's cached plan."""

    @pytest.fixture(scope="class")
    def workload(self):
        circuit = load_circuit("syn298")
        compiled = CompiledCircuit(circuit)
        t0 = _stimulus(circuit, 24)
        faults = list(FaultUniverse(circuit).faults())
        serial = FaultSimulator(compiled).run(t0, faults)
        return compiled, t0, faults, serial

    @pytest.mark.parametrize("threads", [2, 3])
    def test_threaded_run_matches_serial(
        self, workload, fanned_out, require_backend, threads
    ):
        require_backend("native")
        compiled, t0, faults, serial = workload
        simulator = FaultSimulator(
            compiled, batch_width=64, backend="native", threads=threads
        )
        with fanned_out() as count:
            threaded = simulator.run(t0, faults)
            assert count("chunk_fanouts") == 1
        assert threaded.detection_time == serial.detection_time
