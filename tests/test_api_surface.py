"""Public API surface checks and behavioural round-trips."""

from __future__ import annotations

import pytest

import repro
from repro.circuit.bench_io import parse_bench, write_bench
from repro.core.sequence import TestSequence
from repro.sim.detection import DetectionRecord, FaultSimResult
from repro.sim.logicsim import GoodTrace, LogicSimulator
from repro.util.rng import SplitMix64


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_matches_package_metadata(self):
        assert repro.__version__ == "1.0.0"

    def test_key_entry_points_importable(self):
        from repro import (
            CircuitBuilder,
            ExpansionConfig,
            FaultSimulator,
            LoadAndExpandScheme,
            SelectionConfig,
            TestSequence,
            expand,
            load_circuit,
        )

        entry_points = (
            CircuitBuilder,
            ExpansionConfig,
            FaultSimulator,
            LoadAndExpandScheme,
            SelectionConfig,
            TestSequence,
        )
        assert all(isinstance(obj, type) for obj in entry_points)
        assert callable(expand)
        assert callable(load_circuit)


class TestSessionFacadeSurface:
    def test_facade_exports(self):
        from repro import (
            RunOutcome,
            RunRequest,
            RunResult,
            Session,
            use_session,
        )

        assert all(
            isinstance(obj, type)
            for obj in (RunOutcome, RunRequest, RunResult, Session)
        )
        assert callable(use_session)
        for name in (
            "Session",
            "RunRequest",
            "RunResult",
            "RunOutcome",
            "use_session",
        ):
            assert name in repro.__all__, name

    def test_retired_factory_shims_are_gone(self):
        """Sessions own these concerns; ``repro.sim`` keeps the factories.
        The machine profile and its calibration are gone: one policy,
        ``resolve_execution``, needs no measurement."""
        for name in (
            "make_fault_simulator",
            "make_sequence_simulator",
            "get_worker_pool",
            "get_trace_cache",
            "_deprecated_entry_point",
            "MachineProfile",
            "calibrate",
            "profile_for_startup",
            "load_profile",
            "static_profile",
        ):
            assert not hasattr(repro, name), name
            assert name not in repro.__all__, name
        from repro.sim import autotune

        retired = ("MachineProfile", "calibrate", "profile_for_startup", "load_profile")
        for name in retired:
            assert not hasattr(autotune, name), name
        assert callable(repro.sim.make_fault_simulator)
        assert callable(repro.sim.make_sequence_simulator)

    def test_process_tier_is_gone(self):
        """Chunk threads are the one parallel tier: no process pool,
        sharded simulators or pool lifecycle remain on the surface."""
        for name in (
            "ShardedFaultSimulator",
            "ShardedSequenceBatchSimulator",
            "ShardedFaultSimSession",
            "WorkerPool",
            "get_worker_pool",
            "close_worker_pools",
        ):
            for module in (repro, repro.sim):
                assert not hasattr(module, name), name
                assert name not in module.__all__, name
        assert not hasattr(repro.Session, "worker_pool")

    def test_session_holds_no_simulator_registry(self):
        """Simulators hold nothing to release: no scope, no registry and
        no close hooks remain on them."""
        for name in ("scope", "profile", "calibrate", "_register"):
            assert not hasattr(repro.Session, name), name
        from repro.bist import BistSession

        for cls in (repro.FaultSimulator, repro.SequenceBatchSimulator, BistSession):
            for name in ("close", "__enter__", "__exit__"):
                assert not hasattr(cls, name), (cls.__name__, name)


class TestConfigJsonRoundTrips:
    def test_selection_config_round_trip(self):
        config = repro.SelectionConfig(
            expansion=repro.ExpansionConfig(repetitions=8),
            seed=7,
            workers=2,
        )
        payload = config.to_json()
        assert payload["expansion"]["repetitions"] == 8
        assert repro.SelectionConfig.from_json(payload) == config

    def test_atpg_config_round_trip(self):
        from repro.atpg.config import AtpgConfig

        config = AtpgConfig(seed=3, max_length=50, workers=2)
        assert AtpgConfig.from_json(config.to_json()) == config

    def test_run_request_round_trip(self):
        request = repro.RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(
                expansion=repro.ExpansionConfig(repetitions=2)
            ),
            label="round-trip",
        )
        clone = repro.RunRequest.from_json(request.to_json())
        assert clone == request

    def test_run_result_fingerprint_guard(self):
        result = repro.RunResult(
            kind="scheme",
            circuit_name="s27",
            circuit_hash="abc",
            data={"n": 2},
            timings={"t0_simulation_seconds": 1.0},
        )
        payload = result.to_json()
        # Timings are observability, not identity.
        identical = dict(payload)
        identical["timings"] = {"t0_simulation_seconds": 9.9}
        assert (
            repro.RunResult.from_json(identical).fingerprint()
            == result.fingerprint()
        )
        tampered = dict(payload)
        tampered["data"] = {"n": 3}
        with pytest.raises(repro.ReproError):
            repro.RunResult.from_json(tampered)

    def test_run_request_validation(self):
        with pytest.raises(repro.ReproError):
            repro.RunRequest(kind="nonsense", circuit="s27")
        with pytest.raises(repro.ReproError):
            repro.RunRequest(kind="scheme")


class TestBenchBehavioralRoundTrip:
    def test_serialized_circuit_simulates_identically(self, small_synthetic):
        """write_bench -> parse_bench must preserve behaviour, not just text."""
        text = write_bench(small_synthetic)
        reparsed = parse_bench(text, name=small_synthetic.name)
        rng = SplitMix64(99)
        stimulus = TestSequence(
            [
                [rng.next_u64() & 1 for _ in range(small_synthetic.num_inputs)]
                for _ in range(25)
            ]
        )
        original = LogicSimulator(small_synthetic).run(stimulus)
        round_trip = LogicSimulator(reparsed).run(stimulus)
        assert original.po_values == round_trip.po_values
        assert original.final_state == round_trip.final_state


class TestDetectionRecords:
    def test_valid_records(self):
        from repro.faults.model import STEM, Fault, FaultSite

        fault = Fault(FaultSite("a", STEM), 0)
        DetectionRecord(fault=fault, detected=True, detection_time=3)
        DetectionRecord(fault=fault, detected=False, detection_time=None)

    def test_inconsistent_records_rejected(self):
        from repro.faults.model import STEM, Fault, FaultSite

        fault = Fault(FaultSite("a", STEM), 0)
        with pytest.raises(ValueError):
            DetectionRecord(fault=fault, detected=True, detection_time=None)
        with pytest.raises(ValueError):
            DetectionRecord(fault=fault, detected=False, detection_time=2)

    def test_result_coverage_empty(self):
        result = FaultSimResult(sequence_length=5, total_faults=0)
        assert result.coverage == 0.0
        assert result.num_detected == 0


class TestGoodTrace:
    def test_known_fraction_empty(self):
        trace = GoodTrace(po_values=[], final_state=[])
        assert trace.known_output_fraction() == 0.0
        assert trace.length == 0

    def test_length(self, s27, s27_t0):
        trace = LogicSimulator(s27).run(s27_t0)
        assert trace.length == 10
