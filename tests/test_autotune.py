"""Machine profiling: persistence and calibration.

What a profile does to a run is ``resolve_execution``'s business; its
policy table lives in ``test_execution_policy.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.sim.autotune import (
    MachineProfile,
    calibrate,
    default_profile_path,
    load_profile,
    profile_for_startup,
    static_profile,
)
from repro.sim.workerpool import cpu_count


def profile_with(workers: int, source: str) -> MachineProfile:
    base = static_profile()
    return MachineProfile(
        cpu_count=base.cpu_count,
        workers=workers,
        backend=base.backend,
        fault_batch_width=base.fault_batch_width,
        search_batch_width=base.search_batch_width,
        omission_batch_width=base.omission_batch_width,
        source=source,
    )


class TestCpuCountOverride:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "7")
        assert cpu_count() == 7

    def test_invalid_override_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "many")
        with pytest.raises(SimulationError, match="REPRO_ASSUME_CPUS"):
            cpu_count()

    def test_without_override_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASSUME_CPUS", raising=False)
        assert cpu_count() >= 1


class TestProfilePersistence:
    def test_json_round_trip(self):
        profile = profile_with(workers=2, source="calibrated")
        assert MachineProfile.from_json(profile.to_json()) == profile

    def test_json_round_trip_with_thread_tier(self):
        profile = replace(
            profile_with(workers=4, source="calibrated"),
            parallel_mode="threads",
            fault_thread_speedup=2.1,
            candidate_thread_speedup=1.8,
        )
        restored = MachineProfile.from_json(profile.to_json())
        assert restored == profile
        assert restored.parallel_mode == "threads"

    def test_version_guard(self):
        payload = static_profile().to_json()
        payload["version"] = 999
        with pytest.raises(SimulationError, match="version"):
            MachineProfile.from_json(payload)

    def test_v1_profiles_rejected(self):
        """Pre-thread-tier profiles lack the tier verdict; force a
        recalibration instead of silently defaulting it."""
        payload = static_profile().to_json()
        payload["version"] = 1
        with pytest.raises(SimulationError, match="version"):
            MachineProfile.from_json(payload)

    def test_v2_profiles_with_scan_modes_dropped(self, tmp_path):
        """v2 profiles carry per-axis scan-mode verdicts that no longer
        exist; loading one yields no profile, forcing a recalibration."""
        payload = static_profile().to_json()
        payload.update(
            version=2, fault_scan_mode="stepped", candidate_scan_mode="fused"
        )
        target = tmp_path / "profile.json"
        target.write_text(json.dumps(payload), encoding="utf-8")
        assert load_profile(target) is None

    def test_v3_profiles_with_a_process_verdict_dropped(self, tmp_path):
        """v3 profiles may carry the ``processes`` verdict and shard
        speedups of the deleted process tier; loading one yields no
        profile, forcing a recalibration."""
        payload = static_profile().to_json()
        payload.update(
            version=3,
            parallel_mode="processes",
            threads=1,
            fault_shard_speedup=1.4,
            candidate_shard_speedup=1.2,
        )
        target = tmp_path / "profile.json"
        target.write_text(json.dumps(payload), encoding="utf-8")
        assert load_profile(target) is None

    def test_save_load_via_env(self, tmp_path, monkeypatch):
        target = tmp_path / "profile.json"
        monkeypatch.setenv("REPRO_PROFILE", str(target))
        assert default_profile_path() == target
        profile = profile_with(workers=1, source="calibrated")
        assert profile.save() == target
        assert MachineProfile.load() == profile
        assert load_profile() == profile

    def test_load_profile_tolerates_garbage(self, tmp_path, monkeypatch):
        target = tmp_path / "profile.json"
        monkeypatch.setenv("REPRO_PROFILE", str(target))
        assert load_profile() is None  # missing
        target.write_text("not json", encoding="utf-8")
        assert load_profile() is None  # unparseable


class TestCalibration:
    def test_quick_calibration_on_one_core_selects_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        profile = calibrate(quick=True)
        assert profile.source == "calibrated"
        assert profile.workers == 1
        assert any("1 core" in note for note in profile.notes)
        # Measured widths come from the candidate family, so the profile
        # carries concrete, positive batch widths.
        assert profile.fault_batch_width > 0
        assert profile.search_batch_width > 0

    def test_quick_calibration_on_two_cores_measures_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        profile = calibrate(quick=True)
        assert profile.parallel_mode in ("serial", "threads")
        assert (profile.parallel_mode == "threads") == (profile.workers == 2)
        if profile.backend == "native":
            assert any("threads x2" in note for note in profile.notes)
            assert profile.fault_thread_speedup > 0
        else:
            assert profile.workers == 1
            assert any("holds the GIL" in note for note in profile.notes)

    def test_profile_for_startup_calibrates_then_loads(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        target = tmp_path / "startup.json"
        monkeypatch.setenv("REPRO_PROFILE", str(target))
        first = profile_for_startup(quick=True)
        assert first.source == "calibrated"
        assert target.exists()
        # Second startup must load, not re-measure: poison the file with
        # a recognizable workers value and confirm it is what comes back.
        poisoned = profile_with(1, "calibrated").to_json()
        poisoned["notes"] = ["loaded-not-measured"]
        target.write_text(__import__("json").dumps(poisoned), encoding="utf-8")
        second = profile_for_startup(quick=True)
        assert list(second.notes) == ["loaded-not-measured"]
