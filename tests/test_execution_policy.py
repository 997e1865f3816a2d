"""The execution policy: ``resolve_execution`` picks every tier and count.

The table below is the policy's specification, one row per decision the
simulator factories, the ``Session`` and the serve planner used to make
in their own copies.  The property test checks the invariants the
callers rely on — above all idempotence, because the service plans a
request and the ``Session`` then resolves the planned request again.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.autotune import MachineProfile
from repro.sim.workerpool import PARALLEL_MODES, cpu_count, resolve_execution


def make_profile(
    source: str,
    workers: int,
    parallel_mode: str = "auto",
    thread_speedup: float = 0.0,
    candidate_thread_speedup: float = 0.0,
) -> MachineProfile:
    """A hand-built profile (no measurement in unit tests)."""
    return MachineProfile(
        cpu_count=8,
        workers=workers,
        backend="python",
        fault_batch_width=192,
        search_batch_width=32,
        omission_batch_width=96,
        parallel_mode=parallel_mode,
        fault_thread_speedup=thread_speedup,
        candidate_thread_speedup=candidate_thread_speedup,
        source=source,
    )


NONE = None
STATIC_1 = ("static", 1)
STATIC_2 = ("static", 2)
STATIC_4_THREADS = ("static", 4, "threads")
CALIBRATED_1 = ("calibrated", 1)
CALIBRATED_2 = ("calibrated", 2)
CALIBRATED_1_THREADS = ("calibrated", 1, "threads")
CALIBRATED_1_SERIAL = ("calibrated", 1, "serial")
CALIBRATED_4_THREADS = ("calibrated", 4, "threads")
CALIBRATED_4_PROCESSES = ("calibrated", 4, "processes")
CALIBRATED_4_THREADS_WIN = ("calibrated", 4, "auto", 1.5)
CALIBRATED_4_PROCESSES_THREADS_WIN = ("calibrated", 4, "processes", 1.5)
CALIBRATED_4_PROCESSES_THREADS_LOSE = ("calibrated", 4, "processes", 0.5, 0.6)

#: (parallel, workers, profile, cpus, lanes) -> (tier, count).
POLICY_TABLE = [
    # No profile: 0/None size for the machine, one core collapses.
    pytest.param(None, None, NONE, 1, 1, ("serial", 1), id="default-one-core"),
    pytest.param("auto", 0, NONE, 1, 1, ("serial", 1), id="auto0-one-core"),
    pytest.param("threads", 0, NONE, 8, 1, ("threads", 8), id="threads0-cpus"),
    pytest.param(
        "threads", None, NONE, 8, 1, ("threads", 8), id="threads-none-cpus"
    ),
    pytest.param("threads", 3, NONE, 8, 1, ("threads", 3), id="threads3"),
    pytest.param("processes", 3, NONE, 8, 1, ("processes", 3), id="processes3"),
    pytest.param("auto", 4, NONE, 8, 1, ("processes", 4), id="auto-processes"),
    pytest.param("threads", 4, NONE, 1, 1, ("serial", 1), id="threads-one-core"),
    pytest.param("serial", 4, NONE, 8, 1, ("serial", 1), id="serial-any-count"),
    # Worker count through a profile.
    pytest.param(
        "processes", None, CALIBRATED_2, 8, 1, ("processes", 2),
        id="calibrated-none-recommendation",
    ),
    pytest.param(
        "processes", 0, CALIBRATED_2, 8, 1, ("processes", 2),
        id="calibrated-0-recommendation",
    ),
    pytest.param(
        "processes", None, STATIC_1, 8, 1, ("serial", 1),
        id="static-none-recommendation",
    ),
    pytest.param(
        "processes", 4, CALIBRATED_1, 8, 1, ("serial", 1),
        id="calibrated-serial-overrides-request",
    ),
    pytest.param(
        "processes", 4, STATIC_1, 8, 1, ("processes", 4),
        id="static-never-overrides",
    ),
    # A calibrated multi-worker win survives one core; nothing else does.
    pytest.param(
        "threads", 4, CALIBRATED_2, 1, 1, ("threads", 4),
        id="calibrated-win-threads-one-core",
    ),
    pytest.param(
        "processes", 2, CALIBRATED_2, 1, 1, ("processes", 2),
        id="calibrated-win-processes-one-core",
    ),
    pytest.param(
        "processes", 2, CALIBRATED_1, 1, 1, ("serial", 1),
        id="calibrated-serial-one-core",
    ),
    pytest.param(
        "processes", 2, STATIC_2, 1, 1, ("serial", 1), id="static-one-core"
    ),
    # ``auto`` takes a calibrated profile's measured tier.
    pytest.param(
        "auto", None, CALIBRATED_1_THREADS, 8, 1, ("serial", 1),
        id="calibrated-one-worker-serial",
    ),
    pytest.param(
        "auto", None, CALIBRATED_4_THREADS, 8, 1, ("threads", 4),
        id="calibrated-threads-verdict",
    ),
    pytest.param(
        "auto", 2, CALIBRATED_4_THREADS, 8, 1, ("threads", 2),
        id="calibrated-threads-verdict-count",
    ),
    pytest.param(
        "auto", 0, CALIBRATED_4_PROCESSES, 8, 1, ("processes", 4),
        id="calibrated-processes-verdict",
    ),
    pytest.param(
        "auto", 4, CALIBRATED_1_SERIAL, 8, 1, ("serial", 1),
        id="calibrated-serial-verdict",
    ),
    pytest.param(
        "auto", 4, STATIC_4_THREADS, 8, 1, ("processes", 4),
        id="static-verdict-ignored",
    ),
    # Lanes keep concurrent jobs off the shared process pool.
    pytest.param(
        "processes", 4, CALIBRATED_4_PROCESSES_THREADS_WIN, 8, 1,
        ("processes", 4), id="one-lane-keeps-processes",
    ),
    pytest.param(
        "processes", 4, CALIBRATED_4_PROCESSES_THREADS_WIN, 8, 2,
        ("threads", 4), id="lanes-pin-processes-to-threads",
    ),
    pytest.param(
        "auto", 4, CALIBRATED_4_PROCESSES_THREADS_LOSE, 8, 2, ("serial", 1),
        id="lanes-pin-to-serial-without-thread-win",
    ),
    pytest.param(
        "auto", 0, CALIBRATED_4_THREADS_WIN, 8, 2, ("threads", 4),
        id="lanes-pin-auto",
    ),
    pytest.param(
        "serial", 4, CALIBRATED_4_THREADS_WIN, 8, 2, ("serial", 1),
        id="lanes-leave-serial",
    ),
    pytest.param(
        "threads", 4, CALIBRATED_4_THREADS_WIN, 8, 2, ("threads", 4),
        id="lanes-leave-threads",
    ),
    pytest.param(
        "auto", 0, NONE, 4, 2, ("threads", 4), id="lanes-pin-without-profile"
    ),
    pytest.param(
        "auto", 4, NONE, 1, 2, ("serial", 1), id="lanes-one-core-serial"
    ),
]


@pytest.mark.parametrize(
    "parallel, workers, profile, cpus, lanes, expected", POLICY_TABLE
)
def test_policy_table(parallel, workers, profile, cpus, lanes, expected, monkeypatch):
    monkeypatch.setenv("REPRO_ASSUME_CPUS", str(cpus))
    machine = None if profile is None else make_profile(*profile)
    tier, count, _ = resolve_execution(
        parallel, workers, profile=machine, lanes=lanes
    )
    assert (tier, count) == expected


class TestNotes:
    def test_override_note(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "8")
        _, _, notes = resolve_execution(
            "auto", 4, profile=make_profile(*CALIBRATED_1)
        )
        assert any("overrode" in note for note in notes)

    def test_lanes_note(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "8")
        _, _, notes = resolve_execution(
            "processes", 4, profile=make_profile(*CALIBRATED_4_THREADS_WIN), lanes=2
        )
        assert any("lanes=2" in note for note in notes)

    def test_plain_request_has_no_notes(self):
        assert resolve_execution("serial", 1) == ("serial", 1, ())


class TestRejections:
    def test_modes_registry(self):
        assert PARALLEL_MODES == ("auto", "serial", "threads", "processes")

    def test_invalid_mode_rejected(self):
        with pytest.raises(SimulationError, match="parallel"):
            resolve_execution("fibers", 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            resolve_execution("threads", -2)


class TestCpuCount:
    def test_counts_usable_cores(self, monkeypatch):
        """``taskset -c 0`` on a many-core host is one core, not many."""
        monkeypatch.delenv("REPRO_ASSUME_CPUS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cpu_count() == 1
        assert resolve_execution("auto", 4)[:2] == ("serial", 1)

    def test_override_beats_affinity(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cpu_count() == 3


@st.composite
def profiles(draw):
    kind = draw(st.sampled_from(["none", "static", "calibrated"]))
    if kind == "none":
        return None
    speedups = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
    return make_profile(
        kind,
        draw(st.integers(min_value=1, max_value=8)),
        parallel_mode=draw(st.sampled_from(PARALLEL_MODES)),
        thread_speedup=draw(speedups),
        candidate_thread_speedup=draw(speedups),
    )


@settings(max_examples=300, deadline=None)
@given(
    parallel=st.sampled_from(PARALLEL_MODES),
    workers=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    profile=profiles(),
    lanes=st.integers(min_value=1, max_value=3),
    cpus=st.integers(min_value=1, max_value=8),
)
def test_resolution_properties(parallel, workers, profile, lanes, cpus):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ASSUME_CPUS", str(cpus))
        tier, count, _ = resolve_execution(
            parallel, workers, profile=profile, lanes=lanes
        )
        assert tier in ("serial", "threads", "processes")
        assert (tier == "serial") == (count == 1)
        if lanes > 1:
            assert tier != "processes"
        calibrated_win = (
            profile is not None and profile.calibrated and profile.workers > 1
        )
        if cpus == 1 and not calibrated_win:
            assert tier == "serial"
        # The service plans with its lanes; the Session re-resolves the
        # planned request with none.  Both must land where the plan did.
        for again in (lanes, 1):
            assert resolve_execution(tier, count, profile=profile, lanes=again)[
                :2
            ] == (tier, count)
