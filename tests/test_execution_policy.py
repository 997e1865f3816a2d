"""The execution policy: ``resolve_execution`` picks every tier and count.

The table below is the policy's specification, one row per decision the
simulator factories, the ``Session`` and the serve planner rely on.  The
property test checks the invariants the callers rely on — above all
idempotence, because the service plans a request and the ``Session``
then resolves the planned request again.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.workerpool import (
    MAX_THREADS,
    PARALLEL_MODES,
    cpu_count,
    resolve_execution,
)

#: (parallel, workers, cpus) -> (tier, count).
POLICY_TABLE = [
    # 0/None size for the machine, one core collapses.
    pytest.param(None, None, 1, ("serial", 1), id="default-one-core"),
    pytest.param("auto", 0, 1, ("serial", 1), id="auto0-one-core"),
    pytest.param("threads", 0, 8, ("threads", 8), id="threads0-cpus"),
    pytest.param("threads", None, 8, ("threads", 8), id="threads-none-cpus"),
    pytest.param("auto", 0, 2, ("threads", 2), id="auto0-two-cores"),
    pytest.param("auto", None, 4, ("threads", 4), id="auto-none-cpus"),
    # An explicit count is what runs.
    pytest.param("threads", 3, 8, ("threads", 3), id="threads3"),
    pytest.param("auto", 4, 8, ("threads", 4), id="auto-threads"),
    pytest.param("threads", 2, 2, ("threads", 2), id="threads-two-core"),
    pytest.param("auto", 2, 2, ("threads", 2), id="auto2-two-cores"),
    pytest.param("auto", 8, 2, ("threads", 8), id="more-threads-than-cores"),
    # Serial: a count of 1, the serial tier, or one usable core.
    pytest.param("auto", 1, 8, ("serial", 1), id="auto-one-is-serial"),
    pytest.param("threads", 1, 8, ("serial", 1), id="threads-one-is-serial"),
    pytest.param("serial", 4, 8, ("serial", 1), id="serial-any-count"),
    pytest.param("serial", 0, 8, ("serial", 1), id="serial-auto-count"),
    pytest.param("threads", 4, 1, ("serial", 1), id="threads-one-core"),
    pytest.param("auto", 2, 1, ("serial", 1), id="auto-one-core"),
    # The thread count is clamped to what ``run_chunks`` runs.
    pytest.param("auto", 1000, 2, ("threads", MAX_THREADS), id="clamped"),
    pytest.param("threads", 65, 8, ("threads", MAX_THREADS), id="clamped-65"),
    pytest.param("threads", 64, 8, ("threads", 64), id="at-the-cap"),
    pytest.param("serial", 1000, 8, ("serial", 1), id="serial-over-the-cap"),
    # One per core is clamped too, on a machine wider than the cap.
    pytest.param("auto", 0, 128, ("threads", MAX_THREADS), id="auto0-many-cores"),
    pytest.param("threads", None, 65, ("threads", MAX_THREADS), id="none-65-cores"),
]


@pytest.mark.parametrize("parallel, workers, cpus, expected", POLICY_TABLE)
def test_policy_table(parallel, workers, cpus, expected, monkeypatch):
    monkeypatch.setenv("REPRO_ASSUME_CPUS", str(cpus))
    assert resolve_execution(parallel, workers) == expected


class TestThreadCap:
    def test_thousand_workers_resolve_to_the_cap(self, monkeypatch):
        """The policy reports the count ``run_chunks`` runs, and resolving
        it starts no thread."""
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        before = threading.active_count()
        assert resolve_execution("auto", 1000) == ("threads", 64)
        assert MAX_THREADS == 64
        assert threading.active_count() == before


class TestRejections:
    def test_modes_registry(self):
        assert PARALLEL_MODES == ("auto", "serial", "threads")

    @pytest.mark.parametrize("mode", ["fibers", "processes"])
    def test_invalid_mode_rejected(self, mode):
        with pytest.raises(SimulationError, match="unknown parallel mode"):
            resolve_execution(mode, 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            resolve_execution("threads", -2)


class TestCpuCount:
    def test_counts_usable_cores(self, monkeypatch):
        """``taskset -c 0`` on a many-core host is one core, not many."""
        monkeypatch.delenv("REPRO_ASSUME_CPUS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cpu_count() == 1
        assert resolve_execution("auto", 4) == ("serial", 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "7")
        assert cpu_count() == 7

    def test_invalid_override_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "many")
        with pytest.raises(SimulationError, match="REPRO_ASSUME_CPUS"):
            cpu_count()
        with pytest.raises(SimulationError, match="REPRO_ASSUME_CPUS"):
            resolve_execution("auto", 0)

    def test_without_override_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_ASSUME_CPUS", raising=False)
        assert cpu_count() >= 1

    def test_override_beats_affinity(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cpu_count() == 3


@settings(max_examples=300, deadline=None)
@given(
    parallel=st.sampled_from(PARALLEL_MODES),
    workers=st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
    cpus=st.integers(min_value=1, max_value=8),
)
def test_resolution_properties(parallel, workers, cpus):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ASSUME_CPUS", str(cpus))
        tier, count = resolve_execution(parallel, workers)
        assert tier in ("serial", "threads")
        assert (tier == "serial") == (count == 1)
        assert 1 <= count <= MAX_THREADS
        if cpus == 1 or parallel == "serial" or workers == 1:
            assert tier == "serial"
        elif workers:
            assert count == min(workers, MAX_THREADS)
        else:
            assert count == cpus
        # The service plans a request; the Session re-resolves the
        # planned request.  It must land where the plan did.
        assert resolve_execution(tier, count) == (tier, count)
