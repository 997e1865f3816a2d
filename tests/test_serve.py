"""Serving layer: session lifecycle, fair scheduling, service parity.

The contract under test is the ISSUE's acceptance criterion: a warm
service handling concurrent submissions from several tenants returns
results *bit-identical* (equal :meth:`RunResult.fingerprint`) to running
the same :class:`RunRequest` directly on a local :class:`repro.Session`,
while the good-machine trace cache proves the second request for a
circuit reused the first one's fault-free trace.

No ``pytest-asyncio`` in the image — async tests drive their own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro
from repro.atpg.config import AtpgConfig
from repro.core.request import RunRequest
from repro.core.session import Session, use_session
from repro.errors import ReproError
from repro.serve import FairScheduler, HttpFrontend, JobService, plan_execution
from repro.sim.autotune import MachineProfile, static_profile
from repro.sim.faultsim import FaultSimulator
from repro.sim.sharding import ShardedFaultSimulator

S27_REQUEST = RunRequest(kind="scheme", circuit="s27")


def calibrated_profile(workers: int) -> MachineProfile:
    """A hand-built calibrated profile (no measurement in unit tests)."""
    base = static_profile()
    return MachineProfile(
        cpu_count=base.cpu_count,
        workers=workers,
        backend=base.backend,
        fault_batch_width=base.fault_batch_width,
        search_batch_width=base.search_batch_width,
        omission_batch_width=base.omission_batch_width,
        fault_shard_speedup=2.0 if workers > 1 else 0.5,
        candidate_shard_speedup=2.0 if workers > 1 else 0.5,
        source="calibrated",
        notes=("synthetic test profile",),
    )


class TestFairScheduler:
    def test_round_robin_across_tenants(self):
        scheduler = FairScheduler()
        for job in ("a1", "a2", "a3"):
            scheduler.push("tenant-a", job)
        scheduler.push("tenant-b", "b1")
        scheduler.push("tenant-c", "c1")
        order = []
        while True:
            entry = scheduler.pop()
            if entry is None:
                break
            order.append(entry[1])
        # One job per tenant per rotation: b and c are served before a's
        # backlog drains, so a's burst cannot starve them.
        assert order == ["a1", "b1", "c1", "a2", "a3"]

    def test_pending_and_len(self):
        scheduler = FairScheduler()
        assert len(scheduler) == 0
        assert scheduler.pop() is None
        scheduler.push("t1", 1)
        scheduler.push("t1", 2)
        scheduler.push("t2", 3)
        assert len(scheduler) == 3
        assert scheduler.pending() == {"t1": 2, "t2": 1}
        scheduler.pop()
        assert len(scheduler) == 2


class TestPlanExecution:
    def test_no_profile_passes_request_through(self):
        plan = plan_execution(S27_REQUEST, None)
        assert plan.request is S27_REQUEST
        assert plan.source == "client"
        assert plan.workers == 1

    def test_calibrated_serial_overrides_explicit_shard_request(self):
        """The measured verdict beats the client's workers=4 ask."""
        profile = calibrated_profile(workers=1)
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=4),
        )
        plan = plan_execution(request, profile)
        assert plan.workers == 1
        assert plan.request.selection.workers == 1
        assert any("overrode" in note for note in plan.notes)

    def test_auto_workers_resolve_to_measured_recommendation(self):
        profile = calibrated_profile(workers=2)
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=0),
        )
        plan = plan_execution(request, profile)
        assert plan.workers == 2
        assert plan.request.selection.workers == 2
        assert plan.source == "calibrated"

    def test_static_profile_leaves_explicit_request_alone(self):
        request = RunRequest(
            kind="atpg",
            circuit="s27",
            atpg=AtpgConfig(workers=3),
        )
        plan = plan_execution(request, static_profile())
        assert plan.workers == 3
        assert plan.request.atpg.workers == 3

    def test_plan_json_carries_the_tier(self):
        payload = plan_execution(S27_REQUEST, None).to_json()
        assert payload["parallel"] == "auto"

    def test_single_lane_leaves_process_tier_alone(self):
        profile = replace(
            calibrated_profile(workers=4),
            parallel_mode="processes",
            fault_thread_speedup=1.5,
        )
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=4, parallel="processes"),
        )
        plan = plan_execution(request, profile, lanes=1)
        assert plan.parallel == "processes"
        assert plan.request.selection.parallel == "processes"

    def test_lanes_pin_process_tier_to_threads(self):
        """Concurrent lanes must never contend for the shared worker pool."""
        profile = replace(
            calibrated_profile(workers=4),
            parallel_mode="processes",
            fault_thread_speedup=1.5,
        )
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=4, parallel="processes"),
        )
        plan = plan_execution(request, profile, lanes=2)
        assert plan.parallel == "threads"
        assert plan.request.selection.parallel == "threads"
        assert plan.workers == 4
        assert any("lanes=2" in note for note in plan.notes)

    def test_lanes_pin_to_serial_without_a_measured_thread_win(self):
        profile = replace(
            calibrated_profile(workers=4),
            parallel_mode="processes",
            fault_thread_speedup=0.5,
            candidate_thread_speedup=0.6,
        )
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=4),
        )
        plan = plan_execution(request, profile, lanes=2)
        assert plan.parallel == "serial"
        assert plan.workers == 1
        assert plan.request.selection.workers == 1

    def test_lanes_pin_auto_tier_too(self):
        """'auto' could resolve to processes downstream, so it is pinned."""
        profile = replace(
            calibrated_profile(workers=4), fault_thread_speedup=1.5
        )
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=0),
        )
        plan = plan_execution(request, profile, lanes=2)
        assert plan.parallel == "threads"

    def test_lanes_leave_explicit_serial_and_threads_alone(self):
        profile = replace(
            calibrated_profile(workers=4), fault_thread_speedup=1.5
        )
        for tier in ("serial", "threads"):
            request = RunRequest(
                kind="scheme",
                circuit="s27",
                selection=repro.SelectionConfig(workers=4, parallel=tier),
            )
            plan = plan_execution(request, profile, lanes=2)
            assert plan.parallel == tier


class TestSessionLifecycle:
    def test_close_is_idempotent(self):
        session = Session()
        session.close()
        session.close()  # silent no-op, never raises
        assert session.closed

    def test_closed_session_rejects_use(self, s27):
        session = Session()
        session.close()
        with pytest.raises(ReproError, match="closed"):
            session.compile(s27)

    def test_scope_closes_only_scoped_simulators(self, s27):
        with Session() as session:
            outer = session.fault_simulator(s27)
            with session.scope():
                inner = session.fault_simulator(s27)
            # Closing inner twice (scope + session close) must stay silent.
            inner.close()
            outer.run(repro.paper_t0_s27(), [])

    def test_use_session_borrowed_keeps_caller_session_open(self):
        with Session() as session:
            with use_session(session) as sess:
                assert sess is session
            assert not session.closed

    def test_use_session_private_closes_on_exit(self):
        with use_session(None) as sess:
            assert not sess.closed
            private = sess
        assert private.closed

    def test_compile_shares_by_content_hash(self, s27):
        with Session() as session:
            by_object = session.compile(s27)
            by_name = session.compile("s27")
            assert by_object is by_name

    def test_profile_force_shard_overrides_static_single_core_fallback(
        self, s27, monkeypatch
    ):
        """Calibration demonstrably replaces the static threshold.

        On a 1-CPU machine the static policy always falls back to a
        serial simulator even for workers=2; a calibrated profile that
        measured a sharding win forces the sharded path.
        """
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        with Session() as session:
            static_sim = session.fault_simulator(s27, workers=2)
            assert isinstance(static_sim, FaultSimulator)
            assert not isinstance(static_sim, ShardedFaultSimulator)
        with Session(profile=calibrated_profile(workers=2)) as session:
            forced = session.fault_simulator(s27, workers=2)
            assert isinstance(forced, ShardedFaultSimulator)


class TestRunDispatches:
    def test_good_machine_traces_are_counted(self):
        """Fault-free traces show up in the run's dispatch deltas."""
        with Session() as session:
            result = session.run(S27_REQUEST)
        dispatches = result.execution["dispatches"]
        assert dispatches["trace_calls"] >= 1
        assert dispatches["trace_steps"] >= dispatches["trace_calls"]


class TestJobService:
    def test_two_tenants_bit_identical_to_direct_session(self):
        async def main():
            async with JobService(profile=static_profile()) as service:
                job_a = await service.submit("tenant-a", S27_REQUEST)
                job_b = await service.submit("tenant-b", S27_REQUEST)
                return await service.wait(job_a), await service.wait(job_b)

        done_a, done_b = asyncio.run(main())
        assert done_a.status == "done", done_a.error
        assert done_b.status == "done", done_b.error

        with Session() as session:
            direct = session.run(S27_REQUEST)
        assert done_a.result.fingerprint() == direct.fingerprint()
        assert done_b.result.fingerprint() == direct.fingerprint()

    def test_second_request_reuses_first_requests_trace(self):
        async def main():
            async with JobService(profile=static_profile()) as service:
                first = await service.wait(
                    await service.submit("tenant-a", S27_REQUEST)
                )
                second = await service.wait(
                    await service.submit("tenant-b", S27_REQUEST)
                )
                return first, second

        first, second = asyncio.run(main())
        stats_a, stats_b = first.result.trace_stats, second.result.trace_stats
        # Counters are cumulative across the shared cache: the second
        # job's delta must show hits (reuse) and fewer cold misses than
        # the first job paid.
        delta_hits = stats_b["trace_hits"] - stats_a["trace_hits"]
        delta_misses = stats_b["trace_misses"] - stats_a["trace_misses"]
        assert delta_hits > 0
        assert delta_misses < stats_a["trace_misses"]

    def test_failed_job_reports_error_and_service_survives(self):
        async def main():
            async with JobService(profile=static_profile()) as service:
                bad = await service.wait(
                    await service.submit("t", RunRequest(kind="scheme", circuit="no-such"))
                )
                good = await service.wait(await service.submit("t", S27_REQUEST))
                return bad, good, service.stats()

        bad, good, stats = asyncio.run(main())
        assert bad.status == "failed"
        assert bad.error
        assert good.status == "done"
        assert stats["jobs_failed"] == 1
        assert stats["jobs_completed"] == 1

    def test_submit_before_start_rejected(self):
        async def main():
            service = JobService(profile=static_profile())
            with pytest.raises(ReproError, match="before start"):
                await service.submit("t", S27_REQUEST)

        asyncio.run(main())

    def test_lanes_validation(self):
        with pytest.raises(ReproError, match="lane"):
            JobService(lanes=0)

    def test_two_lanes_serve_two_tenants_bit_identical(self):
        """The acceptance criterion: lanes=2, concurrent tenants, exact
        fingerprints against a direct Session.run of the same request."""

        async def main():
            async with JobService(profile=static_profile(), lanes=2) as service:
                results = await asyncio.gather(
                    service.run("tenant-a", S27_REQUEST),
                    service.run("tenant-b", S27_REQUEST),
                )
                return results, service.stats()

        (result_a, result_b), stats = asyncio.run(main())
        with Session() as session:
            direct = session.run(S27_REQUEST)
        assert result_a.fingerprint() == direct.fingerprint()
        assert result_b.fingerprint() == direct.fingerprint()
        assert stats["lanes"] == 2
        assert stats["jobs_completed"] == 2
        assert stats["jobs_running"] == 0

    def test_two_lanes_actually_overlap(self):
        """Both lanes must be in flight at once, not serialized.

        Each job blocks on a two-party barrier before running: the
        barrier only releases when *both* lanes are inside their job at
        the same moment.  A serialized service would break the barrier
        (timeout) and fail both jobs.
        """
        import threading

        barrier = threading.Barrier(2, timeout=30)

        async def main():
            async with JobService(profile=static_profile(), lanes=2) as service:
                real_run = service._session.run

                def rendezvous_run(request):
                    barrier.wait()
                    return real_run(request)

                service._session.run = rendezvous_run
                return await asyncio.gather(
                    service.run("tenant-a", S27_REQUEST),
                    service.run("tenant-b", S27_REQUEST),
                )

        result_a, result_b = asyncio.run(main())
        assert result_a.fingerprint() == result_b.fingerprint()

    def test_plan_recorded_on_job(self):
        async def main():
            profile = calibrated_profile(workers=1)
            async with JobService(profile=profile) as service:
                request = RunRequest(
                    kind="scheme",
                    circuit="s27",
                    selection=repro.SelectionConfig(workers=4),
                )
                return await service.wait(await service.submit("t", request))

        job = asyncio.run(main())
        assert job.status == "done", job.error
        assert job.plan.workers == 1
        assert job.plan.source == "calibrated"


class TestConcurrentSession:
    def test_concurrent_runs_bit_identical_to_serial(self):
        """Satellite: N threads hammering one Session agree bit-for-bit."""
        with Session() as session:
            reference = session.run(S27_REQUEST).fingerprint()
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(session.run, S27_REQUEST) for _ in range(8)
                ]
                fingerprints = {f.result().fingerprint() for f in futures}
        assert fingerprints == {reference}

    def test_concurrent_scopes_close_only_their_own_simulators(self, s27):
        """Each thread's scope frame is private: a scope exiting on one
        thread must not close the simulator another thread still runs."""
        import threading

        with Session() as session:
            ready = threading.Barrier(2)
            errors = []

            def worker():
                try:
                    with session.scope():
                        simulator = session.fault_simulator(s27)
                        ready.wait()  # both scopes hold a live simulator
                        simulator.run(repro.paper_t0_s27(), [])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            workers = [threading.Thread(target=worker) for _ in range(2)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()
        assert errors == []


async def _http_request(port: int, method: str, path: str, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    writer.write(
        f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, data = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, json.loads(data)


class TestHttpFrontend:
    def test_full_round_trip_matches_direct_run(self):
        async def main():
            async with JobService(profile=static_profile()) as service:
                async with HttpFrontend(service) as http:
                    port = http.port
                    status, health = await _http_request(port, "GET", "/healthz")
                    assert (status, health) == (200, {"status": "ok"})

                    status, prof = await _http_request(port, "GET", "/profile")
                    assert status == 200
                    assert prof["profile"]["source"] == "static"

                    status, submitted = await _http_request(
                        port,
                        "POST",
                        "/jobs",
                        {"tenant": "http-tenant", "request": S27_REQUEST.to_json()},
                    )
                    assert status == 202
                    job_id = submitted["id"]

                    status, job = await _http_request(
                        port, "GET", f"/jobs/{job_id}?wait=1"
                    )
                    assert status == 200
                    assert job["status"] == "done"

                    status, stats = await _http_request(port, "GET", "/stats")
                    assert status == 200
                    assert stats["completed_by_tenant"] == {"http-tenant": 1}
                    return job

        job = asyncio.run(main())
        with Session() as session:
            direct = session.run(S27_REQUEST)
        assert job["result"]["fingerprint"] == direct.fingerprint()

    def test_error_paths(self):
        async def main():
            async with JobService(profile=static_profile()) as service:
                async with HttpFrontend(service) as http:
                    port = http.port
                    status, _ = await _http_request(port, "GET", "/jobs/nope")
                    assert status == 404
                    status, _ = await _http_request(port, "GET", "/no-route")
                    assert status == 404
                    status, body = await _http_request(
                        port, "POST", "/jobs", {"tenant": "t"}
                    )
                    assert status == 400
                    assert "request" in body["error"]

        asyncio.run(main())

    @pytest.mark.parametrize("backend", ["numpy", "nope"])
    def test_unregistered_backend_is_a_400_before_any_lane(self, backend):
        request = S27_REQUEST.to_json()
        request["selection"] = {"backend": backend}

        async def main():
            async with JobService(profile=static_profile()) as service:
                async with HttpFrontend(service) as http:
                    status, body = await _http_request(
                        http.port, "POST", "/jobs", {"tenant": "t", "request": request}
                    )
                    assert status == 400
                    assert "['python', 'native', 'auto']" in body["error"]
                    assert service.stats()["jobs_submitted"] == 0

        asyncio.run(main())
