"""Serving layer: session lifecycle, fair scheduling, service parity.

The contract under test: a warm
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

import pytest

import repro
from repro.atpg.config import AtpgConfig
from repro.circuits.catalog import load_circuit as load_circuit_by_name
from repro.core.request import RunRequest
from repro.core.session import Session, use_session
from repro.errors import ReproError
from repro.serve import FairScheduler, HttpFrontend, JobService, plan_execution
from repro.sim.backend import backend_unavailable_reason
from repro.sim.faultsim import make_fault_simulator
from repro.sim.seqsim import make_sequence_simulator
from repro.sim.workerpool import cpu_count

S27_REQUEST = RunRequest(kind="scheme", circuit="s27")


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
    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        # The one-core fallback is part of the policy; pin the machine.
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "4")

    def test_default_request_passes_through(self):
        plan = plan_execution(S27_REQUEST)
        assert plan.request is S27_REQUEST
        assert plan.workers == 1

    def test_explicit_count_is_planned_as_asked(self):
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=2),
        )
        plan = plan_execution(request)
        assert (plan.parallel, plan.workers) == ("threads", 2)
        assert plan.request.selection.workers == 2

    def test_auto_workers_resolve_to_one_per_core(self):
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=0),
        )
        plan = plan_execution(request)
        assert plan.workers == 4
        assert plan.request.selection.workers == 4

    def test_atpg_request_count_stays(self):
        request = RunRequest(
            kind="atpg",
            circuit="s27",
            atpg=AtpgConfig(workers=3),
        )
        plan = plan_execution(request)
        assert plan.workers == 3
        assert plan.request.atpg.workers == 3

    def test_plan_json_carries_the_tier(self):
        payload = plan_execution(S27_REQUEST).to_json()
        assert payload == {"workers": 1, "parallel": "serial"}

    def test_process_tier_is_rejected(self):
        """The deleted process tier is an unknown parallel mode."""
        with pytest.raises(ValueError, match="parallel"):
            repro.SelectionConfig(workers=4, parallel="processes")
        with pytest.raises(ValueError, match="parallel"):
            AtpgConfig(workers=4, parallel="processes")

    def test_auto_plans_chunk_threads(self):
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=0),
        )
        plan = plan_execution(request)
        assert (plan.parallel, plan.workers) == ("threads", 4)
        assert plan.request.selection.parallel == "threads"

    def test_one_core_plans_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=4),
        )
        plan = plan_execution(request)
        assert (plan.parallel, plan.workers) == ("serial", 1)
        assert plan.request.selection.workers == 1

    def test_explicit_serial_and_threads_stay(self):
        for tier in ("serial", "threads"):
            request = RunRequest(
                kind="scheme",
                circuit="s27",
                selection=repro.SelectionConfig(workers=4, parallel=tier),
            )
            assert plan_execution(request).parallel == tier


class TestSessionLifecycle:
    def test_session_takes_no_profile(self):
        with pytest.raises(TypeError, match="profile"):
            Session(profile=None)

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

    def test_compile_loads_and_hashes_a_name_once(self, monkeypatch):
        """A warm name skips the catalog load and the content hash; a
        name and an equal netlist still resolve to one object, in either
        order."""
        import repro.circuits.catalog as catalog
        import repro.core.session as session_module

        load_circuit = catalog.load_circuit
        hash_circuit = session_module.circuit_content_hash
        calls = []

        def loading(name):
            calls.append(("load", name))
            return load_circuit(name)

        def hashing(circuit):
            calls.append(("hash", circuit.name))
            return hash_circuit(circuit)

        monkeypatch.setattr(catalog, "load_circuit", loading)
        monkeypatch.setattr(session_module, "circuit_content_hash", hashing)
        with Session() as session:
            by_name = session.compile("syn298")
            assert session.compile("syn298") is by_name
            assert calls == [("load", "syn298"), ("hash", "syn298")]
            assert session.compile(load_circuit("syn298")) is by_name
        with Session() as session:
            by_netlist = session.compile(load_circuit("s27"))
            assert session.compile("s27") is by_netlist
            assert session.compile("s27") is by_netlist

    def test_adopting_a_compiled_circuit_hashes_it_once(self, monkeypatch):
        """Simulators handed a compiled circuit adopt it without
        re-hashing its netlist, and one object still stands for each
        content hash: a foreign object with the same content adopts the
        session's entry (hashed once too), a session-made one hashes
        nothing."""
        import repro.core.session as session_module
        from repro.circuits.catalog import load_circuit
        from repro.sim.compiled import CompiledCircuit

        hash_circuit = session_module.circuit_content_hash
        hashes = []

        def hashing(circuit):
            hashes.append(circuit.name)
            return hash_circuit(circuit)

        monkeypatch.setattr(session_module, "circuit_content_hash", hashing)
        with Session() as session:
            entry = session.compile(load_circuit("s27"))
            assert hashes == ["s27"]
            for _ in range(3):
                session.fault_simulator(entry)
                session.sequence_simulator(entry)
                assert session.compile(entry) is entry
            assert hashes == ["s27"]
            foreign = CompiledCircuit(load_circuit("s27"))
            for _ in range(3):
                assert session.compile(foreign) is entry
                session.fault_simulator(foreign)
            assert hashes == ["s27", "s27"]
            other = CompiledCircuit(load_circuit("syn298"))
            assert session.compile(other) is other
            assert session.compile("syn298") is other
            assert hashes == ["s27", "s27", "syn298", "syn298"]

    def test_warm_named_requests_hash_nothing(self, monkeypatch):
        """The content hash is computed once per netlist and kept with
        the memo entry: a warm named request — scheme or ATPG — and
        ``circuit_hash`` make no ``circuit_content_hash`` call."""
        import repro.core.request as request_module
        import repro.core.session as session_module

        hash_circuit = request_module.circuit_content_hash
        hashes = []

        def hashing(circuit):
            hashes.append(circuit.name)
            return hash_circuit(circuit)

        monkeypatch.setattr(session_module, "circuit_content_hash", hashing)
        monkeypatch.setattr(request_module, "circuit_content_hash", hashing)
        atpg_request = RunRequest(
            kind="atpg", circuit="s27", atpg=AtpgConfig(max_length=32)
        )
        with Session() as session:
            cold = session.run(S27_REQUEST)
            session.run(atpg_request)
            assert hashes == ["s27"]
            warm = session.run(S27_REQUEST)
            session.run(atpg_request)
            assert session.circuit_hash("s27") == cold.circuit_hash
            assert hashes == ["s27"]
        assert warm.fingerprint() == cold.fingerprint()
        assert cold.circuit_hash == hash_circuit(load_circuit_by_name("s27"))

    def test_requests_reuse_the_session_fault_universe(self, monkeypatch):
        """A scheme request's ATPG and an atpg request take the session
        scheme's fault universe: a warm session collapses no fault list
        again, and every fingerprint equals a fresh session's."""
        import repro.atpg.engine as engine_module
        import repro.core.scheme as scheme_module
        from repro.faults.universe import FaultUniverse

        built = []

        class CountingUniverse(FaultUniverse):
            def __init__(self, *args, **kwargs):
                built.append(args[0].name)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scheme_module, "FaultUniverse", CountingUniverse)
        monkeypatch.setattr(engine_module, "FaultUniverse", CountingUniverse)
        atpg = AtpgConfig(max_length=32)
        scheme_request = RunRequest(
            kind="scheme", circuit="s27", atpg=atpg, use_paper_t0=False
        )
        atpg_request = RunRequest(kind="atpg", circuit="s27", atpg=atpg)
        with Session() as session:
            first = session.run(scheme_request)
            assert built == ["s27"]
            second = session.run(scheme_request)
            generated = session.run(atpg_request)
            assert built == ["s27"]
        for request, result in (
            (scheme_request, first),
            (scheme_request, second),
            (atpg_request, generated),
        ):
            with Session() as fresh:
                assert fresh.run(request).fingerprint() == result.fingerprint()

    def test_session_simulators_follow_the_policy(
        self, s27, monkeypatch, require_backend
    ):
        """A session simulator is serial when ``workers`` is omitted or
        one core is usable, and threaded as asked otherwise."""
        require_backend("native")
        with Session() as session:
            monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
            assert session.fault_simulator(s27, backend="native").threads == 1
            assert (
                session.fault_simulator(s27, workers=2, backend="native").threads
                == 2
            )
            monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")
            assert (
                session.sequence_simulator(s27, workers=2, backend="native").threads
                == 1
            )

    def test_workers_none_means_what_the_factories_mean(
        self, s27, monkeypatch, require_backend
    ):
        """``workers=None`` is one thread per core on a session simulator
        as on the factories it wraps."""
        require_backend("native")
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        with Session() as session:
            pairs = (
                (session.fault_simulator, make_fault_simulator),
                (session.sequence_simulator, make_sequence_simulator),
            )
            for method, factory in pairs:
                threads = method(s27, backend="native", workers=None).threads
                assert threads == 2
                assert threads == factory(s27, backend="native", workers=None).threads


class TestRunDispatches:
    def test_good_machine_traces_are_counted(self):
        """Fault-free traces show up in the run's dispatch deltas."""
        with Session() as session:
            result = session.run(S27_REQUEST)
        dispatches = result.execution["dispatches"]
        assert dispatches["trace_calls"] >= 1
        assert dispatches["trace_steps"] >= dispatches["trace_calls"]


def _gil_free_engine() -> tuple[str, tuple[str, int]]:
    """An engine whose scans release the GIL where one is usable, and
    what a two-core ``workers=2`` run on it resolves to."""
    if backend_unavailable_reason("native") is None:
        return "native", ("threads", 2)
    return "python", ("serial", 1)


class TestExecutionRecord:
    def test_auto_workers_record_what_ran(self, monkeypatch):
        """``workers=0`` is recorded as the tier and count that ran."""
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        backend, expected = _gil_free_engine()
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=0, backend=backend),
        )
        with Session() as session:
            execution = session.run(request).execution
        assert execution["parallel_requested"] == "auto"
        assert execution["workers_requested"] == 0
        assert (execution["parallel"], execution["workers"]) == expected

    def test_gil_bound_engine_records_serial(self, monkeypatch):
        """The python engine holds the GIL, so a ``workers=2`` run on it
        is serial: the record and the served plan say so."""
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        request = RunRequest(
            kind="scheme",
            circuit="s27",
            selection=repro.SelectionConfig(workers=2),
        )
        with Session() as session:
            execution = session.run(request).execution
        assert (execution["parallel"], execution["workers"]) == ("serial", 1)
        assert execution["workers_requested"] == 2

        async def main():
            async with JobService() as service:
                return await service.wait(await service.submit("t", request))

        job = asyncio.run(main())
        assert job.status == "done", job.error
        assert (job.plan.parallel, job.plan.workers) == ("serial", 1)
        assert job.result.execution["parallel"] == "serial"

    def test_execution_record_keys(self):
        """What ran, as asked and as resolved, plus the dispatch counts:
        no profile and no planner notes."""
        with Session() as session:
            execution = session.run(S27_REQUEST).execution
        assert set(execution) == {
            "backend",
            "parallel_requested",
            "parallel",
            "workers_requested",
            "workers",
            "dispatches",
        }

    @pytest.mark.parametrize("cpus", ["2", "1"])
    def test_two_lane_plans_match_what_ran(self, cpus, monkeypatch):
        """The service plans each job once and the Session re-resolves
        the planned request: both must name the same tier and count, on
        one core as on two."""
        monkeypatch.setenv("REPRO_ASSUME_CPUS", cpus)
        selections = [
            None,
            repro.SelectionConfig(workers=0),
            repro.SelectionConfig(workers=2, parallel="threads"),
            repro.SelectionConfig(workers=3, parallel="serial"),
        ]

        async def main():
            async with JobService(lanes=2) as service:
                ids = [
                    await service.submit(
                        "t",
                        RunRequest(kind="scheme", circuit="s27", selection=sel),
                    )
                    for sel in selections
                ]
                return [await service.wait(job_id) for job_id in ids]

        jobs = asyncio.run(main())
        for job in jobs:
            assert job.status == "done", job.error
            execution = job.result.execution
            assert (job.plan.parallel, job.plan.workers) == (
                execution["parallel"],
                execution["workers"],
            )
        if cpus == "1":
            assert {(job.plan.parallel, job.plan.workers) for job in jobs} == {
                ("serial", 1)
            }

    def test_served_requests_run_the_client_count(self, monkeypatch):
        """On two cores a served ``workers=2`` request is planned and run
        as two chunk threads, and ``workers=0`` as one per core, on an
        engine that releases the GIL."""
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")
        backend, expected = _gil_free_engine()
        requests = [
            RunRequest(
                kind="scheme",
                circuit="s27",
                selection=repro.SelectionConfig(workers=workers, backend=backend),
            )
            for workers in (2, 0)
        ]

        async def main():
            async with JobService() as service:
                ids = [await service.submit("t", request) for request in requests]
                return [await service.wait(job_id) for job_id in ids]

        explicit, auto = asyncio.run(main())
        for job in (explicit, auto):
            assert job.status == "done", job.error
            assert (job.plan.parallel, job.plan.workers) == expected
            execution = job.result.execution
            assert (execution["parallel"], execution["workers"]) == expected
            assert "profile" not in execution and "notes" not in execution
        assert cpu_count() == 2


class TestJobService:
    def test_two_tenants_bit_identical_to_direct_session(self):
        async def main():
            async with JobService() as service:
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
            async with JobService() as service:
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
            async with JobService() as service:
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
            service = JobService()
            with pytest.raises(ReproError, match="before start"):
                await service.submit("t", S27_REQUEST)

        asyncio.run(main())

    def test_lanes_validation(self):
        with pytest.raises(ReproError, match="lane"):
            JobService(lanes=0)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("autotune", False),
            ("quick_calibration", True),
            ("profile_path", "machine_profile.json"),
        ],
    )
    def test_calibration_options_are_gone(self, option, value):
        """The service starts without measuring the machine."""
        with pytest.raises(TypeError, match=option):
            JobService(**{option: value})
        service = JobService()
        assert not hasattr(service, "profile")
        assert "profile" not in service.stats()

    def test_two_lanes_serve_two_tenants_bit_identical(self):
        """The acceptance criterion: lanes=2, concurrent tenants, exact
        fingerprints against a direct Session.run of the same request."""

        async def main():
            async with JobService(lanes=2) as service:
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

    def test_two_lanes_running_threaded_jobs_match_serial(
        self, fanned_out, monkeypatch, require_backend
    ):
        """Two lanes fan their jobs' dispatches out on the one chunk-thread
        pool at the same time; every fingerprint equals the serial run's."""
        require_backend("native")
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "2")

        def request(circuit, tier):
            workers = 2 if tier == "threads" else 1
            return RunRequest(
                kind="scheme",
                circuit=circuit,
                atpg=AtpgConfig(
                    backend="native", workers=workers, parallel=tier, max_length=64
                ),
                selection=repro.SelectionConfig(
                    backend="native", workers=workers, parallel=tier
                ),
            )

        circuits = ("syn298", "syn641")
        with Session() as session:
            serial = [session.run(request(c, "serial")).fingerprint() for c in circuits]

        async def main():
            async with JobService(lanes=2) as service:
                return await asyncio.gather(
                    *(
                        service.run(f"tenant-{c}", request(c, "threads"))
                        for c in circuits
                    )
                )

        with fanned_out() as pool_chunks:
            results = asyncio.run(main())
            assert pool_chunks() > 0
        assert [result.execution["parallel"] for result in results] == [
            "threads",
            "threads",
        ]
        assert [result.fingerprint() for result in results] == serial

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
            async with JobService(lanes=2) as service:
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

    def test_plan_recorded_on_job(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSUME_CPUS", "1")

        async def main():
            async with JobService() as service:
                request = RunRequest(
                    kind="scheme",
                    circuit="s27",
                    selection=repro.SelectionConfig(workers=4),
                )
                return await service.wait(await service.submit("t", request))

        job = asyncio.run(main())
        assert job.status == "done", job.error
        assert (job.plan.parallel, job.plan.workers) == ("serial", 1)
        assert job.to_json()["plan"] == {"workers": 1, "parallel": "serial"}

    def test_benchmark_compat_seam(self):
        """The end-to-end benchmark builds
        ``JobService(profile=static_profile(), lanes=2)``; the stub keeps
        that running.  Delete with the stub once the benchmark stops."""
        from repro.sim.autotune import static_profile

        async def main():
            service = JobService(profile=static_profile(), lanes=2)
            async with service:
                return service.lanes, await service.run("t", S27_REQUEST)

        lanes, result = asyncio.run(main())
        assert static_profile() is None
        assert lanes == 2
        with Session() as session:
            assert result.fingerprint() == session.run(S27_REQUEST).fingerprint()


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

    def test_concurrent_simulators_from_one_session(self, s27):
        """Two threads mint and run simulators on one session at once."""
        import threading

        with Session() as session:
            ready = threading.Barrier(2)
            errors = []

            def worker():
                try:
                    simulator = session.fault_simulator(s27)
                    ready.wait()  # both threads hold a live simulator
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
            async with JobService() as service:
                async with HttpFrontend(service) as http:
                    port = http.port
                    status, health = await _http_request(port, "GET", "/healthz")
                    assert (status, health) == (200, {"status": "ok"})

                    status, _ = await _http_request(port, "GET", "/profile")
                    assert status == 404

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
                    assert "profile" not in stats
                    return job

        job = asyncio.run(main())
        with Session() as session:
            direct = session.run(S27_REQUEST)
        assert job["result"]["fingerprint"] == direct.fingerprint()

    def test_error_paths(self):
        async def main():
            async with JobService() as service:
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
            async with JobService() as service:
                async with HttpFrontend(service) as http:
                    status, body = await _http_request(
                        http.port, "POST", "/jobs", {"tenant": "t", "request": request}
                    )
                    assert status == 400
                    assert "['python', 'native', 'auto']" in body["error"]
                    assert service.stats()["jobs_submitted"] == 0

        asyncio.run(main())

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("selection", "chunking", "count"),
            ("atpg", "compaction_method", "omission"),
        ],
    )
    def test_retired_config_field_is_a_400_naming_it(self, section, field, value):
        request = S27_REQUEST.to_json()
        request[section] = {field: value}

        async def main():
            async with JobService() as service:
                async with HttpFrontend(service) as http:
                    status, body = await _http_request(
                        http.port, "POST", "/jobs", {"tenant": "t", "request": request}
                    )
                    assert status == 400
                    assert field in body["error"]
                    assert service.stats()["jobs_submitted"] == 0

        asyncio.run(main())
