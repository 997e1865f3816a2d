"""The asynchronous job service: one warm session, many tenants.

:class:`JobService` is the in-process heart of BIST-as-a-service.  It
owns exactly one :class:`repro.Session` (``own_caches=True`` — service
shutdown releases the trace caches) and executes every
submitted :class:`~repro.core.request.RunRequest` against it, so all
tenants share compiled circuits, program LRUs and good-machine traces:
the second request for a circuit — from *any* tenant — reuses the
fault-free trace the first one computed, visible as ``trace_stats``
hits in its result.

Jobs run on ``lanes`` concurrent executor threads (default one).  The
session is concurrency-safe — its registries are lock-guarded — and
ctypes releases the GIL for the native
kernels' whole C calls, so two lanes really do overlap on the hot
loops.  Lanes running threaded jobs share the process-global chunk
pool, whose callers drain their own chunks, so no lane ever waits on
another's dispatch.
Submission, status polling and completion waits are all
``asyncio``-friendly and the order of dispatch is the per-tenant
round-robin of :class:`~repro.serve.scheduler.FairScheduler`, never raw
FIFO.  Every job's tier and worker count are planned once, at
submission (:func:`~repro.serve.scheduler.plan_execution`, on the
session's compiled circuit).
"""

from __future__ import annotations

import asyncio
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.request import RunRequest, RunResult
from repro.core.session import Session
from repro.errors import ReproError
from repro.serve.scheduler import ExecutionPlan, FairScheduler, plan_execution

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One submitted request and everything known about its execution."""

    id: str
    tenant: str
    request: RunRequest
    plan: ExecutionPlan
    status: str = "queued"
    result: RunResult | None = None
    error: str | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def to_json(self) -> dict:
        """The wire form of the job (what ``GET /jobs/<id>`` returns)."""
        payload = {
            "id": self.id,
            "tenant": self.tenant,
            "status": self.status,
            "plan": self.plan.to_json(),
        }
        if self.result is not None:
            payload["result"] = self.result.to_json()
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobService:
    """Accept jobs from many tenants; run them on one warm session.

    Usage::

        service = JobService()
        await service.start()
        job_id = await service.submit("tenant-a", request)
        job = await service.wait(job_id)
        await service.stop()

    ``lanes`` is the number of jobs that may execute concurrently (each
    on its own executor thread over the one warm session).
    """

    def __init__(self, profile=None, lanes: int = 1) -> None:
        # ``profile`` is accepted and ignored: the end-to-end benchmark's
        # serve runner still passes ``profile=static_profile()`` (which
        # is ``None``).  Remove it once the benchmark stops.
        if lanes < 1:
            raise ReproError(f"a JobService needs >= 1 lane (got {lanes})")
        self._lanes = int(lanes)
        self._session: Session | None = None
        self._scheduler = FairScheduler()
        self._jobs: dict[str, Job] = {}
        self._counter = 0
        self._completed = 0
        self._failed = 0
        self._per_tenant: dict[str, int] = {}
        self._wakeup: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._running: set[asyncio.Task] = set()
        self._executor: ThreadPoolExecutor | None = None
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def lanes(self) -> int:
        return self._lanes

    async def start(self) -> None:
        """Open the session and the lanes, start dispatching."""
        if self._started:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=self._lanes, thread_name_prefix="repro-serve"
        )
        self._session = Session(own_caches=True)
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatch"
        )
        self._started = True

    async def stop(self) -> None:
        """Drain nothing, cancel the dispatcher, release the session."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for task in list(self._running):
            task.cancel()
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)
        self._running.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._session is not None:
            self._session.close()
            self._session = None
        self._started = False
        self._stopping = False

    async def __aenter__(self) -> "JobService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------
    async def submit(self, tenant: str, request: RunRequest) -> str:
        """Queue ``request`` for ``tenant``; returns the job id."""
        if not self._started or self._session is None:
            raise ReproError("JobService.submit before start()")
        if not tenant:
            raise ReproError("a job needs a non-empty tenant name")
        try:
            compiled = self._session.request_circuit(request)
        except ReproError:
            compiled = None  # the job fails with this error when it runs
        self._counter += 1
        job = Job(
            id=f"job-{self._counter:06d}",
            tenant=tenant,
            request=request,
            plan=plan_execution(request, compiled),
        )
        self._jobs[job.id] = job
        self._scheduler.push(tenant, job)
        self._wakeup.set()
        return job.id

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    async def wait(self, job_id: str) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.get(job_id)
        await job.done.wait()
        return job

    async def run(self, tenant: str, request: RunRequest) -> RunResult:
        """Submit, wait, and return the result (raises on job failure)."""
        job = await self.wait(await self.submit(tenant, request))
        if job.status == "failed":
            raise ReproError(f"job {job.id} failed: {job.error}")
        assert job.result is not None
        return job.result

    def stats(self) -> dict:
        """Service counters for the ``/stats`` endpoint."""
        return {
            "started": self._started,
            "lanes": self._lanes,
            "jobs_submitted": self._counter,
            "jobs_completed": self._completed,
            "jobs_failed": self._failed,
            "jobs_running": len(self._running),
            "jobs_queued": len(self._scheduler),
            "queued_by_tenant": self._scheduler.pending(),
            "completed_by_tenant": dict(sorted(self._per_tenant.items())),
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Keep up to ``lanes`` jobs in flight, fair-ordered, forever.

        The loop only *launches* work: each popped job becomes its own
        task so a long job on one lane never delays dispatch to a free
        lane.  It sleeps when the queue is empty or every lane is busy;
        submissions and job completions both set the wakeup event.
        """
        while True:
            if len(self._running) >= self._lanes:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            entry = self._scheduler.pop()
            if entry is None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            _, job = entry
            task = asyncio.create_task(
                self._run_job(job), name=f"repro-serve-{job.id}"
            )
            self._running.add(task)
            task.add_done_callback(self._lane_freed)

    def _lane_freed(self, task: asyncio.Task) -> None:
        self._running.discard(task)
        if self._wakeup is not None:
            self._wakeup.set()

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.status = "running"
        try:
            job.result = await loop.run_in_executor(
                self._executor, self._session.run, job.plan.request
            )
            job.status = "done"
            self._completed += 1
            self._per_tenant[job.tenant] = (
                self._per_tenant.get(job.tenant, 0) + 1
            )
        except asyncio.CancelledError:
            job.status = "failed"
            job.error = "service stopped"
            job.done.set()
            raise
        except Exception:
            job.status = "failed"
            job.error = traceback.format_exc(limit=8)
            self._failed += 1
        job.done.set()
