"""BIST-as-a-service: the asynchronous serving layer.

The facade (:class:`repro.Session`) makes one process's caches — compiled
circuits, program LRUs, good-machine traces —
shareable across *calls*; this package makes them shareable across
*clients*.  A :class:`~repro.serve.service.JobService` owns one warm
session and executes :class:`~repro.core.request.RunRequest` jobs
submitted by many tenants, with:

* **fair scheduling** — a per-tenant round-robin
  (:class:`~repro.serve.scheduler.FairScheduler`) so one tenant's burst
  of submissions cannot starve another's single job;
* **one execution policy** — each job's tier and thread count come from
  :func:`~repro.sim.workerpool.resolve_execution`, the rule every
  library call uses;
* **bit-identical results** — a served job returns the same
  :class:`~repro.core.request.RunResult` fingerprint as running the
  request directly on a local session, which the serving tests and the
  CI smoke lane assert;
* **an optional stdlib-only HTTP front end**
  (:class:`~repro.serve.http.HttpFrontend`) speaking JSON over
  ``asyncio`` streams — no third-party web framework.
"""

from repro.serve.scheduler import ExecutionPlan, FairScheduler, plan_execution
from repro.serve.service import Job, JobService
from repro.serve.http import HttpFrontend

__all__ = [
    "ExecutionPlan",
    "FairScheduler",
    "plan_execution",
    "Job",
    "JobService",
    "HttpFrontend",
]
