"""Fair scheduling and execution planning.

Two concerns live here, both deliberately free of asyncio so they are
trivially unit-testable:

* :class:`FairScheduler` — per-tenant FIFO queues drained round-robin.
  Each tenant keeps its own submission order, but the *next* job always
  comes from the tenant that has waited longest since last being served,
  so a tenant submitting a hundred jobs cannot starve a tenant
  submitting one.
* :func:`plan_execution` — rewrite a :class:`~repro.core.request.RunRequest`
  to the tier and worker count
  :func:`~repro.sim.workerpool.resolve_execution` picks for it: a
  client leaving ``workers=0`` ("auto") gets one thread per usable
  core, and any request on a one-core machine is planned serial.  The
  :class:`~repro.core.session.Session` resolves the rewritten request
  to the same plan, so the plan is what runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.atpg.config import AtpgConfig
from repro.core.config import SelectionConfig
from repro.core.request import RunRequest
from repro.sim.workerpool import resolve_execution


@dataclass(frozen=True)
class ExecutionPlan:
    """How the service decided to run one request."""

    request: RunRequest
    workers: int
    parallel: str = "serial"  # the resolved distribution tier

    def to_json(self) -> dict:
        return {"workers": self.workers, "parallel": self.parallel}


def plan_execution(request: RunRequest) -> ExecutionPlan:
    """Resolve ``request``'s execution.

    The request's own config (its defaults when it carries none) goes
    through :func:`~repro.sim.workerpool.resolve_execution`, and the
    returned request carries the resolved tier and count so nothing
    downstream re-decides differently.
    """
    if request.kind == "atpg":
        config = request.atpg or AtpgConfig()
    else:
        config = request.selection or SelectionConfig()
    tier, count = resolve_execution(config.parallel, config.workers)
    return ExecutionPlan(
        request=request.with_workers(count).with_parallel(tier),
        workers=count,
        parallel=tier,
    )


@dataclass
class FairScheduler:
    """Per-tenant FIFO queues drained round-robin.

    ``push(tenant, item)`` appends to the tenant's queue; ``pop()``
    returns the next ``(tenant, item)`` in round-robin order over the
    tenants that currently have work.  A tenant is visited once per
    rotation no matter how deep its queue is.
    """

    _queues: dict[str, deque] = field(default_factory=dict)
    _ring: deque = field(default_factory=deque)

    def push(self, tenant: str, item) -> None:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue:
            # Joins the rotation at the back: existing waiters go first.
            self._ring.append(tenant)
        queue.append(item)

    def pop(self):
        """Next ``(tenant, item)`` or ``None`` when idle."""
        while self._ring:
            tenant = self._ring.popleft()
            queue = self._queues.get(tenant)
            if not queue:
                continue
            item = queue.popleft()
            if queue:
                # Still has work: rejoin the rotation at the back.
                self._ring.append(tenant)
            return tenant, item
        return None

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def pending(self) -> dict[str, int]:
        """``{tenant: queued jobs}`` for observability endpoints."""
        return {
            tenant: len(queue)
            for tenant, queue in sorted(self._queues.items())
            if queue
        }
