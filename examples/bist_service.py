"""BIST-as-a-service: two tenants share one warm service.

Demonstrates the serving layer end to end, in-process (no sockets
needed — see ``repro-bist serve`` for the HTTP front end):

1. start a :class:`~repro.serve.JobService` (one warm session, fair
   scheduler);
2. two tenants submit the same circuit; the per-tenant round-robin
   interleaves them;
3. both results are bit-identical to a direct ``Session.run`` — and to
   each other — by :meth:`RunResult.fingerprint`;
4. the good-machine trace-cache counters prove the second request
   reused the fault-free trace the first one computed.

Run:  python examples/bist_service.py
"""

from __future__ import annotations

import asyncio

from repro import RunRequest, Session
from repro.serve import JobService


async def main() -> None:
    request = RunRequest(kind="scheme", circuit="s27", label="demo")

    async with JobService() as service:
        print(f"service up: lanes={service.lanes}")

        # Two tenants, same circuit, queued before either runs: the
        # round-robin serves one job per tenant per rotation.
        job_a = await service.submit("tenant-a", request)
        job_b = await service.submit("tenant-b", request)
        done_a = await service.wait(job_a)
        done_b = await service.wait(job_b)

        print(f"\n{done_a.id} ({done_a.tenant}): {done_a.status}")
        print(f"{done_b.id} ({done_b.tenant}): {done_b.status}")

        fp_a = done_a.result.fingerprint()
        fp_b = done_b.result.fingerprint()
        print(f"\nfingerprints equal across tenants: {fp_a == fp_b}")

        stats_a = done_a.result.trace_stats
        stats_b = done_b.result.trace_stats
        print(
            "trace cache across requests: job A ended at "
            f"{stats_a['trace_misses']} misses/{stats_a['trace_hits']} hits; "
            f"job B added {stats_b['trace_hits'] - stats_a['trace_hits']} hits "
            f"and only {stats_b['trace_misses'] - stats_a['trace_misses']} "
            "misses — it reused A's fault-free traces"
        )

        print(f"\nservice stats: {service.stats()['completed_by_tenant']}")

    # The parity contract: a direct, service-free session produces the
    # same deterministic payload bit for bit.
    with Session() as session:
        direct = session.run(request)
    print(f"served == direct fingerprint: {direct.fingerprint() == fp_a}")


if __name__ == "__main__":
    asyncio.run(main())
