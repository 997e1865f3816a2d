"""CI smoke lane for BIST-as-a-service.

Starts the HTTP front end on an ephemeral port with **two executor
lanes**, submits the scheme for ``s27`` and ``syn298`` from two
different tenants over real sockets, and asserts the serving acceptance
contract:

* every served result's fingerprint equals a direct, service-free
  ``Session.run`` of the same request (bit-identity) — with two lanes,
  the two tenants' jobs genuinely run concurrently over the shared warm
  session, so this is the concurrent-serving parity check;
* both tenants' same-circuit results are identical to each other, and
  the shared trace cache shows hits — one tenant reused fault-free
  traces the other computed (cross-tenant cache warmth; with
  concurrent lanes the two snapshots don't order, so the check is on
  aggregate hits, not a first-vs-second delta);
* on the pinned 1-core runner (``REPRO_ASSUME_CPUS=1``) every job is
  planned ``serial`` with one worker — the one-core rule of
  :func:`~repro.sim.workerpool.resolve_execution` — and its result's
  ``execution`` records that same tier and count (the plan is what
  ran).  ``tenant-beta`` asks for ``workers=4`` to prove it.

Run:  REPRO_ASSUME_CPUS=1 python benchmarks/serve_smoke.py
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

from repro import RunRequest, SelectionConfig, Session
from repro.serve import HttpFrontend, JobService

CIRCUITS = ("s27", "syn298")
TENANTS = ("tenant-alpha", "tenant-beta")

#: Each tenant's selection config: the default, and four threads, which
#: the 1-core runner must still plan (and run) serially.
SELECTIONS = {"tenant-alpha": None, "tenant-beta": SelectionConfig(workers=4)}


async def http_json(port: int, method: str, path: str, payload=None):
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
    return int(head.split(None, 2)[1]), json.loads(data)


async def smoke() -> int:
    os.environ.setdefault("REPRO_ASSUME_CPUS", "1")

    # Two lanes: one per tenant, so the submissions below are served
    # concurrently over the shared warm session.
    service = JobService(lanes=2)
    async with service:
        async with HttpFrontend(service) as http:
            port = http.port
            print(f"service on {http.address} (lanes={service.lanes})")

            # Submit every circuit from both tenants before waiting on
            # anything, so the fair scheduler actually interleaves.
            jobs: dict[tuple[str, str], str] = {}
            for circuit in CIRCUITS:
                for tenant in TENANTS:
                    request = RunRequest(
                        kind="scheme",
                        circuit=circuit,
                        selection=SELECTIONS[tenant],
                    )
                    status, submitted = await http_json(
                        port,
                        "POST",
                        "/jobs",
                        {"tenant": tenant, "request": request.to_json()},
                    )
                    assert status == 202, submitted
                    jobs[(circuit, tenant)] = submitted["id"]

            results: dict[tuple[str, str], dict] = {}
            for key, job_id in jobs.items():
                status, job = await http_json(
                    port, "GET", f"/jobs/{job_id}?wait=1"
                )
                assert status == 200 and job["status"] == "done", job
                results[key] = job["result"]
                plan = job["plan"]
                ran = job["result"]["execution"]
                assert (plan["parallel"], plan["workers"]) == ("serial", 1), (
                    f"{key}: the 1-core runner planned {plan}"
                )
                assert (ran["parallel"], ran["workers"]) == ("serial", 1), (
                    f"{key}: planned serial x1 but ran {ran}"
                )

            status, stats = await http_json(port, "GET", "/stats")
            assert stats["jobs_completed"] == len(jobs), stats
            assert stats["lanes"] == 2, stats
            print(f"completed by tenant: {stats['completed_by_tenant']}")

    failures = 0
    for circuit in CIRCUITS:
        served = [results[(circuit, tenant)] for tenant in TENANTS]
        fingerprints = {r["fingerprint"] for r in served}
        if len(fingerprints) != 1:
            print(f"FAIL {circuit}: tenants disagree: {fingerprints}")
            failures += 1

        with Session() as session:
            direct = session.run(RunRequest(kind="scheme", circuit=circuit))
        if direct.fingerprint() not in fingerprints:
            print(
                f"FAIL {circuit}: served {fingerprints} != direct "
                f"{direct.fingerprint()}"
            )
            failures += 1
        else:
            print(f"ok {circuit}: served == direct ({direct.fingerprint()[:16]}...)")

        # With two lanes the tenants' jobs run concurrently, so their
        # completion-time snapshots don't order — assert aggregate reuse
        # instead: the shared cache must have served hits to *someone*
        # (the per-cache lock guarantees a cold trace is computed once).
        best_hits = max(
            r["trace_stats"].get("trace_hits", 0) for r in served
        )
        if best_hits <= 0:
            print(f"FAIL {circuit}: tenants show no trace-cache reuse")
            failures += 1
        else:
            print(f"ok {circuit}: shared cache served {best_hits} trace hits")

    return failures


def main() -> int:
    failures = asyncio.run(smoke())
    if failures:
        print(f"{failures} serve-smoke failure(s)")
        return 1
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
