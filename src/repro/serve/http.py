"""A stdlib-only JSON/HTTP front end over :class:`JobService`.

Minimal HTTP/1.1 on raw ``asyncio`` streams — no third-party web
framework, matching the repo's no-new-dependencies rule.  The surface is
deliberately tiny:

========  ==================  =============================================
method    path                meaning
========  ==================  =============================================
GET       ``/healthz``        liveness: ``{"status": "ok"}``
GET       ``/stats``          service counters and per-tenant queues
POST      ``/jobs``           submit ``{"tenant": ..., "request": {...}}``
GET       ``/jobs/<id>``      job status; ``?wait=1`` blocks to completion
========  ==================  =============================================

Responses are always ``application/json``; errors use conventional
status codes with ``{"error": ...}`` bodies.  Each connection serves one
request (``Connection: close``) — clients here are test harnesses and CI
smoke scripts, not browsers.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.request import RunRequest
from repro.errors import ReproError
from repro.serve.service import JobService

#: Largest accepted request body (a generous bound for inline .bench text).
MAX_BODY_BYTES = 4 * 1024 * 1024


class HttpFrontend:
    """Serve a :class:`JobService` over HTTP on ``host:port``.

    ``port=0`` binds an ephemeral port; the bound port is available as
    :attr:`port` after :meth:`start` (how the tests and the smoke lane
    avoid collisions).
    """

    def __init__(
        self, service: JobService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self.port}"

    async def start(self) -> None:
        if self._server is not None:
            return
        if not self._service.started:
            await self._service.start()
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "HttpFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # One request per connection
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond(reader)
        except Exception as exc:  # never let a bad request kill the server
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found"}.get(
            status, "Error"
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        try:
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("ascii", "replace").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line {request_line!r}"}
        method, target = parts[0].upper(), parts[1]
        path, _, query = target.partition("?")
        content_length = 0
        while True:
            line = (await reader.readline()).decode("ascii", "replace")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}
        if content_length > MAX_BODY_BYTES:
            return 400, {"error": "request body too large"}
        body = await reader.readexactly(content_length) if content_length else b""
        return await self._route(method, path, query, body)

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> tuple[int, dict]:
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}
        if method == "GET" and path == "/stats":
            return 200, self._service.stats()
        if method == "POST" and path == "/jobs":
            return await self._submit(body)
        if method == "GET" and path.startswith("/jobs/"):
            return await self._job_status(path[len("/jobs/") :], query)
        return 404, {"error": f"no route for {method} {path}"}

    async def _submit(self, body: bytes) -> tuple[int, dict]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"body is not JSON: {exc}"}
        if not isinstance(payload, dict) or "request" not in payload:
            return 400, {"error": 'expected {"tenant": ..., "request": {...}}'}
        tenant = payload.get("tenant", "")
        try:
            request = RunRequest.from_json(payload["request"])
            job_id = await self._service.submit(tenant, request)
        except (ReproError, TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        return 202, {"id": job_id, "status": "queued"}

    async def _job_status(self, job_id: str, query: str) -> tuple[int, dict]:
        try:
            job = self._service.get(job_id)
        except KeyError:
            return 404, {"error": f"unknown job {job_id!r}"}
        if "wait=1" in query.split("&") or query == "wait":
            job = await self._service.wait(job_id)
        return 200, job.to_json()
