"""Stdlib asyncio HTTP/1.1 front end for the simulation gateway.

No web framework: requests are parsed by hand (`Connection: close`
semantics, bounded header/body sizes), dispatched against the
:data:`ROUTES` table, and answered as JSON.  :data:`ROUTES` is data on
purpose — the daemon dispatches from it, the tests walk it, and CI
greps it against the ``### `METHOD /path``` headings in
``docs/SERVICE.md`` so the docs can never silently miss an endpoint.

Anything slow (request normalization, journal fsyncs, inline
analytical cells) runs via :func:`asyncio.to_thread`, keeping the
event loop free to answer health checks while sweeps queue and run on
the worker pool.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from .jobs import RequestError

#: Maximum bytes of headers and of body a request may carry.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a client gets to send its header block, and then its body;
#: a request still incomplete at either deadline is answered 408 and
#: its connection closed, so a stalled client cannot hold one forever.
READ_TIMEOUT_S = 30.0

#: The only accepted Content-Length spelling: plain decimal digits.
_DIGITS = re.compile(r"[0-9]+")

#: The full API surface: (method, path pattern, handler name, summary).
#: ``<id>`` segments match one non-slash path component.
ROUTES = (
    ("POST", "/v1/sweeps", "submit_sweep",
     "submit a workload x config sweep job"),
    ("POST", "/v1/cells", "submit_cell",
     "submit a single workload x config cell"),
    ("POST", "/v1/figures", "submit_figures",
     "submit a paper-figure derivation campaign"),
    ("GET", "/v1/jobs", "list_jobs",
     "list every known job"),
    ("GET", "/v1/jobs/<id>", "get_job",
     "job status and live progress"),
    ("GET", "/v1/jobs/<id>/result", "get_result",
     "fetch a finished job's result payload"),
    ("DELETE", "/v1/jobs/<id>", "cancel_job",
     "cancel a queued or running job"),
    ("GET", "/v1/healthz", "healthz",
     "liveness/readiness probe"),
    ("GET", "/v1/metrics", "metrics",
     "Prometheus exposition of service metrics"),
)


def _compile(pattern: str) -> "re.Pattern[str]":
    regex = "".join(
        r"(?P<id>[^/]+)" if part == "<id>" else re.escape(part)
        for part in re.split(r"(<id>)", pattern)
    )
    return re.compile(f"^{regex}$")


_COMPILED = tuple(
    (method, _compile(pattern), handler)
    for method, pattern, handler, _ in ROUTES
)


def match_route(method: str, path: str) -> Tuple[Optional[str], Dict[str, str], bool]:
    """Resolve a request to ``(handler, path_params, path_known)``.

    ``handler`` is None on a miss; ``path_known`` distinguishes a 405
    (path exists, wrong method) from a 404.
    """
    path_known = False
    for route_method, regex, handler in _COMPILED:
        found = regex.match(path)
        if found is None:
            continue
        path_known = True
        if route_method == method:
            return handler, found.groupdict(), True
    return None, {}, path_known


class HttpError(Exception):
    """An error with a definite HTTP status (converted to a JSON body)."""

    def __init__(self, status: int, message: str) -> None:
        """Record the *status* code and the one-line *message*."""
        super().__init__(message)
        self.status = status


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
            413: "Payload Too Large", 500: "Internal Server Error",
            503: "Service Unavailable"}


class Gateway:
    """The HTTP server; delegates every decision to the daemon.

    *daemon* provides the handler backend (see
    :class:`~repro.service.daemon.ServiceDaemon`); the gateway owns
    only wire concerns — parsing, routing, status codes,
    serialization.
    """

    def __init__(self, daemon: Any) -> None:
        """Bind to the backing *daemon* (not yet listening)."""
        self.daemon = daemon
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Start listening; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def stop(self) -> None:
        """Stop accepting connections (in-flight requests finish)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- wire handling -------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, body, content_type = await self._respond(reader)
        except Exception as exc:  # defensive: never kill the server loop
            status, body, content_type = 500, json.dumps(
                {"error": f"internal error: {exc}"}) + "\n", "application/json"
        try:
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> Tuple[int, str, str]:
        try:
            request = await self._parse(reader)
        except HttpError as exc:
            return exc.status, json.dumps({"error": str(exc)}) + "\n", \
                "application/json"
        method, path, body = request
        handler_name, params, path_known = match_route(method, path)
        if handler_name is None:
            if path_known:
                return 405, json.dumps(
                    {"error": f"{method} not allowed on {path}"}) + "\n", \
                    "application/json"
            return 404, json.dumps(
                {"error": f"no such endpoint: {method} {path}"}) + "\n", \
                "application/json"
        handler: Callable[..., Awaitable[Tuple[int, Any]]] = getattr(
            self, f"_h_{handler_name}")
        try:
            status, payload = await handler(body=body, **params)
        except RequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except HttpError as exc:
            status, payload = exc.status, {"error": str(exc)}
        if isinstance(payload, str):  # pre-rendered (metrics exposition)
            return status, payload, "text/plain; version=0.0.4; charset=utf-8"
        return status, json.dumps(payload, sort_keys=True) + "\n", \
            "application/json"

    async def _parse(self, reader: asyncio.StreamReader) -> Tuple[str, str, Any]:
        try:
            raw = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                         READ_TIMEOUT_S)
        except asyncio.LimitOverrunError:
            raise HttpError(413, "request headers too large")
        except (asyncio.IncompleteReadError, ConnectionError):
            raise HttpError(400, "truncated request")
        except asyncio.TimeoutError:
            raise HttpError(408, "timed out reading request headers")
        if len(raw) > MAX_HEADER_BYTES:
            raise HttpError(413, "request headers too large")
        head = raw.decode("latin-1").split("\r\n")
        parts = head[0].split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line: {head[0]!r}")
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers = {}
        for line in head[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = 0
        if "content-length" in headers:
            # Digits only: int() also accepts a sign, "_" separators and
            # surrounding whitespace, and a negative length must never
            # reach readexactly().
            raw_length = headers["content-length"]
            if not _DIGITS.fullmatch(raw_length):
                raise HttpError(400, "malformed Content-Length")
            length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        body: Any = None
        if length:
            try:
                data = await asyncio.wait_for(reader.readexactly(length),
                                              READ_TIMEOUT_S)
            except (asyncio.IncompleteReadError, ConnectionError):
                raise HttpError(400, "truncated request body")
            except asyncio.TimeoutError:
                raise HttpError(408, "timed out reading request body")
            try:
                body = json.loads(data)
            except (ValueError, RecursionError) as exc:
                # RecursionError: nesting deeper than the decoder's stack.
                raise HttpError(400, f"request body is not valid JSON: {exc}")
        return method.upper(), path, body

    # -- handlers ------------------------------------------------------------

    async def _submit(self, kind: str, body: Any) -> Tuple[int, Any]:
        try:
            job, how = await asyncio.to_thread(
                self.daemon.submit, kind, body if body is not None else {})
        except RuntimeError as exc:  # draining: not a client error
            raise HttpError(503, str(exc))
        status = 200 if how in ("cached", "inline") else 202
        return status, {"job": job.to_public(), "outcome": how}

    async def _h_submit_sweep(self, body: Any) -> Tuple[int, Any]:
        """POST /v1/sweeps."""
        return await self._submit("sweep", body)

    async def _h_submit_cell(self, body: Any) -> Tuple[int, Any]:
        """POST /v1/cells."""
        return await self._submit("cell", body)

    async def _h_submit_figures(self, body: Any) -> Tuple[int, Any]:
        """POST /v1/figures."""
        return await self._submit("figures", body)

    async def _h_list_jobs(self, body: Any) -> Tuple[int, Any]:
        """GET /v1/jobs."""
        jobs = await asyncio.to_thread(self.daemon.jobs)
        return 200, {"jobs": [job.to_public() for job in jobs]}

    def _job_or_404(self, job_id: str) -> Any:
        job = self.daemon.get_job(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return job

    async def _h_get_job(self, body: Any, id: str) -> Tuple[int, Any]:
        """GET /v1/jobs/<id>."""
        job = self._job_or_404(id)
        return 200, {"job": job.to_public()}

    async def _h_get_result(self, body: Any, id: str) -> Tuple[int, Any]:
        """GET /v1/jobs/<id>/result."""
        job = self._job_or_404(id)
        if job.state in ("queued", "running"):
            raise HttpError(
                409, f"job {id} is still {job.state}; poll GET /v1/jobs/{id}")
        return 200, {"job": job.to_public(include_result=True)}

    async def _h_cancel_job(self, body: Any, id: str) -> Tuple[int, Any]:
        """DELETE /v1/jobs/<id>."""
        job = await asyncio.to_thread(self.daemon.cancel, id)
        if job is None:
            raise HttpError(404, f"no such job: {id}")
        return 200, {"job": job.to_public()}

    async def _h_healthz(self, body: Any) -> Tuple[int, Any]:
        """GET /v1/healthz."""
        health = self.daemon.healthz()
        return (200 if health.get("status") == "ok" else 503), health

    async def _h_metrics(self, body: Any) -> Tuple[int, Any]:
        """GET /v1/metrics."""
        return 200, self.daemon.metrics_text()
