"""Minimal stdlib asyncio HTTP/1.1 front for the admission service.

No web framework — ``asyncio.start_server`` plus a small, strict
HTTP/1.1 request reader (Content-Length bodies only, keep-alive by
default, bounded header/body sizes).  JSON in, JSON out.

Endpoints::

    GET  /healthz                 liveness probe
    GET  /v1/metrics              ServiceMetrics snapshot
    GET  /v1/devices              registered devices (summary list)
    POST /v1/devices              {"name": ..., "width": ...}
    GET  /v1/devices/<name>       resident tasks + metadata
    POST /v1/admit                {"device": ..., "task": {...}}
    POST /v1/trial                {"device": ..., "task": {...}}
    POST /v1/remove               {"device": ..., "name": ...}

Decision endpoints always answer 200 with the decision object —
``ok=false`` plus ``error`` covers inapplicable requests (unknown
device, duplicate name, absent removal target), keeping the admission
verdict and the transport status orthogonal.  400 is reserved for
malformed payloads, 404 for unknown routes, 413/431 for oversized
bodies/headers.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.service.app import AdmissionService
from repro.service.protocol import ProtocolError, decision_to_json, parse_request

#: Bounds a public-facing parser must have.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

_DECISION_OPS = {"/v1/admit": "add", "/v1/trial": "trial", "/v1/remove": "remove"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _reject_constant(literal: str) -> Any:
    """``json.loads`` hook for the non-standard ``NaN``/``Infinity``
    literals: the model has no use for non-finite values."""
    raise _HttpError(400, f"invalid JSON body: {literal} is not a number")


_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Content Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
}


class HttpServer:
    """Serve one :class:`AdmissionService` over HTTP/1.1."""

    def __init__(
        self, service: AdmissionService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (``port=0`` picks an ephemeral port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        server = await asyncio.start_server(self._handle, self.host, self.port)
        if self._server is not None:
            # A concurrent start() won the race while we were suspended.
            server.close()
            raise RuntimeError("server already started")
        self._server = server
        sock = server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]  # repro-lint: disable=RL013 -- ephemeral-port readback; the re-validation above serialized concurrent starts
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()

    # -- connection handling ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond(writer, exc.status, {"error": exc.message})
                    break
                if parsed is None:
                    break  # clean EOF between requests
                method, path, headers, body = parsed
                try:
                    status, payload = await self._route(method, path, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                except Exception as exc:  # pragma: no cover - defensive
                    status, payload = 500, {"error": f"internal error: {exc}"}
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._respond(writer, status, payload, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # connection closed between requests
            raise _HttpError(400, "truncated request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(431, "request head too large") from exc
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(431, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line: {line!r}")
            headers[key.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, f"bad content-length: {length_text!r}") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    # -- routing ---------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {"ok": True}
        if path == "/v1/metrics":
            self._require(method, "GET")
            return 200, self.service.snapshot()
        if path == "/v1/devices":
            if method == "GET":
                return 200, {"devices": self.service.list_devices()}
            self._require(method, "POST")
            obj = self._json(body)
            name, width = obj.get("name"), obj.get("width")
            if not isinstance(name, str) or not name:
                raise _HttpError(400, "device needs a non-empty string 'name'")
            if isinstance(width, bool) or not isinstance(width, int):
                raise _HttpError(400, "device needs an integer 'width'")
            if self.service.has_device(name):
                raise _HttpError(409, f"device already registered: {name}")
            try:
                return 201, self.service.create_device(name, width)
            except (ValueError, TypeError) as exc:
                raise _HttpError(400, str(exc)) from exc
        if path.startswith("/v1/devices/"):
            self._require(method, "GET")
            name = path[len("/v1/devices/"):]
            if not self.service.has_device(name):
                raise _HttpError(404, f"unknown device: {name}")
            return 200, self.service.device_info(name)
        if path in _DECISION_OPS:
            self._require(method, "POST")
            try:
                request = parse_request(_DECISION_OPS[path], self._json(body))
            except ProtocolError as exc:
                raise _HttpError(400, str(exc)) from exc
            decision = await self.service.submit(request)
            return 200, decision_to_json(decision)
        raise _HttpError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed")

    @staticmethod
    def _json(body: bytes) -> Dict[str, Any]:
        try:
            obj = json.loads(body or b"{}", parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(obj, dict):
            raise _HttpError(400, "JSON body must be an object")
        return obj

    # -- responses -------------------------------------------------------------

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
