"""HTTP layer of the admission service: endpoints, errors, coalescing.

Every test runs a real :class:`HttpServer` on an ephemeral loopback
port inside ``asyncio.run`` and speaks raw HTTP/1.1 over
``asyncio.open_connection`` — no HTTP client dependency, same as the
server side.
"""

import asyncio
import json

import pytest

from repro.service import AdmissionService, BatchConfig, HttpServer
from repro.service.cli import build_parser

TASK = {"name": "a", "wcet": 1.0, "period": 10.0, "area": 2}


async def raw_call(host, port, method, path, body=None, reader_writer=None):
    """One request; returns ``(status, parsed_json, reader, writer)`` so
    keep-alive tests can reuse the connection."""
    if reader_writer is None:
        reader, writer = await asyncio.open_connection(host, port)
    else:
        reader, writer = reader_writer
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        key, _, value = line.decode().partition(":")
        headers[key.lower().strip()] = value.strip()
    data = await reader.readexactly(int(headers.get("content-length", 0)))
    return status, json.loads(data), reader, writer


def with_service(coro_fn, **service_kwargs):
    """Run ``coro_fn(service, host, port, call)`` against a live server."""

    async def main():
        service = AdmissionService(**service_kwargs)
        server = HttpServer(service)
        await service.start()
        host, port = await server.start()

        async def call(method, path, body=None):
            status, data, _, writer = await raw_call(host, port, method, path, body)
            writer.close()
            return status, data

        try:
            return await coro_fn(service, host, port, call)
        finally:
            await server.close()
            await service.close()

    return asyncio.run(main())


def test_health_devices_and_decisions():
    async def scenario(service, host, port, call):
        assert await call("GET", "/healthz") == (200, {"ok": True})
        status, info = await call("POST", "/v1/devices", {"name": "d", "width": 64})
        assert status == 201 and info["capacity"] == 64 and info["resident"] == 0
        status, listing = await call("GET", "/v1/devices")
        assert status == 200 and [d["name"] for d in listing["devices"]] == ["d"]

        status, dec = await call("POST", "/v1/admit", {"device": "d", "task": TASK})
        assert status == 200 and dec["ok"]
        assert (dec["via"], dec["member"]) == ("state", "DP")  # exact check, empty device
        status, dec = await call(
            "POST", "/v1/trial", {"device": "d", "task": dict(TASK, name="b")}
        )
        assert status == 200 and dec["ok"] and dec["op"] == "trial"
        status, info = await call("GET", "/v1/devices/d")
        assert status == 200 and [t["name"] for t in info["tasks"]] == ["a"]
        status, dec = await call("POST", "/v1/remove", {"device": "d", "name": "a"})
        assert status == 200 and dec["ok"]
        status, dec = await call("POST", "/v1/remove", {"device": "d", "name": "a"})
        assert status == 200 and not dec["ok"] and dec["error"] == "task not resident"

        status, snap = await call("GET", "/v1/metrics")
        assert status == 200
        assert snap["decisions_total"] == 4

    with_service(scenario)


def test_http_error_paths():
    async def scenario(service, host, port, call):
        await call("POST", "/v1/devices", {"name": "d", "width": 64})
        assert (await call("GET", "/v1/missing"))[0] == 404
        assert (await call("GET", "/v1/devices/ghost"))[0] == 404
        assert (await call("POST", "/healthz"))[0] == 405
        assert (await call("POST", "/v1/devices", {"name": "d", "width": 64}))[0] == 409
        assert (await call("POST", "/v1/devices", {"name": "", "width": 64}))[0] == 400
        assert (await call("POST", "/v1/devices", {"name": "x", "width": True}))[0] == 400
        assert (await call("POST", "/v1/devices", {"name": "x", "width": -3}))[0] == 400
        assert (await call("POST", "/v1/admit", {"device": "d"}))[0] == 400
        assert (await call("POST", "/v1/admit", {"device": "d", "task": {}}))[0] == 400
        assert (await call("POST", "/v1/remove", {"device": "d"}))[0] == 400
        # unknown device is a *decision* error, not a transport error
        status, dec = await call(
            "POST", "/v1/admit", {"device": "ghost", "task": TASK}
        )
        assert status == 200 and not dec["ok"] and dec["error"] == "unknown device"

    with_service(scenario)


def test_malformed_payload_is_400():
    async def scenario(service, host, port, call):
        reader, writer = await asyncio.open_connection(host, port)
        body = b"{not json"
        writer.write(
            (
                f"POST /v1/admit HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        assert status == 400
        writer.close()

    with_service(scenario)


def test_non_finite_numbers_are_400_and_service_keeps_serving():
    """No HTTP body can put a non-finite task into a device: the
    ``NaN``/``Infinity`` literals, overflowing exponents and integers
    too large for a float are all rejected at the boundary, and so is a
    device too wide for a float."""

    async def post_raw(host, port, body):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            (
                f"POST /v1/admit HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        writer.close()
        return status

    task = b'{"device": "d", "task": {"name": "a", "period": 10, "wcet": %s}}'
    probes = [b"NaN", b"Infinity", b"-Infinity", b"1e999", b"1" + b"0" * 400]

    async def scenario(service, host, port, call):
        await call("POST", "/v1/devices", {"name": "d", "width": 64})
        for literal in probes:
            assert await post_raw(host, port, task % literal) == 400, literal
        status, err = await call(
            "POST", "/v1/devices", {"name": "huge", "width": 10**400}
        )
        assert status == 400 and "2**53" in err["error"]
        assert not service.has_device("huge")
        status, info = await call("GET", "/v1/devices/d")
        assert status == 200 and info["resident"] == 0
        status, dec = await call("POST", "/v1/admit", {"device": "d", "task": TASK})
        assert status == 200 and dec["ok"]

    with_service(scenario)


@pytest.mark.parametrize("length", ["-5", "+3", "1_0"])
def test_malformed_content_length_is_400(length):
    """Content-Length is ``1*DIGIT``: a sign or an underscore (both of
    which ``int()`` accepts) is a 400, never a dropped connection or a
    misframed keep-alive stream, and the server keeps serving."""

    async def scenario(service, host, port, call):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            (
                f"POST /v1/devices HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {length}\r\n\r\n{{}}"
            ).encode()
        )
        await writer.drain()
        # Bounded wait: a misframed stream leaves the server waiting for
        # body bytes that never come.
        status_line = await asyncio.wait_for(reader.readline(), 10)
        assert status_line.split()[1:2] == [b"400"], status_line
        writer.close()
        assert (await call("GET", "/healthz")) == (200, {"ok": True})

    with_service(scenario)


def test_keep_alive_reuses_one_connection():
    async def scenario(service, host, port, call):
        await call("POST", "/v1/devices", {"name": "d", "width": 64})
        reader, writer = await asyncio.open_connection(host, port)
        for i in range(5):
            status, dec, reader, writer = await raw_call(
                host, port, "POST", "/v1/admit",
                {"device": "d", "task": dict(TASK, name=f"t{i}")},
                reader_writer=(reader, writer),
            )
            assert status == 200 and dec["ok"]
        writer.close()
        status, info = await call("GET", "/v1/devices/d")
        assert info["resident"] == 5

    with_service(scenario)


def test_concurrent_requests_coalesce_into_batches():
    async def scenario(service, host, port, call):
        await call("POST", "/v1/devices", {"name": "d", "width": 256})

        async def admit(i):
            return await call(
                "POST", "/v1/admit",
                {"device": "d",
                 "task": {"name": f"c{i}", "wcet": 0.2, "period": 60.0, "area": 1}},
            )

        results = await asyncio.gather(*[admit(i) for i in range(80)])
        assert all(status == 200 and dec["ok"] for status, dec in results)
        status, snap = await call("GET", "/v1/metrics")
        decision_batches = {
            int(size): count
            for size, count in snap["batch_size_histogram"].items()
        }
        assert sum(size * n for size, n in decision_batches.items()) >= 80
        assert max(decision_batches) > 1  # concurrency actually coalesced
        assert snap["certifier"]["certified"] > 0  # fast path engaged
        assert snap["latency_seconds"]["p99"] >= snap["latency_seconds"]["p50"]

    with_service(scenario, config=BatchConfig(max_batch=64, max_wait=0.005))


def test_service_routes_every_device():
    async def scenario(service, host, port, call):
        for i in range(6):
            await call("POST", "/v1/devices", {"name": f"dev{i}", "width": 64})
        status, listing = await call("GET", "/v1/devices")
        assert [d["name"] for d in listing["devices"]] == [f"dev{i}" for i in range(6)]
        # every decision reaches its own device's state
        for i in range(6):
            status, dec = await call(
                "POST", "/v1/admit",
                {"device": f"dev{i}", "task": dict(TASK, name="only")},
            )
            assert status == 200 and dec["ok"]
        for i in range(6):
            status, info = await call("GET", f"/v1/devices/dev{i}")
            assert info["resident"] == 1
        status, snap = await call("GET", "/v1/metrics")
        assert snap["devices"] == 6

    with_service(scenario)


@pytest.mark.parametrize(
    "flag", [["--array-backend", "numpy"], ["--no-certifier"]],
    ids=["array-backend", "no-certifier"],
)
def test_removed_service_flags_rejected(flag, capsys):
    """One exact path: ``repro-service`` takes neither a kernel-backend
    nor a certifier switch any more."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--device", "d=64", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


async def send_raw(host, port, data, *, eof=False):
    """Write raw bytes on a fresh connection; returns ``(status, json)``
    of the single response (the server closes after a framing error or a
    ``Connection: close`` request)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(data)
    if eof:
        writer.write_eof()
    await writer.drain()
    response = await asyncio.wait_for(reader.read(), 10)
    writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.mark.parametrize(
    "data, eof, status, message",
    [
        (b"GET /healthz HTTP/1.1\r\nHost: t", True, 400, "truncated request head"),
        (b"GET /healthz\r\n\r\n", False, 400, "malformed request line"),
        (b"GET /healthz HTTP/1.1\r\nno-colon\r\n\r\n", False, 400, "malformed header line"),
        (
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (20 * 1024) + b"\r\n\r\n",
            False, 431, "request head too large",
        ),
        (
            b"POST /v1/devices HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
            False, 413, "request body too large",
        ),
        (
            b"POST /v1/devices HTTP/1.1\r\nContent-Length: 6\r\nConnection: close\r\n\r\n[1, 2]",
            False, 400, "JSON body must be an object",
        ),
    ],
    ids=["truncated-head", "bad-request-line", "bad-header-line", "head-too-large",
         "body-too-large", "non-object-json"],
)
def test_malformed_request_is_rejected(data, eof, status, message):
    """Each framing or body error gets its status and reason, and the
    server keeps serving other connections."""

    async def scenario(service, host, port, call):
        got_status, err = await send_raw(host, port, data, eof=eof)
        assert got_status == status
        assert err["error"].startswith(message)
        assert (await call("GET", "/healthz")) == (200, {"ok": True})

    with_service(scenario)


def test_connection_close_header_ends_the_connection():
    async def scenario(service, host, port, call):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        await writer.drain()
        response = await asyncio.wait_for(reader.read(), 10)  # EOF after one reply
        writer.close()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"200"
        assert b"Connection: close" in head
        assert json.loads(body) == {"ok": True}

    with_service(scenario)


def test_server_and_service_start_only_once():
    async def main():
        service = AdmissionService()
        server = HttpServer(service)
        await service.start()
        await server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                await server.start()
            with pytest.raises(RuntimeError, match="already started"):
                await service.start()
        finally:
            await server.close()
            await server.close()  # a second close is a no-op
            await service.close()

    asyncio.run(main())
