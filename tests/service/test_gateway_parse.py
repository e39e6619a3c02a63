"""Gateway wire handling: malformed requests get a 4xx, never a 500.

Drives :meth:`Gateway._handle` (the same entry point the asyncio server
calls per connection) with in-memory streams, against a stub backend
that validates submissions with the real request normalizer.
"""

import asyncio

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import gateway as gateway_module
from repro.service.gateway import MAX_BODY_BYTES, ROUTES, Gateway
from repro.service.jobs import Job, normalize_request


class _StubDaemon:
    """Backend with the daemon's handler surface and no side effects."""

    def submit(self, kind, body):
        params = normalize_request(kind, body)
        return Job.create(kind, params), "cached"

    def jobs(self):
        return []

    def get_job(self, job_id):
        return None

    def cancel(self, job_id):
        return None

    def healthz(self):
        return {"status": "ok"}

    def metrics_text(self):
        return ""


class _Writer:
    """Collects what the gateway writes back."""

    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


def status_for(request: bytes) -> int:
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(request)
        reader.feed_eof()
        writer = _Writer()
        await Gateway(_StubDaemon())._handle(reader, writer)
        return writer.data

    reply = asyncio.run(go())
    assert reply.startswith(b"HTTP/1.1 "), reply[:80]
    return int(reply.split(b" ", 2)[1])


def request_bytes(method, path, headers, body=b""):
    head = f"{method} {path} HTTP/1.1\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers) + "\r\n"
    return head.encode("latin-1") + body


class TestContentLength:
    def test_negative_length_is_a_400(self):
        req = request_bytes("POST", "/v1/cells", [("Content-Length", "-5")],
                            b"{}")
        assert status_for(req) == 400

    def test_signed_and_spaced_lengths_are_400(self):
        for value in ("+2", "1_0", "0x10", "", "2 2"):
            req = request_bytes("POST", "/v1/cells",
                                [("Content-Length", value)], b"{}")
            assert status_for(req) == 400, value

    def test_plain_length_still_parses(self):
        req = request_bytes("GET", "/v1/healthz", [("Content-Length", "2")],
                            b"{}")
        assert status_for(req) == 200

    def test_oversized_length_is_a_413(self):
        req = request_bytes("POST", "/v1/cells",
                            [("Content-Length", str(MAX_BODY_BYTES + 1))])
        assert status_for(req) == 413

    def test_deeply_nested_json_is_a_400(self):
        body = b"[" * 100_000
        req = request_bytes("POST", "/v1/cells",
                            [("Content-Length", str(len(body)))], body)
        assert status_for(req) == 400


def reply_to_stalled_client(partial: bytes) -> bytes:
    """Send *partial* to a listening gateway, never finish the request,
    and return everything the server sends before it closes."""
    async def go():
        gateway = Gateway(_StubDaemon())
        host, port = await gateway.start("127.0.0.1", 0)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(partial)
            await writer.drain()
            # read() returns only at EOF: the server closed the socket.
            reply = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return reply
        finally:
            await gateway.stop()

    return asyncio.run(go())


class TestReadDeadline:
    def test_half_a_header_block_gets_408_then_close(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "READ_TIMEOUT_S", 0.2)
        reply = reply_to_stalled_client(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n")
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n"), reply[:80]
        assert b"Connection: close" in reply
        assert b"timed out reading request headers" in reply

    def test_short_body_gets_408_then_close(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "READ_TIMEOUT_S", 0.2)
        reply = reply_to_stalled_client(request_bytes(
            "POST", "/v1/cells", [("Content-Length", "40")], b'{"work'))
        assert reply.startswith(b"HTTP/1.1 408 "), reply[:80]
        assert b"timed out reading request body" in reply


_METHODS = st.sampled_from(["GET", "POST", "DELETE", "PUT", "get", "X"])
_PATHS = st.one_of(
    st.sampled_from([pattern.replace("<id>", "abc") for _, pattern, _, _ in ROUTES]),
    st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=255),
            max_size=30),
)
_LENGTHS = st.one_of(
    st.integers(-10**7, 10**7).map(str),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=255),
            max_size=8),
)
_BODIES = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([b"{}", b"[]", b"null", b"1", b'"x"',
                     b'{"workload": "gcc", "config": "base"}',
                     b'{"workloads": 5}', b'{"priority": true}']),
)


class TestNoRequestYields500:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, data):
        assert status_for(data) != 500

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_METHODS, _PATHS, _LENGTHS, _BODIES)
    def test_request_shaped_bytes(self, method, path, length, body):
        req = request_bytes(method, path, [("Content-Length", length)], body)
        assert status_for(req) != 500
