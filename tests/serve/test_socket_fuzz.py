"""Fuzz the serve socket: untrusted bytes in, a well-formed answer out.

Whatever a client sends — random or truncated heads, oversized heads,
hostile ``Content-Length`` values, short bodies, pipelined requests,
hostile JSON — the server:

* answers with a status from :data:`ALLOWED`, never a 500;
* answers every complete head (and every oversized one) with exactly
  one well-formed response, never a zero-byte close;
* closes every connection within ``READ_TIMEOUT_S`` of accepting it,
  however slowly the client drips its request.

One server runs on a background event loop for the whole module, with
``READ_TIMEOUT_S`` patched small so the slow-drip cases stay fast.
Examples are derandomized, so every run sends the same bytes.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.http.wire import parse_response
from repro.serve import server as serve_server
from repro.serve.app import AnalysisService, ServeConfig
from repro.serve.server import MAX_HEADER_BYTES, ServeServer

ALLOWED = {200, 400, 404, 405, 413, 429, 431, 503}
#: ``READ_TIMEOUT_S`` while this module runs.
READ_TIMEOUT = 0.7
#: Gap between a slow client's sends.
DRIP_INTERVAL = 0.2
#: Scheduling slack on top of ``READ_TIMEOUT`` — under the extra time a
#: per-phase (head, then body) timeout would allow the last case below.
SLACK_S = 0.3
KB = 1024

FUZZ_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def port():
    """A real server on a background loop; its port."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serve_server, "READ_TIMEOUT_S", READ_TIMEOUT)
        # Exact simulations stay tiny so hostile sizes cost nothing.
        service = AnalysisService(
            ServeConfig(max_body_bytes=64 * KB, exact_max_size=64 * KB)
        )
        server = ServeServer(service, port=0)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        done = asyncio.run_coroutine_threadsafe(
            server.run_until_drained(announce=False), loop
        )
        deadline = time.monotonic() + 5.0
        while server.port == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        try:
            yield server.port
        finally:
            loop.call_soon_threadsafe(server.initiate_drain)
            assert done.result(timeout=10.0) == 0
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            loop.close()


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload``, half-close, and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        return _read_all(sock)


def drip(port: int, chunks, interval: float):
    """Send ``chunks`` ``interval`` apart, never half-closing, until half
    an interval before the read deadline; then wait for the answer.
    Nothing is sent near the deadline: a byte arriving as the server
    closes resets the connection and loses the answer.  Returns
    (bytes, seconds)."""
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        for chunk in chunks:
            if time.monotonic() - started > READ_TIMEOUT - interval / 2:
                break
            sock.sendall(chunk)
            time.sleep(interval)
        raw = _read_all(sock)
    return raw, time.monotonic() - started


def expects_response(payload: bytes) -> bool:
    """Whether the server must answer: a complete or oversized head."""
    return b"\r\n\r\n" in payload or len(payload) > MAX_HEADER_BYTES


def check(payload: bytes, raw: bytes) -> int:
    """The contract for one exchange; returns the status (0: none)."""
    if not raw:
        assert not expects_response(payload), "complete head, zero-byte close"
        return 0
    response = parse_response(raw)
    assert response.status in ALLOWED, raw[:200]
    # Exactly one well-formed response, nothing after it.
    assert response.serialize() == raw
    return response.status


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_METHODS = st.sampled_from(["GET", "POST", "PUT", "HEAD", "DELETE", "G\tET"])
_TARGETS = st.sampled_from(
    [
        "/healthz",
        "/readyz",
        "/metrics",
        "/v1/analyze",
        "/v1/recommend",
        "/v1/analyze?x=1",
        "/nope",
        "*",
        "/\x7f\xff",
    ]
)
_VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTX/1.1", ""])
_HOSTILE_HEADERS = st.sampled_from(
    [
        "Host: t",
        "Ho st: t",
        "Host",
        ": no-name",
        "X-Deadline-Ms: -1",
        "X-Deadline-Ms: 999999999999",
        "X-Deadline-Ms: soon",
        "Content-Type: application/json",
        "Transfer-Encoding: chunked",
        "X-\xe9t\xe9: latin-1",
    ]
)
#: How the head frames the body.
_FRAMINGS = st.sampled_from(
    ["exact", "none", "short", "long", "duplicate", "negative", "text", "huge", "digits"]
)

_VENDORS = st.sampled_from(["akamai", "cloudflare", "gcore", "cdn77", "nope", ""])
_VALUES = st.one_of(
    _VENDORS,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([0, 1, 1024, 64 * KB, 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_ITEM_KEYS = st.sampled_from(
    ["vendor", "fcdn", "bcdn", "attack", "size", "exact", "threshold", "n"]
)
_ATTACKS = st.sampled_from(["sbr", "obr", "ccfc", "xyz"])


@st.composite
def _items(draw):
    item = draw(st.dictionaries(_ITEM_KEYS, _VALUES, max_size=5))
    if draw(st.booleans()):
        item["attack"] = draw(_ATTACKS)
    return item


_JSON_BODIES = st.one_of(
    st.builds(
        lambda items: json.dumps({"items": items}).encode(),
        st.lists(_items(), max_size=3),
    ),
    # Deep nesting: past the interpreter's recursion limit.  Two requests
    # stay under the reader's 32 KB read-ahead, so an early answer never
    # closes on unread bytes (which would reset the connection).
    st.integers(min_value=1000, max_value=2500).map(
        lambda depth: b"[" * depth + b"]" * depth
    ),
    st.integers(min_value=1000, max_value=1200).map(
        lambda depth: b'{"items":' + b'{"a":' * depth + b"1" + b"}" * depth + b"}"
    ),
    # Integer literals past the interpreter's digit limit.
    st.integers(min_value=4301, max_value=4800).map(
        lambda digits: b'{"items":[{"vendor":"akamai","size":'
        + b"9" * digits
        + b"}]}"
    ),
    st.binary(max_size=64),
)


def _content_length(framing: str, body: bytes):
    """The Content-Length header lines for one framing."""
    size = len(body)
    return {
        "exact": [f"Content-Length: {size}"],
        "none": [],
        "short": [f"Content-Length: {size + 7}"],
        "long": [f"Content-Length: {max(0, size - 3)}"],
        "duplicate": [f"Content-Length: {size}", f"Content-Length: {size + 1}"],
        "negative": [f"Content-Length: -{size or 1}"],
        "text": ["Content-Length: abc"],
        "huge": ["Content-Length: 99999999999999999999"],
        "digits": ["Content-Length: " + "9" * 4400],
    }[framing]


@st.composite
def _requests(draw, framings=_FRAMINGS):
    body = draw(_JSON_BODIES)
    lines = [f"{draw(_METHODS)} {draw(_TARGETS)} {draw(_VERSIONS)}"]
    lines += draw(st.lists(_HOSTILE_HEADERS, max_size=3))
    lines += _content_length(draw(framings), body)
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + body


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestFuzzedBytes:
    @FUZZ_SETTINGS
    @given(payload=st.binary(max_size=300))
    @example(payload=b"\r\n\r\n")
    @example(payload=b"GET /healthz HTTP/1.1\r\nHost: t")
    def test_random_bytes(self, port, payload):
        check(payload, exchange(port, payload))

    @FUZZ_SETTINGS
    @given(request=_requests(), data=st.data())
    def test_truncated_requests(self, port, request, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(request)))
        payload = request[:cut]
        check(payload, exchange(port, payload))


def _post(body: bytes) -> bytes:
    return b"POST /v1/analyze HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (
        len(body),
        body,
    )


class TestFuzzedRequests:
    @FUZZ_SETTINGS
    @given(request=_requests())
    @example(request=_post(b"[" * 1000 + b"]" * 1000))
    @example(request=_post(b'{"items":[{"vendor":"akamai","size":' + b"9" * 4301 + b"}]}"))
    def test_structured_requests(self, port, request):
        check(request, exchange(port, request))

    @FUZZ_SETTINGS
    @given(
        # A first body shorter than declared would swallow the second
        # request's bytes, which changes the answer legitimately.
        first=_requests(framings=_FRAMINGS.filter(lambda f: f != "short")),
        second=_requests(),
    )
    def test_pipelined_second_request_is_ignored(self, port, first, second):
        alone = check(first, exchange(port, first))
        assert check(first + second, exchange(port, first + second)) == alone

    def test_oversized_heads_get_431(self, port):
        for payload in (
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEADER_BYTES + 1),
            b"GET /healthz HTTP/1.1\r\nX-Pad: "
            + b"a" * (MAX_HEADER_BYTES + 1)
            + b"\r\n\r\n",
        ):
            assert check(payload, exchange(port, payload)) == 431

    def test_body_shorter_than_declared_gets_400(self, port):
        payload = (
            b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n"
            b'{"items": []}'
        )
        assert check(payload, exchange(port, payload)) == 400


    @pytest.mark.parametrize("byte", [b"\xa0", b"\x0b", b"\x85", b"\x1c"])
    def test_content_length_with_non_ows_whitespace_gets_400(self, port, byte):
        # Only SP and HTAB are optional whitespace; a length padded with
        # NBSP, VT, NEL or FS frames nothing.
        body = b'{"items": []}'
        payload = (
            b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\nContent-Length: 13"
            + byte
            + b"\r\n\r\n"
            + body
        )
        raw = exchange(port, payload)
        assert check(payload, raw) == 400
        assert b"Content-Length" in parse_response(raw).body.materialize()

    @pytest.mark.parametrize(
        "lengths",
        [
            ["13", "14"],
            ["14", "13"],
            ["13", "13"],
            ["-13"],
            ["-0"],
            ["+13"],
            ["13, 13"],
            ["0x0d"],
        ],
        ids=[
            "duplicate-first-right",
            "duplicate-first-wrong",
            "duplicate-equal",
            "negative",
            "negative-zero",
            "plus-sign",
            "list",
            "hex",
        ],
    )
    def test_invalid_content_length_framing_gets_400(self, port, lengths):
        # RFC 7230 §3.3.3: the framing is invalid, whichever length the
        # sender meant, so neither "first wins" nor "no body" applies.
        body = b'{"items": []}'
        assert len(body) == 13
        head = b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n" + b"".join(
            b"Content-Length: %s\r\n" % value.encode() for value in lengths
        )
        payload = head + b"\r\n" + body
        raw = exchange(port, payload)
        assert check(payload, raw) == 400
        assert b"Content-Length" in parse_response(raw).body.materialize()


class TestSlowClients:
    @pytest.mark.parametrize(
        "chunks, status",
        [
            # A head that never ends.
            ([b"GET /healthz HTTP/1.1\r\n"] + [b"X: y\r\n"] * 20, 431),
            # A quick head, then a body dripped one byte at a time.
            (
                [b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 40\r\n\r\n"]
                + [b" "] * 40,
                400,
            ),
            # Most of the deadline spent on the head, the rest on the
            # body: one deadline covers both.
            (
                [b"POST /v1/analyze HTTP/1.1\r\n", b"Host: t\r\n"]
                + [b"Content-Length: 40\r\n\r\n"]
                + [b" "] * 40,
                400,
            ),
        ],
        ids=["endless-head", "dripped-body", "head-then-body"],
    )
    def test_connection_closes_within_read_timeout(self, port, chunks, status):
        raw, elapsed = drip(port, chunks, interval=DRIP_INTERVAL)
        assert check(b"".join(chunks), raw) == status
        assert elapsed < READ_TIMEOUT + SLACK_S
