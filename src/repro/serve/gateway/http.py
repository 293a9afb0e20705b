"""Async HTTP front end for the sharded gateway (stdlib only).

:class:`GatewayHTTPServer` runs an :mod:`asyncio` HTTP/1.1 server on a
background thread in front of a started
:class:`~repro.serve.gateway.cluster.ShardedGateway`:

* ``POST /query`` — JSON ``{"method", "db_id", "question",
  "deadline_s"?}`` in, the canonical
  :func:`~repro.serve.gateway.wire.response_to_dict` envelope out
  (typed ``ok`` / ``timeout`` / ``rejected`` / ``error`` statuses, never
  a hang).
* ``GET /healthz`` — liveness JSON; HTTP 200 when every shard answers,
  503 when degraded.
* ``GET /metrics`` — the merged shard + parent metric state in
  Prometheus text exposition format.

Blocking gateway calls run on the event loop's default executor so the
accept loop stays responsive; connections are keep-alive until the
client closes.  :class:`GatewayHTTPClient` is the matching
:mod:`http.client` helper used by the benchmark and tests.

Inputs/outputs: HTTP requests in; deterministic JSON bodies /
Prometheus text out (timing fields are excluded from ``/query`` bodies
so identical traces produce byte-identical responses).

Thread/process safety: the server owns its loop thread; ``start``/
``close`` are safe from the owning thread.  The client serializes its
one connection with a lock, so an instance may be shared across
threads.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import threading

from repro.errors import GatewayError
from repro.serve.gateway.cluster import ShardedGateway
from repro.serve.gateway.wire import response_to_dict

_MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _http_response(
    status: int, body: bytes, content_type: str, keep_alive: bool
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class GatewayHTTPServer:
    """Background-thread asyncio HTTP server over one started gateway."""

    def __init__(
        self, gateway: ShardedGateway, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port replaces it on start
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "GatewayHTTPServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="gateway-http", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise GatewayError(f"HTTP server failed to start: {self._startup_error}")
        return self

    def close(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "GatewayHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle_connection, self.host, self.port)
            )
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as exc:  # noqa: BLE001 - surface to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    # -- request handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line.strip() == b"":
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) < 3:
                    writer.write(_http_response(
                        400, _json_bytes({"error": "malformed request line"}),
                        "application/json", keep_alive=False,
                    ))
                    await writer.drain()
                    break
                method, target = parts[0].upper(), parts[1]
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length") or "0")
                except ValueError:
                    length = -1
                if length < 0 or length > _MAX_BODY_BYTES:
                    error = "bad content-length" if length < 0 else "body too large"
                    writer.write(_http_response(
                        400, _json_bytes({"error": error}),
                        "application/json", keep_alive=False,
                    ))
                    await writer.drain()
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                status, payload, content_type = await self._route(method, target, body)
                writer.write(_http_response(status, payload, content_type, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, bytes, str]:
        loop = asyncio.get_running_loop()
        path = target.split("?", 1)[0]
        if method == "POST" and path == "/query":
            try:
                request = json.loads(body.decode("utf-8") or "{}")
                if not isinstance(request, dict):
                    raise ValueError("expected a JSON object")
                name = request["method"]
                db_id = request["db_id"]
                question = request["question"]
                deadline_s = request.get("deadline_s")
                _check_query_types(name, db_id, question, deadline_s)
            except (ValueError, KeyError, UnicodeDecodeError) as exc:
                return (
                    400,
                    _json_bytes({"error": f"bad /query body: {exc}"}),
                    "application/json",
                )
            try:
                response = await loop.run_in_executor(
                    None, self.gateway.ask, name, db_id, question, deadline_s
                )
            except GatewayError as exc:
                return 500, _json_bytes({"error": str(exc)}), "application/json"
            return 200, _json_bytes(response_to_dict(response)), "application/json"
        if method == "GET" and path == "/healthz":
            try:
                health = await loop.run_in_executor(None, self.gateway.healthz)
            except GatewayError as exc:
                return 503, _json_bytes({"error": str(exc)}), "application/json"
            status = 200 if health.get("status") == "ok" else 503
            return status, _json_bytes(health), "application/json"
        if method == "GET" and path == "/metrics":
            try:
                text = await loop.run_in_executor(None, self.gateway.metrics_text)
            except GatewayError as exc:
                return 503, _json_bytes({"error": str(exc)}), "application/json"
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4"
        return (
            404,
            _json_bytes({"error": f"no route for {method} {path}"}),
            "application/json",
        )


def _check_query_types(
    name: object, db_id: object, question: object, deadline_s: object
) -> None:
    """Reject ``/query`` fields of the wrong type before they reach a shard."""
    for field, value in (("method", name), ("db_id", db_id), ("question", question)):
        if not isinstance(value, str):
            raise ValueError(f"{field} must be a string")
    if deadline_s is None:
        return
    if isinstance(deadline_s, (int, float)) and not isinstance(deadline_s, bool):
        try:
            # JSON allows NaN, Infinity and integers too large for a float.
            if math.isfinite(float(deadline_s)) and deadline_s >= 0:
                return
        except OverflowError:
            pass
    raise ValueError("deadline_s must be null or a finite non-negative number")


class GatewayHTTPClient:
    """Keep-alive :mod:`http.client` helper for the gateway endpoints."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "GatewayHTTPClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        with self._lock:
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                return response.status, response.read()
            except (http.client.HTTPException, OSError):
                # One reconnect: the server may have closed an idle
                # keep-alive connection between requests.
                self._conn.close()
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                return response.status, response.read()

    def query(
        self, method: str, db_id: str, question: str,
        deadline_s: float | None = None,
    ) -> dict:
        payload: dict = {"method": method, "db_id": db_id, "question": question}
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        status, body = self._request("POST", "/query", _json_bytes(payload))
        if status != 200:
            raise GatewayError(f"/query returned HTTP {status}: {body[:200]!r}")
        return json.loads(body)

    def healthz(self) -> dict:
        _, body = self._request("GET", "/healthz")
        return json.loads(body)

    def metrics_text(self) -> str:
        status, body = self._request("GET", "/metrics")
        if status != 200:
            raise GatewayError(f"/metrics returned HTTP {status}")
        return body.decode("utf-8")
