"""The multi-tenant serving layer: an asyncio front door over one Session.

:class:`ReproServer` turns the compile/execute split into a long-lived
service.  One :class:`repro.api.Session` (and therefore one plan cache, one
process pool, one dispatch layer) serves every tenant; the server adds the
concerns a shared service needs:

* **request coalescing** — concurrent requests compiling the same
  ``plan_cache_key`` deduplicate to a single in-flight plan search whose
  result fans out to all waiters (the session-level dedup of
  :meth:`repro.api.Session.compile`); K identical concurrent requests cost
  exactly one compile, observable via ``/stats``;
* **per-tenant determinism** — each tenant owns an independent seed stream
  (:mod:`repro.serve.tenancy`), so a tenant's result sequence is
  bit-identical to a serial replay no matter how other tenants' traffic
  interleaves with it;
* **admission control** — a bounded two-tier queue
  (:mod:`repro.serve.admission`) that sheds load with a structured
  ``overloaded`` response instead of stalling when the pool saturates;
* **timeouts and fault tolerance** — per-request deadlines with clean slot
  accounting, structured errors for crashed compiles, and automatic
  process-pool recovery (``worker_failed`` response + pool reset, so an
  immediate retry succeeds);
* **observability** — ``/stats`` reports request counters, coalescing
  counts, queue depth, latency histograms and the session's
  ``cache_stats()``.

The HTTP front end is a minimal stdlib ``asyncio`` HTTP/1.1 server
(``POST /simulate``, ``GET /stats``, ``GET /healthz``); the in-process
:class:`~repro.serve.client.ServeClient` drives :meth:`ReproServer.handle`
directly, which is what the concurrency and fault-injection test harness
uses.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api import Session
from repro.backends import WorkerPoolError
from repro.circuits.circuit import Circuit
from repro.circuits.library import benchmark_circuit
from repro.serve.admission import AdmissionController
from repro.serve.faults import FaultInjector, WorkerCrash
from repro.serve.protocol import (
    HTTP_STATUS,
    ProtocolError,
    ServeRequest,
    error_response,
    ok_response,
)
from repro.serve.stats import ServerStats
from repro.serve.tenancy import TenantRegistry
from repro.utils.validation import ValidationError

__all__ = ["ReproServer"]

#: Reason phrases for the status codes the HTTP front end emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Distinct (name, seed, native_gates) circuits the server keeps built.
_CIRCUIT_CACHE_SIZE = 64

#: Longest a rejected request's unread body is drained before the close.
_LINGER_SECONDS = 2.0


class ReproServer:
    """A long-lived multi-tenant simulation service (see module docs).

    Parameters
    ----------
    session:
        An existing :class:`repro.api.Session` to serve from; by default the
        server creates and owns one (closed again by :meth:`aclose`).
    seed:
        Server seed: the root of every tenant's deterministic seed stream.
    workers:
        Process-pool size of the owned session (stochastic backends).
    max_inflight:
        Concurrent executions — also the size of the server's worker thread
        pool, so admission capacity and real threads always agree.
    queue_limit:
        Admitted requests held beyond ``max_inflight`` before shedding.
    default_timeout:
        Per-request budget in seconds when the request names none.
    plan_cache_size:
        Plan-cache capacity of the owned session.
    fault_injector:
        Optional :class:`~repro.serve.faults.FaultInjector` armed by the
        fault-injection test harness; ``None`` disables all failpoints.
    max_requests:
        After this many responses the server requests its own shutdown
        (smoke runs and CLI drills); ``None`` serves forever.
    """

    def __init__(
        self,
        session: Session | None = None,
        *,
        seed: int = 0,
        workers: int | None = None,
        max_inflight: int = 4,
        queue_limit: int = 16,
        default_timeout: float = 30.0,
        plan_cache_size: int = 128,
        fault_injector: FaultInjector | None = None,
        max_requests: int | None = None,
    ) -> None:
        if default_timeout <= 0:
            raise ValidationError("default_timeout must be positive")
        if max_requests is not None and max_requests < 1:
            raise ValidationError("max_requests must be >= 1 (or None)")
        self._owns_session = session is None
        self._session = session or Session(
            workers=workers,
            seed=seed,
            plan_cache_size=plan_cache_size,
            max_parallel=max_inflight,
        )
        self._tenants = TenantRegistry(seed)
        self._admission = AdmissionController(max_inflight, queue_limit)
        self._stats = ServerStats()
        self._faults = fault_injector or FaultInjector()
        self._default_timeout = float(default_timeout)
        self._max_requests = max_requests
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve"
        )
        self._circuits: "collections.OrderedDict[Tuple, Circuit]" = (
            collections.OrderedDict()
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._closing = False
        self._next_request_id = 0
        self._responses = 0
        self.address: Tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def session(self) -> Session:
        """The session every tenant shares (plan cache, pools, seeds)."""
        return self._session

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` document: server, admission, tenants, plan cache."""
        return {
            "server": self._stats.snapshot(),
            "admission": self._admission.snapshot(),
            "tenants": {
                "count": len(self._tenants),
                "sequences": self._tenants.snapshot(),
            },
            "plan_cache": self._session.cache_stats(),
        }

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _circuit_for(self, request: ServeRequest) -> Circuit:
        """Build (or reuse) the request's benchmark circuit; LRU-bounded."""
        key = (request.circuit, request.circuit_seed, request.native_gates)
        if key in self._circuits:
            self._circuits.move_to_end(key)
            return self._circuits[key]
        circuit = benchmark_circuit(
            request.circuit,
            seed=request.circuit_seed,
            native_gates=request.native_gates,
        )
        self._circuits[key] = circuit
        while len(self._circuits) > _CIRCUIT_CACHE_SIZE:
            self._circuits.popitem(last=False)
        return circuit

    def _job(
        self,
        request: ServeRequest,
        circuit: Circuit,
        seed: int,
        state: Dict[str, Any],
        admitted_at: float,
    ) -> Dict[str, Any]:
        """The worker-thread body: compile (deduplicated) then execute."""
        state["started"] = True
        self._admission.on_start()
        self._stats.queue_wait.record(time.perf_counter() - admitted_at)
        state["phase"] = "compile"
        self._faults.fire("compile", request=request)
        executable = self._session.compile(
            circuit,
            request.backend,
            noise=dict(request.noise) if request.noise is not None else None,
            level=request.level,
            samples=request.samples,
            seed=seed,
            max_bond_dim=request.max_bond_dim,
            passes=request.passes,
        )
        state["phase"] = "execute"
        self._faults.fire("execute", request=request)
        result = executable.run()
        return {
            "result": result.to_dict(),
            "coalesced": executable.coalesced,
            "cache_hit": executable.cache_hit,
            "compile_seconds": executable.compile_seconds,
        }

    def _run_job(
        self, job, future: "asyncio.Future", loop, state: Dict[str, Any]
    ) -> None:
        """Bridge a worker-thread job back onto the event loop, exactly once.

        The admission slot is released *before* the outcome is delivered, so
        by the time any response reaches a client the slot it occupied is
        free again (a timed-out request's slot stays held exactly as long as
        its worker thread actually runs — never shorter, never longer).
        """
        try:
            outcome = job()
        except BaseException as exc:  # noqa: BLE001 - routed to the awaiter
            result, error = None, exc
        else:
            result, error = outcome, None
        self._admission.release(started=state["started"])
        try:
            loop.call_soon_threadsafe(self._resolve, future, result, error)
        except RuntimeError:  # pragma: no cover - loop gone during shutdown
            pass

    @staticmethod
    def _resolve(future: "asyncio.Future", result, error) -> None:
        if future.done():  # the awaiter timed out; drop the late outcome
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    async def handle(self, payload: Any) -> Dict[str, Any]:
        """Serve one decoded request payload; always returns a response dict.

        This is the whole request lifecycle — validation, admission, tenant
        seed allocation, deduplicated compile + execute on a worker thread,
        deadline enforcement, structured error classification — shared
        verbatim by the HTTP front end and the in-process client.
        """
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        arrival = time.perf_counter()
        request_id = self._next_request_id
        self._next_request_id += 1
        try:
            request = ServeRequest.from_payload(payload)
            circuit = self._circuit_for(request)
        except (ProtocolError, ValidationError) as exc:
            self._stats.count("invalid")
            return self._respond(
                error_response(
                    "invalid", request_id, kind="bad_request", message=str(exc)
                )
            )
        if self._closing or not self._admission.try_admit():
            self._stats.count("overloaded")
            snapshot = self._admission.snapshot()
            return self._respond(
                error_response(
                    "overloaded",
                    request_id,
                    kind="shutting_down" if self._closing else "queue_full",
                    message=(
                        "server is shutting down"
                        if self._closing
                        else (
                            f"admission queue full "
                            f"({snapshot['active']}/{self._admission.capacity} slots)"
                        )
                    ),
                    tenant=request.tenant,
                    admission=snapshot,
                )
            )
        # Seed allocation happens on the event loop, after admission: only
        # requests that will actually execute consume a slot of the tenant's
        # deterministic stream, in per-tenant arrival order.
        tenant_seq, stream_seed = self._tenants.allocate(request.tenant)
        seed = request.seed if request.seed is not None else stream_seed
        state: Dict[str, Any] = {"started": False, "phase": "compile"}
        future: "asyncio.Future" = loop.create_future()
        job = partial(self._job, request, circuit, seed, state, arrival)
        handle = self._executor.submit(self._run_job, job, future, loop, state)
        # A job cancelled before it started never reaches _run_job; its slot
        # is returned here (the only other release site).
        handle.add_done_callback(
            lambda f: self._admission.release(started=False, cancelled=True)
            if f.cancelled()
            else None
        )
        timeout = request.timeout if request.timeout is not None else self._default_timeout
        try:
            outcome = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            cancelled = handle.cancel()
            self._stats.count("timeout")
            return self._respond(
                error_response(
                    "timeout",
                    request_id,
                    kind="deadline_exceeded",
                    message=f"request exceeded its {timeout:g}s budget",
                    tenant=request.tenant,
                    tenant_seq=tenant_seq,
                    timeout_seconds=timeout,
                    cancelled_before_start=cancelled,
                )
            )
        except (WorkerPoolError, BrokenProcessPool) as exc:
            # Executable.run already reset the session pool for
            # WorkerPoolError; reset again defensively (idempotent) so a
            # retry always starts from a fresh pool.
            self._session.reset_pool()
            self._stats.count_pool_reset()
            self._stats.count("worker_failed")
            return self._respond(
                error_response(
                    "worker_failed",
                    request_id,
                    kind="pool_broken",
                    message=f"{type(exc).__name__}: {exc}",
                    tenant=request.tenant,
                    tenant_seq=tenant_seq,
                )
            )
        except WorkerCrash as exc:
            self._stats.count("worker_failed")
            return self._respond(
                error_response(
                    "worker_failed",
                    request_id,
                    kind="worker_crash",
                    message=str(exc),
                    tenant=request.tenant,
                    tenant_seq=tenant_seq,
                )
            )
        except ValidationError as exc:
            self._stats.count("invalid")
            return self._respond(
                error_response(
                    "invalid",
                    request_id,
                    kind="validation_error",
                    message=str(exc),
                    tenant=request.tenant,
                    tenant_seq=tenant_seq,
                )
            )
        except Exception as exc:  # noqa: BLE001 - structured, never a traceback
            self._stats.count("error")
            return self._respond(
                error_response(
                    "error",
                    request_id,
                    kind=(
                        "compile_error"
                        if state["phase"] == "compile"
                        else "execution_error"
                    ),
                    message=f"{type(exc).__name__}: {exc}",
                    tenant=request.tenant,
                    tenant_seq=tenant_seq,
                )
            )
        elapsed = time.perf_counter() - arrival
        self._stats.count("ok", coalesced=outcome["coalesced"])
        self._stats.ok_latency.record(elapsed)
        return self._respond(
            ok_response(
                request_id,
                request,
                tenant_seq=tenant_seq,
                seed=seed,
                result=outcome["result"],
                coalesced=outcome["coalesced"],
                cache_hit=outcome["cache_hit"],
                compile_seconds=outcome["compile_seconds"],
                elapsed_seconds=elapsed,
            )
        )

    def _respond(self, response: Dict[str, Any]) -> Dict[str, Any]:
        """Count a sent response toward the optional ``max_requests`` drain."""
        self._responses += 1
        if self._max_requests is not None and self._responses >= self._max_requests:
            self.request_shutdown()
        return response

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to return (safe from any thread)."""
        self._closing = True
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        else:  # not yet bound to a loop: nothing is waiting
            self._shutdown.set()

    async def aclose(self) -> None:
        """Stop accepting work, drain worker threads, close owned resources."""
        self._closing = True
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        # Bounded drain: in-flight worker threads finish (injected hangs are
        # bounded by construction), queued-but-unstarted jobs are cancelled.
        await asyncio.get_running_loop().run_in_executor(
            None, partial(self._executor.shutdown, wait=True, cancel_futures=True)
        )
        if self._owns_session:
            self._session.close()

    # ------------------------------------------------------------------
    # HTTP front end (stdlib asyncio, HTTP/1.1 with keep-alive)
    # ------------------------------------------------------------------
    async def start_http(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind the HTTP endpoint; returns the actual ``(host, port)``."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        self._http_server = await asyncio.start_server(
            self._serve_connection, host, port
        )
        sockname = self._http_server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown` (or ``max_requests``); then close."""
        try:
            await self._shutdown.wait()
        finally:
            await self.aclose()

    #: Largest accepted request body, in bytes.
    MAX_BODY_BYTES = 1 << 20

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or not request_line.strip():
                    break
                try:
                    method, path, version = request_line.decode("latin1").split()
                except ValueError:
                    writer.write(_http_bytes(400, _http_error("malformed request line"), False))
                    await writer.drain()
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.decode("latin1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0 or length > self.MAX_BODY_BYTES:
                    writer.write(_http_bytes(413, _http_error("unacceptable content-length"), False))
                    await writer.drain()
                    await _discard_until_eof(reader, writer)
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._route(method, path, body)
                default_keep = "keep-alive" if version == "HTTP/1.1" else "close"
                keep_alive = (
                    headers.get("connection", default_keep).lower() != "close"
                    and not self._closing
                )
                writer.write(_http_bytes(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Mapping[str, Any]]:
        if path == "/simulate":
            if method != "POST":
                return 405, _http_error(f"{method} not allowed on /simulate")
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return 400, _http_error(f"request body is not valid JSON: {exc}")
            response = await self.handle(payload)
            return HTTP_STATUS[response["status"]], response
        if method != "GET":
            return 405, _http_error(f"{method} not allowed on {path}")
        if path == "/stats":
            return 200, self.stats()
        if path == "/healthz":
            return 200, {"status": "ok", "closing": self._closing}
        return 404, _http_error(f"no such route: {path}")


async def _discard_until_eof(reader, writer) -> None:
    """Lingering close: half-close, then drop unread request bytes until EOF.

    Closing a socket whose receive buffer still holds the client's unread body
    makes the kernel answer with RST, which can destroy an already-sent
    response before the client reads it.  Sending FIN first and draining the
    rest of the body lets the client finish writing and read the response;
    the drain is bounded so a client that never stops sending cannot pin the
    connection.
    """
    if writer.can_write_eof():
        writer.write_eof()

    async def discard() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        await asyncio.wait_for(discard(), _LINGER_SECONDS)
    except asyncio.TimeoutError:
        pass


def _http_error(message: str) -> Dict[str, Any]:
    return {"status": "invalid", "error": {"kind": "http_error", "message": message}}


def _http_bytes(status: int, payload: Mapping[str, Any], keep_alive: bool) -> bytes:
    data = json.dumps(payload).encode("utf-8")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    return head.encode("latin1") + data
