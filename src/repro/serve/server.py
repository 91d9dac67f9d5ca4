"""The network-facing multi-tenant FHE inference server.

One :class:`FheServer` listens on a TCP socket, speaks the
length-prefixed protocol of :mod:`repro.serve.protocol`, and routes
frames to the program registry, tenant keystore, and batching
scheduler.  The asyncio loop only ever parses frames and moves
requests; all FHE compute runs on the scheduler's executor thread, so
admission, deadline bookkeeping, and backpressure stay responsive
while bootstraps grind.

In-process embedding (tests, benchmarks, notebooks)::

    server = FheServer(ServeConfig(port=0))
    with server.run_in_thread() as handle:
        client = FheServiceClient("127.0.0.1", handle.port, "tenant-a")
        ...
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .. import __version__
from ..analyze.cost import CostAnalysisConfig
from ..core.compiler import CheckArg
from ..obs import (
    FlightRecorder,
    Observability,
    TelemetryServer,
    TraceContext,
    Tracer,
    set_ambient,
)
from ..obs import get as _get_obs
from ..serialization import (
    SerializationError,
    load_ciphertext,
    save_ciphertext,
)
from .batching import RequestScheduler, ServeRequest
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    Frame,
    FrameTooLarge,
    MessageKind,
    ProtocolError,
    Status,
    encode_frame,
    read_frame,
)
from .registry import ProgramRegistry, ServeError, TenantKeystore


@dataclass
class ServeConfig:
    """Tunables for one server instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (read back from server.port)
    #: Executor backend per tenant: batched | distributed.
    backend: str = "batched"
    num_workers: Optional[int] = None
    #: Bounded-queue admission limit (BUSY beyond this).
    max_pending: int = 64
    #: Cross-request SIMD batch cap per dispatch.
    max_batch: int = 16
    #: Seconds to hold a batch open for stragglers (0 = dispatch now).
    linger_s: float = 0.0
    #: Per-frame byte ceiling; oversized frames get a BUSY reply.
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    #: Static-analysis gate for program registration.
    check: CheckArg = True
    #: Path to a ``repro calibrate`` gate-cost JSON; loaded at startup
    #: so cost certificates are predicted with *this* machine's
    #: calibration instead of the paper's (``None`` = paper model).
    gatecost_path: Optional[str] = None
    #: Engine key for static deadline-feasibility admission (reject
    #: with DEADLINE before queueing when the certificate's predicted
    #: execute latency exceeds the deadline budget); ``None`` disables.
    admission_engine: Optional[str] = "batched"
    #: Deadline applied when a CALL carries none (None = unbounded).
    default_deadline_s: Optional[float] = None
    #: HTTP exposition (/metrics, /healthz, /varz): ``None`` disables,
    #: 0 binds an ephemeral port (read back via ``telemetry_port``).
    telemetry_port: Optional[int] = None
    telemetry_host: str = "127.0.0.1"
    #: Flight-recorder dump directory; ``None`` = record but never dump.
    flight_dir: Optional[str] = None
    flight_capacity: int = 2048
    flight_enabled: bool = True
    #: Span bound for the server-owned tracer installed when no
    #: ambient observability is active at start().
    max_trace_spans: int = 65536


class FheServer:
    """Asyncio TCP server wiring protocol -> registry -> scheduler."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        gate_cost = None
        if self.config.gatecost_path is not None:
            from ..perfmodel import load_gate_cost

            # Calibrate once (`repro calibrate`), load at every serve
            # startup — never re-measure on the serving path.
            gate_cost = load_gate_cost(self.config.gatecost_path)
        self.gate_cost = gate_cost
        self.registry = ProgramRegistry(
            check=self.config.check,
            cost_config=CostAnalysisConfig(
                gate_cost=gate_cost,
                backend=self.config.backend,
            ),
        )
        self.keystore = TenantKeystore(
            backend=self.config.backend,
            num_workers=self.config.num_workers,
        )
        self.flight = FlightRecorder(
            capacity=self.config.flight_capacity,
            dump_dir=self.config.flight_dir,
            enabled=self.config.flight_enabled,
        )
        self.scheduler = RequestScheduler(
            max_pending=self.config.max_pending,
            max_batch=self.config.max_batch,
            linger_s=self.config.linger_s,
            flight=self.flight,
            admission_engine=self.config.admission_engine,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._telemetry: Optional[TelemetryServer] = None
        self._prev_ambient: Optional[Observability] = None
        self.obs: Observability = _get_obs()
        self.started_at = time.time()

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def telemetry_port(self) -> Optional[int]:
        """The bound HTTP exposition port, if telemetry is on."""
        return (
            self._telemetry.port if self._telemetry is not None else None
        )

    def _varz(self) -> dict:
        return {
            "server_version": __version__,
            "backend": self.config.backend,
            "gate_cost": (
                self.gate_cost.name
                if self.gate_cost is not None
                else "paper-xeon-5215"
            ),
            "admission_engine": self.config.admission_engine,
            "tenants": len(self.keystore),
            "programs": len(self.registry),
            "queue_depth": self.scheduler.depth,
            "max_pending": self.config.max_pending,
            "max_batch": self.config.max_batch,
            "scheduler_stats": dict(self.scheduler.stats),
            "flight_triggers": dict(self.flight.trigger_counts),
            "flight_dumps": len(self.flight.dumps_written),
        }

    async def start(self) -> None:
        # The serve loop wants always-on telemetry: reuse an active
        # ambient bundle (tests under obs.observe()), else install a
        # server-owned bundle with a bounded tracer for our lifetime.
        ambient = _get_obs()
        if not ambient.active:
            bundle = Observability(
                tracer=Tracer(max_spans=self.config.max_trace_spans)
            )
            self._prev_ambient = set_ambient(bundle)
            ambient = bundle
        self.obs = ambient
        # Batch-size buckets: the latency-shaped defaults would put
        # every batch in one bucket.
        self.obs.metrics.declare_buckets(
            "serve_batch_size",
            [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
        )
        self.flight.attach(self.obs.tracer)
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
        )
        if self.config.telemetry_port is not None:
            self._telemetry = TelemetryServer(
                self.obs.metrics,
                host=self.config.telemetry_host,
                port=self.config.telemetry_port,
                varz=self._varz,
            )
            await self._telemetry.start()

    async def stop(self) -> None:
        if self._telemetry is not None:
            await self._telemetry.stop()
            self._telemetry = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )
        await self.scheduler.stop()
        self.keystore.shutdown()
        self.flight.detach()
        if self._prev_ambient is not None:
            set_ambient(self._prev_ambient)
            self._prev_ambient = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    def run_in_thread(self) -> "ServerHandle":
        """Start the server on a dedicated event-loop thread."""
        return ServerHandle(self)

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    frame = await read_frame(
                        reader, self.config.max_frame_bytes
                    )
                except FrameTooLarge as exc:
                    # Backpressure: the reader drained the oversized
                    # body, so the stream is still synchronized —
                    # reply BUSY and keep serving.
                    obs = _get_obs()
                    if obs.active:
                        obs.metrics.inc(
                            "serve_requests", status=Status.BUSY
                        )
                    self.scheduler.stats["busy_rejections"] += 1
                    self.scheduler._record_trouble(
                        "busy", where="frame_too_large",
                    )
                    await self._reply(
                        writer,
                        Status.BUSY,
                        f"request too large: {exc} — shrink or "
                        f"split the request",
                    )
                    continue
                except ProtocolError as exc:
                    await self._reply(
                        writer, Status.BAD_REQUEST, str(exc)
                    )
                    break
                if frame is None:
                    break  # clean EOF
                done = await self._handle_frame(writer, frame)
                if done:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_frame(
        self, writer: asyncio.StreamWriter, frame: Frame
    ) -> bool:
        """Dispatch one request frame; returns True to end the stream."""
        obs = _get_obs()
        try:
            if frame.kind == MessageKind.PING:
                await self._reply(
                    writer,
                    Status.OK,
                    "pong",
                    server_version=__version__,
                    tenants=len(self.keystore),
                    programs=len(self.registry),
                    queue_depth=self.scheduler.depth,
                )
            elif frame.kind == MessageKind.METRICS:
                await self._reply(
                    writer,
                    Status.OK,
                    "metrics snapshot",
                    metrics=(
                        obs.metrics.as_dict() if obs.active else None
                    ),
                    stats=dict(self.scheduler.stats),
                )
            elif frame.kind == MessageKind.REGISTER_KEY:
                await self._handle_register_key(writer, frame)
            elif frame.kind == MessageKind.REGISTER_PROGRAM:
                await self._handle_register_program(writer, frame)
            elif frame.kind == MessageKind.CALL:
                await self._handle_call(writer, frame)
            else:
                await self._reply(
                    writer,
                    Status.BAD_REQUEST,
                    f"unsupported message kind {frame.kind}",
                )
        except ServeError as exc:
            if obs.active and exc.status not in (
                Status.OK,
                Status.BUSY,
                Status.DEADLINE,
            ):
                obs.metrics.inc("serve_requests", status=exc.status)
            await self._reply(writer, exc.status, exc.message)
        except Exception as exc:  # never kill the connection silently
            await self._reply(
                writer, Status.ERROR, f"internal error: {exc}"
            )
        return False

    def _require(self, frame: Frame, field_name: str) -> str:
        value = frame.header.get(field_name)
        if not isinstance(value, str) or not value:
            raise ServeError(
                Status.BAD_REQUEST,
                f"{frame.kind_name} needs a {field_name!r} header field",
            )
        return value

    async def _handle_register_key(
        self, writer: asyncio.StreamWriter, frame: Frame
    ) -> None:
        tenant = self._require(frame, "tenant")
        loop = asyncio.get_running_loop()
        # Key loading + pool spin-up can take seconds; keep the loop
        # free for other connections.
        runtime, created = await loop.run_in_executor(
            None, self.keystore.register_blob, tenant, frame.payload
        )
        await self._reply(
            writer,
            Status.OK,
            "key registered" if created else "key already registered",
            fingerprint=runtime.key_fingerprint,
            created=created,
            backend=self.config.backend,
        )

    async def _handle_register_program(
        self, writer: asyncio.StreamWriter, frame: Frame
    ) -> None:
        tenant = self._require(frame, "tenant")
        self.keystore.get(tenant)  # must hold a key first
        loop = asyncio.get_running_loop()
        program, cached = await loop.run_in_executor(
            None, self.registry.register, frame.payload
        )
        header = program.describe()
        header["cached"] = cached
        await self._reply(
            writer,
            Status.OK,
            "program cached" if cached else "program registered",
            **header,
        )

    async def _handle_call(
        self, writer: asyncio.StreamWriter, frame: Frame
    ) -> None:
        tenant = self._require(frame, "tenant")
        program_id = self._require(frame, "program_id")
        runtime = self.keystore.get(tenant)
        program = self.registry.get(program_id)
        try:
            ciphertext = load_ciphertext(frame.payload)
        except SerializationError as exc:
            raise ServeError(
                Status.BAD_REQUEST, f"bad ciphertext payload: {exc}"
            ) from exc
        if ciphertext.batch_shape != (program.num_inputs,):
            raise ServeError(
                Status.BAD_REQUEST,
                f"program {program_id[:12]} takes "
                f"{program.num_inputs} input ciphertexts, got batch "
                f"shape {tuple(ciphertext.batch_shape)}",
            )
        deadline_s = self._resolve_deadline(frame)
        # Continue the client's trace (or root a server-side one):
        # this request's spans all hang off ``req_ctx``.
        obs = _get_obs()
        client_ctx = TraceContext.from_header(
            frame.header.get("trace")
        )
        req_ctx: Optional[TraceContext] = None
        if client_ctx is not None:
            req_ctx = client_ctx.child()
        elif obs.active:
            req_ctx = TraceContext.root()
        t0 = time.perf_counter()
        try:
            result = await self.scheduler.submit(
                ServeRequest(
                    tenant=tenant,
                    program=program,
                    runtime=runtime,
                    ciphertext=ciphertext,
                    deadline_s=deadline_s,
                    ctx=req_ctx,
                )
            )
        except ServeError as exc:
            if obs.active and req_ctx is not None:
                obs.tracer.add(
                    "serve:request", cat="serve",
                    start_s=t0, end_s=time.perf_counter(),
                    track="serve", ctx=req_ctx,
                    tenant=tenant, program=program_id[:12],
                    status=exc.status,
                )
            raise
        if obs.active and req_ctx is not None:
            obs.tracer.add(
                "serve:request", cat="serve",
                start_s=t0, end_s=time.perf_counter(),
                track="serve", ctx=req_ctx,
                tenant=tenant, program=program_id[:12],
                status=Status.OK, batch_size=result.batch_size,
            )
        trace_header = (
            {
                "trace_id": req_ctx.trace_id,
                "span_id": req_ctx.span_id,
            }
            if req_ctx is not None
            else None
        )
        await self._reply(
            writer,
            Status.OK,
            "executed",
            payload=save_ciphertext(result.ciphertext),
            report=result.report.as_dict(),
            batch_size=result.batch_size,
            queue_ms=result.queue_s * 1e3,
            stages=result.stages,
            trace=trace_header,
        )

    def _resolve_deadline(self, frame: Frame) -> Optional[float]:
        deadline_ms = frame.header.get("deadline_ms")
        if deadline_ms is None:
            if self.config.default_deadline_s is None:
                return None
            return time.monotonic() + self.config.default_deadline_s
        if not isinstance(deadline_ms, (int, float)):
            raise ServeError(
                Status.BAD_REQUEST,
                f"deadline_ms must be a number, got "
                f"{type(deadline_ms).__name__}",
            )
        return time.monotonic() + float(deadline_ms) / 1e3

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        status: str,
        message: str,
        payload: bytes = b"",
        **header_fields,
    ) -> None:
        header = {"status": status, "message": message}
        header.update(header_fields)
        try:
            writer.write(
                encode_frame(MessageKind.REPLY, header, payload)
            )
            await writer.drain()
        except ConnectionError:
            pass


class ServerHandle:
    """A server running on its own thread + event loop.

    Context-managed: entering starts the loop and blocks until the
    socket is bound; exiting stops the server and joins the thread.
    """

    def __init__(self, server: FheServer):
        self.server = server
        self.port: int = -1
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def __enter__(self) -> "ServerHandle":
        self._thread = threading.Thread(
            target=self._run, name="fhe-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            )
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
            self.port = self.server.port
        except BaseException as err:
            self._startup_error = err
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
        self._loop = None
        self._thread = None


@contextlib.contextmanager
def serving(
    config: Optional[ServeConfig] = None,
) -> Iterator[ServerHandle]:
    """``with serving() as handle:`` — an in-process server."""
    server = FheServer(config)
    with server.run_in_thread() as handle:
        yield handle
