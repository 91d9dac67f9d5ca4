"""Request scheduling: admission control, deadlines, SIMD batching.

The scheduler owns one bounded queue.  Admission is decided at submit
time — a full queue refuses the request with BUSY (the HTTP-429
analogue) instead of buffering unboundedly.  A single dispatch loop
drains the queue in arrival order, coalescing every queued request for
the *same (tenant, program)* into one
:meth:`repro.core.Server.execute_many` call, so concurrent inference
requests ride the batched backend's SIMD bootstraps (MATCHA's
observation: TFHE throughput is batched bootstrapping throughput).

Because execution happens on a worker thread while the asyncio loop
keeps admitting, a busy server accumulates same-program requests that
the *next* dispatch folds into one batch — batching emerges from load.
``linger_s`` optionally holds the first request of a batch briefly to
let stragglers join (latency traded for throughput); per-request
deadlines cancel queued work that would complete too late, with a
DEADLINE reply instead of wasted bootstraps.

Deadlines are also checked *statically* at admission: every registered
program carries a :class:`~repro.analyze.cost.CostCertificate`, and a
request whose deadline budget is below the certificate's predicted
execute latency is rejected with DEADLINE before it consumes a queue
slot — no bootstrap is ever spent on a request that provably cannot
finish in time.
"""

from __future__ import annotations

import asyncio
import collections
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..obs import FlightRecorder, TraceContext, use_trace_context
from ..obs import get as _get_obs
from ..runtime.executors import ExecutionReport
from ..tfhe.lwe import LweCiphertext
from .protocol import Status
from .registry import (
    RegisteredProgram,
    ServeError,
    TenantRuntime,
)

BatchKey = Tuple[str, str]


@dataclass
class ServeRequest:
    """One admitted CALL waiting for (batched) execution."""

    tenant: str
    program: RegisteredProgram
    runtime: TenantRuntime = field(repr=False)
    ciphertext: LweCiphertext = field(repr=False)
    #: Absolute ``time.monotonic()`` deadline; ``None`` = no deadline.
    deadline_s: Optional[float] = None
    enqueued_at: float = 0.0
    #: This request's node in its trace tree (the server-side span
    #: minted by ``_handle_call`` as a child of the client's context).
    ctx: Optional[TraceContext] = None
    future: "asyncio.Future" = field(default=None, repr=False)  # type: ignore[assignment]

    @property
    def batch_key(self) -> BatchKey:
        return (self.tenant, self.program.program_id)

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_s is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline_s


@dataclass
class BatchResult:
    """Per-request slice of one executed batch."""

    ciphertext: LweCiphertext
    report: ExecutionReport
    batch_size: int
    queue_s: float
    #: Per-stage latency breakdown (ms): queue_wait, batch_linger,
    #: execute — the numbers the reply header carries back so the
    #: client sees where its milliseconds went.
    stages: Dict[str, float] = field(default_factory=dict)


class RequestScheduler:
    """Bounded-queue batching dispatcher over tenant executors."""

    def __init__(
        self,
        max_pending: int = 64,
        max_batch: int = 16,
        linger_s: float = 0.0,
        flight: Optional[FlightRecorder] = None,
        admission_engine: Optional[str] = "batched",
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.max_pending = max_pending
        self.max_batch = max_batch
        self.linger_s = linger_s
        self.flight = flight
        #: Engine key the static feasibility check reads from each
        #: program's cost certificate; ``None`` disables the check.
        self.admission_engine = admission_engine
        self._pending: Deque[ServeRequest] = collections.deque()
        self._cond: Optional[asyncio.Condition] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fhe-exec"
        )
        #: Monotonically increasing dispatch statistics (test hooks).
        self.stats: Dict[str, int] = {
            "dispatched_batches": 0,
            "dispatched_requests": 0,
            "coalesced_batches": 0,
            "deadline_cancellations": 0,
            "infeasible_rejections": 0,
            "busy_rejections": 0,
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._cond = asyncio.Condition()
        self._closed = False
        self._task = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def stop(self) -> None:
        if self._cond is None:
            return
        async with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._task is not None:
            await self._task
            self._task = None
        while self._pending:
            request = self._pending.popleft()
            if not request.future.done():
                request.future.set_exception(
                    ServeError(Status.ERROR, "server shutting down")
                )
        self._executor.shutdown(wait=True)

    @property
    def depth(self) -> int:
        return len(self._pending)

    def _record_trouble(self, reason: str, **context) -> None:
        """Note a BUSY/DEADLINE/crash on the flight recorder."""
        if self.flight is None:
            return
        self.flight.record_event(f"serve:{reason}", **context)
        self.flight.trigger(reason, **context)

    def _predicted_ms(self, request: ServeRequest) -> Optional[float]:
        """Certified execute-latency prediction for this request.

        ``None`` (no certificate on the program, or admission checks
        disabled) means no static opinion — the request is admitted
        and the runtime deadline machinery takes over.
        """
        if self.admission_engine is None:
            return None
        certificate = getattr(request.program, "certificate", None)
        if certificate is None:
            return None
        return certificate.predicted_execute_ms(self.admission_engine)

    # -- admission -----------------------------------------------------
    async def submit(self, request: ServeRequest) -> BatchResult:
        """Admit one request and await its slice of a batch result.

        Raises :class:`ServeError` with BUSY when the queue is full,
        DEADLINE when the request cannot make its deadline, ERROR on
        shutdown or execution failure.
        """
        assert self._cond is not None, "scheduler not started"
        obs = _get_obs()
        now = time.monotonic()
        if request.expired(now):
            self.stats["deadline_cancellations"] += 1
            # Pre-admission DEADLINE counts like the post-queue one:
            # the status counter and flight recorder must agree no
            # matter where in the pipeline the deadline died.
            if obs.active:
                obs.metrics.inc(
                    "serve_requests", status=Status.DEADLINE
                )
            self._record_trouble(
                "deadline", tenant=request.tenant,
                where="admission",
            )
            raise ServeError(
                Status.DEADLINE,
                "deadline expired before the request was admitted",
            )
        predicted_ms = self._predicted_ms(request)
        if (
            predicted_ms is not None
            and request.deadline_s is not None
            and now + predicted_ms / 1e3 > request.deadline_s
        ):
            # Static feasibility: the certificate says execution alone
            # outlasts the deadline budget, so reject before the
            # request consumes a queue slot or a single bootstrap.
            budget_ms = (request.deadline_s - now) * 1e3
            self.stats["deadline_cancellations"] += 1
            self.stats["infeasible_rejections"] += 1
            if obs.active:
                obs.metrics.inc(
                    "serve_requests", status=Status.DEADLINE
                )
            self._record_trouble(
                "deadline", tenant=request.tenant,
                where="admission-infeasible",
                predicted_ms=round(predicted_ms, 1),
                budget_ms=round(budget_ms, 1),
            )
            raise ServeError(
                Status.DEADLINE,
                f"statically infeasible: predicted execute latency "
                f"{predicted_ms:.0f} ms exceeds the {budget_ms:.0f} ms "
                f"deadline budget",
            )
        async with self._cond:
            if self._closed:
                raise ServeError(
                    Status.ERROR, "server is shutting down"
                )
            if len(self._pending) >= self.max_pending:
                self.stats["busy_rejections"] += 1
                if obs.active:
                    obs.metrics.inc(
                        "serve_requests", status=Status.BUSY
                    )
                self._record_trouble(
                    "busy", tenant=request.tenant,
                    queue_depth=len(self._pending),
                )
                raise ServeError(
                    Status.BUSY,
                    f"queue full ({self.max_pending} pending); "
                    f"retry with backoff",
                )
            request.enqueued_at = now
            request.future = asyncio.get_running_loop().create_future()
            self._pending.append(request)
            if obs.active:
                obs.metrics.set_gauge(
                    "serve_queue_depth", len(self._pending)
                )
            self._cond.notify_all()
        return await request.future

    # -- dispatch ------------------------------------------------------
    def _count_key(self, key: BatchKey) -> int:
        return sum(1 for r in self._pending if r.batch_key == key)

    async def _dispatch_loop(self) -> None:
        assert self._cond is not None
        while True:
            async with self._cond:
                await self._cond.wait_for(
                    lambda: self._pending or self._closed
                )
                if not self._pending:
                    return  # closed and drained
                key = self._pending[0].batch_key
            linger_elapsed = 0.0
            if self.linger_s > 0:
                linger_t0 = time.perf_counter()
                await self._linger(key)
                linger_elapsed = time.perf_counter() - linger_t0
            async with self._cond:
                batch: List[ServeRequest] = []
                kept: Deque[ServeRequest] = collections.deque()
                while self._pending:
                    request = self._pending.popleft()
                    if (
                        request.batch_key == key
                        and len(batch) < self.max_batch
                    ):
                        batch.append(request)
                    else:
                        kept.append(request)
                self._pending = kept
                obs = _get_obs()
                if obs.active:
                    obs.metrics.set_gauge(
                        "serve_queue_depth", len(self._pending)
                    )
            if batch:
                try:
                    await self._dispatch(batch, linger_elapsed)
                except Exception as exc:
                    # The loop must survive anything _dispatch throws:
                    # a dead dispatcher strands every queued future.
                    self._record_trouble(
                        "dispatch-failure", error=str(exc)
                    )
                    failure = ServeError(
                        Status.ERROR, f"dispatch failed: {exc}"
                    )
                    for request in batch:
                        if not request.future.done():
                            request.future.set_exception(failure)

    async def _linger(self, key: BatchKey) -> None:
        """Hold the batch open briefly so stragglers can coalesce."""
        assert self._cond is not None

        async def _until_full() -> None:
            async with self._cond:
                await self._cond.wait_for(
                    lambda: self._closed
                    or self._count_key(key) >= self.max_batch
                )

        try:
            await asyncio.wait_for(_until_full(), timeout=self.linger_s)
        except asyncio.TimeoutError:
            pass

    async def _dispatch(
        self, batch: List[ServeRequest], linger_elapsed: float = 0.0
    ) -> None:
        obs = _get_obs()
        now = time.monotonic()
        live: List[ServeRequest] = []
        for request in batch:
            if request.expired(now):
                self.stats["deadline_cancellations"] += 1
                if obs.active:
                    obs.metrics.inc(
                        "serve_requests", status=Status.DEADLINE
                    )
                self._record_trouble(
                    "deadline", tenant=request.tenant,
                    where="queue",
                    queued_s=now - request.enqueued_at,
                )
                if not request.future.done():
                    request.future.set_exception(
                        ServeError(
                            Status.DEADLINE,
                            f"deadline expired after "
                            f"{now - request.enqueued_at:.3f}s queued",
                        )
                    )
            else:
                live.append(request)
        if not live:
            return

        program = live[0].program
        runtime = live[0].runtime
        stacked = LweCiphertext(
            np.stack([r.ciphertext.a for r in live]),
            np.stack([r.ciphertext.b for r in live]),
        )
        self.stats["dispatched_batches"] += 1
        self.stats["dispatched_requests"] += len(live)
        if len(live) > 1:
            self.stats["coalesced_batches"] += 1
        queue_waits_s = [now - r.enqueued_at for r in live]
        if obs.active:
            obs.metrics.observe("serve_batch_size", len(live))
            for wait_s in queue_waits_s:
                obs.metrics.observe(
                    "serve_stage_ms",
                    max(wait_s - linger_elapsed, 0.0) * 1e3,
                    stage="queue_wait",
                )
            obs.metrics.observe(
                "serve_stage_ms", linger_elapsed * 1e3,
                stage="batch_linger",
            )

        # The batch's spans (execute levels, worker chunks) hang off
        # the *primary* request's trace context; coalesced followers
        # still share the batch via their reply's ``stages``/report.
        batch_ctx = (
            live[0].ctx.child() if live[0].ctx is not None else None
        )

        def _execute():
            with use_trace_context(batch_ctx):
                return runtime.server.execute_many(
                    program.netlist, stacked, schedule=program.schedule
                )

        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        try:
            outputs, report = await loop.run_in_executor(
                self._executor, _execute
            )
        except Exception as exc:
            if obs.active:
                obs.metrics.inc(
                    "serve_requests", status=Status.ERROR
                )
            self._record_trouble(
                "execution-failure", tenant=live[0].tenant,
                program=program.program_id[:12], error=str(exc),
            )
            failure = ServeError(
                Status.ERROR, f"execution failed: {exc}"
            )
            for request in live:
                if not request.future.done():
                    request.future.set_exception(failure)
            return
        execute_s = time.perf_counter() - t0
        if obs.active:
            obs.tracer.add(
                f"serve:batch x{len(live)}",
                cat="serve",
                start_s=t0,
                end_s=t0 + execute_s,
                track="serve",
                ctx=batch_ctx,
                tenant=live[0].tenant,
                program=program.program_id[:12],
                batch=len(live),
                gates=program.netlist.num_gates * len(live),
            )
            obs.metrics.observe(
                "serve_stage_ms", execute_s * 1e3, stage="execute"
            )
            obs.metrics.inc(
                "serve_requests", len(live), status=Status.OK
            )
            if report.wall_time_s > 0:
                # Request x level 2-D batching throughput: every gate
                # of every coalesced request rode a fused bootstrap.
                obs.metrics.set_gauge(
                    "bootstraps_per_sec",
                    report.gates_bootstrapped / report.wall_time_s,
                    backend="serve",
                )
        for i, request in enumerate(live):
            result = BatchResult(
                ciphertext=LweCiphertext(outputs.a[i], outputs.b[i]),
                report=report,
                batch_size=len(live),
                queue_s=queue_waits_s[i],
                stages={
                    "queue_wait_ms": max(
                        queue_waits_s[i] - linger_elapsed, 0.0
                    ) * 1e3,
                    "batch_linger_ms": linger_elapsed * 1e3,
                    "execute_ms": execute_s * 1e3,
                },
            )
            if not request.future.done():
                request.future.set_result(result)
