"""Scheduler unit tests: admission, deadlines, coalescing.

These drive :class:`RequestScheduler` directly with a stub executor
(no FHE, no sockets) so queueing dynamics are fast and deterministic:
a ``threading.Event`` holds the executor thread mid-"bootstrap" while
the test shapes the queue behind it.
"""

import asyncio
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.runtime.executors import ExecutionReport
from repro.serve import (
    RequestScheduler,
    ServeError,
    ServeRequest,
    Status,
)
from repro.tfhe.lwe import LweCiphertext


class StubServer:
    """Echo executor: returns its inputs, optionally gated/failing."""

    def __init__(self, hold=None, fail=False):
        self.hold = hold
        self.fail = fail
        self.calls = []
        self.started = threading.Event()

    def execute_many(self, netlist, inputs, schedule=None):
        self.started.set()
        if self.hold is not None:
            assert self.hold.wait(timeout=10)
        if self.fail:
            raise RuntimeError("boom")
        self.calls.append(inputs.batch_shape[0])
        report = ExecutionReport(
            backend="stub",
            gates_total=netlist.num_gates,
            gates_bootstrapped=0,
            levels=1,
            wall_time_s=0.0,
        )
        return inputs, report


def make_request(server, program_id="prog", tenant="acme", value=0,
                 deadline_s=None, certificate=None):
    program = SimpleNamespace(
        program_id=program_id,
        netlist=SimpleNamespace(num_gates=4, num_inputs=2),
        schedule=None,
        certificate=certificate,
    )
    runtime = SimpleNamespace(server=server)
    ct = LweCiphertext(
        np.full((2, 3), value, dtype=np.int32),
        np.full(2, value, dtype=np.int32),
    )
    return ServeRequest(
        tenant=tenant,
        program=program,
        runtime=runtime,
        ciphertext=ct,
        deadline_s=deadline_s,
    )


def run_async(coro):
    return asyncio.run(coro)


async def with_scheduler(body, **kwargs):
    scheduler = RequestScheduler(**kwargs)
    await scheduler.start()
    try:
        return await body(scheduler)
    finally:
        await scheduler.stop()


class TestDispatch:
    def test_single_request_roundtrip(self):
        server = StubServer()

        async def body(scheduler):
            result = await scheduler.submit(
                make_request(server, value=7)
            )
            assert result.batch_size == 1
            assert np.all(result.ciphertext.b == 7)
            assert result.report.backend == "stub"

        run_async(with_scheduler(body))

    def test_requests_coalesce_while_executor_busy(self):
        hold = threading.Event()
        server = StubServer(hold=hold)

        async def body(scheduler):
            first = asyncio.ensure_future(
                scheduler.submit(make_request(server, value=1))
            )
            await asyncio.get_running_loop().run_in_executor(
                None, server.started.wait
            )
            rest = [
                asyncio.ensure_future(
                    scheduler.submit(make_request(server, value=v))
                )
                for v in (2, 3, 4)
            ]
            await asyncio.sleep(0.05)  # let them enqueue
            hold.set()
            results = await asyncio.gather(first, *rest)
            return results

        results = run_async(with_scheduler(body))
        assert results[0].batch_size == 1
        # The three requests queued behind the busy executor ran as
        # one SIMD batch, each echoing its own ciphertext back.
        assert [r.batch_size for r in results[1:]] == [3, 3, 3]
        assert [int(r.ciphertext.b[0]) for r in results] == [1, 2, 3, 4]
        assert server.calls == [1, 3]

    def test_linger_coalesces_concurrent_requests(self):
        server = StubServer()

        async def body(scheduler):
            futures = [
                asyncio.ensure_future(
                    scheduler.submit(make_request(server, value=v))
                )
                for v in (1, 2)
            ]
            return await asyncio.gather(*futures)

        results = run_async(
            with_scheduler(body, linger_s=0.25, max_batch=2)
        )
        assert [r.batch_size for r in results] == [2, 2]
        assert server.calls == [2]

    def test_different_programs_do_not_coalesce(self):
        hold = threading.Event()
        server = StubServer(hold=hold)

        async def body(scheduler):
            first = asyncio.ensure_future(
                scheduler.submit(make_request(server, "p0", value=1))
            )
            await asyncio.get_running_loop().run_in_executor(
                None, server.started.wait
            )
            futures = [
                asyncio.ensure_future(
                    scheduler.submit(
                        make_request(server, pid, value=v)
                    )
                )
                for pid, v in (("p1", 2), ("p2", 3))
            ]
            await asyncio.sleep(0.05)
            hold.set()
            return await asyncio.gather(first, *futures)

        results = run_async(with_scheduler(body))
        assert [r.batch_size for r in results] == [1, 1, 1]
        assert server.calls == [1, 1, 1]

    def test_max_batch_splits_dispatch(self):
        hold = threading.Event()
        server = StubServer(hold=hold)

        async def body(scheduler):
            first = asyncio.ensure_future(
                scheduler.submit(make_request(server, value=0))
            )
            await asyncio.get_running_loop().run_in_executor(
                None, server.started.wait
            )
            rest = [
                asyncio.ensure_future(
                    scheduler.submit(make_request(server, value=v))
                )
                for v in range(1, 6)
            ]
            await asyncio.sleep(0.05)
            hold.set()
            return await asyncio.gather(first, *rest)

        results = run_async(with_scheduler(body, max_batch=3))
        sizes = sorted(r.batch_size for r in results)
        assert sizes == [1, 2, 2, 3, 3, 3]
        assert sorted(server.calls) == [1, 2, 3]


class TestAdmissionControl:
    def test_queue_full_raises_busy(self):
        hold = threading.Event()
        server = StubServer(hold=hold)

        async def body(scheduler):
            running = asyncio.ensure_future(
                scheduler.submit(make_request(server, value=1))
            )
            await asyncio.get_running_loop().run_in_executor(
                None, server.started.wait
            )
            queued = asyncio.ensure_future(
                scheduler.submit(make_request(server, value=2))
            )
            await asyncio.sleep(0.05)
            with pytest.raises(ServeError) as err:
                await scheduler.submit(make_request(server, value=3))
            assert err.value.status == Status.BUSY
            assert scheduler.stats["busy_rejections"] == 1
            hold.set()
            await asyncio.gather(running, queued)

        run_async(with_scheduler(body, max_pending=1))

    def test_expired_deadline_rejected_at_admission(self):
        server = StubServer()

        async def body(scheduler):
            with pytest.raises(ServeError) as err:
                await scheduler.submit(
                    make_request(
                        server, deadline_s=time.monotonic() - 1.0
                    )
                )
            assert err.value.status == Status.DEADLINE

        run_async(with_scheduler(body))

    def test_queued_request_cancelled_past_deadline(self):
        hold = threading.Event()
        server = StubServer(hold=hold)

        async def body(scheduler):
            running = asyncio.ensure_future(
                scheduler.submit(make_request(server, value=1))
            )
            await asyncio.get_running_loop().run_in_executor(
                None, server.started.wait
            )
            doomed = asyncio.ensure_future(
                scheduler.submit(
                    make_request(
                        server,
                        value=2,
                        deadline_s=time.monotonic() + 0.05,
                    )
                )
            )
            await asyncio.sleep(0.15)  # deadline passes in-queue
            hold.set()
            await running
            with pytest.raises(ServeError) as err:
                await doomed
            assert err.value.status == Status.DEADLINE
            assert scheduler.stats["deadline_cancellations"] == 1
            # The expired request never reached the executor.
            assert server.calls == [1]

        run_async(with_scheduler(body))


def make_certificate(predicted_ms):
    """A minimal real certificate predicting ``predicted_ms`` batched."""
    from repro.analyze import CostCertificate

    return CostCertificate(
        subject="prog",
        cost_model="stub",
        gate_ms=13.0,
        linear_ms=0.2,
        ciphertext_bytes=2524,
        gates=4,
        bootstrapped=4,
        free_gates=0,
        depth=2,
        predicted_ms={
            "distributed@1": predicted_ms * 4,
            "batched": predicted_ms,
        },
    )


class TestStaticAdmission:
    """Certificate-driven feasibility checks at submit time."""

    def test_infeasible_deadline_rejected_before_queueing(self):
        from repro import obs

        server = StubServer()
        certificate = make_certificate(predicted_ms=60_000.0)

        async def body(scheduler):
            with pytest.raises(ServeError) as err:
                await scheduler.submit(
                    make_request(
                        server,
                        certificate=certificate,
                        deadline_s=time.monotonic() + 0.5,
                    )
                )
            assert err.value.status == Status.DEADLINE
            assert "statically infeasible" in err.value.message
            assert scheduler.stats["infeasible_rejections"] == 1
            assert scheduler.stats["deadline_cancellations"] == 1
            assert scheduler.depth == 0

        with obs.observe() as ob:
            run_async(with_scheduler(body))
        # The rejection never reached the executor and was counted
        # under the same status label as a post-queue deadline death.
        assert server.calls == []
        assert (
            ob.metrics.counter_value(
                "serve_requests", status=Status.DEADLINE
            )
            == 1
        )

    def test_feasible_deadline_is_admitted_and_served(self):
        server = StubServer()
        certificate = make_certificate(predicted_ms=1.0)

        async def body(scheduler):
            result = await scheduler.submit(
                make_request(
                    server,
                    value=5,
                    certificate=certificate,
                    deadline_s=time.monotonic() + 30.0,
                )
            )
            assert int(result.ciphertext.b[0]) == 5
            assert scheduler.stats["infeasible_rejections"] == 0

        run_async(with_scheduler(body))
        assert server.calls == [1]

    def test_no_deadline_skips_the_feasibility_check(self):
        server = StubServer()
        certificate = make_certificate(predicted_ms=60_000.0)

        async def body(scheduler):
            result = await scheduler.submit(
                make_request(server, certificate=certificate)
            )
            assert result.batch_size == 1

        run_async(with_scheduler(body))

    def test_uncertified_program_is_admitted(self):
        server = StubServer()

        async def body(scheduler):
            result = await scheduler.submit(
                make_request(
                    server, deadline_s=time.monotonic() + 30.0
                )
            )
            assert result.batch_size == 1

        run_async(with_scheduler(body))

    def test_admission_engine_none_disables_the_check(self):
        server = StubServer()
        certificate = make_certificate(predicted_ms=60_000.0)

        async def body(scheduler):
            result = await scheduler.submit(
                make_request(
                    server,
                    certificate=certificate,
                    deadline_s=time.monotonic() + 30.0,
                )
            )
            assert result.batch_size == 1
            assert scheduler.stats["infeasible_rejections"] == 0

        run_async(with_scheduler(body, admission_engine=None))

    def test_admission_reads_the_configured_engine(self):
        # distributed@1 predicts 4x the batched latency; a budget
        # between the two flips with the engine choice.
        server = StubServer()
        certificate = make_certificate(predicted_ms=1_000.0)

        async def feasible(scheduler):
            await scheduler.submit(
                make_request(
                    server,
                    certificate=certificate,
                    deadline_s=time.monotonic() + 2.0,
                )
            )

        async def infeasible(scheduler):
            with pytest.raises(ServeError) as err:
                await scheduler.submit(
                    make_request(
                        server,
                        certificate=certificate,
                        deadline_s=time.monotonic() + 2.0,
                    )
                )
            assert err.value.status == Status.DEADLINE

        run_async(with_scheduler(feasible, admission_engine="batched"))
        run_async(with_scheduler(infeasible, admission_engine="distributed@1"))

    def test_expired_deadline_counts_like_a_deadline_death(self):
        from repro import obs

        server = StubServer()

        async def body(scheduler):
            with pytest.raises(ServeError) as err:
                await scheduler.submit(
                    make_request(
                        server, deadline_s=time.monotonic() - 1.0
                    )
                )
            assert err.value.status == Status.DEADLINE

        with obs.observe() as ob:
            run_async(with_scheduler(body))
        assert (
            ob.metrics.counter_value(
                "serve_requests", status=Status.DEADLINE
            )
            == 1
        )


class TestFailureHandling:
    def test_execution_failure_maps_to_error(self):
        server = StubServer(fail=True)

        async def body(scheduler):
            with pytest.raises(ServeError) as err:
                await scheduler.submit(make_request(server))
            assert err.value.status == Status.ERROR
            assert "boom" in err.value.message

        run_async(with_scheduler(body))

    def test_stop_drains_queue_then_refuses_new(self):
        hold = threading.Event()
        server = StubServer(hold=hold)

        async def body():
            scheduler = RequestScheduler()
            await scheduler.start()
            running = asyncio.ensure_future(
                scheduler.submit(make_request(server, value=1))
            )
            await asyncio.get_running_loop().run_in_executor(
                None, server.started.wait
            )
            queued = asyncio.ensure_future(
                scheduler.submit(make_request(server, value=2))
            )
            await asyncio.sleep(0.05)
            hold.set()
            await scheduler.stop()
            # Graceful shutdown: already-admitted requests complete.
            first, second = await asyncio.gather(running, queued)
            assert int(first.ciphertext.b[0]) == 1
            assert int(second.ciphertext.b[0]) == 2
            # New work after stop is refused.
            with pytest.raises(ServeError) as err:
                await scheduler.submit(make_request(server, value=3))
            assert err.value.status == Status.ERROR

        run_async(body())

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            RequestScheduler(max_pending=0)
        with pytest.raises(ValueError):
            RequestScheduler(max_batch=0)
