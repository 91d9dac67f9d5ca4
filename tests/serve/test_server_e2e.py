"""End-to-end serving test over a real TCP socket.

The acceptance scenario for the serving layer: two tenants with
*different* cloud keys register distinct programs, eight concurrent
encrypted requests are served, same-program requests demonstrably
coalesce into SIMD batches, a past-deadline request is cancelled with
a DEADLINE reply, and every decrypted output matches the
:class:`~repro.runtime.executors.PlaintextBackend` reference.
"""

import concurrent.futures

import numpy as np
import pytest

from repro import obs
from repro.chiseltorch.dtypes import SInt
from repro.core.compiler import TensorSpec, compile_function
from repro.runtime.executors import PlaintextBackend
from repro.serve import (
    BusyError,
    DeadlineError,
    FheServiceClient,
    ServeClientError,
    ServeConfig,
    serving,
)
from repro.tfhe import TFHE_TEST, decrypt_bits, encrypt_bits, generate_keys


@pytest.fixture(scope="module")
def other_keys():
    """Tenant B's own key pair, distinct from the shared session keys."""
    return generate_keys(TFHE_TEST, seed=99)


@pytest.fixture(scope="module")
def program_add():
    return compile_function(
        lambda x, y: x + y,
        [TensorSpec("x", (2,), SInt(4)), TensorSpec("y", (2,), SInt(4))],
        name="add",
    )


@pytest.fixture(scope="module")
def program_sub():
    return compile_function(
        lambda x, y: x - y,
        [TensorSpec("x", (2,), SInt(4)), TensorSpec("y", (2,), SInt(4))],
        name="sub",
    )


def _encrypt(compiled, secret, seed, x, y):
    bits = compiled.encode_inputs(np.asarray(x), np.asarray(y))
    return encrypt_bits(secret, bits, np.random.default_rng(seed))


def _reference_bits(compiled, x, y):
    inputs = compiled.encode_inputs(np.asarray(x), np.asarray(y))
    out_bits, _ = PlaintextBackend().run(compiled.netlist, inputs)
    return out_bits


def test_two_tenants_concurrent_batching_deadlines(
    test_keys, other_keys, program_add, program_sub
):
    secret_a, cloud_a = test_keys
    secret_b, cloud_b = other_keys
    config = ServeConfig(
        port=0, backend="batched", linger_s=0.2, max_batch=8
    )
    from repro.analyze.cache import default_cache

    default_cache().clear()  # isolate the analysis-cache counters
    with obs.observe() as ob, serving(config) as handle:
        # -- registration: each tenant uploads its key once, then its
        # program (tenant B registers both programs to show programs
        # are shared service-wide while keys stay per-tenant).
        with FheServiceClient(
            "127.0.0.1", handle.port, "tenant-a"
        ) as client_a:
            reply = client_a.register_key(cloud_a)
            assert reply["created"] is True
            # Idempotent re-register of the same key.
            assert client_a.register_key(cloud_a)["created"] is False
            pid_add = client_a.register_program(program_add)

            with FheServiceClient(
                "127.0.0.1", handle.port, "tenant-b"
            ) as client_b:
                assert client_b.register_key(cloud_b)["created"] is True
                pid_sub = client_b.register_program(program_sub)
                # Content-hash cache: tenant B re-uploading tenant A's
                # binary gets the same program id back.
                assert client_b.register_program(program_add) == pid_add
            assert pid_sub != pid_add

            # A different key under an existing tenant id is refused.
            with pytest.raises(ServeClientError) as err:
                client_a.register_key(cloud_b)
            assert err.value.status == "BAD_REQUEST"

        # -- analysis economy: three program uploads across two tenants
        # ran the static analyzer exactly twice — once per distinct
        # binary; tenant B's re-upload of tenant A's program touched
        # neither the analyzer nor the analysis cache (the registry's
        # metadata short-circuits first).
        assert ob.metrics.counter_value("analyze_cache_miss") == 2
        assert ob.metrics.counter_value("analyze_cache_hit") == 0

        # -- 8 concurrent encrypted requests: six same-program calls
        # for tenant A (these should coalesce) plus two for tenant B.
        jobs = []
        for i in range(6):
            x = [i - 3, i - 2]
            y = [2, -1]
            jobs.append(
                ("tenant-a", pid_add, program_add, secret_a, x, y)
            )
        for i in range(2):
            x = [3, -2]
            y = [i + 1, i - 4]
            jobs.append(
                ("tenant-b", pid_sub, program_sub, secret_b, x, y)
            )

        def fire(job_index):
            tenant, pid, compiled, secret, x, y = jobs[job_index]
            ct = _encrypt(compiled, secret, 1000 + job_index, x, y)
            with FheServiceClient(
                "127.0.0.1", handle.port, tenant, timeout_s=120
            ) as client:
                out_ct, report, info = client.call(pid, ct)
            return job_index, out_ct, report, info

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=len(jobs)
        ) as pool:
            results = list(pool.map(fire, range(len(jobs))))

        # -- correctness: every output decrypts (under its tenant's
        # secret key) to the PlaintextBackend reference bits.
        for job_index, out_ct, report, info in results:
            tenant, pid, compiled, secret, x, y = jobs[job_index]
            got = decrypt_bits(secret, out_ct)
            assert np.array_equal(got, _reference_bits(compiled, x, y))
            # The report describes the whole SIMD batch the request
            # rode in on.
            expected_gates = (
                compiled.netlist.num_gates * info["batch_size"]
            )
            assert report.gates_total == expected_gates

        # -- batching: tenant A's same-program requests coalesced.
        batch_sizes = {
            job_index: info["batch_size"]
            for job_index, _, _, info in results
        }
        assert max(batch_sizes[i] for i in range(6)) > 1
        hist = ob.metrics.as_dict()["histograms"]["serve_batch_size"]
        assert hist["max"] > 1
        assert hist["count"] >= 2  # more than one dispatch happened

        # -- deadlines: an already-expired request gets DEADLINE back,
        # and never reaches the executor.
        with FheServiceClient(
            "127.0.0.1", handle.port, "tenant-a"
        ) as client:
            ct = _encrypt(program_add, secret_a, 77, [1, 1], [2, 2])
            with pytest.raises(DeadlineError):
                client.call(pid_add, ct, deadline_ms=0)

            snapshot = client.metrics()
            stats = snapshot["stats"]
            assert stats["coalesced_batches"] >= 1
            assert stats["dispatched_requests"] == len(jobs)
            assert stats["deadline_cancellations"] >= 1

            # Server-side spans landed on the dedicated serve track.
            pong = client.ping()
            assert pong["tenants"] == 2
            assert pong["programs"] == 2
    cats = {span.cat for span in ob.tracer.spans}
    assert "serve" in cats
    doc = obs.to_chrome_trace(ob.tracer, ob.metrics)
    assert obs.validate_chrome_trace(doc) > 0
    assert any(
        e["ph"] == "M" and e["args"]["name"] == "serve"
        for e in doc["traceEvents"]
    )


def test_oversized_frame_gets_busy_not_hangup(test_keys, program_add):
    """A frame past the server limit draws BUSY; the connection and
    subsequent well-sized requests keep working."""
    secret_a, cloud_a = test_keys
    config = ServeConfig(port=0, max_frame_bytes=4 * 1024 * 1024)
    with serving(config) as handle:
        with FheServiceClient(
            "127.0.0.1", handle.port, "tenant-a", retries=0
        ) as client:
            client.register_key(cloud_a)
            pid = client.register_program(program_add)
            with pytest.raises(BusyError):
                client.request(
                    3,  # CALL
                    {"program_id": pid},
                    payload=b"\0" * (5 * 1024 * 1024),
                )
            # The stream stayed synchronized: a real call still works.
            ct = _encrypt(program_add, secret_a, 5, [1, 2], [3, -1])
            out_ct, _, _ = client.call(pid, ct)
            got = decrypt_bits(secret_a, out_ct)
            assert np.array_equal(
                got, _reference_bits(program_add, [1, 2], [3, -1])
            )
            assert client.metrics()["stats"]["busy_rejections"] >= 1


def test_nested_header_gets_bad_request_and_server_keeps_serving():
    """A frame header nested past the JSON decoder's recursion limit
    draws BAD_REQUEST instead of killing the connection task, and a
    second connection is still served."""
    import socket
    import struct

    from repro.serve.protocol import (
        MAGIC,
        PROTOCOL_VERSION,
        MessageKind,
        read_frame_sync,
    )

    header = b"[" * 200_000
    frame = struct.pack(
        ">4sHHII", MAGIC, PROTOCOL_VERSION, MessageKind.PING, len(header), 0
    ) + header
    with serving(ServeConfig(port=0)) as handle:
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=30
        ) as sock:
            sock.sendall(frame)
            reply = read_frame_sync(sock)
        assert reply.status == "BAD_REQUEST"
        assert "undecodable frame header" in reply.header["message"]
        with FheServiceClient(
            "127.0.0.1", handle.port, "tenant-a", retries=0
        ) as client:
            assert client.ping()["tenants"] == 0


def test_ok_reply_report_is_scalars_only(test_keys, program_add):
    """The serve loop always observes, but what it observed stays in
    its tracer: the reply's ``report`` is the run's scalar fields — no
    per-level event list — and rebuilds losslessly on the client."""
    import dataclasses

    from repro.runtime import ExecutionReport
    from repro.serialization import save_ciphertext

    secret_a, cloud_a = test_keys
    with serving(ServeConfig(port=0)) as handle:
        with FheServiceClient(
            "127.0.0.1", handle.port, "tenant-a"
        ) as client:
            client.register_key(cloud_a)
            pid = client.register_program(program_add)
            ct = _encrypt(program_add, secret_a, 9, [2, 1], [0, -3])
            reply = client.request(
                3,  # CALL
                {"program_id": pid},
                payload=save_ciphertext(ct),
            )
    doc = reply.header["report"]
    assert "trace" not in doc
    assert set(doc) == {
        f.name for f in dataclasses.fields(ExecutionReport)
    }
    report = ExecutionReport.from_dict(doc)
    assert report.as_dict() == doc
    assert report.gates_bootstrapped > 0 and report.levels > 0


def test_static_admission_rejects_infeasible_deadline(
    test_keys, program_add
):
    """A deadline below the certified execute latency draws DEADLINE
    at admission — before any queue slot or bootstrap is spent — while
    a feasible deadline on the same program completes normally."""
    secret_a, cloud_a = test_keys
    with serving(ServeConfig(port=0, backend="batched")) as handle:
        with FheServiceClient(
            "127.0.0.1", handle.port, "tenant-a", timeout_s=120
        ) as client:
            client.register_key(cloud_a)
            pid = client.register_program(program_add)
            # The paper cost model predicts well over 50 ms for the
            # 34-bootstrapped-gate adder on any engine.
            ct = _encrypt(program_add, secret_a, 9, [1, 2], [3, 1])
            with pytest.raises(DeadlineError) as err:
                client.call(pid, ct, deadline_ms=25)
            assert "statically infeasible" in err.value.message
            stats = client.metrics()["stats"]
            assert stats["infeasible_rejections"] == 1
            assert stats["deadline_cancellations"] == 1
            assert stats["dispatched_requests"] == 0

            out_ct, _, _ = client.call(pid, ct, deadline_ms=120_000)
            got = decrypt_bits(secret_a, out_ct)
            assert np.array_equal(
                got, _reference_bits(program_add, [1, 2], [3, 1])
            )
            stats = client.metrics()["stats"]
            assert stats["dispatched_requests"] == 1
            assert stats["infeasible_rejections"] == 1


def test_gatecost_path_loads_site_calibration(tmp_path):
    from repro.perfmodel import GateCostModel
    from repro.serve.server import FheServer

    path = str(tmp_path / "gatecost.json")
    GateCostModel("site-cal", 0.02, 3.0, 0.15, 132).save(path)
    server = FheServer(ServeConfig(port=0, gatecost_path=path))
    assert server.gate_cost is not None
    assert server.gate_cost.name == "site-cal"
    assert server.registry.cost_config.gate_cost.name == "site-cal"
    varz = server._varz()
    assert varz["gate_cost"] == "site-cal"
    assert varz["admission_engine"] == "batched"


def test_unknown_tenant_and_program_not_found(test_keys):
    _, cloud_a = test_keys
    with serving(ServeConfig(port=0)) as handle:
        with FheServiceClient(
            "127.0.0.1", handle.port, "ghost", retries=0
        ) as client:
            with pytest.raises(ServeClientError) as err:
                client.call(
                    "deadbeef",
                    _encrypt_dummy(),
                )
            assert err.value.status == "NOT_FOUND"
            client.register_key(cloud_a)
            with pytest.raises(ServeClientError) as err:
                client.call("deadbeef", _encrypt_dummy())
            assert err.value.status == "NOT_FOUND"


def _encrypt_dummy():
    from repro.tfhe.lwe import LweCiphertext

    return LweCiphertext(
        np.zeros((1, 4), dtype=np.int32), np.zeros(1, dtype=np.int32)
    )
