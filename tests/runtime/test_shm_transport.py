"""Shared-memory worker pool tests: plane, pool lifecycle, crash safety."""

import multiprocessing
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import obs
from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.gatetypes import OP_LUT
from repro.runtime import shm as shm_module
from repro.runtime import (
    COORDINATOR,
    CpuBackend,
    DistributedCpuBackend,
    SharedCiphertextPlane,
    ShmActorPool,
    build_schedule,
    shard_level,
    shared_pool,
    shutdown_shared_pools,
)


@pytest.fixture(scope="module")
def adder_circuit():
    bd = CircuitBuilder()
    a = [bd.input() for _ in range(4)]
    b = [bd.input() for _ in range(4)]
    for bit in arith.ripple_add(bd, a, b, width=4, signed=False):
        bd.output(bit)
    return bd.build()


@pytest.fixture(scope="module")
def mb_adder_circuit(adder_circuit):
    from repro.mblut import synthesize

    return synthesize(adder_circuit, modulus=8)


@pytest.fixture()
def adder_ct(test_keys, rng):
    from repro.tfhe import encrypt_bits

    secret, _ = test_keys
    bits = np.array(
        [(5 >> i) & 1 for i in range(4)] + [(9 >> i) & 1 for i in range(4)],
        dtype=bool,
    )
    return encrypt_bits(secret, bits, rng)


ADDER_WANT = np.array([(14 >> i) & 1 for i in range(4)], dtype=bool)


class TestSharedCiphertextPlane:
    def test_round_trip_through_attach(self):
        plane = SharedCiphertextPlane(8, 2, 5)
        plane.a[:] = np.arange(80, dtype=np.int32).reshape(8, 2, 5)
        plane.b[:] = np.arange(16, dtype=np.int32).reshape(8, 2)
        other = SharedCiphertextPlane.attach(plane.meta)
        assert np.array_equal(
            other.a, np.arange(80, dtype=np.int32).reshape(8, 2, 5)
        )
        other.b[3, 1] = 99
        assert plane.b[3, 1] == 99  # same memory, zero copies
        other.close()
        plane.unlink()

    def test_unlink_removes_segment(self):
        plane = SharedCiphertextPlane(4, 1, 3)
        name = plane.meta[0]
        plane.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        plane.unlink()  # idempotent

    def test_sizes(self):
        plane = SharedCiphertextPlane(10, 3, 7)
        assert plane.a.shape == (10, 3, 7)
        assert plane.b.shape == (10, 3)
        assert plane.nbytes() == 10 * 3 * 8 * 4
        plane.unlink()


class TestShardLevel:
    def test_concatenation_preserves_order(self):
        ids = np.arange(17)
        shards = shard_level(ids, 5)
        assert len(shards) == 5
        assert np.array_equal(np.concatenate(shards), ids)

    def test_never_more_shards_than_gates(self):
        assert len(shard_level(np.arange(3), 8)) == 3

    def test_empty_level(self):
        assert shard_level(np.array([], dtype=np.int64), 4) == []

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_level(np.arange(3), 0)


class TestMatchesInProcess:
    def test_bit_identical_to_in_process(
        self, adder_circuit, test_keys, adder_ct
    ):
        """Distributed and in-process runs agree ciphertext-for-
        ciphertext (bootstrapping is deterministic given the key)."""
        from repro.tfhe import decrypt_bits

        secret, cloud = test_keys
        ref, _ = CpuBackend(cloud).run(adder_circuit, adder_ct)
        with DistributedCpuBackend(cloud, num_workers=2) as backend:
            out, report = backend.run(adder_circuit, adder_ct)
        assert report.transport == "shm"
        assert np.array_equal(out.a, ref.a)
        assert np.array_equal(out.b, ref.b)
        assert np.array_equal(decrypt_bits(secret, out), ADDER_WANT)

    def test_only_control_messages_cross_the_pipes(
        self, adder_circuit, test_keys, adder_ct
    ):
        """No ciphertext byte is pickled; what is (level indices and
        chunk reports) stays small — every run, warm pool or cold."""
        _, cloud = test_keys
        with DistributedCpuBackend(cloud, num_workers=2) as backend:
            reports = [
                backend.run(adder_circuit, adder_ct)[1] for _ in range(2)
            ]
        for report in reports:
            assert report.ciphertext_bytes_moved == 0
            assert 0 < report.extra["control_bytes_moved"] < 64 * 1024


class TestPersistentPool:
    def test_key_broadcast_exactly_once(
        self, adder_circuit, test_keys, adder_ct
    ):
        _, cloud = test_keys
        with DistributedCpuBackend.pool(cloud, num_workers=2) as pool:
            first_backend = DistributedCpuBackend(cloud, pool=pool)
            _, r1 = first_backend.run(adder_circuit, adder_ct)
            # A *different* backend on the same pool still pays nothing.
            second_backend = DistributedCpuBackend(cloud, pool=pool)
            _, r2 = second_backend.run(adder_circuit, adder_ct)
        assert r1.key_bytes_moved > 0
        assert not r1.pool_reused
        assert r2.key_bytes_moved == 0
        assert r2.pool_reused

    def test_shared_pool_singleton(self, test_keys):
        _, cloud = test_keys
        try:
            first = shared_pool(cloud, num_workers=2)
            assert shared_pool(cloud, num_workers=2) is first
        finally:
            shutdown_shared_pools()
        # After shutdown a fresh pool is built lazily.
        try:
            rebuilt = shared_pool(cloud, num_workers=2)
            assert rebuilt is not first
        finally:
            shutdown_shared_pools()


class TestKeyFingerprint:
    def test_stable_and_distinct(self, test_keys):
        from repro.tfhe import TFHE_TEST, generate_keys

        _, cloud = test_keys
        assert cloud.fingerprint() == cloud.fingerprint()
        _, other = generate_keys(TFHE_TEST, seed=7)
        assert cloud.fingerprint() != other.fingerprint()


class TestCrashSafety:
    @pytest.mark.parametrize(
        "circuit_name, code", [("adder_circuit", None), ("mb_adder_circuit", OP_LUT)]
    )
    def test_worker_crash_mid_level_unlinks_segment(
        self, circuit_name, code, test_keys, request
    ):
        """Boolean level, and a level holding LUT bootstraps."""
        _, cloud = test_keys
        circuit = request.getfixturevalue(circuit_name)
        pool = ShmActorPool(cloud, num_workers=2)
        schedule = build_schedule(circuit)
        plane = pool.begin_run(circuit, schedule, 1)
        segment = plane.meta[0]
        pool._procs[0].kill()
        pool._procs[0].join()
        # A level worker 0 has a shard of (width 1 runs on the
        # coordinator alone).
        level = next(
            level.index
            for level in schedule.levels
            if 0 in pool._workers_by_level.get(level.index, ())
            and (code is None or code in circuit.ops[level.bootstrapped])
        )
        with pytest.raises(RuntimeError, match="died"):
            pool.run_level(level)
        assert pool.closed
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)
        pool.shutdown()  # idempotent after abort

    def test_backend_survives_into_clean_error(
        self, adder_circuit, test_keys, adder_ct
    ):
        """A crash during run() raises; the plane never leaks."""
        _, cloud = test_keys
        backend = DistributedCpuBackend(cloud, num_workers=2)
        try:
            for proc in backend.pool._procs:
                proc.kill()
                proc.join()
            with pytest.raises(RuntimeError):
                backend.run(adder_circuit, adder_ct)
            assert backend.pool._plane is None
        finally:
            backend.shutdown()


class TestCoordinatorShardFailures:
    """Break the pool on purpose while the coordinator is inside its own
    shard; each ending leaves no segment, no live worker, and a fresh
    shared pool that still computes what the in-process engine does."""

    @staticmethod
    def _inside_own_shard(monkeypatch, hook):
        """Call ``hook(pool)`` when this process starts its own shard;
        the already-started workers keep the real kernel."""
        real = shm_module.bootstrap_level
        coordinator = os.getpid()

        def patched(*args):
            if os.getpid() == coordinator:
                hook()
            return real(*args)

        monkeypatch.setattr(shm_module, "bootstrap_level", patched)

    @pytest.mark.parametrize("ending", ["worker_killed", "shard_raises"])
    def test_pool_ends_clean_and_is_replaced(
        self, ending, adder_circuit, test_keys, adder_ct, monkeypatch
    ):
        _, cloud = test_keys
        try:
            pool = shared_pool(cloud, 1)
            segments = []

            def hook():
                segments.append(pool._plane.meta[0])
                if ending == "shard_raises":
                    raise ZeroDivisionError("coordinator shard failed")
                if len(segments) == 1:
                    pool._procs[0].kill()
                    pool._procs[0].join()

            self._inside_own_shard(monkeypatch, hook)
            backend = DistributedCpuBackend(cloud, pool=pool)
            if ending == "shard_raises":
                expected = pytest.raises(
                    ZeroDivisionError, match="coordinator shard failed"
                )
            else:
                expected = pytest.raises(RuntimeError, match="worker 0")
            with expected:
                backend.run(adder_circuit, adder_ct)
            monkeypatch.undo()
            assert pool.closed
            assert pool._plane is None
            assert all(proc.exitcode is not None for proc in pool._procs)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=segments[0])

            fresh = shared_pool(cloud, 1)
            assert fresh is not pool
            got, _ = DistributedCpuBackend(cloud, pool=fresh).run(
                adder_circuit, adder_ct
            )
            want, _ = CpuBackend(cloud).run(adder_circuit, adder_ct)
            assert np.array_equal(got.a, want.a)
            assert np.array_equal(got.b, want.b)
        finally:
            shutdown_shared_pools()


def test_shards_run_on_one_blas_thread_then_restore_it():
    threads = shm_module._openblas_threads()
    if threads is None:
        pytest.skip("numpy's OpenBLAS is not visible in /proc/self/maps")
    get, _ = threads
    before = get()
    with shm_module._one_blas_thread():
        assert get() == 1
    assert get() == before


class TestWorkerCount:
    def test_default_is_one_helper_per_other_core(self, test_keys):
        _, cloud = test_keys
        with ShmActorPool(cloud) as pool:
            assert pool.num_workers == max(1, (os.cpu_count() or 2) - 1)

    @pytest.mark.parametrize("count", [0, -2])
    def test_pool_rejects_fewer_than_one_helper(self, test_keys, count):
        _, cloud = test_keys
        before = len(multiprocessing.active_children())
        with pytest.raises(ValueError, match="num_workers"):
            ShmActorPool(cloud, num_workers=count)
        assert len(multiprocessing.active_children()) == before

    @pytest.mark.parametrize("count", [0, -2])
    def test_backend_rejects_fewer_than_one_helper(self, test_keys, count):
        _, cloud = test_keys
        with pytest.raises(ValueError, match="num_workers"):
            DistributedCpuBackend(cloud, num_workers=count)


class TestSpawnContext:
    """The pool must not rely on fork inheritance (macOS/Windows CI)."""

    def test_spawn_start_method(self, adder_circuit, test_keys, adder_ct):
        secret, cloud = test_keys
        from repro.tfhe import decrypt_bits

        context = multiprocessing.get_context("spawn")
        pool = ShmActorPool(cloud, num_workers=2, context=context)
        try:
            assert pool.start_method == "spawn"
            backend = DistributedCpuBackend(cloud, pool=pool)
            out, _ = backend.run(adder_circuit, adder_ct)
            assert np.array_equal(decrypt_bits(secret, out), ADDER_WANT)
        finally:
            pool.shutdown()

    def test_env_var_selects_start_method(self, monkeypatch):
        from repro.runtime import default_mp_context

        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        assert default_mp_context().get_start_method() == "spawn"
        monkeypatch.delenv("REPRO_MP_START_METHOD")
        assert default_mp_context().get_start_method() in (
            "fork",
            "spawn",
        )


class TestChunkTracing:
    @pytest.fixture()
    def level_spans(self, adder_circuit, test_keys, adder_ct):
        _, cloud = test_keys
        with obs.observe() as ob:
            with DistributedCpuBackend(cloud, num_workers=2) as backend:
                _, report = backend.run(adder_circuit, adder_ct)
        spans = [
            s for s in ob.tracer.iter_spans(cat="execute")
            if "kind" in s.args
        ]
        return report, spans

    def test_trace_records_per_chunk_timings(self, level_spans):
        _, spans = level_spans
        chunks = [s for s in spans if s.args["kind"] == "chunk"]
        assert chunks
        assert all(s.args["worker"] in (COORDINATOR, 0, 1) for s in chunks)
        for s in chunks:
            if s.args["worker"] == COORDINATOR:
                assert s.track == "coordinator"
            else:
                assert s.track == f"worker-{s.args['worker']}"
        assert all(s.end_s >= s.start_s for s in chunks)
        # Chunk gates per level sum to the level width, and the
        # coordinator runs a shard of every level, never the largest.
        bootstraps = {
            s.args["level"]: s.args["gates"]
            for s in spans
            if s.args["kind"] == "bootstrap"
        }
        for level, width in bootstraps.items():
            gates = {
                s.args["worker"]: s.args["gates"]
                for s in chunks if s.args["level"] == level
            }
            assert width == sum(gates.values())
            assert gates[COORDINATOR] == min(gates.values())
        assert {s.args["worker"] for s in chunks} == {COORDINATOR, 0, 1}

    def test_summary_separates_chunks(self, level_spans):
        report, spans = level_spans
        summary = obs.summarize_levels(spans)
        assert summary["chunk_events"] > 0
        assert summary["levels"] == report.levels
