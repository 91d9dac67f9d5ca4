"""Zero-copy shared-memory worker pool for the distributed CPU backend.

Shipping every level's ciphertext batches through ``multiprocessing``
pipes (as Ray would between nodes) costs more than the bootstraps it
distributes.  This module keeps the entire per-run ciphertext plane —
``num_nodes x instances x (n+1)`` int32, the paper's per-node
ciphertext table with a request axis — in a
:class:`multiprocessing.shared_memory.SharedMemory` segment instead.
Workers attach once per run and call the same
:func:`~repro.runtime.executors.bootstrap_level` as the in-process
engine on their shard of each level, *in place*, so the only per-level
traffic is a ``("level", index)`` command and a small completion
record.  The coordinator is a worker too: it bootstraps the smallest
shard of every level on the same plane while the helper processes run
theirs, so ``num_workers`` helpers keep ``num_workers + 1`` cores busy.
Every process runs its shard with OpenBLAS on one thread: the
processes already fill the cores, and BLAS threads on top of them
spin against each other.

Workers are persistent processes (a miniature Ray actor each): the
serialized cloud key is broadcast exactly once when the pool starts,
and the pool is reused across ``run()`` calls.  All state crosses
process boundaries as picklable bytes/arrays, so the pool works under
both the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import pickle
import time
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _wait_ready
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..hdl.netlist import Netlist
from ..isa import assemble, disassemble
from ..tfhe.keys import CloudKey
from .executors import COORDINATOR, Chunk, bootstrap_level
from .scheduler import Schedule, shard_level

#: Environment override for the multiprocessing start method
#: (``fork`` | ``spawn`` | ``forkserver``).  CI forces ``spawn`` to
#: prove the pool carries no fork-inherited state.
MP_START_METHOD_ENV = "REPRO_MP_START_METHOD"


def default_mp_context():
    """Pick a multiprocessing context that exists on this platform.

    ``fork`` is preferred where available (cheap process start);
    macOS/Windows fall back to ``spawn``.  ``REPRO_MP_START_METHOD``
    overrides the choice.
    """
    method = os.environ.get(MP_START_METHOD_ENV)
    if not method:
        available = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in available else "spawn"
    return multiprocessing.get_context(method)


#: ``(get, set)`` thread-count symbols, by OpenBLAS build.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy loaded.

    The library is found by path in ``/proc/self/maps``; ``None`` where
    there is no such file or no OpenBLAS (BLAS threading is then left
    as it is).
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1] for line in maps if "openblas" in line.lower()
            }
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                get = getattr(lib, get_name, None)
                set_ = getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    except OSError:
        pass
    return None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore the count."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


class SharedCiphertextPlane:
    """The per-run ciphertext plane, resident in shared memory.

    Layout: ``a`` (``num_nodes x instances x dimension`` int32 masks)
    followed by ``b`` (``num_nodes x instances`` int32 bodies).  The
    driver creates the segment; workers attach by name and operate on
    numpy views, so ciphertexts never cross a pipe.
    """

    def __init__(
        self,
        num_nodes: int,
        instances: int,
        dimension: int,
        _shm: Optional[shared_memory.SharedMemory] = None,
    ):
        self.shape = (num_nodes, instances, dimension)
        samples = num_nodes * instances
        if _shm is None:
            _shm = shared_memory.SharedMemory(
                create=True, size=max(samples * (dimension + 1) * 4, 1)
            )
        self._shm = _shm
        self.a = np.ndarray(self.shape, dtype=np.int32, buffer=self._shm.buf)
        self.b = np.ndarray(
            self.shape[:2],
            dtype=np.int32,
            buffer=self._shm.buf,
            offset=samples * dimension * 4,
        )

    @property
    def meta(self) -> Tuple[str, int, int, int]:
        """Picklable handle: the segment name, then the plane shape."""
        return (self._shm.name, *self.shape)

    @classmethod
    def attach(
        cls, meta: Tuple[str, int, int, int]
    ) -> "SharedCiphertextPlane":
        name, *shape = meta
        return cls(*shape, _shm=shared_memory.SharedMemory(name=name))

    def nbytes(self) -> int:
        return self.a.nbytes + self.b.nbytes

    def close(self) -> None:
        """Drop the numpy views and unmap the segment (keeps it alive)."""
        self.a = None
        self.b = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (creator side).  Idempotent."""
        if self._shm is None:
            return
        shm = self._shm
        self.a = None
        self.b = None
        self._shm = None
        try:
            shm.unlink()
        finally:
            try:
                shm.close()
            except BufferError:
                # A view outlived the run; the mapping is reclaimed
                # when it is garbage collected — the name is gone.
                pass


def _send(conn, message) -> int:
    """Pickle + send one control message; returns bytes on the wire."""
    blob = pickle.dumps(message)
    conn.send_bytes(blob)
    return len(blob)


def _recv(conn):
    """Receive one control message; returns ``(message, nbytes)``."""
    blob = conn.recv_bytes()
    return pickle.loads(blob), len(blob)


def _shm_worker_main(conn, worker_id: int, key_blob: bytes) -> None:
    """Worker process loop: hold the key, evaluate chunks on command.

    Top-level function with picklable arguments only, so it starts
    cleanly under ``spawn``.  The cloud key arrives serialized exactly
    once, at pool start.
    """
    from ..serialization import load_cloud_key

    key = load_cloud_key(key_blob)
    plane: Optional[SharedCiphertextPlane] = None
    netlist = None
    chunks: Dict[int, np.ndarray] = {}
    while True:
        try:
            message, _ = _recv(conn)
        except (EOFError, OSError):
            break
        command = message[0]
        try:
            if command == "plan":
                _, binary, chunks, plane_meta, fingerprint = message
                if fingerprint != key.fingerprint():
                    raise RuntimeError(
                        "plan was built for a different cloud key"
                    )
                if plane is not None:
                    plane.close()
                netlist = disassemble(binary)
                plane = SharedCiphertextPlane.attach(plane_meta)
                _send(conn, ("ready", worker_id))
            elif command == "level":
                level_index = message[1]
                ids = chunks[level_index]
                t0 = time.perf_counter()
                with _one_blas_thread():
                    bootstrap_level(key, netlist, plane.a, plane.b, ids)
                duration = time.perf_counter() - t0
                _send(conn, ("done", worker_id, level_index, len(ids), duration))
            elif command == "end_run":
                if plane is not None:
                    plane.close()
                    plane = None
                netlist = None
                chunks = {}
                _send(conn, ("ended", worker_id))
            elif command == "stop":
                break
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown command {command!r}")
        except Exception as exc:  # pragma: no cover - crash path
            try:
                _send(
                    conn,
                    ("error", worker_id, f"{type(exc).__name__}: {exc}"),
                )
            except (OSError, BrokenPipeError):
                break
    if plane is not None:
        plane.close()
    conn.close()


class ShmActorPool:
    """Persistent workers sharing a ciphertext plane with the driver.

    ``num_workers`` counts helper processes (default: one per core but
    this one); the coordinator bootstraps a shard of every level itself.
    The pool broadcasts the serialized cloud key once, at start; each
    ``run()`` of the owning backend then costs one plan broadcast plus
    a few dozen bytes of level commands.  ``run_count`` and
    ``key_bytes_pending`` feed the :class:`ExecutionReport`
    observability fields.
    """

    transport = "shm"

    def __init__(
        self,
        cloud_key: CloudKey,
        num_workers: Optional[int] = None,
        context=None,
    ):
        from ..serialization import save_cloud_key

        if num_workers is None:
            num_workers = max(1, (os.cpu_count() or 2) - 1)
        elif num_workers < 1:
            raise ValueError(
                f"num_workers must be at least 1 helper process, "
                f"got {num_workers}"
            )
        self.num_workers = num_workers
        self._cloud_key = cloud_key
        self.fingerprint = cloud_key.fingerprint()
        self.lwe_dimension = cloud_key.params.lwe_dimension
        context = context or default_mp_context()
        self.start_method = context.get_start_method()
        # Start the shared-memory resource tracker *before* forking
        # workers: every process then reports segment registrations to
        # the same tracker, so the driver's unlink() leaves nothing for
        # per-worker trackers to warn about at exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except (ImportError, AttributeError, OSError):  # pragma: no cover
            pass
        key_blob = save_cloud_key(cloud_key)
        self.key_bytes_pending = len(key_blob) * self.num_workers
        self.run_count = 0
        self.closed = False
        self.control_bytes = 0
        self.plan_bytes = 0
        self._plane: Optional[SharedCiphertextPlane] = None
        self._workers_by_level: Dict[int, List[int]] = {}
        self._netlist: Optional[Netlist] = None
        self._own_shards: Dict[int, np.ndarray] = {}
        self._procs = []
        self._conns = []
        for worker_id in range(self.num_workers):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_shm_worker_main,
                args=(child_conn, worker_id, key_blob),
                daemon=True,
                name=f"repro-shm-worker-{worker_id}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    # -- lifecycle -----------------------------------------------------
    def consume_key_bytes(self) -> int:
        """Key bytes broadcast since last asked (non-zero once only)."""
        pending = self.key_bytes_pending
        self.key_bytes_pending = 0
        return pending

    def begin_run(
        self, netlist, schedule: Schedule, instances: int
    ) -> SharedCiphertextPlane:
        """Allocate the plane and broadcast the program binary.

        The binary *is* the plan (the paper's deployment model): each
        worker disassembles it once per run and resolves its chunk's
        op codes, operands and tables locally, so only chunk *indices*
        cross the pipe per level.  The coordinator keeps the smallest
        shard of each level (``array_split`` puts the extra gates
        first), since it also dispatches and collects.
        """
        if self.closed:
            raise RuntimeError("pool is shut down")
        if self._plane is not None:
            raise RuntimeError("a run is already in flight on this pool")
        self.control_bytes = 0
        plane = SharedCiphertextPlane(
            netlist.num_nodes, instances, self.lwe_dimension
        )
        try:
            binary = assemble(netlist)
            chunks_by_worker: Dict[int, Dict[int, np.ndarray]] = {
                w: {} for w in range(self.num_workers)
            }
            self._workers_by_level = {}
            self._own_shards = {}
            for level in schedule.levels:
                if not level.width:
                    continue
                *shards, own = shard_level(
                    level.bootstrapped, self.num_workers + 1
                )
                self._own_shards[level.index] = own
                self._workers_by_level[level.index] = list(range(len(shards)))
                for worker_id, shard in enumerate(shards):
                    chunks_by_worker[worker_id][level.index] = shard
            self.plan_bytes = 0
            for worker_id in range(self.num_workers):
                self.plan_bytes += self._send_or_abort(
                    worker_id,
                    (
                        "plan",
                        binary,
                        chunks_by_worker[worker_id],
                        plane.meta,
                        self.fingerprint,
                    ),
                )
            self._collect("ready", set(range(self.num_workers)))
        except Exception:
            plane.unlink()
            raise
        self._plane = plane
        self._netlist = netlist
        return plane

    def _send_or_abort(self, worker_id: int, message) -> int:
        """Send a command; a dead worker aborts the whole pool."""
        try:
            return _send(self._conns[worker_id], message)
        except (BrokenPipeError, OSError):
            self._abort()
            raise RuntimeError(
                f"distributed worker {worker_id} died "
                f"(transport=shm); pool aborted"
            ) from None

    def run_level(self, level_index: int) -> List[Chunk]:
        """Execute one BFS level; returns ``(worker, gates, seconds)``
        per chunk, the coordinator's own shard as worker
        :data:`~repro.runtime.executors.COORDINATOR`.  Only the level
        index crosses the pipe."""
        if self.closed:
            raise RuntimeError("pool is shut down")
        workers = self._workers_by_level.get(level_index, [])
        for worker_id in workers:
            self.control_bytes += self._send_or_abort(
                worker_id, ("level", level_index)
            )
        chunks: List[Chunk] = []
        own = self._own_shards.get(level_index)
        if own is not None:
            netlist, plane = self._netlist, self._plane
            assert netlist is not None and plane is not None, "no run"
            t0 = time.perf_counter()
            try:
                with _one_blas_thread():
                    bootstrap_level(
                        self._cloud_key, netlist, plane.a, plane.b, own
                    )
            except BaseException:
                # Workers may still owe replies for this level: a pool
                # left half-drained cannot run again, so tear it down.
                self._abort()
                raise
            chunks.append((COORDINATOR, len(own), time.perf_counter() - t0))
        replies = self._collect("done", set(workers))
        return chunks + [
            (worker_id, message[3], message[4])
            for worker_id, message in replies
        ]

    def end_run(self) -> None:
        """Detach workers from the plane and destroy the segment."""
        plane, self._plane = self._plane, None
        self._workers_by_level = {}
        self._own_shards = {}
        self._netlist = None
        if plane is None:
            return
        try:
            if not self.closed:
                for worker_id in range(self.num_workers):
                    self.control_bytes += self._send_or_abort(
                        worker_id, ("end_run",)
                    )
                self._collect("ended", set(range(self.num_workers)))
        finally:
            plane.unlink()

    def _collect(self, expected: str, pending: set):
        """Gather one ``expected`` reply per pending worker.

        A worker that died (EOF on its pipe) or answered with an error
        aborts the whole pool: remaining workers are terminated and the
        shared segment is unlinked, so a crash mid-level never leaks
        shared memory.
        """
        replies = []
        conn_to_worker = {
            self._conns[worker_id]: worker_id for worker_id in pending
        }
        while pending:
            ready = _wait_ready(
                [self._conns[worker_id] for worker_id in pending]
            )
            for conn in ready:
                worker_id = conn_to_worker[conn]
                try:
                    message, nbytes = _recv(conn)
                except (EOFError, OSError):
                    self._abort()
                    raise RuntimeError(
                        f"distributed worker {worker_id} died "
                        f"(transport=shm); pool aborted"
                    ) from None
                self.control_bytes += nbytes
                if message[0] == "error":
                    self._abort()
                    raise RuntimeError(
                        f"worker {worker_id} failed: {message[2]}"
                    )
                if message[0] != expected:  # pragma: no cover
                    self._abort()
                    raise RuntimeError(
                        f"protocol error: expected {expected!r}, "
                        f"got {message[0]!r}"
                    )
                pending.discard(worker_id)
                replies.append((worker_id, message))
        return replies

    def _abort(self) -> None:
        """Tear everything down after a worker crash, a failed
        coordinator shard or a protocol error."""
        plane, self._plane = self._plane, None
        self._workers_by_level = {}
        self._own_shards = {}
        self._netlist = None
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
        self.closed = True
        if plane is not None:
            plane.unlink()

    def shutdown(self) -> None:
        if self.closed:
            return
        for conn in self._conns:
            try:
                _send(conn, ("stop",))
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        plane, self._plane = self._plane, None
        if plane is not None:
            plane.unlink()
        self.closed = True

    def __enter__(self) -> "ShmActorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
