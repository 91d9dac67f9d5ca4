"""Distributed CPU backend: a miniature Ray over ``multiprocessing``.

The paper wraps the TFHE library with pybind11 and drives it with Ray
actors, broadcasting the cloud key once and then submitting gate
evaluations as tasks (Section IV-D).  Here the actors are the
persistent workers of a :class:`~repro.runtime.shm.ShmActorPool`: the
run's ciphertext plane lives in shared memory, each worker runs
:func:`~repro.runtime.executors.bootstrap_level` on its shard of every
level in place, and only level indices cross the pipes.  The driving
process is an actor as well: it bootstraps the smallest shard of each
level itself between dispatching the level and collecting it, so
``num_workers`` helper processes keep ``num_workers + 1`` cores busy
(the default, one helper per other core, puts every core to work).

:class:`DistributedCpuBackend` is :class:`CpuBackend` with two things
replaced — where the plane lives and who runs the bootstrap step — so
it runs the same level loop, takes the same ``(R, num_inputs)``
batches, and executes multi-bit programs like the in-process engine.

A pool receives the serialized cloud key exactly once per lifetime;
reuse it across runs (``DistributedCpuBackend.pool()`` or
:func:`shared_pool`) and subsequent runs report
``key_bytes_moved == 0``.
"""

from __future__ import annotations

import atexit
import contextlib
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..obs import Observability
from ..tfhe.keys import CloudKey
from .executors import Chunk, CpuBackend, ExecutionReport, Plane
from .scheduler import Level, Schedule
from .shm import ShmActorPool

# A process-wide pool per (cloud key, workers), created lazily and
# reused across backends — the "broadcast the key once per deployment"
# amortization the paper's Ray actors provide.
_SHARED_POOLS: Dict[Tuple[str, Optional[int]], ShmActorPool] = {}


def shared_pool(
    cloud_key: CloudKey, num_workers: Optional[int] = None
) -> ShmActorPool:
    """Lazily create (or reuse) a process-wide pool for this key."""
    key = (cloud_key.fingerprint(), num_workers)
    pool = _SHARED_POOLS.get(key)
    if pool is None or pool.closed:
        pool = ShmActorPool(cloud_key, num_workers)
        _SHARED_POOLS[key] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Shut down every pool created by :func:`shared_pool`."""
    for pool in list(_SHARED_POOLS.values()):
        pool.shutdown()
    _SHARED_POOLS.clear()


atexit.register(shutdown_shared_pools)


class DistributedCpuBackend(CpuBackend):
    """Executes each BFS level across a process pool (Algorithm 1).

    Pass an existing pool to share it between backends;
    ``DistributedCpuBackend.pool()`` builds one with a context-managed
    lifetime.
    """

    def __init__(
        self,
        cloud_key: CloudKey,
        num_workers: Optional[int] = None,
        pool: Optional[ShmActorPool] = None,
        obs: Optional[Observability] = None,
    ):
        super().__init__(cloud_key, obs=obs)
        self._own_pool = pool is None
        self.pool = pool or ShmActorPool(cloud_key, num_workers)
        self.name = (
            f"cpu-distributed-{self.pool.num_workers}w-{self.pool.transport}"
        )

    @classmethod
    @contextlib.contextmanager
    def pool(
        cls, cloud_key: CloudKey, num_workers: Optional[int] = None
    ) -> Iterator[ShmActorPool]:
        """A persistent pool to share across backends and runs.

        The cloud key is broadcast when the pool starts and never
        again; every backend constructed with ``pool=...`` reuses the
        warm workers, so multi-inference sessions stop paying key
        transfer and process startup per run.
        """
        pool = ShmActorPool(cloud_key, num_workers)
        try:
            yield pool
        finally:
            pool.shutdown()

    def shutdown(self) -> None:
        if self._own_pool:
            self.pool.shutdown()

    def __enter__(self) -> "DistributedCpuBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @contextlib.contextmanager
    def _plane(
        self, netlist, schedule: Schedule, instances: int
    ) -> Iterator[Plane]:
        """The plane in shared memory, with the plan broadcast."""
        plane = self.pool.begin_run(netlist, schedule, instances)
        try:
            yield plane
        finally:
            self.pool.end_run()

    def _bootstrap_step(
        self, netlist, plane: Plane, level: Level
    ) -> Tuple[int, Sequence[Chunk]]:
        """Each worker, this process included, bootstraps its shard of
        the level in the plane; no ciphertext byte crosses a pipe."""
        return 0, self.pool.run_level(level.index)

    def _finish(self, report: ExecutionReport, obs: Observability) -> None:
        pool = self.pool
        report.pool_reused = pool.run_count > 0
        pool.run_count += 1
        report.key_bytes_moved = pool.consume_key_bytes()
        report.transport = pool.transport
        report.extra = {
            "control_bytes_moved": pool.control_bytes,
            "plan_bytes_moved": pool.plan_bytes,
        }
        if obs.active:
            for counter, value in (
                ("tasks_submitted", report.tasks_submitted),
                ("control_bytes_moved", pool.control_bytes),
                ("plan_bytes_moved", pool.plan_bytes),
                ("key_bytes_moved", report.key_bytes_moved),
            ):
                if value:
                    obs.metrics.inc(counter, value, transport=pool.transport)
