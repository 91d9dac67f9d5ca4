"""Execution backends for PyTFHE programs."""

from .distributed import (
    DistributedCpuBackend,
    shared_pool,
    shutdown_shared_pools,
)
from .executors import (
    COORDINATOR,
    CpuBackend,
    ExecutionReport,
    MAX_FHE_NODES,
    PlaintextBackend,
)
from .profiler import GateProfile, profile_gate
from .scheduler import Level, Schedule, build_schedule, shard_level
from .shm import SharedCiphertextPlane, ShmActorPool, default_mp_context

__all__ = [
    "COORDINATOR",
    "CpuBackend",
    "DistributedCpuBackend",
    "ExecutionReport",
    "GateProfile",
    "Level",
    "MAX_FHE_NODES",
    "PlaintextBackend",
    "Schedule",
    "SharedCiphertextPlane",
    "ShmActorPool",
    "build_schedule",
    "default_mp_context",
    "profile_gate",
    "shard_level",
    "shared_pool",
    "shutdown_shared_pools",
]
