"""Program registry and tenant keystore for the serving layer.

*Programs* are uploaded once as PyTFHE binaries, gated through the
static analyzer (:func:`repro.core.verify_compiled`), and cached by
content hash — two tenants uploading the same MNIST binary share one
disassembled netlist and schedule, and a re-upload is a metadata hit.

*Tenants* register their :class:`~repro.tfhe.CloudKey` exactly once.
Registration is where the key cost is paid: the keystore builds the
tenant's executor (a :class:`repro.core.Server`) immediately, so a
``distributed`` serving backend broadcasts the key to its warm worker
pool at registration time and every later call reports
``key_bytes_moved == 0`` — the key-once semantics of the distributed
runtime, lifted to the network boundary.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..analyze.analyzer import AnalyzerConfig
from ..analyze.cost import (
    CostAnalysisConfig,
    CostCertificate,
    cost_certificate,
)
from ..core.compiler import CheckArg, verify_compiled
from ..core.session import Server
from ..hdl.netlist import Netlist
from ..isa import disassemble
from ..obs import get as _get_obs
from ..runtime.scheduler import Schedule, build_schedule
from ..serialization import SerializationError, load_cloud_key
from ..tfhe.keys import CloudKey
from .protocol import Status


class ServeError(Exception):
    """A request-level failure with a wire status attached."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class RegisteredProgram:
    """One verified, executable program (immutable after register)."""

    program_id: str
    binary: bytes
    netlist: Netlist
    schedule: Schedule = field(repr=False)
    #: Static cost certificate (predicted latency/memory) — the
    #: scheduler's deadline-feasibility admission reads this.
    certificate: Optional[CostCertificate] = field(
        default=None, repr=False
    )

    @property
    def num_inputs(self) -> int:
        return self.netlist.num_inputs

    @property
    def num_outputs(self) -> int:
        return len(self.netlist.outputs)

    def describe(self) -> dict:
        doc = {
            "program_id": self.program_id,
            "gates": self.netlist.num_gates,
            "bootstrapped": self.schedule.num_bootstrapped,
            "levels": self.schedule.depth,
            "num_inputs": self.num_inputs,
            "num_outputs": self.num_outputs,
        }
        if self.certificate is not None:
            doc["predicted_ms"] = dict(self.certificate.predicted_ms)
            doc["peak_memory_bytes"] = self.certificate.peak_memory_bytes
            doc["classification"] = self.certificate.classification
        return doc


def program_id_of(binary: bytes) -> str:
    """Content hash used as the program's service-wide identity."""
    return hashlib.sha256(binary).hexdigest()[:32]


class ProgramRegistry:
    """Content-addressed store of analyzer-verified programs.

    ``cost_config`` carries the serve deployment's calibration and
    budgets into the analyzer's cost family, so every registered
    program gets a :class:`~repro.analyze.cost.CostCertificate`
    predicted with *this* machine's gate cost (loaded at startup from
    ``repro calibrate`` output) rather than the paper's.
    """

    def __init__(
        self,
        check: CheckArg = True,
        cost_config: Optional[CostAnalysisConfig] = None,
    ):
        if cost_config is not None:
            # Fold the deployment's calibration into the analyzer
            # config; the cache digest covers it, so a recalibrated
            # serve never reads a stale certificate.
            if isinstance(check, AnalyzerConfig):
                check = replace(check, cost=True, cost_config=cost_config)
            elif check:
                check = AnalyzerConfig(cost_config=cost_config)
        self.check = check
        self.cost_config = cost_config
        self._lock = threading.Lock()
        self._programs: Dict[str, RegisteredProgram] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def register(
        self, binary: bytes
    ) -> Tuple[RegisteredProgram, bool]:
        """Verify + cache a PyTFHE binary; returns ``(prog, cached)``.

        ``cached`` is True when this exact binary was already
        registered (by any tenant) and the upload was a no-op.
        """
        binary = bytes(binary)
        program_id = program_id_of(binary)
        with self._lock:
            existing = self._programs.get(program_id)
        if existing is not None:
            return existing, True
        try:
            netlist = disassemble(binary)
        except Exception as exc:
            raise ServeError(
                Status.BAD_REQUEST,
                f"not a PyTFHE binary: {exc}",
            ) from exc
        try:
            # The program id doubles as the analysis-cache digest, so a
            # previously-certified upload (even via another registry or
            # a direct `repro check`) skips re-analysis entirely.
            analysis = verify_compiled(
                netlist, self.check, cache_key=program_id
            )
        except Exception as exc:
            raise ServeError(
                Status.REJECTED,
                f"program failed static analysis: {exc}",
            ) from exc
        certificate = analysis.cost if analysis is not None else None
        if certificate is None:
            # Checking disabled (or a config without the cost family):
            # the admission path still needs a prediction, and a bare
            # certification sweep is cheap.
            certificate = cost_certificate(
                netlist, self.cost_config or CostAnalysisConfig()
            )
        program = RegisteredProgram(
            program_id=program_id,
            binary=binary,
            netlist=netlist,
            schedule=build_schedule(netlist),
            certificate=certificate,
        )
        with self._lock:
            # Another thread may have raced the same upload; content
            # addressing makes either instance equivalent.
            program = self._programs.setdefault(program_id, program)
        obs = _get_obs()
        if obs.active:
            obs.metrics.inc("serve_programs_registered")
            obs.metrics.set_gauge("serve_programs", len(self))
        return program, False

    def get(self, program_id: str) -> RegisteredProgram:
        with self._lock:
            program = self._programs.get(program_id)
        if program is None:
            raise ServeError(
                Status.NOT_FOUND,
                f"unknown program {program_id!r}; register it first",
            )
        return program


@dataclass
class TenantRuntime:
    """One tenant's executor state: key identity + warm backend."""

    tenant: str
    key_fingerprint: str
    server: Server = field(repr=False)


class TenantKeystore:
    """Holds each tenant's cloud key exactly once.

    ``backend`` / ``num_workers`` configure the
    per-tenant :class:`repro.core.Server`.  With
    ``backend="distributed"`` the worker pool spins up — and receives
    the serialized cloud key, once — at registration time.
    """

    def __init__(
        self,
        backend: str = "batched",
        num_workers: Optional[int] = None,
    ):
        self.backend = backend
        self.num_workers = num_workers
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantRuntime] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def register_blob(
        self, tenant: str, key_blob: bytes
    ) -> Tuple[TenantRuntime, bool]:
        try:
            cloud_key = load_cloud_key(bytes(key_blob))
        except SerializationError as exc:
            raise ServeError(
                Status.BAD_REQUEST, f"bad cloud key payload: {exc}"
            ) from exc
        return self.register(tenant, cloud_key)

    def register(
        self, tenant: str, cloud_key: CloudKey
    ) -> Tuple[TenantRuntime, bool]:
        """Install a tenant's key; returns ``(runtime, created)``.

        Re-registering the *same* key is idempotent; a different key
        under an existing tenant id is refused — rotating keys means
        registering a new tenant, never silently swapping the key a
        warm pool was primed with.
        """
        if not tenant:
            raise ServeError(
                Status.BAD_REQUEST, "tenant id must be non-empty"
            )
        fingerprint = cloud_key.fingerprint()
        with self._lock:
            existing = self._tenants.get(tenant)
        if existing is not None:
            if existing.key_fingerprint != fingerprint:
                raise ServeError(
                    Status.BAD_REQUEST,
                    f"tenant {tenant!r} already holds key "
                    f"{existing.key_fingerprint}; keys register once",
                )
            return existing, False
        with _get_obs().tracer.span(
            "serve:register_key", cat="serve", track="serve",
            tenant=tenant, backend=self.backend,
        ):
            server = Server(
                cloud_key,
                backend=self.backend,
                num_workers=self.num_workers,
            )
        runtime = TenantRuntime(
            tenant=tenant,
            key_fingerprint=fingerprint,
            server=server,
        )
        with self._lock:
            raced = self._tenants.get(tenant)
            if raced is not None:
                server.shutdown()
                if raced.key_fingerprint != fingerprint:
                    raise ServeError(
                        Status.BAD_REQUEST,
                        f"tenant {tenant!r} already holds key "
                        f"{raced.key_fingerprint}; keys register once",
                    )
                return raced, False
            self._tenants[tenant] = runtime
        obs = _get_obs()
        if obs.active:
            obs.metrics.inc("serve_tenants_registered")
            obs.metrics.set_gauge("serve_tenants", len(self))
        return runtime, True

    def get(self, tenant: str) -> TenantRuntime:
        with self._lock:
            runtime = self._tenants.get(tenant)
        if runtime is None:
            raise ServeError(
                Status.NOT_FOUND,
                f"unknown tenant {tenant!r}; register a cloud key first",
            )
        return runtime

    def shutdown(self) -> None:
        with self._lock:
            tenants = list(self._tenants.values())
            self._tenants.clear()
        for runtime in tenants:
            runtime.server.shutdown()
