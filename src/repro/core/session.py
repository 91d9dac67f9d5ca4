"""Client/server session: the cloud-offload workflow of paper Fig. 1.

The *client* owns the secret key: it encrypts inputs and decrypts
results.  The *server* (cloud) holds only the cloud key and the
compiled PyTFHE binary: it evaluates the DAG of bootstrapped gates
without ever seeing a plaintext.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..hdl.netlist import Netlist
from ..isa import assemble, disassemble
from ..obs import get as _get_obs
from ..runtime.distributed import DistributedCpuBackend
from ..runtime.executors import CpuBackend, ExecutionReport
from ..tfhe import (
    CloudKey,
    LweCiphertext,
    TFHEParameters,
    TFHE_DEFAULT_128,
    decrypt_bits,
    encrypt_bits,
    generate_keys,
)
from .compiler import CompiledCircuit


class Client:
    """Key owner: encrypts inputs, decrypts outputs."""

    def __init__(
        self,
        params: TFHEParameters = TFHE_DEFAULT_128,
        seed: Optional[int] = None,
    ):
        self.params = params
        with _get_obs().tracer.span(
            "session:keygen", cat="session", params=params.name
        ):
            self._secret, self._cloud = generate_keys(params, seed=seed)
        self._rng = np.random.default_rng(seed)

    @property
    def cloud_key(self) -> CloudKey:
        """The evaluation key to ship to the server (no secret inside)."""
        return self._cloud

    def encrypt(
        self, compiled: CompiledCircuit, *arrays: np.ndarray
    ) -> LweCiphertext:
        bits = compiled.encode_inputs(*arrays)
        return self.encrypt_bits(bits)

    def decrypt(
        self, compiled: CompiledCircuit, ciphertext: LweCiphertext
    ) -> List[np.ndarray]:
        bits = self.decrypt_bits(ciphertext)
        return compiled.decode_outputs(bits)

    def encrypt_bits(self, bits) -> LweCiphertext:
        with _get_obs().tracer.span(
            "session:encrypt", cat="session", bits=len(bits)
        ):
            return encrypt_bits(self._secret, bits, self._rng)

    def decrypt_bits(self, ciphertext: LweCiphertext) -> np.ndarray:
        with _get_obs().tracer.span("session:decrypt", cat="session"):
            return decrypt_bits(self._secret, ciphertext)


class Server:
    """Cloud evaluator: runs PyTFHE binaries over ciphertexts.

    ``backend`` selects where levels bootstrap: ``"batched"`` (the
    default) is the in-process level-batched SIMD bootstrapping engine
    — whole BFS levels fuse their blind rotations and key switches
    into single vectorized calls, and :meth:`execute_many` stacks
    cross-request batches on top (request × level 2-D batching).
    ``"distributed"`` runs the same level loop with each level sharded
    over a pool of worker processes sharing the ciphertext plane; the
    pool stays warm across calls, the cloud key is broadcast once when
    it starts, and later runs report ``key_bytes_moved == 0``.

    ``check_programs=True`` runs the static analyzer (structural lint,
    hazard detection, and — with the server key's parameter set —
    noise certification) over every program before it touches a
    ciphertext, raising :class:`repro.analyze.AnalysisError` instead of
    executing an unsound circuit.
    """

    def __init__(
        self,
        cloud_key: CloudKey,
        backend: str = "batched",
        num_workers: Optional[int] = None,
        check_programs: bool = False,
    ):
        self.cloud_key = cloud_key
        self._check_config = None
        if check_programs:
            from ..analyze import AnalyzerConfig

            self._check_config = AnalyzerConfig(
                params=cloud_key.params
            )
        if backend == "batched":
            self._backend: CpuBackend = CpuBackend(cloud_key)
        elif backend == "distributed":
            self._backend = DistributedCpuBackend(cloud_key, num_workers)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.backend_name = backend

    def execute(
        self,
        program: Union[Netlist, bytes, CompiledCircuit],
        inputs: LweCiphertext,
    ) -> Tuple[LweCiphertext, ExecutionReport]:
        netlist = self._checked_netlist(program)
        with _get_obs().tracer.span(
            "session:execute", cat="session",
            backend=self.backend_name, gates=netlist.num_gates,
        ):
            return self._backend.run(netlist, inputs)

    def execute_many(
        self,
        program: Union[Netlist, bytes, CompiledCircuit],
        inputs: LweCiphertext,
        schedule=None,
    ) -> Tuple[LweCiphertext, ExecutionReport]:
        """Evaluate one program over many encrypted input sets.

        ``inputs`` has batch shape ``(instances, num_inputs)`` and the
        result ``(instances, num_outputs)``.  The whole batch folds
        into one ``run_many`` call — every level bootstraps all
        instances at once, the amortization the serving layer's
        cross-request batcher relies on.
        """
        netlist = self._checked_netlist(program)
        with _get_obs().tracer.span(
            "session:execute_many", cat="session",
            backend=self.backend_name, gates=netlist.num_gates,
            instances=inputs.batch_shape[0] if inputs.a.ndim == 3
            else -1,
        ):
            return self._backend.run_many(
                netlist, inputs, schedule=schedule
            )

    def _checked_netlist(
        self, program: Union[Netlist, bytes, CompiledCircuit]
    ) -> Netlist:
        netlist = _resolve_netlist(program)
        if self._check_config is not None:
            # Content-hash cached: re-executing an unchanged program
            # costs a digest, not a re-analysis.
            from ..analyze.cache import analyze_netlist_cached

            analyze_netlist_cached(
                netlist, self._check_config
            ).report.raise_on_errors()
        return netlist

    def shutdown(self) -> None:
        if isinstance(self._backend, DistributedCpuBackend):
            self._backend.shutdown()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _resolve_netlist(
    program: Union[Netlist, bytes, CompiledCircuit]
) -> Netlist:
    if isinstance(program, Netlist):
        return program
    if isinstance(program, (bytes, bytearray)):
        return disassemble(bytes(program))
    if isinstance(program, CompiledCircuit):
        return program.netlist
    raise TypeError(f"cannot execute {type(program)!r}")


def compile_to_binary(compiled: CompiledCircuit) -> bytes:
    """Assemble a compiled circuit into the PyTFHE binary format."""
    return assemble(compiled.netlist)
