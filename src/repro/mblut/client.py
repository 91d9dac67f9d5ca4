"""Client-side I/O contract and encrypt / decrypt for multi-bit netlists.

The :class:`MbIoMap` attached by synthesis ties the source circuit's
boolean bits to the mixed wires of the synthesized
:class:`~repro.hdl.netlist.Netlist`: boolean wires encrypt as the gate
encoding (±1/8), digit wires pack several source bits into one p-ary
:class:`~repro.tfhe.lut.IntegerEncoding` sample.  The io map is
client-side metadata — it never ships to the server, which only ever
sees the wire-level binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..tfhe.gates import MU_GATE
from ..tfhe.keys import SecretKey
from ..tfhe.lut import IntegerEncoding
from ..tfhe.lwe import LweCiphertext, lwe_encrypt, lwe_phase
from ..hdl.netlist import Netlist
from ..tfhe.torus import wrap_int32


@dataclass
class MbIoMap:
    """Boolean-bit <-> multi-bit-wire contract of a synthesized netlist.

    ``input_entries[i] = (wire_index, bit)`` maps boolean input bit
    ``i`` of the *source* netlist onto the multi-bit netlist's input wire:
    ``bit is None`` for a boolean wire (the bit travels as a gate
    encoding), else bit position ``bit`` of a digit-encoded wire.
    ``output_entries`` maps source output bits onto output positions
    the same way.
    """

    num_source_inputs: int
    num_source_outputs: int
    input_entries: List[Tuple[int, Optional[int]]] = field(
        default_factory=list
    )
    output_entries: List[Tuple[int, Optional[int]]] = field(
        default_factory=list
    )

    def encode_inputs(
        self, bits: np.ndarray, input_prec: np.ndarray
    ) -> np.ndarray:
        """Boolean input bits -> per-wire integer messages.

        ``bits`` has shape ``(num_source_inputs,)`` or
        ``(batch, num_source_inputs)``; the result has the matching
        batch shape over ``len(input_prec)`` wires.
        """
        arr = np.asarray(bits).astype(np.int64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.shape[1] != self.num_source_inputs:
            raise ValueError(
                f"expected {self.num_source_inputs} input bits, "
                f"got {arr.shape[1]}"
            )
        values = np.zeros((arr.shape[0], len(input_prec)), dtype=np.int64)
        for i, (wire, bit) in enumerate(self.input_entries):
            if bit is None:
                values[:, wire] = arr[:, i]
            else:
                values[:, wire] += arr[:, i] << bit
        return values[0] if single else values

    def decode_outputs(self, values: np.ndarray) -> np.ndarray:
        """Per-output-wire integer messages -> boolean output bits."""
        arr = np.asarray(values, dtype=np.int64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        bits = np.zeros(
            (arr.shape[0], self.num_source_outputs), dtype=bool
        )
        for i, (pos, bit) in enumerate(self.output_entries):
            if bit is None:
                bits[:, i] = arr[:, pos] != 0
            else:
                bits[:, i] = (arr[:, pos] >> bit) & 1 != 0
        return bits[0] if single else bits


def encrypt_mb_inputs(
    secret: SecretKey,
    netlist: Netlist,
    bits,
    rng: Optional[np.random.Generator] = None,
) -> LweCiphertext:
    """Encrypt source-circuit boolean inputs as the netlist's wires.

    ``bits`` has one entry per *source* input bit (the boolean
    circuit's width, not the mb netlist's); returns one LWE sample per
    mb input wire.
    """
    if netlist.io is None:
        raise ValueError(
            "netlist has no io map (disassembled binaries lose it); "
            "encrypt wire messages directly with repro.tfhe.encrypt_int"
        )
    if rng is None:
        rng = np.random.default_rng()
    io = netlist.io
    bit_arr = np.asarray(bits).astype(np.int64).reshape(-1)
    if len(bit_arr) != io.num_source_inputs:
        raise ValueError(
            f"expected {io.num_source_inputs} source bits, "
            f"got {len(bit_arr)}"
        )
    messages = io.encode_inputs(bit_arr.tolist(), netlist.input_prec)
    mus = np.zeros(netlist.num_inputs, dtype=np.int32)
    for wire, message in enumerate(messages):
        p = int(netlist.input_prec[wire])
        if p == 0:
            mu = np.int64(MU_GATE) if message else -np.int64(MU_GATE)
            mus[wire] = wrap_int32(mu)
        else:
            mus[wire] = IntegerEncoding(p).encode(message)
    return lwe_encrypt(
        secret.lwe_key, mus, secret.params.lwe_noise_std, rng
    )


def decrypt_mb_outputs(
    secret: SecretKey, netlist: Netlist, ct: LweCiphertext
) -> np.ndarray:
    """Decrypt the netlist's output wires back to source boolean bits."""
    if netlist.io is None:
        raise ValueError(
            "netlist has no io map; decrypt wire messages directly with "
            "repro.tfhe.decrypt_int"
        )
    phases = lwe_phase(secret.lwe_key, ct)
    phases = np.atleast_1d(phases)
    if phases.shape[-1] != netlist.num_outputs:
        raise ValueError(
            f"expected {netlist.num_outputs} output samples, "
            f"got {phases.shape[-1]}"
        )
    values = np.zeros(netlist.num_outputs, dtype=np.int64)
    for pos in range(netlist.num_outputs):
        p = int(netlist.node_prec(int(netlist.outputs[pos])))
        if p == 0:
            values[pos] = 1 if np.int32(phases[pos]) > 0 else 0
        else:
            values[pos] = IntegerEncoding(p).decode(phases[pos])
    return np.asarray(
        netlist.io.decode_outputs(values.tolist()), dtype=bool
    )
