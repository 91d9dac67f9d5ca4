"""Reference level bootstrap: the two-call path the one call replaced.

``bootstrap_level_reference`` splits a level into its boolean gates and
its table ops (LUT/B2D/D2B), bootstraps the boolean gates in one call
with the constant ``+1/8`` test polynomial and the table ops in a
second call with one test polynomial per gate, built gate by gate.
``repro.runtime.executors.bootstrap_level`` must leave the ciphertext
plane exactly as this does.  Test-only; never fast.
"""

from typing import Tuple

import numpy as np

from repro.gatetypes import OP_B2D, OP_D2B, OP_LUT, TABLE_OPS, Gate
from repro.tfhe.bootstrap import blind_rotate, bootstrap_to_extracted
from repro.tfhe.gates import MU_GATE
from repro.tfhe.keyswitch import keyswitch_apply
from repro.tfhe.lut import IntegerEncoding
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.tlwe import tlwe_extract_lwe
from repro.tfhe.torus import wrap_int32

#: (coeff_a, coeff_b, constant_eighths) per bootstrapped gate.
_LINEAR = {
    Gate.AND: (1, 1, -1),
    Gate.NAND: (-1, -1, 1),
    Gate.OR: (1, 1, 1),
    Gate.NOR: (-1, -1, -1),
    Gate.XOR: (2, 2, 2),
    Gate.XNOR: (-2, -2, -2),
    Gate.ANDNY: (-1, 1, -1),
    Gate.ANDYN: (1, -1, -1),
    Gate.ORNY: (-1, 1, 1),
    Gate.ORYN: (1, -1, 1),
}


def split_level(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a level's gate codes into (boolean, multi-bit) positions."""
    mb = np.isin(codes, TABLE_OPS)
    return np.nonzero(~mb)[0], np.nonzero(mb)[0]


def evaluate_gates_reference(cloud, codes, ca, cb) -> LweCiphertext:
    """Boolean gates: per-gate linear form, constant +1/8 polynomial."""
    ka, kb, kc = (
        np.array([_LINEAR[Gate(int(c))][i] for c in codes], dtype=np.int64)
        for i in range(3)
    )
    a = (
        ca.a.astype(np.int64) * ka[..., None]
        + cb.a.astype(np.int64) * kb[..., None]
    )
    b = (
        ca.b.astype(np.int64) * ka
        + cb.b.astype(np.int64) * kb
        + kc * np.int64(MU_GATE)
    )
    extracted = bootstrap_to_extracted(
        LweCiphertext(wrap_int32(a), wrap_int32(b)),
        cloud.bootstrapping_key,
        cloud.params,
        MU_GATE,
    )
    return keyswitch_apply(cloud.keyswitching_key, extracted)


def _slices(p: int, big_n: int) -> np.ndarray:
    return (np.arange(big_n, dtype=np.int64) * p) // big_n


def mb_test_poly_rows(
    netlist, gate_indices: np.ndarray, big_n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-gate test polynomials + post-rotation torus offsets."""
    n_in = netlist.num_inputs
    rows = np.zeros((len(gate_indices), big_n), dtype=np.int32)
    post = np.zeros(len(gate_indices), dtype=np.int32)
    for row, idx in enumerate(np.asarray(gate_indices, dtype=np.int64)):
        code = int(netlist.ops[idx])
        table = np.asarray(netlist.tables[int(netlist.table_id[idx])])
        src = int(netlist.in0[idx])
        in_prec = int(
            netlist.input_prec[src]
            if src < n_in
            else netlist.prec[src - n_in]
        )
        out_prec = int(netlist.prec[idx])
        if code == OP_LUT:
            rows[row] = IntegerEncoding(out_prec).encode(
                table[_slices(in_prec, big_n)]
            )
        elif code == OP_D2B:
            hot = table[_slices(in_prec, big_n)] != 0
            mu = np.int64(MU_GATE)
            rows[row] = wrap_int32(np.where(hot, mu, -mu))
        elif code == OP_B2D:
            enc = IntegerEncoding(out_prec)
            e0 = int(enc.encode(int(table[0])).astype(np.int64))
            e1 = int(enc.encode(int(table[1])).astype(np.int64))
            half = (e1 - e0) // 2
            rows[row] = np.int32(wrap_int32(np.int64(half)))
            post[row] = wrap_int32(np.int64(e0 + half))
        else:
            raise ValueError(f"op {code:#x} is not a multi-bit bootstrap")
    return rows, post


def mb_bootstrap_batch(cloud, ct, rows, post) -> LweCiphertext:
    """One blind rotation with a test polynomial per sample."""
    acc = blind_rotate(rows, ct, cloud.bootstrapping_key, cloud.params)
    out = keyswitch_apply(
        cloud.keyswitching_key, tlwe_extract_lwe(acc, cloud.params)
    )
    return LweCiphertext(
        out.a, wrap_int32(out.b.astype(np.int64) + post)
    )


def bootstrap_level_reference(cloud, netlist, a, b, gate_ids) -> int:
    """Bootstrap one level in two calls, in place; returns bytes moved."""
    codes = netlist.ops[gate_ids].astype(np.int64)
    bool_pos, mb_pos = split_level(codes)
    requests, dim = a.shape[1:]

    def gather(nodes):
        return LweCiphertext(a[nodes].reshape(-1, dim), b[nodes].reshape(-1))

    def scatter(ids, out):
        nodes = ids + netlist.num_inputs
        a[nodes] = out.a.reshape(-1, requests, dim)
        b[nodes] = out.b.reshape(-1, requests)

    moved = 0
    if len(bool_pos):
        ids = gate_ids[bool_pos]
        ca, cb = gather(netlist.in0[ids]), gather(netlist.in1[ids])
        out = evaluate_gates_reference(
            cloud, np.repeat(codes[bool_pos], requests), ca, cb
        )
        scatter(ids, out)
        moved += ca.nbytes() + cb.nbytes() + out.nbytes()
    if len(mb_pos):
        ids = gate_ids[mb_pos]
        ct = gather(netlist.in0[ids])
        rows, post = mb_test_poly_rows(
            netlist, ids, cloud.params.tlwe_degree
        )
        out = mb_bootstrap_batch(
            cloud,
            ct,
            np.repeat(rows, requests, axis=0),
            np.repeat(post, requests),
        )
        scatter(ids, out)
        moved += ct.nbytes() + out.nbytes()
    return moved
