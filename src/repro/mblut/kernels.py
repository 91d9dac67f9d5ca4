"""Batched execution kernels for multi-bit netlists.

A scheduled level of a multi-bit :class:`~repro.hdl.netlist.Netlist` mixes
boolean bootstrapped gates with multi-bit bootstraps (LUT / B2D / D2B).
The boolean side reuses :func:`repro.tfhe.gates.evaluate_gates_batch`
unchanged; the multi-bit side fuses into *one* blind rotation per level
as well — :func:`repro.tfhe.bootstrap.blind_rotate` already broadcasts
per-sample test polynomials, so a whole level of heterogeneous LUTs is
a single ``(m, N)`` rotation followed by one extraction and one key
switch, exactly like the binary SIMD engine.

Test-polynomial construction per op:

* ``OP_LUT`` / ``OP_D2B`` — the half-torus slice polynomial of the
  gate's table (:func:`repro.tfhe.lut.lut_test_polynomial`); D2B tables
  emit the boolean ``±1/8`` levels instead of digit slices.
* ``OP_B2D`` — the input is a boolean ``±1/8`` sample, so the rotation
  only resolves its *sign*: a constant polynomial ``C = (enc(v1) -
  enc(v0)) / 2`` plus a per-gate post-rotation offset ``enc(v0) + C``
  maps False to ``enc(v0)`` and True to ``enc(v1)``.
* ``OP_LIN`` — no bootstrap at all: an integer-weighted sum of digit
  samples plus an exact re-centering constant (the per-slice ``+1/(4p)``
  offsets accumulate linearly and are corrected in plaintext).
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..gatetypes import OP_B2D, OP_D2B, OP_LUT, TABLE_OPS
from ..tfhe.bootstrap import blind_rotate
from ..tfhe.gates import MU_GATE, _ambient_obs
from ..tfhe.keys import CloudKey
from ..tfhe.keyswitch import keyswitch_apply
from ..tfhe.lut import IntegerEncoding
from ..tfhe.lwe import LweCiphertext
from ..tfhe.tlwe import tlwe_extract_lwe
from ..tfhe.torus import wrap_int32

_TWO32 = 1 << 32


def split_level(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a level's gate codes into (boolean, multi-bit) positions."""
    codes = np.asarray(codes)
    mb = np.isin(codes, TABLE_OPS)
    return np.nonzero(~mb)[0], np.nonzero(mb)[0]


def _digit_test_poly(
    table: np.ndarray, p: int, q: int, big_n: int
) -> np.ndarray:
    enc_out = IntegerEncoding(q)
    slice_of = (np.arange(big_n, dtype=np.int64) * p) // big_n
    return enc_out.encode(np.asarray(table, dtype=np.int64)[slice_of])


def _bool_test_poly(
    table: np.ndarray, p: int, big_n: int
) -> np.ndarray:
    slice_of = (np.arange(big_n, dtype=np.int64) * p) // big_n
    hot = np.asarray(table, dtype=np.int64)[slice_of] != 0
    mu = np.int64(MU_GATE)
    return wrap_int32(np.where(hot, mu, -mu))


def mb_test_poly_rows(
    netlist, gate_indices: np.ndarray, big_n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-gate test polynomials + post-rotation torus offsets.

    Returns ``(rows, post)`` with ``rows`` of shape ``(m, N)`` int32 and
    ``post`` of shape ``(m,)`` int32, for the multi-bit bootstrapped
    gates ``gate_indices`` of a multi-bit netlist.
    """
    m = len(gate_indices)
    n_in = netlist.num_inputs
    rows = np.zeros((m, big_n), dtype=np.int32)
    post = np.zeros(m, dtype=np.int32)
    cache = {}
    for row, idx in enumerate(np.asarray(gate_indices, dtype=np.int64)):
        code = int(netlist.ops[idx])
        tid = int(netlist.table_id[idx])
        table = netlist.tables[tid]
        src = int(netlist.in0[idx])
        in_prec = int(
            netlist.input_prec[src]
            if src < n_in
            else netlist.prec[src - n_in]
        )
        out_prec = int(netlist.prec[idx])
        key = (code, tid, in_prec, out_prec)
        hit = cache.get(key)
        if hit is not None:
            rows[row], post[row] = hit
            continue
        if code == OP_LUT:
            rows[row] = _digit_test_poly(table, in_prec, out_prec, big_n)
        elif code == OP_D2B:
            rows[row] = _bool_test_poly(table, in_prec, big_n)
        elif code == OP_B2D:
            enc = IntegerEncoding(out_prec)
            e0 = int(enc.encode(int(table[0])).astype(np.int64))
            e1 = int(enc.encode(int(table[1])).astype(np.int64))
            half = (e1 - e0) // 2
            rows[row] = np.int32(wrap_int32(np.int64(half)))
            post[row] = wrap_int32(np.int64(e0 + half))
        else:  # pragma: no cover - callers pre-split the level
            raise ValueError(f"op {code:#x} is not a multi-bit bootstrap")
        cache[key] = (rows[row].copy(), post[row])
    return rows, post


def mb_bootstrap_batch(
    cloud: CloudKey,
    ct: LweCiphertext,
    rows: np.ndarray,
    post: np.ndarray,
) -> LweCiphertext:
    """One fused blind rotation for a level's multi-bit bootstraps.

    ``ct`` has batch shape ``(m,)``; ``rows`` ``(m, N)`` and ``post``
    ``(m,)`` give each sample its test polynomial and post-rotation
    offset.  Under observability the two phases land in
    ``bootstrap_phase_ms`` exactly as
    :func:`repro.tfhe.gates.bootstrap_binary` records them.
    """
    params = cloud.params
    t0 = time.perf_counter()
    acc = blind_rotate(rows, ct, cloud.bootstrapping_key, params)
    extracted = tlwe_extract_lwe(acc, params)
    t1 = time.perf_counter()
    out = keyswitch_apply(cloud.keyswitching_key, extracted)
    obs = _ambient_obs()
    if obs.active:
        t2 = time.perf_counter()
        obs.metrics.observe(
            "bootstrap_phase_ms", (t1 - t0) * 1e3, phase="blind_rotate"
        )
        obs.metrics.observe(
            "bootstrap_phase_ms", (t2 - t1) * 1e3, phase="keyswitch"
        )
    if not np.any(post):
        return out
    return LweCiphertext(
        out.a, wrap_int32(out.b.astype(np.int64) + post)
    )


def lin_combine(
    ca: LweCiphertext,
    cb: Optional[LweCiphertext],
    kx: int,
    ky: int,
    kconst: int,
    modulus: int,
) -> LweCiphertext:
    """Leveled digit combination ``kx*a + ky*b + kconst`` (no bootstrap).

    Each operand encoding carries a ``+1/(4p)`` slice-center offset, so
    the weighted sum is off-center by ``(kx + ky - 1)/(4p)``; the exact
    plaintext correction ``(2*kconst + 1 - K) / (4p)`` re-centers the
    result on the slice of the intended message.  Exact for power-of-two
    moduli (``4p`` divides ``2**32``).
    """
    a = ca.a.astype(np.int64) * kx
    b = ca.b.astype(np.int64) * kx
    total_k = kx
    if cb is not None:
        a = a + cb.a.astype(np.int64) * ky
        b = b + cb.b.astype(np.int64) * ky
        total_k += ky
    delta = 2 * kconst + 1 - total_k
    b = b + (delta * _TWO32) // (4 * modulus)
    return LweCiphertext(wrap_int32(a), wrap_int32(b))
