"""Bootstrapped boolean gates (the TFHE library gate API).

Every two-input gate is a public linear combination of its input
samples plus a torus constant, followed by one programmable bootstrap
and one key switch.  NOT / BUF / constants are linear-only and free.

The batched entry point :func:`evaluate_gates_batch` evaluates a whole
mixed-type level of gates with a single vectorized bootstrap — the
functional counterpart of the paper's GPU batch execution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gatetypes import BOOTSTRAPPED_GATES, NUM_CODES, TABLE_OPS, Gate
from .bootstrap import bootstrap_to_extracted
from .keys import CloudKey
from .keyswitch import keyswitch_apply
from .lut import programmable_bootstrap
from .lwe import LweCiphertext, lwe_trivial
from .torus import fraction_to_torus, wrap_int32

#: Message levels for the binary gate encoding: True = +1/8, False = -1/8.
MU_GATE = fraction_to_torus(1, 8)

#: ``LINEAR_FORM[code] = (ka, kb, eighths)`` for every bootstrapped op:
#: its pre-bootstrap sample is ``ka*in0 + kb*in1 + (0, eighths/8)``.  A
#: table op (LUT/B2D/D2B) rotates its one operand as is: ``(1, 0, 0)``.
LINEAR_FORM = np.zeros((NUM_CODES, 3), dtype=np.int64)
LINEAR_FORM[list(TABLE_OPS)] = (1, 0, 0)
for _gate, _form in (
    (Gate.AND, (1, 1, -1)),
    (Gate.NAND, (-1, -1, 1)),
    (Gate.OR, (1, 1, 1)),
    (Gate.NOR, (-1, -1, -1)),
    (Gate.XOR, (2, 2, 2)),
    (Gate.XNOR, (-2, -2, -2)),
    (Gate.ANDNY, (-1, 1, -1)),
    (Gate.ANDYN, (1, -1, -1)),
    (Gate.ORNY, (-1, 1, 1)),
    (Gate.ORYN, (1, -1, 1)),
):
    LINEAR_FORM[_gate] = _form


def trivial_bit(value: bool, params) -> LweCiphertext:
    """Noiseless encryption of a boolean constant (±1/8)."""
    mu = MU_GATE if value else wrap_int32(-np.int64(MU_GATE))[()]
    return lwe_trivial(mu, params.lwe_dimension)


def gate_linear_input(
    codes, ca: LweCiphertext, cb: LweCiphertext
) -> LweCiphertext:
    """Pre-bootstrap sample(s) of bootstrapped op(s) ``codes``.

    ``codes`` is one op code or one per sample of ``ca``/``cb``; each
    sample is ``ka*ca + kb*cb + eighths/8`` by :data:`LINEAR_FORM`.
    """
    ka, kb, eighths = LINEAR_FORM[codes].T
    a = (
        ca.a.astype(np.int64) * ka[..., None]
        + cb.a.astype(np.int64) * kb[..., None]
    )
    b = (
        ca.b.astype(np.int64) * ka
        + cb.b.astype(np.int64) * kb
        + eighths * np.int64(MU_GATE)
    )
    return LweCiphertext(wrap_int32(a), wrap_int32(b))


def bootstrap_binary(cloud: CloudKey, ct: LweCiphertext) -> LweCiphertext:
    """Bootstrap + key switch back to the small key (message ±1/8).

    The programmable bootstrap of the constant ``MU_GATE`` polynomial.
    """
    test_poly = np.full(cloud.params.tlwe_degree, MU_GATE, dtype=np.int32)
    return programmable_bootstrap(cloud, ct, test_poly)


def evaluate_gate(
    cloud: CloudKey,
    gate: Gate,
    ca: Optional[LweCiphertext] = None,
    cb: Optional[LweCiphertext] = None,
) -> LweCiphertext:
    """Evaluate one gate homomorphically.

    ``ca``/``cb`` may be omitted according to the gate's arity.
    """
    if gate is Gate.CONST0:
        return trivial_bit(False, cloud.params)
    if gate is Gate.CONST1:
        return trivial_bit(True, cloud.params)
    if ca is None:
        raise ValueError(f"gate {gate.name} requires an input")
    if gate is Gate.BUF:
        return ca.copy()
    if gate is Gate.NOT:
        return -ca
    if cb is None:
        raise ValueError(f"gate {gate.name} requires two inputs")
    return bootstrap_binary(cloud, gate_linear_input(gate, ca, cb))


def evaluate_mux(
    cloud: CloudKey,
    selector: LweCiphertext,
    when_true: LweCiphertext,
    when_false: LweCiphertext,
) -> LweCiphertext:
    """Native homomorphic MUX (the TFHE library's ``bootsMUX``).

    ``selector ? when_true : when_false`` with *two* bootstraps and a
    single shared key switch: the AND(sel, a) and ANDNY(sel, b) halves
    are bootstrapped (to the extracted key), summed with a +1/8 offset,
    and key-switched once — cheaper than the three full gates a netlist
    decomposition would use.
    """
    params = cloud.params
    taken = bootstrap_to_extracted(
        gate_linear_input(Gate.AND, selector, when_true),
        cloud.bootstrapping_key,
        params,
        MU_GATE,
    )
    skipped = bootstrap_to_extracted(
        gate_linear_input(Gate.ANDNY, selector, when_false),
        cloud.bootstrapping_key,
        params,
        MU_GATE,
    )
    # The two shares are mutually exclusive (+1/8 at most once), so
    # share_a + share_b + 1/8 lands exactly on the canonical ±1/8
    # levels — the TFHE library's MUX recombination.
    combined = (taken + skipped).add_constant(MU_GATE)
    return keyswitch_apply(cloud.keyswitching_key, combined)


def evaluate_gates_batch(
    cloud: CloudKey,
    gate_codes: np.ndarray,
    ca: LweCiphertext,
    cb: LweCiphertext,
) -> LweCiphertext:
    """Evaluate a batch of *bootstrapped* gates in one bootstrap pass.

    ``gate_codes`` is an int array of Gate values (all of which must be
    bootstrapped two-input gates); ``ca``/``cb`` are matching batches.
    """
    codes = np.asarray(gate_codes, dtype=np.int64)
    known = np.isin(codes, BOOTSTRAPPED_GATES)
    if not known.all():
        bad = sorted(set(codes[~known].tolist()))
        raise ValueError(f"non-bootstrapped gate codes in batch: {bad}")
    return bootstrap_binary(cloud, gate_linear_input(codes, ca, cb))
