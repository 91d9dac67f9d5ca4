"""Bootstrapped boolean gates (the TFHE library gate API).

Every two-input gate is a public linear combination of its input
samples plus a torus constant, followed by one programmable bootstrap
and one key switch.  NOT / BUF / constants are linear-only and free.

The batched entry point :func:`evaluate_gates_batch` evaluates a whole
mixed-type level of gates with a single vectorized bootstrap — the
functional counterpart of the paper's GPU batch execution.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..gatetypes import Gate
from .bootstrap import bootstrap_to_extracted
from .keys import CloudKey
from .keyswitch import keyswitch_apply
from .lwe import LweCiphertext, lwe_trivial
from .torus import fraction_to_torus, wrap_int32

#: Message levels for the binary gate encoding: True = +1/8, False = -1/8.
MU_GATE = fraction_to_torus(1, 8)

#: (coeff_a, coeff_b, constant_eighths) per bootstrapped gate: the
#: pre-bootstrap sample is ``ka*ca + kb*cb + (0, const/8)``.
_LINEAR: Dict[Gate, Tuple[int, int, int]] = {
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


def trivial_bit(value: bool, params) -> LweCiphertext:
    """Noiseless encryption of a boolean constant (±1/8)."""
    mu = MU_GATE if value else wrap_int32(-np.int64(MU_GATE))[()]
    return lwe_trivial(mu, params.lwe_dimension)


def gate_linear_input(
    gate: Gate, ca: LweCiphertext, cb: LweCiphertext
) -> LweCiphertext:
    """Pre-bootstrap linear combination for a bootstrapped gate."""
    ka, kb, const = _LINEAR[gate]
    eighth = np.int64(MU_GATE)
    a = ca.a.astype(np.int64) * ka + cb.a.astype(np.int64) * kb
    b = ca.b.astype(np.int64) * ka + cb.b.astype(np.int64) * kb + const * eighth
    return LweCiphertext(wrap_int32(a), wrap_int32(b))


_obs_get = None


def _ambient_obs():
    """Lazy hook into :func:`repro.obs.get`.

    ``repro.obs`` imports ``repro.tfhe.params``, so a module-level
    import here would cycle through the package __init__; resolving on
    first use (and caching the getter) keeps the disabled-path cost to
    one call + one attribute check per *batched* bootstrap.
    """
    global _obs_get
    if _obs_get is None:
        from .. import obs as _obs_module

        _obs_get = _obs_module.get
    return _obs_get()


def bootstrap_binary(cloud: CloudKey, ct: LweCiphertext) -> LweCiphertext:
    """Bootstrap + key switch back to the small key (message ±1/8).

    When observability is on, the two phases land in the
    ``bootstrap_phase_ms`` histogram (``phase=blind_rotate`` /
    ``phase=keyswitch``) — the split that tells you whether a slow
    level is rotation-bound or switching-bound.
    """
    obs = _ambient_obs()
    if not obs.active:
        extracted = bootstrap_to_extracted(
            ct, cloud.bootstrapping_key, cloud.params, MU_GATE
        )
        return keyswitch_apply(cloud.keyswitching_key, extracted)
    t0 = time.perf_counter()
    extracted = bootstrap_to_extracted(
        ct, cloud.bootstrapping_key, cloud.params, MU_GATE
    )
    t1 = time.perf_counter()
    out = keyswitch_apply(cloud.keyswitching_key, extracted)
    t2 = time.perf_counter()
    obs.metrics.observe(
        "bootstrap_phase_ms", (t1 - t0) * 1e3, phase="blind_rotate"
    )
    obs.metrics.observe(
        "bootstrap_phase_ms", (t2 - t1) * 1e3, phase="keyswitch"
    )
    return out


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
    ka = np.empty_like(codes)
    kb = np.empty_like(codes)
    kc = np.empty_like(codes)
    for gate, (ga, gb, gc) in _LINEAR.items():
        mask = codes == int(gate)
        ka[mask] = ga
        kb[mask] = gb
        kc[mask] = gc
    known = np.zeros_like(codes, dtype=bool)
    for gate in _LINEAR:
        known |= codes == int(gate)
    if not known.all():
        bad = sorted(set(codes[~known].tolist()))
        raise ValueError(f"non-bootstrapped gate codes in batch: {bad}")

    eighth = np.int64(MU_GATE)
    a = (
        ca.a.astype(np.int64) * ka[..., None]
        + cb.a.astype(np.int64) * kb[..., None]
    )
    b = (
        ca.b.astype(np.int64) * ka
        + cb.b.astype(np.int64) * kb
        + kc * eighth
    )
    linear = LweCiphertext(wrap_int32(a), wrap_int32(b))
    return bootstrap_binary(cloud, linear)
