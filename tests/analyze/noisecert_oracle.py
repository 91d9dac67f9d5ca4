"""Reference noise certifiers: the two formulations the sweep replaced.

* :func:`certify_per_gate` walks the gates one at a time, propagating
  each wire's variance in topological order and deciding each
  bootstrap against its own margin (1/8 for boolean gates and B2D,
  1/(4p) for LUT/D2B).  :func:`repro.analyze.certify_noise` must equal
  it field for field.
* :func:`certify_closed_form` is the boolean per-level closed form: the
  first bootstrapped level reads fresh encryptions only, every later
  level reads the worse of a fresh and a bootstrapped input.  It is an
  upper bound on the noise, so the sweep may only certify more margin.

Both return a :class:`~repro.analyze.NoiseCertificate` without
findings; :func:`nb_verdicts` derives the NB findings a certificate
implies.  Test-only; never fast.
"""

import math
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.analyze import LevelCertificate, NoiseCertificate
from repro.gatetypes import NO_INPUT, OP_B2D, OP_LIN, TABLE_OPS, Gate
from repro.hdl.netlist import Netlist
from repro.runtime.scheduler import Schedule
from repro.tfhe.noise import (
    bootstrap_output_variance,
    fresh_lwe_variance,
    modswitch_variance,
)
from repro.tfhe.params import TFHEParameters


def certify_per_gate(
    netlist: Netlist,
    schedule: Schedule,
    params: TFHEParameters,
    error_sigmas: float = 4.0,
    warn_sigmas: float = 6.0,
) -> NoiseCertificate:
    """Per-wire variance, one gate per iteration."""
    n_in = netlist.num_inputs
    precs = netlist.node_precisions()
    boot_var = bootstrap_output_variance(params)
    mod_var = modswitch_variance(params)

    var = np.zeros(netlist.num_nodes, dtype=np.float64)
    var[:n_in] = fresh_lwe_variance(params)
    gate_margin = np.zeros(netlist.num_gates, dtype=np.float64)
    gate_var = np.zeros(netlist.num_gates, dtype=np.float64)
    bootstrapped = np.zeros(netlist.num_gates, dtype=bool)
    for idx in range(netlist.num_gates):
        code = int(netlist.ops[idx])
        node = n_in + idx
        a = int(netlist.in0[idx])
        b = int(netlist.in1[idx])
        va = var[a] if a != NO_INPUT else 0.0
        vb = var[b] if b != NO_INPUT else 0.0
        if code == OP_LIN:
            kx, ky = int(netlist.kx[idx]), int(netlist.ky[idx])
            var[node] = kx * kx * va + (ky * ky * vb if b != NO_INPUT else 0)
            continue
        if code in TABLE_OPS:
            bootstrapped[idx] = True
            if code == OP_B2D:
                gate_margin[idx] = 1.0 / 8.0
            else:
                gate_margin[idx] = 1.0 / (4.0 * max(int(precs[a]), 2))
            gate_var[idx] = va + mod_var
            var[node] = boot_var
            continue
        gate = Gate(code)
        if gate.needs_bootstrap:
            bootstrapped[idx] = True
            gate_margin[idx] = 1.0 / 8.0
            # Worst boolean linear combination doubles both operands.
            gate_var[idx] = 4.0 * (va + vb) + mod_var
            var[node] = boot_var
        elif gate.arity == 0:
            var[node] = 0.0
        else:
            var[node] = va  # NOT/BUF: negation preserves variance

    levels: List[LevelCertificate] = []
    expected_failures = 0.0
    first_bootstrap: Optional[int] = None
    for level in schedule.levels:
        if not level.width:
            continue
        if first_bootstrap is None:
            first_bootstrap = level.index
        ids = np.asarray(level.bootstrapped, dtype=np.int64)
        ids = ids[bootstrapped[ids]]
        sigmas = np.sqrt(gate_var[ids])
        with np.errstate(divide="ignore"):
            z = np.where(sigmas > 0, gate_margin[ids] / sigmas, np.inf)
        p_fail = np.array(
            [math.erfc(v / math.sqrt(2.0)) if np.isfinite(v) else 0.0
             for v in z]
        )
        expected_failures += float(p_fail.sum())
        levels.append(
            LevelCertificate(
                level=level.index,
                gates=int(ids.size),
                fresh_inputs=level.index == first_bootstrap,
                margin_sigmas=float(z.min()),
                failure_probability=float(p_fail.max()),
            )
        )
    return NoiseCertificate(
        params_name=params.name,
        error_sigmas=error_sigmas,
        warn_sigmas=warn_sigmas,
        levels=levels,
        expected_failures=expected_failures,
    )


def certify_closed_form(
    schedule: Schedule,
    params: TFHEParameters,
    error_sigmas: float = 4.0,
    warn_sigmas: float = 6.0,
) -> NoiseCertificate:
    """The boolean worst case per level: two inputs of the worst kind,
    doubled by XOR, against the 1/8 gate margin."""
    fresh = fresh_lwe_variance(params)
    worst_input = {
        True: fresh,
        False: max(fresh, bootstrap_output_variance(params)),
    }
    levels: List[LevelCertificate] = []
    expected_failures = 0.0
    for level in schedule.levels:
        if not level.width:
            continue
        is_fresh = not levels
        sigma = math.sqrt(
            8 * worst_input[is_fresh] + modswitch_variance(params)
        )
        margin_sigmas = (1.0 / 8.0) / sigma
        p_fail = math.erfc(margin_sigmas / math.sqrt(2.0))
        expected_failures += p_fail * level.width
        levels.append(
            LevelCertificate(
                level=level.index,
                gates=level.width,
                fresh_inputs=is_fresh,
                margin_sigmas=margin_sigmas,
                failure_probability=p_fail,
            )
        )
    return NoiseCertificate(
        params_name=params.name,
        error_sigmas=error_sigmas,
        warn_sigmas=warn_sigmas,
        levels=levels,
        expected_failures=expected_failures,
    )


def nb_verdicts(
    cert: NoiseCertificate, max_expected_failures: float = 1e-6
) -> Set[Tuple[str, Optional[int]]]:
    """``(rule, level)`` of every NB finding ``cert`` implies."""
    verdicts: Set[Tuple[str, Optional[int]]] = set()
    for level in cert.levels:
        if level.margin_sigmas < cert.error_sigmas:
            verdicts.add(("NB001", level.level))
        elif level.margin_sigmas < cert.warn_sigmas:
            verdicts.add(("NB002", level.level))
    if cert.expected_failures > max_expected_failures:
        verdicts.add(("NB003", None))
    return verdicts
