"""Static noise-budget certification (the ``NB`` rule family).

One certifier for boolean and multi-bit netlists alike.  Before any
ciphertext exists, it propagates the analytic noise model of
:mod:`repro.tfhe.noise` over every wire as a column sweep:

* a primary input carries the fresh-encryption variance, and every
  bootstrapped output is reset to the blind-rotate + key-switch
  variance;
* the free NOT/BUF/CONST/LIN chains between bootstraps settle by a
  fixed point: NOT/BUF copy their operand's variance, a constant is
  exact, and LIN amplifies by ``kx^2``/``ky^2`` (its constant add is
  exact);
* each bootstrapped gate decides against its own margin: ``1/8`` for
  boolean gates (whose worst linear combination, XOR, doubles both
  operands) and B2D, ``1/(4p)`` — half a slice — for a LUT/D2B over a
  modulus-``p`` digit, and ``1/8`` for a cell's SIGN, over the phase
  its LIN chain sums (``3σ²`` for MAJ3, ``12σ²`` for XOR3).  A SIGN
  whose phase can land on a decision boundary (0 or 1/2) has margin 0:
  its phase is ``Σ cᵢ·(±1) + K`` eighths, which is ``Σ cᵢ + K`` modulo
  ``2^(v+1)`` for ``2^v`` the largest power of two dividing every
  ``cᵢ`` and ``K``, so it is off the boundaries exactly when ``v ≤ 1``
  and that residue is not a multiple of ``2^(v+1)``.

A level's margin is the minimum over its gates, expressed in sigmas of
the decision noise; a level below the configured threshold fails
compilation instead of decrypting to garbage hours later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..gatetypes import (
    CODE_ARITY,
    NO_INPUT,
    OP_D2B,
    OP_LIN,
    OP_LUT,
    OP_SIGN,
    Gate,
    op_name,
)
from ..hdl.netlist import Netlist
from ..runtime.scheduler import Schedule
from ..tfhe.noise import (
    bootstrap_output_variance,
    fresh_lwe_variance,
    modswitch_variance,
)
from ..tfhe.params import TFHEParameters
from .findings import Collector
from .rules import RULES

#: Version of the noise model behind a certificate.  The analysis cache
#: folds it into its keys, so a changed model never serves old verdicts.
CERTIFICATE_VERSION = 2

#: Decision margin of a gate-encoded bit (boolean gates and B2D).
_GATE_MARGIN = 1.0 / 8.0

_NB001_HINT = (
    "use lower-noise parameters (smaller lwe_noise_std / tlwe_noise_std "
    "or longer decompositions); on digit wires, lower p or shorten LIN "
    "chains"
)


@dataclass
class LevelCertificate:
    """The static noise verdict for one bootstrapped level."""

    level: int
    gates: int
    fresh_inputs: bool
    margin_sigmas: float
    failure_probability: float


@dataclass
class NoiseCertificate:
    """The whole-circuit certification summary."""

    params_name: str
    error_sigmas: float
    warn_sigmas: float
    levels: List[LevelCertificate]
    expected_failures: float

    @property
    def worst(self) -> Optional[LevelCertificate]:
        if not self.levels:
            return None
        return min(self.levels, key=lambda c: c.margin_sigmas)

    def summary(self) -> str:
        """One line: level count, worst margin, expected failures."""
        worst = self.worst
        if worst is None:
            return f"noise certificate ({self.params_name}): no levels"
        return (
            f"noise certificate ({self.params_name}): "
            f"{len(self.levels)} level(s), worst margin "
            f"{worst.margin_sigmas:.1f} sigma at L{worst.level}, "
            f"expected failures {self.expected_failures:.2e}"
        )

    def as_dict(self) -> dict:
        return {
            "params": self.params_name,
            "error_sigmas": self.error_sigmas,
            "warn_sigmas": self.warn_sigmas,
            "expected_failures": self.expected_failures,
            "levels": [vars(c).copy() for c in self.levels],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NoiseCertificate":
        """Rebuild a certificate from :meth:`as_dict` (cache loads)."""
        return cls(
            params_name=doc["params"],
            error_sigmas=doc["error_sigmas"],
            warn_sigmas=doc["warn_sigmas"],
            expected_failures=doc["expected_failures"],
            levels=[LevelCertificate(**level) for level in doc["levels"]],
        )


def _wire_variances(
    netlist: Netlist, params: TFHEParameters
) -> np.ndarray:
    """Per-node phase variance (torus^2) under ``params``.

    Inputs and bootstrapped outputs are fixed up front; the free gates
    are then re-evaluated together until nothing changes.  Their chains
    are acyclic, so the fixed point is unique and is reached after one
    sweep per gate of the longest chain.
    """
    n_in = netlist.num_inputs
    var = np.zeros(netlist.num_nodes, dtype=np.float64)
    var[:n_in] = fresh_lwe_variance(params)
    needs = netlist.needs_bootstrap
    var[n_in:][needs] = bootstrap_output_variance(params)
    free = np.nonzero(~needs)[0]
    if not free.size:
        return var
    codes = netlist.ops[free]
    lin = codes == OP_LIN
    # NOT/BUF copy in0; constants read nothing; LIN scales both.
    weight0 = np.where(
        lin,
        np.square(netlist.kx[free], dtype=np.float64),
        (codes == Gate.NOT) | (codes == Gate.BUF),
    )
    src1 = netlist.in1[free]
    weight1 = np.where(
        lin & (src1 != NO_INPUT),
        np.square(netlist.ky[free], dtype=np.float64),
        0.0,
    )
    # An unused operand reads node 0 with weight 0.
    src0 = np.where(weight0 != 0, netlist.in0[free], 0)
    src1 = np.where(weight1 != 0, src1, 0)
    nodes = n_in + free
    while True:
        settled = weight0 * var[src0] + weight1 * var[src1]
        if np.array_equal(settled, var[nodes]):
            return var
        var[nodes] = settled


def _off_boundary(netlist: Netlist, signs: np.ndarray) -> np.ndarray:
    """Per SIGN gate ``signs``: its phase never lands on 0 or 1/2.

    Per node, ``v`` (the 2-adic valuation of every coefficient and the
    constant of its phase, capped at 2) and ``r = Σ cᵢ + K mod 8``; a bit
    wire is ``(0, 1)``.  The precision-0 LIN chains settle by a fixed
    point, as the variances do.
    """
    n_in = netlist.num_inputs
    cap = 2
    v = np.zeros(netlist.num_nodes + 1, dtype=np.int64)
    r = np.ones(netlist.num_nodes + 1, dtype=np.int64)
    lin = np.nonzero((netlist.ops == OP_LIN) & (netlist.prec == 0))[0]
    src0 = netlist.in0[lin]
    src1 = netlist.in1[lin]
    kx = netlist.kx[lin].astype(np.int64)
    ky = np.where(src1 != NO_INPUT, netlist.ky[lin], 0).astype(np.int64)
    kconst = netlist.kconst[lin].astype(np.int64)

    def valuation(k: np.ndarray) -> np.ndarray:
        """2-adic valuation, capped (a zero term adds nothing: ``cap``)."""
        return np.where(k & 1, 0, np.where(k & 2, 1, cap))

    vx, vy, vk = valuation(kx), valuation(ky), valuation(kconst)
    nodes = n_in + lin
    while True:
        settled_v = np.minimum(
            np.minimum(vx + v[src0], vy + v[src1]), vk
        ).clip(max=cap)
        settled_r = (kx * r[src0] + ky * r[src1] + kconst) & 7
        if np.array_equal(settled_v, v[nodes]) and np.array_equal(
            settled_r, r[nodes]
        ):
            break
        v[nodes], r[nodes] = settled_v, settled_r
    phase = netlist.in0[signs]
    return (v[phase] < cap) & ((r[phase] >> v[phase]) & 1 == 1)


def certify_noise(
    netlist: Netlist,
    schedule: Schedule,
    params: TFHEParameters,
    error_sigmas: float = 4.0,
    warn_sigmas: float = 6.0,
    max_expected_failures: float = 1e-6,
    collector: Optional[Collector] = None,
) -> NoiseCertificate:
    """Certify every bootstrapped level of ``schedule`` under ``params``.

    Findings land in ``collector`` (``NB001`` at error severity below
    ``error_sigmas``, ``NB002`` below ``warn_sigmas``, ``NB003`` when
    the expected wrong decisions exceed ``max_expected_failures``); the
    returned certificate carries the per-level numbers either way.
    """
    col = collector if collector is not None else Collector()
    n_in = netlist.num_inputs
    var = _wire_variances(netlist, params)

    # Per-gate decision variance and margin of every bootstrap.
    gates = np.nonzero(netlist.needs_bootstrap)[0]
    codes = netlist.ops[gates]
    src0 = netlist.in0[gates]
    # A bootstrap is a 2-input boolean gate, or a table op or SIGN that
    # rotates its one operand as is (LIN is free).
    boolean = CODE_ARITY[codes] == 2
    src1 = np.where(boolean, netlist.in1[gates], 0)
    decision = np.where(
        boolean, 4.0 * (var[src0] + var[src1]), var[src0]
    ) + modswitch_variance(params)
    margin = np.full(len(gates), _GATE_MARGIN)
    digit = (codes == OP_LUT) | (codes == OP_D2B)
    if digit.any():
        p_in = netlist.node_precisions()[src0[digit]]
        margin[digit] = 1.0 / (4.0 * np.maximum(p_in, 2))
    sign = np.nonzero(codes == OP_SIGN)[0]
    if sign.size:
        margin[sign] *= _off_boundary(netlist, gates[sign])
    with np.errstate(divide="ignore"):
        gate_z = margin / np.sqrt(decision)
    z = np.zeros(netlist.num_gates)
    z[gates] = gate_z

    # Level minima from the schedule; erfc only on the distinct z.
    levels = [level for level in schedule.levels if level.width]
    certificates: List[LevelCertificate] = []
    expected_failures = 0.0
    if levels:
        widths = np.array([level.width for level in levels])
        level_z = z[np.concatenate([level.bootstrapped for level in levels])]
        minima = np.minimum.reduceat(level_z, np.cumsum(widths) - widths)
        distinct, counts = np.unique(level_z, return_counts=True)
        p_fail = np.array([
            math.erfc(v / math.sqrt(2.0)) if math.isfinite(v) else 0.0
            for v in distinct.tolist()
        ])
        expected_failures = float(counts @ p_fail)
        level_p = p_fail[np.searchsorted(distinct, minima)]
        for level, margin_sigmas, p in zip(
            levels, minima.tolist(), level_p.tolist()
        ):
            certificates.append(
                LevelCertificate(
                    level=level.index,
                    gates=level.width,
                    fresh_inputs=level is levels[0],
                    margin_sigmas=margin_sigmas,
                    failure_probability=p,
                )
            )
    for level, cert in zip(levels, certificates):
        if cert.margin_sigmas < error_sigmas:
            rule, kind, bound = "NB001", "hard", error_sigmas
        elif cert.margin_sigmas < warn_sigmas:
            rule, kind, bound = "NB002", "warning", warn_sigmas
        else:
            continue
        ids = level.bootstrapped
        worst = int(ids[int(np.argmin(z[ids]))])
        code = int(netlist.ops[worst])
        desc = op_name(code)
        if code in (OP_LUT, OP_D2B):
            desc += f" over p={netlist.node_prec(int(netlist.in0[worst]))}"
        col.add(
            RULES[rule],
            f"level {level.index} ({level.width} bootstraps, "
            f"{'fresh' if cert.fresh_inputs else 'bootstrapped'} inputs, "
            f"worst: gate {n_in + worst} {desc}) has "
            f"{cert.margin_sigmas:.2f} sigma of decision margin, below the "
            f"{kind} threshold of {bound:.2f}",
            level=level.index,
            fix_hint=_NB001_HINT if rule == "NB001" else None,
        )
    if expected_failures > max_expected_failures:
        col.add(
            RULES["NB003"],
            f"expected wrong bootstrap decisions across the circuit is "
            f"{expected_failures:.3e} (> {max_expected_failures:.1e} "
            f"budget) over {schedule.num_bootstrapped} bootstraps",
            fix_hint="tighten parameters, lower p, or shrink the circuit",
        )
    return NoiseCertificate(
        params_name=params.name,
        error_sigmas=error_sigmas,
        warn_sigmas=warn_sigmas,
        levels=certificates,
        expected_failures=expected_failures,
    )
