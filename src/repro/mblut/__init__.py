"""Multi-bit LUT compilation and execution (programmable bootstrapping).

The boolean pipeline spends one bootstrap per 2-input gate; TFHE's
bootstrap is *programmable* (paper Section II-B), so an arbitrary unary
function over a small integer costs exactly the same blind rotation.
This subsystem exploits that: a synthesis mode pattern-matches
adder/comparator trees in a boolean netlist and re-expresses them as
p-ary digits flowing through free leveled linear ops (:data:`OP_LIN`)
and multi-bit LUT bootstraps (:data:`OP_LUT`), bridged to the boolean
world by :data:`OP_B2D` / :data:`OP_D2B` conversion bootstraps.

Pipeline::

    netlist --synthesize()--> Netlist (digit wires, LIN/LUT ops, tables)
        --assemble()--> format-1 binary --repro check (NB+MB)-->
        serve registry --> CpuBackend / DistributedCpuBackend
        (level-batched blind rotations)

The synthesized circuit is an ordinary :class:`~repro.hdl.netlist.Netlist`
and its binary goes through the one :mod:`repro.isa` codec;
``assemble_mb`` / ``disassemble_mb`` are kept as plain aliases of
``assemble`` / ``disassemble`` for callers that predate the merge.

An 8-bit ripple adder drops from ~37 gate bootstraps to 5 LUT
bootstraps (one sum + one carry LUT per 3-bit digit).
"""

from ..gatetypes import MB_OPS, OP_B2D, OP_D2B, OP_LIN, OP_LUT
from ..isa import assemble as assemble_mb
from ..isa import disassemble as disassemble_mb
from ..isa import is_mb_binary
from .client import MbIoMap, decrypt_mb_outputs, encrypt_mb_inputs
from .synth import MultiBitValue, SynthesisReport, synthesize

__all__ = [
    "MB_OPS",
    "MbIoMap",
    "MultiBitValue",
    "OP_B2D",
    "OP_D2B",
    "OP_LIN",
    "OP_LUT",
    "SynthesisReport",
    "assemble_mb",
    "decrypt_mb_outputs",
    "disassemble_mb",
    "encrypt_mb_inputs",
    "is_mb_binary",
    "synthesize",
]
