from repro.hdl.netlist import Netlist
from repro.synth.passes import _rewrite


def two_input(netlist: Netlist) -> Netlist:
    """``optimize`` without its last stage, the cell mapping: the
    netlist on the paper's 2-input gate library."""
    return _rewrite(netlist, True, True, True)[0]
