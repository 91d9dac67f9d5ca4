"""Ablation — which synthesis features buy the Fig. 14 gate advantage?

DESIGN.md calls out three ChiselTorch/synthesis design choices:
structural hashing (sharing), constant folding (plaintext weights),
and inverter absorption into composite TFHE gates.  This bench
disables them one at a time on the MNIST_S model and reports the gate
inflation each one prevents.  Every configuration ends with
``optimize``'s MAJ3/XOR3 cell mapping, which keeps a full adder's five
gates as five words, so a count is gate words, not bootstraps.
"""

import pytest

from conftest import print_table
from repro.core.compiler import compile_model
from repro.frameworks.pytfhe import spec_to_sequential
from repro.synth import optimize


@pytest.fixture(scope="module")
def raw_netlist(framework_spec):
    """MNIST_S elaborated with *no* builder optimizations."""
    import repro.hdl.builder as builder_mod

    model = spec_to_sequential(framework_spec)
    original = builder_mod.CircuitBuilder.__init__

    def patched(self, hash_cons=True, fold_constants=True,
                absorb_inverters=True, name="netlist", **kwargs):
        original(
            self,
            hash_cons=False,
            fold_constants=False,
            absorb_inverters=False,
            name=name,
            **kwargs,
        )

    builder_mod.CircuitBuilder.__init__ = patched
    try:
        compiled = compile_model(model, framework_spec.input_shape)
    finally:
        builder_mod.CircuitBuilder.__init__ = original
    return compiled.netlist


def test_ablation_synthesis_features(benchmark, raw_netlist, framework_spec):
    def sweep():
        return {
            "none (raw elaboration)": raw_netlist.num_gates,
            "+ folding": optimize(
                raw_netlist,
                fold_constants=True,
                share_structure=False,
                absorb_inverters=False,
            ).num_gates,
            "+ folding + sharing": optimize(
                raw_netlist,
                fold_constants=True,
                share_structure=True,
                absorb_inverters=False,
            ).num_gates,
            "+ folding + sharing + absorption (full)": optimize(
                raw_netlist
            ).num_gates,
        }

    counts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    full = counts["+ folding + sharing + absorption (full)"]
    print_table(
        "Ablation: synthesis features on MNIST_S (gate words, cells mapped)",
        ("configuration", "gates", "vs full"),
        [
            (name, gates, f"{gates / full:.2f}x")
            for name, gates in counts.items()
        ],
    )
    values = list(counts.values())
    # Each added feature strictly reduces (or keeps) the gate count.
    assert values[0] >= values[1] >= values[2] >= values[3]
    # Constant folding of plaintext weights is the big lever.
    assert counts["+ folding"] < 0.7 * counts["none (raw elaboration)"]


def test_ablation_dtype_width(benchmark, framework_spec):
    """Paper Section IV-B: 'choosing a cheaper data type may result in
    a reduction in the number of gates by orders of magnitude.'"""
    def gates_for_width(width):
        import dataclasses

        spec = dataclasses.replace(framework_spec, bit_width=width)
        model = spec_to_sequential(spec)
        return compile_model(model, spec.input_shape).netlist.num_gates

    counts = benchmark.pedantic(
        lambda: {w: gates_for_width(w) for w in (4, 8, 16)},
        rounds=1,
        iterations=1,
    )
    print_table(
        "Ablation: integer width vs gate count (MNIST_S)",
        ("bit width", "gates", "vs SInt8"),
        [
            (w, g, f"{g / counts[8]:.2f}x")
            for w, g in sorted(counts.items())
        ],
    )
    assert counts[4] < counts[8] < counts[16]
    assert counts[16] > 2.5 * counts[4]
