"""Shared fixtures for the experiment-regeneration benchmarks.

Every ``bench_figXX_*.py`` / ``bench_tabX_*.py`` file regenerates one
table or figure of the paper: it prints the same rows/series the paper
reports (run with ``-s`` to see them) and asserts the qualitative
shape (who wins, roughly by how much, where the crossovers are).

Workloads default to *reduced* problem sizes so the whole harness runs
in minutes; set ``REPRO_FULL_SCALE=1`` for the paper's geometries
(28x28 MNIST, hidden-64 attention — expect long netlist builds).
"""

import os

import pytest

from repro.bench import (
    attention_workload,
    mnist_workloads,
    vip_workloads,
)
from repro.frameworks import make_cnn_spec
from repro.perfmodel import PAPER_GATE_COST
from repro.tfhe import TFHE_TEST, generate_keys

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE") == "1"


@pytest.fixture(scope="session")
def test_keys():
    return generate_keys(TFHE_TEST, seed=42)


@pytest.fixture(scope="session")
def paper_cost():
    return PAPER_GATE_COST


@pytest.fixture(scope="session")
def vip_suite():
    """The 18 VIP-Bench kernels plus the three MNIST networks, sorted
    by bootstrapped gate count ascending (the paper's Fig. 10 x-axis)."""
    scale = "full" if FULL_SCALE else "reduced"
    workloads = dict(vip_workloads())
    workloads.update(mnist_workloads(scale))
    ordered = sorted(
        workloads.values(),
        key=lambda w: w.schedule.num_bootstrapped,
    )
    return ordered


@pytest.fixture(scope="session")
def attention_suite():
    """Attention_S / Attention_L (reduced hidden sizes by default)."""
    if FULL_SCALE:
        sizes = ((32, "attention_s"), (64, "attention_l"))
    else:
        sizes = ((8, "attention_s"), (16, "attention_l"))
    return [attention_workload(h, name=n) for h, n in sizes]


@pytest.fixture(scope="session")
def framework_spec():
    """The MNIST_S spec used for the cross-framework experiments."""
    hw = 28 if FULL_SCALE else 8
    return make_cnn_spec(
        "mnist_s",
        input_hw=hw,
        conv_channels=(1,),
        kernel=3,
        pool_kernel=3,
        pool_stride=1,
        classes=10,
        seed=83,
    )


@pytest.fixture(scope="session")
def framework_netlists(framework_spec):
    """MNIST_S compiled by all four frontends (shared across benches)."""
    from repro.frameworks import ALL_FRONTENDS

    return {
        name: frontend.compile_cnn(framework_spec)
        for name, frontend in ALL_FRONTENDS.items()
    }


def print_table(title, header, rows):
    """Render one paper-style results table to stdout."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for row in rows:
        print(fmt.format(*[str(c) for c in row]))
