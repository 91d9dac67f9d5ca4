"""Run a VIP-Bench workload through the whole toolchain.

Usage:  python examples/vipbench_run.py [workload_name]

Without arguments, lists the 18 available kernels.  With a name,
compiles the kernel, verifies it against its plaintext reference,
executes it under real FHE (test parameters), and prints the
distributed-CPU / GPU runtime estimates of the performance model.
"""

import sys
import time

import numpy as np

from repro.bench import vip_workload, vip_workloads
from repro.core import Client
from repro.perfmodel import (
    A5000,
    ClusterSimulator,
    GpuSimulator,
    PAPER_GATE_COST,
    TABLE_II_CLUSTER,
)
from repro.runtime import CpuBackend
from repro.tfhe import TFHE_TEST


def list_workloads():
    print("available VIP-Bench workloads:")
    for name, w in sorted(vip_workloads().items()):
        print(f"  {name:20s} {w.description}")


def run(name):
    workload = vip_workload(name)
    netlist = workload.netlist
    stats = netlist.stats()
    print(f"{name}: {workload.description}")
    print(
        f"  {stats.num_gates} gates, {stats.num_bootstrapped_gates} "
        f"bootstrapped, depth {stats.bootstrap_depth}"
    )

    inputs = workload.sample_inputs()
    assert workload.verify(*inputs), "netlist diverged from reference!"
    plain = workload.compiled.run_plain(*inputs)
    print(f"  plaintext result: {[np.asarray(p).tolist() for p in plain]}")

    if stats.num_bootstrapped_gates <= 3000:
        print("\n  executing under real FHE (test parameters) ...")
        client = Client(TFHE_TEST, seed=1)
        bits = workload.compiled.encode_inputs(*inputs)
        ct = client.encrypt_bits(bits)
        backend = CpuBackend(client.cloud_key)
        start = time.perf_counter()
        out_ct, report = backend.run(netlist, ct)
        elapsed = time.perf_counter() - start
        decrypted = workload.compiled.decode_outputs(
            client.decrypt_bits(out_ct)
        )
        print(
            f"  FHE result: {[np.asarray(p).tolist() for p in decrypted]} "
            f"({elapsed:.1f}s, "
            f"{report.gates_bootstrapped / elapsed:.0f} gates/s)"
        )
    else:
        print("\n  (skipping real FHE: circuit too large for a demo run)")

    print("\n  paper-calibrated runtime estimates:")
    schedule = workload.schedule
    single_ms = schedule.num_bootstrapped * PAPER_GATE_COST.gate_ms
    cluster_ms = (
        ClusterSimulator(TABLE_II_CLUSTER, PAPER_GATE_COST)
        .simulate(schedule)
        .total_ms
    )
    gpu_ms = (
        GpuSimulator(A5000, PAPER_GATE_COST).simulate_pytfhe(schedule).total_ms
    )
    print(f"    single core : {single_ms / 1e3:9.1f} s")
    print(
        f"    4-node CPU  : {cluster_ms / 1e3:9.1f} s "
        f"({single_ms / cluster_ms:.1f}x)"
    )
    print(
        f"    A5000 GPU   : {gpu_ms / 1e3:9.1f} s "
        f"({single_ms / gpu_ms:.1f}x)"
    )


if __name__ == "__main__":
    if len(sys.argv) < 2:
        list_workloads()
    else:
        run(sys.argv[1])
