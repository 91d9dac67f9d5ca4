"""Fig. 10 — PyTFHE distributed CPU vs single-threaded CPU on VIP-Bench.

Regenerates the paper's speedup series over the 18 VIP-Bench kernels
plus the three MNIST networks, sorted by gate count ascending, on the
Table II cluster model (1 node and 4 nodes, 18 workers per node).  The
claims checked:

* large-scale benchmarks (the MNIST networks) scale nearly perfectly —
  ~17.4x of ideal 18 on one node and ~60.5x of ideal 72 on four;
* small / mostly-serial benchmarks (Hamming, Euler, NRSolver) see
  little or no benefit, some even slowing down.

Beyond the simulator series, this file measures the *real* distributed
backend's communication bill on a persistent pool reused across runs,
for a boolean and a multi-bit LUT program, and holds the shared-memory
plane to its invariants: no ciphertext byte crosses a pipe, the cloud
key is broadcast exactly once, the output equals the in-process
engine's ciphertext for ciphertext and decrypts correctly.  Run it as
a script for the CI benchmark-smoke job::

    PYTHONPATH=src python benchmarks/bench_fig10_distributed_cpu.py \
        --runs 2 --json fig10_distributed.json
"""

import numpy as np
import pytest

from conftest import print_table
from repro.perfmodel import ClusterSimulator, TABLE_II_CLUSTER, single_node


def _simulate_suite(suite, cost):
    sim1 = ClusterSimulator(single_node(), cost)
    sim4 = ClusterSimulator(TABLE_II_CLUSTER, cost)
    rows = []
    for workload in suite:
        schedule = workload.schedule
        r1 = sim1.simulate(schedule)
        r4 = sim4.simulate(schedule)
        rows.append(
            {
                "name": workload.name,
                "gates": schedule.num_bootstrapped,
                "speedup_1n": r1.speedup,
                "speedup_4n": r4.speedup,
            }
        )
    return rows


def test_fig10_speedup_series(benchmark, vip_suite, paper_cost):
    rows = benchmark.pedantic(
        _simulate_suite, args=(vip_suite, paper_cost), rounds=1, iterations=1
    )
    print_table(
        "Fig. 10: distributed CPU speedup over single thread "
        "(benchmarks sorted by gate count)",
        ("benchmark", "gates", "1 node (ideal 18)", "4 nodes (ideal 72)"),
        [
            (
                r["name"],
                r["gates"],
                f"{r['speedup_1n']:.1f}x",
                f"{r['speedup_4n']:.1f}x",
            )
            for r in rows
        ],
    )

    by_name = {r["name"]: r for r in rows}
    largest = rows[-1]  # MNIST_L after sorting by gates

    # Anchor: near-ideal scaling for the large MNIST networks.
    assert largest["speedup_1n"] > 15.5, largest
    assert largest["speedup_4n"] > 52, largest

    # Mostly-serial benchmarks fall far short of the ideal 72x
    # (paper discussion); the deep NRSolver barely moves at all.
    for serial in ("nr_solver", "euler_approx", "fibonacci", "kadane"):
        assert by_name[serial]["speedup_4n"] < 20, serial
    assert by_name["nr_solver"]["speedup_4n"] < 5

    # Scaling improves with size: the largest third scales better than
    # the smallest third on 4 nodes.
    third = len(rows) // 3
    small_mean = np.mean([r["speedup_4n"] for r in rows[:third]])
    large_mean = np.mean([r["speedup_4n"] for r in rows[-third:]])
    assert large_mean > 2 * small_mean


def test_fig10_four_nodes_never_worse_than_one_for_wide(
    benchmark, vip_suite, paper_cost
):
    wide = [w for w in vip_suite if w.schedule.num_bootstrapped > 5000]
    rows = benchmark.pedantic(
        _simulate_suite, args=(wide, paper_cost), rounds=1, iterations=1
    )
    for r in rows:
        assert r["speedup_4n"] >= r["speedup_1n"], r


# ----------------------------------------------------------------------
# Real execution: the shared-memory plane's invariants
# ----------------------------------------------------------------------
MODES = ("boolean", "mblut")


def _measure_distributed(
    keys, mode, workload_name="hamming_distance", runs=2, workers=3
):
    """Run one VIP kernel on a reused pool; report what moved where."""
    from repro.bench import vip_workload
    from repro.runtime import (
        CpuBackend,
        DistributedCpuBackend,
        build_schedule,
    )
    from repro.tfhe import decrypt_bits, encrypt_bits

    secret, cloud = keys
    workload = vip_workload(workload_name)
    source = workload.netlist
    rng = np.random.default_rng(7)
    bits = workload.compiled.encode_inputs(*workload.sample_inputs())
    want = source.evaluate(bits)
    if mode == "mblut":
        from repro.mblut import (
            decrypt_mb_outputs,
            encrypt_mb_inputs,
            synthesize,
        )

        netlist = synthesize(source, modulus=8)
        ciphertext = encrypt_mb_inputs(secret, netlist, bits, rng)
    else:
        netlist = source
        ciphertext = encrypt_bits(secret, bits, rng)
    schedule = build_schedule(netlist)
    reference, _ = CpuBackend(cloud).run(netlist, ciphertext, schedule)

    with DistributedCpuBackend(cloud, num_workers=workers) as backend:
        run_rows = []
        for _ in range(runs):
            out, report = backend.run(netlist, ciphertext, schedule)
            run_rows.append(
                {
                    "wall_time_s": report.wall_time_s,
                    "ciphertext_bytes_moved": report.ciphertext_bytes_moved,
                    "control_bytes_moved": int(
                        report.extra["control_bytes_moved"]
                    ),
                    "key_bytes_moved": report.key_bytes_moved,
                    "pool_reused": report.pool_reused,
                    "tasks_submitted": report.tasks_submitted,
                }
            )
        name = backend.name
    got = (
        decrypt_mb_outputs(secret, netlist, out)
        if mode == "mblut"
        else decrypt_bits(secret, out)
    )
    return {
        "workload": workload_name,
        "mode": mode,
        "backend": name,
        "gates_bootstrapped": schedule.num_bootstrapped,
        "levels": schedule.depth,
        "workers": workers,
        "runs": run_rows,
        "decrypt_ok": bool(np.array_equal(got, want)),
        "matches_in_process": bool(
            np.array_equal(out.a, reference.a)
            and np.array_equal(out.b, reference.b)
        ),
    }


def _check_invariants(result):
    runs = result["runs"]
    for run in runs:
        assert run["ciphertext_bytes_moved"] == 0, run
        assert 0 < run["control_bytes_moved"] < 64 * 1024, run
    # The key is broadcast at pool start and never re-sent.
    assert runs[0]["key_bytes_moved"] > 0 and not runs[0]["pool_reused"]
    for run in runs[1:]:
        assert run["key_bytes_moved"] == 0 and run["pool_reused"], run
    assert result["decrypt_ok"], result
    assert result["matches_in_process"], result


@pytest.mark.parametrize("mode", MODES)
def test_fig10_shared_plane_invariants(test_keys, mode):
    result = _measure_distributed(test_keys, mode, runs=2, workers=3)
    print_table(
        f"Fig. 10 (measured): distributed {mode} run "
        f"({result['workload']}, {result['workers']} workers)",
        ("run", "wall ms", "ct bytes", "control bytes", "key bytes", "reused"),
        [
            (i, f"{r['wall_time_s'] * 1e3:.0f}",
             r["ciphertext_bytes_moved"], r["control_bytes_moved"],
             r["key_bytes_moved"], r["pool_reused"])
            for i, r in enumerate(result["runs"])
        ],
    )
    _check_invariants(result)


def main(argv=None):
    """CI benchmark-smoke entry point: JSON artifact per PR."""
    import argparse
    import json

    from repro.tfhe import TFHE_TEST, generate_keys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hamming_distance")
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results here"
    )
    args = parser.parse_args(argv)

    keys = generate_keys(TFHE_TEST, seed=42)
    results = {
        mode: _measure_distributed(
            keys,
            mode,
            workload_name=args.workload,
            runs=args.runs,
            workers=args.workers,
        )
        for mode in MODES
    }
    text = json.dumps(results, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    for result in results.values():
        _check_invariants(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
