"""Real TFHE execution throughput on this machine (calibration bench).

Not a paper figure by itself, but the measurement behind the
"measured" rows of every experiment: actual bootstrapped-gate
throughput of our implementation in single-gate, batched, and
distributed modes, with the fast test parameter set.

Run as a script it doubles as the CI ``throughput-gate`` harness: it
executes the fig10 benchmark workload under the level-batched SIMD
engine (alone and stacked ``--instances`` deep, the request x level
2-D batching the serving layer drives), times a verbatim replay of the
seed's unbatched per-gate engine (the pre-batching "before" row — the
only place a per-gate walk still lives), writes a
``BENCH_throughput.json`` artifact, and **fails** if the default
engine drops below 5x the seed's unbatched default::

    PYTHONPATH=src python benchmarks/bench_real_fhe_throughput.py \
        --json BENCH_throughput.json --min-seed-speedup 5
"""

import numpy as np
import pytest

from conftest import print_table
from repro.gatetypes import Gate
from repro.tfhe import encrypt_bits, evaluate_gate, evaluate_gates_batch


@pytest.fixture(scope="module")
def gate_inputs(test_keys):
    secret, _ = test_keys
    rng = np.random.default_rng(3)
    bits_a = rng.integers(0, 2, 64).astype(bool)
    bits_b = rng.integers(0, 2, 64).astype(bool)
    return (
        encrypt_bits(secret, bits_a, rng),
        encrypt_bits(secret, bits_b, rng),
    )


def test_single_gate_latency(benchmark, test_keys, gate_inputs):
    _, cloud = test_keys
    ca, cb = gate_inputs
    benchmark(lambda: evaluate_gate(cloud, Gate.NAND, ca[0], cb[0]))


@pytest.mark.parametrize("batch", [8, 64])
def test_batched_gate_throughput(benchmark, test_keys, gate_inputs, batch):
    _, cloud = test_keys
    ca, cb = gate_inputs
    codes = np.full(batch, int(Gate.XOR))
    result = benchmark(
        lambda: evaluate_gates_batch(cloud, codes, ca[:batch], cb[:batch])
    )
    assert result.batch_shape == (batch,)


def test_throughput_summary(benchmark, test_keys, gate_inputs):
    """Print the gates/second table used to calibrate 'measured' rows."""
    import time

    _, cloud = test_keys
    ca, cb = gate_inputs

    def measure(batch):
        codes = np.full(batch, int(Gate.AND))
        start = time.perf_counter()
        evaluate_gates_batch(cloud, codes, ca[:batch], cb[:batch])
        return batch / (time.perf_counter() - start)

    rows = []
    for batch in (1, 8, 64):
        rate = benchmark.pedantic(
            measure, args=(batch,), rounds=1, iterations=1
        ) if batch == 1 else measure(batch)
        rows.append((batch, f"{rate:.0f}"))
    print_table(
        "Measured bootstrapped-gate throughput (test parameters)",
        ("batch size", "gates/second"),
        rows,
    )
    # Batching must help (the SIMD/GPU-style execution advantage).
    assert float(rows[-1][1]) > float(rows[0][1])


# ----------------------------------------------------------------------
# CI throughput gate: the engine must stay >= the speedup floor over a
# replay of the seed's per-gate engine.
# ----------------------------------------------------------------------
def _measure_engine(keys, workload_name, instances, repeats=2):
    """Gates/s of the engine at one instance and ``instances`` deep.

    One instance is pure level batching; ``instances`` stacked input
    sets through ``run_many`` is the request x level 2-D batching that
    ``Server.execute_many`` / the serving layer drive.
    """
    import time

    from repro.bench import vip_workload
    from repro.runtime import CpuBackend, build_schedule
    from repro.tfhe import decrypt_bits
    from repro.tfhe.lwe import LweCiphertext

    secret, cloud = keys
    workload = vip_workload(workload_name)
    netlist = workload.netlist
    schedule = build_schedule(netlist)
    gates = schedule.num_bootstrapped
    rng = np.random.default_rng(11)
    bits = workload.compiled.encode_inputs(*workload.sample_inputs())
    want = netlist.evaluate(bits)
    ct = encrypt_bits(secret, bits, rng)
    flat = encrypt_bits(
        secret, np.tile(np.asarray(bits, dtype=bool), instances), rng
    )
    stacked = LweCiphertext(
        flat.a.reshape(instances, len(bits), -1),
        flat.b.reshape(instances, len(bits)),
    )

    default = CpuBackend(cloud)

    def best(run, weight):
        elapsed = float("inf")
        out = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out, _ = run()
            elapsed = min(elapsed, time.perf_counter() - t0)
        return weight / elapsed, out

    default.run(netlist, ct, schedule)  # warm FFT plans + key cache
    batched_rate, out_b = best(
        lambda: default.run(netlist, ct, schedule), gates
    )
    batched_2d_rate, out_m = best(
        lambda: default.run_many(netlist, stacked, schedule),
        gates * instances,
    )
    assert np.array_equal(decrypt_bits(secret, out_b), want)
    assert np.array_equal(
        decrypt_bits(secret, LweCiphertext(out_m.a[0], out_m.b[0])), want
    )
    return {
        "workload": workload_name,
        "gates_bootstrapped": gates,
        "levels": schedule.depth,
        "instances": instances,
        "batched_gates_per_sec": batched_rate,
        "batched_2d_gates_per_sec": batched_2d_rate,
        "default_engine": default.name,
    }


def _seed_engine_gates_per_sec(keys, gates=48, repeats=2):
    """Replay the pre-batching default engine verbatim (the "before" row).

    This is the unbatched per-gate engine exactly as the repo shipped it
    before level batching became the default: one ``evaluate_gate`` call
    per gate, per-bit ``TgswFFT`` einsum external products over the full
    redundant spectrum, and int64 widen-then-wrap torus arithmetic.
    Re-measuring it in the same run (instead of quoting a historical
    table) keeps the before/after speedup honest about the machine it
    ran on.  The netlist walk is deliberately excluded — only gate math
    is timed — which flatters the baseline, so the ratio is a floor.
    """
    import time

    from repro.tfhe import decrypt_bits
    from repro.tfhe.bootstrap import _round_to_2n
    from repro.tfhe.gates import MU_GATE, gate_linear_input
    from repro.tfhe.keyswitch import keyswitch_apply
    from repro.tfhe.lwe import LweCiphertext
    from repro.tfhe.polynomial import get_ring, negacyclic_shift
    from repro.tfhe.tgsw import tgsw_decompose
    from repro.tfhe.tlwe import tlwe_extract_lwe
    from repro.tfhe.torus import wrap_int32

    secret, cloud = keys
    params = cloud.params
    ring = get_ring(params.tlwe_degree)
    big_n = params.tlwe_degree
    two_n = 2 * big_n
    k = params.tlwe_k
    # The seed's key form — a per-bit list of full (redundant) spectra —
    # rebuilt here from the folded key: back to the exact int32 samples,
    # then the full transform.
    bk = [
        ring.forward(ring.backward_half(folded))
        for folded in cloud.bootstrapping_key
    ]

    def external(full_spectrum, tlwe):
        digit_spec = ring.forward(tgsw_decompose(tlwe, params))
        out_spec = np.einsum(
            "...rn,rcn->...cn", digit_spec, full_spectrum, optimize=True
        )
        return ring.backward(out_spec)

    def bootstrap_one(ct):
        bara = _round_to_2n(ct.a, two_n)
        barb = int(_round_to_2n(ct.b, two_n))
        acc = np.zeros((k + 1, big_n), dtype=np.int32)
        test_poly = np.full(big_n, np.int32(MU_GATE), dtype=np.int32)
        acc[k, :] = negacyclic_shift(test_poly, two_n - barb)
        for i in range(params.lwe_dimension):
            amount = int(bara[i])
            if not amount:
                continue
            rotated = negacyclic_shift(acc, amount)
            diff = wrap_int32(
                rotated.astype(np.int64) - acc.astype(np.int64)
            )
            acc = wrap_int32(
                acc.astype(np.int64) + external(bk[i], diff).astype(np.int64)
            )
        extracted = tlwe_extract_lwe(acc, params)
        return keyswitch_apply(cloud.keyswitching_key, extracted)

    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, gates).astype(bool)
    ca = encrypt_bits(secret, bits, rng)
    cb = encrypt_bits(secret, ~bits, rng)

    def run_once():
        return [
            bootstrap_one(gate_linear_input(Gate.NAND, ca[i], cb[i]))
            for i in range(gates)
        ]

    out = run_once()  # warm-up pass; NAND(b, ~b) is identically True
    got = decrypt_bits(secret, LweCiphertext.stack(out))
    assert got.all(), "seed-engine replay decrypted incorrectly"
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_once()
        best = min(best, time.perf_counter() - t0)
    return gates / best


def main(argv=None):
    """CI ``throughput-gate`` entry point: JSON artifact + hard floors."""
    import argparse
    import json
    import time

    from repro.tfhe import TFHE_TEST, generate_keys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hamming_distance")
    parser.add_argument(
        "--instances",
        type=int,
        default=4,
        help="stacked input sets for the request x level 2-D measurement",
    )
    parser.add_argument(
        "--min-seed-speedup",
        type=float,
        default=5.0,
        help="fail if the default engine (request x level 2-D) is below "
        "this multiple of the seed's unbatched per-gate engine",
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results here"
    )
    args = parser.parse_args(argv)

    keys = generate_keys(TFHE_TEST, seed=42)
    result = _measure_engine(
        keys, args.workload, args.instances, repeats=args.repeats
    )
    seed_rate = _seed_engine_gates_per_sec(keys, repeats=args.repeats)
    result["seed_engine_gates_per_sec"] = seed_rate
    result["speedup_level_batched_vs_seed"] = (
        result["batched_gates_per_sec"] / seed_rate
    )
    result["speedup_vs_seed"] = (
        result["batched_2d_gates_per_sec"] / seed_rate
    )

    # Micro calibration rows (pure gate evaluation, no netlist walk).
    _, cloud = keys
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 64).astype(bool)
    ca = encrypt_bits(keys[0], bits, rng)
    micro = {}
    for batch in (1, 8, 64):
        codes = np.full(batch, int(Gate.AND))
        evaluate_gates_batch(cloud, codes, ca[:batch], ca[:batch])
        t0 = time.perf_counter()
        evaluate_gates_batch(cloud, codes, ca[:batch], ca[:batch])
        micro[f"batch_{batch}"] = batch / (time.perf_counter() - t0)
    result["micro_gates_per_sec"] = micro

    failures = []
    if result["speedup_vs_seed"] < args.min_seed_speedup:
        failures.append(
            f"default engine is only "
            f"{result['speedup_vs_seed']:.2f}x the seed's unbatched "
            f"per-gate engine (floor {args.min_seed_speedup}x)"
        )
    result["floors"] = {"min_seed_speedup": args.min_seed_speedup}
    result["failures"] = failures
    result["ok"] = not failures

    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    if failures:
        for failure in failures:
            print(f"THROUGHPUT GATE FAILED: {failure}")
        return 1
    print(
        f"throughput gate OK: {result['default_engine']} "
        f"{result['speedup_level_batched_vs_seed']:.1f}x / "
        f"2-D {result['speedup_vs_seed']:.1f}x over the seed engine"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
