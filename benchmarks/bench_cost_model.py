"""Predicted vs measured execute latency (the CI ``cost-gate``).

The cost certificate is only useful for serve admission if its
predictions track reality, so this harness closes the loop on this
machine: calibrate a :class:`~repro.perfmodel.GateCostModel` from real
bootstraps (random-mask inputs, the same discipline as ``repro
calibrate``), certify the fig10 benchmark workload with that
calibration, then actually execute the workload at one request
(``batched``) and stacked ``--instances`` deep (request x level
``2d@R``) and compare.

Run as a script it writes a ``BENCH_cost_model.json`` artifact and
**fails** if any engine's predicted latency diverges from the measured
one by more than ``--max-ratio`` (default 2.5x) in either direction::

    PYTHONPATH=src python benchmarks/bench_cost_model.py \
        --json BENCH_cost_model.json --max-ratio 2.5
"""

import argparse
import json
import time

import numpy as np

from repro.analyze import CostAnalysisConfig, cost_certificate
from repro.bench import vip_workload
from repro.perfmodel import measured_gate_cost
from repro.runtime import CpuBackend, build_schedule
from repro.tfhe import TFHE_TEST, decrypt_bits, encrypt_bits, generate_keys
from repro.tfhe.lwe import LweCiphertext

from conftest import print_table


def _random_mask_sample(params, rng):
    """A batch-1 ciphertext with a dense random mask (full-cost CMUXes)."""
    a = rng.integers(
        -(2**31), 2**31, size=(1, params.lwe_dimension), dtype=np.int64
    ).astype(np.int32)
    b = rng.integers(-(2**31), 2**31, size=1, dtype=np.int64).astype(
        np.int32
    )
    return LweCiphertext(a, b)


def calibrate(cloud, repetitions=3, seed=0):
    rng = np.random.default_rng(seed)
    inputs = (
        _random_mask_sample(cloud.params, rng),
        _random_mask_sample(cloud.params, rng),
    )
    return measured_gate_cost(cloud, repetitions=repetitions, inputs=inputs)


def measure_engines(keys, workload_name, instances, repeats=2):
    """Best-of-``repeats`` per-request execute latency (ms) per engine."""
    secret, cloud = keys
    workload = vip_workload(workload_name)
    netlist = workload.netlist
    schedule = build_schedule(netlist)
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

    batched = CpuBackend(cloud)
    batched.run(netlist, ct, schedule)  # warm FFT plans + key cache

    def best(run, per_request=1):
        elapsed = float("inf")
        out = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out, _ = run()
            elapsed = min(elapsed, time.perf_counter() - t0)
        return elapsed * 1e3 / per_request, out

    batched_ms, out_b = best(lambda: batched.run(netlist, ct, schedule))
    two_d_ms, out_m = best(
        lambda: batched.run_many(netlist, stacked, schedule),
        per_request=instances,
    )
    assert np.array_equal(decrypt_bits(secret, out_b), want)
    assert np.array_equal(
        decrypt_bits(secret, LweCiphertext(out_m.a[0], out_m.b[0])), want
    )
    return netlist, schedule, {
        "batched": batched_ms,
        f"2d@{instances}": two_d_ms,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="hamming_distance")
    parser.add_argument(
        "--instances",
        type=int,
        default=4,
        help="request depth of the 2-D (request x level) row",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=2.5,
        help="fail if predicted/measured (either direction) exceeds this",
    )
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results here"
    )
    args = parser.parse_args(argv)

    keys = generate_keys(TFHE_TEST, seed=42)
    print("calibrating gate cost from real bootstraps ...")
    gate_cost = calibrate(keys[1], repetitions=args.repetitions)
    print(
        f"calibrated {gate_cost.name}: {gate_cost.gate_ms:.2f} ms/gate"
    )

    netlist, schedule, measured = measure_engines(
        keys, args.workload, args.instances, repeats=args.repeats
    )
    certificate = cost_certificate(
        netlist,
        CostAnalysisConfig(gate_cost=gate_cost, requests=args.instances),
    )

    rows = []
    failures = []
    engines = {}
    for engine, measured_ms in measured.items():
        predicted_ms = certificate.predicted_ms[engine]
        ratio = predicted_ms / measured_ms
        engines[engine] = {
            "predicted_ms": predicted_ms,
            "measured_ms": measured_ms,
            "ratio": ratio,
        }
        rows.append(
            (
                engine,
                f"{predicted_ms:.1f}",
                f"{measured_ms:.1f}",
                f"{ratio:.2f}x",
            )
        )
        if not (1.0 / args.max_ratio <= ratio <= args.max_ratio):
            failures.append(
                f"{engine}: predicted {predicted_ms:.1f} ms vs measured "
                f"{measured_ms:.1f} ms is {ratio:.2f}x off "
                f"(tolerance {args.max_ratio}x either way)"
            )
    print_table(
        f"Predicted vs measured execute latency ({args.workload}, "
        f"test parameters)",
        ("engine", "predicted ms", "measured ms", "ratio"),
        rows,
    )

    result = {
        "workload": args.workload,
        "gates": netlist.num_gates,
        "gates_bootstrapped": schedule.num_bootstrapped,
        "levels": schedule.depth,
        "instances": args.instances,
        "calibration": gate_cost.as_dict(),
        "certificate": certificate.as_dict(),
        "engines": engines,
        "max_ratio": args.max_ratio,
        "failures": failures,
        "ok": not failures,
    }
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
    if failures:
        for failure in failures:
            print(f"COST GATE FAILED: {failure}")
        return 1
    print(
        "cost gate OK: "
        + ", ".join(
            f"{engine} {info['ratio']:.2f}x"
            for engine, info in engines.items()
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
