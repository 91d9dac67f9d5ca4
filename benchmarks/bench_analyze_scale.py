"""Static-analyzer scaling: the array checkers on a size ladder.

Generates synthetic random netlists (10k / 100k / 1M gates by
default), runs every analysis family, and reports per-family times
plus the content-hash cache's miss/hit latencies.  The ladder must
finish its largest size inside ``--budget-s``.  (The flat-vs-legacy
comparison this script used to make was recorded at PR 7 —
EXPERIMENTS.md; the per-gate walks now live in
``tests/analyze/legacy_oracle.py`` as the equivalence oracle.)

Run locally::

    PYTHONPATH=src python benchmarks/bench_analyze_scale.py \
        --sizes 10000 100000 --json analyze_scale.json
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.analyze import (
    AnalysisCache,
    DEFAULT_CONFIG,
    analyze_netlist_cached,
    check_dataflow,
    check_program,
    check_schedule,
    check_structure,
)
from repro.gatetypes import TWO_INPUT_GATES, Gate
from repro.hdl.netlist import NO_INPUT, Netlist
from repro.isa.assembler import assemble
from repro.runtime.scheduler import build_schedule


def synthetic_columns(num_gates, num_inputs=64, seed=0):
    """Columns of a random valid netlist (no Python gate loop)."""
    rng = np.random.default_rng(seed)
    binary = np.array([int(g) for g in TWO_INPUT_GATES], dtype=np.int64)
    unary = np.array([int(Gate.NOT), int(Gate.BUF)], dtype=np.int64)
    const = np.array([int(Gate.CONST0), int(Gate.CONST1)], dtype=np.int64)
    kind = rng.random(num_gates)
    ops = np.where(
        kind < 0.80,
        rng.choice(binary, num_gates),
        np.where(
            kind < 0.95,
            rng.choice(unary, num_gates),
            rng.choice(const, num_gates),
        ),
    )
    arity = np.zeros(num_gates, dtype=np.int64)
    for code in np.unique(ops):
        arity[ops == code] = Gate(int(code)).arity
    nodes = num_inputs + np.arange(num_gates, dtype=np.int64)
    in0 = np.where(arity >= 1, rng.integers(0, nodes), NO_INPUT)
    in1 = np.where(arity == 2, rng.integers(0, nodes), NO_INPUT)
    outputs = nodes[-min(32, num_gates) :]
    return num_inputs, ops, in0, in1, outputs


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def bench_size(num_gates):
    row = {"gates": num_gates}
    columns = synthetic_columns(num_gates)
    # Construction validates through the facts' operand masks; the
    # traversal (rounds, levels, fanout) is the first consumer's cost.
    t_build, netlist = timed(
        lambda: Netlist(*columns, name=f"syn{num_gates}")
    )
    flat = netlist.facts
    t_rounds, _ = timed(lambda: flat.rounds)
    row["extract_s"] = t_build + t_rounds
    schedule = build_schedule(netlist)
    binary = assemble(netlist)

    families = {
        "structural": lambda: check_structure(flat),
        "hazards": lambda: check_schedule(netlist, schedule),
        "stream": lambda: check_program(binary),
    }
    for family, run in families.items():
        row[f"{family}_flat_s"], _ = timed(run)

    t_df, _ = timed(lambda: check_dataflow(flat))
    row["dataflow_flat_s"] = t_df

    cache = AnalysisCache()
    t_miss, _ = timed(
        lambda: analyze_netlist_cached(
            netlist, DEFAULT_CONFIG, schedule=schedule, cache=cache
        )
    )
    t_hit, _ = timed(
        lambda: analyze_netlist_cached(
            netlist, DEFAULT_CONFIG, schedule=schedule, cache=cache
        )
    )
    row["cache_miss_s"] = t_miss
    row["cache_hit_s"] = t_hit
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10_000, 100_000, 1_000_000],
        help="synthetic netlist sizes (gates)",
    )
    parser.add_argument(
        "--budget-s",
        type=float,
        default=60.0,
        help="time budget (all families) at the largest size",
    )
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    failures = []
    rows = [bench_size(size) for size in sorted(args.sizes)]
    largest = rows[-1]
    flat_total = (
        largest["extract_s"]
        + largest["structural_flat_s"]
        + largest["hazards_flat_s"]
        + largest["stream_flat_s"]
        + largest["dataflow_flat_s"]
    )
    if flat_total > args.budget_s:
        failures.append(
            f"flat analysis of {largest['gates']} gates took "
            f"{flat_total:.1f}s (> {args.budget_s:.0f}s budget)"
        )

    header = f"{'gates':>9} {'family':>10} {'time':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        for fam in ("structural", "hazards", "stream", "dataflow"):
            print(
                f"{row['gates']:>9} {fam:>10} {row[f'{fam}_flat_s']:>8.3f}s"
            )
        print(
            f"{row['gates']:>9} {'cache':>10} miss {row['cache_miss_s']:.3f}s"
            f" -> hit {row['cache_hit_s'] * 1e3:.2f}ms"
        )

    summary = {
        "sizes": sorted(args.sizes),
        "rows": rows,
        "flat_total_largest_s": flat_total,
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
