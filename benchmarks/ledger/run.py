"""The repo's benchmark: one command, six workloads, every metric by name.

``python benchmarks/ledger/run.py --workload NAME --seed N --seconds S
--trace 0|1`` measures one workload in this process and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, the per-layer metrics with ``--trace 1``).

Without ``--workload`` every workload runs in a subprocess of its own
(clean caches, honest peak memory) and one result file with provenance
is written; ``--trace`` adds the traced pass, ``--check-repeat`` runs
the untraced set twice and compares the two within the bounds.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy and repro are imported: their import is part of set-up.
STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = ROOT / "benchmarks" / "out" / "ledger"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import stats  # noqa: E402

DETAIL_PREFIX = "detail: "


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def declared(spec: dict, traced: bool) -> dict:
    """``name -> declaration`` of the metrics one kind of run reports."""
    return {m["name"]: m for m in spec["per_layer" if traced else "end_to_end"]}


# ----------------------------------------------------------------------
# one workload, in this process (the driver's contract)
# ----------------------------------------------------------------------
def run_workload(args, spec: dict) -> int:
    import workloads
    from spans import chrome_trace

    from repro.obs import validate_chrome_trace

    imported = time.perf_counter()
    traced = bool(args.trace)
    metrics_spec = declared(spec, traced)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    ctx = workloads.Context(
        args.workload, args.seed, args.seconds, traced, STARTED
    )
    result = workloads.run(workloads.WORKLOADS[args.workload](), ctx, imported)

    undeclared = sorted(set(result.metrics) - set(metrics_spec))
    if undeclared:
        raise SystemExit(f"metrics not in BENCHMARK.json: {undeclared}")
    if not traced and set(metrics_spec) - set(result.metrics):
        raise SystemExit("an end-to-end metric was not measured")
    # A layer the workload never enters spent no time and did no work.
    values = {name: result.metrics.get(name, 0) for name in metrics_spec}

    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace_{args.workload}.json"
        document = chrome_trace(ctx.rec)
        document["metadata"] = dict(result.detail, seed=args.seed)
        validate_chrome_trace(document)
        with open(trace_path, "w") as handle:
            json.dump(document, handle)
        result.detail["trace_file"] = str(trace_path.relative_to(ROOT))

    print(f"workload {args.workload}  seed {args.seed}  trace {int(traced)}")
    for name, value in values.items():
        print(f"  {name:32s} {value:16.6f} {metrics_spec[name]['unit']}")
    if traced:
        print("  self time per layer (main thread):")
        for layer, seconds in sorted(
            result.detail["layer_self_s"].items(), key=lambda kv: -kv[1]
        ):
            print(f"    {layer:16s} {seconds:10.3f} s")
        print(f"    {'wall':16s} {result.detail['wall_s']:10.3f} s")
    else:
        for name, summary in result.detail["samples"].items():
            print(
                f"  samples {name:10s} n={summary['n']:<3d} "
                f"min={summary['min']:.5g} q1={summary['q1']:.5g} "
                f"median={summary['median']:.5g} q3={summary['q3']:.5g} "
                f"max={summary['max']:.5g}"
            )
        print(
            f"  requests: p50 {result.detail['request_p50_ms']:.3f} ms, "
            f"p{result.detail['request_tail_level']} "
            f"{result.detail['request_tail_ms']:.3f} ms, "
            f"{result.detail['requests_per_s']:.4f} verified instances/s "
            f"({result.detail['connections']} closed-loop connection(s) x "
            f"{result.detail['instances_per_request']} instance(s))"
        )
    for violation in result.violations:
        print(f"  VIOLATED: {violation}")
    print(
        f"  ops attempted {result.attempted}, failed {result.failed}"
    )
    print(DETAIL_PREFIX + json.dumps(result.detail))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": metrics_spec[name]["unit"]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


def reap_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Worker pools are shut down by their workload; what is left is a
    worker that survived a failed run, and ``multiprocessing``'s resource
    tracker, which the shared-memory plane starts and which otherwise
    ends only some time *after* this process has (when it sees its pipe
    closed) — by then the next run may already be measuring.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    pid = getattr(tracker, "_pid", None)
    fd = getattr(tracker, "_fd", None)
    if pid is None or fd is None:
        return
    # Closing our end of its pipe is how the tracker is told to finish;
    # it then releases what is still registered and exits.
    with contextlib.suppress(OSError):
        os.close(fd)
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)
    tracker._fd = tracker._pid = None


# ----------------------------------------------------------------------
# every workload, each in its own subprocess
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in a fresh interpreter; parse what it printed."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    wall_s = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{workload}: exited {done.returncode} without a result"
        )
    result = json.loads(lines[-1])
    detail = next(
        json.loads(line[len(DETAIL_PREFIX):])
        for line in reversed(lines)
        if line.startswith(DETAIL_PREFIX)
    )
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "detail": detail,
        "wall_s": wall_s,
    }


def run_set(spec: dict, args, traced: bool, label: str) -> dict:
    """``--runs`` runs of every workload (seeds ``seed .. seed+runs-1``)."""
    names = [w["name"] for w in spec["workloads"]]
    metrics_spec = declared(spec, traced)
    out = {}
    for name in names:
        runs = []
        for i in range(args.runs):
            run = spawn(name, args.seed + i, args.seconds, traced)
            runs.append(run)
            print(
                f"[{label}] {name} seed {run['seed']}: "
                f"{'ok' if run['correct'] else 'INCORRECT'} "
                f"({run['attempted']} ops, {run['failed']} failed, "
                f"{run['wall_s']:.1f} s)",
                flush=True,
            )
        out[name] = {
            "runs": runs,
            "median": {
                metric: statistics.median(r["metrics"][metric] for r in runs)
                for metric in metrics_spec
            },
            "spread": {
                metric: stats.spread([r["metrics"][metric] for r in runs])
                for metric in metrics_spec
            },
        }
    return out


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    getters = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1] for line in maps if "openblas" in line.lower()
            }
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in getters:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    return int(getter())
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": args.seed,
        "runs_per_workload": args.runs,
        "seconds": args.seconds,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        # The harness sets none of these; recorded so a reader can tell.
        "thread_env": {
            key: os.environ[key]
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "parameter_sets": ["tfhe-default-128", "tfhe-test", "tfhe-mb-128"],
        "repetitions": (
            "set-up: 3 per untraced run (adder8_mblut: 2); "
            "compile: 10 before and 10 after the requests (adder8_mblut: 50 "
            "and 50; mnist_s_compile: "
            "each half until 0.4 x seconds, at least 2); requests: until "
            "--seconds is used up, at least 1 (adder8_mblut: 3; "
            "mnist_s_compile: 40 plaintext evaluations)"
        ),
    }


def result_file(spec: dict, args, sets: dict) -> dict:
    return {
        "schema": "ledger/1",
        "provenance": provenance(args),
        "end_to_end": spec["end_to_end"],
        "per_layer": spec["per_layer"],
        **sets,
    }


def write(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def print_table(spec: dict, workloads: dict, traced: bool) -> None:
    metrics_spec = declared(spec, traced)
    names = list(workloads)
    print(f"{'metric':32s} {'unit':6s} " + " ".join(f"{n:>18s}" for n in names))
    for metric, decl in metrics_spec.items():
        cells = " ".join(
            f"{workloads[n]['median'][metric]:18.6g}" for n in names
        )
        print(f"{metric:32s} {decl['unit']:6s} {cells}")


def run_all(args, spec: dict) -> int:
    sets = {"workloads": run_set(spec, args, False, "untraced")}
    print_table(spec, sets["workloads"], False)
    if args.trace:
        sets["traced"] = run_set(spec, args, True, "traced")
        print_table(spec, sets["traced"], True)
    write(
        Path(args.out) if args.out else OUT / f"run_seed{args.seed}.json",
        result_file(spec, args, sets),
    )
    every = [r for s in sets.values() for w in s.values() for r in w["runs"]]
    return 0 if all(run["correct"] for run in every) else 1


def check_repeat(args, spec: dict) -> int:
    """Two untraced sets of the same code, compared within the bounds."""
    out_dir = Path(args.out) if args.out else OUT
    sets = {}
    for label in ("a", "b"):
        sets[label] = run_set(spec, args, False, label)
        write(
            out_dir / f"run_{label}.json",
            result_file(spec, args, {"workloads": sets[label]}),
        )
    status = 0
    print(
        f"{'workload':18s} {'metric':16s} {'first':>12s} {'second':>12s} "
        f"{'worse by':>9s} {'spread':>8s} {'bound':>6s}  verdict"
    )
    for name in sets["a"]:
        for metric, decl in declared(spec, False).items():
            first, second = (
                [run["metrics"][metric] for run in sets[label][name]["runs"]]
                for label in ("a", "b")
            )
            v = stats.verdict(first, second, decl["bound"], decl["better"])
            spread = "-" if v["spread"] is None else f"{v['spread']:.2%}"
            print(
                f"{name:18s} {metric:16s} {v['first']:12.6g} "
                f"{v['second']:12.6g} {v['worse_by']:9.2%} {spread:>8s} "
                f"{v['bound']:6.1%}  {v['status']}"
            )
            if v["status"] == "regressed":
                status = 1
    every = [r for s in sets.values() for w in s.values() for r in w["runs"]]
    if not all(run["correct"] for run in every):
        status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", help="measure only this workload, in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="per-layer pass (with --workload: instead of the untraced one)",
    )
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload and set")
    parser.add_argument("--out", help="result file (--check-repeat: directory)")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        try:
            return run_workload(args, spec)
        finally:
            reap_children()
    if args.check_repeat:
        return check_repeat(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
