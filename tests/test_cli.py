"""CLI tests (python -m repro.cli)."""

import re

import pytest

from repro.cli import main


def test_compile_disasm_stats_estimate(tmp_path, capsys):
    binary_path = tmp_path / "prog.pytfhe"
    assert main(["compile", "hamming_distance", "-o", str(binary_path)]) == 0
    out = capsys.readouterr().out
    assert "bootstrapped" in out
    assert binary_path.exists()

    assert main(["disasm", str(binary_path), "--max-rows", "8"]) == 0
    out = capsys.readouterr().out
    assert "header" in out and "gate" in out

    assert main(["stats", str(binary_path)]) == 0
    out = capsys.readouterr().out
    assert "inputs=64" in out

    assert main(["estimate", str(binary_path)]) == 0
    out = capsys.readouterr().out
    assert "4 nodes" in out and "RTX 4090" in out


def test_compile_mnist_shortcut(tmp_path, capsys):
    path = tmp_path / "mnist.pytfhe"
    assert main(["compile", "mnist_s", "-o", str(path)]) == 0
    assert path.stat().st_size > 1_000_000


def test_unknown_workload(tmp_path):
    with pytest.raises(SystemExit):
        main(["compile", "nonexistent"])


def test_keygen_roundtrip(tmp_path, capsys):
    secret = tmp_path / "s.key"
    cloud = tmp_path / "c.key"
    assert (
        main(
            [
                "keygen",
                "--params",
                "tfhe-test",
                "--seed",
                "3",
                "--secret-out",
                str(secret),
                "--cloud-out",
                str(cloud),
            ]
        )
        == 0
    )
    from repro.serialization import load_cloud_key, load_secret_key

    sk = load_secret_key(secret.read_bytes())
    ck = load_cloud_key(cloud.read_bytes())
    assert sk.params == ck.params


def test_keygen_unknown_params(tmp_path):
    with pytest.raises(SystemExit):
        main(["keygen", "--params", "bogus"])


def test_bench_gate(capsys):
    assert main(["bench-gate", "--params", "tfhe-test", "--repetitions", "1"]) == 0
    out = capsys.readouterr().out
    assert "blind rotation" in out and "total" in out


def test_run_distributed(capsys):
    assert (
        main(
            [
                "run",
                "hamming_distance",
                "--backend",
                "distributed",
                "--workers",
                "2",
                "--runs",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "ct_moved=0" in out
    assert "pool_reused=True" in out
    assert out.count("ok=True") == 2


def test_run_batched_backend(capsys):
    assert main(["run", "hamming_distance", "--backend", "batched"]) == 0
    assert "ok=True" in capsys.readouterr().out


def test_run_mblut_distributed(capsys):
    argv = "run hamming_distance --mode mblut --modulus 8".split()
    assert main(argv + ["--backend", "distributed", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok=True" in out and "ct_moved=0" in out
    assert "transport" not in out


@pytest.mark.parametrize("count", ["0", "-2"])
def test_run_rejects_fewer_than_one_worker(count):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    argv = "run hamming_distance --backend distributed --workers".split()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv, count],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert "--workers: num_workers must be at least 1" in proc.stderr
    assert f"got {count}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_mblut_check_cost_run_round_trip(capsys):
    mblut = ["hamming_distance", "--mode", "mblut"]
    assert main(["check"] + mblut + ["--modulus", "8"]) == 0
    assert "mblut synthesis (p=8)" in capsys.readouterr().out
    assert main(["cost"] + mblut) == 0
    assert "mblut synthesis (p=16)" in capsys.readouterr().out
    assert main(["run"] + mblut + ["--modulus", "8"]) == 0
    out = capsys.readouterr().out
    assert "cpu-batched" in out and "ok=True" in out


def test_run_distributed_writes_trace_and_metrics(tmp_path, capsys):
    import json

    from repro.obs import validate_chrome_trace

    trace, metrics = tmp_path / "trace.json", tmp_path / "metrics.json"
    argv = "run hamming_distance --backend distributed --workers 2".split()
    argv += ["--trace-out", str(trace), "--metrics-out", str(metrics)]
    assert main(argv) == 0
    assert "ok=True" in capsys.readouterr().out
    doc = json.loads(trace.read_text())
    assert validate_chrome_trace(doc) > 0
    tracks = {
        e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
    }
    assert {t for t in tracks if t.startswith("worker-")} == {
        "worker-0", "worker-1"
    }
    assert "coordinator" in tracks
    counters = json.loads(metrics.read_text())["counters"]
    assert counters["bootstrapped_gates"] > 0


_TIMELINE_ROW = re.compile(
    r"^L(\d+) +(bootstrap|free|chunk/co|chunk/w\d+) +(\d+)g "
    r"\|[ #=-]{60}\| +\d+\.\d ms$"
)
_SUMMARY_LINE = re.compile(
    r"^levels=(\d+)  bootstrap=\d+\.\d ms  free=\d+\.\d ms  "
    r"bootstrap_fraction=(\d+\.\d)%  widest_level=(\d+)$"
)


def _profile_timeline(out: str):
    """(timeline rows, summary match) of a ``repro profile`` report."""
    lines = out.splitlines()
    begin = next(
        i for i, l in enumerate(lines)
        if l.startswith("== execution timeline")
    )
    end = next(i for i, l in enumerate(lines) if l.startswith("levels="))
    rows = [_TIMELINE_ROW.match(l) for l in lines[begin + 1:end]]
    assert all(rows), lines[begin + 1:end]
    summary = _SUMMARY_LINE.match(lines[end])
    assert summary, lines[end]
    return rows, summary


def test_profile_timeline_and_summary(capsys):
    argv = "profile hamming_distance --repetitions 1 --warmup 0".split()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "(cpu-batched, " in out and "ok=True) ==" in out
    rows, summary = _profile_timeline(out)
    # One row per level span: hamming_distance is 17 bootstrapped
    # levels (224 gates, widest 32) after one free CONST0 at level 0.
    kinds = [row.group(2) for row in rows]
    assert kinds == ["free"] + ["bootstrap"] * 17
    assert [int(row.group(1)) for row in rows] == list(range(18))
    assert sum(int(row.group(3)) for row in rows[1:]) == 224
    assert rows[1].group(0).startswith("L1    bootstrap     32g |#")
    assert summary.groups() == ("17", "100.0", "32")
    assert "histogram level_bootstrap_ms count=17 " in out


def test_profile_distributed_timeline_has_worker_chunk_rows(capsys):
    argv = "profile hamming_distance --repetitions 1 --warmup 0".split()
    assert main(argv + ["--backend", "distributed", "--workers", "2"]) == 0
    rows, summary = _profile_timeline(capsys.readouterr().out)
    assert summary.group(1) == "17"
    chunk_gates = {}
    coordinator_levels = set()
    for row in rows:
        if row.group(2).startswith("chunk/"):
            assert row.group(2) in ("chunk/co", "chunk/w0", "chunk/w1")
            assert "=" in row.group(0) and "#" not in row.group(0)
            level = int(row.group(1))
            chunk_gates[level] = chunk_gates.get(level, 0) + int(row.group(3))
            if row.group(2) == "chunk/co":
                coordinator_levels.add(level)
    # Every bootstrapped level's chunk rows add up to its width.
    widths = {
        int(row.group(1)): int(row.group(3))
        for row in rows
        if row.group(2) == "bootstrap"
    }
    assert chunk_gates == widths
    # The coordinator bootstraps a shard of every level.
    assert coordinator_levels == set(widths)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "hamming_distance", "--backend", "single"],
        ["run", "hamming_distance", "--transport", "shm"],
        ["serve", "--backend", "single"],
        ["cost", "hamming_distance", "--backend", "single"],
        ["check", "hamming_distance", "--engine", "legacy"],
    ],
)
def test_deleted_engine_and_transport_flags_are_gone(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    capsys.readouterr()


# ----------------------------------------------------------------------
# repro check — the static analyzer CLI
# ----------------------------------------------------------------------
def _corrupt_operand(data: bytes, gate_position: int, operand: int) -> bytes:
    """Point one gate instruction's operands at a never-defined node."""
    from repro.isa.encoding import INSTRUCTION_BYTES

    words = [
        int.from_bytes(data[i : i + INSTRUCTION_BYTES], "little")
        for i in range(0, len(data), INSTRUCTION_BYTES)
    ]
    nibble = words[gate_position] & 0xF
    words[gate_position] = (operand << 66) | (operand << 4) | nibble
    return b"".join(
        w.to_bytes(INSTRUCTION_BYTES, "little") for w in words
    )


def test_check_clean_workload_exits_zero(capsys):
    assert main(["check", "hamming_distance", "--params", "tfhe-test"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out
    assert "noise certificate (tfhe-test)" in out


def test_check_undriven_node_in_binary_fails(tmp_path, capsys):
    """Acceptance: an injected undriven operand is an ERROR + exit 1."""
    binary_path = tmp_path / "prog.pytfhe"
    assert main(["compile", "hamming_distance", "-o", str(binary_path)]) == 0
    capsys.readouterr()
    # Word 0 is the header and words 1..64 declare inputs; word 70 is a
    # gate instruction.  Point its operands at node 5000.
    corrupted = _corrupt_operand(binary_path.read_bytes(), 70, 5000)
    bad_path = tmp_path / "bad.pytfhe"
    bad_path.write_bytes(corrupted)
    assert main(["check", str(bad_path), "--params", "none"]) == 1
    out = capsys.readouterr().out
    assert "ERROR" in out and "IS004" in out


def test_check_sub_threshold_noise_fails(capsys):
    """Acceptance: a sub-threshold noise margin is NB001 + exit 1."""
    assert (
        main(
            [
                "check",
                "hamming_distance",
                "--params",
                "tfhe-test",
                "--sigma-error",
                "50",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "NB001" in out and "ERROR" in out


def test_check_json_report(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    assert (
        main(
            [
                "check",
                "hamming_distance",
                "--params",
                "tfhe-test",
                "--json",
                str(json_path),
            ]
        )
        == 0
    )
    import json

    doc = json.loads(json_path.read_text())
    assert doc["ok"] is True
    assert doc["counts"]["ERROR"] == 0
    assert doc["families"] == [
        "structural",
        "hazards",
        "noise",
        "dataflow",
        "cost",
    ]
    assert doc["noise"]["params"] == "tfhe-test"
    assert doc["noise"]["levels"]
    assert doc["cost"]["predicted_ms"]["batched"] > 0
    assert doc["cost"]["bootstrapped"] > 0
    out = capsys.readouterr().out
    assert "wrote JSON report" in out


def test_check_json_to_stdout_is_pure_json(capsys):
    assert (
        main(
            ["check", "hamming_distance", "--params", "none", "--json", "-"]
        )
        == 0
    )
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["subject"] == "hamming_distance"


def test_check_fail_on_threshold(capsys):
    # hamming_distance carries one WARNING (a dead CONST0 residue), so
    # tightening --fail-on flips the exit code without new findings.
    assert (
        main(
            [
                "check",
                "hamming_distance",
                "--params",
                "none",
                "--fail-on",
                "warning",
            ]
        )
        == 1
    )
    capsys.readouterr()
    assert (
        main(
            [
                "check",
                "hamming_distance",
                "--params",
                "none",
                "--fail-on",
                "never",
            ]
        )
        == 0
    )
    capsys.readouterr()


def test_check_passes_mode(capsys):
    assert (
        main(
            [
                "check",
                "hamming_distance",
                "--params",
                "tfhe-test",
                "--check-passes",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "== pass check ==" in out
    assert "all passes clean" in out
    assert "structural_hash" in out and "dead_gate_elimination" in out


def test_check_passes_json_schema(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    assert (
        main(
            [
                "check",
                "hamming_distance",
                "--params",
                "none",
                "--check-passes",
                "--json",
                str(json_path),
            ]
        )
        == 0
    )
    import json

    doc = json.loads(json_path.read_text())
    assert doc["passcheck"]["ok"] is True
    assert doc["passcheck"]["failing_pass"] is None
    assert [p["name"] for p in doc["passcheck"]["passes"]] == [
        "structural_hash",
        "optimize",
        "dead_gate_elimination",
    ]
    capsys.readouterr()


def test_check_cache_dir_second_run_is_a_disk_hit(tmp_path, capsys):
    import json

    binary = tmp_path / "prog.pytfhe"
    assert main(["compile", "hamming_distance", "-o", str(binary)]) == 0
    cache_dir, metrics = tmp_path / "cache", tmp_path / "metrics.json"
    argv = ["check", str(binary), "--cache-dir", str(cache_dir)]
    argv += ["--metrics-out", str(metrics)]

    def counters():
        # Each invocation builds its own AnalysisCache over the
        # directory, so only the files carry a verdict across.
        assert main(argv) == 0
        return json.loads(metrics.read_text())["counters"]

    first = counters()
    assert first["analyze_cache_miss"] == 1
    assert "analyze_cache_hit" not in first
    assert any(cache_dir.iterdir())
    second = counters()
    assert second["analyze_cache_hit"] == 1
    assert "analyze_cache_miss" not in second
    capsys.readouterr()


# ----------------------------------------------------------------------
# repro cost / repro calibrate — static cost certification
# ----------------------------------------------------------------------
def test_cost_text_report(capsys):
    assert main(["cost", "hamming_distance"]) == 0
    out = capsys.readouterr().out
    assert "cost certificate: hamming_distance" in out
    assert "predicted execute latency" in out
    assert "batched" in out and "distributed@" in out


def test_cost_json_to_stdout(capsys):
    import json

    assert main(["cost", "hamming_distance", "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "pytfhe-costcert/1"
    assert doc["subject"] == "hamming_distance"
    assert doc["bootstrapped"] > 0
    assert doc["predicted_ms"]["batched"] > 0
    assert doc["report"]["ok"] is True


def test_cost_over_budget_exits_nonzero(capsys):
    assert (
        main(
            [
                "cost",
                "hamming_distance",
                "--budget-ms",
                "1",
                "--backend",
                "batched",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "CA001" in out


def test_cost_of_compiled_binary(tmp_path, capsys):
    binary_path = tmp_path / "prog.pytfhe"
    assert main(["compile", "hamming_distance", "-o", str(binary_path)]) == 0
    capsys.readouterr()
    assert main(["cost", str(binary_path)]) == 0
    out = capsys.readouterr().out
    assert "cost certificate: prog.pytfhe" in out


def test_calibrate_writes_loadable_model(tmp_path, capsys):
    from repro.perfmodel import load_gate_cost

    path = tmp_path / "out" / "gatecost.json"
    assert (
        main(
            [
                "calibrate",
                "--params",
                "tfhe-test",
                "--repetitions",
                "1",
                "-o",
                str(path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "calibrated measured-tfhe-test" in out
    model = load_gate_cost(str(path))
    assert model.gate_ms > 0
    capsys.readouterr()
    # The calibration plugs straight back into `repro cost`.
    assert (
        main(
            ["cost", "hamming_distance", "--gatecost", str(path)]
        )
        == 0
    )
    assert "measured-tfhe-test" in capsys.readouterr().out


def test_check_cost_flag_prints_certificate(capsys):
    assert (
        main(
            ["check", "hamming_distance", "--params", "none", "--cost"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "cost certificate" in out


def test_check_budget_produces_ca001(capsys):
    assert (
        main(
            [
                "check",
                "hamming_distance",
                "--params",
                "none",
                "--budget-ms",
                "1",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "CA001" in out and "ERROR" in out


def test_call_against_in_process_server(capsys):
    from repro.serve import ServeConfig, serving

    with serving(ServeConfig(port=0)) as handle:
        assert (
            main(
                [
                    "call",
                    "hamming_distance",
                    "--port",
                    str(handle.port),
                    "--requests",
                    "2",
                ]
            )
            == 0
        )
    out = capsys.readouterr().out
    assert out.count("ok=True") == 2
    assert "program " in out


# ----------------------------------------------------------------------
# The parser itself: every subcommand's options, in --help order, and
# the four shared execution options' defaults / choices / help text
# ----------------------------------------------------------------------
_RUN_BACKEND_HELP = (
    "where levels bootstrap (default: batched — in-process level-batched "
    "SIMD bootstrapping, each BFS level one fused vectorized call; "
    "'distributed' shards each level over a worker pool sharing the "
    "ciphertext plane)"
)
_SERVE_BACKEND_HELP = (
    "per-tenant executor; cross-request batches stack onto its level "
    "batches either way"
)
_ENGINES = ("batched", "distributed")
_OBS_OPTIONS = "--trace-out --trace-jsonl --metrics-out --noise"
#: subcommand -> (options in --help order,
#:                {shared option: (default, choices, type, help)})
_PARSER_TABLE = {
    "compile": ("workload --output", {}),
    "check": (
        "target --params --sigma-error --sigma-warn --no-noise "
        "--no-dataflow --cost --no-cost --budget-ms --budget-mb --gatecost "
        "--cost-backend --max-findings --no-cache --cache-dir --json "
        "--fail-on --check-passes --trace-out --metrics-out --mode --modulus",
        {
            "--params": (
                "tfhe-default-128", None, None,
                "parameter set for noise certification, or 'none' to skip",
            )
        },
    ),
    "cost": (
        "target --gatecost --budget-ms --budget-mb --backend --requests "
        "--json --mode --modulus",
        {
            "--backend": (
                None, ("batched", "2d", "distributed"), None,
                "backend the budget applies to (arms CA003 checks)",
            )
        },
    ),
    "calibrate": (
        "--params --output --repetitions --warmup --seed",
        {
            "--params": ("tfhe-test", None, None, None),
            "--seed": (0, None, int, None),
        },
    ),
    "disasm": ("binary --max-rows", {}),
    "stats": ("binary", {}),
    "estimate": ("binary", {}),
    "run": (
        "workload --backend --workers --runs --params --seed --mode "
        "--modulus " + _OBS_OPTIONS,
        {
            "--backend": ("batched", _ENGINES, None, _RUN_BACKEND_HELP),
            "--workers": (None, None, int, None),
            "--params": ("tfhe-test", None, None, None),
            "--seed": (0, None, int, None),
        },
    ),
    "profile": (
        "workload --backend --workers --params --seed --repetitions "
        "--warmup " + _OBS_OPTIONS,
        {
            "--backend": ("batched", _ENGINES, None, None),
            "--workers": (None, None, int, None),
            "--params": ("tfhe-test", None, None, None),
            "--seed": (0, None, int, None),
        },
    ),
    "serve": (
        "--host --port --backend --workers --max-pending --max-batch "
        "--linger-ms --max-frame-bytes --no-check --gatecost --no-admission "
        "--telemetry-port --flight-dir --no-noise-monitor " + _OBS_OPTIONS,
        {
            "--backend": ("batched", _ENGINES, None, _SERVE_BACKEND_HELP),
            "--workers": (None, None, int, None),
        },
    ),
    "top": ("--host --port --interval --iterations", {}),
    "call": (
        "workload --host --port --tenant --params --seed --requests "
        "--deadline-ms --timeout",
        {
            "--params": ("tfhe-test", None, None, None),
            "--seed": (0, None, int, None),
        },
    ),
    "keygen": (
        "--params --seed --secret-out --cloud-out",
        {
            "--params": ("tfhe-default-128", None, None, None),
            "--seed": (None, None, int, None),
        },
    ),
    "bench-gate": (
        "--params --batch --repetitions --warmup --mode --modulus",
        {"--params": ("tfhe-test", None, None, None)},
    ),
}


def _subparsers():
    import argparse

    from repro.cli import build_parser

    return next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_parser_table_covers_every_subcommand():
    assert list(_subparsers()) == list(_PARSER_TABLE)


@pytest.mark.parametrize("command", sorted(_PARSER_TABLE))
def test_subcommand_options_are_pinned(command):
    options, shared = _PARSER_TABLE[command]
    actions = [a for a in _subparsers()[command]._actions if a.dest != "help"]
    assert options.split() == [
        a.option_strings[-1] if a.option_strings else a.dest
        for a in actions
    ]
    declared = {
        a.option_strings[-1]: (a.default, a.choices, a.type, a.help)
        for a in actions
        if a.option_strings
        and a.option_strings[-1]
        in ("--params", "--seed", "--backend", "--workers")
    }
    assert declared == shared
