"""CLI tests (python -m repro.cli)."""

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
