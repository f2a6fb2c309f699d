"""Command-line interface: schemas, exit codes, and byte-stable reruns."""

import csv
import itertools
import json
import math
import subprocess
import sys

import pytest

from srqkd import cli

SQRT3_2 = math.sqrt(3.0) / 2.0
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_config(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


EVE_CONFIG = {
    "schema_version": 1,
    "rounds": 10000,
    "seed": 3,
    "eve": {
        "targets": "arm_A",
        "atoms": [{"weight": 1.0, "e_a": [[0.0, 0.0], [1.0, 0.0]], "e_b": [[1.0, 0.0], [0.0, 0.0]]}],
    },
}


def test_bell_sweep_grid(tmp_path):
    assert cli.main(["bell-sweep", "--points", "21", "--out", str(tmp_path)]) == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["command"] == "bell-sweep"
    assert manifest["config"]["points"] == 21
    header, rows = read_csv(tmp_path / "bell_sweep.csv")
    assert header == ["alpha", "beta", "s_closed_form", "s_oracle", "verdict"]
    assert len(rows) == 21
    for alpha_s, beta_s, closed_s, oracle_s, verdict in rows:
        alpha, beta = float(alpha_s), float(beta_s)
        closed, oracle = float(closed_s), float(oracle_s)
        assert alpha * alpha + beta * beta == pytest.approx(1.0, abs=1e-9)
        assert closed == pytest.approx(oracle, abs=1e-12)
        if alpha > 1e-6 and beta > INV_SQRT2 + 1e-6:
            assert verdict == "ViolatedBelow"
        elif beta < INV_SQRT2 - 1e-6:
            assert verdict == "Satisfied"


def test_bell_sweep_explicit_alphas(tmp_path):
    assert cli.main(["bell-sweep", "--alphas", "0.5", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "bell_sweep.csv")
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(-0.125, abs=1e-12)
    assert rows[0][4] == "ViolatedBelow"


def test_run_protocol_outputs_are_byte_stable(tmp_path):
    args = ["run-protocol", "--rounds", "2000", "--seed", "42"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    for name in ("manifest.json", "summary.json", "transcript.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    summary = read_json(first / "summary.json")
    assert summary["verdict"] == "Secure"
    assert summary["rounds"] == 2000
    assert len(summary["sifted_key_alice"]) == summary["key_length"]
    transcript = (first / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(transcript) == 2000
    assert json.loads(transcript[0])["round_id"] == 0


def test_run_protocol_manifest_reload_reproduces_run(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run-protocol", "--rounds", "1500", "--seed", "9", "--out", str(first)]) == 0
    manifest = first / "manifest.json"
    assert cli.main(["run-protocol", "--config", str(manifest), "--out", str(second)]) == 0
    for name in ("manifest.json", "summary.json", "transcript.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_protocol_flag_overrides_config(tmp_path):
    config = write_config(tmp_path / "c.json", {"schema_version": 1, "rounds": 1200, "seed": 5})
    out = tmp_path / "out"
    assert cli.main(["run-protocol", "--config", config, "--seed", "6", "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["rounds"] == 1200
    assert manifest["config"]["seed"] == 6


@pytest.mark.parametrize(
    "args, field",
    [
        (["eve-scan", "--strategies", "1"], "strategies"),
        (["eve-scan", "--seed", "-1"], "seed"),
        (["bell-sweep", "--points", "-1"], "points"),
        (["device-stats", "--samples", "0"], "samples"),
        (["device-stats", "--seed", str(2**64)], "seed"),
        (["run-protocol", "--rounds", "0"], "rounds"),
        (["run-protocol", "--eta", "nan"], "eta"),
    ],
)
def test_flag_override_goes_through_the_field_parser(tmp_path, capsys, args, field):
    out = tmp_path / "o"
    assert cli.main(args + ["--out", str(out)]) == 1
    assert f"config error at {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, outputs",
    [
        (["eve-scan", "--strategies", "3", "--rounds", "500", "--seed", "8"], ("eve_scan.csv",)),
        (["bell-sweep", "--points", "5"], ("bell_sweep.csv",)),
        (["bell-sweep", "--alphas", "0.25,-1"], ("bell_sweep.csv",)),
        (["device-stats", "--samples", "500", "--seed", "3"], ("device_stats.json",)),
    ],
)
def test_flag_override_replays_from_its_manifest(tmp_path, args, outputs):
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(first)]) == 0
    replay = [args[0], "--config", str(first / "manifest.json"), "--out", str(second)]
    assert cli.main(replay) == 0
    for name in ("manifest.json",) + outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bell_sweep_alpha_beyond_one_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["bell-sweep", "--alphas", "0.5,1.5", "--out", str(out)]) == 1
    assert "config error at alphas[1]:" in capsys.readouterr().err
    config = write_config(tmp_path / "c.json", {"alphas": [1.5]})
    assert cli.main(["bell-sweep", "--config", config, "--out", str(out)]) == 1
    assert "config error at alphas[0]:" in capsys.readouterr().err
    manifest = write_config(tmp_path / "m.json", {"command": "bell-sweep", "config": {"alphas": [-1.5]}})
    assert cli.main(["bell-sweep", "--config", manifest, "--out", str(out)]) == 1
    assert "config error at config.alphas[0]:" in capsys.readouterr().err
    assert not out.exists()


def test_insufficient_data_exit_code(tmp_path):
    code = cli.main(["run-protocol", "--rounds", "20", "--seed", "1", "--out", str(tmp_path)])
    assert code == 3
    assert read_json(tmp_path / "summary.json")["verdict"] == "InsufficientData"


def test_intercepted_run_exit_code(tmp_path):
    config = write_config(tmp_path / "eve.json", EVE_CONFIG)
    out = tmp_path / "out"
    code = cli.main(["run-protocol", "--config", config, "--out", str(out)])
    assert code == 2
    summary = read_json(out / "summary.json")
    assert summary["verdict"] == "EveDetected"
    assert summary["s_estimate"] == pytest.approx(1.0 / 16.0, abs=0.05)


def test_schema_error_exit_code_and_no_partial_output(tmp_path, capsys):
    bad = dict(EVE_CONFIG)
    bad["eve"] = {"targets": "arm_A", "atoms": [{"weight": "heavy"}]}
    config = write_config(tmp_path / "bad.json", bad)
    out = tmp_path / "out"
    assert cli.main(["run-protocol", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error at eve.atoms[0].weight" in err
    assert not out.exists()


def test_direction_pair_error_names_alpha(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"schema_version": 1, "alpha": 0.9, "beta": 0.9})
    assert cli.main(["run-protocol", "--config", config, "--out", str(tmp_path / "o")]) == 1
    assert "config error at alpha: alpha^2 + beta^2 must equal 1" in capsys.readouterr().err
    manifest = write_config(
        tmp_path / "m.json",
        {"command": "run-protocol", "config": {"alpha": 0.9, "beta": 0.9}},
    )
    assert cli.main(["run-protocol", "--config", manifest, "--out", str(tmp_path / "o")]) == 1
    assert "config error at config.alpha:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run-protocol", "eve-scan"])
def test_direction_pair_off_by_1e_10_is_a_config_error(tmp_path, capsys, command):
    # within 1e-9 of a unit pair, but not within the 1e-12 a direction needs
    config = write_config(tmp_path / "c.json", {"alpha": 0.6, "beta": 0.8000000001})
    out = tmp_path / "o"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 1
    assert "config error at alpha:" in capsys.readouterr().err
    assert not out.exists()


def test_huge_json_integers_are_config_errors(tmp_path, capsys):
    # above the float range, and above the interpreter's integer digit limit
    for digits, where in ((400, "eta: must be finite"), (5000, "<config>: invalid JSON")):
        config = tmp_path / "c.json"
        config.write_text('{"eta": 1' + "0" * digits + "}", encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["run-protocol", "--config", str(config), "--out", str(out)]) == 1
        assert f"config error at {where}" in capsys.readouterr().err
        assert not out.exists()


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark before "{}"
    out = tmp_path / "o"
    assert cli.main(["run-protocol", "--config", str(config), "--out", str(out)]) == 1
    assert "config error at <config>: cannot read" in capsys.readouterr().err
    assert not out.exists()


def test_failed_transcript_write_leaves_no_output(tmp_path, monkeypatch):
    real = cli._transcript_lines

    def failing(transcript):
        yield from itertools.islice(real(transcript), 1)
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_transcript_lines", failing)
    args = ["run-protocol", "--rounds", "70000", "--seed", "4", "--out"]
    fresh = tmp_path / "fresh"
    assert cli.main(args + [str(fresh)]) == 1
    assert not fresh.exists()
    # an earlier output set in the directory is left whole
    old = tmp_path / "old"
    old.mkdir()
    (old / "manifest.json").write_text("earlier run", encoding="utf-8")
    assert cli.main(args + [str(old)]) == 1
    assert [p.name for p in old.iterdir()] == ["manifest.json"]
    assert (old / "manifest.json").read_text(encoding="utf-8") == "earlier run"


def test_unknown_config_field_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"schema_version": 1, "roundz": 10})
    assert cli.main(["run-protocol", "--config", config, "--out", str(tmp_path / "o")]) == 1
    assert "roundz" in capsys.readouterr().err


def test_manifest_command_mismatch_is_rejected(tmp_path, capsys):
    sweep_dir = tmp_path / "sweep"
    assert cli.main(["bell-sweep", "--alphas", "0.5", "--out", str(sweep_dir)]) == 0
    code = cli.main(
        ["run-protocol", "--config", str(sweep_dir / "manifest.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "command" in capsys.readouterr().err


def test_out_path_collision_fails_cleanly(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep me", encoding="utf-8")
    code = cli.main(["bell-sweep", "--alphas", "0.5", "--out", str(blocker)])
    assert code == 1
    assert blocker.read_text(encoding="utf-8") == "keep me"


def test_eve_scan_output(tmp_path):
    args = [
        "eve-scan",
        "--strategies", "4",
        "--rounds", "4000",
        "--seed", "7",
        "--out", str(tmp_path),
    ]
    assert cli.main(args) == 0
    header, rows = read_csv(tmp_path / "eve_scan.csv")
    assert header == ["index", "targets", "theta", "phi", "s_analytic", "s_simulated", "detected"]
    assert len(rows) == 4
    identity = rows[0]
    assert identity[1] == "none"
    assert identity[2] == "" and identity[3] == ""
    assert float(identity[4]) == pytest.approx(-0.125, abs=1e-12)
    assert identity[6] == "false"
    benchmark = rows[1]
    assert benchmark[1] == "arm_A"
    assert float(benchmark[2]) == pytest.approx(math.pi, abs=1e-12)
    assert float(benchmark[4]) == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert benchmark[6] == "true"
    for row in rows[1:]:
        assert -1e-9 <= float(row[4]) <= 1.0 + 1e-9
        assert 0.0 <= float(row[2]) <= math.pi
        assert row[6] in ("true", "false")


def test_device_stats_output(tmp_path):
    args = ["device-stats", "--samples", "20000", "--seed", "11", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    stats = read_json(tmp_path / "device_stats.json")
    assert stats["completeness_deviation"] < 1e-12
    assert stats["p_plus_closed_form"] == pytest.approx(0.5, abs=1e-12)
    assert stats["p_plus_analytic"] == pytest.approx(stats["p_plus_closed_form"], abs=1e-12)
    sigma = math.sqrt(0.25 / 20000)
    assert abs(stats["p_plus_simulated"] - 0.5) < 5 * sigma
    total = (
        stats["p_plus_simulated"]
        + stats["p_minus_simulated"]
        + stats["p_inconclusive_simulated"]
    )
    assert total == pytest.approx(1.0, abs=1e-12)
    # complex matrix entries serialize as [re, im] pairs; the balanced
    # probe puts weight 1/4 on each corner of the success effect
    re, im = stats["e_plus"][0][0]
    assert re == pytest.approx(0.25, abs=1e-12)
    assert im == pytest.approx(0.0, abs=1e-12)


def test_device_stats_rejects_unnormalized_pair(tmp_path, capsys):
    code = cli.main(
        ["device-stats", "--alpha", "0.9", "--beta", "0.9", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_cavity_demo_output(tmp_path):
    assert cli.main(["cavity-demo", "--out", str(tmp_path)]) == 0
    demo = read_json(tmp_path / "cavity_demo.json")
    assert demo["transfer_fidelity"] > 1.0 - 1e-10
    assert demo["max_abs_difference"] < 1e-12
    assert demo["s_photonic"] == pytest.approx(-0.125, abs=1e-12)
    assert demo["s_cavity"] == pytest.approx(demo["s_photonic"], abs=1e-12)
    assert demo["expectations_cavity"]["num_num"] == pytest.approx(0.0, abs=1e-12)


def test_eve_scan_rerun_is_byte_stable(tmp_path):
    args = ["eve-scan", "--strategies", "3", "--rounds", "1000", "--seed", "7"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert (first / "eve_scan.csv").read_bytes() == (second / "eve_scan.csv").read_bytes()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "srqkd", "bell-sweep", "--alphas", "0.5", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "bell_sweep.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "srqkd" in capsys.readouterr().out
