"""Golden output digests of run-protocol, eve-scan and bell-sweep.

The run-protocol digests were recorded with the round-by-round reference
sampler that preceded the chunked one.  Each run has 2**16 + 123 rounds,
so it crosses a sampling chunk boundary; any change to the bytes of a
transcript or a summary shows up here.

The eve-scan and bell-sweep digests were recorded with the term-by-term
projector route for S, so they pin the last bit of every analytic S
(``s_with_eve`` and ``bell_terms``) that those commands print.
"""

import hashlib
import json

import pytest

from srqkd import cli

ROUNDS = 2**16 + 123

TWO_ATOM_BOTH_ARMS = {
    "targets": "both",
    "atoms": [
        {"weight": 0.6, "e_a": [[0.6, 0.0], [0.8, 0.0]], "e_b": [[0.0, 0.0], [1.0, 0.0]]},
        {"weight": 0.4, "e_a": [[1.0, 0.0], [0.0, 0.0]], "e_b": [[0.8, 0.0], [0.0, 0.6]]},
    ],
}

# Ideal and cavity realize the same exact distribution, so their outputs coincide.
IDEAL_DIGESTS = {
    "eta1": (
        0,
        "c2bd43c81dbaec9a3d4987282a43b7136398e4769c6d455f3b2a36eb55c24fa9",
        "78287b15ac2db280e775e8cafb63d9c64e6a7e3a4a94b46b2b14c856d0369e60",
    ),
    "eta0.9": (
        2,
        "84e6fbae4705e09d29de964856b505fcee0f9173afd8ffd5397dad206e6066d2",
        "b0e5b63d1afc9de37bc2d52541224a6143d95e75da4773e30a94325e58432d60",
    ),
    "eta0.7-eve": (
        2,
        "6258b63d9c8ab3917b679f061f12587c222846a1d4960d7c7e248d952bb07e35",
        "1af23701d6989b7326c513c88240c7aae8092d3db7142501d7185118a1ab6b8d",
    ),
}
GOLDEN = {
    "ideal": IDEAL_DIGESTS,
    "cavity": IDEAL_DIGESTS,
    "device": {
        "eta1": (
            0,
            "29e6f94dcbf872a3e45c5912d8a0298f20a51b06b38a7272cc2821957575b1fa",
            "fce4f6d26001cc9568589f2a273494354175d04f14e9352d1aa185b9025cb9b2",
        ),
        "eta0.9": (
            2,
            "563bcb63118fbbd247e446c0642eeafd7c71e47c5a5856a2a2aa8cb9318ed161",
            "661a8be01d19babb0930750eeca45077c83c1a08d78e0c37ffeba98092027da0",
        ),
        "eta0.7-eve": (
            2,
            "197db492cd0d3f522a11dd9dc9144fc226d5e1263c3046089c46814ed9495b58",
            "49c4d66904332a62e4f52e4b09166fe85efcecff792500c7760d31433cbf9f1a",
        ),
    },
}
CASES = {
    "eta1": (1.0, {"targets": "none"}),
    "eta0.9": (0.9, {"targets": "none"}),
    "eta0.7-eve": (0.7, TWO_ATOM_BOTH_ARMS),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_run_protocol_golden_digests(tmp_path, backend, case):
    eta, eve = CASES[case]
    config = {"schema_version": 1, "rounds": ROUNDS, "seed": 2024, "backend": backend, "eta": eta, "eve": eve}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["run-protocol", "--config", str(config_path), "--out", str(out)])
    exit_code, transcript, summary = GOLDEN[backend][case]
    assert code == exit_code
    assert sha256(out / "transcript.jsonl") == transcript
    assert sha256(out / "summary.json") == summary


# case -> (backend, eta, manifest digest, eve_scan.csv digest)
EVE_SCAN_GOLDEN = {
    "ideal-eta1": (
        "ideal",
        1.0,
        "4794c33866f9956d28039be674329bc08f20652afe52da3d75309ab9ec25e6d6",
        "531a8c82aebad6e850c57dd773b6f7835bc8dbddc97c0cd932004c0674d2e33f",
    ),
    "device-eta0.9": (
        "device",
        0.9,
        "12a831c3647cba03a3cfa9be7f484f5811b0f512f6c519038cab7ef395397244",
        "1228ea7d6a57b1b1851db6e22e7c1b029bda935a76b20dbe67026746d9c6fe9d",
    ),
}

# convention -> (manifest digest, bell_sweep.csv digest)
BELL_SWEEP_GOLDEN = {
    "operational": (
        "f1f60dba2673e2e4f9d74222b4f0c47d0044a7586f44a6af51171525b278f533",
        "6251021f8d8e76ba50d3d98e1b4a3fe9b24e58880731726849ab1b7b262d8f29",
    ),
    "literal": (
        "36b1317d262cce95208f74b261ee6209a9f92f91122129d7035ad110c3f6a9a4",
        "beac665261103d3376af1c5aab7ce0e020ce7cf54b85b920052ad069b3b2b13d",
    ),
}


def run_with_config(tmp_path, command, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"schema_version": 1, **config}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("case", sorted(EVE_SCAN_GOLDEN))
def test_eve_scan_golden_digests(tmp_path, case):
    backend, eta, manifest, table = EVE_SCAN_GOLDEN[case]
    config = {"strategies": 8, "rounds": 3000, "seed": 5, "backend": backend, "eta": eta}
    out = run_with_config(tmp_path, "eve-scan", config)
    assert sha256(out / "manifest.json") == manifest
    assert sha256(out / "eve_scan.csv") == table


@pytest.mark.parametrize("convention", sorted(BELL_SWEEP_GOLDEN))
def test_bell_sweep_golden_digests(tmp_path, convention):
    manifest, table = BELL_SWEEP_GOLDEN[convention]
    out = run_with_config(tmp_path, "bell-sweep", {"points": 41, "projector_convention": convention})
    assert sha256(out / "manifest.json") == manifest
    assert sha256(out / "bell_sweep.csv") == table
