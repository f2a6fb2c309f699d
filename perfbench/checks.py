"""Output checks for benchmark ops, independent of the code under test.

A failed check raises :class:`CheckFailed`; the op then counts as failed.
A verdict that contradicts the exact oracle is not a failure (the op did
its work) and is returned to the caller, which counts it apart.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

EXIT_BY_VERDICT = {"Secure": 0, "EveDetected": 2, "InsufficientData": 3}
CELLS = ("sup_a", "sup_b", "sup_sup", "sup_num", "num_sup", "num_num")
ORACLE_TOL = 1e-12
SCAN_HEADER = ["index", "targets", "theta", "phi", "s_analytic", "s_simulated", "detected"]

# Per-cell estimator scales (device conclusive outcomes carry POVM weight 1/2).
_SCALES = {
    "ideal": (1, 1, 1, 1, 1, 1),
    "cavity": (1, 1, 1, 1, 1, 1),
    "device": (2, 2, 4, 2, 2, 1),
}


class CheckFailed(Exception):
    """An op's output broke an exact invariant or could not be read."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise CheckFailed(f"{path.name}: {err}") from err


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def same_bytes(first: Path, second: Path) -> None:
    names = sorted(p.name for p in first.iterdir())
    require(names == sorted(p.name for p in second.iterdir()), "replay wrote other files")
    for name in names:
        require((first / name).read_bytes() == (second / name).read_bytes(), f"replay differs in {name}")


# ---------------------------------------------------------------------------
# Dense 4x4 density-matrix oracle on the two-arm one-photon span.
# Basis |n_A n_B>, index 2 n_A + n_B; source (|1,0> - |0,1>)/sqrt(2).

_KET0, _KET1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
_PHI = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)
_RHO = np.outer(_PHI, _PHI.conj()).astype(complex)
_EYE = np.eye(2)
_NUMBER = np.diag([0.0, 1.0])


def _projector(c0: complex, c1: complex) -> np.ndarray:
    v = np.array([c0, c1], dtype=complex)
    return np.outer(v, v.conj())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron for two 2x2 matrices, without its generic overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def witness(alpha: float, beta: float) -> np.ndarray:
    """Six-term S as an operator, operational convention.

    Party A projects onto (beta, alpha), party B onto (beta, -alpha).
    """
    p_a, p_b = _projector(beta, alpha), _projector(beta, -alpha)
    return (
        _kron(p_a, _EYE)
        + _kron(_EYE, p_b)
        - _kron(p_a, p_b)
        - _kron(p_a, _NUMBER)
        - _kron(_NUMBER, p_b)
        + _kron(_NUMBER, _NUMBER)
    )


def dense_s(targets: str, atoms, w: np.ndarray) -> float:
    """Tr(rho' W) after intercept-resend with Kraus pairs {P_e, 1 - P_e}.

    ``atoms`` holds (weight, e_a, e_b) with each direction a complex pair.
    """
    if targets == "none":
        return float(np.trace(_RHO @ w).real)
    total = 0.0
    for weight, e_a, e_b in atoms:
        rho = _RHO
        for arm, e in ((0, e_a), (1, e_b)):
            if targets not in ("both", ("arm_A", "arm_B")[arm]):
                continue
            p = _projector(*e)
            krauses = [_kron(k, _EYE) if arm == 0 else _kron(_EYE, k) for k in (p, _EYE - p)]
            rho = sum(k @ rho @ k.conj().T for k in krauses)
        total += weight * float(np.trace(rho @ w).real)
    return total


# ---------------------------------------------------------------------------
# Protocol outputs


def transcript_cells(path: Path, rounds: int):
    """Cell counts read back from the transcript; also checks round ids.

    Lines are parsed a chunk at a time as one JSON array; a line holding
    more or fewer than one record shifts the round ids and fails.
    """
    counts = dict.fromkeys(CELLS, 0)
    number_pairs = 0
    n = 0
    try:
        fh = open(path, encoding="utf-8")
    except OSError as err:
        raise CheckFailed(f"transcript: {err}") from err
    with fh:
        while lines := fh.readlines(1 << 20):
            try:
                records = json.loads("[" + ",".join(lines) + "]")
            except ValueError as err:
                raise CheckFailed(f"transcript after line {n}: {err}") from err
            for rec in records:
                require(rec["round_id"] == n, f"transcript round_id {rec['round_id']} at line {n}")
                a_sup = rec["alice_setting"] == "superposition"
                b_sup = rec["bob_setting"] == "superposition"
                counts["sup_a"] += a_sup
                counts["sup_b"] += b_sup
                if a_sup and b_sup:
                    counts["sup_sup"] += 1
                elif a_sup:
                    counts["sup_num"] += 1
                elif b_sup:
                    counts["num_sup"] += 1
                else:
                    number_pairs += 1
                n += 1
    require(n == rounds, f"transcript has {n} records for {rounds} rounds")
    return counts, number_pairs


def check_run_protocol(out_dir: Path, config: dict, exit_code: int) -> dict:
    """Exact invariants of one run-protocol op; returns the parsed summary."""
    summary = read_json(out_dir / "summary.json")
    read_json(out_dir / "manifest.json")
    verdict = summary.get("verdict")
    require(verdict in EXIT_BY_VERDICT, f"unknown verdict {verdict!r}")
    require(exit_code == EXIT_BY_VERDICT[verdict], f"exit code {exit_code} for verdict {verdict}")
    rounds = config["rounds"]
    require(summary["rounds"] == rounds, "summary rounds differ from config")
    counts, number_pairs = transcript_cells(out_dir / "transcript.jsonl", rounds)
    cells = summary["cell_counts"]
    for name in CELLS[:5]:
        require(cells[name] == counts[name], f"cell {name}: summary {cells[name]}, transcript {counts[name]}")
    key_a, key_b = summary["sifted_key_alice"], summary["sifted_key_bob"]
    require(len(key_a) == len(key_b) == summary["key_length"], "key lengths disagree")
    require(cells["num_num"] + summary["key_length"] == number_pairs, "sacrificed + key != number pairs")
    require(summary["sift_fraction"] == number_pairs / rounds, "sift fraction disagrees with transcript")
    if config["eta"] == 1.0 and config["eve"]["targets"] == "none":
        require(key_a == key_b, "honest lossless run has unequal sifted keys")
    return summary


def verdict_contradicts(verdict: str, s_eve: float, honest: bool, s_reference: float, stderr: float, sigma: float) -> bool:
    """True when the verdict disagrees with the exact oracle.

    Honest runs must be Secure.  A run must be EveDetected when the exact S
    under its eavesdropper lies more than 2 * sigma * stderr from the
    reference; closer than that, either verdict is accepted.
    """
    if honest:
        return verdict != "Secure"
    return abs(s_eve - s_reference) > 2.0 * sigma * stderr and verdict != "EveDetected"


def stderr_upper_bound(rounds: int, backend: str, sample_fraction: float) -> float:
    """A bound on a run's S standard error, for outputs that do not report it.

    Binomial variance is at most 1/4; cell sizes are taken at half their
    expectation, far below any realistic binomial fluctuation.
    """
    expected = (rounds / 2, rounds / 2, rounds / 4, rounds / 4, rounds / 4, rounds / 4 * sample_fraction)
    scales = _SCALES[backend]
    return math.sqrt(sum(s * s * 0.25 / (0.5 * n) for s, n in zip(scales, expected)))


def scan_rows(out_dir: Path, strategies: int):
    try:
        with open(out_dir / "eve_scan.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise CheckFailed(f"eve_scan.csv: {err}") from err
    require(rows and rows[0] == SCAN_HEADER, "eve_scan.csv header")
    rows = rows[1:]
    require(len(rows) == strategies, f"eve_scan.csv has {len(rows)} rows for {strategies} strategies")
    parsed = []
    for i, row in enumerate(rows):
        require(len(row) == len(SCAN_HEADER) and row[0] == str(i), f"eve_scan.csv row {i}")
        try:
            theta = float(row[2]) if row[2] else None
            phi = float(row[3]) if row[3] else None
            s_analytic, s_simulated = float(row[4]), float(row[5])
        except ValueError as err:
            raise CheckFailed(f"eve_scan.csv row {i}: {err}") from err
        require(math.isfinite(s_simulated), f"eve_scan.csv row {i}: s_simulated not finite")
        require(row[6] in ("true", "false"), f"eve_scan.csv row {i}: detected flag")
        parsed.append((row[1], theta, phi, s_analytic, row[6] == "true"))
    return parsed


def check_eve_scan(out_dir: Path, config: dict, exit_code: int, w: np.ndarray, s_reference: float) -> bool:
    """Exact invariants of one eve-scan op; returns whether a verdict contradicts the oracle."""
    require(exit_code == 0, f"eve-scan exited {exit_code}")
    rows = scan_rows(out_dir, config["strategies"])
    require(rows[0][0] == "none" and rows[1][0] == "arm_A" and rows[1][1] == math.pi, "benchmark rows")
    resolved = read_json(out_dir / "manifest.json")["config"]
    stderr = stderr_upper_bound(config["rounds"], config["backend"], resolved["bell_sample_fraction"])
    contradicts = False
    for i, (targets, theta, phi, s_analytic, detected) in enumerate(rows):
        if targets == "none":
            s_exact = dense_s("none", (), w)
        else:
            require(targets == "arm_A", f"eve_scan.csv row {i}: targets {targets}")
            e_a = (math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi)))
            s_exact = dense_s("arm_A", ((1.0, e_a, (1.0, 0.0)),), w)
        require(abs(s_analytic - s_exact) <= ORACLE_TOL, f"eve_scan.csv row {i}: analytic S off the oracle")
        verdict = "EveDetected" if detected else "Secure"
        contradicts |= verdict_contradicts(
            verdict, s_exact, targets == "none", s_reference, stderr, resolved["detection_sigma"]
        )
    return contradicts
