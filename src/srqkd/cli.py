"""Command-line front end: deterministic runs, sweeps, and serialized reports.

Every command resolves its inputs (config file plus flag overrides) into a
single config object, writes a ``manifest.json`` holding that resolved
config next to its outputs, and is a pure function of the manifest:
feeding the manifest back through ``--config`` reproduces every output
file byte for byte.

Serialization rules: JSON is emitted by a small canonical writer (stable
key order, floats with 17 significant digits, complex numbers as
``[re, im]`` pairs); CSV uses a comma separator, a header row, ``.``
decimals, and LF line endings.  All files of a command are first written
under temporary names and renamed into place only once every one of them
is complete, so a failing command never leaves a partial output set.

Exit codes: 0 success (run-protocol: verdict Secure), 2 EveDetected,
3 InsufficientData, 1 bad config or I/O failure.  Config schema errors
name the offending field path.  Set SRQ_LOG=info (or debug) for progress
messages on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bell import (
    Convention,
    EveAtom,
    EveStrategy,
    EveTargets,
    FieldError,
    IDENTITY_STRATEGY,
    assemble_s,
    bell_terms,
    check_inequality,
    s_closed_form,
    s_with_eve,
)
from .cavity import cavity_bell_terms, transfer_shared_state
from .device import ProbeState, SuperpositionCoeffs, analyze_device, classify_counts, device_povm
from .fock import StateVector, fidelity
from .optics import make_source_state
from .protocol import (
    Backend,
    ProtocolConfig,
    RoundRecord,
    Transcript,
    Verdict,
    record_from_code,
    run_protocol,
)
from .rng import make_generator

log = logging.getLogger("srqkd")

_BACKEND_NAMES = tuple(b.value for b in Backend)
_CONVENTION_NAMES = tuple(c.value for c in Convention)

# Stream tags for auxiliary generators, disjoint from protocol streams.
_EVE_SCAN_STREAM = 201
_DEVICE_STATS_STREAM = 202

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Canonical serialization


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("non-finite number in output")
    return f"{value:.17g}"


def json_canonical(value) -> str:
    """Deterministic JSON: insertion-order keys, 17-significant-digit floats."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, complex):
        return f"[{format_float(value.real)},{format_float(value.imag)}]"
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}:{json_canonical(v)}" for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(json_canonical(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_atomic_lines(path: Path, lines: Iterable[str]) -> None:
    """Write one staged file: each item, then a newline.

    An item may hold several lines joined by newlines.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_outputs(out_dir: Path, files: Dict[str, Iterable[str]]) -> None:
    """Write every output file of a command, or none of them.

    Each file (name -> items for :func:`write_atomic_lines`) is written
    under a ``.tmp`` name first; the files are renamed into place only
    after all writes succeeded.  On failure the staged files, and the
    output directory if this call created it, are removed.
    """
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, lines in files.items():
            staged.append((out_dir / (name + ".tmp"), out_dir / name))
            write_atomic_lines(staged[-1][0], lines)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        if created:
            with contextlib.suppress(OSError):
                out_dir.rmdir()
        raise
    for tmp, path in staged:
        os.replace(tmp, path)
        log.info("wrote %s", path)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """CSV lines without the final newline (which the writer adds)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()[:-1]


def _manifest(command: str, config_obj: dict) -> dict:
    return {
        "schema_version": 1,
        "tool_version": __version__,
        "command": command,
        "config": config_obj,
    }


# ---------------------------------------------------------------------------
# Config schema


class SchemaError(ValueError):
    """Config validation failure, carrying the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected a JSON object")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a JSON array")
    return value


def _as_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be at least {minimum}")
    return value


def _as_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "expected a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(path, "must be finite")
    return out


def _as_str(value, path: str, choices: Optional[Sequence[str]] = None) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, "expected a string")
    if choices is not None and value not in choices:
        raise SchemaError(path, f"must be one of {', '.join(choices)}")
    return value


def _as_complex(value, path: str) -> complex:
    pair = _as_list(value, path)
    if len(pair) != 2:
        raise SchemaError(path, "expected a [re, im] pair")
    return complex(_as_real(pair[0], f"{path}[0]"), _as_real(pair[1], f"{path}[1]"))


def _as_direction(value, path: str) -> SuperpositionCoeffs:
    pair = _as_list(value, path)
    if len(pair) != 2:
        raise SchemaError(path, "expected two [re, im] pairs")
    c0 = _as_complex(pair[0], f"{path}[0]")
    c1 = _as_complex(pair[1], f"{path}[1]")
    try:
        return SuperpositionCoeffs(c0, c1)
    except ValueError as err:
        raise SchemaError(path, str(err)) from err


def _check_keys(obj: dict, path: str, allowed: Sequence[str]) -> None:
    for key in obj:
        if key not in allowed and key != "schema_version":
            raise SchemaError(f"{path}{key}" if path.endswith(".") or not path else key, "unknown field")
    if "schema_version" in obj and _as_int(obj["schema_version"], f"{path}schema_version") != 1:
        raise SchemaError(f"{path}schema_version", "unsupported schema version")


def _parse_eve(value, path: str) -> EveStrategy:
    obj = _as_object(value, path)
    for key in obj:
        if key not in ("targets", "atoms"):
            raise SchemaError(f"{path}.{key}", "unknown field")
    target_names = tuple(t.value for t in EveTargets)
    targets = EveTargets(_as_str(obj.get("targets", "none"), f"{path}.targets", target_names))
    raw_atoms = obj.get("atoms", [])
    if targets is EveTargets.NONE:
        if raw_atoms:
            raise SchemaError(f"{path}.atoms", "identity strategy takes no atoms")
        return IDENTITY_STRATEGY
    atoms = []
    vacuum_dir = [[1.0, 0.0], [0.0, 0.0]]
    for i, entry in enumerate(_as_list(raw_atoms, f"{path}.atoms")):
        apath = f"{path}.atoms[{i}]"
        aobj = _as_object(entry, apath)
        for key in aobj:
            if key not in ("weight", "e_a", "e_b"):
                raise SchemaError(f"{apath}.{key}", "unknown field")
        if "weight" not in aobj:
            raise SchemaError(f"{apath}.weight", "missing required field")
        weight = _as_real(aobj["weight"], f"{apath}.weight")
        e_a = _as_direction(aobj.get("e_a", vacuum_dir), f"{apath}.e_a")
        e_b = _as_direction(aobj.get("e_b", vacuum_dir), f"{apath}.e_b")
        try:
            atoms.append(EveAtom(weight, e_a, e_b))
        except ValueError as err:
            raise SchemaError(apath, str(err)) from err
    try:
        return EveStrategy(targets, tuple(atoms))
    except ValueError as err:
        raise SchemaError(path, str(err)) from err


def _eve_json(strategy: EveStrategy) -> dict:
    if strategy.targets is EveTargets.NONE:
        return {"targets": "none"}
    return {
        "targets": strategy.targets.value,
        "atoms": [
            {"weight": a.weight, "e_a": [a.e_a.c0, a.e_a.c1], "e_b": [a.e_b.c0, a.e_b.c1]}
            for a in strategy.atoms
        ],
    }


def _load_config_object(path_str: str, command: str) -> Tuple[dict, str]:
    """Read a config file; unwrap a manifest if that's what was given."""
    try:
        raw = Path(path_str).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaError("<config>", f"cannot read {path_str}: {err}") from err
    try:
        data = json.loads(raw)
    except ValueError as err:  # malformed, or an integer over the digit limit
        raise SchemaError("<config>", f"invalid JSON: {err}") from err
    obj = _as_object(data, "<config>")
    if "command" in obj or "config" in obj:
        _check_keys(obj, "", ("tool_version", "command", "config"))
        manifest_command = _as_str(obj.get("command", command), "command")
        if manifest_command != command:
            raise SchemaError("command", f"manifest was written by {manifest_command!r}, not {command!r}")
        return _as_object(obj.get("config", {}), "config"), "config."
    return obj, ""


# Field tables: name -> (parser, default).  Parsers take (value, path).

def _real_field(value, path):
    return _as_real(value, path)


def _seed_field(value, path):
    out = _as_int(value, path, minimum=0)
    if out >= 2**64:
        raise SchemaError(path, "must fit in an unsigned 64-bit word")
    return out


_PROTOCOL_FIELDS: Dict[str, Tuple[Callable, object]] = {
    "rounds": (lambda v, p: _as_int(v, p, minimum=1), 10000),
    "seed": (_seed_field, 42),
    "alpha": (_real_field, 0.5),
    "beta": (_real_field, math.sqrt(3.0) / 2.0),
    "eta": (_real_field, 1.0),
    "backend": (lambda v, p: _as_str(v, p, _BACKEND_NAMES), "ideal"),
    "projector_convention": (lambda v, p: _as_str(v, p, _CONVENTION_NAMES), "operational"),
    "bell_sample_fraction": (_real_field, 0.5),
    "detection_sigma": (_real_field, 4.0),
    "min_cell_samples": (lambda v, p: _as_int(v, p, minimum=1), 10),
    "run_index": (lambda v, p: _as_int(v, p, minimum=0), 0),
    "eve": (_parse_eve, IDENTITY_STRATEGY),
}


def _parse_fields(obj: dict, prefix: str, fields: Dict[str, Tuple[Callable, object]]) -> dict:
    _check_keys(obj, prefix, tuple(fields))
    out = {}
    for name, (parse, default) in fields.items():
        if name in obj:
            out[name] = parse(obj[name], f"{prefix}{name}")
        else:
            out[name] = default
    return out


def _override(values: dict, args: argparse.Namespace, fields, names: Sequence[str]) -> None:
    """Apply the given flags, each checked by its field's parser under the field's name."""
    for name in names:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = fields[name][0](flag_value, name)


def _build_protocol_config(values: dict, prefix: str) -> ProtocolConfig:
    try:
        return ProtocolConfig(
            rounds=values["rounds"],
            seed=values["seed"],
            alpha=values["alpha"],
            beta=values["beta"],
            eta=values["eta"],
            backend=Backend(values["backend"]),
            eve=values["eve"],
            bell_sample_fraction=values["bell_sample_fraction"],
            convention=Convention(values["projector_convention"]),
            detection_sigma=values["detection_sigma"],
            min_cell_samples=values["min_cell_samples"],
            run_index=values["run_index"],
        )
    except FieldError as err:
        raise SchemaError(f"{prefix}{err.field}", str(err)) from err


def _protocol_config_json(config: ProtocolConfig) -> dict:
    return {
        "schema_version": 1,
        "rounds": config.rounds,
        "seed": config.seed,
        "alpha": config.alpha,
        "beta": config.beta,
        "eta": config.eta,
        "backend": config.backend.value,
        "projector_convention": config.convention.value,
        "bell_sample_fraction": config.bell_sample_fraction,
        "detection_sigma": config.detection_sigma,
        "min_cell_samples": config.min_cell_samples,
        "run_index": config.run_index,
        "eve": _eve_json(config.eve),
    }


# ---------------------------------------------------------------------------
# Commands


def _resolve(args: argparse.Namespace, fields, override_names: Sequence[str]) -> Tuple[dict, str]:
    if args.config:
        obj, prefix = _load_config_object(args.config, args.command)
    else:
        obj, prefix = {}, ""
    values = _parse_fields(obj, prefix, fields)
    _override(values, args, fields, override_names)
    return values, prefix


def _alphas_field(value, path) -> Optional[List[float]]:
    if value is None:
        return None
    out = []
    for i, x in enumerate(_as_list(value, path)):
        alpha = _as_real(x, f"{path}[{i}]")
        if abs(alpha) > 1.0:
            raise SchemaError(f"{path}[{i}]", "must lie in [-1, 1]")
        out.append(alpha)
    return out or None


def cmd_bell_sweep(args: argparse.Namespace) -> int:
    fields = {
        "points": (lambda v, p: _as_int(v, p, minimum=2), 99),
        "alphas": (_alphas_field, None),
        "projector_convention": (lambda v, p: _as_str(v, p, _CONVENTION_NAMES), "operational"),
    }
    values, _ = _resolve(args, fields, ("points", "alphas", "projector_convention"))
    convention = Convention(values["projector_convention"])
    alphas = values["alphas"]
    grid = [float(a) for a in (alphas if alphas else np.linspace(0.0, 1.0, values["points"]))]
    if not grid:
        raise SchemaError("alphas", "grid must be nonempty")

    rows = []
    for alpha in grid:
        beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        closed = s_closed_form(alpha, beta, convention)
        oracle = assemble_s(bell_terms(alpha, beta, convention=convention))
        verdict = check_inequality(oracle)
        rows.append(
            (
                format_float(alpha),
                format_float(beta),
                format_float(closed),
                format_float(oracle),
                verdict.value,
            )
        )

    out_dir = Path(args.out)
    config_obj = {
        "schema_version": 1,
        "points": values["points"],
        "alphas": values["alphas"],
        "projector_convention": convention.value,
    }
    write_outputs(
        out_dir,
        {
            "manifest.json": [json_canonical(_manifest("bell-sweep", config_obj))],
            "bell_sweep.csv": [
                _csv_text(("alpha", "beta", "s_closed_form", "s_oracle", "verdict"), rows)
            ],
        },
    )
    return 0


def _record_json(rec: RoundRecord) -> str:
    return json_canonical(
        {
            "round_id": rec.round_id,
            "alice_setting": rec.alice_setting.value,
            "bob_setting": rec.bob_setting.value,
            "alice_outcome": rec.alice_outcome.value,
            "bob_outcome": rec.bob_outcome.value,
            "alice_lost": rec.alice_lost,
            "bob_lost": rec.bob_lost,
        }
    )


class _RecordTails(dict):
    """Record code -> its transcript line after ``{"round_id":0``, made on first use.

    Lines differ only in their round id, so each code is serialized once.
    """

    def __missing__(self, code: int) -> str:
        tail = self[code] = _record_json(record_from_code(0, code))[len('{"round_id":0') :]
        return tail


# Transcript lines joined per write; a small block stays in cache and
# keeps the text held at any one time small.
_TRANSCRIPT_BLOCK = 1 << 12


def _transcript_lines(transcript: Transcript) -> Iterator[str]:
    """Transcript JSONL, one block of lines at a time."""
    tails = _RecordTails()
    codes = transcript.codes
    for start in range(0, len(codes), _TRANSCRIPT_BLOCK):
        block = codes[start : start + _TRANSCRIPT_BLOCK].tolist()
        yield "\n".join(['{"round_id":' + str(r) + tails[c] for r, c in enumerate(block, start)])


def cmd_run_protocol(args: argparse.Namespace) -> int:
    values, prefix = _resolve(
        args, _PROTOCOL_FIELDS, ("rounds", "seed", "backend", "projector_convention", "eta")
    )
    config = _build_protocol_config(values, prefix)
    log.info("running protocol: %d rounds, backend %s", config.rounds, config.backend.value)
    result, transcript = run_protocol(config)

    summary = {
        "schema_version": 1,
        "tool_version": __version__,
        "verdict": result.verdict.value,
        "s_estimate": result.s_estimate,
        "s_stderr": result.s_stderr,
        "s_reference": result.s_reference,
        "sift_fraction": result.sift_fraction,
        "rounds": result.rounds,
        "key_length": result.key_length,
        "key_disagreement_rate": result.key_disagreement_rate,
        "cell_counts": dict(result.cell_counts),
        "sifted_key_alice": result.sifted_key_alice,
        "sifted_key_bob": result.sifted_key_bob,
    }
    write_outputs(
        Path(args.out),
        {
            "manifest.json": [json_canonical(_manifest("run-protocol", _protocol_config_json(config)))],
            "summary.json": [json_canonical(summary)],
            "transcript.jsonl": _transcript_lines(transcript),
        },
    )

    log.info("verdict: %s", result.verdict.value)
    if result.verdict is Verdict.SECURE:
        return 0
    if result.verdict is Verdict.EVE_DETECTED:
        return 2
    return 3


def _scan_strategy(theta: float, phi: float) -> EveStrategy:
    e_a = SuperpositionCoeffs(
        math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))
    )
    return EveStrategy(EveTargets.ARM_A, (EveAtom(1.0, e_a, SuperpositionCoeffs(1.0, 0.0)),))


def cmd_eve_scan(args: argparse.Namespace) -> int:
    fields = dict(_PROTOCOL_FIELDS)
    del fields["eve"]
    del fields["run_index"]
    fields["strategies"] = (lambda v, p: _as_int(v, p, minimum=2), 32)
    fields["rounds"] = (lambda v, p: _as_int(v, p, minimum=1), 20000)
    fields["seed"] = (_seed_field, 7)
    values, prefix = _resolve(
        args,
        fields,
        ("strategies", "rounds", "seed", "backend", "projector_convention", "eta"),
    )
    convention = Convention(values["projector_convention"])
    alpha, beta = values["alpha"], values["beta"]

    # Row plan: identity, the always-intercept |1> benchmark, then random
    # single-atom arm-A intercepts drawn uniformly on the Bloch sphere.
    plans: List[Tuple[str, Optional[float], Optional[float]]] = [
        ("none", None, None),
        ("arm_A", math.pi, 0.0),
    ]
    rng = make_generator(values["seed"], _EVE_SCAN_STREAM)
    for _ in range(values["strategies"] - 2):
        theta = math.acos(1.0 - 2.0 * float(rng.random()))
        phi = 2.0 * math.pi * float(rng.random())
        plans.append(("arm_A", theta, phi))

    rows = []
    for index, (targets, theta, phi) in enumerate(plans):
        strategy = IDENTITY_STRATEGY if targets == "none" else _scan_strategy(theta, phi)
        run_values = dict(values)
        protocol_values = {
            name: run_values[name] for name in _PROTOCOL_FIELDS if name in run_values
        }
        protocol_values["eve"] = strategy
        protocol_values["run_index"] = index
        # Built before s_with_eve, so an invalid field is a config error.
        config = _build_protocol_config(protocol_values, prefix)
        analytic = s_with_eve(strategy, alpha, beta, convention)
        result, _ = run_protocol(config)
        rows.append(
            (
                str(index),
                targets,
                "" if theta is None else format_float(theta),
                "" if phi is None else format_float(phi),
                format_float(analytic),
                format_float(result.s_estimate),
                "true" if result.verdict is Verdict.EVE_DETECTED else "false",
            )
        )
        log.info("eve-scan row %d: analytic %.6f simulated %.6f", index, analytic, result.s_estimate)

    out_dir = Path(args.out)
    config_obj = {"schema_version": 1, "strategies": values["strategies"]}
    for name in (
        "rounds",
        "seed",
        "alpha",
        "beta",
        "eta",
        "backend",
        "projector_convention",
        "bell_sample_fraction",
        "detection_sigma",
        "min_cell_samples",
    ):
        config_obj[name] = values[name]
    header = ("index", "targets", "theta", "phi", "s_analytic", "s_simulated", "detected")
    write_outputs(
        out_dir,
        {
            "manifest.json": [json_canonical(_manifest("eve-scan", config_obj))],
            "eve_scan.csv": [_csv_text(header, rows)],
        },
    )
    return 0


def _matrix_json(matrix: np.ndarray) -> list:
    return [[complex(matrix[i, j]) for j in range(2)] for i in range(2)]


def cmd_device_stats(args: argparse.Namespace) -> int:
    fields = {
        "alpha": (_real_field, _INV_SQRT2),
        "beta": (_real_field, _INV_SQRT2),
        "samples": (lambda v, p: _as_int(v, p, minimum=1), 100000),
        "seed": (_seed_field, 11),
    }
    values, prefix = _resolve(args, fields, ("alpha", "beta", "samples", "seed"))
    alpha, beta = values["alpha"], values["beta"]
    try:
        probe = ProbeState(alpha, beta)
        arm = StateVector(1, 2, {(0,): complex(alpha), (1,): complex(beta)})
    except ValueError as err:
        raise SchemaError(f"{prefix}alpha", str(err)) from err

    povm = device_povm(probe)
    vec = np.array([alpha, beta], dtype=complex)
    p_analytic = {
        "plus": float(np.real(vec.conj() @ povm.e_plus @ vec)),
        "minus": float(np.real(vec.conj() @ povm.e_minus @ vec)),
        "inconclusive": float(np.real(vec.conj() @ povm.e_inconclusive @ vec)),
    }

    branches = analyze_device(arm, 0, probe)
    cum = np.cumsum([b.probability for b in branches])
    rng = make_generator(values["seed"], _DEVICE_STATS_STREAM)
    draws = rng.random(values["samples"])
    picks = np.minimum(np.searchsorted(cum, draws, side="right"), len(branches) - 1)
    tally = np.bincount(picks, minlength=len(branches))
    simulated = {"plus": 0.0, "minus": 0.0, "inconclusive": 0.0}
    for branch, hits in zip(branches, tally):
        simulated[classify_counts(branch.counts).value] += int(hits) / values["samples"]

    report = {
        "schema_version": 1,
        "tool_version": __version__,
        "alpha": alpha,
        "beta": beta,
        "probe": [probe.g0, probe.g1],
        "e_plus": _matrix_json(povm.e_plus),
        "e_minus": _matrix_json(povm.e_minus),
        "e_inconclusive": _matrix_json(povm.e_inconclusive),
        "completeness_deviation": povm.completeness_deviation(),
        "p_plus_closed_form": 2.0 * (alpha * beta) ** 2,
        "p_plus_analytic": p_analytic["plus"],
        "p_minus_analytic": p_analytic["minus"],
        "p_inconclusive_analytic": p_analytic["inconclusive"],
        "samples": values["samples"],
        "p_plus_simulated": simulated["plus"],
        "p_minus_simulated": simulated["minus"],
        "p_inconclusive_simulated": simulated["inconclusive"],
    }
    out_dir = Path(args.out)
    config_obj = {
        "schema_version": 1,
        "alpha": alpha,
        "beta": beta,
        "samples": values["samples"],
        "seed": values["seed"],
    }
    write_outputs(
        out_dir,
        {
            "manifest.json": [json_canonical(_manifest("device-stats", config_obj))],
            "device_stats.json": [json_canonical(report)],
        },
    )
    return 0


def cmd_cavity_demo(args: argparse.Namespace) -> int:
    fields = {
        "alpha": (_real_field, 0.5),
        "beta": (_real_field, math.sqrt(3.0) / 2.0),
        "projector_convention": (lambda v, p: _as_str(v, p, _CONVENTION_NAMES), "operational"),
    }
    values, prefix = _resolve(args, fields, ("alpha", "beta", "projector_convention"))
    convention = Convention(values["projector_convention"])
    alpha, beta = values["alpha"], values["beta"]

    transferred = transfer_shared_state(make_source_state())
    target = StateVector(
        4, 2, {(0, 0, 1, 0): _INV_SQRT2, (0, 0, 0, 1): -_INV_SQRT2}
    )
    transfer_fidelity = fidelity(transferred, target)

    try:
        photonic = bell_terms(alpha, beta, convention=convention)
        atomic = cavity_bell_terms(alpha, beta, convention)
    except ValueError as err:
        raise SchemaError(f"{prefix}alpha", str(err)) from err
    names = ("sup_a", "sup_b", "sup_sup", "sup_num", "num_sup", "num_num")
    photonic_map = dict(zip(names, photonic.as_tuple()))
    atomic_map = dict(zip(names, atomic.as_tuple()))
    max_diff = max(abs(photonic_map[n] - atomic_map[n]) for n in names)

    report = {
        "schema_version": 1,
        "tool_version": __version__,
        "alpha": alpha,
        "beta": beta,
        "projector_convention": convention.value,
        "transfer_fidelity": transfer_fidelity,
        "expectations_photonic": photonic_map,
        "expectations_cavity": atomic_map,
        "max_abs_difference": max_diff,
        "s_photonic": assemble_s(photonic),
        "s_cavity": assemble_s(atomic),
    }
    out_dir = Path(args.out)
    config_obj = {
        "schema_version": 1,
        "alpha": alpha,
        "beta": beta,
        "projector_convention": convention.value,
    }
    write_outputs(
        out_dir,
        {
            "manifest.json": [json_canonical(_manifest("cavity-demo", config_obj))],
            "cavity_demo.json": [json_canonical(report)],
        },
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _parse_alphas(text: str) -> List[float]:
    out = [float(piece) for piece in text.split(",") if piece.strip()]
    if not out:
        raise argparse.ArgumentTypeError("expected a comma-separated list of reals")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srqkd",
        description="Single-photon entanglement key distribution simulator",
    )
    parser.add_argument("--version", action="version", version=f"srqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config or a previously written manifest.json")
        p.add_argument("--out", default=".", help="output directory (default: current)")

    p = sub.add_parser("bell-sweep", help="dual-route S values over an alpha grid")
    common(p)
    p.add_argument("--points", type=int, help="grid size over alpha in [0, 1] (default 99)")
    p.add_argument("--alphas", type=_parse_alphas, help="explicit comma-separated alpha list")
    p.add_argument("--projector-convention", choices=_CONVENTION_NAMES)
    p.set_defaults(func=cmd_bell_sweep)

    p = sub.add_parser("run-protocol", help="full key-distribution run")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--backend", choices=_BACKEND_NAMES)
    p.add_argument("--projector-convention", choices=_CONVENTION_NAMES)
    p.add_argument("--eta", type=float, help="detector efficiency in (0, 1]")
    p.set_defaults(func=cmd_run_protocol)

    p = sub.add_parser("eve-scan", help="intercept-strategy sweep, analytic vs simulated")
    common(p)
    p.add_argument("--strategies", type=int, help="number of rows including the two benchmarks")
    p.add_argument("--seed", type=int)
    p.add_argument("--rounds", type=int, help="protocol rounds per simulated row")
    p.add_argument("--backend", choices=_BACKEND_NAMES)
    p.add_argument("--projector-convention", choices=_CONVENTION_NAMES)
    p.add_argument("--eta", type=float)
    p.set_defaults(func=cmd_eve_scan)

    p = sub.add_parser("device-stats", help="comparison-device POVM and success probabilities")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_device_stats)

    p = sub.add_parser("cavity-demo", help="transfer fidelity and atom-side expectations")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--projector-convention", choices=_CONVENTION_NAMES)
    p.set_defaults(func=cmd_cavity_demo)

    return parser


def _setup_logging() -> None:
    name = os.environ.get("SRQ_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as err:
        print(f"config error at {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
