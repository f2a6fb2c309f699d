"""srqkd benchmark: three closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs ops back to back from this process; ``protocol_large``
runs each op in one fresh child process at a time, because it measures
memory per op.  Inputs (configs, strategies, directions) are generated
from ``--seed``; srqkd only ever sees those inputs, never a workload name.
Ops start while the summed op time is below ``--seconds``.

Workloads:
  protocol_large  one to a few 2e5-round ``run-protocol`` CLI runs (device
                  backend, eta 0.9, honest channel, full transcript), each
                  in a fresh child; this is where the Philox streams, the
                  round loop, loss thinning and transcript serialization
                  work, and where memory grows with rounds.
  protocol_sweep  many 1e3-1e4-round ``run-protocol`` and ``eve-scan``
                  calls through ``srqkd.cli.main`` in-process, over the
                  ideal/device/cavity backends, eta in {1, 0.9, 0.7} and
                  no / always-intercept / 2-atom both-arm eavesdroppers;
                  some repeat an earlier config under a new seed or
                  run_index (identical tables), others are fresh, so fixed
                  per-run costs dominate and caching has a share to help.
  oracle_batch    the exact analytic path alone: ``s_with_eve`` on random
                  intercept strategies (arm_A / arm_B / both, 1-3 atoms)
                  plus single ``measure_device`` draws on random arm
                  states and probes; no rng, protocol or cli work.

The end-to-end timings are calibrated to nominal machine speed by a
reference task sampled inside each op (``calibrate.py``); the report
prints the raw figure beside each calibrated one.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
of a fixed prefix of the workload untraced and traced, and prints per-layer
metrics from spans around the calls into each srqkd module (see
``spans.py``).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
report.  Work files, span dumps and full results go to ``.perfbench/``.

Every output is checked (``checks.py``): exit codes against verdicts,
transcripts against summaries, byte-identical manifest replays, stored
transcript digests for the default seed, and the exact oracles.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("protocol_large", "protocol_sweep", "oracle_batch")
DEFAULT_SEED = 1
ALPHA, BETA = 0.5, math.sqrt(3.0) / 2.0

LARGE_ROUNDS = 200_000
SWEEP_BACKENDS = ("ideal", "device", "cavity")
SWEEP_REPEAT_SHARE = 0.4
REPLAY_EVERY = 8
STRATEGIES_PER_OP = 4
DRAWS_PER_OP = 32
SETUP_REPEATS = 9
# Ops in each pass of a traced run, so its counts repeat exactly for a seed.
TRACE_OPS = {"protocol_large": 2, "protocol_sweep": 48, "oracle_batch": 250}
# A run that has not finished its ops by then stops waiting for a child.
CHILD_DEADLINE_S = 150.0

ALWAYS_INTERCEPT = {
    "targets": "arm_A",
    "atoms": [{"weight": 1.0, "e_a": [[0.0, 0.0], [1.0, 0.0]], "e_b": [[1.0, 0.0], [0.0, 0.0]]}],
}


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "srqkd" / "__init__.py").is_file():
    fail_setup(f"no srqkd package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import srqkd  # noqa: E402
import srqkd.cli  # noqa: E402

import checks  # noqa: E402
from calibrate import REF_S, Calibrator  # noqa: E402
from checks import CheckFailed, require  # noqa: E402
from spans import Tracer, layer_metrics, merge  # noqa: E402


# ---------------------------------------------------------------------------
# Seeded inputs


def generator(seed: int, workload: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, WORKLOADS.index(workload)])))


def random_directions(g: np.random.Generator, count: int) -> list:
    """Directions uniform on the Bloch sphere, as (c0, c1) complex pairs."""
    v = g.normal(size=(count, 2)) + 1j * g.normal(size=(count, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [(complex(a), complex(b)) for a, b in v.tolist()]


def direction_json(d):
    return [[d[0].real, d[0].imag], [d[1].real, d[1].imag]]


def large_ops(seed: int):
    g = generator(seed, "protocol_large")
    while True:
        yield {
            "command": "run-protocol",
            "config": {
                "rounds": LARGE_ROUNDS,
                "seed": int(g.integers(2**32)),
                "run_index": int(g.integers(64)),
                "backend": "device",
                "eta": 0.9,
                "eve": {"targets": "none"},
            },
        }


# One block of protocol_sweep's run-protocol ops: every (rounds, backend)
# pair once, with a fixed eta and eavesdropper kind, so the mix of op costs
# is the same in every block and from seed to seed.  Each backend gets one
# fresh 2-atom strategy and one repeat of an earlier one (same tables);
# three of the four honest ops are lossy, so the loss-reference defect shows.
SWEEP_BLOCK = (
    (1000, "ideal", 1.0, "none"),
    (1000, "device", 0.9, "fresh"),
    (1000, "cavity", 0.7, "always"),
    (2000, "ideal", 0.9, "fresh"),
    (2000, "device", 0.7, "none"),
    (2000, "cavity", 1.0, "fresh"),
    (5000, "ideal", 1.0, "repeat"),
    (5000, "device", 1.0, "always"),
    (5000, "cavity", 0.9, "none"),
    (10000, "ideal", 0.7, "none"),
    (10000, "device", 0.9, "repeat"),
    (10000, "cavity", 0.7, "repeat"),
)
# eve-scan slots of a block: strategies, rounds, backend, eta.
SCAN_BLOCK = ((3, 1000, "ideal", 1.0), (3, 2000, "device", 0.9), (4, 1000, "cavity", 0.7), (4, 2000, "device", 1.0))


def sweep_ops(seed: int):
    """Shuffled blocks of 12 run-protocol and 4 eve-scan ops.

    Eavesdroppers per block: 4 none, 2 always-intercept, 3 fresh 2-atom
    both-arm strategies and 3 repeats of an earlier 2-atom strategy on the
    same backend (identical tables).  An eve-scan repeats an earlier scan's
    seed on its backend (identical strategies) with SWEEP_REPEAT_SHARE.
    """
    g = generator(seed, "protocol_sweep")
    strategies_by_backend = {b: [] for b in SWEEP_BACKENDS}
    scan_seeds = {b: [] for b in SWEEP_BACKENDS}
    while True:
        block = []
        for rounds, backend, eta, kind in SWEEP_BLOCK:
            earlier = strategies_by_backend[backend]
            if kind == "none":
                eve = {"targets": "none"}
            elif kind == "always":
                eve = ALWAYS_INTERCEPT
            elif kind == "repeat" and earlier:
                eve = earlier[int(g.integers(len(earlier)))]
            else:
                w = float(g.random())
                dirs = random_directions(g, 4)
                eve = {
                    "targets": "both",
                    "atoms": [
                        {"weight": weight, "e_a": direction_json(dirs[2 * i]), "e_b": direction_json(dirs[2 * i + 1])}
                        for i, weight in enumerate((w, 1.0 - w))
                    ],
                }
                earlier.append(eve)
            config = {
                "rounds": rounds,
                "seed": int(g.integers(2**32)),
                "run_index": int(g.integers(64)),
                "backend": backend,
                "eta": eta,
                "eve": eve,
            }
            block.append({"command": "run-protocol", "config": config})
        for strategies, rounds, backend, eta in SCAN_BLOCK:
            seeds = scan_seeds[backend]
            if seeds and g.random() < SWEEP_REPEAT_SHARE:
                scan_seed = seeds[int(g.integers(len(seeds)))]
            else:
                scan_seed = int(g.integers(2**32))
                seeds.append(scan_seed)
            config = {"strategies": strategies, "rounds": rounds, "seed": scan_seed, "backend": backend, "eta": eta}
            block.append({"command": "eve-scan", "config": config})
        yield from (block[i] for i in g.permutation(len(block)))


def oracle_ops(seed: int):
    g = generator(seed, "oracle_batch")
    i = 0
    while True:
        strategies = []
        for _ in range(STRATEGIES_PER_OP):
            weights = g.dirichlet(np.ones(1 + int(g.integers(3))))
            dirs = random_directions(g, 2 * len(weights))
            atoms = [(float(w), e_a, e_b) for w, e_a, e_b in zip(weights, dirs[::2], dirs[1::2])]
            strategies.append((("arm_A", "arm_B", "both")[i % 3], atoms))
            i += 1
        dirs = random_directions(g, 2 * DRAWS_PER_OP)
        yield {"strategies": strategies, "draws": list(zip(dirs[::2], dirs[1::2]))}


OPS = {"protocol_large": large_ops, "protocol_sweep": sweep_ops, "oracle_batch": oracle_ops}


def strategy_from_json(eve: dict):
    """srqkd strategy and dense-oracle atoms for an eavesdropper config."""
    if eve["targets"] == "none":
        return srqkd.IDENTITY_STRATEGY, ()
    atoms = []
    for atom in eve["atoms"]:
        e_a = tuple(complex(*pair) for pair in atom["e_a"])
        e_b = tuple(complex(*pair) for pair in atom["e_b"])
        atoms.append((atom["weight"], e_a, e_b))
    return make_strategy(eve["targets"], atoms), atoms


def make_strategy(targets: str, atoms):
    return srqkd.EveStrategy(
        srqkd.EveTargets(targets),
        tuple(
            srqkd.EveAtom(w, srqkd.SuperpositionCoeffs(*e_a), srqkd.SuperpositionCoeffs(*e_b))
            for w, e_a, e_b in atoms
        ),
    )


# ---------------------------------------------------------------------------
# One pass over the ops


@dataclass
class Pass:
    """What one pass over a workload's ops measured and found."""

    gen: np.random.Generator  # the device draws' randomness
    cal: Calibrator = field(default_factory=Calibrator)
    op_times: list = field(default_factory=list)
    # Reference samples taken by the end of each op, and each op's split
    # into s_with_eve and measure_device time (oracle_batch only).
    op_marks: list = field(default_factory=list)
    op_parts: list = field(default_factory=list)
    measured: float = 0.0
    attempted: int = 0
    failed: int = 0
    protocol_ops: int = 0
    verdict_errors: int = 0
    honest_lossy_ops: int = 0
    honest_lossy_errors: int = 0
    rounds: int = 0
    strategies: int = 0
    draws: int = 0
    plus_hits: int = 0
    plus_expected: float = 0.0
    plus_variance: float = 0.0
    peak_rss_kb: int = 0
    digests: dict = field(default_factory=dict)

    def timed(self, seconds: float, parts=(0.0, 0.0)) -> None:
        self.op_times.append(seconds)
        self.op_marks.append(len(self.cal.slices))
        self.op_parts.append(parts)
        self.measured += seconds

    def op_scales(self) -> list:
        """Per op, REF_S over the mean of the reference samples nearest it.

        That is the samples taken during the op plus one on either side,
        so an op shorter than the sampling period still gets its neighbours.
        """
        slices = self.cal.slices
        scales, low = [], 0
        for high in self.op_marks:
            near = slices[max(low - 1, 0) : high + 1]
            scales.append(REF_S * len(near) / sum(near) if near else REF_S / self.cal.mean())
            low = high
        return scales


class Bench:
    def __init__(self, workload: str, seed: int, run_dir: Path, check_digests: bool):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = time.monotonic() + CHILD_DEADLINE_S
        self.stored = json.loads(DIGESTS.read_text()).get(workload, {}) if check_digests else {}
        self.w = checks.witness(ALPHA, BETA)
        self.s_reference = checks.dense_s("none", (), self.w)
        self._s_eve: dict = {}

    def new_pass(self) -> Pass:
        return Pass(gen=np.random.Generator(np.random.Philox(np.random.SeedSequence([self.seed, 99]))))

    def run_pass(self, ops, budget: float) -> Pass:
        """Run ops until their summed time reaches the budget; check each."""
        stats = self.new_pass()
        for index, op in enumerate(ops):
            if stats.attempted and stats.measured >= budget:
                break
            self.run_op(op, index, stats)
        return stats

    def run_traced(self, ops, budget: float, tracer, spans) -> tuple:
        """Each op once untraced and once traced, alternating which goes first.

        Wrappers are installed only around traced ops, so untraced ops run
        the plain code.  Protocol_large traces inside its op children.
        """
        plain, traced = self.new_pass(), self.new_pass()
        for index, op in enumerate(ops):
            if plain.attempted and plain.measured >= budget:
                break
            for with_trace in (False, True) if index % 2 == 0 else (True, False):
                if not with_trace:
                    self.run_op(op, index, plain)
                elif tracer is None:
                    self.run_op(op, index, traced, spans=spans)
                else:
                    tracer.install()
                    try:
                        self.run_op(op, index, traced, tracer=tracer)
                    finally:
                        tracer.uninstall()
        if tracer is not None:
            spans.append(tracer.arrays())
        return plain, traced

    def run_op(self, op, index: int, stats: Pass, tracer=None, spans=None) -> None:
        """One op and its checks; a failure is counted, never raised."""
        stats.attempted += 1
        op_dir = self.run_dir / f"op-{index}"
        try:
            if self.workload == "oracle_batch":
                self.oracle_op(op, stats, tracer)
            elif self.workload == "protocol_large":
                self.child_op(op, index, op_dir, stats, spans)
            else:
                self.sweep_op(op, index, op_dir, stats, tracer)
        except CheckFailed as err:
            stats.failed += 1
            print(f"op {index} failed a check: {err}", file=sys.stderr)
        except Exception as err:  # a failing op is counted, the run goes on
            stats.failed += 1
            print(f"op {index} raised {type(err).__name__}: {err}", file=sys.stderr)
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)

    # -- protocol ops ------------------------------------------------------

    def write_config(self, op: dict, op_dir: Path) -> list:
        op_dir.mkdir(parents=True)
        config_path = op_dir / "config.json"
        config_path.write_text(json.dumps(dict(op["config"], schema_version=1)))
        return [op["command"], "--config", str(config_path), "--out", str(op_dir / "out")]

    def child_op(self, op: dict, index: int, op_dir: Path, stats: Pass, spans) -> None:
        argv = self.write_config(op, op_dir)
        data = op_dir / ("calibration.json" if spans is None else "spans.npz")
        traced = "0" if spans is None else "1"
        cmd = [sys.executable, str(HERE / "child.py"), "op", traced, str(data), "--", *argv]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        code, usage = wait_child(proc, self.deadline)
        wall = time.perf_counter() - start
        if spans is None:
            samples = json.loads(data.read_text())
            wall -= samples["total"]
            stats.cal.slices.extend(samples["slices"])
        else:
            wall -= float(Path(str(data) + ".dump_s").read_text())
            with np.load(data, allow_pickle=False) as part:
                spans.append({k: part[k] for k in part.files})
        require(code != 1, "run-protocol exited 1")
        stats.timed(wall)
        stats.peak_rss_kb = max(stats.peak_rss_kb, usage.ru_maxrss)
        self.check_protocol_op(op, index, op_dir, code, stats)

    def sweep_op(self, op: dict, index: int, op_dir: Path, stats: Pass, tracer) -> None:
        argv = self.write_config(op, op_dir)
        code, wall = timed_call(stats.cal, tracer, srqkd.cli.main, argv)
        require(code != 1, f"{op['command']} exited 1")
        stats.timed(wall)
        self.check_protocol_op(op, index, op_dir, code, stats)
        if index % REPLAY_EVERY == 0:
            replay = op_dir / "replay"
            again = srqkd.cli.main([op["command"], "--config", str(op_dir / "out" / "manifest.json"), "--out", str(replay)])
            require(again == code, f"replay exited {again}, first run {code}")
            checks.same_bytes(op_dir / "out", replay)

    def check_protocol_op(self, op: dict, index: int, op_dir: Path, code: int, stats: Pass) -> None:
        out = op_dir / "out"
        config = op["config"]
        if op["command"] == "eve-scan":
            wrong = checks.check_eve_scan(out, config, code, self.w, self.s_reference)
            stats.rounds += config["rounds"] * config["strategies"]
        else:
            summary = checks.check_run_protocol(out, config, code)
            require(abs(summary["s_reference"] - self.s_reference) <= checks.ORACLE_TOL, "s_reference off the oracle")
            s_eve = self.exact_s(config["eve"])
            resolved = checks.read_json(out / "manifest.json")["config"]
            wrong = checks.verdict_contradicts(
                summary["verdict"],
                s_eve,
                config["eve"]["targets"] == "none",
                summary["s_reference"],
                summary["s_stderr"],
                resolved["detection_sigma"],
            )
            stats.rounds += config["rounds"]
        stats.protocol_ops += 1
        stats.verdict_errors += wrong
        # The reference S ignores detector loss, so honest runs with eta < 1
        # are flagged once their rounds resolve the shift; shown apart.
        honest = op["command"] == "eve-scan" or config["eve"]["targets"] == "none"
        if honest and config["eta"] < 1.0:
            stats.honest_lossy_ops += 1
            stats.honest_lossy_errors += wrong
        digest = checks.output_digest(out)
        stats.digests[str(index)] = digest
        stored = self.stored.get(str(index))
        require(stored is None or stored == digest, f"output digest {digest[:12]} differs from the stored one")

    def exact_s(self, eve: dict) -> float:
        """S under the eavesdropper from s_with_eve, checked against the dense oracle."""
        key = json.dumps(eve, sort_keys=True)
        if key not in self._s_eve:
            strategy, atoms = strategy_from_json(eve)
            value = srqkd.s_with_eve(strategy, ALPHA, BETA)
            dense = checks.dense_s(eve["targets"], atoms, self.w)
            require(abs(value - dense) <= checks.ORACLE_TOL, f"s_with_eve {value} vs dense oracle {dense}")
            self._s_eve[key] = value
        return self._s_eve[key]

    # -- oracle ops --------------------------------------------------------

    def oracle_op(self, op: dict, stats: Pass, tracer) -> None:
        strategies = [make_strategy(targets, atoms) for targets, atoms in op["strategies"]]
        arms = [
            (srqkd.StateVector(1, 2, {(0,): d[0], (1,): d[1]}), srqkd.ProbeState(*p)) for d, p in op["draws"]
        ]
        values, outcomes = [], []
        strategy_time = draw_time = 0.0
        for strategy in strategies:
            value, seconds = timed_call(stats.cal, tracer, srqkd.s_with_eve, strategy, ALPHA, BETA)
            values.append(value)
            strategy_time += seconds
        for arm, probe in arms:
            outcome, seconds = timed_call(stats.cal, tracer, srqkd.measure_device, arm, 0, probe, stats.gen)
            outcomes.append(outcome[0])
            draw_time += seconds
        stats.timed(strategy_time + draw_time, (strategy_time, draw_time))
        stats.strategies += len(strategies)
        stats.draws += len(arms)
        for s, (targets, atoms) in zip(values, op["strategies"]):
            dense = checks.dense_s(targets, atoms, self.w)
            require(abs(s - dense) <= checks.ORACLE_TOL, f"s_with_eve {s} vs dense oracle {dense}")
        for outcome, (d, probe) in zip(outcomes, op["draws"]):
            counts = tuple(outcome.detector_counts)
            tag = {(1, 0): "plus", (0, 1): "minus"}.get(counts, "inconclusive")
            require(outcome.tag.value == tag and sum(counts) <= 2, f"device outcome {outcome}")
            vec = np.array(d)
            e_plus = srqkd.device_povm(srqkd.ProbeState(*probe)).e_plus
            p_plus = float(np.real(vec.conj() @ e_plus @ vec))
            stats.plus_hits += tag == "plus"
            stats.plus_expected += p_plus
            stats.plus_variance += p_plus * (1.0 - p_plus)


def timed_call(cal: Calibrator, tracer, fn, *args):
    """fn(*args) and its seconds; traced if a tracer is given, else calibrated.

    Reference-task samples taken during the call are not counted in it.
    """
    if tracer is not None:
        tracer.active = True
        start = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - start
        finally:
            tracer.active = False
    with cal:
        before = cal.total
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start - (cal.total - before)


def wait_child(proc: subprocess.Popen, deadline: float):
    """Wait for the child and return its exit code and its own rusage."""

    def expire(signum, frame):
        raise TimeoutError("op child passed the run's deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def setup_seconds(workload: str, run_dir: Path) -> tuple:
    """Cold import plus first warm-up call, each in a fresh child.

    Returns the calibrated and the raw seconds of every child.
    """
    kind = "oracle" if workload == "oracle_batch" else "protocol"
    calibrated, raw = [], []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", kind, str(run_dir / f"setup-{i}")],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=60,
        )
        child = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(child["seconds"])
        calibrated.append(child["seconds"] * REF_S / child["ref_s"])
    return calibrated, raw


# ---------------------------------------------------------------------------
# Metrics


def versions() -> dict:
    ctx = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    try:
        ctx["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        ctx["scipy"] = None
    return ctx


def end_to_end(workload: str, stats: Pass, setup: tuple) -> dict:
    """Every end-to-end figure that applies to the workload, with units.

    Timings are calibrated to nominal machine speed op by op
    (calibrate.py); each note gives the raw figure.
    """
    scales = stats.op_scales()
    raw, times = stats.op_times, [t * k for t, k in zip(stats.op_times, scales)]
    total, raw_total = sum(times), stats.measured

    def p90(values):
        return statistics.quantiles(values, n=10)[8]

    calibrated_setup, raw_setup = setup
    out = {
        "setup_s": (
            statistics.median(calibrated_setup),
            "s",
            f"median of {len(raw_setup)} cold set-ups; raw {statistics.median(raw_setup):.6g}",
        ),
        "ops_per_s": (len(times) / total, "1/s", f"{len(times)} ops in {total:.2f} s; raw {len(raw) / raw_total:.6g}"),
        "op_p50_s": (statistics.median(times), "s", f"n={len(times)}; raw {statistics.median(raw):.6g}"),
    }
    if len(times) >= 2:
        beyond = sum(t > p90(times) for t in times)
        if beyond >= 10:
            out["op_p90_s"] = (p90(times), "s", f"n={len(times)}, {beyond} beyond; raw {p90(raw):.6g}")
    rss_kb = stats.peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    whose = "max over op children" if stats.peak_rss_kb else "this process"
    out["peak_rss_mb"] = (rss_kb / 1024.0, "MB", whose)
    if workload == "oracle_batch":
        for i, (name, count) in enumerate((("strategies_per_s", stats.strategies), ("device_draws_per_s", stats.draws))):
            spent = sum(parts[i] * k for parts, k in zip(stats.op_parts, scales))
            raw_spent = sum(parts[i] for parts in stats.op_parts)
            out[name] = (count / spent, "1/s", f"{count} calls; raw {count / raw_spent:.6g}")
    else:
        out["rounds_per_s"] = (stats.rounds / total, "1/s", f"{stats.rounds} rounds; raw {stats.rounds / raw_total:.6g}")
        out["verdict_error_share"] = (
            stats.verdict_errors / max(stats.protocol_ops, 1),
            "share",
            f"{stats.verdict_errors}/{stats.protocol_ops} protocol ops; "
            f"honest eta<1 {stats.honest_lossy_errors}/{stats.honest_lossy_ops}",
        )
    out["failed_op_share"] = (stats.failed / stats.attempted, "share", f"{stats.failed}/{stats.attempted} ops")
    out["reference_task_s"] = (
        stats.cal.mean(),
        "s",
        f"mean of {len(stats.cal.slices)} samples; nominal {REF_S:g}",
    )
    return out


def device_rate_ok(stats: Pass) -> bool:
    """Plus-rate of all draws within 4 sigma of the summed POVM expectation."""
    if not stats.draws:
        return True
    sigma = math.sqrt(stats.plus_variance)
    ok = abs(stats.plus_hits - stats.plus_expected) <= 4.0 * sigma
    if not ok:
        print(
            f"device plus count {stats.plus_hits} vs expected {stats.plus_expected:.1f} +- {sigma:.1f}",
            file=sys.stderr,
        )
    return ok


def bench_metrics() -> dict:
    """Metric declarations from BENCHMARK.json: name -> unit, per section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]} for section in ("end_to_end", "per_layer")
    }


def report(lines: dict) -> None:
    for name, (value, unit, note) in lines.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store the output digests of this run (seed {DEFAULT_SEED} only) in {DIGESTS.name}",
    )
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    declared = bench_metrics()
    if not str(Path(srqkd.__file__).resolve()).startswith(str(SRC.resolve())):
        fail_setup(f"imported srqkd from {srqkd.__file__}, not from {SRC}")

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    check_digests = args.seed == DEFAULT_SEED and not args.record_digests
    bench = Bench(args.workload, args.seed, run_dir, check_digests)
    ops = OPS[args.workload](args.seed)
    try:
        if args.trace:
            span_parts: list = []
            tracer = None if args.workload == "protocol_large" else Tracer()
            prefix = itertools.islice(ops, TRACE_OPS[args.workload])
            plain, traced = bench.run_traced(prefix, args.seconds / 2, tracer, span_parts)
            merged = merge(span_parts)
            metrics = layer_metrics(merged, traced.measured, plain.measured)
            np.savez_compressed(
                WORK / f"trace-{args.workload}.npz",
                names=np.array(merged["names"], dtype=str),
                **{k: merged[k] for k in ("name_idx", "parent", "start", "end", "part")},
            )
            runs = (plain, traced)
            units = declared["per_layer"]
            lines = {name: (value, units.get(name, "?"), "") for name, value in metrics.items()}
        else:
            setup = setup_seconds(args.workload, run_dir)
            stats = bench.run_pass(ops, args.seconds)
            runs = (stats,)
            lines = end_to_end(args.workload, stats, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = failed == 0 and all(device_rate_ok(r) for r in runs)
    if args.record_digests:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        stored[args.workload] = runs[0].digests
        DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    context = versions()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("context " + " ".join(f"{k}={v}" for k, v in context.items()))
    report(lines)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        name: {"value": lines[name][0], "unit": unit} for name, unit in declared[section].items() if name in lines
    }
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "context": context,
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "report": {name: {"value": v, "unit": u, "note": n} for name, (v, u, n) in lines.items()},
            },
            indent=1,
        )
        + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
