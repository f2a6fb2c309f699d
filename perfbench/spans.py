"""Span tracing of the srqkd layers, installed from outside the package.

Wrappers replace module-level functions at the binding each caller looks
up at call time (``from .x import y`` copies the name, so the copy in the
importing module is wrapped as well as the original).  Each call records a
span: name, start, end and parent span.  Spans stay in memory and are
written out once, when the benchmark ends.

A target that does not exist (renamed or deleted) is skipped; the layer
metrics that depend only on missing targets are left out of the report
instead of failing the run.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import os
import pkgutil
import time

import numpy as np

# (module, attribute, span name).  Several bindings of one function share a
# span name, so a metric sees every caller.
TARGETS = (
    ("srqkd.protocol", "round_uniforms", "rng.round_uniforms"),
    ("srqkd.rng", "round_uniforms", "rng.round_uniforms"),
    ("srqkd.cli", "make_generator", "rng.make_generator"),
    ("srqkd.cli", "run_protocol", "protocol.run_protocol"),
    ("srqkd.protocol", "_build_tables", "protocol.build_tables"),
    ("srqkd.protocol", "_estimate_cells", "protocol.estimate_cells"),
    ("srqkd.cli", "main", "cli.main"),
    ("srqkd.cli", "_record_json", "cli.record_json"),
    ("srqkd.cli", "write_atomic", "cli.write"),
    ("srqkd.cli", "write_atomic_lines", "cli.write"),
    ("srqkd.protocol", "analyze_device", "device.analyze_device"),
    ("srqkd.device", "analyze_device", "device.analyze_device"),
    ("srqkd.cli", "analyze_device", "device.analyze_device"),
    ("srqkd", "measure_device", "device.measure_device"),
    ("srqkd.device", "apply_beam_splitter", "optics.apply_beam_splitter"),
    ("srqkd.optics", "apply_beam_splitter", "optics.apply_beam_splitter"),
    ("srqkd", "s_with_eve", "bell.s_with_eve"),
    ("srqkd.cli", "s_with_eve", "bell.s_with_eve"),
    ("srqkd.bell", "eve_channel", "bell.eve_channel"),
    ("srqkd.protocol", "eve_channel", "bell.eve_channel"),
    ("srqkd.bell", "bell_terms", "bell.bell_terms"),
    ("srqkd.protocol", "bell_terms", "bell.bell_terms"),
    ("srqkd.cli", "bell_terms", "bell.bell_terms"),
    ("srqkd.protocol", "transfer_shared_state", "cavity.transfer_shared_state"),
    ("srqkd.cli", "transfer_shared_state", "cavity.transfer_shared_state"),
)

# Every function defined in this module is wrapped wherever it is bound.
FOCK_MODULE = "srqkd.fock"


def _table_key(config) -> str:
    """What the exact outcome tables of a run depend on (not seed, rounds or eta)."""
    return repr((config.backend, config.alpha, config.beta, config.convention, config.eve))


def _hook_round_uniforms(tracer, args, kwargs, result):
    tracer.counters["rng.uniforms"] += int(result.size)


def _hook_run_protocol(tracer, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    tracer.counters["protocol.rounds"] += config.rounds
    tracer.counters["protocol.key_bits"] += result[0].key_length
    tracer.table_keys.append(_table_key(config))


def _hook_eve_channel(tracer, args, kwargs, result):
    tracer.counters["bell.ensemble_members"] += len(result.members)


def _hook_measure_device(tracer, args, kwargs, result):
    tracer.counters["device.conclusive"] += result[0].tag.value != "inconclusive"


def _hook_write(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counters["cli.bytes_written"] += os.path.getsize(path)


HOOKS = {
    "rng.round_uniforms": _hook_round_uniforms,
    "protocol.run_protocol": _hook_run_protocol,
    "bell.eve_channel": _hook_eve_channel,
    "device.measure_device": _hook_measure_device,
    "cli.write": _hook_write,
}


class Tracer:
    """In-memory span store plus the counters the wrappers' hooks keep."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_idx = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.active = False
        self.counters = dict.fromkeys(
            (
                "rng.uniforms",
                "protocol.rounds",
                "protocol.key_bits",
                "bell.ensemble_members",
                "device.conclusive",
                "cli.bytes_written",
            ),
            0,
        )
        self.table_keys: list = []
        self.broken_hooks: set = set()
        self.installed: set = set()
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        name_idx, parent, start, end, stack = (
            self.name_idx, self.parent, self.start, self.end, self._stack,
        )
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(name_idx)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # an API change must not fail the run
                    self.broken_hooks.add(name)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; remember how to undo it."""
        for module_name, attr, name in TARGETS:
            module = _import(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if callable(fn):
                self._replace(module, attr, fn, name)
        for module in _package_modules():
            for attr, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and fn.__module__ == FOCK_MODULE:
                    self._replace(module, attr, fn, f"fock.{fn.__name__}")

    def _replace(self, module, attr, fn, name):
        self._restore.append((module, attr, fn))
        setattr(module, attr, self.wrap(fn, name))
        self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def arrays(self) -> dict:
        """Spans and counters as plain arrays, for saving and merging."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "installed": np.array(sorted(self.installed), dtype=str),
            "broken_hooks": np.array(sorted(self.broken_hooks), dtype=str),
            "counter_names": np.array(list(self.counters), dtype=str),
            "counter_values": np.array(list(self.counters.values()), dtype=np.int64),
            "table_keys": np.array(self.table_keys, dtype=str),
        }


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _package_modules():
    import srqkd

    yield srqkd
    for info in pkgutil.iter_modules(srqkd.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = _import(f"srqkd.{info.name}")
        if module is not None:
            yield module


def merge(parts: list) -> dict:
    """One span set from the arrays of several tracers (one per process)."""
    ids: dict = {}
    cols = {"name_idx": [], "parent": [], "start": [], "end": [], "part": []}
    installed, broken, keys = set(), set(), []
    counters: dict = {}
    offset = 0
    for index, part in enumerate(parts):
        remap = np.array(
            [ids.setdefault(n, len(ids)) for n in part["names"].tolist()] or [0],
            dtype=np.int32,
        )
        n = len(part["name_idx"])
        cols["name_idx"].append(remap[part["name_idx"]] if n else part["name_idx"])
        cols["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        cols["start"].append(part["start"])
        cols["end"].append(part["end"])
        cols["part"].append(np.full(n, index, dtype=np.int32))
        offset += n
        installed.update(part["installed"].tolist())
        broken.update(part["broken_hooks"].tolist())
        keys.extend(part["table_keys"].tolist())
        for name, value in zip(part["counter_names"].tolist(), part["counter_values"].tolist()):
            counters[name] = counters.get(name, 0) + value
    names = sorted(ids, key=ids.get)
    out = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
    out["name_idx"] = out["name_idx"].astype(np.int32)
    out["parent"] = out["parent"].astype(np.int64)
    out.update(names=names, installed=installed, broken=broken, counters=counters, table_keys=keys)
    return out


def layer_metrics(spans: dict, op_wall_traced: float, op_wall_untraced: float) -> dict:
    """Per-layer metrics from a merged span set; absent when their targets are."""
    names = spans["names"]
    name_idx = spans["name_idx"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    n = len(dur)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n) if n else dur
    self_time = dur - child_sum

    def mask(prefix):
        by_name = np.array([s.startswith(prefix) for s in names] or [False], dtype=bool)
        return by_name[name_idx]

    def calls(prefix):
        return int(mask(prefix).sum())

    def busy(prefix):
        """Time inside spans of the group, nested same-group spans counted once."""
        m = mask(prefix)
        parent_in = np.zeros(n, dtype=bool)
        parent_in[has_parent] = m[parent[has_parent]]
        return float(dur[m & ~parent_in].sum())

    def own(prefix):
        return float(self_time[mask(prefix)].sum())

    installed = spans["installed"]
    counters = spans["counters"]
    broken = spans["broken"]

    def have(*span_names):
        return any(s in installed for s in span_names)

    def counted(span_name):
        return span_name in installed and span_name not in broken

    def ratio(a, b):
        return a / b if b else 0.0

    runs = calls("protocol.run_protocol")
    keys = spans["table_keys"]
    measures = calls("device.measure_device")
    rows = [
        ("rng.calls", have("rng.round_uniforms", "rng.make_generator"), lambda: calls("rng.")),
        ("rng.busy_s", have("rng.round_uniforms", "rng.make_generator"), lambda: busy("rng.")),
        ("rng.uniforms", counted("rng.round_uniforms"), lambda: counters["rng.uniforms"]),
        ("protocol.self_s", have("protocol.run_protocol"), lambda: own("protocol.run_protocol")),
        ("protocol.busy_s", have("protocol.run_protocol"), lambda: busy("protocol.run_protocol")),
        ("protocol.runs", have("protocol.run_protocol"), lambda: runs),
        ("protocol.rounds", counted("protocol.run_protocol"), lambda: counters["protocol.rounds"]),
        ("protocol.estimator_s", have("protocol.estimate_cells"), lambda: busy("protocol.estimate_cells")),
        ("protocol.tables_s", have("protocol.build_tables"), lambda: busy("protocol.build_tables")),
        ("protocol.table_builds", have("protocol.build_tables"), lambda: calls("protocol.build_tables")),
        (
            "protocol.config_repeat_share",
            counted("protocol.run_protocol"),
            lambda: ratio(len(keys) - len(set(keys)), len(keys)),
        ),
        (
            "protocol.key_yield",
            counted("protocol.run_protocol"),
            lambda: ratio(counters["protocol.key_bits"], counters["protocol.rounds"]),
        ),
        ("cli.serialize_s", have("cli.record_json"), lambda: busy("cli.record_json")),
        ("cli.write_s", have("cli.write"), lambda: own("cli.write")),
        ("cli.bytes_written", counted("cli.write"), lambda: counters["cli.bytes_written"]),
        ("cli.self_s", have("cli.main"), lambda: own("cli.main")),
        ("cli.commands", have("cli.main"), lambda: calls("cli.main")),
        ("device.analyze_calls", have("device.analyze_device"), lambda: calls("device.analyze_device")),
        ("device.analyze_s", have("device.analyze_device"), lambda: busy("device.analyze_device")),
        ("device.measure_calls", have("device.measure_device"), lambda: measures),
        ("device.measure_s", have("device.measure_device"), lambda: busy("device.measure_device")),
        (
            "device.conclusive_ratio",
            counted("device.measure_device"),
            lambda: ratio(counters["device.conclusive"], measures),
        ),
        ("optics.splitter_calls", have("optics.apply_beam_splitter"), lambda: calls("optics.apply_beam_splitter")),
        ("optics.splitter_s", have("optics.apply_beam_splitter"), lambda: busy("optics.apply_beam_splitter")),
        ("bell.s_with_eve_calls", have("bell.s_with_eve"), lambda: calls("bell.s_with_eve")),
        ("bell.s_with_eve_s", have("bell.s_with_eve"), lambda: busy("bell.s_with_eve")),
        ("bell.eve_channel_s", have("bell.eve_channel"), lambda: busy("bell.eve_channel")),
        ("bell.ensemble_members", counted("bell.eve_channel"), lambda: counters["bell.ensemble_members"]),
        ("bell.bell_terms_calls", have("bell.bell_terms"), lambda: calls("bell.bell_terms")),
        ("bell.bell_terms_s", have("bell.bell_terms"), lambda: busy("bell.bell_terms")),
        ("cavity.transfer_calls", have("cavity.transfer_shared_state"), lambda: calls("cavity.")),
        ("cavity.transfer_s", have("cavity.transfer_shared_state"), lambda: busy("cavity.")),
        ("fock.calls", any(s.startswith("fock.") for s in installed), lambda: calls("fock.")),
        ("fock.busy_s", any(s.startswith("fock.") for s in installed), lambda: busy("fock.")),
        (
            "trace.overhead_share",
            True,
            lambda: ratio(op_wall_traced - op_wall_untraced, op_wall_untraced),
        ),
        ("trace.coverage", True, lambda: ratio(float(self_time.sum()), op_wall_traced)),
    ]
    return {name: value() for name, present, value in rows if present}
