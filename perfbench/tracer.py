"""Span recording around the package's public functions, from outside.

``Tracer.install()`` replaces every public function of the layer modules
(``params``, ``analytic``, ``sweep``, ``config``, ``cli``, ``lindblad``)
with a wrapper, at every module attribute of the package that binds it,
so calls between modules are seen too.  Each call records a span: name,
start, end and the span that was open when it began.  Self time is a
span's duration minus the time covered by its direct children.  Spans
stay in memory and are written out by ``write()``; ``uninstall()`` puts
the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

LAYERS = ("params", "analytic", "sweep", "config", "cli", "lindblad")
# methods are wrapped on their class; module functions are found by name
METHODS = {"sweep": {"SweepTable": ("to_csv", "to_json", "to_json_dict")}}
# calls whose peak traced allocation is recorded
PEAK_MEMORY = ("lindblad.build_liouvillian", "lindblad.steady_state")
# spans kept for the trace file; later spans are counted but not stored
MAX_STORED_SPANS = 50_000


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dressedcool"
                                  or name.startswith("dressedcool."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.spans = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []    # [span index, name, child seconds]
        self.pair_calls: dict[tuple[str, str], int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # --- recording ----------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = self.spans
        self.spans += 1
        if index < MAX_STORED_SPANS:
            nid = self._name_id.get(name)
            if nid is None:
                nid = self._name_id[name] = len(self.names)
                self.names.append(name)
            self.name_ids.append(nid)
            self.parents.append(self._stack[-1][0] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
        if self._stack:
            self.pair_calls[(self._stack[-1][1], name)] += 1
        self._stack.append([index, name, 0.0])
        return index

    def _end(self, name: str, start: float, end: float) -> None:
        index, _, child = self._stack.pop()
        duration = end - start
        if index < MAX_STORED_SPANS:
            self.starts[index] = start - self.t0
            self.ends[index] = end - self.t0
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, name: str, fn):
        peak = name in PEAK_MEMORY
        observe = OBSERVERS.get(name)
        relabel = LABELS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = relabel(args) if relabel else name
            tracer._begin(label)
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak:
                    top = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = name + ".peak_bytes"
                    tracer.maxima[key] = max(tracer.maxima[key], top)
                tracer._end(label, start, end)
            if observe:
                observe(tracer, args, result)
            return result
        return wrapper

    # --- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of each layer module of `package`."""
        modules = _package_modules()
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            self._undo.append((m, a, v))
                            setattr(m, a, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    fn = vars(cls)[meth]
                    self._undo.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- output -------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines: one header line, then one line per span."""
        stored = min(self.spans, MAX_STORED_SPANS)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": self.spans,
                                 "stored": stored}) + "\n")
            for i in range(stored):
                fh.write(json.dumps(
                    [i, self.names[self.name_ids[i]], self.parents[i],
                     round(self.starts[i], 9), round(self.ends[i], 9)]) + "\n")


# --- per-call observations -------------------------------------------------

def _count(key, amount):
    def observe(tracer, args, result):
        tracer.counts[key] += amount(args, result)
    return observe


def _built(tracer, args, result):
    for key, value in (("lindblad.max_dim", result.dim),
                       ("lindblad.generator_bytes", result.matrix.nbytes)):
        tracer.maxima[key] = max(tracer.maxima[key], value)


# counts taken from a call's arguments and result
OBSERVERS = {
    "analytic.trajectory": _count("analytic.samples",
                                  lambda a, r: len(r.times)),
    "sweep.run_sweep": _count("sweep.rows", lambda a, r: len(r.rows)),
    "sweep.SweepTable.to_csv": _count("sweep.csv_rows",
                                      lambda a, r: len(a[0].rows)),
    # to_json calls to_json_dict; the CLI calls to_json_dict alone
    "sweep.SweepTable.to_json_dict": _count("sweep.json_rows",
                                            lambda a, r: len(a[0].rows)),
    "lindblad.build_liouvillian": _built,
    "lindblad.converged_steady_state": _count("lindblad.accepted_points",
                                              lambda a, r: 1),
}
# span names that depend on the arguments: one per CLI subcommand
LABELS = {"cli.main": lambda args: f"cli.main.{args[0][0]}"}


def _per_call_us(tracer, name):
    calls = tracer.calls.get(name, 0)
    return 1e6 * tracer.self_s[name] / calls if calls else 0.0


def _per_unit_us(tracer, names, count_key):
    units = tracer.counts.get(count_key, 0)
    seconds = sum(tracer.self_s.get(name, 0.0) for name in names)
    return 1e6 * seconds / units if units else 0.0


SUBCOMMANDS = ("presets", "steady", "trajectory", "sweep", "validate")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase of `rounds` whole rounds.

    Times of microsecond functions are self time per call; totals and
    counts are per round.  A layer the workload never calls reads 0.
    """
    per_round = 1.0 / rounds
    points = tracer.calls.get("lindblad.converged_steady_state", 0)
    accepted = tracer.counts.get("lindblad.accepted_points", 0)
    solves = tracer.calls.get("lindblad.steady_state", 0)
    escalation = tracer.pair_calls.get(
        ("lindblad.converged_steady_state", "lindblad.steady_state"), 0)
    m = {
        "params.dressed_frame_us": (
            _per_call_us(tracer, "params.dressed_frame"), "us"),
        "analytic.rate_set_us": (
            _per_call_us(tracer, "analytic.rate_set"), "us"),
        "analytic.steady_phonon_us": (
            _per_call_us(tracer, "analytic.steady_phonon"), "us"),
        "analytic.validity_report_us": (
            _per_call_us(tracer, "analytic.validity_report"), "us"),
        "analytic.trajectory_us_per_sample": (_per_unit_us(
            tracer, ("analytic.trajectory",), "analytic.samples"),
            "us/sample"),
        "sweep.run_sweep_us_per_row": (_per_unit_us(
            tracer, ("sweep.run_sweep",), "sweep.rows"), "us/row"),
        "sweep.to_csv_us_per_row": (_per_unit_us(
            tracer, ("sweep.SweepTable.to_csv",), "sweep.csv_rows"), "us/row"),
        "sweep.to_json_us_per_row": (_per_unit_us(
            tracer, ("sweep.SweepTable.to_json",
                     "sweep.SweepTable.to_json_dict"), "sweep.json_rows"),
            "us/row"),
        "sweep.rows": (tracer.counts.get("sweep.rows", 0) * per_round,
                       "count"),
        "config.resolve_config_us": (
            _per_call_us(tracer, "config.resolve_config"), "us"),
        "lindblad.build_s": (
            tracer.self_s.get("lindblad.build_liouvillian", 0.0) * per_round,
            "s"),
        "lindblad.build_calls": (
            tracer.calls.get("lindblad.build_liouvillian", 0) * per_round,
            "count"),
        "lindblad.build_peak_mb": (tracer.maxima.get(
            "lindblad.build_liouvillian.peak_bytes", 0) / 2 ** 20, "MB"),
        "lindblad.steady_state_s": (
            tracer.self_s.get("lindblad.steady_state", 0.0) * per_round, "s"),
        "lindblad.steady_state_calls": (solves * per_round, "count"),
        "lindblad.steady_state_peak_mb": (tracer.maxima.get(
            "lindblad.steady_state.peak_bytes", 0) / 2 ** 20, "MB"),
        "lindblad.max_dim": (tracer.maxima.get("lindblad.max_dim", 0),
                             "count"),
        "lindblad.generator_bytes": (
            tracer.maxima.get("lindblad.generator_bytes", 0), "bytes"),
        "lindblad.solves_per_point": (
            escalation / points if points else 0.0, "solves/point"),
        "lindblad.escalation_useful_ratio": (
            accepted / escalation if escalation else 0.0, "ratio"),
        "lindblad.evolve_s": (
            tracer.self_s.get("lindblad.evolve", 0.0) * per_round, "s"),
        "lindblad.evolve_calls": (
            tracer.calls.get("lindblad.evolve", 0) * per_round, "count"),
    }
    for sub in SUBCOMMANDS:
        name = f"cli.main.{sub}"
        calls = tracer.calls.get(name, 0)
        m[f"cli.main_ms.{sub}"] = (
            1e3 * tracer.total_s[name] / calls if calls else 0.0, "ms")
    return m
