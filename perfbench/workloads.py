"""The two workloads and the small probes that fill in foreign metrics.

A workload runs in whole rounds; every round attempts the same
operations, checks their outputs (outside the timed calls) and appends
its measurements to ``samples``.  ``round()`` returns the seconds spent
inside package calls, which the traced run compares with and without
tracing.

Every result line carries every end-to-end metric.  A workload measures
its own ``home`` metrics at full size; the others come from ``Probes``:
small fixed operations, independent of the seed, taken between the
workload's own operations (see README.md).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, zip_longest
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import dressedcool as dc
from dressedcool import (PRESET_NAMES, DressedInit, OracleError,
                         PhysicalParams, cli, is_heating)
from dressedcool.sweep import HEATING_SENTINEL

ROOT = Path.cwd()
OUT = Path("perfbench") / "out"          # relative to ROOT
COMMAND_TIMEOUT_S = 120
# validates per round, spread evenly from its start to its end: one
# validate takes about 1.3 s and a single sample was too noisy to compare
# runs by
VALIDATE_REPEATS = 5


@dataclass
class Tally:
    """Operations attempted and failed, and correctness violations."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    # called between operations; the run hangs its probes here
    boundary: Callable[[], None] = lambda: None

    def check(self, errs) -> bool:
        self.errors.extend(errs)
        return not errs


def src_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_python(args, timeout=COMMAND_TIMEOUT_S):
    """Run a fresh interpreter from the repository root; (proc, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=timeout)
    return proc, time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def certificate(result) -> dict:
    return {"residual": result.residual, "trace_dev": result.trace_dev,
            "herm_defect": result.herm_defect, "min_eig": result.min_eig}


# --- closed_form -----------------------------------------------------------

class ClosedForm:
    """Preset families through run_sweep / to_csv / to_json, and a seeded
    batch of parameter sets through every closed-form function."""

    def __init__(self, seed: int, presets=PRESET_NAMES, batch=None):
        self.families = [(name, dc.preset_sweeps(name)) for name in presets]
        self.batch = inputs.closed_form_batch(seed)[:batch]

    def units(self, tally: Tally) -> list:
        """One pass as separate operations: one per curve, then the batch.
        Each returns (points, seconds inside package calls)."""
        return ([partial(self._curve, tally, family, spec)
                 for family, specs in self.families for spec in specs]
                + [partial(self._batch, tally)])

    def _curve(self, tally: Tally, family: str, spec) -> tuple[int, float]:
        tally.boundary()
        tally.attempted += 1
        t0 = time.perf_counter()
        table = dc.run_sweep(spec)
        csv_text = table.to_csv()
        json_text = table.to_json()
        seconds = time.perf_counter() - t0
        tally.check(checks.check_table(table, csv_text, json_text,
                                       is_heating, HEATING_SENTINEL))
        tally.check(checks.check_sweep_rows(table, is_heating))
        if family == "fig2":
            tally.check(checks.check_fig2(table, is_heating))
        elif family == "fig3":
            tally.check(checks.check_fig3(table, is_heating))
        return len(table.rows), seconds

    def _batch(self, tally: Tally) -> tuple[int, float]:
        work = 0.0
        for p, n0 in self.batch:
            tally.boundary()
            tally.attempted += 1
            t0 = time.perf_counter()
            rates = dc.rate_set(p)
            direct = dc.cooling_rate(p)
            ns = dc.steady_phonon(p)
            report = dc.validity_report(p)
            traj = dc.trajectory(p, DressedInit(rz=-1.0, n=n0),
                              inputs.TRAJECTORY_TIMES)
            work += time.perf_counter() - t0
            tally.check(checks.check_point(p, rates, direct, ns, report, traj,
                                           n0, is_heating))
        return len(self.batch), work

    def round(self, tally: Tally, samples) -> float:
        points, work = map(sum, zip(*(unit() for unit in self.units(tally))))
        samples["closed_form_points_per_s"].append(points / work)
        return work


# --- cli_session -----------------------------------------------------------

def cli_flags(values: dict) -> list[str]:
    out = []
    for key, value in values.items():
        out += ["--" + key.replace("_", "-"), repr(float(value))]
    return out


def echo_to_config(echo: dict) -> str:
    lines = []
    for key, value in echo.items():
        if key == "subcommand" or value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _read_echo(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)["config"]
    for line in text.splitlines():
        if line.startswith("# config = "):
            return json.loads(line[len("# config = "):])
    raise ValueError(f"{path}: no config echo")


class CliSession:
    """CLI subcommands the way a user runs them, in fresh interpreters.

    With in_process=True (traced runs) the same commands go through
    cli.main(argv) inside this process, so the tracer can see them.
    """

    def __init__(self, seed: int, in_process: bool = False):
        draw = inputs.cli_point(seed)
        self.params = draw["params"]
        self.draw = draw
        self.in_process = in_process
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.work = 0.0         # seconds spent in commands

    # one command: (exit code, stdout, stderr, seconds)
    def _run(self, argv):
        if not self.in_process:
            proc, seconds = run_python(["-m", "dressedcool.cli", *argv])
            self.work += seconds
            return proc.returncode, proc.stdout, proc.stderr, seconds
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc(file=err)
                code = 1
        seconds = time.perf_counter() - t0
        self.work += seconds
        return code, out.getvalue(), err.getvalue(), seconds

    def _command(self, tally, samples, argv, key="cli_command_s"):
        """Run one closed-form command that must exit 0."""
        tally.boundary()
        tally.attempted += 1
        code, out, err, seconds = self._run(argv)
        samples[key].append(seconds)
        if code != 0:
            tally.failed += 1
            tally.notes.append(f"{' '.join(argv[:3])}: exit {code}: "
                               f"{err.strip()[-200:]}")
            return None
        return out

    def _closed_form_commands(self):
        """(argv, output path) of every closed-form command of a round."""
        w = self.workdir
        point = cli_flags(self.params)
        cmds = [
            (["presets", "--output", str(w / "presets.json")],
             w / "presets.json"),
            (["steady", *point, "--output", str(w / "steady.json")],
             w / "steady.json"),
            (["trajectory", *point, "--t-end", repr(self.draw["t_end"]),
              "--n0", repr(self.draw["n0"]), "--samples", "201",
              "--ode", "true", "--output", str(w / "trajectory.csv")],
             w / "trajectory.csv"),
        ]
        for name in PRESET_NAMES:
            for fmt in ("json", "csv"):
                out_dir = w / f"{name}-{fmt}"
                cmds.append((["sweep", "--preset", name, "--format", fmt,
                              "--out-dir", str(out_dir)], out_dir))
        cmds.append((["sweep", "--config", str(w / "custom.cfg")],
                     w / "custom"))
        return cmds

    def _write_custom_config(self):
        lines = [f"{k} = {float(v)!r}" for k, v in self.params.items()]
        lines += ["variable = delta",
                  f"grid_min = {self.draw['grid_min']!r}",
                  f"grid_max = {self.draw['grid_max']!r}",
                  "grid_count = 201", "format = json",
                  f"out_dir = {self.workdir / 'custom'}"]
        (self.workdir / "custom.cfg").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")

    def _check_output(self, tally, argv, path: Path):
        sub = argv[0]
        if sub == "steady":
            doc = json.loads(path.read_text(encoding="utf-8"))
            want = dc.steady_phonon(PhysicalParams(**self.params))
            if doc["result"]["n_s"] != want:
                tally.errors.append(f"steady n_s {doc['result']['n_s']!r} "
                                    f"!= library {want!r}")
        elif sub == "trajectory":
            lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                     if not ln.startswith("#")]
            cols = lines[0].split(",")
            rows = np.array([[float(v) for v in ln.split(",")]
                             for ln in lines[1:]])
            n, n_ode = rows[:, cols.index("n")], rows[:, cols.index("n_ode")]
            worst = float(np.max(np.abs(n_ode - n) / np.maximum(n, 1e-12)))
            if len(rows) != 201 or worst > 1e-8:
                tally.errors.append(f"trajectory: {len(rows)} rows, n_ode "
                                    f"off the closed form by {worst:.2e}")
        elif sub == "sweep":
            files = sorted(path.iterdir())
            expect = 1 if "--config" in argv else 3
            if len(files) != expect:
                tally.errors.append(f"{path}: {len(files)} files, "
                                    f"expected {expect}")
            for f in files:
                text = f.read_text(encoding="utf-8")
                if f.suffix == ".json":
                    doc = json.loads(text)
                    rows, grid = len(doc["rows"]), len(doc["spec"]["grid"])
                else:
                    rows = sum(1 for ln in text.splitlines()
                               if not ln.startswith("#")) - 1
                    spec = json.loads(text.splitlines()[1][len("# spec = "):])
                    grid = len(spec["grid"])
                if rows != grid:
                    tally.errors.append(f"{f}: {rows} rows for {grid} "
                                        "grid points")

    def _rerun(self, tally, samples, argv, path: Path):
        """Rerun a command from its output's config echo; compare bytes."""
        first = (sorted(path.iterdir())[0] if path.is_dir() else path)
        echo = _read_echo(first)
        kept = path.with_name(path.name + ".orig")
        path.rename(kept)
        cfg = path.with_name(path.name + ".echo.cfg")
        cfg.write_text(echo_to_config(echo), encoding="utf-8")
        if self._command(tally, samples, [echo["subcommand"], "--config",
                                          str(cfg)]) is None:
            return
        pairs = ([(kept / f.name, f) for f in sorted(path.iterdir())]
                 if path.is_dir() else [(kept, path)])
        if path.is_dir() and len(pairs) != len(list(kept.iterdir())):
            tally.errors.append(f"{path}: rerun wrote another file set")
        tally.check(checks.check_rerun(
            [(str(new), old.read_bytes(), new.read_bytes())
             for old, new in pairs]))

    def validate(self, tally, samples, extra=()) -> None:
        """validate at the README point."""
        tally.boundary()
        tally.attempted += 1
        code, out, err, seconds = self._run(
            ["validate", *cli_flags(inputs.README_POINT), *extra])
        samples["cli_validate_s"].append(seconds)
        if code != 0:
            tally.failed += 1
            tally.notes.append(f"validate: exit {code}: "
                               f"{err.strip()[-200:]}")
            return
        tally.check(checks.check_validate_doc(json.loads(out)))

    def _validate_zero_ns(self, tally) -> None:
        """validate where the closed-form n_s is 0: must end cleanly."""
        tally.boundary()
        tally.attempted += 1
        code, _, err, _ = self._run(["validate",
                                     *cli_flags(inputs.ZERO_NS_POINT)])
        if not checks.clean_failure(code, err):
            tally.failed += 1
            last = err.strip().splitlines()[-1] if err.strip() else ""
            tally.notes.append(f"validate at n_s = 0: exit {code}: {last}")

    @property
    def _main_count(self) -> int:
        return 2 * len(self._closed_form_commands()) + 1

    @property
    def step_count(self) -> int:
        """Commands per round: each closed-form command and its rerun,
        the validate at n_s = 0 and the validates at the README point."""
        return self._main_count + VALIDATE_REPEATS

    def _main_steps(self, tally: Tally, samples):
        """The closed-form commands, their reruns and the validate at
        n_s = 0, one command per step."""
        done = []
        for argv, path in self._closed_form_commands():
            if self._command(tally, samples, argv) is not None:
                self._check_output(tally, argv, path)
                done.append((argv, path))
            yield
        for argv, path in done:
            self._rerun(tally, samples, argv, path)
            yield
        self._validate_zero_ns(tally)
        yield

    def steps(self, tally: Tally, samples):
        """One round, yielding after each command.  The validates at the
        README point are spread evenly from the start of the round to its
        end, so that their median covers the whole round."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self._write_custom_config()
        n = self._main_count
        marks = {round(k * n / (VALIDATE_REPEATS - 1))
                 for k in range(VALIDATE_REPEATS)}
        main = self._main_steps(tally, samples)
        for i in range(n + 1):
            if i in marks:
                self.validate(tally, samples)
                yield
            if i < n:
                next(main, None)
                yield
        shutil.rmtree(self.workdir, ignore_errors=True)

    def probe_command(self, tally: Tally, samples, index: int) -> None:
        """One of the round's first three commands, for other workloads."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        argv, path = self._closed_form_commands()[index]
        if self._command(tally, samples, argv) is not None:
            self._check_output(tally, argv, path)


# --- oracle --------------------------------------------------------------

class OracleSteady:
    """Converged, certified oracle steady states at the criterion-5
    resonance point and at a seeded draw near the sideband match."""

    def __init__(self, seed: int, points=None):
        if points is None:
            points = ([(inputs.RESONANCE_POINT,
                        inputs.RESONANCE_N_MAX_START)]
                      + [(p, inputs.SAMPLED_N_MAX_START)
                         for p in inputs.oracle_sets(seed)])
        self.points = points

    def point(self, tally: Tally, p, start) -> tuple[bool, float]:
        """One converged steady state: (accepted, seconds in the call)."""
        tally.boundary()
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            run = dc.converged_steady_state(
                p, n_max_start=start, dim_cap=inputs.ORACLE_DIM_CAP)
        except OracleError as exc:
            tally.failed += 1
            tally.notes.append(f"oracle at {p}: {exc}")
            return False, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        atom = dc.steady_atom(p)
        r = run.result
        return tally.check(checks.check_oracle_point(
            p, dc.steady_phonon(p), atom.r11, atom.r22, r.n, r.rz,
            certificate(r), run.rel_change)), seconds

    def round(self, tally: Tally, samples) -> float:
        accepted, work = map(sum, zip(*(self.point(tally, p, start)
                                        for p, start in self.points)))
        samples["oracle_points_per_s"].append(accepted / work)
        return work


DECAY_N_MAX = 18
FLOOR_N_MAX = 22
DECAY_NBAR0 = 2.0
DECAY_CUT = 12


def _worst_health(res) -> dict:
    return {"trace_dev": float(res.trace_err.max()),
            "herm_defect": float(res.herm_defect.max()),
            "min_eig": float(res.min_eig.min())}


class OracleEvolve:
    """Criterion-6 phonon decay at eta and 2 eta: build, steady floors at
    two cuts, integration to t = 7/C, and a fit of the tail rate."""

    ETAS = (("eta", 0.05), ("2eta", 0.1))

    def __init__(self, seed: int):
        self.delta, self.nu = inputs.decay_point(seed)
        self._probe = None

    def _setup(self, eta, n_max=DECAY_N_MAX):
        p = PhysicalParams(omega=5.0, delta=self.delta, nu=self.nu, eta=eta,
                           gamma_plus=1.0, gamma_minus=1.0, gamma_zero=1.0)
        atom = dc.steady_atom(p)
        rho0 = dc.product_state(np.diag([atom.r11, atom.r22]),
                                dc.thermal_phonon(n_max, DECAY_NBAR0,
                                                  cut=DECAY_CUT))
        return p, dc.rate_set(p).cooling_rate, rho0

    def decay(self, tally: Tally, eta: float):
        """One decay: (entry for check_decay or None, seconds in evolve)."""
        tally.boundary()
        tally.attempted += 1
        p, c, rho0 = self._setup(eta)
        try:
            liouv = dc.build_liouvillian(p, DECAY_N_MAX)
            tally.boundary()
            floor = dc.steady_state(liouv)
            tally.boundary()
            floor_next = dc.steady_state(dc.build_liouvillian(p, FLOOR_N_MAX))
            tally.boundary()
            t0 = time.perf_counter()
            res = dc.evolve(liouv, rho0, 7.0 / c, n_samples=201,
                            rtol=1e-10, atol=1e-14)
            evolve_s = time.perf_counter() - t0
        except OracleError as exc:
            tally.failed += 1
            tally.notes.append(f"decay at {p}: {exc}")
            return None, 0.0
        tail = res.times > 5.0 / c
        slope = np.polyfit(res.times[tail],
                           np.log(res.n[tail] - floor.n), 1)[0]
        return {"analytic_rate": c, "fitted_rate": float(-slope),
                "floor_n": floor.n, "floor_next_n": floor_next.n,
                "samples": _worst_health(res),
                "floors": [certificate(floor),
                           certificate(floor_next)]}, evolve_s

    def record(self, tally: Tally, samples, entries: dict,
               evolve_s: float) -> None:
        """Check a round's decays and keep its evolve time."""
        if len(entries) == len(self.ETAS):
            tally.check(checks.check_decay(entries))
            samples["evolve_s"].append(evolve_s)

    def probe(self, tally: Tally, samples) -> None:
        """A short decay at 2 eta, to t = 0.25/C, for other workloads."""
        if self._probe is None:
            p, c, rho0 = self._setup(0.1)
            self._probe = (dc.build_liouvillian(p, DECAY_N_MAX), rho0, c)
        liouv, rho0, c = self._probe
        t0 = time.perf_counter()
        res = dc.evolve(liouv, rho0, 0.25 / c, n_samples=11, rtol=1e-10,
                        atol=1e-14)
        samples["evolve_s"].append(time.perf_counter() - t0)
        tally.check(checks.check_health(_worst_health(res), "probe decay"))
        if not res.n[-1] < res.n[0]:
            tally.errors.append("probe decay: phonon number did not fall")


class Oracle:
    """The dense Lindblad oracle used in two ways: one factorization per
    solve (steady states with Fock-cut escalation), then many
    generator-vector products (time evolution)."""

    name = "oracle"
    home = ("oracle_points_per_s", "oracle_peak_rss_mb", "evolve_s")

    # the workload's own seconds per round, over which probes spread
    probe_span_s = 40.0

    def __init__(self, seed: int):
        self.steady = OracleSteady(seed)
        self.decay = OracleEvolve(seed)

    def round(self, tally: Tally, samples) -> float:
        """Half the steady points, the decay at eta, the other half, the
        decay at 2 eta: each metric is taken across the whole round."""
        t_round = time.perf_counter()
        points = self.steady.points
        half = (len(points) + 1) // 2
        accepted, steady_s, evolve_s = 0, 0.0, 0.0
        entries = {}
        for chunk, (label, eta) in zip((points[:half], points[half:]),
                                       self.decay.ETAS):
            for p, start in chunk:
                ok, seconds = self.steady.point(tally, p, start)
                accepted += ok
                steady_s += seconds
            entry, seconds = self.decay.decay(tally, eta)
            if entry is not None:
                entries[label] = entry
                evolve_s += seconds
        samples["oracle_points_per_s"].append(accepted / steady_s)
        self.decay.record(tally, samples, entries, evolve_s)
        return time.perf_counter() - t_round


# closed-form passes per closed_form_cli round, about 9 s in all
CLOSED_FORM_PASSES = 12


class ClosedFormCli:
    """The closed form in process and the same package through the CLI.

    One round is CLOSED_FORM_PASSES passes of ClosedForm and the commands
    of one CliSession round, so every run attempts the same operations
    and the failing validate is the same share of them.
    """

    name = "closed_form_cli"
    home = ("closed_form_points_per_s", "cli_command_s", "cli_validate_s")
    probe_span_s = 40.0

    def __init__(self, seed: int, in_process: bool = False):
        self.closed_form = ClosedForm(seed)
        self.cli = CliSession(seed, in_process=in_process)

    def round(self, tally: Tally, samples) -> float:
        """The closed-form passes, one after another, spread between the
        CLI commands: each pass is one sample, and the samples cover the
        whole round, not the few seconds the passes take back to back."""
        units = [(k, unit) for k in range(CLOSED_FORM_PASSES)
                 for unit in self.closed_form.units(tally)]
        acc = [[0, 0.0] for _ in range(CLOSED_FORM_PASSES)]
        done = 0

        def run_until(target):
            nonlocal done
            for k, unit in units[done:target]:
                points, seconds = unit()
                acc[k][0] += points
                acc[k][1] += seconds
            done = max(done, target)

        cli_before = self.cli.work
        steps = self.cli.step_count
        for i, _ in enumerate(self.cli.steps(tally, samples), 1):
            run_until(len(units) * i // steps)
        run_until(len(units))
        for points, seconds in acc:
            samples["closed_form_points_per_s"].append(points / seconds)
        return sum(seconds for _, seconds in acc) + self.cli.work - cli_before


WORKLOADS = {w.name: w for w in (ClosedFormCli, Oracle)}

PROBE_SEED = 0      # probes use fixed inputs, whatever the run's seed


class Probes:
    """Samples of every end-to-end metric outside a workload's home.

    Small fixed operations, the kinds taking turns, taken between the
    workload's own operations: the k-th is due once the workload itself
    has run k * span / (number of probes) seconds, so that the probes
    spread evenly over `span` seconds of the run, and those held up by a
    long operation run right after it.  What is left runs after the last
    round.
    Each metric is the median of its samples.  Probe operations are not
    counted in the workload's attempted and failed; a probe that fails
    or checks wrong makes the run incorrect.
    """

    def __init__(self, home, span: float):
        self.tally = Tally()
        self.samples = defaultdict(list)
        self.seconds = 0.0
        self._start = time.perf_counter()
        self._done = 0
        self._cli = None
        kinds = []
        if "closed_form_points_per_s" not in home:
            cf = ClosedForm(PROBE_SEED, presets=("fig1",), batch=20)
            kinds.append([partial(cf.round, self.tally, self.samples)] * 32)
        if "cli_command_s" not in home:
            self._cli = CliSession(PROBE_SEED)
            # presets is the cheapest command; validate starts at n_max 8
            presets = partial(self._cli.probe_command, self.tally,
                              self.samples, 0)
            validate = partial(self._cli.validate, self.tally, self.samples,
                               extra=("--n-max", "8"))
            kinds.append([validate, presets, presets] * 4 + [validate])
        if "oracle_points_per_s" not in home:
            # one sampled point (cuts 8 and 12, about 0.15 s) per sample
            point = [(inputs.oracle_sets(PROBE_SEED)[0],
                      inputs.SAMPLED_N_MAX_START)]
            steady = OracleSteady(PROBE_SEED, points=point)
            kinds.append([partial(steady.round, self.tally,
                                  self.samples)] * 8)
        if "evolve_s" not in home:
            decay = OracleEvolve(PROBE_SEED)
            kinds.append([partial(decay.probe, self.tally, self.samples)] * 10)
        self._tasks = [t for t in chain(*zip_longest(*kinds)) if t]
        self._interval = span / max(len(self._tasks), 1)

    def _run_next(self) -> None:
        t0 = time.perf_counter()
        self._tasks.pop(0)()
        # free the probe's arrays now, not whenever the collector next
        # runs, so that the run's peak RSS does not depend on timing
        gc.collect()
        self._done += 1
        self.seconds += time.perf_counter() - t0

    def between(self) -> None:
        own = time.perf_counter() - self._start - self.seconds
        while self._tasks and own >= self._done * self._interval:
            self._run_next()

    def finish(self, tally: Tally) -> dict:
        while self._tasks:
            self._run_next()
        if self._cli is not None:
            shutil.rmtree(self._cli.workdir, ignore_errors=True)
        tally.errors += self.tally.errors
        if self.tally.failed:
            tally.errors.append(f"{self.tally.failed} probe operation(s) "
                                "failed: " + "; ".join(self.tally.notes))
        return {k: statistics.median(v) for k, v in self.samples.items()}
