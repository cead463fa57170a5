"""Command-line front end.

Subcommands: steady, trajectory, sweep, validate, presets.  Options come
from an optional flat config file plus flags (flags win); every output
document embeds the fully resolved configuration, so re-running from
that echo reproduces the output byte for byte.  Exit codes: 0 clean
(heating results included), 1 invalid input (inputs too large to
evaluate included), 2 physically meaningless request, 3 oracle
(numerical) failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analytic import (
    DressedInit,
    is_heating,
    rate_set,
    reduced_phonon_evolve,
    steady_atom,
    steady_phonon,
    trajectory,
    validity_report,
)
from .config import (
    PARAM_KEY_NAMES,
    REQUIRED,
    RunConfig,
    load_config_file,
    resolve_config,
    schema_for,
)
from .errors import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PHYSICS,
    ConfigError,
    DressedCoolError,
    HeatingRunError,
    InvalidGridError,
    InvalidParamsError,
)
from .lindblad import converged_steady_state
from .sweep import (
    SweepSpec,
    _cell,
    _csv_text,
    _encode_json,
    _json_value,
    grid_from_range,
    list_presets,
    preset_sweeps,
    run_sweep,
)


def _fail(code: int, text: str) -> int:
    """End stderr with the one error line of a failed run; return code."""
    sys.stderr.write(
        f"{'oracle error' if code == EXIT_ORACLE else 'error'}: {text}\n")
    return code


# --- the one document writer --------------------------------------------------

def _flatten(doc, prefix="") -> list[tuple[str, object]]:
    """Nested dict/list to sorted dotted (key, value) rows."""
    rows: list[tuple[str, object]] = []
    if isinstance(doc, dict):
        for name in sorted(doc):
            rows.extend(_flatten(doc[name], f"{prefix}{name}."))
    elif isinstance(doc, (list, tuple)):
        for i, item in enumerate(doc):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], doc))
    return rows


def _report_csv(body) -> str:
    """The key,value CSV of a report body."""
    return _csv_text([("key", "value"), *_flatten(_json_value(body))])


def _write_document(cfg: RunConfig, target, body, csv_body, title=None,
                    comments=()) -> None:
    """Write one output document to target, stdout for '-'.

    body() gives the JSON members next to the config echo; csv_body()
    gives the CSV table, written after the optional ``# title`` line and
    one ``# <name> = <sorted JSON>`` comment for the config echo and for
    each (name, value) in comments.  Only the callable for cfg["format"]
    runs.
    """
    echo = cfg.as_embed_dict()
    if cfg["format"] == "json":
        text = _encode_json(_json_value({"config": echo, **body()}))
    else:
        head = [f"# {title}\n"] if title else []
        for name, value in (("config", echo), *comments):
            head.append(f"# {name} = "
                        f"{json.dumps(_json_value(value), sort_keys=True)}\n")
        text = "".join(head) + csv_body()
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


# --- steady -------------------------------------------------------------------

def cmd_steady(cfg: RunConfig) -> int:
    p = cfg.params()
    report = validity_report(p, margin=cfg["margin"])
    atom = steady_atom(p)
    rates = rate_set(p)
    result = {
        "n_s": steady_phonon(p),
        "rz_s": atom.rz,
        "sz_s": atom.sz,
        "two_sz_s": 2.0 * atom.sz,
        "r11_s": atom.r11,
        "r22_s": atom.r22,
        "cooling_rate": rates.cooling_rate,
        "rates": {name: getattr(rates, name) for name in (
            "gamma_perp", "gamma_s", "gamma_0_eff", "a_minus", "a_plus",
            "a_rate_minus", "a_rate_plus")},
        "validity": report.as_dict(),
    }
    _write_document(cfg, cfg["output"], lambda: {"result": result},
                    lambda: _report_csv(result), title="steady report")
    return EXIT_OK


# --- trajectory ---------------------------------------------------------------

def cmd_trajectory(cfg: RunConfig) -> int:
    p = cfg.params()
    if not math.isfinite(cfg["t_end"]) or cfg["t_end"] <= 0:
        raise InvalidGridError(f"t_end must be > 0, got {cfg['t_end']}")
    if cfg["samples"] < 2:
        raise InvalidGridError(f"samples must be >= 2, got {cfg['samples']}")
    for key in ("n0", "rz0", "re_rplus0", "im_rplus0"):
        if not math.isfinite(cfg[key]):
            raise InvalidParamsError(key, f"must be finite, got {cfg[key]}")
    times = np.linspace(0.0, cfg["t_end"], cfg["samples"])
    init = DressedInit(rz=cfg["rz0"],
                       rplus=complex(cfg["re_rplus0"], cfg["im_rplus0"]),
                       n=cfg["n0"])
    traj = trajectory(p, init, times)
    columns = ["t", "rz", "re_rplus", "im_rplus", "n"]
    series = [times, traj.rz, np.real(traj.rplus), np.imag(traj.rplus),
              traj.n]
    if cfg["ode"]:
        columns.append("n_ode")
        series.append(reduced_phonon_evolve(p, cfg["n0"], times))
    rows = [[float(v) for v in row] for row in zip(*series)]
    summary = {
        "n_steady": traj.n_steady,
        "rz_steady": traj.rz_steady,
        "cooling_rate": traj.cooling_rate,
        "phonon_growing": traj.phonon_growing,
    }
    _write_document(
        cfg, cfg["output"],
        lambda: {"columns": columns, "rows": rows, "summary": summary},
        lambda: _csv_text([columns, *rows]))
    return EXIT_OK


# --- sweep --------------------------------------------------------------------

def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in label)


# keys a custom sweep must set, in schema order
_CUSTOM_REQUIRED = ("variable", "grid_min", "grid_max",
                    "grid_count") + PARAM_KEY_NAMES
# keys only custom sweeps use; a preset run must leave each at its schema
# default, but re-feeding an embedded config echo (which spells the
# defaults out) stays legal
_CUSTOM_ONLY = _CUSTOM_REQUIRED + ("gamma_zero_rule",)


def _sweep_specs(cfg: RunConfig) -> tuple[SweepSpec, ...]:
    if cfg["preset"]:
        clash = sorted(k.name for k in schema_for("sweep")
                       if k.name in _CUSTOM_ONLY
                       and cfg[k.name] != k.default)
        if clash:
            raise ConfigError(
                "preset sweeps take their parameters from the preset; "
                f"remove: {', '.join(clash)}")
        return preset_sweeps(cfg["preset"], oracle=cfg["oracle"],
                             oracle_n_max=cfg["oracle_n_max"])
    missing = [k for k in _CUSTOM_REQUIRED if k not in cfg.provided]
    if missing:
        raise ConfigError(f"custom sweeps need: {', '.join(missing)}")
    spec = SweepSpec(
        base=cfg.params(),
        variable=cfg["variable"],
        grid=grid_from_range(cfg["grid_min"], cfg["grid_max"],
                             cfg["grid_count"]),
        gamma_zero_rule=cfg["gamma_zero_rule"] or None,
        oracle=cfg["oracle"],
        oracle_n_max=cfg["oracle_n_max"],
        label=cfg["variable"],
    )
    return (spec,)


def cmd_sweep(cfg: RunConfig) -> int:
    specs = _sweep_specs(cfg)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    markers: list[str] = []
    oracle_failed = False
    for spec in specs:
        table = run_sweep(spec, workers=cfg["workers"])
        markers.extend(table.error_markers)
        oracle_failed = oracle_failed or table.has_oracle_errors
        path = out_dir / f"{_slug(spec.label)}.{cfg['format']}"
        _write_document(cfg, path, table.to_json_dict, table.to_csv,
                        comments=[("spec", spec.to_json_dict())])
        sys.stdout.write(f"wrote {path}\n")
    if not markers:
        return EXIT_OK
    return _fail(EXIT_ORACLE if oracle_failed else EXIT_PHYSICS,
                 f"{len(markers)} row error marker(s); first: {markers[0]}")


# --- validate -----------------------------------------------------------------

def cmd_validate(cfg: RunConfig) -> int:
    p = cfg.params()
    if not 0.0 <= cfg["threshold"] < math.inf:
        raise InvalidParamsError(
            "threshold", f"must be finite and >= 0, got {cfg['threshold']}")
    report = validity_report(p, margin=cfg["margin"])
    ns = steady_phonon(p)
    if is_heating(ns):
        raise HeatingRunError(
            "cannot validate at a heating point: no stationary phonon "
            "number exists there")
    if ns == 0.0:
        raise DressedCoolError(
            "cannot validate where the closed-form phonon number is 0: "
            "the relative error against it is undefined")
    atom = steady_atom(p)
    warnings: list[str] = []
    if not report.overall:
        failing = [c.name for c in report.checks if not c.satisfied]
        warnings.append(
            "parameters sit outside the stated validity regime "
            f"(failing: {', '.join(failing)}); comparing anyway")
        sys.stderr.write(f"warning: {warnings[0]}\n")
    run = converged_steady_state(p, n_max_start=cfg["n_max"],
                                 dim_cap=cfg["dim_cap"])
    oracle = run.result
    rel = abs(oracle.n - ns) / ns
    body = {
        "analytic": {"n_s": ns, "rz_s": atom.rz},
        "oracle": {
            "n_s": oracle.n,
            "rz_s": oracle.rz,
            "n_max": oracle.n_max,
            "convergence_history": [list(step) for step in run.history],
            "rel_change": run.rel_change,
            "residual": oracle.residual,
            "rcond": oracle.rcond,
            "tail_mass": oracle.tail_mass,
            "trace_dev": oracle.trace_dev,
            "herm_defect": oracle.herm_defect,
            "min_eig": oracle.min_eig,
        },
        "relative_error": rel,
        "threshold": cfg["threshold"],
        "passed": bool(rel <= cfg["threshold"]),
        "validity_overall": report.overall,
        "warnings": warnings,
    }
    _write_document(cfg, cfg["output"], lambda: body,
                    lambda: _report_csv(body), title="validation report")
    return EXIT_OK


# --- presets ------------------------------------------------------------------

def cmd_presets(cfg: RunConfig) -> int:
    presets = list_presets()
    _write_document(cfg, cfg["output"], lambda: {"presets": presets},
                    lambda: _report_csv(presets), title="sweep presets")
    return EXIT_OK


# --- argument parsing and dispatch ---------------------------------------------

# subcommand -> (handler, help); parser and dispatch both read this table
_COMMANDS = {
    "steady": (cmd_steady, "closed-form stationary state, rates, and "
                           "validity checks"),
    "trajectory": (cmd_trajectory, "closed-form time series of inversion, "
                                   "coherence, phonons"),
    "sweep": (cmd_sweep, "1-D parameter scans (figure presets or custom "
                         "grids)"),
    "validate": (cmd_validate, "compare the closed form against a full "
                               "kernel solve"),
    "presets": (cmd_presets, "list the built-in sweep presets"),
}

# --help placeholders; flag values stay raw strings until resolve_config
_METAVARS = {"float": "X", "int": "N", "bool": "true|false"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dressedcool",
        description="Laser cooling of a driven emitter in a structured "
                    "reservoir: closed-form model with a full-equation "
                    "cross-check.")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, summary) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=summary, description=summary)
        sub.add_argument("--config", metavar="FILE", default=None,
                         help="flat key = value config file (UTF-8; # "
                              "starts a comment at the start of a line or "
                              "after whitespace); flags override it")
        for key in schema_for(name):
            if key.default is REQUIRED:
                note = " (required)"
            else:
                note = f" (default: {_cell(key.default)})"
            metavar = ("{" + ",".join(key.choices) + "}" if key.choices
                       else _METAVARS.get(key.type))
            sub.add_argument("--" + key.name.replace("_", "-"),
                             dest=key.name, default=None, metavar=metavar,
                             help=key.help + note)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:           # argparse printed usage already
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID_INPUT
    try:
        file_values = (load_config_file(args.config)
                       if args.config else {})
        flag_values = {key.name: getattr(args, key.name, None)
                       for key in schema_for(args.subcommand)}
        cfg = resolve_config(args.subcommand, file_values, flag_values)
        handler, _ = _COMMANDS[args.subcommand]
        return handler(cfg)
    except DressedCoolError as exc:
        return _fail(exc.exit_code, str(exc))
    except OSError as exc:
        return _fail(EXIT_INVALID_INPUT, f"cannot write output: {exc}")
    except OverflowError as exc:        # finite inputs beyond double range
        return _fail(EXIT_INVALID_INPUT,
                     f"inputs too large to evaluate: {exc}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
