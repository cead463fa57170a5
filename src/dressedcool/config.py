"""Flat key=value run configuration with full resolution and echo.

Every run option lives in one namespace per subcommand: a value comes
from the config file, from a command-line flag (flags win), or from the
documented default, and the fully resolved set is embedded in every
output document so a run can be reproduced from its own output.  Files
are UTF-8 text, one ``key = value`` per line, keys may appear once.  A
``#`` starts a comment only at the start of a line or after whitespace,
so ``output = runs#1.json`` keeps its ``#``.  There are no
environment-variable overrides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

from .analytic import DEFAULT_MARGIN
from .errors import ConfigError
from .lindblad import (
    DEFAULT_DIM_CAP,
    DIM_BUDGET,
    N_MAX_FLOOR,
    N_MAX_START,
    total_dim,
)
from .params import PhysicalParams


class _Required:
    def __repr__(self):
        return "<required>"


REQUIRED = _Required()


@dataclass(frozen=True)
class Key:
    """One configuration key: its type, default, and one-line doc."""

    name: str
    type: str                      # float | int | bool | str | choice
    default: object                # REQUIRED: must be given; None: unset
    help: str
    choices: tuple[str, ...] = ()


_PARAM_KEYS = (
    Key("omega", "float", REQUIRED, "drive Rabi frequency, > 0"),
    Key("delta", "float", REQUIRED, "laser-emitter detuning, any sign"),
    Key("nu", "float", REQUIRED, "vibrational mode frequency, > 0"),
    Key("eta", "float", REQUIRED, "Lamb-Dicke parameter, >= 0"),
    Key("gamma_plus", "float", REQUIRED, "upper-sideband decay rate"),
    Key("gamma_minus", "float", REQUIRED, "lower-sideband decay rate"),
    Key("gamma_zero", "float", REQUIRED, "carrier decay rate"),
)

PARAM_KEY_NAMES = tuple(k.name for k in _PARAM_KEYS)


_REFERENCE_RATE = Key(
    "reference_rate", "choice", "gamma_plus",
    "which rate all numbers are measured in; echoed, never applied",
    choices=("gamma_plus", "gamma"))
_FORMAT_CSV, _FORMAT_JSON = (
    Key("format", "choice", default, "output encoding",
        choices=("csv", "json"))
    for default in ("csv", "json"))
_OUTPUT = Key("output", "str", "-", "output path, '-' for stdout")
_MARGIN = Key("margin", "float", DEFAULT_MARGIN, "validity margin factor")


SCHEMAS: dict[str, tuple[Key, ...]] = {
    "steady": _PARAM_KEYS + (
        _MARGIN, _REFERENCE_RATE, _FORMAT_JSON, _OUTPUT,
    ),
    "trajectory": _PARAM_KEYS + (
        Key("t_end", "float", REQUIRED, "final time of the series, > 0"),
        Key("samples", "int", 201, "number of sample times incl. both ends"),
        Key("n0", "float", REQUIRED, "initial mean phonon number"),
        Key("rz0", "float", -1.0, "initial dressed inversion"),
        Key("re_rplus0", "float", 0.0, "initial dressed coherence, real part"),
        Key("im_rplus0", "float", 0.0,
            "initial dressed coherence, imaginary part"),
        Key("ode", "bool", False,
            "add an independently integrated phonon column"),
        _REFERENCE_RATE, _FORMAT_CSV, _OUTPUT,
    ),
    "sweep": (
        Key("preset", "str", "", "figure preset name; empty = custom sweep"),
        Key("variable", "str", "",
            "custom sweeps: quantity to scan "
            "(delta, gamma_ratio, nu, eta, omega)"),
        Key("grid_min", "float", 0.0, "custom sweeps: first grid value"),
        Key("grid_max", "float", 0.0, "custom sweeps: last grid value"),
        Key("grid_count", "int", 0, "custom sweeps: number of grid points"),
        Key("gamma_zero_rule", "str", "",
            "gamma_ratio sweeps: track_gamma_minus or fixed"),
        Key("oracle", "bool", False, "solve the full model at every point"),
        Key("oracle_n_max", "int", N_MAX_START,
            "starting Fock cut for oracle solves"),
        Key("workers", "int", 1,
            "process count (>= 1) for parallel oracle evaluation"),
        Key("out_dir", "str", ".", "directory for the per-curve files"),
    ) + tuple(replace(k, default=None, help="custom sweeps: " + k.help)
              for k in _PARAM_KEYS) + (_REFERENCE_RATE, _FORMAT_CSV),
    "validate": _PARAM_KEYS + (
        Key("n_max", "int", N_MAX_START,
            "starting Fock cut for the kernel solve"),
        Key("dim_cap", "int", DIM_BUDGET,
            "largest dimension the escalation builds "
            f"({total_dim(N_MAX_FLOOR)}-{DEFAULT_DIM_CAP})"),
        Key("threshold", "float", 0.15,
            "relative disagreement that still counts as a pass"),
        _MARGIN, _REFERENCE_RATE, _FORMAT_JSON, _OUTPUT,
    ),
    "presets": (_FORMAT_JSON, _OUTPUT),
}


def schema_for(subcommand: str) -> tuple[Key, ...]:
    try:
        return SCHEMAS[subcommand]
    except KeyError:
        raise ConfigError(f"unknown subcommand {subcommand!r}")


# a comment runs from a '#' at the start of a line or after whitespace
_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines to an ordered string map; no typing yet."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config_file(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}")
    return parse_config_text(text)


def _convert(key: Key, raw: str):
    if key.type == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key.name}: not a number: {raw!r}")
        return value
    if key.type == "int":
        # text that is no integer stays as given: each int key reaches
        # params.checked_int before it is used, whose text refuses it
        try:
            return int(raw)
        except ValueError:
            return raw
    if key.type == "bool":
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ConfigError(f"{key.name}: expected true or false, got {raw!r}")
    if key.type == "choice":
        if raw not in key.choices:
            raise ConfigError(f"{key.name}: expected one of "
                              f"{', '.join(key.choices)}, got {raw!r}")
        return raw
    return raw


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one run.

    values holds every key of the subcommand's schema; provided names the
    keys the user actually set (file or flag), the rest are defaults.
    """

    subcommand: str
    values: dict
    provided: frozenset

    def __getitem__(self, name: str):
        return self.values[name]

    def params(self) -> PhysicalParams:
        return PhysicalParams(**{n: self.values[n]
                                 for n in PARAM_KEY_NAMES})

    def as_embed_dict(self) -> dict:
        """The reproducible echo: subcommand plus every resolved value."""
        return {"subcommand": self.subcommand, **self.values}


def resolve_config(subcommand: str, file_values: dict[str, str],
                   flag_values: dict[str, str | None]) -> RunConfig:
    """Merge defaults < file < flags into a RunConfig, strictly typed.

    file_values and flag_values are both raw strings, typed alike by
    _convert; flag_values may hold None for flags the user left out.
    """
    schema = schema_for(subcommand)
    by_name = {k.name: k for k in schema}
    unknown = [name for name in file_values if name not in by_name]
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {subcommand}: "
            f"{', '.join(sorted(unknown))}; known keys: "
            f"{', '.join(k.name for k in schema)}")

    values: dict = {}
    provided: set[str] = set()
    for key in schema:
        raw = flag_values.get(key.name)
        if raw is None:
            raw = file_values.get(key.name)
        if raw is not None:
            values[key.name] = _convert(key, raw)
            provided.add(key.name)
        elif key.default is REQUIRED:
            raise ConfigError(
                f"{subcommand} needs {key.name!r} "
                f"(config key or --{key.name.replace('_', '-')})")
        else:
            values[key.name] = key.default
    return RunConfig(subcommand=subcommand, values=values,
                     provided=frozenset(provided))
