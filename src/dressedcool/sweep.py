"""1-D parameter scans with fixed tabular output and optional oracle solves.

A sweep varies exactly one quantity (detuning, decay-rate ratio, mode
frequency, coupling, or drive) over a grid and records the closed-form
steady state, cooling rate, heating coefficient, and validity flag at
every point, optionally alongside a full kernel-solve phonon number.
Rows never abort the scan: any per-point failure becomes an error marker
in that row.  Identical specs produce byte-identical serializations, and
a parallel map gives the same table as the serial loop.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

from .analytic import (
    HEATING,
    is_heating,
    rate_set,
    steady_atom,
    steady_phonon,
    validity_report,
)
from .errors import (
    DegenerateRatesError,
    InvalidGridError,
    InvalidParamsError,
    OracleError,
    UnknownPresetError,
    ZeroCouplingError,
)
from .lindblad import (DIM_BUDGET, N_MAX_FLOOR, N_MAX_START, checked_cut,
                       converged_steady_state)
from .params import PhysicalParams, checked_int

SWEEP_VARIABLES = ("delta", "gamma_ratio", "nu", "eta", "omega")
GAMMA_ZERO_RULES = ("track_gamma_minus", "fixed")

# The closed-form value columns, in table order between "x" and "valid".
VALUE_COLUMNS = ("n_s", "rz_s", "sz_s", "two_sz_s", "c", "a_plus_rate")
# analytic.HEATING under the name perfbench imports
HEATING_SENTINEL = HEATING
# prefix of the error markers left by a failed oracle solve
_ORACLE_MARKER = "oracle "


def _cell(value) -> str:
    """One CSV cell: empty for None, lowercase booleans, str otherwise
    (for a float, its repr; HEATING is a string already)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_text(rows) -> str:
    """The one CSV encoding of every output table: cells through _cell,
    a field with a comma, quote or newline quoted as in RFC 4180."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _json_value(value):
    """Recursively make a document strict-JSON safe and deterministic.
    Every value is a Python one: no numpy scalar reaches a document."""
    if isinstance(value, float):        # the common case first
        if math.isfinite(value):
            return value
        return repr(value)       # "inf" / "-inf" / "nan" as strings
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, complex):
        return {"re": _json_value(value.real), "im": _json_value(value.imag)}
    return value


def _encode_json(doc) -> str:
    """The one JSON encoding of every output document; `doc` must already
    be mapped through _json_value."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def grid_from_range(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Inclusive evenly spaced grid of `count` floats from lo to hi.

    The points are np.linspace(lo, hi, count)'s, bit for bit, in Python
    arithmetic: i * step + lo with step = (hi - lo) / (count - 1), or
    (i / (count - 1)) * (hi - lo) + lo where step is 0 (a subnormal
    range), and the last point hi; a single point is 0 * (hi - lo) + lo.
    The list is allocated before it is filled, so a count beyond memory
    fails at once. A count that is not an integer >= 1
    raises InvalidParamsError on grid_count (checked_int); a bound that is
    not a number, or a count too large to allocate, InvalidGridError.
    """
    count = checked_int("grid_count", count, 1)
    try:
        lo, hi = float(lo), float(hi)
        grid = [0.0] * count
    except ValueError as exc:
        raise InvalidGridError(
            f"cannot make a grid of {count} points: {exc}") from None
    except (MemoryError, OverflowError):
        raise InvalidGridError(f"cannot make a grid of {count} points: "
                               "too many to allocate") from None
    div, delta = count - 1, hi - lo
    if div == 0:
        grid[0] = 0.0 * delta + lo
        return tuple(grid)
    step = delta / div
    if step == 0.0:
        for i in range(count):
            grid[i] = i / div * delta + lo
    else:
        for i in range(count):
            grid[i] = i * step + lo
    grid[-1] = hi
    return tuple(grid)


def _checked_grid(values) -> tuple[float, ...]:
    try:
        grid = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise InvalidGridError("sweep grid must hold numbers only") from None
    if not grid:
        raise InvalidGridError("sweep grid is empty")
    if not all(map(math.isfinite, grid)):
        raise InvalidGridError("sweep grid contains non-finite values")
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise InvalidGridError("sweep grid must be strictly monotone")
    return grid


@dataclass(frozen=True)
class SweepSpec:
    """One scan: base parameters, the swept variable, and its grid.

    gamma_ratio sweeps set gamma_minus = x * gamma_plus and need an
    explicit rule for gamma_zero: "track_gamma_minus" ties it to
    gamma_minus (the symmetric-reservoir convention), "fixed" keeps the
    base value.  The columns are fixed: x, every VALUE_COLUMNS entry,
    valid, then error.  oracle=True adds a kernel-solve phonon column,
    oracle_n_s, before error (skipped on heating rows, where no
    stationary state exists). oracle_n_max is echoed by every spec, so
    every spec checks it is an integer >= N_MAX_FLOOR; an oracle spec's
    rows solve from it within DIM_BUDGET, so checked_cut refuses a cut no
    row can run up front.
    """

    base: PhysicalParams
    variable: str
    grid: tuple[float, ...]
    gamma_zero_rule: str | None = None
    oracle: bool = False
    oracle_n_max: int = N_MAX_START
    label: str = ""
    preset: str | None = None

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise InvalidParamsError(
                "variable",
                f"unknown sweep variable {self.variable!r}; "
                f"choose from {', '.join(SWEEP_VARIABLES)}")
        if self.variable == "gamma_ratio":
            if self.gamma_zero_rule not in GAMMA_ZERO_RULES:
                raise InvalidParamsError(
                    "gamma_zero_rule",
                    "gamma_ratio sweeps must state how gamma_zero follows "
                    f"the ratio: one of {', '.join(GAMMA_ZERO_RULES)}")
        elif self.gamma_zero_rule is not None:
            raise InvalidParamsError(
                "gamma_zero_rule",
                f"gamma_zero_rule only applies to gamma_ratio sweeps, "
                f"not {self.variable!r}")
        object.__setattr__(self, "grid", _checked_grid(self.grid))
        object.__setattr__(self, "oracle_n_max", checked_int(
            "oracle_n_max", self.oracle_n_max, N_MAX_FLOOR))
        if self.oracle:
            checked_cut(self.oracle_n_max, DIM_BUDGET, "oracle_n_max")

    @property
    def columns(self) -> tuple[str, ...]:
        oracle_cols = ("oracle_n_s",) if self.oracle else ()
        return ("x", *VALUE_COLUMNS, "valid", *oracle_cols, "error")

    def params_at(self, x: float) -> PhysicalParams:
        """Base parameters with the swept variable set to x."""
        if self.variable == "gamma_ratio":
            gm = x * self.base.gamma_plus
            gz = (gm if self.gamma_zero_rule == "track_gamma_minus"
                  else self.base.gamma_zero)
            return self.base.replace(gamma_minus=gm, gamma_zero=gz)
        return self.base.replace(**{self.variable: x})

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.as_dict(),
            "variable": self.variable,
            "grid": list(self.grid),
            "gamma_zero_rule": self.gamma_zero_rule,
            # the value columns are fixed; the member stays so that
            # every spec echo, and with it every sweep document, keeps
            # its bytes
            "observables": list(VALUE_COLUMNS),
            "oracle": self.oracle,
            "oracle_n_max": self.oracle_n_max,
            "label": self.label,
            "preset": self.preset,
        }


@dataclass(frozen=True)
class SweepRow:
    x: float
    n_s: float | str | None = None
    rz_s: float | None = None
    sz_s: float | None = None
    two_sz_s: float | None = None
    c: float | None = None
    a_plus_rate: float | None = None
    valid: bool | None = None
    oracle_n_s: float | None = None
    error: str | None = None


def _marker(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _eval_point(spec: SweepSpec, x: float) -> SweepRow:
    """Evaluate one grid point; every failure ends up in the error field."""
    try:
        p = spec.params_at(x)
    except InvalidParamsError as exc:
        return SweepRow(x=x, error=_marker(exc))

    fields: dict = {"x": x}
    errors: list[str] = []
    try:
        atom = steady_atom(p)
        rates = rate_set(p)
        fields.update(rz_s=atom.rz, sz_s=atom.sz, two_sz_s=2.0 * atom.sz,
                      c=rates.cooling_rate, a_plus_rate=rates.a_rate_plus,
                      valid=validity_report(p).overall)
    except (DegenerateRatesError, OverflowError) as exc:
        errors.append(_marker(exc))
    else:
        try:
            fields["n_s"] = steady_phonon(p)
        except (ZeroCouplingError, OverflowError) as exc:
            errors.append(_marker(exc))

    ns = fields.get("n_s")
    if spec.oracle and ns is not None and not is_heating(ns):
        try:
            run = converged_steady_state(p, n_max_start=spec.oracle_n_max,
                                         dim_cap=DIM_BUDGET)
            fields["oracle_n_s"] = run.n
        except (OracleError, InvalidParamsError) as exc:
            errors.append(_ORACLE_MARKER + _marker(exc))

    if errors:
        fields["error"] = "; ".join(errors)
    return SweepRow(**fields)


@dataclass(eq=False)
class SweepTable:
    """Result of one sweep: rows in ascending-x order plus the spec."""

    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    @property
    def columns(self) -> tuple[str, ...]:
        return self.spec.columns

    @property
    def error_markers(self) -> list[str]:
        return [row.error for row in self.rows if row.error is not None]

    @property
    def has_oracle_errors(self) -> bool:
        return any(m.startswith(_ORACLE_MARKER) for m in self.error_markers)

    def to_csv(self) -> str:
        columns = self.columns
        return _csv_text([columns] + [[getattr(row, c) for c in columns]
                                      for row in self.rows])

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "columns": list(self.columns),
            "rows": [[_json_value(getattr(row, c)) for c in self.columns]
                     for row in self.rows],
        }

    def to_json(self) -> str:
        return _encode_json(self.to_json_dict())


def run_sweep(spec: SweepSpec, *, workers: int | None = None) -> SweepTable:
    """Evaluate every grid point and assemble rows in ascending-x order.

    For an oracle sweep, workers > 1 maps points, one per task, over a
    pool of at most one process per grid point and per CPU; the table is
    assembled in grid-index order afterwards, so the result is identical
    to the serial one.  Closed-form points cost microseconds, less than
    shipping them to a worker, so those sweeps always run serially.
    Per-point failures never raise: they land in the rows.  workers=None
    means 1; any other value must pass checked_int (an integer >= 1).
    """
    workers = 1 if workers is None else checked_int("workers", workers, 1)
    workers = min(workers, len(spec.grid), os.cpu_count() or 1)
    if spec.oracle and workers > 1:
        # here, not with the module: the pool loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_eval_point, [spec] * len(spec.grid),
                                 spec.grid))
    else:
        rows = [_eval_point(spec, x) for x in spec.grid]
    if len(spec.grid) > 1 and spec.grid[0] > spec.grid[-1]:
        rows.reverse()
    return SweepTable(spec=spec, rows=tuple(rows))


# --- figure presets ----------------------------------------------------------
#
# Grids bracket all features of interest; each preset pins the physics,
# while the axis ranges are implementation choices.  Detuning scans run
# [-10, 10] with 401 points, ratio scans
# [0.01, 1.5] with 300 points.  Each preset is a family of curves, one
# per mode frequency in {2, 6, 12} (units of the quoted reference rate).

_PRESET_NUS = (2.0, 6.0, 12.0)
_PRESET_GRIDS = {"delta": (-10.0, 10.0, 401), "gamma_ratio": (0.01, 1.5, 300)}
_PRESET_BASE = dict(omega=5.0, delta=0.0, eta=0.1, gamma_plus=1.0,
                    gamma_minus=1.0, gamma_zero=1.0)

# name: (reference rate, note, swept variable, base values that differ
# from _PRESET_BASE); ratio scans tie gamma_zero to gamma_minus
_PRESETS = {
    "fig1": ("gamma", "free-space-like reservoir: all three rates equal; "
             "detuning scan", "delta", {}),
    "fig1e": ("gamma_plus", "structured reservoir, side rates 0.2 "
              "gamma_plus; detuning scan", "delta",
              {"gamma_minus": 0.2, "gamma_zero": 0.2}),
    "fig2": ("gamma_plus", "resonant drive, gamma_zero tied to gamma_minus; "
             "ratio scan", "gamma_ratio", {}),
    "fig3": ("gamma_plus", "red-detuned drive delta = -omega, otherwise as "
             "fig2; ratio scan", "gamma_ratio", {"delta": -5.0}),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_sweeps(name: str, *, oracle: bool = False,
                  oracle_n_max: int = N_MAX_START) -> tuple[SweepSpec, ...]:
    """The named figure family as one spec per curve (one per nu)."""
    if name not in _PRESETS:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    _, _, variable, changes = _PRESETS[name]
    grid = grid_from_range(*_PRESET_GRIDS[variable])
    return tuple(
        SweepSpec(
            base=PhysicalParams(**{**_PRESET_BASE, **changes}, nu=nu),
            variable=variable, grid=grid,
            gamma_zero_rule=("track_gamma_minus"
                             if variable == "gamma_ratio" else None),
            oracle=oracle, oracle_n_max=oracle_n_max,
            label=f"{name}:nu={nu:g}", preset=name)
        for nu in _PRESET_NUS)


def list_presets() -> dict[str, dict]:
    """Every preset's full parameterization, keyed by name."""
    out: dict[str, dict] = {}
    for name, (reference_rate, note, _, _) in _PRESETS.items():
        specs = preset_sweeps(name)
        first = specs[0]
        out[name] = {
            "note": note,
            "reference_rate": reference_rate,
            "variable": first.variable,
            "gamma_zero_rule": first.gamma_zero_rule,
            "grid_min": first.grid[0],
            "grid_max": first.grid[-1],
            "grid_count": len(first.grid),
            "curves": [{"label": s.label, "base": s.base.as_dict()}
                       for s in specs],
        }
    return out
