"""Sweep module: spec validation, presets, row semantics, serialization."""

import concurrent.futures
import json
import math
import random
import struct

import numpy as np
import pytest

from dressedcool import sweep
from dressedcool.analytic import is_heating
from dressedcool.errors import (
    DimensionOverflowError,
    InvalidGridError,
    InvalidParamsError,
    UnknownPresetError,
)
from dressedcool.params import PhysicalParams
from dressedcool.sweep import (
    HEATING_SENTINEL,
    PRESET_NAMES,
    SweepRow,
    SweepSpec,
    grid_from_range,
    list_presets,
    preset_sweeps,
    run_sweep,
)

BASE = PhysicalParams(omega=5.0, delta=0.0, nu=10.0, eta=0.02,
                      gamma_plus=1.0, gamma_minus=0.2, gamma_zero=0.2)


def small_spec(**overrides):
    kw = dict(base=BASE, variable="delta", grid=grid_from_range(-3.0, 3.0, 7))
    kw.update(overrides)
    return SweepSpec(**kw)


class TestSpecValidation:
    def test_unknown_variable(self):
        with pytest.raises(InvalidParamsError) as err:
            small_spec(variable="bogus")
        assert err.value.field == "variable"

    def test_gamma_ratio_requires_tying_rule(self):
        with pytest.raises(InvalidParamsError) as err:
            small_spec(variable="gamma_ratio", grid=(0.1, 0.2))
        assert err.value.field == "gamma_zero_rule"

    def test_tying_rule_rejected_elsewhere(self):
        with pytest.raises(InvalidParamsError) as err:
            small_spec(gamma_zero_rule="fixed")
        assert err.value.field == "gamma_zero_rule"

    def test_empty_grid(self):
        with pytest.raises(InvalidGridError):
            small_spec(grid=())

    def test_non_monotone_grid(self):
        with pytest.raises(InvalidGridError):
            small_spec(grid=(0.0, 2.0, 1.0))

    def test_non_finite_grid(self):
        with pytest.raises(InvalidGridError):
            small_spec(grid=(0.0, float("nan")))

    @pytest.mark.parametrize("grid", [("a",), (0.0, None), 5.0])
    def test_grid_not_numbers(self, grid):
        with pytest.raises(InvalidGridError) as err:
            small_spec(grid=grid)
        assert str(err.value) == "sweep grid must hold numbers only"

    def test_range_count_positive(self):
        with pytest.raises(InvalidParamsError) as err:
            grid_from_range(0.0, 1.0, 0)
        assert str(err.value) == "grid_count: must be an integer >= 1, got 0"

    @pytest.mark.parametrize("count", [2.5, float("nan"), float("inf")])
    def test_range_count_not_an_integer(self, count):
        with pytest.raises(InvalidParamsError) as err:
            grid_from_range(0.0, 1.0, count)
        assert str(err.value) == (
            f"grid_count: must be an integer >= 1, got {count}")

    def test_range_count_whole_float(self):
        assert grid_from_range(0.0, 1.0, 3.0) == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("count", [2 ** 62, 2 ** 63])
    def test_range_count_beyond_memory(self, count):
        # refused before any point is made: no list of this many fits
        with pytest.raises(InvalidGridError) as err:
            grid_from_range(0.0, 1.0, count)
        assert str(err.value) == (
            f"cannot make a grid of {count} points: too many to allocate")

    def test_oracle_n_max_floor(self):
        with pytest.raises(InvalidParamsError) as err:
            small_spec(oracle=True, oracle_n_max=1)
        assert err.value.field == "oracle_n_max"

    @pytest.mark.parametrize("n_max", [2.5, float("nan"), float("inf")])
    def test_oracle_n_max_not_a_cut(self, n_max):
        # the oracle's own n_max rule, so the spec is refused up front
        # instead of every row carrying an oracle-side marker
        with pytest.raises(InvalidParamsError) as err:
            small_spec(oracle=True, oracle_n_max=n_max)
        assert str(err.value) == \
            f"oracle_n_max: must be an integer >= 2, got {n_max}"

    def test_oracle_n_max_over_budget(self):
        # every row solves within DIM_BUDGET (64), so a start cut beyond
        # it is refused once, with the oracle's own text, not by each row
        assert small_spec(oracle=True, oracle_n_max=31).oracle_n_max == 31
        with pytest.raises(DimensionOverflowError) as err:
            small_spec(oracle=True, oracle_n_max=40)
        assert str(err.value) == (
            "total dimension 82 = 2*(n_max+1) exceeds cap 64; "
            "superoperator would be 6724 x 6724")

    def test_closed_form_spec_ignores_oracle_n_max(self):
        assert small_spec(oracle_n_max=40).oracle_n_max == 40

    @pytest.mark.parametrize("n_max", [-5, 1, 2.5, float("nan")])
    def test_closed_form_spec_checks_oracle_n_max(self, n_max):
        # every spec echoes oracle_n_max, so it is a cut even where no
        # row solves from it
        with pytest.raises(InvalidParamsError) as err:
            small_spec(oracle_n_max=n_max)
        assert str(err.value) == \
            f"oracle_n_max: must be an integer >= 2, got {n_max}"

    @pytest.mark.parametrize("oracle", [False, True])
    def test_whole_float_oracle_n_max_is_echoed_as_an_int(self, oracle):
        # the CLI parses the cut as an int, so a library spec given 12.0
        # must echo the same 12 for one spec to have one document form
        spec = small_spec(oracle=oracle, oracle_n_max=12.0)
        echoed = spec.to_json_dict()["oracle_n_max"]
        assert type(echoed) is int and echoed == 12


def _bits(values):
    """The IEEE bytes of each float, which tell -0.0 from 0.0 and match
    a nan with a nan."""
    return [struct.pack("<d", v) for v in values]


def _linspace_cases():
    """(lo, hi, count): seeded draws with counts 1 to 1,000, then every
    pair of the edge values (signed zeros, subnormals, +-1e308, inf, nan)
    at counts 1, 2, 3, 7 and 1,000."""
    rng = random.Random(36)
    for _ in range(2000):
        kind = rng.randrange(4)
        if kind == 0:                   # ordinary ranges
            lo, hi = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        elif kind == 1:                 # magnitudes across double range
            lo, hi = (rng.choice((-1, 1)) * 10.0 ** rng.uniform(-320, 308)
                      for _ in range(2))
        elif kind == 2:                 # a subnormal width: step is 0
            lo = rng.uniform(-10.0, 10.0)
            hi = lo + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-324, -300)
        else:                           # any 64-bit pattern, nan included
            lo, hi = (struct.unpack("<d", rng.getrandbits(64).to_bytes(
                8, "little"))[0] for _ in range(2))
        yield lo, hi, rng.randint(1, 1000)
    edges = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308,
             math.inf, -math.inf, math.nan)
    for lo in edges:
        for hi in edges:
            for count in (1, 2, 3, 7, 1000):
                yield lo, hi, count


class TestGridFromRange:
    def test_equals_numpy_linspace_bit_for_bit(self):
        # the grid repeats np.linspace's arithmetic in Python floats
        mismatched = []
        for lo, hi, count in _linspace_cases():
            with np.errstate(all="ignore"):
                expected = np.linspace(lo, hi, count).tolist()
            if _bits(grid_from_range(lo, hi, count)) != _bits(expected):
                mismatched.append((lo, hi, count))
        assert mismatched == []

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_grid_equals_numpy_linspace(self, name):
        spec = preset_sweeps(name)[0]
        lo, hi, count = sweep._PRESET_GRIDS[spec.variable]
        assert _bits(spec.grid) == _bits(np.linspace(lo, hi, count).tolist())


class TestParamsAt:
    def test_plain_variable(self):
        spec = small_spec(variable="nu", grid=(4.0, 8.0))
        assert spec.params_at(8.0).nu == 8.0
        assert spec.params_at(8.0).delta == BASE.delta

    def test_ratio_tracking_rule(self):
        spec = small_spec(variable="gamma_ratio", grid=(0.3,),
                          gamma_zero_rule="track_gamma_minus")
        p = spec.params_at(0.3)
        assert p.gamma_minus == 0.3 and p.gamma_zero == 0.3

    def test_ratio_fixed_rule(self):
        spec = small_spec(variable="gamma_ratio", grid=(0.3,),
                          gamma_zero_rule="fixed")
        p = spec.params_at(0.3)
        assert p.gamma_minus == 0.3 and p.gamma_zero == BASE.gamma_zero


class TestRunSweep:
    def test_row_count_matches_grid(self):
        tab = run_sweep(small_spec())
        assert len(tab.rows) == 7
        assert [r.x for r in tab.rows] == list(small_spec().grid)

    def test_descending_grid_emitted_ascending(self):
        up = run_sweep(small_spec())
        down = run_sweep(small_spec(grid=tuple(reversed(small_spec().grid))))
        assert [r.x for r in down.rows] == [r.x for r in up.rows]
        assert down.to_csv() == up.to_csv()

    def test_per_row_errors_do_not_abort(self):
        spec = small_spec(variable="eta", grid=(-0.1, 0.0, 0.1))
        tab = run_sweep(spec)
        assert len(tab.rows) == 3
        assert tab.rows[0].error.startswith("InvalidParamsError: eta")
        assert tab.rows[0].n_s is None and tab.rows[0].c is None
        assert tab.rows[1].error.startswith("ZeroCouplingError")
        assert tab.rows[1].c == 0.0          # rates still well defined
        assert tab.rows[2].error is None
        assert tab.rows[2].n_s == pytest.approx(0.25159999999999993)
        assert tab.error_markers == [tab.rows[0].error, tab.rows[1].error]
        assert not tab.has_oracle_errors

    def test_parallel_equals_serial(self):
        spec = small_spec(grid=grid_from_range(-2.0, 2.0, 9))
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=3)
        assert parallel.to_csv() == serial.to_csv()
        assert parallel.to_json() == serial.to_json()

    @pytest.mark.parametrize("workers", [1.5, float("nan"), 0, -3])
    def test_workers_not_a_count_evaluates_no_row(self, workers,
                                                    monkeypatch):
        def no_row(spec, x):
            raise AssertionError("no row may be evaluated")

        monkeypatch.setattr(sweep, "_eval_point", no_row)
        with pytest.raises(InvalidParamsError) as err:
            run_sweep(small_spec(oracle=True), workers=workers)
        assert str(err.value) == \
            f"workers: must be an integer >= 1, got {workers}"

    def test_rerun_byte_identical(self):
        spec = small_spec()
        assert run_sweep(spec).to_csv() == run_sweep(spec).to_csv()
        assert run_sweep(spec).to_json() == run_sweep(spec).to_json()


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == ("fig1", "fig1e", "fig2", "fig3")

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownPresetError) as err:
            preset_sweeps("fig9")
        msg = str(err.value)
        assert "fig9" in msg and "fig1e" in msg and "fig3" in msg

    def test_fig1_parameterization(self):
        specs = preset_sweeps("fig1")
        assert [s.base.nu for s in specs] == [2.0, 6.0, 12.0]
        for s in specs:
            assert s.variable == "delta"
            assert s.grid[0] == -10.0 and s.grid[-1] == 10.0
            assert len(s.grid) == 401
            assert (s.base.gamma_plus, s.base.gamma_minus,
                    s.base.gamma_zero) == (1.0, 1.0, 1.0)
            assert s.base.omega == 5.0 and s.base.eta == 0.1
            assert s.preset == "fig1"

    def test_fig1e_side_rates(self):
        for s in preset_sweeps("fig1e"):
            assert s.base.gamma_minus == 0.2 and s.base.gamma_zero == 0.2
            assert s.base.gamma_plus == 1.0

    def test_fig2_fig3_ratio_scan(self):
        for name, delta in (("fig2", 0.0), ("fig3", -5.0)):
            specs = preset_sweeps(name)
            assert [s.base.nu for s in specs] == [2.0, 6.0, 12.0]
            for s in specs:
                assert s.variable == "gamma_ratio"
                assert s.gamma_zero_rule == "track_gamma_minus"
                assert s.base.delta == delta
                assert s.grid[0] == 0.01 and s.grid[-1] == 1.5
                assert len(s.grid) == 300

    def test_list_presets_shape(self):
        info = list_presets()
        assert sorted(info) == sorted(PRESET_NAMES)
        assert info["fig1"]["reference_rate"] == "gamma"
        assert info["fig1e"]["reference_rate"] == "gamma_plus"
        assert info["fig2"]["grid_count"] == 300
        assert len(info["fig3"]["curves"]) == 3
        assert info["fig3"]["curves"][2]["base"]["nu"] == 12.0


class TestFigureBehaviors:
    def test_fig1_nu12_heating_and_minimum(self):
        tab = run_sweep(preset_sweeps("fig1")[2])
        rows = tab.rows
        assert all(is_heating(r.n_s) for r in rows if r.x < 0)
        heating = [r for r in rows if is_heating(r.n_s)]
        assert len(heating) == 201           # delta <= 0 on this grid
        finite = [r for r in rows if not is_heating(r.n_s)]
        best = min(finite, key=lambda r: r.n_s)
        # The grid minimum sits at the scan edge, not at the matched
        # sideband; the point nearest delta = 2*sqrt(11) is locally
        # optimal for cooling RATE, not for the steady phonon number.
        assert best.x == 10.0
        assert best.n_s == pytest.approx(0.04424876452599492, rel=1e-12)
        near = [r for r in finite if abs(r.x - 6.65) < 1e-9]
        assert near[0].n_s == pytest.approx(0.09665638893359661, rel=1e-12)

    def test_fig1e_cools_at_negative_detuning(self):
        tab = run_sweep(preset_sweeps("fig1e")[2])
        neg_cooling = [r for r in tab.rows
                       if r.x < 0 and not is_heating(r.n_s)]
        assert len(neg_cooling) == 82

    def test_fig2_inversion_free_and_cooling_below_one(self):
        tab = run_sweep(preset_sweeps("fig2")[0])
        assert max(abs(r.sz_s) for r in tab.rows) == 0.0
        assert all(r.c > 0 for r in tab.rows if r.x < 1.0)
        assert all(is_heating(r.n_s) for r in tab.rows if r.x >= 1.0)
        cooling_n = [r.n_s for r in tab.rows if not is_heating(r.n_s)]
        assert cooling_n == sorted(cooling_n)   # grows toward the boundary

    def test_fig3_inverted_while_cooling(self):
        tab = run_sweep(preset_sweeps("fig3")[0])
        both = [r.x for r in tab.rows if r.c > 0 and r.two_sz_s > 0]
        assert len(both) == 28
        assert max(both) == pytest.approx(0.1445484949832776, rel=1e-12)
        assert max(both) < 0.1458980337503155   # analytic sign boundary


class TestSerialization:
    def test_csv_layout(self):
        tab = run_sweep(small_spec(grid=(-1.0, 0.0, 1.0)))
        lines = tab.to_csv().splitlines()
        assert lines[0] == "x,n_s,rz_s,sz_s,two_sz_s,c,a_plus_rate,valid,error"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "-1.0"
        assert float(first[1]) == tab.rows[0].n_s   # repr round-trips
        assert first[7] in ("true", "false")
        assert first[8] == ""                        # clean row

    def test_heating_serialized_as_sentinel_not_number(self):
        spec = SweepSpec(
            base=PhysicalParams(5.0, 0.0, 10.0, 0.1, 1.0, 1.0, 1.0),
            variable="delta", grid=(0.0,))
        tab = run_sweep(spec)
        assert is_heating(tab.rows[0].n_s)
        line = tab.to_csv().splitlines()[1]
        assert line.split(",")[1] == HEATING_SENTINEL
        doc = json.loads(tab.to_json())
        assert doc["rows"][0][1] == HEATING_SENTINEL

    def test_json_document(self):
        spec = small_spec(grid=(-1.0, 1.0))
        tab = run_sweep(spec)
        doc = json.loads(tab.to_json())
        assert doc["columns"] == list(tab.columns)
        assert doc["spec"]["variable"] == "delta"
        assert doc["spec"]["base"]["omega"] == 5.0
        assert doc["spec"]["grid"] == [-1.0, 1.0]
        assert len(doc["rows"]) == 2
        assert len(doc["rows"][0]) == len(tab.columns)
        assert tab.to_json().endswith("\n")
        assert tab.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_error_cell_quoting_round_trips(self):
        spec = small_spec(variable="eta", grid=(-0.5, 0.1))
        tab = run_sweep(spec)
        import csv as _csv
        import io as _io
        parsed = list(_csv.reader(_io.StringIO(tab.to_csv())))
        assert parsed[1][-1] == tab.rows[0].error
        assert parsed[2][-1] == ""

    def test_numpy_float_cell_is_its_python_float_repr(self):
        # under numpy 2, repr(np.float64(0.1)) is 'np.float64(0.1)'; str
        # gives the Python float's repr for numpy and Python floats alike
        assert sweep._cell(np.float64(0.1)) == "0.1"
        for value in (0.1, -0.0, 5e-324, 1.7976931348623157e308,
                      float("inf"), float("nan")):
            assert sweep._cell(np.float64(value)) == repr(value)
            assert sweep._cell(value) == repr(value)


class TestOracleSweeps:
    def test_oracle_column_matches_closed_form_near_sideband(self):
        spec = SweepSpec(base=BASE, variable="gamma_ratio",
                         grid=grid_from_range(0.1, 0.4, 4),
                         gamma_zero_rule="track_gamma_minus",
                         oracle=True, oracle_n_max=8)
        tab = run_sweep(spec)
        assert tab.columns[-2] == "oracle_n_s"
        for row in tab.rows:
            assert row.error is None
            assert row.oracle_n_s == pytest.approx(row.n_s, rel=0.02)

    def test_heating_rows_skip_oracle(self):
        spec = SweepSpec(base=BASE.replace(eta=0.1), variable="gamma_ratio",
                         grid=(0.9, 1.2), gamma_zero_rule="track_gamma_minus",
                         oracle=True, oracle_n_max=8)
        tab = run_sweep(spec)
        cold, hot = tab.rows
        # the cooling row runs the oracle, which escalates to the budget
        assert isinstance(cold.n_s, float)
        assert cold.oracle_n_s is None
        assert cold.error.startswith(
            "oracle TruncationBreachError: phonon number not converged at "
            "dimension cap 64; history: [(8, ")
        assert is_heating(hot.n_s)
        assert hot.oracle_n_s is None and hot.error is None

    def test_failed_solve_marker_names_its_certificate(self):
        # nu near 0 nearly conserves the phonon number (dimension 26)
        spec = SweepSpec(base=BASE, variable="nu", grid=(1e-8,),
                         oracle=True)
        (row,) = run_sweep(spec).rows
        assert row.oracle_n_s is None
        assert row.error.startswith(
            "oracle NoSteadyStateError: constrained solve ill-conditioned "
            "(rcond = ")
        assert row.error.endswith(
            "); kernel is not one-dimensional within tolerance")

    def test_parallel_oracle_sweep_equals_serial(self):
        spec = SweepSpec(base=BASE, variable="gamma_ratio", grid=(0.2, 0.3),
                         gamma_zero_rule="track_gamma_minus",
                         oracle=True, oracle_n_max=8)
        assert run_sweep(spec, workers=2).to_csv() == run_sweep(spec).to_csv()

    @pytest.mark.parametrize("workers, points, cpus, pool_size", [
        (64, 3, 8, 3),          # bounded by the grid
        (64, 20, 4, 4),         # bounded by the CPUs
        (2, 20, 8, 2),          # as asked
        (64, 20, None, None),   # CPU count unknown: serial
        (64, 1, 8, None),       # one point: serial
    ])
    def test_pool_size_bounded(self, workers, points, cpus, pool_size,
                               monkeypatch):
        # a recording stand-in for the pool: no process is started
        calls = []

        class RecordingPool:
            def __init__(self, max_workers):
                calls.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, **options):
                assert options == {}    # one point per task
                return map(fn, *iterables)

        # run_sweep imports the pool class from concurrent.futures where
        # it starts the pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(sweep, "_eval_point",
                            lambda spec, x: SweepRow(x=x))
        spec = SweepSpec(base=BASE, variable="nu",
                         grid=grid_from_range(8.0, 12.0, points),
                         oracle=True)
        tab = run_sweep(spec, workers=workers)
        assert len(tab.rows) == points
        assert calls == ([] if pool_size is None else [pool_size])

    def test_oracle_rerun_byte_identical(self):
        spec = SweepSpec(base=BASE, variable="gamma_ratio", grid=(0.2, 0.3),
                         gamma_zero_rule="track_gamma_minus",
                         oracle=True, oracle_n_max=8)
        assert run_sweep(spec).to_csv() == run_sweep(spec).to_csv()
