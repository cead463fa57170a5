"""Input validation and dressed-frame kinematics.

Expected numbers were evaluated independently with plain-float arithmetic
and frozen here.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from dressedcool.analytic import reduced_phonon_evolve, validity_report
from dressedcool.errors import InvalidParamsError
from dressedcool.lindblad import (build_liouvillian, converged_steady_state,
                                  evolve, product_state, thermal_phonon)
from dressedcool.params import (PhysicalParams, checked_int,
                               checked_real, dressed_frame)
from dressedcool.sweep import SweepSpec, grid_from_range, run_sweep


def make(**overrides):
    base = dict(omega=5.0, delta=0.0, nu=2.0, eta=0.1,
                gamma_plus=1.0, gamma_minus=0.2, gamma_zero=0.2)
    base.update(overrides)
    return PhysicalParams(**base)


class TestValidation:
    def test_valid_construction(self):
        p = make()
        assert p.omega == 5.0
        assert p.gamma_minus == 0.2

    def test_int_inputs_coerced_to_float(self):
        p = make(omega=5, delta=-5, nu=2)
        assert isinstance(p.omega, float)
        assert isinstance(p.delta, float)
        assert p.omega == 5.0

    @pytest.mark.parametrize("field,value", [
        ("omega", 0.0),
        ("omega", -1.0),
        ("nu", 0.0),
        ("nu", -2.0),
        ("eta", -0.1),
        ("gamma_plus", -1.0),
        ("gamma_minus", -0.5),
        ("gamma_zero", -1e-9),
    ])
    def test_out_of_range_rejected_with_field_name(self, field, value):
        with pytest.raises(InvalidParamsError) as err:
            make(**{field: value})
        assert err.value.field == field
        assert field in str(err.value)

    @pytest.mark.parametrize("field", ["omega", "delta", "nu", "eta",
                                       "gamma_plus", "gamma_minus",
                                       "gamma_zero"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "abc", None])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(InvalidParamsError) as err:
            make(**{field: bad})
        assert err.value.field == field
        reason = ("must be finite, got" if isinstance(bad, float)
                  else "not a number:")
        assert str(err.value) == f"{field}: {reason} {bad!r}"

    def test_fields_checked_one_at_a_time_in_order(self):
        # each field passes its whole rule before the next is read
        with pytest.raises(InvalidParamsError) as err:
            make(omega=-1.0, nu=math.inf)
        assert str(err.value) == "omega: must be > 0, got -1.0"

    def test_all_gammas_zero_rejected(self):
        with pytest.raises(InvalidParamsError):
            make(gamma_plus=0.0, gamma_minus=0.0, gamma_zero=0.0)

    def test_single_nonzero_gamma_accepted(self):
        p = make(gamma_plus=0.0, gamma_minus=0.0, gamma_zero=0.3)
        assert p.gamma_zero == 0.3

    def test_eta_zero_allowed(self):
        assert make(eta=0.0).eta == 0.0

    def test_any_sign_delta_allowed(self):
        assert make(delta=-50.0).delta == -50.0
        assert make(delta=50.0).delta == 50.0

    def test_frozen(self):
        p = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.omega = 3.0

    def test_replace_revalidates(self):
        p = make()
        q = p.replace(delta=-5.0)
        assert q.delta == -5.0
        assert p.delta == 0.0
        with pytest.raises(InvalidParamsError):
            p.replace(omega=-1.0)

    def test_max_gamma(self):
        assert make().max_gamma == 1.0
        assert make(gamma_zero=3.0).max_gamma == 3.0


class TestDressedFrame:
    def test_resonance_is_exact_half(self):
        f = dressed_frame(make(delta=0.0))
        assert f.omega_bar == 5.0
        assert f.cos2_theta == 0.5
        assert f.sin2_theta == 0.5
        assert f.cos_2theta == 0.0
        assert f.sin_2theta == 1.0

    def test_negative_detuning_point(self):
        # omega=5, delta=-5: omega_bar = sqrt(31.25)
        f = dressed_frame(make(delta=-5.0))
        assert f.omega_bar == pytest.approx(5.5901699437494745, rel=1e-15)
        assert f.cos2_theta == pytest.approx(0.27639320225002106, rel=1e-15)
        assert f.sin2_theta == pytest.approx(0.7236067977499789, rel=1e-15)
        assert f.cos_2theta == pytest.approx(-0.4472135954999579, rel=1e-15)
        assert f.sin_2theta == pytest.approx(0.8944271909999159, rel=1e-15)

    def test_sideband_resonance_point(self):
        # omega=5, delta=2*sqrt(11): omega_bar = 6 exactly (up to rounding)
        f = dressed_frame(make(delta=2.0 * math.sqrt(11.0)))
        assert f.omega_bar == pytest.approx(6.0, rel=1e-15)
        assert f.cos2_theta == pytest.approx(0.7763853991962832, rel=1e-14)

    def test_generic_point(self):
        f = dressed_frame(make(omega=3.0, delta=4.0))
        assert f.omega_bar == pytest.approx(3.605551275463989, rel=1e-15)
        assert f.cos2_theta == pytest.approx(0.7773500981126146, rel=1e-15)
        assert f.sin_2theta == pytest.approx(0.8320502943378437, rel=1e-15)

    def test_complement_is_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            p = make(omega=rng.uniform(0.1, 50.0),
                     delta=rng.uniform(-100.0, 100.0))
            f = dressed_frame(p)
            assert f.cos2_theta + f.sin2_theta == 1.0

    def test_double_angle_pythagoras(self):
        rng = random.Random(11)
        for _ in range(200):
            p = make(omega=rng.uniform(0.1, 50.0),
                     delta=rng.uniform(-100.0, 100.0))
            f = dressed_frame(p)
            assert f.cos_2theta ** 2 + f.sin_2theta ** 2 == pytest.approx(
                1.0, abs=1e-12)

    def test_omega_bar_monotone_in_abs_delta(self):
        deltas = [0.0, 1.0, 2.5, 7.0, 30.0]
        obs = [dressed_frame(make(delta=d)).omega_bar for d in deltas]
        assert all(b > a for a, b in zip(obs, obs[1:]))
        obs_neg = [dressed_frame(make(delta=-d)).omega_bar for d in deltas]
        assert obs == obs_neg

    def test_large_detuning_limits(self):
        far_up = dressed_frame(make(delta=1e8))
        assert far_up.cos2_theta == pytest.approx(1.0, abs=1e-14)
        far_down = dressed_frame(make(delta=-1e8))
        assert far_down.cos2_theta == pytest.approx(0.0, abs=1e-14)

    def test_derived_powers(self):
        f = dressed_frame(make(delta=-5.0))
        assert f.cos4_theta == f.cos2_theta ** 2
        assert f.sin4_theta == f.sin2_theta ** 2
        assert f.sin2_2theta == f.sin_2theta ** 2


def _evolve(**kwargs):
    liouv = build_liouvillian(make(), 4)
    rho0 = product_state(np.diag([1.0, 0.0]), thermal_phonon(4, 0.0))
    return evolve(liouv, rho0, **{"t_end": 1.0, **kwargs})


# every library entry point that takes a scalar input through
# params.checked_real or params.checked_int: (field, its lower bound,
# call with the input at the given value)
REAL_INPUTS = {
    "PhysicalParams": ("nu", 0, lambda v: make(nu=v)),
    "validity_report": ("margin", 0, lambda v: validity_report(make(), v)),
    "thermal_phonon": ("nbar", 0, lambda v: thermal_phonon(4, v)),
    "evolve": ("t_end", 0, lambda v: _evolve(t_end=v)),
    "reduced_phonon_evolve": (
        "n0", 0, lambda v: reduced_phonon_evolve(make(), v, [0.0, 1.0])),
}
INT_INPUTS = {
    "evolve": ("n_samples", 2, lambda v: _evolve(n_samples=v)),
    "converged_steady_state": (
        "dim_cap", 6, lambda v: converged_steady_state(make(), dim_cap=v)),
    "grid_from_range": ("grid_count", 1, lambda v: grid_from_range(0, 1, v)),
    "run_sweep": ("workers", 1, lambda v: run_sweep(
        SweepSpec(base=make(), variable="delta", grid=(0.0, 1.0)),
        workers=v)),
}


def _cases(inputs, bad_values):
    return [pytest.param(name, bad(low), id=f"{name}-{label}")
            for name, (_, low, _) in inputs.items()
            for label, bad in bad_values]


class TestScalarRules:
    @pytest.mark.parametrize("name, value", _cases(REAL_INPUTS, [
        ("not-a-number", lambda low: "x"), ("nan", lambda low: math.nan),
        ("inf", lambda low: math.inf), ("below", lambda low: low - 1.0)]))
    def test_real_input_refused_with_its_field(self, name, value):
        field, _, call = REAL_INPUTS[name]
        with pytest.raises(InvalidParamsError) as err:
            call(value)
        assert err.value.field == field

    @pytest.mark.parametrize("name, value", _cases(INT_INPUTS, [
        ("not-a-number", lambda low: str(low)), ("nan", lambda low: math.nan),
        ("inf", lambda low: math.inf), ("below", lambda low: low - 1),
        ("not-an-integer", lambda low: low + 0.5)]))
    def test_count_refused_with_its_field(self, name, value):
        field, low, call = INT_INPUTS[name]
        with pytest.raises(InvalidParamsError) as err:
            call(value)
        assert err.value.field == field
        assert str(err.value) == (
            f"{field}: must be an integer >= {low}, got {value}")

    @pytest.mark.parametrize("value, text", [
        ("x", "not a number: 'x'"), (None, "not a number: None"),
        (math.nan, "must be finite, got nan"),
        (-math.inf, "must be finite, got -inf"),
        (0, "must be > 0, got 0.0"), (-1, "must be > 0, got -1.0")])
    def test_real_rule_texts(self, value, text):
        with pytest.raises(InvalidParamsError) as err:
            checked_real("margin", value, 0, strict=True)
        assert str(err.value) == f"margin: {text}"

    def test_real_rule_bounds(self):
        assert checked_real("nbar", 0, 0) == 0.0
        assert type(checked_real("nbar", 3, 0)) is float
        assert checked_real("rz0", -1e300) == -1e300
        with pytest.raises(InvalidParamsError, match="must be >= 0, got -0.5"):
            checked_real("nbar", -0.5, 0)

    @pytest.mark.parametrize("value", [1j, None, [3]])
    def test_int_rule_refuses_what_is_not_a_real_number(self, value):
        with pytest.raises(InvalidParamsError):
            checked_int("workers", value, 1)
