"""Closed-form model: rates, steady state, trajectories, validity checks.

All expected numbers were evaluated independently with plain-float
arithmetic and frozen here. Named parameter points used repeatedly:

  fig2 point:     omega=5, delta=0,          nu=2,  eta=0.1, gammas (1, 0.2, 0.2)
  resonant point: omega=5, delta=2*sqrt(11), nu=12, eta=0.1, gammas (1, 1, 1)
                  (the vibrational frequency matches the dressed splitting)
  tilted point:   omega=5, delta=-5,         nu=6,  eta=0.1, gammas (1, 0.05, 0.05)
"""

import math
import random

import numpy as np
import pytest

from dressedcool.analytic import (
    HEATING,
    RECOIL_SECOND_MOMENT,
    BareInit,
    DressedInit,
    cooling_rate,
    is_heating,
    rate_set,
    steady_atom,
    steady_phonon,
    trajectory,
    validity_report,
)
from dressedcool.errors import (
    DegenerateRatesError,
    InvalidGridError,
    ZeroCouplingError,
)
from dressedcool.params import PhysicalParams


def make(**overrides):
    base = dict(omega=5.0, delta=0.0, nu=2.0, eta=0.1,
                gamma_plus=1.0, gamma_minus=0.2, gamma_zero=0.2)
    base.update(overrides)
    return PhysicalParams(**base)


FIG2_POINT = make()
RESONANT_POINT = make(delta=2.0 * math.sqrt(11.0), nu=12.0,
                      gamma_minus=1.0, gamma_zero=1.0)
TILTED_POINT = make(delta=-5.0, nu=6.0, gamma_minus=0.05, gamma_zero=0.05)
SYMMETRIC_POINT = make(nu=6.0, gamma_minus=1.0, gamma_zero=1.0)


def random_params(rng):
    return PhysicalParams(
        omega=rng.uniform(0.5, 20.0),
        delta=rng.uniform(-30.0, 30.0),
        nu=rng.uniform(0.5, 40.0),
        eta=rng.uniform(0.0, 0.3),
        gamma_plus=rng.uniform(0.0, 3.0),
        gamma_minus=rng.uniform(0.0, 3.0),
        gamma_zero=rng.uniform(0.0, 3.0),
    )


class TestSteadyAtom:
    def test_full_symmetry(self):
        atom = steady_atom(SYMMETRIC_POINT)
        assert atom.r11 == 0.5
        assert atom.r22 == 0.5
        assert atom.rz == 0.0
        assert atom.sz == 0.0

    def test_fig2_ratio(self):
        atom = steady_atom(FIG2_POINT)
        assert atom.r11 == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert atom.rz == pytest.approx(-2.0 / 3.0, rel=1e-15)
        assert atom.sz == 0.0  # cos(2 theta) = 0 at delta = 0

    def test_tilted_point_bare_inversion(self):
        atom = steady_atom(TILTED_POINT)
        assert atom.r11 == pytest.approx(0.7447651768484406, rel=1e-13)
        assert atom.rz == pytest.approx(-0.48953035369688114, rel=1e-13)
        # cooling while the bare-basis inversion is positive
        assert 2.0 * atom.sz == pytest.approx(0.21892462958314834, rel=1e-13)
        assert 2.0 * atom.sz == pytest.approx(0.219, abs=5e-4)

    def test_dark_transitions_raise(self):
        with pytest.raises(DegenerateRatesError):
            steady_atom(make(gamma_plus=0.0, gamma_minus=0.0, gamma_zero=1.0))

    def test_one_sided_decay_pins_population(self):
        atom = steady_atom(make(gamma_minus=0.0))
        assert atom.r11 == 1.0
        assert atom.r22 == 0.0
        assert atom.rz == -1.0

    def test_bounds_hold_on_random_sets(self):
        rng = random.Random(23)
        checked = 0
        while checked < 300:
            p = random_params(rng)
            try:
                atom = steady_atom(p)
            except DegenerateRatesError:
                continue
            checked += 1
            assert atom.r11 + atom.r22 == pytest.approx(1.0, abs=1e-15)
            assert 0.0 <= atom.r11 <= 1.0
            assert 0.0 <= atom.r22 <= 1.0
            assert abs(atom.rz) <= 1.0 + 1e-15
            assert abs(atom.sz) <= 0.5 + 1e-15


class TestRateSet:
    def test_fig2_point(self):
        rates = rate_set(FIG2_POINT)
        assert rates.gamma_perp == pytest.approx(0.5, rel=1e-15)
        assert rates.gamma_s == pytest.approx(0.3, rel=1e-15)
        assert rates.gamma_0_eff == pytest.approx(0.0005333333333333335,
                                                  rel=1e-13)
        assert rates.a_minus == pytest.approx(
            0.0021546044098573283 - 0.02594033722438392j, rel=1e-13)
        assert rates.a_plus == pytest.approx(
            0.0008575875486381324 + 0.005188067444876782j, rel=1e-13)
        assert rates.a_rate_plus == pytest.approx(0.0017151750972762647,
                                                  rel=1e-13)

    def test_resonant_point(self):
        rates = rate_set(RESONANT_POINT)
        assert rates.gamma_perp == pytest.approx(1.347222222222222, rel=1e-14)
        assert rates.gamma_perp == pytest.approx(1.3472, abs=1e-4)
        assert rates.gamma_s == pytest.approx(0.6527777777777777, rel=1e-14)
        assert rates.gamma_0_eff == pytest.approx(0.0010638297872340432,
                                                  rel=1e-13)
        assert rates.gamma_0_eff == pytest.approx(1.064e-3, abs=1e-6)
        # vibrational frequency on the sideband: coefficients come out real
        assert rates.a_minus.imag == pytest.approx(0.0, abs=1e-15)
        assert rates.a_minus.real == pytest.approx(0.17241620472875263,
                                                   rel=1e-13)

    def test_eta_zero_kills_coupling(self):
        rates = rate_set(make(eta=0.0))
        assert rates.gamma_0_eff == 0.0
        assert rates.a_minus == 0.0 + 0.0j
        assert rates.a_plus == 0.0 + 0.0j
        assert rates.cooling_rate == 0.0
        # atomic rates unaffected
        assert rates.gamma_perp == pytest.approx(0.5, rel=1e-15)

    def test_recoil_moment_constant(self):
        assert RECOIL_SECOND_MOMENT == 0.4

    def test_rate_ordering_on_random_sets(self):
        rng = random.Random(29)
        checked = 0
        while checked < 300:
            p = random_params(rng)
            try:
                rates = rate_set(p)
            except DegenerateRatesError:
                continue
            checked += 1
            assert rates.gamma_perp >= rates.gamma_s >= 0.0
            assert rates.gamma_0_eff >= 0.0
            assert rates.a_rate_minus == pytest.approx(
                2.0 * rates.a_minus.real, rel=1e-15)


class TestCoolingRate:
    def test_zero_at_full_symmetry(self):
        assert cooling_rate(SYMMETRIC_POINT) == 0.0
        assert rate_set(SYMMETRIC_POINT).cooling_rate == 0.0

    def test_fig2_value_both_routes(self):
        direct = cooling_rate(FIG2_POINT)
        chained = rate_set(FIG2_POINT).cooling_rate
        assert direct == pytest.approx(0.002594033722438392, rel=1e-13)
        assert chained == pytest.approx(direct, rel=1e-12)
        assert direct == pytest.approx(2.594e-3, abs=1e-6)

    def test_resonant_value(self):
        assert cooling_rate(RESONANT_POINT) == pytest.approx(
            0.3142754791475176, rel=1e-13)

    def test_heating_sign(self):
        # free-space rates with negative detuning heat
        p = make(delta=-5.0, nu=12.0, gamma_minus=1.0, gamma_zero=1.0)
        assert cooling_rate(p) == pytest.approx(-0.19824482471727817,
                                                rel=1e-13)

    def test_sign_law_random(self):
        rng = random.Random(31)
        checked = 0
        while checked < 500:
            p = random_params(rng)
            if p.eta * p.omega == 0.0:
                continue
            try:
                atom = steady_atom(p)
            except DegenerateRatesError:
                continue
            checked += 1
            c = cooling_rate(p)
            if atom.rz < 0:
                assert c > 0
            elif atom.rz > 0:
                assert c < 0
            else:
                assert c == 0.0

    def test_free_space_positive_detuning_only(self):
        for delta in (0.5, 3.0, 9.0):
            p = make(delta=delta, gamma_minus=1.0, gamma_zero=1.0)
            assert cooling_rate(p) > 0
            assert cooling_rate(p.replace(delta=-delta)) < 0

    def test_resonance_cooling_needs_asymmetric_rates(self):
        # delta = 0 cools iff the lower sideband rate dominates
        assert cooling_rate(FIG2_POINT) > 0
        flipped = make(gamma_plus=0.2, gamma_minus=1.0)
        assert cooling_rate(flipped) < 0


class TestSteadyPhonon:
    def test_resonant_value(self):
        n = steady_phonon(RESONANT_POINT)
        assert n == pytest.approx(0.0972297628592416, rel=1e-13)
        assert n == pytest.approx(0.0973, abs=1e-4)

    def test_resonant_term_split(self):
        # sideband-balance floor plus recoil-diffusion contribution
        atom = steady_atom(RESONANT_POINT)
        floor = atom.r22 / (atom.r11 - atom.r22)
        assert floor == pytest.approx(0.09045971646478719, rel=1e-13)
        n = steady_phonon(RESONANT_POINT)
        assert n - floor == pytest.approx(0.006770046394454415, rel=1e-12)

    def test_fig2_value(self):
        assert steady_phonon(FIG2_POINT) == pytest.approx(0.6612, rel=1e-13)

    def test_balanced_populations_heat(self):
        result = steady_phonon(SYMMETRIC_POINT)
        assert is_heating(result)
        assert result is HEATING

    def test_inverted_populations_heat(self):
        p = make(delta=-5.0, nu=12.0, gamma_minus=1.0, gamma_zero=1.0)
        assert is_heating(steady_phonon(p))

    def test_no_lower_sideband_leaves_only_diffusion(self):
        p = make(gamma_minus=0.0)
        n = steady_phonon(p)
        assert n == pytest.approx(0.11413777777777781, rel=1e-13)

    def test_zero_coupling_raises_on_cooling_side(self):
        with pytest.raises(ZeroCouplingError):
            steady_phonon(make(eta=0.0))

    def test_zero_coupling_heating_side_still_heating(self):
        assert is_heating(steady_phonon(make(eta=0.0, gamma_minus=1.0,
                                             gamma_zero=1.0, nu=6.0)))

    def test_balance_identity(self):
        # steady value times damping rate equals the source rate
        for p in (FIG2_POINT, RESONANT_POINT, TILTED_POINT):
            n = steady_phonon(p)
            rates = rate_set(p)
            assert n * rates.cooling_rate == pytest.approx(
                rates.a_rate_plus, rel=1e-12)


class TestTrajectory:
    def test_time_zero_identity(self):
        init = DressedInit(rz=0.5, rplus=0.2 - 0.1j, n=4.0)
        traj = trajectory(FIG2_POINT, init, [0.0])
        assert traj.rz[0] == pytest.approx(0.5, rel=1e-15)
        assert traj.rplus[0] == pytest.approx(0.2 - 0.1j, rel=1e-15)
        assert traj.n[0] == 4.0

    def test_fig2_spot_values(self):
        init = DressedInit(rz=0.5, rplus=0.2 - 0.1j, n=4.0)
        traj = trajectory(FIG2_POINT, init, [0.0, 3.0])
        assert traj.rz[1] == pytest.approx(-0.47381796374148244, rel=1e-12)
        assert traj.rplus[1] == pytest.approx(
            0.044626032029685965 - 0.022313016014842982j, rel=1e-12)
        assert traj.n[1] == pytest.approx(3.9741179595713527, rel=1e-12)

    def test_steady_init_is_fixed_point(self):
        n_s = steady_phonon(FIG2_POINT)
        atom = steady_atom(FIG2_POINT)
        init = DressedInit(rz=atom.rz, rplus=0.0, n=n_s)
        traj = trajectory(FIG2_POINT, init, np.linspace(0.0, 50.0, 9))
        assert traj.rz == pytest.approx(atom.rz, rel=1e-12)
        assert traj.n == pytest.approx(n_s, rel=1e-12)
        assert not traj.phonon_growing

    def test_long_time_limits(self):
        init = DressedInit(rz=0.9, rplus=0.3 + 0.4j, n=7.0)
        traj = trajectory(FIG2_POINT, init, [0.0, 1e4])
        assert traj.rz[-1] == pytest.approx(traj.rz_steady, rel=1e-12)
        assert abs(traj.rplus[-1]) < 1e-300
        assert traj.n[-1] == pytest.approx(traj.n_steady, rel=1e-9)

    def test_heating_grows_monotonically(self):
        p = make(delta=-5.0, nu=12.0, gamma_minus=1.0, gamma_zero=1.0)
        traj = trajectory(p, DressedInit(rz=0.0, n=0.0),
                          np.linspace(0.0, 20.0, 41))
        assert traj.phonon_growing
        assert is_heating(traj.n_steady)
        assert np.all(np.diff(traj.n) > 0)
        assert np.all(np.isfinite(traj.n))

    def test_balanced_rates_grow_linearly(self):
        traj = trajectory(SYMMETRIC_POINT, DressedInit(rz=0.0, n=1.0),
                          [0.0, 2.0, 4.0])
        assert traj.cooling_rate == 0.0
        assert traj.phonon_growing
        source = rate_set(SYMMETRIC_POINT).a_rate_plus
        assert traj.n[1] == pytest.approx(1.0 + 2.0 * source, rel=1e-13)
        assert traj.n[2] - traj.n[1] == pytest.approx(traj.n[1] - traj.n[0],
                                                      rel=1e-12)

    def test_decoupled_phonon_stays_put(self):
        traj = trajectory(make(eta=0.0), DressedInit(rz=0.5, n=3.0),
                          [0.0, 10.0])
        assert traj.n[1] == 3.0
        assert traj.n_steady is None
        assert not traj.phonon_growing

    def test_bare_ground_state_conversion(self):
        p = make(delta=-5.0)
        init = BareInit(sz=-1.0)
        traj = trajectory(p, init, [0.0])
        assert traj.rz[0] == pytest.approx(0.4472135954999579, rel=1e-13)
        assert traj.rplus[0] == pytest.approx(0.8944271909999159 + 0.0j,
                                              rel=1e-13)

    def test_bare_coherent_conversion(self):
        p = make(delta=-5.0)
        init = BareInit(sz=0.2, splus=0.1 + 0.3j)
        traj = trajectory(p, init, [0.0])
        assert traj.rz[0] == pytest.approx(0.08944271909999159, rel=1e-12)
        assert traj.rplus[0] == pytest.approx(
            -0.22360679774997896 + 0.3j, rel=1e-12)

    @pytest.mark.parametrize("times", [
        [],
        [-1.0, 0.0],
        [0.0, 0.0],
        [0.0, 2.0, 1.0],
        [0.0, math.nan],
        [[0.0, 1.0], [2.0, 3.0]],
    ])
    def test_bad_grids_rejected(self, times):
        with pytest.raises(InvalidGridError):
            trajectory(FIG2_POINT, DressedInit(rz=0.0), times)

    def test_metadata_fields(self):
        traj = trajectory(FIG2_POINT, DressedInit(rz=0.0), [0.0, 1.0])
        rates = rate_set(FIG2_POINT)
        assert traj.cooling_rate == pytest.approx(rates.cooling_rate,
                                                  rel=1e-15)
        assert traj.gamma_perp == rates.gamma_perp
        assert traj.gamma_s == rates.gamma_s
        assert traj.rz_steady == steady_atom(FIG2_POINT).rz


class TestValidityReport:
    def test_resonant_point_checks(self):
        report = validity_report(RESONANT_POINT)
        secular = report["secular"]
        assert secular.ratio == pytest.approx(12.0, rel=1e-15)
        assert secular.satisfied
        drive = report["drive_below_decay"]
        assert drive.lhs == pytest.approx(0.5)
        assert drive.rhs == 1.0
        assert drive.satisfied
        # the adiabatic margins are below 10 here: report must say so
        assert report["inversion_adiabatic"].ratio == pytest.approx(
            4.154175690374944, rel=1e-12)
        assert not report["inversion_adiabatic"].satisfied
        assert report["coherence_adiabatic"].ratio == pytest.approx(
            4.286755765599677, rel=1e-12)
        assert not report["coherence_adiabatic"].satisfied
        assert not report.overall
        assert report.transient_time == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_margin_configurable(self):
        assert not validity_report(RESONANT_POINT, margin=10.0).overall
        assert validity_report(RESONANT_POINT, margin=4.0).overall
        assert not validity_report(RESONANT_POINT, margin=13.0)["secular"].satisfied

    def test_weak_drive_fails_secular(self):
        p = make(omega=1.0)
        report = validity_report(p)
        assert not report["secular"].satisfied
        assert not report.overall

    def test_eta_zero_trivially_below_decay(self):
        report = validity_report(make(eta=0.0))
        assert report["drive_below_decay"].satisfied
        # C = 0 passes the adiabatic checks with infinite ratio
        assert report["inversion_adiabatic"].ratio == math.inf
        assert report["inversion_adiabatic"].satisfied

    def test_fig2_point_passes_overall(self):
        report = validity_report(FIG2_POINT)
        assert report.overall
        for check in report.checks:
            assert check.satisfied

    def test_as_dict_shape(self):
        d = validity_report(FIG2_POINT).as_dict()
        assert set(d) == {"margin", "overall", "transient_time", "checks"}
        names = [c["name"] for c in d["checks"]]
        assert names == ["secular", "drive_below_decay",
                         "inversion_adiabatic", "coherence_adiabatic"]

    def test_unknown_check_name_raises(self):
        with pytest.raises(KeyError):
            validity_report(FIG2_POINT)["nonsense"]

    def test_bad_margin_rejected(self):
        with pytest.raises(ValueError):
            validity_report(FIG2_POINT, margin=0.0)


class TestConsistencyProperties:
    def test_two_route_cooling_rate_and_balance_identity(self):
        rng = random.Random(41)
        checked = 0
        while checked < 400:
            p = random_params(rng)
            try:
                atom = steady_atom(p)
            except DegenerateRatesError:
                continue
            # near-balanced populations make the rate difference an exact
            # cancellation; those draws are excluded here and covered by the
            # dedicated acceptance test's filtered sampler
            if abs(atom.rz) < 1e-3:
                continue
            checked += 1
            rates = rate_set(p)
            direct = cooling_rate(p)
            assert rates.cooling_rate == pytest.approx(direct, rel=1e-10)
            n = steady_phonon(p)
            if not is_heating(n) and direct > 0:
                assert n * direct == pytest.approx(rates.a_rate_plus,
                                                   rel=1e-10)
