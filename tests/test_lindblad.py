"""Oracle module: generator structure, evolution, kernel solve.

The closed-form module enters only where its results are exact (eta = 0
coherence/inversion relaxation) or as a coarse cross-check; quantitative
analytic-vs-oracle comparisons at finite eta live in the acceptance suite.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dressedcool import lindblad
from dressedcool.analytic import (
    DressedInit,
    rate_set,
    reduced_phonon_evolve,
    steady_atom,
    steady_phonon,
    trajectory,
)
from dressedcool.errors import (
    DimensionOverflowError,
    InvalidGridError,
    InvalidParamsError,
    NoSteadyStateError,
    TruncationBreachError,
)
from dressedcool.lindblad import (
    SVD_DIM_MAX,
    ConvergenceRun,
    build_liouvillian,
    converged_steady_state,
    evolve,
    product_state,
    steady_state,
    thermal_phonon,
)
from dressedcool.params import PhysicalParams, dressed_frame


def make(**overrides):
    base = dict(omega=5.0, delta=0.0, nu=2.0, eta=0.1,
                gamma_plus=1.0, gamma_minus=0.2, gamma_zero=0.2)
    base.update(overrides)
    return PhysicalParams(**base)


FIG2_POINT = make()
RESONANT_POINT = make(delta=2.0 * math.sqrt(11.0), nu=12.0,
                      gamma_minus=1.0, gamma_zero=1.0)
# Matched sideband (nu = 2*omega_bar) and weak coupling: the regime where
# the closed form tracks the full equation to better than a percent, used
# for the quantitative kernel-solve cross-checks below.  Off-sideband
# points (e.g. FIG2_POINT, mismatch 8) disagree strongly and on purpose:
# the closed form keeps only the co-rotating sideband.
AGREE_POINT = make(nu=10.0, eta=0.02)

LOWER = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
MIXED = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]], dtype=complex)


def test_oracle_takes_nothing_from_the_closed_form():
    # the oracle is an independent cross-check of the analytic module only
    # while it imports nothing from it: inside the package it may use the
    # model inputs and the error types, nothing else
    tree = ast.parse(Path(lindblad.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported
               if name.startswith((".", "dressedcool"))}
    assert package == {".errors", ".params"}


@pytest.fixture(scope="module")
def agree_liouv():
    return build_liouvillian(AGREE_POINT, 12)


@pytest.fixture(scope="module")
def agree_steady(agree_liouv):
    return steady_state(agree_liouv)


class TestBuild:
    def test_rejects_small_n_max(self):
        with pytest.raises(InvalidParamsError) as err:
            build_liouvillian(FIG2_POINT, 1)
        assert err.value.field == "n_max"

    @pytest.mark.parametrize("n_max", [math.nan, math.inf, 4.5])
    def test_rejects_non_integer_n_max(self, n_max):
        with pytest.raises(InvalidParamsError) as err:
            build_liouvillian(FIG2_POINT, n_max)
        assert err.value.field == "n_max"

    def test_rejects_dimension_over_cap(self):
        with pytest.raises(DimensionOverflowError):
            build_liouvillian(FIG2_POINT, 64)
        with pytest.raises(DimensionOverflowError):
            build_liouvillian(FIG2_POINT, 8, dim_cap=16)

    def test_dimensions_and_metadata(self, agree_liouv):
        assert agree_liouv.dim == 26
        assert agree_liouv.n_max == 12
        assert agree_liouv.matrix.shape == (676, 676)
        assert agree_liouv.params == AGREE_POINT

    def test_trace_preservation_row(self):
        for p in (FIG2_POINT, RESONANT_POINT, make(delta=-3.3, nu=7.1)):
            liouv = build_liouvillian(p, 6)
            d = liouv.dim
            trace_row = np.zeros(d * d, dtype=complex)
            trace_row[:: d + 1] = 1.0
            drift = trace_row @ liouv.matrix
            assert np.abs(drift).max() < 1e-12

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(5)
        liouv = build_liouvillian(make(delta=-2.0, nu=9.0), 5)
        d = liouv.dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        via_apply = liouv.apply(rho)
        via_matrix = (liouv.matrix @ rho.reshape(-1, order="F")).reshape(
            d, d, order="F")
        scale = np.abs(via_matrix).max()
        assert np.abs(via_apply - via_matrix).max() < 1e-13 * scale

    def test_rhs_of_hermitian_is_hermitian(self):
        liouv = build_liouvillian(RESONANT_POINT, 5)
        rng = np.random.default_rng(9)
        d = liouv.dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = 0.5 * (m + m.conj().T)
        out = liouv.apply(rho)
        assert np.abs(out - out.conj().T).max() < 1e-12 * np.abs(out).max()

    def test_hamiltonian_only_spectrum_is_imaginary(self):
        # vanishing decay (gamma_zero tiny to satisfy validation) leaves a
        # purely Hamiltonian generator: spectrum on the imaginary axis
        p = make(gamma_plus=0.0, gamma_minus=0.0, gamma_zero=1e-30)
        liouv = build_liouvillian(p, 3)
        eigs = np.linalg.eigvals(liouv.matrix.toarray())
        assert np.abs(eigs.real).max() < 1e-10

    def test_generator_nbytes_counts_stored_arrays(self, agree_liouv):
        m = agree_liouv.matrix
        assert m.nbytes == (m.data.nbytes + m.indices.nbytes
                            + m.indptr.nbytes)

    def test_basis_conventions(self):
        liouv = build_liouvillian(FIG2_POINT, 4)
        rho = product_state(LOWER, thermal_phonon(4, 0.0))
        rz, rplus, n, tail = liouv.expectations(rho)
        assert rz == pytest.approx(-1.0)
        assert rplus == pytest.approx(0.0)
        assert n == pytest.approx(0.0)
        assert tail == pytest.approx(0.0)
        two = np.zeros((5, 5), dtype=complex)
        two[2, 2] = 1.0
        _, _, n2, _ = liouv.expectations(product_state(MIXED, two))
        assert n2 == pytest.approx(2.0)
        assert np.trace(
            product_state(MIXED, two) @ liouv.rplus_op) == pytest.approx(
                0.3 - 0.1j)


class TestStateHelpers:
    def test_vacuum(self):
        v = thermal_phonon(6, 0.0)
        assert v.shape == (7, 7)
        assert np.trace(v) == 1.0

    def test_thermal_mean_and_cut(self):
        th = thermal_phonon(60, 2.0)
        ns = np.arange(61)
        assert np.trace(th).real == pytest.approx(1.0, abs=1e-14)
        assert (np.diag(th).real * ns).sum() == pytest.approx(2.0, abs=1e-6)
        cut = thermal_phonon(20, 2.0, cut=12)
        pops = np.diag(cut).real
        assert pops[13:].max() == 0.0
        assert np.trace(cut).real == pytest.approx(1.0, abs=1e-14)

    def test_thermal_rejects_negative(self):
        with pytest.raises(InvalidParamsError):
            thermal_phonon(10, -0.5)

    def test_product_shapes(self):
        with pytest.raises(InvalidParamsError):
            product_state(np.eye(3), thermal_phonon(4, 0.0))
        rho = product_state(MIXED, thermal_phonon(4, 0.0))
        assert rho.shape == (10, 10)
        assert np.trace(rho) == pytest.approx(1.0)


class TestEvolve:
    def test_t_end_zero_returns_initial(self):
        liouv = build_liouvillian(FIG2_POINT, 4)
        rho0 = product_state(LOWER, thermal_phonon(4, 0.0))
        res = evolve(liouv, rho0, 0.0)
        assert res.times.tolist() == [0.0]
        assert np.array_equal(res.states[0], rho0)

    def test_negative_t_end_rejected(self):
        liouv = build_liouvillian(FIG2_POINT, 4)
        rho0 = product_state(LOWER, thermal_phonon(4, 0.0))
        with pytest.raises(InvalidGridError):
            evolve(liouv, rho0, -1.0)

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, 1, math.nan,
                                           math.inf])
    def test_bad_sample_count_rejected(self, n_samples):
        # one sample cannot hold both ends of the interval
        liouv = build_liouvillian(AGREE_POINT, 4)
        rho0 = product_state(LOWER, thermal_phonon(4, 0.0))
        with pytest.raises(InvalidGridError, match="n_samples"):
            evolve(liouv, rho0, 1.0, n_samples=n_samples)

    def test_two_samples_are_both_ends(self):
        liouv = build_liouvillian(AGREE_POINT, 4)
        rho0 = product_state(LOWER, thermal_phonon(4, 0.0))
        assert evolve(liouv, rho0, 1.0, n_samples=2).times.tolist() == [
            0.0, 1.0]

    @pytest.mark.parametrize("mutate", ["herm", "trace", "shape", "positive"])
    def test_bad_initial_state_rejected(self, mutate):
        liouv = build_liouvillian(FIG2_POINT, 4)
        rho0 = product_state(MIXED, thermal_phonon(4, 0.0))
        if mutate == "herm":
            rho0[0, 1] += 1e-6
        elif mutate == "trace":
            rho0 *= 1.001
        elif mutate == "shape":
            rho0 = rho0[:6, :6]
        else:  # trace-preserving, Hermitian, but one population negative
            rho0[9, 9] -= 0.01
            rho0[0, 0] += 0.01
        with pytest.raises(InvalidParamsError) as err:
            evolve(liouv, rho0, 1.0)
        assert err.value.field == "rho0"

    def test_eta_zero_exact_dynamics(self):
        # with the phonon decoupled, the closed forms are exact: the raw
        # dressed coherence carries an extra rotation at 2*omega_bar on top
        # of the analytic envelope
        p = make(delta=-5.0, eta=0.0)
        liouv = build_liouvillian(p, 3)
        rho0 = product_state(MIXED, thermal_phonon(3, 0.0))
        res = evolve(liouv, rho0, 3.0, n_samples=61)
        f = dressed_frame(p)
        rates = rate_set(p)
        atom = steady_atom(p)
        t = res.times
        rp_expected = (0.3 - 0.1j) * np.exp(
            (2j * f.omega_bar - rates.gamma_perp) * t)
        rz_expected = (-0.2 - atom.rz) * np.exp(-2.0 * rates.gamma_s * t) + atom.rz
        assert np.abs(res.rplus - rp_expected).max() < 1e-8
        assert np.abs(res.rz - rz_expected).max() < 1e-8
        assert np.abs(res.n).max() < 1e-10
        assert res.tail_mass.max() < 1e-12

    def test_eta_zero_phonon_sector_untouched(self):
        p = make(eta=0.0)
        liouv = build_liouvillian(p, 5)
        phonon = thermal_phonon(5, 0.4, cut=3)
        rho0 = product_state(MIXED, phonon)
        n0 = (np.diag(phonon).real * np.arange(6)).sum()
        res = evolve(liouv, rho0, 2.0, n_samples=21)
        assert np.abs(res.n - n0).max() < 1e-9

    def test_diagnostics_within_bounds(self):
        liouv = build_liouvillian(RESONANT_POINT, 10)
        rho0 = product_state(MIXED, thermal_phonon(10, 0.5, cut=4))
        res = evolve(liouv, rho0, 5.0, n_samples=51)
        assert res.trace_err.max() < 1e-8
        assert res.herm_defect.max() < 1e-10
        assert res.min_eig.min() > -1e-10

    def test_pure_state_positivity_dip_is_bounded(self):
        # The second-order recoil correction is not an exactly
        # completely-positive generator.  Evolving from a rank-one state
        # lets the smallest eigenvalue dip slightly negative during the
        # early transient (scale ~ eta^4, here ~1e-8); it is a property
        # of the equation itself, not integrator error, so the test only
        # bounds it.  Full-rank initial states stay positive to roundoff.
        liouv = build_liouvillian(RESONANT_POINT, 8)
        rho0 = product_state(LOWER, thermal_phonon(8, 0.0))
        res = evolve(liouv, rho0, 5.0, n_samples=51)
        assert res.trace_err.max() < 1e-8
        assert res.herm_defect.max() < 1e-10
        assert res.min_eig.min() > -5e-8

    def test_truncation_breach_raises(self):
        liouv = build_liouvillian(FIG2_POINT, 2)
        rho0 = product_state(LOWER, thermal_phonon(2, 2.0))
        with pytest.raises(TruncationBreachError):
            evolve(liouv, rho0, 0.5)


class TestSteadyState:
    def test_matched_sideband_point_against_closed_form(self, agree_steady):
        assert agree_steady.n == pytest.approx(steady_phonon(AGREE_POINT),
                                               rel=0.02)
        atom = steady_atom(AGREE_POINT)
        assert agree_steady.rz == pytest.approx(atom.rz, rel=0.005)

    def test_certificates(self, agree_steady):
        assert agree_steady.residual < 1e-10
        assert agree_steady.rcond > 1e-12
        assert agree_steady.herm_defect < 1e-10
        assert agree_steady.min_eig > -1e-10
        assert abs(np.trace(agree_steady.rho).real - 1.0) < 1e-14
        assert agree_steady.tail_mass < 1e-6

    def test_resonant_point_matches_example(self):
        res = steady_state(build_liouvillian(RESONANT_POINT, 12))
        assert res.n == pytest.approx(0.0972297628592416, rel=0.15)

    def test_matches_dense_lu_and_zgecon(self):
        # independent dense route: LAPACK LU and zgecon on the same
        # trace-constrained system
        liouv = build_liouvillian(RESONANT_POINT, 12)
        res = steady_state(liouv)
        d = liouv.dim
        constrained = liouv.matrix.toarray()
        constrained[0, :] = 0.0
        constrained[0, :: d + 1] = 1.0
        lu, piv = scipy.linalg.lu_factor(constrained)
        rcond, info = scipy.linalg.lapack.zgecon(
            lu, np.abs(constrained).sum(axis=0).max())
        assert info == 0
        rhs = np.zeros(d * d, dtype=complex)
        rhs[0] = 1.0
        rho = scipy.linalg.lu_solve((lu, piv), rhs).reshape(d, d, order="F")
        rho = 0.5 * (rho + rho.conj().T)
        n = np.trace(liouv.number_op @ rho).real / np.trace(rho).real
        assert res.n == pytest.approx(n, rel=1e-12)
        assert res.rcond == pytest.approx(rcond, rel=1e-6)

    def test_condition_estimate_is_deterministic(self, agree_liouv):
        before = np.random.get_state()
        first = steady_state(agree_liouv).rcond
        second = steady_state(agree_liouv).rcond
        after = np.random.get_state()
        assert first == second
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_eta_zero_has_no_unique_kernel(self):
        liouv = build_liouvillian(make(eta=0.0), 3)
        with pytest.raises(NoSteadyStateError) as err:
            steady_state(liouv)
        sv = err.value.smallest_singular_values
        assert sv is not None
        assert sv[0] < 1e-10 and sv[1] < 1e-10

    def test_eta_zero_above_svd_bound_raises_without_singular_values(self):
        # the first Fock cut whose dimension 2 (n_max + 1) exceeds the bound
        liouv = build_liouvillian(make(eta=0.0), SVD_DIM_MAX // 2)
        assert liouv.dim > SVD_DIM_MAX
        with pytest.raises(NoSteadyStateError,
                           match="singular values not computed") as err:
            steady_state(liouv)
        assert err.value.smallest_singular_values is None

    @pytest.mark.parametrize("n_max, with_values", [(4, True), (12, False)])
    def test_rcond_floor_rejects_near_conserved_phonon(self, n_max,
                                                       with_values):
        # a mode frequency near 0 nearly conserves the phonon number, so
        # the kernel is close to degenerate: the LU factorization succeeds
        # but the condition estimate falls far below RCOND_FLOOR (1.7e-17
        # at n_max 4, 8.0e-18 at n_max 12)
        liouv = build_liouvillian(make(nu=1e-8), n_max)
        with pytest.raises(NoSteadyStateError, match="ill-conditioned") as err:
            steady_state(liouv)
        assert (err.value.smallest_singular_values is not None) == with_values

    def test_agrees_with_long_time_evolution(self):
        liouv = build_liouvillian(RESONANT_POINT, 8)
        target = steady_state(liouv)
        rho0 = product_state(LOWER, thermal_phonon(8, 0.0))
        res = evolve(liouv, rho0, 60.0, n_samples=7)
        assert res.n[-1] == pytest.approx(target.n, abs=1e-5)
        assert res.rz[-1] == pytest.approx(target.rz, abs=1e-5)


class TestConvergedSteadyState:
    def test_converges_on_cold_point(self):
        run = converged_steady_state(AGREE_POINT, n_max_start=8)
        assert isinstance(run, ConvergenceRun)
        assert run.rel_change < 1e-4
        assert len(run.history) >= 2
        assert run.result.n_max == run.history[-1][0]
        assert run.n == pytest.approx(steady_phonon(AGREE_POINT), rel=0.02)

    def test_cap_breach_raises(self):
        with pytest.raises(TruncationBreachError):
            converged_steady_state(FIG2_POINT, n_max_start=4, dim_cap=12)


class TestReducedPhononEvolve:
    def test_matches_closed_form(self):
        times = np.linspace(0.0, 50.0, 101)
        ode = reduced_phonon_evolve(FIG2_POINT, 3.0, times)
        closed = trajectory(FIG2_POINT, DressedInit(rz=0.0, n=3.0), times).n
        assert np.abs(ode - closed).max() / np.abs(closed).max() < 1e-8

    def test_heating_grows(self):
        p = make(delta=-5.0, nu=12.0, gamma_minus=1.0, gamma_zero=1.0)
        times = np.linspace(0.0, 10.0, 21)
        ode = reduced_phonon_evolve(p, 0.5, times)
        closed = trajectory(p, DressedInit(rz=0.0, n=0.5), times).n
        assert np.all(np.diff(ode) > 0)
        assert np.abs(ode - closed).max() / np.abs(closed).max() < 1e-8

    def test_fixed_point_constant(self):
        n_s = steady_phonon(FIG2_POINT)
        ode = reduced_phonon_evolve(FIG2_POINT, n_s, np.linspace(0, 20, 11))
        assert np.abs(ode - n_s).max() < 1e-10

    def test_time_zero_grid(self):
        out = reduced_phonon_evolve(FIG2_POINT, 1.5, [0.0])
        assert out.tolist() == [1.5]

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidGridError):
            reduced_phonon_evolve(FIG2_POINT, 1.0, [1.0, 0.5])
