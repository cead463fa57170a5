"""Oracle module: generator structure, evolution, kernel solve.

The closed-form module enters only where its results are exact (eta = 0
coherence/inversion relaxation) or as a coarse cross-check; quantitative
analytic-vs-oracle comparisons at finite eta live in the acceptance suite.
"""

import ast
import dataclasses
import functools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import solve_ivp

from dressedcool import analytic, lindblad
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
    OracleError,
    TruncationBreachError,
)
from dressedcool.lindblad import (
    ConvergenceRun,
    Liouvillian,
    build_liouvillian,
    converged_steady_state,
    evolve,
    product_state,
    steady_state,
    thermal_phonon,
)
from dressedcool.params import RECOIL_SECOND_MOMENT, PhysicalParams, dressed_frame


def make(**overrides):
    base = dict(omega=5.0, delta=0.0, nu=2.0, eta=0.1,
                gamma_plus=1.0, gamma_minus=0.2, gamma_zero=0.2)
    base.update(overrides)
    return PhysicalParams(**base)


def no_build(*args, **kwargs):
    raise AssertionError("no generator may be built")


FIG2_POINT = make()
RESONANT_POINT = make(delta=2.0 * math.sqrt(11.0), nu=12.0,
                      gamma_minus=1.0, gamma_zero=1.0)
# Matched sideband (nu = 2*omega_bar) and weak coupling: the regime where
# the closed form tracks the full equation to better than a percent, used
# for the quantitative kernel-solve cross-checks below.  Off-sideband
# points (e.g. FIG2_POINT, mismatch 8) disagree strongly and on purpose:
# the closed form keeps only the co-rotating sideband.
AGREE_POINT = make(nu=10.0, eta=0.02)
# criterion 6's decay point at eta = 0.1
DECAY_POINT = make(delta=10.0, nu=12.0, gamma_minus=1.0, gamma_zero=1.0)

LOWER = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
MIXED = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]], dtype=complex)


def basis_parity(n_max):
    """(a + n) mod 2 of basis state |a, n> at index a * (n_max + 1) + n."""
    return np.array([(a + n) % 2 for a in (0, 1) for n in range(n_max + 1)])


def full_generator_run(liouv, rho0, times, rtol, atol):
    """(rz, rplus, n, states) from DOP853 on the whole complex generator
    kron_generator(liouv): the reference evolve's real coordinates are
    checked against."""
    d = liouv.dim
    lmat = kron_generator(liouv)
    sol = solve_ivp(lambda t, y: lmat @ y, (0.0, times[-1]),
                    rho0.reshape(-1, order="F"), method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    assert sol.success
    states = sol.y.T.reshape(-1, d, d).transpose(0, 2, 1)
    rz, rplus, n = zip(*(liouv.expectations(rho)[:3] for rho in states))
    return np.array(rz), np.array(rplus), np.array(n), states


def real_coordinates(dim, index):
    """(to_vec, to_real) for the slots `index` of column-stacked vec(rho),
    written slot by slot: slot (i, i) holds rho_ii, slot (i, j) with i < j
    Re rho_ij and slot (j, i) Im rho_ij."""
    where = {k: s for s, k in enumerate(index.tolist())}
    to_vec, to_real = [], []
    for s, k in enumerate(index.tolist()):
        i, j = k % dim, k // dim
        p = where[j + i * dim]
        if i == j:
            to_vec.append((s, s, 1))
            to_real.append((s, s, 1))
        elif i < j:         # rho_ij = x_s + i x_p
            to_vec += [(s, s, 1), (s, p, 1j)]
            to_real += [(s, s, 0.5), (s, p, 0.5)]
        else:               # rho_ij = conj(rho_ji) = x_p - i x_s
            to_vec += [(s, p, 1), (s, s, -1j)]
            to_real += [(s, s, 0.5j), (s, p, -0.5j)]

    def csr(entries):
        rows, cols, values = zip(*entries)
        return scipy.sparse.csr_array(
            (np.array(values, complex), (rows, cols)),
            shape=(len(index), len(index)))
    return csr(to_vec), csr(to_real)


@functools.lru_cache(maxsize=None)
def every_slot(dim):
    """real_coordinates over every slot of vec(rho)."""
    return real_coordinates(dim, np.arange(dim * dim))


def in_real_coordinates(lmat, dim):
    """T^-1 lmat T over every slot of vec(rho), T from every_slot, as
    canonical float64 CSR; its imaginary part must be exactly 0."""
    to_vec, to_real = every_slot(dim)
    product = to_real @ (lmat @ to_vec)
    assert np.all(product.data.imag == 0.0)
    real = scipy.sparse.csr_array(product.real)
    real.sum_duplicates()
    real.eliminate_zeros()
    return real


def sparse_kron(left, right):
    return scipy.sparse.kron(scipy.sparse.csr_array(left),
                             scipy.sparse.csr_array(right), format="csr")


def kron_generator(liouv):
    """The complex generator as scipy.sparse.kron products of the
    Liouvillian's own defining operators, derived again from its params
    and n_max, all ten terms of each channel summed as sparse matrices:
    the reference for the real assembly, written without it. A'A, X X
    and alpha eta^2 are formed here."""
    kron = sparse_kron
    h, x, channels = lindblad._operators(liouv.params, liouv.n_max)
    x2 = x @ x
    alpha = RECOIL_SECOND_MOMENT * liouv.params.eta ** 2
    eye = np.eye(liouv.dim)
    lmat = -1j * (kron(eye, h) - kron(h.T, eye))
    for rate, a in channels:
        n_op = a.conj().T @ a
        ax, ax2 = a @ x, a @ x2
        sandwich = kron(a.conj(), a)
        if alpha != 0.0:
            sandwich = sandwich + alpha * (
                kron(ax.conj(), ax)
                - 0.5 * kron(a.conj(), ax2)
                - 0.5 * kron(ax2.conj(), a))
        lmat += (2.0 * rate) * sandwich
        lmat -= rate * (kron(eye, n_op) + kron(n_op.T, eye))
    lmat = scipy.sparse.csr_array(lmat)
    lmat.sum_duplicates()
    lmat.eliminate_zeros()
    return lmat


def test_package_import_leaves_out_scipy_integrate():
    # every scipy module is imported where it runs, in the oracle's
    # functions and in the closed form's reduced ODE: scipy.sparse alone
    # would take most of the package's import time, which no closed-form
    # command needs
    code = ("import sys, dressedcool; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


def test_package_import_loads_lindblad_but_no_numpy():
    # the oracle module loads with the package (the benchmark reads its
    # line of `python -X importtime -c "import dressedcool"`), but each
    # function imports numpy where it runs, as it does scipy
    code = ("import sys, dressedcool; "
            "print('dressedcool.lindblad' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "True []\n"


def test_oracle_solves_after_an_import_without_scipy():
    # the first oracle call loads numpy and scipy itself: in a fresh
    # interpreter whose package import left both out, the steady state
    # and the closed-form trajectory are the ones made in this process,
    # and the generator still reports nbytes
    code = (
        "import sys\n"
        "import dressedcool\n"
        "from dressedcool import DressedInit, lindblad, trajectory\n"
        "from dressedcool.params import PhysicalParams\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('numpy', 'scipy')))\n"
        f"p = PhysicalParams(**{dataclasses.asdict(AGREE_POINT)!r})\n"
        "run = lindblad.converged_steady_state(p)\n"
        "m = lindblad.build_liouvillian(p, 4).matrix\n"
        "print(repr(run.n), run.history,\n"
        "      m.nbytes == m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)\n"
        "traj = trajectory(p, DressedInit(rz=0.0, n=3.0), [0.0, 5.0, 40.0])\n"
        "print(traj.n.tolist(), traj.rplus.tolist())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    run = converged_steady_state(AGREE_POINT)
    traj = trajectory(AGREE_POINT, DressedInit(rz=0.0, n=3.0),
                      [0.0, 5.0, 40.0])
    assert proc.stdout == (f"[]\n{run.n!r} {run.history} True\n"
                           f"{traj.n.tolist()} {traj.rplus.tolist()}\n")


def test_propagator_route_leaves_out_scipy_integrate():
    # a long decay of a small block takes the propagator, which needs no
    # integrator: the interpreter that ran it never loaded scipy.integrate
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from dressedcool import lindblad\n"
        "from dressedcool.params import PhysicalParams\n"
        f"p = PhysicalParams(**{dataclasses.asdict(DECAY_POINT)!r})\n"
        "liouv = lindblad.build_liouvillian(p, 8)\n"
        "rho0 = lindblad.product_state(np.diag([0.7, 0.3]),\n"
        "                              lindblad.thermal_phonon(8, 0.3, cut=2))\n"
        "taken, run = [], lindblad._propagator_samples\n"
        "lindblad._propagator_samples = (\n"
        "    lambda *args: taken.append(1) or run(*args))\n"
        "lindblad.evolve(liouv, rho0, 60.0)\n"
        "print(taken, sorted(m for m in sys.modules\n"
        "                    if m.startswith('scipy.integrate')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[1] []\n"


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
        assert str(err.value) == "n_max: must be an integer >= 2, got 1"

    @pytest.mark.parametrize("n_max", [math.nan, math.inf, 4.5])
    def test_rejects_non_integer_n_max(self, n_max):
        with pytest.raises(InvalidParamsError) as err:
            build_liouvillian(FIG2_POINT, n_max)
        assert err.value.field == "n_max"

    def test_rejects_eta_whose_square_overflows(self):
        # the closed form's text for the same square
        with pytest.raises(OverflowError) as err:
            build_liouvillian(make(nu=10.0, eta=1e200), 4)
        assert str(err.value) == "eta**2 overflows at eta = 1e+200"

    def test_whole_float_cut_is_an_int(self):
        liouv = build_liouvillian(FIG2_POINT, 4.0)
        assert type(liouv.n_max) is int and liouv.n_max == 4

    def test_rejects_dimension_over_cap(self):
        with pytest.raises(DimensionOverflowError):
            build_liouvillian(FIG2_POINT, 64)

    def test_dimensions_and_metadata(self, agree_liouv):
        assert agree_liouv.dim == 26
        assert agree_liouv.n_max == 12
        assert agree_liouv.matrix.shape == (676, 676)
        assert agree_liouv.params == AGREE_POINT

    def test_dim_is_derived_not_stored(self, agree_liouv):
        # one dimension rule, total_dim, and no stored copy of it
        assert "dim" not in {f.name for f in dataclasses.fields(Liouvillian)}
        # nor of the dense operators, which apply derives again
        assert {f.name for f in dataclasses.fields(Liouvillian)} == {
            "params", "n_max", "matrix"}
        assert agree_liouv.dim == lindblad.total_dim(agree_liouv.n_max) == \
            2 * (agree_liouv.n_max + 1)

    def test_trace_preservation_row(self):
        for p in (FIG2_POINT, RESONANT_POINT, make(delta=-3.3, nu=7.1)):
            liouv = build_liouvillian(p, 6)
            d = liouv.dim
            trace_row = np.zeros(d * d, dtype=complex)
            trace_row[:: d + 1] = 1.0
            drift = trace_row @ liouv.matrix
            assert np.abs(drift).max() < 1e-12

    def test_apply_matches_matrix(self):
        # in real coordinates, T from real_coordinates
        rng = np.random.default_rng(5)
        # eta = 0 leaves rho unsmeared in apply
        for p in (make(delta=-2.0, nu=9.0), make(delta=-2.0, nu=9.0, eta=0.0)):
            liouv = build_liouvillian(p, 5)
            d = liouv.dim
            _, to_real = every_slot(d)
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            via_apply = to_real @ liouv.apply(rho).reshape(-1, order="F")
            assert np.abs(via_apply.imag).max() < 1e-13 * np.abs(via_apply).max()
            via_matrix = liouv.matrix @ (
                to_real @ rho.reshape(-1, order="F")).real
            scale = np.abs(via_matrix).max()
            assert np.abs(via_apply.real - via_matrix).max() < 1e-13 * scale

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
        assert type(m) is scipy.sparse.csr_array
        assert m.nbytes == (m.data.nbytes + m.indices.nbytes
                            + m.indptr.nbytes)

    @pytest.mark.parametrize("n_max", [8, 63])
    @pytest.mark.parametrize("p", [AGREE_POINT, make(gamma_minus=0.0),
                                   make(delta=-3.3, nu=7.1)],
                             ids=["recoil", "dark-channel", "detuned"])
    def test_no_entry_crosses_parity_sectors(self, p, n_max):
        # rho_{an,bm} is even when (a + n) and (b + m) have one parity;
        # the block split evolve relies on holds for the assembled matrix
        parity = basis_parity(n_max)
        even = np.equal.outer(parity, parity).reshape(-1, order="F")
        liouv = build_liouvillian(p, n_max)
        assert np.array_equal(liouv.even, even)
        m = liouv.matrix
        assert m[even][:, ~even].nnz == 0
        assert m[~even][:, even].nnz == 0
        assert m[even][:, even].nnz > 0

    @pytest.mark.parametrize("sector", ["even", "all"])
    @pytest.mark.parametrize("n_max", [2, 8, 31, 63])
    @pytest.mark.parametrize("p", [
        PhysicalParams(omega=5.0, delta=10.0, nu=12.0, eta=0.05,
                       gamma_plus=1.0, gamma_minus=1.0, gamma_zero=1.0),
        make(eta=0.0), make(gamma_minus=0.0), make(delta=-3.3, nu=7.1, eta=0.3)],
        ids=["criterion-6", "eta-0", "dark-channel", "detuned-eta-0.3"])
    def test_real_form_is_the_generator_in_real_coordinates(self, p, n_max,
                                                            sector):
        # the block evolve integrates, and its coordinate helpers: with T
        # built here slot by slot on the sector, T L_r T^-1 gives back
        # the complex block of the kron reference, and the helpers are T
        # and T^-1 on a Hermitian rho
        liouv = build_liouvillian(p, n_max)
        d = liouv.dim
        if sector == "even":
            mask, l_r = liouv.even, liouv._even_block
            to_vec, to_real = real_coordinates(d, np.flatnonzero(mask))
        else:
            mask, l_r = np.ones(d * d, dtype=bool), liouv.matrix
            to_vec, to_real = every_slot(d)
        index = np.flatnonzero(mask)
        block = kron_generator(liouv)[index][:, index]
        assert l_r.dtype == np.float64
        assert abs(l_r - liouv.matrix[index][:, index]).max() == 0.0
        back = to_vec @ l_r @ to_real
        assert abs(back - block).max() <= 1e-15 * abs(block).max()
        rng = np.random.default_rng(n_max)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = (m + m.conj().T).reshape(-1, order="F")
        rho[~mask] = 0.0
        rho = rho.reshape(d, d, order="F")
        x = lindblad._to_real(rho).reshape(-1, order="F")
        assert np.all(x[~mask] == 0.0)
        assert np.array_equal(x[mask],
                              (to_real @ rho.reshape(-1, order="F")[mask]).real)
        assert np.array_equal(lindblad._from_real(lindblad._to_real(rho)), rho)

    @pytest.mark.parametrize("n_max", [2, 8, 22, 63])
    @pytest.mark.parametrize("p", [
        AGREE_POINT, RESONANT_POINT, make(eta=0.0), make(gamma_minus=0.0),
        make(gamma_zero=0.0),
        # all three channel rates underflow to 0: a Hamiltonian-only generator
        make(omega=1e-200, delta=1.0, gamma_plus=0.0, gamma_minus=0.0)],
        ids=["recoil", "resonant", "eta-0", "gamma-minus-0", "gamma-zero-0",
             "hamiltonian-only"])
    def test_matrix_is_the_sparse_kron_sum(self, p, n_max):
        # the real generator is T^-1 (kron sum) T, T built slot by slot
        liouv = build_liouvillian(p, n_max)
        if p.omega < 1e-100:
            channels = lindblad._operators(p, n_max)[2]
            assert [rate for rate, _ in channels] == [0.0, 0.0, 0.0]
        m = liouv.matrix
        ref = in_real_coordinates(kron_generator(liouv), liouv.dim)
        assert m.shape == ref.shape
        assert m.dtype == np.float64
        assert m.indices.dtype == m.indptr.dtype == np.int32
        assert m.has_canonical_format
        assert np.count_nonzero(m.data == 0) == 0
        # the same sums in another order
        assert abs(m - ref).max() <= 1e-15 * np.abs(ref.data).max()

    @pytest.mark.parametrize("n_max", [8, 22])
    @pytest.mark.parametrize("p", [
        # nu n_max overflows: inf and nan entries in the Hamiltonian
        make(nu=1e307),
        # recoil products that underflow to 0
        make(eta=1e-160),
        # and with them 2 * gamma_plus cos^4(theta) = inf, a scalar that
        # is not finite
        make(delta=100.0, gamma_plus=1e308, eta=1e-160)],
        ids=["huge-nu", "tiny-eta", "infinite-rate"])
    def test_matrix_is_the_sparse_kron_sum_beyond_float_range(self, p, n_max):
        # a generator entry beyond double range (nu n_max or twice a rate)
        # is refused at build; a finite generator whose kernel cannot be
        # certified goes through, and the steady solve refuses it
        with np.errstate(all="ignore"):
            if math.isinf(p.nu * n_max) or math.isinf(2.0 * p.gamma_plus):
                with pytest.raises(InvalidParamsError) as err:
                    build_liouvillian(p, n_max)
                assert err.value.field == "n_max"
                assert str(err.value) == (
                    "n_max: too large to evaluate: the generator has an "
                    f"entry beyond double range at n_max = {n_max}")
                return
            liouv = build_liouvillian(p, n_max)
        assert liouv.matrix.shape == (liouv.dim ** 2,) * 2
        with pytest.raises(NoSteadyStateError):
            steady_state(liouv)

    @pytest.mark.parametrize("seed", range(6))
    def test_assembly_matches_sparse_sums_on_any_factors(self, seed):
        # sparse non-Hermitian factors, signed zeros and terms that cancel
        # exactly; the values are dyadic, so every sum is exact in any order
        rng = np.random.default_rng(seed)
        dim = 4

        def factor():
            m = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0], size=(dim, dim, 2))
            m[rng.random((dim, dim)) < 0.5] = 0.0
            return m[..., 0] + 1j * m[..., 1]

        f = [factor() for _ in range(6)]
        terms = [(-1j, f[0], f[1]), (3.0, f[2], f[3]), (0.5, f[4], f[5]),
                 (-0.5, f[4], f[5]), (-0.25 + 1j, f[3], f[2]), (2.0, f[1], f[1])]
        got = lindblad._assemble(terms, dim)
        # each term and its mirror kron(conj(right), conj(left)), in real
        # coordinates
        ref = in_real_coordinates(
            sum(c * sparse_kron(left, right)
                + np.conj(c) * sparse_kron(right.conj(), left.conj())
                for c, left, right in terms), dim)
        assert got.dtype == np.float64
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.data, ref.data)
        assert np.count_nonzero(got.data == 0) == 0

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
        rplus_op = np.kron([[0.0, 0.0], [1.0, 0.0]], np.eye(5))
        assert np.trace(
            product_state(MIXED, two) @ rplus_op) == pytest.approx(0.3 - 0.1j)
        _, rplus2, _, _ = liouv.expectations(product_state(MIXED, two))
        assert rplus2 == pytest.approx(0.3 - 0.1j)

    @pytest.mark.parametrize("p, n_max", [
        (AGREE_POINT, 2), (make(eta=0.0), 63), (make(gamma_minus=0.0), 12),
        (make(eta=0.0, gamma_zero=0.0), 7), (RESONANT_POINT, 22),
        *((make(delta=float(d), nu=float(nu), eta=float(eta)), int(n_max))
          for d, nu, eta, n_max in zip(
              *np.random.default_rng(33).uniform(
                  [-20.0, 1.0, 0.0, 2.0], [20.0, 30.0, 0.3, 64.0],
                  size=(8, 4)).T))],
        ids=lambda v: None if isinstance(v, PhysicalParams) else f"n_max-{v}")
    def test_readout_is_the_dense_operator_products(self, p, n_max):
        # expectations reads rz and n off the diagonal of rho: the same
        # products the dense traces below form, summed in the same
        # pairwise order, so equal bit for bit. rplus sums the n_max + 1
        # entries of Tr(rho R+) without the n_max + 1 zeros the dense
        # trace adds, so it agrees to the rounding of that sum
        liouv = build_liouvillian(p, n_max)
        d, levels = liouv.dim, n_max + 1
        eye_ph = np.eye(levels)
        rz_op = np.kron(np.diag([-1.0, 1.0]), eye_ph).astype(complex)
        rplus_op = np.kron([[0.0, 0.0], [1.0, 0.0]], eye_ph).astype(complex)
        b = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1, levels)),
                                       k=1).astype(complex))
        number_op = b.conj().T @ b
        rng = np.random.default_rng(n_max)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        states = [m @ m.conj().T / np.trace(m @ m.conj().T).real,
                  product_state(MIXED, thermal_phonon(n_max, 0.5))]
        if d <= 46 and p.eta != 0.0:   # eta = 0 has no unique kernel
            states.append(steady_state(liouv).rho)
        for rho in states:
            rz, rplus, n, tail = liouv.expectations(rho)
            assert rz == np.trace(rz_op @ rho).real
            assert n == np.trace(number_op @ rho).real
            pops = np.diag(rho).real
            assert tail == pops[[n_max - 1, n_max, levels + n_max - 1,
                                 levels + n_max]].sum()
            terms = np.abs(np.diagonal(rho, offset=levels)).sum()
            assert abs(rplus - np.trace(rho @ rplus_op)) <= (
                4 * np.finfo(float).eps * terms)


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

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_thermal_rejects_non_finite(self, nbar):
        # nan slipped past "nbar < 0" and gave an all-nan state
        with pytest.raises(InvalidParamsError) as err:
            thermal_phonon(10, nbar)
        assert str(err.value) == f"nbar: must be finite, got {nbar}"

    @pytest.mark.parametrize("cut", [-1, 2.5, math.nan])
    def test_thermal_rejects_a_cut_that_is_not_a_count(self, cut):
        # cut = -1 divided by a zero weight sum (an all-nan state) and
        # cut = 2.5 ended in a TypeError from slicing
        with pytest.raises(InvalidParamsError) as err:
            thermal_phonon(8, 1.0, cut=cut)
        assert str(err.value) == f"cut: must be an integer >= 0, got {cut}"

    @pytest.mark.parametrize("n_max", [-1, 2.5, math.inf])
    def test_thermal_rejects_an_n_max_that_is_not_a_count(self, n_max):
        with pytest.raises(InvalidParamsError) as err:
            thermal_phonon(n_max, 1.0)
        assert str(err.value) == f"n_max: must be an integer >= 0, got {n_max}"

    def test_thermal_cut_at_zero_and_above_n_max(self):
        assert np.array_equal(thermal_phonon(4, 1.0, cut=0),
                              thermal_phonon(4, 0.0))
        assert np.array_equal(thermal_phonon(4, 1.0, cut=9),
                              thermal_phonon(4, 1.0))

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
        with pytest.raises(InvalidParamsError) as err:
            evolve(liouv, rho0, -1.0)
        assert str(err.value) == "t_end: must be >= 0, got -1.0"

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, 1, math.nan,
                                           math.inf])
    def test_bad_sample_count_rejected(self, n_samples):
        # one sample cannot hold both ends of the interval
        liouv = build_liouvillian(AGREE_POINT, 4)
        rho0 = product_state(LOWER, thermal_phonon(4, 0.0))
        with pytest.raises(InvalidParamsError) as err:
            evolve(liouv, rho0, 1.0, n_samples=n_samples)
        assert str(err.value) == (
            f"n_samples: must be an integer >= 2, got {n_samples}")

    @pytest.mark.parametrize("t_end", [0.5, 1e4],
                             ids=["dop853", "propagator"])
    @pytest.mark.parametrize("field, value, text", [
        ("rtol", math.nan, "must be finite, got nan"),
        ("rtol", 0.0, "must be > 0, got 0.0"),
        ("rtol", "x", "not a number: 'x'"),
        ("atol", math.nan, "must be finite, got nan"),
        ("atol", math.inf, "must be finite, got inf"),
        ("atol", -1.0, "must be >= 0, got -1.0")],
        ids=["rtol-nan", "rtol-0", "rtol-str", "atol-nan", "atol-inf",
             "atol-neg"])
    def test_bad_tolerance_rejected_before_any_work(self, field, value, text,
                                                    t_end, monkeypatch):
        # a nan tolerance would stall DOP853; both routes are refused
        # before either runs
        def no_route(*args):
            raise AssertionError("a route ran")
        monkeypatch.setattr(lindblad, "_propagator_samples", no_route)
        monkeypatch.setattr(lindblad, "_dop853_samples", no_route)
        liouv = build_liouvillian(AGREE_POINT, 4)
        rho0 = product_state(np.diag([0.5, 0.5]).astype(complex),
                             thermal_phonon(4, 0.1))
        with pytest.raises(InvalidParamsError) as err:
            evolve(liouv, rho0, t_end, n_samples=3, **{field: value})
        assert err.value.field == field
        assert str(err.value) == f"{field}: {text}"

    def test_two_samples_are_both_ends(self):
        liouv = build_liouvillian(AGREE_POINT, 4)
        rho0 = product_state(LOWER, thermal_phonon(4, 0.0))
        assert evolve(liouv, rho0, 1.0, n_samples=2).times.tolist() == [
            0.0, 1.0]

    @pytest.mark.parametrize("mutate", ["herm", "trace", "shape", "positive",
                                        "nan", "inf"])
    def test_bad_initial_state_rejected(self, mutate):
        liouv = build_liouvillian(FIG2_POINT, 4)
        rho0 = product_state(MIXED, thermal_phonon(4, 0.0))
        if mutate in ("nan", "inf"):   # every comparison with nan is False
            rho0[3, 3] = float(mutate)
        elif mutate == "herm":
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

    def test_diagonal_state_matches_full_generator(self):
        # no odd content: only the even sector is integrated, and the odd
        # entries of every sample stay exactly 0
        liouv = build_liouvillian(RESONANT_POINT, 8)
        rho0 = product_state(np.diag([0.7, 0.3]),
                             thermal_phonon(8, 0.3, cut=3))
        res = evolve(liouv, rho0, 1.0, n_samples=21, rtol=1e-10, atol=1e-14)
        rz, _, n, states = full_generator_run(liouv, rho0, res.times,
                                              1e-10, 1e-14)
        assert np.abs(res.n - n).max() <= 1e-9
        assert np.abs(res.rz - rz).max() <= 1e-9
        assert np.abs(res.states - states).max() <= 1e-9
        parity = basis_parity(8)
        odd = np.not_equal.outer(parity, parity)
        assert np.all(res.states[:, odd] == 0.0)
        # real coordinates keep every sample Hermitian by construction, so
        # herm_defect no longer tests the integrator: the complex run does
        assert np.all(res.herm_defect == 0.0)

    def test_odd_content_is_integrated(self):
        # the dressed coherence of MIXED is odd; it must still evolve
        liouv = build_liouvillian(RESONANT_POINT, 8)
        rho0 = product_state(MIXED, thermal_phonon(8, 0.3, cut=3))
        res = evolve(liouv, rho0, 1.0, n_samples=21, rtol=1e-10, atol=1e-14)
        _, rplus, _, states = full_generator_run(liouv, rho0, res.times,
                                                 1e-10, 1e-14)
        assert np.abs(res.rplus - rplus).max() <= 1e-9
        assert np.abs(res.rplus).min() > 1e-3
        assert np.abs(res.states - states).max() <= 1e-9
        assert np.all(res.herm_defect == 0.0)

    def test_truncation_breach_raises(self):
        liouv = build_liouvillian(FIG2_POINT, 2)
        rho0 = product_state(LOWER, thermal_phonon(2, 2.0))
        with pytest.raises(TruncationBreachError):
            evolve(liouv, rho0, 0.5)


class Routed(Exception):
    """Raised by a stand-in route to report which one evolve chose."""


def route_taken(liouv, rho0, t_end, **kwargs):
    """The name of the route helper evolve calls for these inputs, found
    with both helpers replaced by stand-ins that stop it."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_propagator_samples", "_dop853_samples"):
            def stop(*args, name=name):
                raise Routed(name)
            patch.setattr(lindblad, name, stop)
        with pytest.raises(Routed) as err:
            evolve(liouv, rho0, t_end, **kwargs)
    return str(err.value)


def decay_case(eta, n_max=18):
    """Criterion 6's decay: DECAY_POINT at eta, the closed-form atom and a
    thermal phonon (nbar 2, cut at 12); (liouv, rho0, C)."""
    p = dataclasses.replace(DECAY_POINT, eta=eta)
    atom = steady_atom(p)
    rho0 = product_state(np.diag([atom.r11, atom.r22]),
                         thermal_phonon(n_max, 2.0, cut=12))
    return build_liouvillian(p, n_max), rho0, rate_set(p).cooling_rate


def decay_block(eta):
    """The block criterion 6's long decay at eta steps (201 samples to
    7 / C): (even block, sample spacing dt, squarings s)."""
    liouv, rho0, c = decay_case(eta)
    gen = liouv._even_block
    dt = 7.0 / c / 200
    return gen, dt, lindblad._squarings(lindblad._norm1(gen) * dt)


FAILED_SOLVE_MESSAGE = "Required step size is less than spacing between numbers."


def failed_solve(*args, **kwargs):
    """A stand-in for scipy.integrate.solve_ivp that reports failure."""
    return SimpleNamespace(success=False, message=FAILED_SOLVE_MESSAGE)


class TestEvolveRoutes:
    def test_dop853_failure_is_an_oracle_error(self, monkeypatch):
        liouv = build_liouvillian(RESONANT_POINT, 4)
        rho0 = product_state(MIXED, thermal_phonon(4, 0.3, cut=2))
        assert route_taken(liouv, rho0, 1.0, n_samples=21) == "_dop853_samples"
        monkeypatch.setattr(scipy.integrate, "solve_ivp", failed_solve)
        with pytest.raises(OracleError) as err:
            evolve(liouv, rho0, 1.0, n_samples=21)
        assert str(err.value) == (
            f"integration failed: {FAILED_SOLVE_MESSAGE}")

    @pytest.mark.parametrize("atom", ["diagonal", "odd"])
    @pytest.mark.parametrize("t_end, n_samples, propagator", [
        (1.0, 21, False), (30.0, 61, True), (60.0, 201, True)])
    def test_routes_agree_on_one_block(self, atom, t_end, n_samples,
                                       propagator):
        # both route helpers on the block evolve would step, on both sides
        # of the rule's threshold, compared in the full density matrix
        liouv = build_liouvillian(RESONANT_POINT, 4)
        rho0 = product_state(np.diag([0.7, 0.3]) if atom == "diagonal"
                             else MIXED, thermal_phonon(4, 0.3, cut=2))
        x0 = lindblad._to_real(rho0).reshape(-1, order="F")
        if atom == "diagonal":
            sector, gen = liouv.even, liouv._even_block
            assert not x0[~sector].any()
        else:
            sector, gen = np.ones(liouv.dim ** 2, dtype=bool), liouv.matrix
        times = np.linspace(0.0, t_end, n_samples)
        dt = t_end / (n_samples - 1)
        norm = lindblad._norm1(gen)
        s = lindblad._squarings(norm * dt)
        assert lindblad._takes_propagator(gen.shape[0], norm * t_end,
                                          s) is propagator
        assert route_taken(liouv, rho0, t_end, n_samples=n_samples) == (
            "_propagator_samples" if propagator else "_dop853_samples")
        by_taylor = lindblad._rebuild(liouv.dim, sector,
                                      lindblad._propagator_samples(
                                          gen, x0[sector], dt, n_samples, s))
        by_dop853 = lindblad._rebuild(liouv.dim, sector,
                                      lindblad._dop853_samples(
                                          gen, x0[sector], times, 1e-10,
                                          1e-14))
        assert np.abs(by_taylor - by_dop853).max() <= 1e-9
        assert np.array_equal(by_taylor[0], rho0)

    def test_propagator_route_matches_full_generator(self):
        # the independent reference: DOP853 on the whole complex generator
        liouv = build_liouvillian(DECAY_POINT, 8)
        rho0 = product_state(MIXED, thermal_phonon(8, 0.3, cut=2))
        assert route_taken(liouv, rho0, 30.0, n_samples=61) == (
            "_propagator_samples")
        res = evolve(liouv, rho0, 30.0, n_samples=61)
        rz, rplus, n, states = full_generator_run(liouv, rho0, res.times,
                                                  1e-10, 1e-14)
        assert np.abs(res.states - states).max() <= 1e-9
        assert np.abs(res.n - n).max() <= 1e-9
        assert np.abs(res.rplus - rplus).max() <= 1e-9
        assert res.trace_err.max() <= 1e-8
        assert np.all(res.herm_defect == 0.0)

    @pytest.mark.parametrize("dt, s", [(1e-3, 0), (0.02, 0), (0.5, 5),
                                       (3.0, 8)])
    def test_propagator_is_the_exponential(self, dt, s):
        gen = build_liouvillian(RESONANT_POINT, 4)._even_block
        assert lindblad._squarings(lindblad._norm1(gen) * dt) == s
        expected = scipy.linalg.expm(gen.toarray() * dt)
        assert np.abs(lindblad._propagator(gen, dt, s)
                      - expected).max() <= 1e-13

    def test_propagator_is_the_exponential_at_criterion_6_size(self):
        gen, dt, s = decay_block(0.05)
        assert (gen.shape[0], s) == (722, 9)
        expected = scipy.linalg.expm(gen.toarray() * dt)
        assert np.abs(lindblad._propagator(gen, dt, s)
                      - expected).max() <= 1e-10

    def test_propagator_workspace(self):
        # two dense u x u buffers and a scaled sparse copy of the block:
        # no third dense buffer, and no mask for the finiteness check
        gen, dt, s = decay_block(0.1)
        u = gen.shape[0]
        assert (u, s) == (722, 7)
        tracemalloc.start()
        try:
            lindblad._propagator(gen, dt, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * u * u * 8

    @pytest.mark.parametrize("atom", ["diagonal", "odd"])
    def test_propagator_route_leaves_the_cached_generator(self, atom):
        # the diagonal state steps the cached even block, the odd one the
        # whole matrix; both stay as they were, so a repeat is identical
        liouv = build_liouvillian(DECAY_POINT, 8)
        rho0 = product_state(np.diag([0.7, 0.3]) if atom == "diagonal"
                             else MIXED, thermal_phonon(8, 0.3, cut=2))
        assert route_taken(liouv, rho0, 30.0, n_samples=61) == (
            "_propagator_samples")
        cached = [liouv.matrix, liouv._even_block]
        before = [(m.data.copy(), m.indices.copy(), m.indptr.copy())
                  for m in cached]
        first = evolve(liouv, rho0, 30.0, n_samples=61)
        for m, (data, indices, indptr) in zip(cached, before):
            assert np.array_equal(m.data, data)
            assert np.array_equal(m.indices, indices)
            assert np.array_equal(m.indptr, indptr)
        second = evolve(liouv, rho0, 30.0, n_samples=61)
        assert np.array_equal(second.states, first.states)

    def test_propagator_is_the_degree_18_taylor_polynomial(self):
        # on the nilpotent shift N (1-norm 1, so no squaring) row 0 of the
        # polynomial holds its coefficients 1/j!, up to j = 18 and no further
        gen = scipy.sparse.csr_array(np.eye(24, k=1))
        assert lindblad._squarings(lindblad._norm1(gen)) == 0
        row = lindblad._propagator(gen, 1.0, 0)[0]
        coeff = [1.0 / math.factorial(j) for j in range(19)]
        assert np.allclose(row[:19], coeff, rtol=1e-14, atol=0.0)
        assert np.all(row[19:] == 0.0)

    def test_squarings_follow_the_degree_18_bound(self):
        theta = lindblad._TAYLOR_THETA
        assert lindblad._squarings(0.0) == 0
        assert lindblad._squarings(theta) == 0
        assert lindblad._squarings(1.01 * theta) == 1
        assert lindblad._squarings(2.0 * theta) == 1
        assert lindblad._squarings(2.01 * theta) == 2

    def test_propagator_that_is_not_finite_raises(self):
        # a generator growing as e^(1000 t): the squarings overflow
        gen = scipy.sparse.csr_array(np.array([[1e3]]))
        with pytest.raises(OracleError) as err:
            lindblad._propagator(gen, 1.0, lindblad._squarings(1e3))
        assert str(err.value) == "propagator has entries that are not finite"

    def test_workspace_ceiling(self):
        # the ceiling: 3 u^2 doubles within 64 MB, u <= 1,632 unknowns,
        # above the propagator's two dense u x u buffers and sparse copy
        assert lindblad._takes_propagator(1632, 1e12, 0)
        assert not lindblad._takes_propagator(1633, 1e12, 0)

    @pytest.mark.parametrize("eta", [0.05, 0.1])
    def test_criterion_6_decays_take_the_propagator(self, eta):
        liouv, rho0, c = decay_case(eta)
        assert route_taken(liouv, rho0, 7.0 / c, n_samples=201, rtol=1e-10,
                           atol=1e-14) == "_propagator_samples"

    def test_probe_decay_takes_dop853(self):
        liouv, rho0, c = decay_case(0.1)
        assert route_taken(liouv, rho0, 0.25 / c, n_samples=11, rtol=1e-10,
                           atol=1e-14) == "_dop853_samples"

    def test_block_over_the_workspace_ceiling_takes_dop853(self):
        # the even block at n_max 31 has 2,048 unknowns; criterion 6's long
        # decay would favour the propagator by calls alone
        liouv, rho0, c = decay_case(0.1, n_max=31)
        gen = liouv._even_block
        assert gen.shape[0] == 2048
        norm_t_end = lindblad._norm1(gen) * 7.0 / c
        s = lindblad._squarings(norm_t_end / 200)
        assert 2.5 * norm_t_end > (18 + s) * 2048
        assert route_taken(liouv, rho0, 7.0 / c, n_samples=201, rtol=1e-10,
                           atol=1e-14) == "_dop853_samples"


class TestSteadyState:
    def test_matched_sideband_point_against_closed_form(self, agree_steady):
        assert agree_steady.n == pytest.approx(steady_phonon(AGREE_POINT),
                                               rel=0.02)
        atom = steady_atom(AGREE_POINT)
        assert agree_steady.rz == pytest.approx(atom.rz, rel=0.005)

    def test_certificates(self, agree_steady):
        assert agree_steady.residual < 1e-10
        assert agree_steady.rcond > 1e-12
        assert agree_steady.herm_defect == 0.0
        assert agree_steady.min_eig > -1e-10
        assert abs(np.trace(agree_steady.rho).real - 1.0) < 1e-14
        assert agree_steady.tail_mass < 1e-6

    def test_herm_defect_is_measured(self, agree_liouv, monkeypatch):
        # a reconstruction that loses Hermiticity shows in herm_defect
        from_real = lindblad._from_real
        monkeypatch.setattr(
            lindblad, "_from_real",
            lambda xmat: from_real(xmat) + 1e-9j * np.eye(len(xmat)))
        res = steady_state(agree_liouv)
        assert res.herm_defect == pytest.approx(2e-9, rel=1e-6)

    def test_resonant_point_matches_example(self):
        res = steady_state(build_liouvillian(RESONANT_POINT, 12))
        assert res.n == pytest.approx(0.0972297628592416, rel=0.15)

    @pytest.mark.parametrize("p", [
        RESONANT_POINT, AGREE_POINT, FIG2_POINT, make(delta=-3.3, nu=7.1),
        make(gamma_minus=0.0), make(gamma_zero=0.0)],
        ids=["resonant", "agree", "fig2", "detuned", "no-gamma-minus",
             "no-gamma-zero"])
    def test_matches_dense_lu_and_zgecon(self, p):
        # independent dense routes, at resonance, off it and with one
        # dissipative channel dark: LAPACK LU of the complex kron reference
        # constrained by the trace for n, and dgecon on the real
        # trace-constrained system the oracle factors for rcond
        liouv = build_liouvillian(p, 12)
        res = steady_state(liouv)
        d = liouv.dim
        real = liouv.matrix.toarray()
        real[0, :] = 0.0
        real[0, :: d + 1] = 1.0
        lu, _ = scipy.linalg.lu_factor(real)
        rcond, info = scipy.linalg.lapack.dgecon(
            lu, np.abs(real).sum(axis=0).max())
        assert info == 0
        constrained = kron_generator(liouv).toarray()
        constrained[0, :] = 0.0
        constrained[0, :: d + 1] = 1.0
        lu, piv = scipy.linalg.lu_factor(constrained)
        rhs = np.zeros(d * d, dtype=complex)
        rhs[0] = 1.0
        rho = scipy.linalg.lu_solve((lu, piv), rhs).reshape(d, d, order="F")
        rho = 0.5 * (rho + rho.conj().T)
        ann = np.diag(np.sqrt(np.arange(1, liouv.n_max + 1)), k=1)
        number_op = np.kron(np.eye(2), ann.T @ ann)
        n = np.trace(number_op @ rho).real / np.trace(rho).real
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
        # dimensions 8 and 18: the message does not depend on the size
        for n_max in (3, 8):
            liouv = build_liouvillian(make(eta=0.0), n_max)
            with pytest.raises(NoSteadyStateError) as err:
                steady_state(liouv)
            assert str(err.value) == "constrained system is exactly singular"
            assert err.value.__cause__ is None
            assert err.value.__suppress_context__

    @pytest.mark.parametrize("n_max", [4, 12])
    def test_rcond_floor_rejects_near_conserved_phonon(self, n_max):
        # a mode frequency near 0 nearly conserves the phonon number, so
        # the kernel is close to degenerate: the LU factorization succeeds
        # but the condition estimate falls far below RCOND_FLOOR (1.7e-17
        # at n_max 4, 8.0e-18 at n_max 12)
        liouv = build_liouvillian(make(nu=1e-8), n_max)
        with pytest.raises(NoSteadyStateError) as err:
            steady_state(liouv)
        message = str(err.value)
        assert message.startswith("constrained solve ill-conditioned "
                                  "(rcond = ")
        assert message.endswith("); kernel is not one-dimensional "
                                "within tolerance")

    def test_residual_refuses_a_solve_off_the_kernel(self, agree_liouv,
                                                      monkeypatch):
        # the factor's solve is moved off the kernel by 1e-6 in slot 1
        # (Im rho_01), too little to move the condition estimate; the
        # residual, measured against the unmodified generator, refuses it
        real_splu = scipy.sparse.linalg.splu

        class OffKernel:
            def __init__(self, lu):
                self.lu, self.shape = lu, lu.shape

            def solve(self, rhs, trans="N"):
                x = self.lu.solve(rhs, trans=trans)
                x[1] += 1e-6
                return x

        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda a: OffKernel(real_splu(a)))
        with pytest.raises(NoSteadyStateError) as err:
            steady_state(agree_liouv)
        residual = 1e-6 * abs(agree_liouv.matrix[:, [1]]).max()
        assert residual > lindblad.RESIDUAL_TOL
        assert str(err.value) == (
            f"kernel residual {residual:.3e} exceeds 1.0e-10")

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

    @pytest.mark.parametrize("dim_cap, bound", [
        (140, "<= 128 (the largest allowed dimension)"),
        # below the smallest generator's dimension, 6; the id names that floor
        pytest.param(5, "an integer >= 6",
                     id="5->= 6 (the smallest generator)"),
    ])
    def test_budget_outside_range_builds_nothing(self, dim_cap, bound,
                                                 monkeypatch):
        monkeypatch.setattr(lindblad, "build_liouvillian", no_build)
        with pytest.raises(InvalidParamsError) as err:
            converged_steady_state(FIG2_POINT, n_max_start=64,
                                   dim_cap=dim_cap)
        assert err.value.field == "dim_cap"
        assert str(err.value) == f"dim_cap: must be {bound}, got {dim_cap}"

    def test_first_cut_over_budget_builds_nothing(self, monkeypatch):
        monkeypatch.setattr(lindblad, "build_liouvillian", no_build)
        with pytest.raises(DimensionOverflowError) as err:
            converged_steady_state(FIG2_POINT, n_max_start=8, dim_cap=16)
        assert str(err.value) == (
            "total dimension 18 = 2*(n_max+1) exceeds cap 16; "
            "superoperator would be 324 x 324")


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

    def test_integrator_failure_is_an_oracle_error(self, monkeypatch):
        monkeypatch.setattr(scipy.integrate, "solve_ivp", failed_solve)
        with pytest.raises(OracleError) as err:
            reduced_phonon_evolve(FIG2_POINT, 1.5, [0.0, 1.0])
        assert str(err.value) == (
            f"reduced-model integration failed: {FAILED_SOLVE_MESSAGE}")

    def test_work_bound_refused_before_any_step(self, monkeypatch):
        monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k:
                            pytest.fail("the ODE must not be integrated"))
        c = rate_set(AGREE_POINT).cooling_rate
        with pytest.raises(InvalidGridError) as err:
            reduced_phonon_evolve(AGREE_POINT, 1.0, [0.0, 1.5e5 / c])
        assert str(err.value) == ("|C|*t_end = 1.5e+05 e-folds exceeds the "
                                  "reduced ODE's bound of 1e+05")

    def test_non_finite_sample_is_an_overflow(self):
        # n0 near the double limit: DOP853's stages overflow to nan, which
        # no RuntimeWarning reports
        with pytest.raises(OverflowError, match="^n_ode evaluates to nan$"):
            reduced_phonon_evolve(AGREE_POINT, 1e308, [0.0, 2.5, 5.0])

    def test_overflowing_growth_is_an_overflow(self):
        # C = -0.0070: e^{|C| t} overflows between t = 1e5 and 1.013e5;
        # the ODE follows the closed form up to there, and is refused
        # before any step where trajectory writes n = +inf
        p = make(nu=10.0, eta=0.02, gamma_minus=2.0)
        init = DressedInit(rz=0.0, n=1.0)
        ode = reduced_phonon_evolve(p, 1.0, [0.0, 1e5])
        closed = trajectory(p, init, [0.0, 1e5]).n
        assert 1e305 < closed[-1] < np.inf
        assert abs(ode[-1] / closed[-1] - 1.0) < 1e-8
        for t_end, efolds in ((1.013e5, "711"), (1e6, r"7\.02e\+03")):
            assert trajectory(p, init, [0.0, t_end]).n[-1] == np.inf
            with pytest.raises(OverflowError,
                               match=f"^n_ode grows by {efolds} e-folds"):
                reduced_phonon_evolve(p, 1.0, [0.0, t_end])

    def test_growth_from_a_large_start_is_an_overflow(self, monkeypatch):
        # n = (n0 + A_plus/|C|) e^{|C| t} - A_plus/|C|. At C = -0.0070 and
        # t_end = 1e5, |C| t_end = 701.75 e-folds; from n0 = 1e10 the start
        # adds ln(1e10) = 23.03, past ln(DBL_MAX) = 709.78. Two e-folds
        # inside that bound the ODE still follows the closed form
        p = make(nu=10.0, eta=0.02, gamma_minus=2.0)
        rates = rate_set(p)
        growth = -rates.cooling_rate
        start = 1e10 + rates.a_rate_plus / growth
        inside = [0.0, (math.log(sys.float_info.max) - 2.0
                        - math.log(start)) / growth]
        ode = reduced_phonon_evolve(p, 1e10, inside)
        closed = trajectory(p, DressedInit(rz=0.0, n=1e10), inside).n
        assert np.isfinite(ode).all()
        assert abs(ode[-1] / closed[-1] - 1.0) < 1e-8
        monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k:
                            pytest.fail("the ODE must not be integrated"))
        with pytest.raises(OverflowError) as err:
            reduced_phonon_evolve(p, 1e10, [0.0, 1e5])
        assert str(err.value) == (
            "n_ode grows by 702 e-folds, beyond double range (709.78) "
            "from n0 + A_plus/|C| = 1e+10")

    def test_growth_from_zero_stays_zero(self, monkeypatch):
        # n0 = A_plus = 0 with C < 0: n stays 0, and the bound takes no
        # log of the zero start
        p = make(nu=10.0, eta=0.02, gamma_minus=2.0)
        source_free = dataclasses.replace(rate_set(p), a_rate_plus=0.0)
        monkeypatch.setattr(analytic, "rate_set", lambda p: source_free)
        assert reduced_phonon_evolve(p, 0.0, [0.0, 1e4]).tolist() == [0.0, 0.0]

    def test_time_zero_grid(self):
        out = reduced_phonon_evolve(FIG2_POINT, 1.5, [0.0])
        assert out.tolist() == [1.5]

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidGridError):
            reduced_phonon_evolve(FIG2_POINT, 1.0, [1.0, 0.5])
