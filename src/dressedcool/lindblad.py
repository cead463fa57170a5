"""Sparse numerical oracle for the dressed-frame master equation.

The generator acts on the atom (two dressed levels) tensored with a
truncated phonon Fock space. Its Hamiltonian part is

    H = nu * b'b + omega_bar * R_z + i eta omega (R+ - R-)(b + b')

and the dissipative part has three channels with rates
(gamma_zero/4) sin^2(2 theta) on R_z, gamma_plus cos^4(theta) on R-,
gamma_minus sin^4(theta) on R+, each in the form

    -Gamma ( A'A rho - 2 A rho_bar A' + rho A'A )

where rho_bar = rho + alpha eta^2 (X rho X - {X^2, rho}/2), X = b + b',
is the photon-recoil smearing expanded to second order in eta
(alpha = 2/5). Everything here is solved numerically (sparse LU kernel
solve, adaptive Runge-Kutta integration) on one sparse generator; none of
the closed-form results from the analytic module enter, so agreement
between the two is a real check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import solve_ivp

from .errors import (
    DimensionOverflowError,
    InvalidGridError,
    InvalidParamsError,
    NoSteadyStateError,
    OracleError,
    TruncationBreachError,
)
from .params import RECOIL_SECOND_MOMENT, PhysicalParams, dressed_frame

__all__ = [
    "DEFAULT_DIM_CAP",
    "RCOND_FLOOR",
    "RESIDUAL_TOL",
    "SVD_DIM_MAX",
    "CONVERGENCE_REL_TOL",
    "ESCALATION_STEP",
    "TAIL_MASS_LIMIT",
    "Liouvillian",
    "EvolveResult",
    "SteadyStateResult",
    "ConvergenceRun",
    "build_liouvillian",
    "evolve",
    "steady_state",
    "converged_steady_state",
    "thermal_phonon",
    "product_state",
]

# Largest allowed total Hilbert-space dimension D = 2 (n_max + 1). The
# superoperator is D^2 x D^2 but sparse, with about 17 D^2 stored entries;
# at the cap one steady-state solve takes under a second and about 130 MB,
# mostly sparse LU fill-in.
DEFAULT_DIM_CAP = 128

# Fixed certificate thresholds: every steady state needs a reciprocal
# condition estimate of the trace-constrained solve of at least RCOND_FLOOR
# and a kernel residual (infinity norm) of at most RESIDUAL_TOL; the Fock-cut
# escalation raises n_max by ESCALATION_STEP per solve and accepts once
# <b'b> changes by less than CONVERGENCE_REL_TOL; an evolution fails once
# the top two Fock levels hold more than TAIL_MASS_LIMIT at any sample.
RCOND_FLOOR = 1e-12
RESIDUAL_TOL = 1e-10
CONVERGENCE_REL_TOL = 1e-4
ESCALATION_STEP = 4
TAIL_MASS_LIMIT = 1e-6

# A failed steady-state solve reports the generator's two smallest singular
# values only up to this Hilbert dimension: the dense SVD of the D^2 x D^2
# generator costs about four successful solves at D = 16 and grows as D^6.
SVD_DIM_MAX = 16


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim, order="F")


class _Generator(scipy.sparse.csr_array):
    """CSR generator that reports its stored size like an ndarray."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass(eq=False)
class Liouvillian:
    """Sparse generator of the master equation on vectorized density matrices.

    `matrix` (CSR, sorted indices, no stored zeros) acts on column-stacked
    rho and is the one generator that steady_state and evolve use; `apply`
    evaluates the same right-hand side from the dense operator factors
    directly (an independent cross-check of the vectorization).
    """

    params: PhysicalParams
    n_max: int
    dim: int
    matrix: _Generator
    # operator bundle (dense (dim, dim)) used by apply() and observables
    hamiltonian: np.ndarray
    rz_op: np.ndarray
    rplus_op: np.ndarray
    number_op: np.ndarray
    x_op: np.ndarray
    alpha_eta2: float
    channels: tuple[tuple[float, np.ndarray, np.ndarray, np.ndarray], ...] = field(repr=False)
    _x2: np.ndarray = field(repr=False, default=None)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side d(rho)/dt for one density matrix."""
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        x, x2 = self.x_op, self._x2
        if self.alpha_eta2 != 0.0:
            smeared = rho + self.alpha_eta2 * (
                x @ rho @ x - 0.5 * (x2 @ rho + rho @ x2))
        else:
            smeared = rho
        for rate, a, a_dag, n_op in self.channels:
            out += (2.0 * rate) * (a @ smeared @ a_dag)
            out -= rate * (n_op @ rho + rho @ n_op)
        return out

    def expectations(self, rho: np.ndarray):
        """(rz, rplus, n, tail_mass) for one density matrix; tail_mass is
        the total population of the top two Fock levels (both dressed
        levels)."""
        rz = np.trace(self.rz_op @ rho).real
        rplus = np.trace(rho @ self.rplus_op)
        n = np.trace(self.number_op @ rho).real
        levels = self.n_max + 1
        pops = np.diag(rho).real
        idx = [self.n_max - 1, self.n_max,
               levels + self.n_max - 1, levels + self.n_max]
        return rz, rplus, n, float(pops[idx].sum())


def build_liouvillian(p: PhysicalParams, n_max: int, *,
                      dim_cap: int = DEFAULT_DIM_CAP) -> Liouvillian:
    """Assemble the sparse superoperator for `p` on Fock levels 0..n_max.

    Basis ordering: index = level * (n_max + 1) + n with level 0 the lower
    dressed state. Vectorization is column-stacking, so vec(A rho B) =
    kron(B.T, A) vec(rho).

    Raises
    ------
    InvalidParamsError
        If n_max < 2.
    DimensionOverflowError
        If 2 (n_max + 1) exceeds dim_cap (memory and solve time grow
        steeply with the dimension; see DEFAULT_DIM_CAP).
    """
    if not 2 <= n_max < math.inf or int(n_max) != n_max:
        raise InvalidParamsError("n_max", f"n_max must be an integer >= 2, got {n_max}")
    n_max = int(n_max)
    dim = 2 * (n_max + 1)
    if dim > dim_cap:
        raise DimensionOverflowError(
            f"total dimension {dim} = 2*(n_max+1) exceeds cap {dim_cap}; "
            f"superoperator would be {dim * dim} x {dim * dim}")

    f = dressed_frame(p)
    levels = n_max + 1
    eye_ph = np.eye(levels)
    ann = np.diag(np.sqrt(np.arange(1, levels)), k=1).astype(complex)

    rz_op = np.kron(np.diag([-1.0, 1.0]), eye_ph).astype(complex)
    rplus_op = np.kron(np.array([[0.0, 0.0], [1.0, 0.0]]), eye_ph).astype(complex)
    rminus_op = rplus_op.conj().T
    b = np.kron(np.eye(2), ann)
    number_op = b.conj().T @ b
    x = b + b.conj().T
    x2 = x @ x

    hamiltonian = (p.nu * number_op + f.omega_bar * rz_op
                   + 1j * p.eta * p.omega * ((rplus_op - rminus_op) @ x))

    channel_defs = (
        (0.25 * p.gamma_zero * f.sin2_2theta, rz_op),
        (p.gamma_plus * f.cos4_theta, rminus_op),
        (p.gamma_minus * f.sin4_theta, rplus_op),
    )
    alpha_eta2 = RECOIL_SECOND_MOMENT * p.eta ** 2

    def kron(left, right):
        return scipy.sparse.kron(scipy.sparse.csr_array(left),
                                 scipy.sparse.csr_array(right), format="csr")

    eye = np.eye(dim)
    lmat = -1j * (kron(eye, hamiltonian) - kron(hamiltonian.T, eye))
    channels = []
    for rate, a in channel_defs:
        if rate == 0.0:
            continue
        a_dag = a.conj().T
        n_op = a_dag @ a
        channels.append((rate, a, a_dag, n_op))
        ax = a @ x
        ax2 = a @ x2
        sandwich = kron(a.conj(), a)
        if alpha_eta2 != 0.0:
            sandwich = sandwich + alpha_eta2 * (
                kron(ax.conj(), ax)
                - 0.5 * kron(a.conj(), ax2)
                - 0.5 * kron(ax2.conj(), a))
        lmat += (2.0 * rate) * sandwich
        lmat -= rate * (kron(eye, n_op) + kron(n_op.T, eye))
    lmat = _Generator(lmat)
    lmat.sum_duplicates()
    lmat.eliminate_zeros()

    return Liouvillian(params=p, n_max=n_max, dim=dim, matrix=lmat,
                       hamiltonian=hamiltonian, rz_op=rz_op,
                       rplus_op=rplus_op, number_op=number_op, x_op=x,
                       alpha_eta2=alpha_eta2, channels=tuple(channels),
                       _x2=x2)


# --- initial states -----------------------------------------------------------

def thermal_phonon(n_max: int, nbar: float, cut: int | None = None) -> np.ndarray:
    """Thermal phonon state with mean occupation nbar before truncation;
    nbar = 0 gives the vacuum.

    `cut` zeroes all populations above that level (hard cutoff) before
    renormalizing; by default the geometric weights run to n_max.
    """
    if nbar < 0:
        raise InvalidParamsError("nbar", f"nbar must be >= 0, got {nbar}")
    top = n_max if cut is None else min(cut, n_max)
    weights = np.zeros(n_max + 1)
    if nbar == 0.0:
        weights[0] = 1.0
    else:
        q = nbar / (1.0 + nbar)
        weights[: top + 1] = q ** np.arange(top + 1)
    weights /= weights.sum()
    return np.diag(weights).astype(complex)


def product_state(atom: np.ndarray, phonon: np.ndarray) -> np.ndarray:
    """kron of a 2x2 atomic and an (n_max+1)^2 phonon density matrix."""
    atom = np.asarray(atom, dtype=complex)
    if atom.shape != (2, 2):
        raise InvalidParamsError("atom", "atomic state must be 2x2")
    return np.kron(atom, np.asarray(phonon, dtype=complex))


def _health(rho: np.ndarray) -> tuple[float, float, float]:
    """(trace error, Hermiticity defect, minimum eigenvalue of the
    Hermitian part) of one density matrix."""
    return (abs(np.trace(rho).real - 1.0),
            np.abs(rho - rho.conj().T).max(),
            np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())


def _validate_state(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise InvalidParamsError(
            "rho0", f"state must be {dim}x{dim}, got {rho.shape}")
    trace_err, herm_defect, min_eig = _health(rho)
    if herm_defect > 1e-12:
        raise InvalidParamsError("rho0", "state is not Hermitian (defect > 1e-12)")
    if trace_err > 1e-8:
        raise InvalidParamsError("rho0", "state trace differs from 1 by > 1e-8")
    if min_eig < -1e-10:
        raise InvalidParamsError("rho0", "state has eigenvalue below -1e-10")
    return rho


# --- time evolution -----------------------------------------------------------

@dataclass(eq=False)
class EvolveResult:
    """Sampled master-equation evolution with per-sample health numbers.

    tail_mass tracks the top two Fock levels; trace_err, herm_defect and
    min_eig record how well the state kept its density-matrix properties.
    """

    times: np.ndarray
    states: np.ndarray           # (n_samples, dim, dim)
    rz: np.ndarray
    rplus: np.ndarray
    n: np.ndarray
    tail_mass: np.ndarray
    trace_err: np.ndarray
    herm_defect: np.ndarray
    min_eig: np.ndarray
    n_max: int


def evolve(liouv: Liouvillian, rho0: np.ndarray, t_end: float, *,
           n_samples: int = 201, rtol: float = 1e-9,
           atol: float = 1e-11) -> EvolveResult:
    """Integrate d(rho)/dt = L rho from a validated initial state.

    Adaptive high-order Runge-Kutta stepping controlled by rtol/atol only.
    The sparse generator drives the right-hand side; observables are read
    off at n_samples (an integer >= 2) equally spaced times including both
    ends. t_end = 0 returns the initial state as the one sample.

    One caveat on the min_eig diagnostic: the second-order recoil
    correction makes the generator only approximately completely
    positive.  Rank-deficient initial states can show a transient
    negative eigenvalue of order eta**4 (about -1e-8 for eta = 0.1)
    that no tolerance tightening removes; full-rank initial states stay
    positive to roundoff.

    Raises
    ------
    InvalidGridError
        If t_end is not finite and >= 0 or n_samples not an integer >= 2.
    TruncationBreachError
        If the top-two-Fock-level population exceeds the fixed
        TAIL_MASS_LIMIT (1e-6) at any sample.
    OracleError
        If the integrator reports failure.
    """
    rho0 = _validate_state(rho0, liouv.dim)
    if not math.isfinite(t_end) or t_end < 0:
        raise InvalidGridError(f"t_end must be finite and >= 0, got {t_end}")
    if not 2 <= n_samples < math.inf or int(n_samples) != n_samples:
        raise InvalidGridError(
            f"n_samples must be an integer >= 2, got {n_samples}")

    dim = liouv.dim
    if t_end == 0.0:
        times = np.array([0.0])
        raw = rho0[np.newaxis, :, :]
    else:
        times = np.linspace(0.0, t_end, int(n_samples))
        sol = solve_ivp(lambda t, y: liouv.matrix @ y, (0.0, float(t_end)),
                        _vec(rho0), method="DOP853", t_eval=times,
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise OracleError(f"integration failed: {sol.message}")
        raw = np.ascontiguousarray(
            sol.y.T.reshape(-1, dim, dim).transpose(0, 2, 1))
        # (column-stacked vectors: reshape gives rho.T per sample)

    k = raw.shape[0]
    rz = np.empty(k)
    rplus = np.empty(k, dtype=complex)
    n = np.empty(k)
    tail = np.empty(k)
    trace_err = np.empty(k)
    herm = np.empty(k)
    min_eig = np.empty(k)
    for i in range(k):
        rho = raw[i]
        rz[i], rplus[i], n[i], tail[i] = liouv.expectations(rho)
        trace_err[i], herm[i], min_eig[i] = _health(rho)
    if tail.max() > TAIL_MASS_LIMIT:
        worst = int(np.argmax(tail))
        raise TruncationBreachError(
            f"top-two Fock population {tail[worst]:.3e} exceeds "
            f"{TAIL_MASS_LIMIT:.1e} at t = {times[worst]:.6g}; "
            f"raise n_max (currently {liouv.n_max})")
    return EvolveResult(times=times, states=raw,
                        rz=rz, rplus=rplus, n=n, tail_mass=tail,
                        trace_err=trace_err, herm_defect=herm,
                        min_eig=min_eig, n_max=liouv.n_max)


# --- steady state -------------------------------------------------------------

@dataclass(eq=False)
class SteadyStateResult:
    """Kernel solution of the generator with numerical certificates.

    residual is the infinity norm of L vec(rho) for the returned state;
    rcond estimates the conditioning of the trace-constrained solve.
    """

    rho: np.ndarray
    n: float
    rz: float
    rplus: complex
    tail_mass: float
    residual: float
    rcond: float
    trace_dev: float
    herm_defect: float
    min_eig: float
    n_max: int
    dim: int


def _raise_no_steady(lmat: _Generator, reason: str) -> None:
    if lmat.shape[0] > SVD_DIM_MAX ** 2:
        raise NoSteadyStateError(f"{reason} (singular values not computed "
                                 f"above dimension {SVD_DIM_MAX})")
    sv = np.linalg.svd(lmat.toarray(), compute_uv=False)
    raise NoSteadyStateError(reason, smallest_singular_values=(float(sv[-1]),
                                                               float(sv[-2])))


def _unit_phases(x: np.ndarray) -> np.ndarray:
    """x_i / |x_i|, and 1 where |x_i| is at the underflow threshold."""
    mag = np.abs(x)
    tiny = mag <= np.finfo(float).tiny
    return np.where(tiny, 1.0, x / np.where(tiny, 1.0, mag))


def _inverse_norm1_estimate(lu) -> float:
    """Lower bound on ||A^-1||_1 from the sparse LU factors of A.

    LAPACK's Hager-Higham iteration (xLACN2, the estimator behind its
    dense condition numbers), step for step, driven by solves with A and
    A^H: deterministic, at most five solves with columns of A^-1 or sign
    vectors, then the alternating-sign test vector.
    """
    n = lu.shape[0]
    x = lu.solve(np.full(n, 1.0 / n, dtype=complex))
    if n == 1:
        return float(abs(x[0]))
    est = float(np.abs(x).sum())
    j = int(np.argmax(np.abs(lu.solve(_unit_phases(x), trans="H"))))
    for step in range(4):
        x = lu.solve(np.eye(1, n, j, dtype=complex)[0])
        est_old, est = est, float(np.abs(x).sum())
        if est <= est_old or step == 3:
            break
        z = np.abs(lu.solve(_unit_phases(x), trans="H"))
        j_last, j = j, int(np.argmax(z))
        if z[j_last] == z[j]:
            break
    alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    return max(est, 2.0 * (float(np.abs(lu.solve(alt.astype(complex))).sum())
                           / (3 * n)))


def steady_state(liouv: Liouvillian) -> SteadyStateResult:
    """Solve L vec(rho) = 0 with Tr rho = 1.

    The first row of the system is replaced by the trace constraint and
    the result is factored by sparse LU; a deterministic 1-norm estimate
    of the reciprocal condition number (LAPACK's estimator, run on the
    sparse factors) certifies that the kernel is one-dimensional (a second
    kernel direction leaves the constrained system singular). The residual
    is measured against the unmodified generator. Both thresholds are
    fixed: rcond must reach RCOND_FLOOR (1e-12) and the residual must stay
    within RESIDUAL_TOL (1e-10).

    Raises
    ------
    NoSteadyStateError
        If the constrained solve is singular/ill-conditioned (rcond below
        RCOND_FLOOR: kernel not one-dimensional within tolerance) or the
        residual exceeds RESIDUAL_TOL.
        The two smallest singular values of the generator are attached
        up to dimension SVD_DIM_MAX (16); above it they are None.
    """
    lmat = liouv.matrix
    dim = liouv.dim
    d2 = dim * dim
    trace_row = scipy.sparse.csr_array(
        (np.ones(dim, dtype=complex), np.arange(0, d2, dim + 1), [0, dim]),
        shape=(1, d2))
    constrained = scipy.sparse.vstack([trace_row, lmat[1:]], format="csc")
    rhs = np.zeros(d2, dtype=complex)
    rhs[0] = 1.0

    anorm = float(abs(constrained).sum(axis=0).max())
    try:
        lu = scipy.sparse.linalg.splu(constrained)
    except RuntimeError:
        _raise_no_steady(lmat, "constrained system is exactly singular")
    with np.errstate(all="ignore"):
        ainv_norm = _inverse_norm1_estimate(lu)
    rcond = 1.0 / ainv_norm / anorm if ainv_norm else 0.0
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        _raise_no_steady(
            lmat, f"constrained solve ill-conditioned (rcond = {rcond:.3e}); "
                  "kernel is not one-dimensional within tolerance")
    v = lu.solve(rhs)

    residual = float(np.abs(lmat @ v).max())
    if residual > RESIDUAL_TOL:
        _raise_no_steady(
            lmat, f"kernel residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")

    rho_raw = _unvec(v, dim)
    herm_defect = float(np.abs(rho_raw - rho_raw.conj().T).max())
    rho = 0.5 * (rho_raw + rho_raw.conj().T)
    trace = np.trace(rho).real
    trace_dev = abs(trace - 1.0)
    rho /= trace
    min_eig = float(np.linalg.eigvalsh(rho).min())
    rz, rplus, n, tail = liouv.expectations(rho)
    return SteadyStateResult(rho=rho, n=float(n), rz=float(rz),
                             rplus=complex(rplus), tail_mass=tail,
                             residual=residual, rcond=float(rcond),
                             trace_dev=trace_dev, herm_defect=herm_defect,
                             min_eig=min_eig, n_max=liouv.n_max, dim=dim)


@dataclass(eq=False)
class ConvergenceRun:
    """Steady-state solve escalated in n_max until ⟨b†b⟩ stabilizes.

    `result` is the finest solve; history holds (n_max, n) pairs for every
    dimension tried; rel_change is the last relative step."""

    result: SteadyStateResult
    history: tuple[tuple[int, float], ...]
    rel_change: float

    @property
    def n(self) -> float:
        return self.result.n


def converged_steady_state(p: PhysicalParams, *, n_max_start: int = 12,
                           dim_cap: int = 64) -> ConvergenceRun:
    """steady_state with n_max escalation until the phonon number settles.

    Solves at n_max_start, then n_max_start + ESCALATION_STEP, ... (a
    fixed step of 4 levels), accepting once the relative change of ⟨b†b⟩
    between consecutive sizes drops below the fixed CONVERGENCE_REL_TOL
    (1e-4). Every solve carries steady_state's fixed certificates
    (RCOND_FLOOR, RESIDUAL_TOL).
    The default cap is tighter than build_liouvillian's because the loop
    builds every size on the way up; hot parameter points that need more
    room must raise dim_cap explicitly.

    Raises
    ------
    TruncationBreachError
        If the cap is reached without convergence (history attached).
    """
    n_max = n_max_start
    prev = steady_state(build_liouvillian(p, n_max, dim_cap=dim_cap))
    history = [(n_max, prev.n)]
    while True:
        n_next = n_max + ESCALATION_STEP
        if 2 * (n_next + 1) > dim_cap:
            raise TruncationBreachError(
                f"phonon number not converged at dimension cap {dim_cap}; "
                f"history: {history}")
        cur = steady_state(build_liouvillian(p, n_next, dim_cap=dim_cap))
        history.append((n_next, cur.n))
        rel = abs(cur.n - prev.n) / max(abs(cur.n), 1e-12)
        if rel < CONVERGENCE_REL_TOL:
            return ConvergenceRun(result=cur, history=tuple(history),
                                  rel_change=rel)
        prev, n_max = cur, n_next
