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
(alpha = 2/5).

The generator preserves Hermiticity, L(rho') = L(rho)', so on the real
and imaginary parts of the entries of rho it is a real matrix with as many
unknowns (the real form of a Lindblad generator in a Hermitian operator
basis: Gorini, Kossakowski & Sudarshan, J. Math. Phys. 17, 821 (1976);
Alicki & Lendi, Lect. Notes Phys. 286 (1987)). That real matrix is the one
generator here, built from one term of each Hermitian mirror pair of
Kronecker products of the dense operators (see _assemble). Everything is
solved numerically on it. The steady state is a sparse real LU kernel
solve certified by scipy's 1-norm estimator; a failed solve reports the
certificate that failed (a singular factorization, rcond or residual) in
the same form at every dimension. Time evolution takes one of two routes,
chosen by one deterministic rule from the block's size and its 1-norm
times t_end (see evolve): a Taylor propagator built once, by sparse
products and dense squarings in two dense buffers, whose cost does not
grow with t_end, or adaptive Runge-Kutta integration (DOP853), which
alone loads scipy.integrate. Every state is rebuilt from real
coordinates, so it is Hermitian by construction. Nothing from the
analytic module enters, so agreement between the two is a real check.

Importing this module loads neither numpy nor scipy: each function
imports the numpy and scipy modules it uses, so they load on the first
oracle call (the first build, state or solve) and a closed-form run never
pays for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    DimensionOverflowError,
    InvalidParamsError,
    NoSteadyStateError,
    OracleError,
    TruncationBreachError,
)
from .params import (RECOIL_SECOND_MOMENT, PhysicalParams, _square,
                     checked_int, checked_real, dressed_frame)

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse

__all__ = [
    "N_MAX_FLOOR",
    "N_MAX_START",
    "DIM_BUDGET",
    "DEFAULT_DIM_CAP",
    "RCOND_FLOOR",
    "RESIDUAL_TOL",
    "CONVERGENCE_REL_TOL",
    "ESCALATION_STEP",
    "TAIL_MASS_LIMIT",
    "total_dim",
    "checked_cut",
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

# The Fock-cut policy, read by config, sweep and the CLI and spelled only
# here. A cut n_max keeps Fock levels 0..n_max of the mode, so the total
# Hilbert-space dimension is D = total_dim(n_max) = 2 (n_max + 1). A cut
# is an integer of at least N_MAX_FLOOR (2, the smallest generator has
# D = 6), checked by checked_cut alone; escalation starts at N_MAX_START
# (12) and builds no dimension above its budget, DIM_BUDGET (64) unless
# the caller gives one. DEFAULT_DIM_CAP (128) is the ceiling on every
# generator and budget. The superoperator is D^2 x D^2 but sparse, with
# about 18 D^2 stored entries; at the cap one steady-state solve takes
# under a second and about 75 MB, mostly sparse LU fill-in.
N_MAX_FLOOR = 2
N_MAX_START = 12
DIM_BUDGET = 64
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


@dataclass(eq=False)
class Liouvillian:
    """Sparse generator of the master equation in real coordinates.

    It holds `params`, the Fock cut `n_max` and the generator `matrix`
    only; `dim` is derived from n_max by total_dim. `matrix` (float64 CSR,
    sorted int32 indices, no stored zeros) acts on the real coordinates x
    of column-stacked vec(rho): slot (i, i) holds rho_ii, slot (i, j) with
    i < j Re rho_ij and slot (j, i) Im rho_ij. steady_state factors it and
    evolve integrates it; `apply` derives the dense defining operators
    again (_operators) and cross-checks the vectorization with them alone.

    The generator has a Z2 weak symmetry: give basis state |a, n> (dressed
    level a, Fock level n) the parity (a + n) mod 2; no term couples an
    element rho_{an,bm} whose two parities are equal (the even sector) to
    one whose parities differ (the odd sector). `even` marks the even
    sector of vec(rho), and so of x. evolve integrates the block of the
    sectors rho0 occupies; the even block is sliced once and kept.
    """

    params: PhysicalParams
    n_max: int
    matrix: scipy.sparse.csr_array

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension, total_dim(n_max)."""
        return total_dim(self.n_max)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side d(rho)/dt for one density matrix from the dense
        operators of _operators, summed over all three channels."""
        h, x, channels = _operators(self.params, self.n_max)
        out = -1j * (h @ rho - rho @ h)
        alpha_eta2 = RECOIL_SECOND_MOMENT * self.params.eta ** 2
        x2 = x @ x
        smeared = rho + alpha_eta2 * (
            x @ rho @ x - 0.5 * (x2 @ rho + rho @ x2))
        for rate, a in channels:
            a_dag = a.conj().T
            n_op = a_dag @ a
            out += (2.0 * rate) * (a @ smeared @ a_dag)
            out -= rate * (n_op @ rho + rho @ n_op)
        return out

    def expectations(self, rho: np.ndarray):
        """(rz, rplus, n, tail_mass) of one density matrix, read off its
        entries; tail_mass is the population of the top two Fock levels."""
        import numpy as np
        levels = self.n_max + 1
        diag = np.diagonal(rho)
        rz = (np.repeat([-1.0, 1.0], levels) * diag).sum().real
        n = (_number_diagonal(self.n_max) * diag).sum().real
        top = [levels - 2, levels - 1, 2 * levels - 2, 2 * levels - 1]
        return rz, np.trace(rho, offset=levels), n, float(diag.real[top].sum())

    @cached_property
    def even(self) -> np.ndarray:
        """Boolean mask over column-stacked vec(rho): True where rho_{an,bm}
        has (a + n) - (b + m) even."""
        import numpy as np
        level, n = np.divmod(np.arange(self.dim), self.n_max + 1)
        parity = (level + n) % 2
        return (parity[:, None] == parity[None, :]).reshape(-1, order="F")

    @cached_property
    def _even_block(self) -> scipy.sparse.csr_array:
        """The generator on the even sector, matrix[even][:, even]."""
        return self.matrix[self.even][:, self.even]


def _to_real(rho: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian rho (..., dim, dim) as a matrix X with
    vec(X) = x: X_ij = Re rho_ij for i <= j and X_ji = Im rho_ij for i < j.
    Only the upper triangle of rho is read."""
    import numpy as np
    upper = np.triu(np.ones(rho.shape[-2:], dtype=bool))
    return np.where(upper, rho.real, rho.imag.swapaxes(-1, -2))


def _from_real(xmat: np.ndarray) -> np.ndarray:
    """The Hermitian rho (..., dim, dim) with real coordinates xmat, the
    inverse of _to_real, written with no temporary arrays."""
    import numpy as np
    upper = np.triu(np.ones(xmat.shape[-2:], dtype=bool))
    lower = ~upper
    xmat_t = xmat.swapaxes(-1, -2)
    rho = np.zeros(xmat.shape, dtype=complex)
    np.copyto(rho.real, xmat, where=upper)
    np.copyto(rho.real, xmat_t, where=lower)
    np.copyto(rho.imag, xmat_t, where=lower.T)
    np.negative(xmat, out=rho.imag, where=lower)
    return rho


def total_dim(n_max: int) -> int:
    """The total Hilbert-space dimension at Fock cut n_max: two dressed
    levels times Fock levels 0..n_max."""
    return 2 * (n_max + 1)


def checked_cut(n_max, cap: int, name: str = "n_max") -> int:
    """n_max as an int by the one Fock-cut rule: InvalidParamsError on
    field `name` unless it is an integer >= N_MAX_FLOOR, then
    DimensionOverflowError if total_dim(n_max) exceeds cap."""
    n_max = checked_int(name, n_max, N_MAX_FLOOR)
    dim = total_dim(n_max)
    if dim > cap:
        raise DimensionOverflowError(
            f"total dimension {dim} = 2*(n_max+1) exceeds cap {cap}; "
            f"superoperator would be {dim * dim} x {dim * dim}")
    return n_max


def _assemble(terms, dim: int) -> scipy.sparse.csr_array:
    """The generator in real coordinates, L_r = 2 Re(T^-1 G T), from half
    of its terms.

    G is the sum of c kron(left, right) over the (c, left, right) in
    `terms`, dense (dim, dim) factors, and vec(rho) = T x for Hermitian
    rho and its real coordinates x (see Liouvillian). The complex
    generator L = G + S conj(G) S, S the swap of rho_ij and rho_ji in
    vec(rho), preserves Hermiticity whatever the terms (the mirror of
    kron(left, right) is kron(conj(right), conj(left))); a caller lists
    one term of each mirror pair, and a term that is its own mirror at
    half its weight. As S T = conj(T), T^-1 L T = 2 Re(T^-1 G T).

    Each row of T and column of T^-1 has an entry at the slot itself and,
    off the diagonal of rho, one at its partner slot. So the real or the
    imaginary part of a triplet of G lands on its row and its row's
    partner, each at the one column (its own or its partner) where the
    product is real; one COO sum gives L_r as canonical float64 CSR with
    int32 indices and no stored zeros. No weight is 0, so no 0 * inf.
    """
    import numpy as np
    import scipy.sparse

    d2 = dim * dim
    rows, cols, values = [], [], []
    for c, left, right in terms:
        a, k = np.nonzero(left)
        b, m = np.nonzero(right)
        # entry (a dim + b, k dim + m) of kron(left, right) is left[a, k] right[b, m]
        rows.append((a[:, None] * dim + b).ravel())
        cols.append((k[:, None] * dim + m).ravel())
        values.append(((c * left[a, k])[:, None] * right[b, m]).ravel())
    r = np.concatenate(rows).astype(np.int32)
    c = np.concatenate(cols).astype(np.int32)
    v = np.concatenate(values)
    # the real and the imaginary parts as separate triplets: v i^phase
    re, im = v.real != 0.0, v.imag != 0.0
    r, c = np.concatenate([r[re], r[im]]), np.concatenate([c[re], c[im]])
    v = np.concatenate([v.real[re], v.imag[im]])
    phase = np.repeat(np.array([0, 1], dtype=np.int8), [re.sum(), im.sum()])
    # slot i + j dim holds rho_ij: kind 0 on the diagonal, 1 for i < j
    # (Re rho_ij), 2 for i > j (Im rho_ji); p is the partner slot
    j, i = np.divmod(np.arange(d2, dtype=np.int32), dim)
    partner = i * dim + j
    kind = ((i < j) + 2 * (i > j)).astype(np.int8)
    # rows: x_k = vec[k], (vec[k] + vec[p]) / 2 or i (vec[k] - vec[p]) / 2,
    # so 2 T^-1 has (2, 1, i) at (k, k) and (-i, 1) at (p, k) by kind of k
    kr = kind[r]
    off = kr != 0
    v[~off] *= 2.0
    r = np.concatenate([r, partner[r[off]]])
    c = np.concatenate([c, c[off]])
    v = np.concatenate([v, v[off]])
    phase = np.concatenate([phase + np.array([0, 0, 1], np.int8)[kr],
                            phase[off] + np.array([0, 3, 0], np.int8)[kr[off]]])
    # columns: vec[k] = x_k, x_k + i x_p or x_p - i x_k, so T has (1, 1,
    # -i) at (k, k) and (i, 1) at (k, p); the entry at (k, p) is i times
    # the one at (k, k), so exactly one of the two gives a real product
    # (none where a diagonal slot's own product is imaginary: set to 0)
    kc = kind[c]
    phase += np.array([0, 0, 3], np.int8)[kc]
    odd = (phase & 1).astype(bool)
    c[odd] = partner[c[odd]]
    v[odd & (kc == 0)] = 0.0
    np.negative(v, out=v, where=((phase + odd) & 2).astype(bool))
    lmat = scipy.sparse.coo_array((v, (r, c)),
                                  shape=(d2, d2)).tocsr()   # sums duplicates
    lmat.eliminate_zeros()
    # perfbench/tracer.py reads .matrix.nbytes, which a csr_array lacks
    lmat.nbytes = lmat.data.nbytes + lmat.indices.nbytes + lmat.indptr.nbytes
    return lmat


def _number_diagonal(n_max: int) -> np.ndarray:
    """The diagonal of b'b, sqrt(n) sqrt(n) as in b'b, on both levels."""
    import numpy as np
    root = np.sqrt(np.arange(n_max + 1))
    return np.tile(root * root, 2)


def _operators(p: PhysicalParams, n_max: int):
    """(hamiltonian, X = b + b', channels): the dense defining operators
    at `p`, channels the three (rate, A) on R_z, R- and R+, zero or not."""
    import numpy as np
    f = dressed_frame(p)
    eye_ph = np.eye(n_max + 1)
    ann = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1).astype(complex)
    rz_op = np.kron(np.diag([-1.0, 1.0]), eye_ph).astype(complex)
    rplus_op = np.kron(np.array([[0.0, 0.0], [1.0, 0.0]]), eye_ph).astype(complex)
    rminus_op = rplus_op.conj().T
    number_op = np.diag(_number_diagonal(n_max)).astype(complex)
    x = np.kron(np.eye(2), ann + ann.conj().T)
    hamiltonian = (p.nu * number_op + f.omega_bar * rz_op
                   + 1j * p.eta * p.omega * ((rplus_op - rminus_op) @ x))
    channels = ((0.25 * p.gamma_zero * f.sin2_2theta, rz_op),
                (p.gamma_plus * f.cos4_theta, rminus_op),
                (p.gamma_minus * f.sin4_theta, rplus_op))
    return hamiltonian, x, channels


def build_liouvillian(p: PhysicalParams, n_max: int) -> Liouvillian:
    """Assemble the sparse superoperator for `p` on Fock levels 0..n_max.

    Basis ordering: index = level * (n_max + 1) + n with level 0 the lower
    dressed state. Vectorization is column-stacking, so vec(A rho B) =
    kron(B.T, A) vec(rho). The generator is listed below as one term of
    each Hermitian mirror pair of such Kronecker products of the dense
    operators of _operators, and _assemble builds its real form: float64
    CSR with int32 indices, sorted, and no stored zeros. The Liouvillian
    holds params, n_max and that matrix; `apply` derives the operators again.

    Raises
    ------
    InvalidParamsError
        If n_max is not an integer >= N_MAX_FLOOR (2), or the generator
        has an entry beyond double range at this n_max (nu * n_max or
        twice a channel rate above about 1.8e308).
    DimensionOverflowError
        If total_dim(n_max) exceeds DEFAULT_DIM_CAP, the ceiling on every
        generator (memory and solve time grow steeply with the dimension).
    OverflowError
        If eta**2 overflows (eta above about 1.34e154), with the closed
        form's text, e.g. ``eta**2 overflows at eta = 1e+200``.
    """
    import numpy as np
    n_max = checked_cut(n_max, DEFAULT_DIM_CAP)
    hamiltonian, x, channels = _operators(p, n_max)
    x2 = x @ x
    alpha_eta2 = RECOIL_SECOND_MOMENT * _square("eta", p.eta)

    # one term of each mirror pair (see _assemble): -i H rho; per channel
    # -Gamma A'A rho and, of 2 Gamma A rho_bar A', the parts that are their
    # own mirror at half weight and one of the two X^2 parts. A zero rate
    # or eta = 0 gives zero coefficients, whose triplets _assemble drops
    eye = np.eye(len(hamiltonian))
    terms = [(-1j, eye, hamiltonian)]
    for rate, a in channels:
        n_op = a.conj().T @ a
        ax = a @ x
        terms += [(rate, a.conj(), a), (-rate, eye, n_op),
                  (rate * alpha_eta2, ax.conj(), ax),
                  (-rate * alpha_eta2, a.conj(), a @ x2)]
    lmat = _assemble(terms, len(eye))
    if not np.isfinite(lmat.data).all():
        raise InvalidParamsError(
            "n_max", "too large to evaluate: the generator has an entry "
            f"beyond double range at n_max = {n_max}")
    return Liouvillian(params=p, n_max=n_max, matrix=lmat)


# --- initial states -----------------------------------------------------------

def thermal_phonon(n_max: int, nbar: float, cut: int | None = None) -> np.ndarray:
    """Thermal phonon state with mean occupation nbar before truncation;
    nbar = 0 gives the vacuum. `cut` zeroes all populations above that
    level (hard cutoff) before renormalizing; by default the geometric
    weights run to n_max. An n_max or cut that is not an integer >= 0
    (checked_int), or an nbar that is not a finite number >= 0
    (checked_real), raises InvalidParamsError.
    """
    import numpy as np
    n_max = checked_int("n_max", n_max, 0)
    nbar = checked_real("nbar", nbar, 0)
    top = n_max if cut is None else min(checked_int("cut", cut, 0), n_max)
    weights = np.zeros(n_max + 1)
    q = nbar / (1.0 + nbar)
    weights[: top + 1] = q ** np.arange(top + 1)
    weights /= weights.sum()
    return np.diag(weights).astype(complex)


def product_state(atom: np.ndarray, phonon: np.ndarray) -> np.ndarray:
    """kron of a 2x2 atomic and an (n_max+1)^2 phonon density matrix."""
    import numpy as np
    atom = np.asarray(atom, dtype=complex)
    if atom.shape != (2, 2):
        raise InvalidParamsError("atom", "atomic state must be 2x2")
    return np.kron(atom, np.asarray(phonon, dtype=complex))


def _health(rho: np.ndarray) -> tuple[float, float, float]:
    """(trace error, Hermiticity defect, minimum eigenvalue of the
    Hermitian part) of one density matrix."""
    import numpy as np
    return (abs(np.trace(rho).real - 1.0),
            np.abs(rho - rho.conj().T).max(),
            np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())


def _validate_state(rho: np.ndarray, dim: int) -> np.ndarray:
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise InvalidParamsError(
            "rho0", f"state must be {dim}x{dim}, got {rho.shape}")
    # a nan fails every check below by comparing False
    if not np.isfinite(rho).all():
        raise InvalidParamsError("rho0", "state has entries that are not finite")
    trace_err, herm_defect, min_eig = _health(rho)
    if herm_defect > 1e-12:
        raise InvalidParamsError("rho0", "state is not Hermitian (defect > 1e-12)")
    if trace_err > 1e-8:
        raise InvalidParamsError("rho0", "state trace differs from 1 by > 1e-8")
    if min_eig < -1e-10:
        raise InvalidParamsError("rho0", "state has eigenvalue below -1e-10")
    return rho


def _norm1(mat) -> float:
    """The 1-norm (largest absolute column sum) of a sparse matrix."""
    return float(abs(mat).sum(axis=0).max())


# --- time evolution -----------------------------------------------------------

@dataclass(eq=False)
class EvolveResult:
    """Sampled master-equation evolution with per-sample health numbers.

    tail_mass tracks the top two Fock levels of the caller's Liouvillian;
    trace_err and min_eig record how well the state kept its density-matrix
    properties. herm_defect is 0 by construction (evolve integrates real
    coordinates of a Hermitian matrix), so it does not test the integrator.
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


# The route rule of evolve. Its DOP853 estimate is 2.5 right-hand-side
# calls per unit of |L|_1 t_end, measured at criterion 6's two decays
# (2.5-2.8 there); the propagator is a degree-18 Taylor polynomial whose
# scaling threshold theta_18 = 1.09 bounds its backward error by the unit
# roundoff 2^-53 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011),
# table A.3, as shipped in scipy.sparse.linalg._expm_multiply). Its
# Horner steps are sparse products and its s squarings dense, so its
# workspace is two dense unknowns x unknowns float64 arrays plus a scaled
# sparse copy of the block. The ceiling is 3 such arrays within
# _PROPAGATOR_WORKSPACE (64 MB: up to 1,632 unknowns), above what the
# route needs; larger blocks have not been measured on it.
_DOP853_CALLS_PER_NORM_TIME = 2.5
_TAYLOR_DEGREE = 18
_TAYLOR_THETA = 1.09
_PROPAGATOR_WORKSPACE = 64e6
# the largest product of one row panel in the propagator's Horner steps,
# under glibc's default 128 KiB mmap threshold, so each product reuses
# freed heap memory
_PANEL_BYTES = 65536


def _squarings(norm_step: float) -> int:
    """s = max(0, ceil(log2(norm_step / theta_18))): the squarings after
    which a step of 1-norm norm_step lies within the degree-18 bound."""
    if norm_step <= _TAYLOR_THETA:
        return 0
    return math.ceil(math.log2(norm_step / _TAYLOR_THETA))


def _takes_propagator(unknowns: int, norm_t_end: float, s: int) -> bool:
    """The one route rule of evolve, from the block's unknowns, its
    1-norm times t_end and the propagator's squarings s: the propagator
    when DOP853's estimated right-hand-side calls exceed the propagator's
    (18 + s) * unknowns matvec-equivalents and 3 unknowns^2 doubles fit
    _PROPAGATOR_WORKSPACE (the ceiling, u <= 1,632); DOP853 otherwise."""
    return (_DOP853_CALLS_PER_NORM_TIME * norm_t_end
            > (_TAYLOR_DEGREE + s) * unknowns
            and 3 * unknowns * unknowns * 8 <= _PROPAGATOR_WORKSPACE)


def _propagator(gen: scipy.sparse.csr_array, dt: float, s: int) -> np.ndarray:
    """exp(gen dt) by scaling and squaring: the degree-18 Taylor polynomial
    of A = gen dt 2^-s by Horner, each step a sparse product A p, then s
    dense squarings, in two dense buffers beside a scaled sparse copy of
    gen, which is left as it is. OracleError if the result is not finite."""
    import numpy as np
    u, scale = gen.shape[0], math.ldexp(dt, -s)
    # A in row panels whose products fit _PANEL_BYTES, each copied into
    # the second buffer: a fresh u x u product per step would map and
    # fault new pages every time
    rows = _PANEL_BYTES // (8 * u)
    panels = [(np.s_[i:i + rows], gen[i:i + rows] * scale)
              for i in range(0, u, rows)]
    p, tmp = np.identity(u), np.empty((u, u))
    diag = np.s_[::u + 1]               # the diagonal of a flat buffer
    # an overflow shows in the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_TAYLOR_DEGREE, 0, -1):
            for part, panel in panels:
                np.divide(panel @ p, k, out=tmp[part])
            tmp.reshape(-1)[diag] += 1.0
            p, tmp = tmp, p
        for _ in range(s):
            np.matmul(p, p, out=tmp)
            p, tmp = tmp, p
    # nan propagates through min and max and +-inf shows in one of them,
    # so no u x u mask is allocated
    if not (np.isfinite(p.min()) and np.isfinite(p.max())):
        raise OracleError("propagator has entries that are not finite")
    return p


def _propagator_samples(gen: scipy.sparse.csr_array, x0: np.ndarray,
                        dt: float, n_samples: int, s: int) -> np.ndarray:
    """(n_samples, unknowns) states x_k = P^k x0, P = exp(gen dt)."""
    import numpy as np
    p = _propagator(gen, dt, s)
    y = np.empty((n_samples, x0.size))
    y[0] = x0
    for k in range(1, n_samples):
        np.matmul(p, y[k - 1], out=y[k])
    return y


def _dop853_samples(gen: scipy.sparse.csr_array, x0: np.ndarray,
                    times: np.ndarray, rtol: float,
                    atol: float) -> np.ndarray:
    """(len(times), unknowns) states from DOP853 on dx/dt = gen x.
    OracleError if the integrator reports failure."""
    # scipy.integrate (with scipy.optimize and more) loads on this route
    # only, not with the package
    from scipy.integrate import solve_ivp
    sol = solve_ivp(lambda t, x: gen @ x, (0.0, times[-1]), x0,
                    method="DOP853", t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise OracleError(f"integration failed: {sol.message}")
    return sol.y.T


def _rebuild(dim: int, sector: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The full density matrices (n, dim, dim) whose real coordinates are
    y on the slots `sector` of column-stacked vec(rho) and 0 elsewhere."""
    import numpy as np
    x = np.zeros((len(y), dim * dim))
    x[:, sector] = y
    # column-stacked vectors: reshape gives X.T per sample
    return _from_real(x.reshape(-1, dim, dim).swapaxes(1, 2))


def evolve(liouv: Liouvillian, rho0: np.ndarray, t_end: float, *,
           n_samples: int = 201, rtol: float = 1e-9,
           atol: float = 1e-11) -> EvolveResult:
    """Integrate d(rho)/dt = L rho from a validated initial state.

    Observables are read off at n_samples (an integer >= 2) equally
    spaced times including both ends. t_end = 0 returns the initial state
    as the one sample.

    The generator never mixes the parity sectors (see Liouvillian), so
    evolve works on the block of `matrix` for the sectors rho0 occupies:
    the even one if every odd entry of rho0 is exactly 0, as for any
    state diagonal in |a, n> (half the unknowns; the odd entries of every
    sample stay exactly 0), otherwise all. Its unknowns are the real
    coordinates of rho0, in real arithmetic throughout. `states` holds
    the full complex density matrices, rebuilt from real coordinates and
    so Hermitian by construction (herm_defect 0).

    The block is stepped by one of two routes, chosen by one
    deterministic rule (_takes_propagator) from the input alone: its u
    unknowns, its 1-norm times t_end, and s, the squarings the propagator
    needs for one sample spacing dt = t_end / (n_samples - 1).

    - Propagator: P = exp(block dt) is built once, by a degree-18 Taylor
      polynomial of block dt 2^-s and s squarings (Al-Mohy & Higham,
      SIAM J. Sci. Comput. 33, 488 (2011)). Its Horner steps are sparse
      products with a scaled copy of the block and its squarings dense,
      in two dense u x u buffers; each sample is one product x <- P x,
      so the cost does not grow with t_end. It is taken when DOP853's
      estimated right-hand-side calls, 2.5 per unit of 1-norm times
      t_end, exceed (18 + s) u and u is at most 1,632 (3 u^2 doubles
      within 64 MB), a ceiling above the route's workspace.
    - DOP853 otherwise: adaptive high-order Runge-Kutta stepping with the
      sparse block as right-hand side, controlled by rtol/atol, which
      act on this route only. scipy.integrate loads on this route only.

    One caveat on the min_eig diagnostic: the second-order recoil
    correction makes the generator only approximately completely
    positive.  Rank-deficient initial states can show a transient
    negative eigenvalue of order eta**4 (about -1e-8 for eta = 0.1)
    that no tolerance tightening removes; full-rank initial states stay
    positive to roundoff.

    Raises
    ------
    InvalidParamsError
        If rho0 is not a dim x dim density matrix with finite entries
        (Hermitian, unit trace, no eigenvalue below -1e-10), t_end is not
        a finite number >= 0 (checked_real), n_samples is not an
        integer >= 2 (checked_int), rtol is not a finite number > 0 or
        atol not a finite number >= 0 (checked_real, on both routes).
    TruncationBreachError
        If the top-two-Fock-level population exceeds the fixed
        TAIL_MASS_LIMIT (1e-6) at any sample.
    OracleError
        If DOP853 reports failure, or the propagator has an entry that is
        not finite.
    """
    import numpy as np
    rho0 = _validate_state(rho0, liouv.dim)
    t_end = checked_real("t_end", t_end, 0)
    n_samples = checked_int("n_samples", n_samples, 2)
    rtol = checked_real("rtol", rtol, 0, strict=True)
    atol = checked_real("atol", atol, 0)

    dim = liouv.dim
    if t_end == 0.0:
        times = np.array([0.0])
        raw = rho0[np.newaxis, :, :]
    else:
        times = np.linspace(0.0, t_end, n_samples)
        x0 = _to_real(rho0).reshape(-1, order="F")
        if x0[~liouv.even].any():       # both sectors: every entry
            sector, gen = np.ones(dim * dim, dtype=bool), liouv.matrix
        else:
            sector, gen = liouv.even, liouv._even_block
        norm = _norm1(gen)
        dt = t_end / (n_samples - 1)
        s = _squarings(norm * dt)
        if _takes_propagator(gen.shape[0], norm * t_end, s):
            y = _propagator_samples(gen, x0[sector], dt, n_samples, s)
        else:
            y = _dop853_samples(gen, x0[sector], times, rtol, atol)
        raw = _rebuild(dim, sector, y)

    rz, rplus, n, tail = map(np.array, zip(*map(liouv.expectations, raw)))
    trace_err, herm, min_eig = map(np.array, zip(*map(_health, raw)))
    if tail.max() > TAIL_MASS_LIMIT:
        worst = int(np.argmax(tail))
        raise TruncationBreachError(
            f"top-two Fock population {tail[worst]:.3e} exceeds "
            f"{TAIL_MASS_LIMIT:.1e} at t = {times[worst]:.6g}; "
            f"raise n_max (currently {liouv.n_max})")
    return EvolveResult(times=times, states=raw,
                        rz=rz, rplus=rplus, n=n, tail_mass=tail,
                        trace_err=trace_err, herm_defect=herm,
                        min_eig=min_eig)


# --- steady state -------------------------------------------------------------

@dataclass(eq=False)
class SteadyStateResult:
    """Kernel solution of the generator with numerical certificates.

    residual is the infinity norm of L_r x for the real coordinates x of
    the state before its trace is normalized; rcond estimates the
    conditioning of the trace-constrained solve; n_max is the Fock cut
    (dimension total_dim(n_max)). herm_defect and min_eig are measured by
    _health: herm_defect is 0 while rho is rebuilt from real coordinates,
    and guards against a future non-Hermitian reconstruction.
    """

    rho: np.ndarray
    n: float
    rz: float
    tail_mass: float
    residual: float
    rcond: float
    trace_dev: float
    herm_defect: float
    min_eig: float
    n_max: int


def _inverse_norm1_estimate(lu) -> float:
    """Lower bound on ||A^-1||_1 from the sparse real LU factors of A:
    scipy's estimator on solves with A and A^T (see steady_state), closed
    by LAPACK's alternating-sign test vector, as in dgecon."""
    import numpy as np
    import scipy.sparse.linalg

    n = lu.shape[0]
    inverse = scipy.sparse.linalg.LinearOperator(
        lu.shape, matvec=lu.solve, rmatvec=lambda y: lu.solve(y, trans="T"),
        dtype=float)
    est = scipy.sparse.linalg.onenormest(inverse, t=1, itmax=4)
    alt = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    return max(est, 2.0 * float(np.abs(lu.solve(alt)).sum()) / (3 * n))


def steady_state(liouv: Liouvillian) -> SteadyStateResult:
    """Solve L_r x = 0 with Tr rho = 1 on the real generator `matrix`.

    The first row (slot (0, 0)) is replaced by the trace constraint, the
    sum of the diagonal slots, and the result is factored by one sparse
    real LU; a 1-norm estimate of the reciprocal condition number
    certifies that the kernel is one-dimensional (a second kernel
    direction leaves the constrained system singular). The parity
    sectors never couple and the trace row reads only diagonal (even)
    slots, so one factorization and one certificate cover both. The
    estimate is scipy's onenormest (Higham & Tisseur 2000) on solves
    with the factors, with one column (t = 1) and LAPACK's limit of five
    solves with A, plus LAPACK's alternating-sign bound. At t = 1 it
    draws no random numbers and reduces to Hager's iteration, so it is
    deterministic and gives LAPACK's number (xLACN2, as in dgecon). The
    residual is measured against the unmodified generator. Both
    thresholds are fixed: rcond must reach RCOND_FLOOR (1e-12) and the
    residual must stay within RESIDUAL_TOL (1e-10). rho is rebuilt from
    x, so the measured herm_defect is 0.

    Raises
    ------
    NoSteadyStateError
        If the constrained solve is singular/ill-conditioned (rcond below
        RCOND_FLOOR: kernel not one-dimensional within tolerance) or the
        residual exceeds RESIDUAL_TOL. The message names the certificate
        that failed, with its value (rcond or residual), and has the same
        form at every dimension.
    """
    import numpy as np
    import scipy.sparse
    import scipy.sparse.linalg

    lmat, dim = liouv.matrix, liouv.dim
    d2 = dim * dim
    trace_row = scipy.sparse.csr_array(
        (np.ones(dim), np.arange(0, d2, dim + 1), [0, dim]), shape=(1, d2))
    constrained = scipy.sparse.vstack([trace_row, lmat[1:]], format="csc")
    rhs = np.zeros(d2)
    rhs[0] = 1.0

    anorm = _norm1(constrained)
    try:
        lu = scipy.sparse.linalg.splu(constrained)
    except RuntimeError:
        raise NoSteadyStateError(
            "constrained system is exactly singular") from None
    with np.errstate(all="ignore"):
        ainv_norm = _inverse_norm1_estimate(lu)
    rcond = 1.0 / ainv_norm / anorm if ainv_norm else 0.0
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise NoSteadyStateError(
            f"constrained solve ill-conditioned (rcond = {rcond:.3e}); "
            "kernel is not one-dimensional within tolerance")
    x = lu.solve(rhs)

    residual = float(np.abs(lmat @ x).max())
    if residual > RESIDUAL_TOL:
        raise NoSteadyStateError(
            f"kernel residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")

    rho = _from_real(x.reshape(dim, dim, order="F"))
    trace = np.trace(rho).real
    trace_dev = float(abs(trace - 1.0))
    rho /= trace
    _, herm_defect, min_eig = map(float, _health(rho))
    rz, _, n, tail = liouv.expectations(rho)
    return SteadyStateResult(
        rho=rho, n=float(n), rz=float(rz), tail_mass=tail, residual=residual,
        rcond=float(rcond), trace_dev=trace_dev, herm_defect=herm_defect,
        min_eig=min_eig, n_max=liouv.n_max)


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


def converged_steady_state(p: PhysicalParams, *,
                           n_max_start: int = N_MAX_START,
                           dim_cap: int = DIM_BUDGET) -> ConvergenceRun:
    """steady_state with n_max escalation until the phonon number settles.

    Solves at n_max_start (by default N_MAX_START, 12), then n_max_start +
    ESCALATION_STEP, ... (a fixed step of 4 levels), accepting once the
    relative change of ⟨b†b⟩ between consecutive sizes drops below the
    fixed CONVERGENCE_REL_TOL (1e-4). Every solve carries steady_state's
    fixed certificates (RCOND_FLOOR, RESIDUAL_TOL).
    dim_cap, the escalation budget (by default DIM_BUDGET, 64), bounds
    total_dim of every cut built; checked_cut(n_max_start, dim_cap) checks
    the first cut before any build.

    Raises
    ------
    InvalidParamsError
        If dim_cap is not an integer >= total_dim(N_MAX_FLOOR) = 6
        (checked_int) or is above DEFAULT_DIM_CAP = 128, or n_max_start is
        not an integer >= N_MAX_FLOOR (2).
    DimensionOverflowError
        If the first cut's dimension, total_dim(n_max_start), exceeds dim_cap.
    TruncationBreachError
        If the cap is reached without convergence (history attached).
    """
    dim_cap = checked_int("dim_cap", dim_cap, total_dim(N_MAX_FLOOR))
    if dim_cap > DEFAULT_DIM_CAP:
        raise InvalidParamsError(
            "dim_cap", f"must be <= {DEFAULT_DIM_CAP} (the largest allowed "
            f"dimension), got {dim_cap}")
    n_max = checked_cut(n_max_start, dim_cap)
    prev = steady_state(build_liouvillian(p, n_max))
    history = [(n_max, prev.n)]
    while True:
        n_next = n_max + ESCALATION_STEP
        if total_dim(n_next) > dim_cap:
            raise TruncationBreachError(
                f"phonon number not converged at dimension cap {dim_cap}; "
                f"history: {history}")
        cur = steady_state(build_liouvillian(p, n_next))
        history.append((n_next, cur.n))
        rel = abs(cur.n - prev.n) / max(abs(cur.n), 1e-12)
        if rel < CONVERGENCE_REL_TOL:
            return ConvergenceRun(result=cur, history=tuple(history),
                                  rel_change=rel)
        prev, n_max = cur, n_next
