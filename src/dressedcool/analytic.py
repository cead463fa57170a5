"""Closed-form cooling model in the dressed basis.

Everything here follows from a secular master equation for the driven
emitter: the two dressed sidebands decay at gamma_plus*cos^4(theta) and
gamma_minus*sin^4(theta), the carrier dephases at (gamma_zero/4)*sin^2(2theta),
and the phonon couples to the dressed dipole with strength eta*omega. After
adiabatic elimination of the fast atomic dynamics the phonon obeys
d<n>/dt = -C <n> + A_plus, which is what the functions below evaluate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateRatesError, InvalidGridError,
                     InvalidParamsError, OracleError, ZeroCouplingError)
from .params import (RECOIL_SECOND_MOMENT, DressedFrame, PhysicalParams,
                     dressed_frame)

__all__ = [
    "RECOIL_SECOND_MOMENT",
    "HEATING",
    "Heating",
    "is_heating",
    "SteadyAtom",
    "RateSet",
    "DressedInit",
    "BareInit",
    "Trajectory",
    "ValidityCheck",
    "ValidityReport",
    "steady_atom",
    "rate_set",
    "cooling_rate",
    "steady_phonon",
    "trajectory",
    "reduced_phonon_evolve",
    "validity_report",
]

# r11 - r22 below this is treated as exact population balance (heating).
_BALANCE_TOL = 1e-14


@dataclass(frozen=True)
class Heating:
    """Marker value: phonon gain exceeds loss, no steady phonon number.

    This is a result, not an error; sweeps and the CLI serialize it as the
    string sentinel "heating".
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "HEATING"


HEATING = Heating()


def is_heating(value) -> bool:
    return isinstance(value, Heating)


@dataclass(frozen=True)
class SteadyAtom:
    """Stationary populations of the dressed levels.

    r11/r22 are the lower/upper dressed-level populations, rz = r22 - r11
    the dressed inversion and sz the bare-basis inversion expectation
    <S_z> = cos(2 theta) * rz / 2.
    """

    r11: float
    r22: float
    rz: float
    sz: float


@dataclass(frozen=True)
class RateSet:
    """Relaxation and phonon-coupling coefficients.

    gamma_perp damps the dressed coherence, gamma_s sets the population
    relaxation (populations relax at 2*gamma_s), gamma_0_eff is the recoil
    diffusion floor. a_minus / a_plus are the complex phonon loss/gain
    coefficients; a_rate_minus / a_rate_plus their real rates (twice the real
    part) and cooling_rate their difference.
    """

    gamma_perp: float
    gamma_s: float
    gamma_0_eff: float
    a_minus: complex
    a_plus: complex
    a_rate_minus: float
    a_rate_plus: float
    cooling_rate: float


class _Ingredients(NamedTuple):
    """The dressed-state quantities every closed-form result is built from."""

    atom: SteadyAtom
    gamma_perp: float    # dressed-coherence damping
    gamma_s: float       # sideband weight sum; populations relax at 2*gamma_s
    gamma_0_eff: float   # recoil diffusion floor
    k: float             # (eta*omega)^2
    mismatch: float      # 2*omega_bar - nu, distance from the red sideband

    @property
    def lorentzian(self) -> float:
        return self.gamma_perp ** 2 + self.mismatch ** 2

    def _rate_set(self) -> RateSet:
        a_minus = self.gamma_0_eff + (
            self.k * self.atom.r11 / complex(self.gamma_perp, self.mismatch))
        a_plus = self.gamma_0_eff + (
            self.k * self.atom.r22 / complex(self.gamma_perp, -self.mismatch))
        a_rate_minus = 2.0 * a_minus.real
        a_rate_plus = 2.0 * a_plus.real
        return RateSet(
            gamma_perp=self.gamma_perp,
            gamma_s=self.gamma_s,
            gamma_0_eff=self.gamma_0_eff,
            a_minus=a_minus,
            a_plus=a_plus,
            a_rate_minus=a_rate_minus,
            a_rate_plus=a_rate_plus,
            cooling_rate=a_rate_minus - a_rate_plus,
        )

    def _steady_phonon(self) -> float | Heating:
        inversion_gap = -self.atom.rz   # r11 - r22, exact sign
        if inversion_gap <= _BALANCE_TOL:
            return HEATING
        if self.k == 0.0:
            raise ZeroCouplingError("eta*omega = 0: phonon decoupled, "
                                    "steady phonon number undefined")
        return (self.atom.r22 / inversion_gap
                + self.gamma_0_eff * self.lorentzian
                / (self.k * self.gamma_perp * inversion_gap))


def _ingredients(p: PhysicalParams) -> _Ingredients:
    f = dressed_frame(p)
    down = p.gamma_plus * f.cos4_theta   # upper -> lower dressed decay weight
    up = p.gamma_minus * f.sin4_theta    # lower -> upper dressed pump weight
    total = down + up
    if total <= 0.0:
        raise DegenerateRatesError(
            "gamma_plus*cos^4(theta) + gamma_minus*sin^4(theta) = 0: "
            "both dressed transitions are dark")
    r11 = down / total
    # (up - down)/total equals r22 - r11 to rounding but keeps the sign of
    # the rate comparison exact, which the cooling-sign law relies on.
    rz = (up - down) / total
    atom = SteadyAtom(r11=r11, r22=1.0 - r11, rz=rz,
                      sz=0.5 * f.cos_2theta * rz)
    return _Ingredients(
        atom=atom,
        gamma_perp=p.gamma_zero * f.sin2_2theta + down + up,
        gamma_s=total,
        gamma_0_eff=RECOIL_SECOND_MOMENT * p.eta ** 2 * (
            up * r11 + down * atom.r22 + 0.25 * p.gamma_zero * f.sin2_2theta),
        k=(p.eta * p.omega) ** 2,
        mismatch=2.0 * f.omega_bar - p.nu,
    )


def steady_atom(p: PhysicalParams) -> SteadyAtom:
    """Stationary dressed populations from sideband detailed balance.

    Raises
    ------
    DegenerateRatesError
        If gamma_plus*cos^4(theta) + gamma_minus*sin^4(theta) = 0 (both
        sideband transitions dark): no unique atomic steady state exists.
    """
    return _ingredients(p).atom


def rate_set(p: PhysicalParams) -> RateSet:
    """All relaxation rates and phonon coupling coefficients.

    The cooling_rate field is the difference of the two real coupling rates;
    the standalone cooling_rate() function evaluates the equivalent direct
    expression, giving an independent route for consistency checks.
    """
    return _ingredients(p)._rate_set()


def cooling_rate(p: PhysicalParams) -> float:
    """Net phonon damping rate C, evaluated directly.

    C = -2 (eta*omega)^2 * gamma_perp * rz / (gamma_perp^2 + mismatch^2),
    positive exactly when the lower dressed level dominates (rz < 0).
    """
    g = _ingredients(p)
    return -2.0 * g.k * g.gamma_perp * g.atom.rz / g.lorentzian


def steady_phonon(p: PhysicalParams) -> float | Heating:
    """Steady mean phonon number, or the HEATING marker.

    On the cooling side (r11 > r22) this is
        r22/(r11 - r22)
        + gamma_0_eff*(gamma_perp^2 + mismatch^2)
          / ((eta*omega)^2 * gamma_perp * (r11 - r22)),
    the sideband-balance floor plus the recoil-diffusion contribution.
    Population balance is detected at relative tolerance 1e-14.

    Raises
    ------
    ZeroCouplingError
        If eta*omega = 0 while the parameters are on the cooling side: the
        second term is 0/0 and no steady phonon number is defined.
    """
    return _ingredients(p)._steady_phonon()


# --- trajectories ------------------------------------------------------------

@dataclass(frozen=True)
class DressedInit:
    """Initial conditions in the dressed basis: inversion, coherence
    amplitude and mean phonon number."""

    rz: float
    rplus: complex = 0.0 + 0.0j
    n: float = 0.0


@dataclass(frozen=True)
class BareInit:
    """Initial conditions in the bare basis; <S_-> is the conjugate of
    splus, as in any physical state."""

    sz: float
    splus: complex = 0.0 + 0.0j
    n: float = 0.0

    def to_dressed(self, frame: DressedFrame) -> DressedInit:
        sm = self.splus.conjugate()
        rz = frame.cos_2theta * self.sz + frame.sin_2theta * (self.splus + sm)
        rplus = (frame.cos2_theta * self.splus
                 - frame.sin2_theta * sm
                 - frame.sin_2theta * self.sz)
        return DressedInit(rz=float(rz.real), rplus=complex(rplus), n=self.n)


@dataclass(frozen=True)
class Trajectory:
    """Closed-form relaxation curves.

    rplus is the coherence envelope in the frame co-rotating at the dressed
    splitting (the full coherence additionally rotates at 2*omega_bar).
    phonon_growing flags a net-gain phonon branch (cooling_rate <= 0 with a
    positive source); the curves themselves stay finite for any sign.
    n_steady is the HEATING marker on the heating side and None when
    eta*omega = 0 (phonon decoupled, n stays at its initial value).
    """

    times: np.ndarray
    rz: np.ndarray
    rplus: np.ndarray
    n: np.ndarray
    rz_steady: float
    n_steady: float | Heating | None
    cooling_rate: float
    gamma_perp: float
    gamma_s: float
    phonon_growing: bool


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidGridError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(t)):
        raise InvalidGridError("times must be finite")
    if t[0] < 0:
        raise InvalidGridError("times must be >= 0")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise InvalidGridError("times must be strictly increasing")
    return t


def trajectory(p: PhysicalParams,
               init: DressedInit | BareInit,
               times) -> Trajectory:
    """Relaxation of inversion, coherence envelope and phonon number.

    rz decays to its steady value at 2*gamma_s, the coherence envelope at
    gamma_perp, and the phonon number follows d<n>/dt = -C <n> + A_plus,
    written in the exp/expm1 form that stays finite for C of any sign.
    """
    t = _check_times(times)
    f = dressed_frame(p)
    if isinstance(init, BareInit):
        init = init.to_dressed(f)
    g = _ingredients(p)
    atom = g.atom
    rates = g._rate_set()
    c = rates.cooling_rate
    a_plus_rate = rates.a_rate_plus

    rz = (init.rz - atom.rz) * np.exp(-2.0 * rates.gamma_s * t) + atom.rz
    rplus = init.rplus * np.exp(-rates.gamma_perp * t)
    if c == 0.0:
        n = init.n + a_plus_rate * t
    else:
        decay = np.exp(-c * t)
        n = init.n * decay - a_plus_rate * np.expm1(-c * t) / c

    try:
        n_steady: float | Heating | None = g._steady_phonon()
    except ZeroCouplingError:
        n_steady = None
    return Trajectory(
        times=t, rz=rz, rplus=np.asarray(rplus, dtype=complex), n=n,
        rz_steady=atom.rz, n_steady=n_steady, cooling_rate=c,
        gamma_perp=rates.gamma_perp, gamma_s=rates.gamma_s,
        phonon_growing=(c < 0.0 or (c == 0.0 and a_plus_rate > 0.0)),
    )


def reduced_phonon_evolve(p: PhysicalParams, n0: float, times) -> np.ndarray:
    """Integrate d<n>/dt = -C <n> + A_plus numerically on the given grid.

    This is an actual ODE solve, not the exponential closed form, so it
    independently checks the analytic trajectory expression; an
    integrator failure raises OracleError.
    """
    # scipy is imported here, not at module level, so that importing the
    # closed form costs numpy only
    from scipy.integrate import solve_ivp

    t = _check_times(times)
    rates = rate_set(p)
    c = rates.cooling_rate
    source = rates.a_rate_plus
    n0 = float(n0)
    if t[-1] == 0.0:
        return np.array([n0])
    sol = solve_ivp(lambda tt, y: -c * y + source, (0.0, float(t[-1])),
                    [n0], method="DOP853", t_eval=t, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise OracleError(f"reduced-model integration failed: {sol.message}")
    return sol.y[0]


# --- validity diagnostics ----------------------------------------------------

@dataclass(frozen=True)
class ValidityCheck:
    """One inequality of the model's validity regime.

    kind "much_greater" passes when lhs >= margin * rhs (ratio = lhs/rhs);
    kind "less" is literal lhs < rhs.
    """

    name: str
    kind: str
    lhs: float
    rhs: float
    ratio: float
    satisfied: bool


@dataclass(frozen=True)
class ValidityReport:
    """All validity inequalities with a conjunction flag.

    transient_time = 1/(2*omega_bar) is the time scale below which the
    closed-form trajectories are not meaningful (informational, not a check).
    """

    checks: tuple[ValidityCheck, ...]
    margin: float
    overall: bool
    transient_time: float

    def __getitem__(self, name: str) -> ValidityCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def as_dict(self) -> dict:
        """Every field, each check as a dict of its fields, for embedding
        in outputs."""
        return asdict(self)


def _much_greater(name: str, lhs: float, rhs: float, margin: float) -> ValidityCheck:
    ratio = lhs / rhs if rhs != 0.0 else math.inf
    return ValidityCheck(name=name, kind="much_greater", lhs=lhs, rhs=rhs,
                         ratio=ratio, satisfied=ratio >= margin)


def validity_report(p: PhysicalParams, margin: float = 10.0) -> ValidityReport:
    """Check the regime where the closed forms hold.

    secular:             max(gamma) << 2*omega_bar   (ratio >= margin)
    drive_below_decay:   eta*omega < max(gamma)      (literal)
    inversion_adiabatic: |C| << 2*gamma_s            (ratio >= margin)
    coherence_adiabatic: |C| << gamma_perp           (ratio >= margin)

    The adiabatic checks compare against |C| so heating-side parameters are
    judged by magnitude; C = 0 passes with an infinite ratio.  A margin
    that is not finite and > 0 raises InvalidParamsError (a ValueError).
    """
    if not 0.0 < margin < math.inf:
        raise InvalidParamsError(
            "margin", f"must be finite and > 0, got {margin}")
    f = dressed_frame(p)
    rates = rate_set(p)
    c_mag = abs(rates.cooling_rate)
    gmax = p.max_gamma
    eta_omega = p.eta * p.omega
    checks = (
        _much_greater("secular", 2.0 * f.omega_bar, gmax, margin),
        ValidityCheck(name="drive_below_decay", kind="less",
                      lhs=eta_omega, rhs=gmax,
                      ratio=eta_omega / gmax if gmax else math.inf,
                      satisfied=eta_omega < gmax),
        _much_greater("inversion_adiabatic", 2.0 * rates.gamma_s, c_mag, margin),
        _much_greater("coherence_adiabatic", rates.gamma_perp, c_mag, margin),
    )
    return ValidityReport(
        checks=checks, margin=margin,
        overall=all(c.satisfied for c in checks),
        transient_time=0.5 / f.omega_bar,
    )
