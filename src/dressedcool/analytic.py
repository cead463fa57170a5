"""Closed-form cooling model in the dressed basis.

Everything here follows from a secular master equation for the driven
emitter: the two dressed sidebands decay at gamma_plus*cos^4(theta) and
gamma_minus*sin^4(theta), the carrier dephases at (gamma_zero/4)*sin^2(2theta),
and the phonon couples to the dressed dipole with strength eta*omega. After
adiabatic elimination of the fast atomic dynamics the phonon obeys
d<n>/dt = -C <n> + A_plus, which is what the functions below evaluate.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import (DegenerateRatesError, InvalidGridError, OracleError,
                     ZeroCouplingError)
from .params import (RECOIL_SECOND_MOMENT, PhysicalParams, _square,
                     checked_real, dressed_frame)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RECOIL_SECOND_MOMENT",
    "DEFAULT_MARGIN",
    "HEATING",
    "Heating",
    "is_heating",
    "SteadyAtom",
    "RateSet",
    "DressedInit",
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

# the most e-folds |C| * t_end reduced_phonon_evolve integrates: DOP853
# takes about 1 s per 1e5 of them
_ODE_EFOLDS = 1e5
# the most e-folds a double can grow by: e^x overflows above ln(DBL_MAX)
_LN_DBL_MAX = math.log(sys.float_info.max)

# the factor by which each "much greater" validity check's left side must
# exceed its right side, unless the caller gives another
DEFAULT_MARGIN = 10.0


@dataclass(frozen=True)
class Heating:
    """Marker value: phonon gain exceeds loss, no steady phonon number.

    This is a result, not an error; sweeps and the CLI serialize it as the
    string sentinel "HEATING" (sweep.HEATING_SENTINEL).
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

    def __post_init__(self):
        for name, value in vars(self).items():
            _finite(name, value)


def _finite(name: str, value):
    """value, if finite: the closed form's one rule for its results (the
    rate set, n_s, C and the validity quantities). A result beyond double
    range, inf or nan, raises an OverflowError that names it and its value."""
    if not cmath.isfinite(value):
        raise OverflowError(f"{name} evaluates to {value!r}")
    return value


class _Ingredients(NamedTuple):
    """The dressed-state quantities every closed-form result is built from."""

    atom: SteadyAtom
    gamma_perp: float    # dressed-coherence damping
    gamma_s: float       # sideband weight sum; populations relax at 2*gamma_s
    gamma_0_eff: float   # recoil diffusion floor
    coupling: float      # eta*omega
    k: float             # (eta*omega)^2
    mismatch: float      # 2*omega_bar - nu, distance from the red sideband

    @property
    def lorentzian(self) -> float:
        return (_square("gamma_perp", self.gamma_perp)
                + _square("2*omega_bar - nu", self.mismatch))

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
        if self.coupling == 0.0:
            raise ZeroCouplingError("eta*omega = 0: phonon decoupled, "
                                    "steady phonon number undefined")
        if self.k == 0.0:
            raise OverflowError("(eta*omega)**2 underflows to 0 at "
                                f"eta*omega = {self.coupling!r}")
        recoil = self.gamma_0_eff * self.lorentzian
        divisor = self.k * self.gamma_perp * inversion_gap
        if divisor == 0.0:          # k > 0 here: the product underflowed
            raise OverflowError(
                "n_s divides by (eta*omega)**2 * gamma_perp * (r11 - r22), "
                f"which underflows to 0 at (eta*omega)**2 = {self.k!r}")
        return _finite("n_s", self.atom.r22 / inversion_gap + recoil / divisor)


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
    coupling = p.eta * p.omega
    return _Ingredients(
        atom=atom,
        gamma_perp=p.gamma_zero * f.sin2_2theta + down + up,
        gamma_s=total,
        gamma_0_eff=RECOIL_SECOND_MOMENT * _square("eta", p.eta) * (
            up * r11 + down * atom.r22 + 0.25 * p.gamma_zero * f.sin2_2theta),
        coupling=coupling,
        k=_square("eta*omega", coupling),
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
    expression, giving an independent route for consistency checks. A
    rate beyond double range raises OverflowError (see _finite).
    """
    return _ingredients(p)._rate_set()


def cooling_rate(p: PhysicalParams) -> float:
    """Net phonon damping rate C, evaluated directly.

    C = -2 (eta*omega)^2 * gamma_perp * rz / (gamma_perp^2 + mismatch^2),
    positive exactly when the lower dressed level dominates (rz < 0).
    """
    g = _ingredients(p)
    numerator = -2.0 * g.k * g.gamma_perp * g.atom.rz
    lorentzian = g.lorentzian
    if lorentzian == 0.0:       # gamma_perp > 0: both squares underflowed
        raise OverflowError(
            "cooling_rate divides by gamma_perp**2 + (2*omega_bar - nu)**2, "
            f"which underflows to 0 at gamma_perp = {g.gamma_perp!r}")
    return _finite("cooling_rate", numerator / lorentzian)


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
    OverflowError
        If the result is not finite (see _finite), or (eta*omega)^2 or
        the divisor (eta*omega)^2 * gamma_perp * (r11 - r22) underflows
        to 0 while eta*omega does not.
    """
    return _ingredients(p)._steady_phonon()


# --- trajectories ------------------------------------------------------------

@dataclass(frozen=True)
class DressedInit:
    """Initial inversion, coherence amplitude and mean phonon number in
    the dressed basis, checked as the CLI checks rz0, re_rplus0, im_rplus0
    and n0 (checked_real): all finite, n >= 0; InvalidParamsError if not."""

    rz: float
    rplus: complex = 0.0 + 0.0j
    n: float = 0.0

    def __post_init__(self):
        z = self.rplus
        self.__dict__.update(           # frozen: store the checked values
            rz=checked_real("rz", self.rz),
            rplus=complex(checked_real("re_rplus", getattr(z, "real", z)),
                          checked_real("im_rplus", getattr(z, "imag", 0.0))),
            n=checked_real("n", self.n, 0))


@dataclass(frozen=True)
class Trajectory:
    """Closed-form relaxation curves.

    rplus is the coherence envelope in the frame co-rotating at the dressed
    splitting (the full coherence additionally rotates at 2*omega_bar).
    phonon_growing flags a net-gain phonon branch (cooling_rate <= 0 with a
    positive source); on it n becomes +inf where e^{|C| t} overflows
    double precision, and is finite everywhere else.
    n_steady is the HEATING marker on the heating side and None when
    eta*omega = 0 (phonon decoupled, n stays at its initial value). Its
    decay rates are rate_set(p).gamma_s and rate_set(p).gamma_perp.
    """

    times: np.ndarray
    rz: np.ndarray
    rplus: np.ndarray
    n: np.ndarray
    rz_steady: float
    n_steady: float | Heating | None
    cooling_rate: float
    phonon_growing: bool


def _check_times(times) -> np.ndarray:
    import numpy as np
    try:
        t = np.asarray(times, dtype=float)
    except (TypeError, ValueError):
        raise InvalidGridError("times must be an array of numbers") from None
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
               init: DressedInit,
               times) -> Trajectory:
    """Relaxation of inversion, coherence envelope and phonon number.

    rz decays to its steady value at 2*gamma_s, the coherence envelope at
    gamma_perp, and the phonon number follows d<n>/dt = -C <n> + A_plus,
    written in the exp/expm1 form; for C < 0 it is +inf once e^{|C| t}
    overflows.
    """
    import numpy as np
    t = _check_times(times)
    g = _ingredients(p)
    atom = g.atom
    rates = g._rate_set()
    c = rates.cooling_rate
    a_plus_rate = rates.a_rate_plus

    # a decay exponent beyond double range is -inf, and exp gives its
    # exact limit 0; 2 * (gamma_s * t) keeps t = 0 at 0 where 2 * gamma_s
    # overflows
    with np.errstate(over="ignore"):
        rz = (init.rz - atom.rz) * np.exp(-2.0 * (rates.gamma_s * t)) + atom.rz
        rplus = init.rplus * np.exp(-rates.gamma_perp * t)
    if c == 0.0:
        with np.errstate(over="ignore"):   # beyond double range: +inf
            n = init.n + a_plus_rate * t
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            decay = np.exp(-c * t)
            n = init.n * decay - a_plus_rate * np.expm1(-c * t) / c
        # a growing branch whose exponential overflowed is +inf, not 0 * inf
        n[np.isinf(decay)] = np.inf

    try:
        n_steady: float | Heating | None = g._steady_phonon()
    except ZeroCouplingError:
        n_steady = None
    return Trajectory(
        times=t, rz=rz, rplus=np.asarray(rplus, dtype=complex), n=n,
        rz_steady=atom.rz, n_steady=n_steady, cooling_rate=c,
        phonon_growing=(c < 0.0 or (c == 0.0 and a_plus_rate > 0.0)),
    )


def reduced_phonon_evolve(p: PhysicalParams, n0: float, times) -> np.ndarray:
    """Integrate d<n>/dt = -C <n> + A_plus numerically on the given grid.

    This is an actual ODE solve, not the exponential closed form, so it
    independently checks the analytic trajectory expression. An n0 that
    is not a finite number >= 0 raises InvalidParamsError (checked_real).
    DOP853's step stays below a constant over |C|, so the work grows with
    |C| * t_end: beyond _ODE_EFOLDS e-folds (about 1 s) the grid raises
    InvalidGridError before any step. A growing n (C < 0) that leaves
    double range by t_end raises OverflowError before any step too: where
    e^{|C| t} overflows, as trajectory writes +inf there, and where
    n0 + A_plus/|C| times it does. An integrator failure raises
    OracleError, and a sample that is not finite OverflowError (see
    _finite).
    """
    # numpy and scipy are imported here, not at module level, so that
    # importing the closed form loads neither
    import numpy as np
    from scipy.integrate import solve_ivp

    t = _check_times(times)
    rates = rate_set(p)
    c = rates.cooling_rate
    source = rates.a_rate_plus
    n0 = checked_real("n0", n0, 0)
    t_end = float(t[-1])
    if t_end == 0.0:
        return np.array([n0])
    efolds = abs(c) * t_end
    if efolds > _ODE_EFOLDS:
        raise InvalidGridError(
            f"|C|*t_end = {efolds:.3g} e-folds exceeds the reduced ODE's "
            f"bound of {_ODE_EFOLDS:.0e}")
    if c < 0.0:
        # n = start e^{|C| t} - A_plus/|C|; a start below 1 counts as 1, so
        # e^{|C| t} alone still overflows and a start of 0 takes no log
        start = n0 + source / -c
        if efolds + math.log(max(start, 1.0)) > _LN_DBL_MAX:
            raise OverflowError(
                f"n_ode grows by {efolds:.3g} e-folds, beyond double range "
                f"({_LN_DBL_MAX:.2f}) from n0 + A_plus/|C| = {start:.3g}")
    # an overflowing step is rejected by the integrator or leaves a
    # sample that is not finite; both are reported below, not warned
    with np.errstate(all="ignore"):
        sol = solve_ivp(lambda tt, y: -c * y + source, (0.0, t_end),
                        [n0], method="DOP853", t_eval=t, rtol=1e-12,
                        atol=1e-14)
    if not sol.success:
        raise OracleError(f"reduced-model integration failed: {sol.message}")
    n = sol.y[0]
    if not np.isfinite(n).all():
        _finite("n_ode", float(n[~np.isfinite(n)][0]))
    return n


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
        in outputs. A ratio may be inf (see validity_report); an lhs, rhs
        or transient_time beyond double range raises here (see _finite),
        as a document holds only finite numbers, while the report's
        verdicts stay sound."""
        for check in self.checks:
            _finite(f"{check.name} lhs", check.lhs)
            _finite(f"{check.name} rhs", check.rhs)
        _finite("transient_time", self.transient_time)
        return asdict(self)


def _much_greater(name: str, lhs: float, rhs: float, margin: float) -> ValidityCheck:
    ratio = lhs / rhs if rhs != 0.0 else math.inf
    return ValidityCheck(name=name, kind="much_greater", lhs=lhs, rhs=rhs,
                         ratio=ratio, satisfied=ratio >= margin)


def validity_report(p: PhysicalParams,
                    margin: float = DEFAULT_MARGIN) -> ValidityReport:
    """Check the regime where the closed forms hold.

    secular:             max(gamma) << 2*omega_bar   (ratio >= margin)
    drive_below_decay:   eta*omega < max(gamma)      (literal)
    inversion_adiabatic: |C| << 2*gamma_s            (ratio >= margin)
    coherence_adiabatic: |C| << gamma_perp           (ratio >= margin)

    The adiabatic checks compare against |C| so heating-side parameters are
    judged by magnitude; C = 0 passes with an infinite ratio.  margin
    defaults to DEFAULT_MARGIN (10), which the CLI's --margin default reads
    too; a margin that is not a finite number > 0 raises InvalidParamsError
    (checked_real).
    """
    margin = checked_real("margin", margin, 0, strict=True)
    f = dressed_frame(p)
    rates = rate_set(p)
    c_mag = abs(rates.cooling_rate)
    gmax = p.max_gamma
    eta_omega = p.eta * p.omega
    checks = (
        _much_greater("secular", 2.0 * f.omega_bar, gmax, margin),
        ValidityCheck(name="drive_below_decay", kind="less",
                      lhs=eta_omega, rhs=gmax,
                      ratio=eta_omega / gmax,
                      satisfied=eta_omega < gmax),
        _much_greater("inversion_adiabatic", 2.0 * rates.gamma_s, c_mag, margin),
        _much_greater("coherence_adiabatic", rates.gamma_perp, c_mag, margin),
    )
    return ValidityReport(
        checks=checks, margin=margin,
        overall=all(c.satisfied for c in checks),
        transient_time=0.5 / f.omega_bar,
    )
