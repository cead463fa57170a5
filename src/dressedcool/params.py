"""Physical inputs and the laser-dressed frame.

All frequencies and rates are plain numbers in units of one reference decay
rate per run; the package never fixes the reference itself, it only echoes
which convention the caller declared (see the CLI's ``reference_rate`` key).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .errors import InvalidParamsError

__all__ = ["RECOIL_SECOND_MOMENT", "checked_int", "checked_real",
           "PhysicalParams", "DressedFrame", "dressed_frame"]

# Second moment of the dipole emission pattern (3/8) * integral of
# x^2 (1 + x^2) over [-1, 1]; weights the recoil diffusion terms.
RECOIL_SECOND_MOMENT = 2.0 / 5.0


def checked_int(name: str, value, low: int) -> int:
    """int(value); InvalidParamsError on `name` unless an integer >= low
    (a whole float such as 3.0 passes; a non-number, nan or inf does not).
    With checked_real, the package's one rule for a scalar input."""
    try:
        if low <= value < math.inf and int(value) == value:
            return int(value)
    except TypeError:           # not a real number: a str, None, a complex
        pass
    raise InvalidParamsError(name, f"must be an integer >= {low}, got {value}")


def checked_real(name: str, value, low: float = -math.inf, *,
                 strict: bool = False) -> float:
    """float(value); InvalidParamsError on `name` unless it is a finite
    number >= low (> low if strict). The bound is printed as given, so a
    bound of 0 reads 0."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InvalidParamsError(name, f"not a number: {value!r}") from None
    if not math.isfinite(value):
        raise InvalidParamsError(name, f"must be finite, got {value!r}")
    if value < low or (strict and value == low):
        raise InvalidParamsError(
            name, f"must be {'>' if strict else '>='} {low}, got {value}")
    return value


def _square(name: str, value: float) -> float:
    """value ** 2; where a float power overflows, an OverflowError names
    the quantity and its value. Not written as value * value: pow and a
    product differ in the last bit for some doubles (pow squares
    5.376587199911069e-07 to 2.890768991824755e-13, x * x to
    2.8907689918247554e-13), which would change finite closed-form bytes."""
    try:
        return value ** 2
    except OverflowError:
        term = name if name.isidentifier() else f"({name})"
        raise OverflowError(
            f"{term}**2 overflows at {name} = {value!r}") from None


@dataclass(frozen=True)
class PhysicalParams:
    """Inputs of the cooling model.

    Parameters
    ----------
    omega : float
        Rabi frequency of the coherent drive, > 0.
    delta : float
        Detuning, emitter frequency minus drive frequency. Positive values
        put the drive below (red of) the emitter. Any sign.
    nu : float
        Vibrational (phonon) frequency, > 0.
    eta : float
        Lamb-Dicke parameter, >= 0. eta = 0 decouples the phonon; everything
        downstream must stay finite in that limit.
    gamma_plus, gamma_minus, gamma_zero : float
        Vacuum decay rates seen by the upper sideband, the lower sideband and
        the carrier respectively, each >= 0, not all zero. Equal rates
        reproduce an unstructured (free-space) reservoir.
    """

    omega: float
    delta: float
    nu: float
    eta: float
    gamma_plus: float
    gamma_minus: float
    gamma_zero: float

    def __post_init__(self):
        for name, low, strict in _FIELD_RULES:
            object.__setattr__(self, name, checked_real(
                name, getattr(self, name), low, strict=strict))
        if self.gamma_plus + self.gamma_minus + self.gamma_zero == 0.0:
            raise InvalidParamsError(
                "gamma_plus", "decay rates cannot all be zero")

    @property
    def max_gamma(self) -> float:
        return max(self.gamma_plus, self.gamma_minus, self.gamma_zero)

    def replace(self, **changes) -> "PhysicalParams":
        """Return a copy with fields replaced (re-validated)."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, float]:
        """Field values in declaration order, for embedding in outputs."""
        return asdict(self)


# (field, lower bound, whether the bound itself is refused) in field
# order, as the class docstring states them
_FIELD_RULES = (("omega", 0, True), ("delta", -math.inf, False),
                ("nu", 0, True), ("eta", 0, False), ("gamma_plus", 0, False),
                ("gamma_minus", 0, False), ("gamma_zero", 0, False))


@dataclass(frozen=True)
class DressedFrame:
    """Kinematics of the drive-dressed two-level system.

    omega_bar is the dressed-state splitting (half the distance between the
    two sidebands); the mixing angle theta enters only through the squared
    sine/cosine combinations stored here, so theta itself is never needed.
    cos2_theta + sin2_theta == 1 holds exactly by construction.
    """

    omega_bar: float
    cos2_theta: float   # cos^2(theta)
    sin2_theta: float   # sin^2(theta)
    cos_2theta: float   # cos(2 theta) = delta / (2 omega_bar)
    sin_2theta: float   # sin(2 theta) = omega / omega_bar

    @property
    def cos4_theta(self) -> float:
        return self.cos2_theta * self.cos2_theta

    @property
    def sin4_theta(self) -> float:
        return self.sin2_theta * self.sin2_theta

    @property
    def sin2_2theta(self) -> float:
        return self.sin_2theta * self.sin_2theta


def dressed_frame(p: PhysicalParams) -> DressedFrame:
    """Dressed splitting and mixing weights for the given parameters.

    omega_bar = sqrt(omega^2 + (delta/2)^2), cos^2(theta) = (1 + c)/2 with
    c = delta/(2 omega_bar); sin^2(theta) is computed as the exact float
    complement of cos^2(theta).
    """
    omega_bar = math.hypot(p.omega, 0.5 * p.delta)
    c = 0.5 * p.delta / omega_bar
    cos2 = 0.5 * (1.0 + c)
    return DressedFrame(
        omega_bar=omega_bar,
        cos2_theta=cos2,
        sin2_theta=1.0 - cos2,
        cos_2theta=c,
        sin_2theta=p.omega / omega_bar,
    )
