"""Physical inputs and the laser-dressed frame.

All frequencies and rates are plain numbers in units of one reference decay
rate per run; the package never fixes the reference itself, it only echoes
which convention the caller declared (see the CLI's ``reference_rate`` key).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

from .errors import InvalidParamsError

__all__ = ["RECOIL_SECOND_MOMENT", "PhysicalParams", "DressedFrame",
           "dressed_frame"]

# Second moment of the dipole emission pattern (3/8) * integral of
# x^2 (1 + x^2) over [-1, 1]; weights the recoil diffusion terms.
RECOIL_SECOND_MOMENT = 2.0 / 5.0


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
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise InvalidParamsError(name, f"not a number: {value!r}")
            if not math.isfinite(value):
                raise InvalidParamsError(name, f"must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.omega <= 0:
            raise InvalidParamsError("omega", f"must be > 0, got {self.omega}")
        if self.nu <= 0:
            raise InvalidParamsError("nu", f"must be > 0, got {self.nu}")
        if self.eta < 0:
            raise InvalidParamsError("eta", f"must be >= 0, got {self.eta}")
        for name in ("gamma_plus", "gamma_minus", "gamma_zero"):
            if getattr(self, name) < 0:
                raise InvalidParamsError(
                    name, f"must be >= 0, got {getattr(self, name)}")
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


# read once, not per construction: every grid point of a sweep builds a
# PhysicalParams, and dataclasses.fields is slow next to that
_FIELD_NAMES = tuple(f.name for f in fields(PhysicalParams))


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
