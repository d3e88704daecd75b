"""Device parameters and the electrostatic model of the biased resonator.

A charged beam sits midway between two gate electrodes a distance ``d``
away on either side.  Charging the gates to ``U = U0 * f(t)`` stiffens
(or softens) the beam's motion; to quadratic order in ``x/d`` the bias
acts as a parabolic potential that shifts the squared eigenfrequency to

    omega_eff^2 = omega_m^2 * (1 + eta * f(t)),

with the dimensionless coupling ``eta = 4 k C0 U0 Q / (m omega_m^2 d^3)``.

This module is the only place units are converted: parameters are stored
in SI, and every accepted input unit is listed in :data:`FIELD_UNITS`.
All other modules work either in SI scalars taken from here or in
reduced units (frequencies squared in omega_m^2, time in 1/omega_m).
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

from .constants import COULOMB_K_DEFAULT, ELEMENTARY_CHARGE
from .records import Record, astuple


class ParameterError(ValueError):
    """A physical parameter is missing, malformed, or out of domain."""


_TWO_PI = 2.0 * math.pi

# Accepted unit suffixes per field, as factors to the SI value.  Angular
# frequencies are stored in rad/s; plain-frequency suffixes include the
# 2*pi.  A missing suffix means the value is already in the SI column.
FIELD_UNITS: dict[str, dict[str, float]] = {
    "coulomb_k": {"": 1.0},
    "capacitance": {"": 1.0, "F": 1.0, "uF": 1e-6, "nF": 1e-9, "pF": 1e-12, "fF": 1e-15},
    "voltage_amplitude": {"": 1.0, "V": 1.0, "mV": 1e-3, "kV": 1e3},
    "charge_density": {
        "": 1.0,
        "/m^2": 1.0,
        "1/m^2": 1.0,
        "m^-2": 1.0,
        "/cm^2": 1e4,
        "1/cm^2": 1e4,
        "cm^-2": 1e4,
    },
    "charge_area": {"": 1.0, "m^2": 1.0, "um^2": 1e-12, "nm^2": 1e-18},
    "resonator_charge": {"": 1.0, "C": 1.0, "e": ELEMENTARY_CHARGE},
    "mass": {"": 1.0, "kg": 1.0, "g": 1e-3, "ug": 1e-9, "ng": 1e-12, "pg": 1e-15, "fg": 1e-18},
    "bare_frequency": {
        "": 1.0,
        "rad/s": 1.0,
        "Hz": _TWO_PI,
        "kHz": _TWO_PI * 1e3,
        "MHz": _TWO_PI * 1e6,
        "GHz": _TWO_PI * 1e9,
    },
    "separation": {"": 1.0, "m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "bath_temperature": {"": 1.0, "K": 1.0, "mK": 1e-3, "uK": 1e-6},
}


def parse_quantity(field: str, text: str) -> float:
    """Parse ``"<number> [unit]"`` into the SI value of ``field``."""
    parts = text.strip().split(None, 1)
    if not parts:
        raise ParameterError(f"empty value for {field}")
    try:
        value = float(parts[0])
    except ValueError:
        raise ParameterError(f"cannot parse number {parts[0]!r} for {field}") from None
    unit = parts[1].strip() if len(parts) == 2 else ""
    table = FIELD_UNITS.get(field)
    if table is None:
        raise ParameterError(f"unknown parameter field {field!r}")
    if unit not in table:
        accepted = ", ".join(repr(u) for u in table if u)
        raise ParameterError(
            f"unsupported unit {unit!r} for {field}; accepted: {accepted or 'SI only'}"
        )
    return value * table[unit]


class PhysicalParams(Record, kw_only=True):
    """Device constants in SI units; the schema of the config's device keys.

    The fields without a default are the required keys.  Build through
    :meth:`create` to derive ``resonator_charge`` from the surface charge
    density and charged area.
    """

    coulomb_k: float = COULOMB_K_DEFAULT  # N m^2/C^2
    capacitance: float  # F
    voltage_amplitude: float  # V
    charge_density: float = 0.0  # 1/m^2
    charge_area: float = 0.0  # m^2
    resonator_charge: float = 0.0  # C
    mass: float  # kg
    bare_frequency: float  # rad/s
    separation: float  # m
    bath_temperature: float  # K

    def __post_init__(self) -> None:
        for name, value in zip(self._fields, astuple(self)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        for name in ("capacitance", "mass", "bare_frequency", "separation", "bath_temperature"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be strictly positive, got {getattr(self, name)!r}")

    @classmethod
    def create(cls, *, resonator_charge: float | None = None, **values: float) -> "PhysicalParams":
        """Build params, deriving the total charge from (density, area) if needed.

        ``values`` are the other fields by name.  If both a direct charge
        and (density, area) are supplied, the direct value wins; a warning
        is emitted when the two disagree by more than 1e-9 relative.
        """
        derived = ELEMENTARY_CHARGE * values.get("charge_density", 0.0) * values.get("charge_area", 0.0)
        if resonator_charge is None:
            resonator_charge = derived
        elif derived != 0.0 and not math.isclose(derived, resonator_charge, rel_tol=1e-9):
            warnings.warn(
                "resonator_charge %.6e C overrides the value %.6e C derived "
                "from charge_density * charge_area" % (resonator_charge, derived),
                stacklevel=2,
            )
        return cls(resonator_charge=resonator_charge, **values)

    @cached_property
    def eta(self) -> float:
        """Dimensionless electrostatic coupling 4 k C0 U0 Q / (m omega_m^2 d^3)."""
        return compute_eta(self)


def compute_eta(params: PhysicalParams) -> float:
    """Coupling strength between the gate bias and the squared eigenfrequency.

    Raises ParameterError when m omega_m^2 d^3 leaves the float range:
    a power that overflows, or a denominator that underflows to zero.
    """
    num = 4.0 * params.coulomb_k * params.capacitance * params.voltage_amplitude
    num *= params.resonator_charge
    try:
        den = params.mass * params.bare_frequency**2 * params.separation**3
        return num / den
    except (OverflowError, ZeroDivisionError):
        raise ParameterError(
            "eta is out of float range: m * omega_m^2 * d^3 overflows or underflows"
        ) from None
