"""Flat key = value run configuration with unit suffixes.

The format is deliberately minimal so runs diff cleanly and parse with
no dependencies: one ``key = value`` per line, ``#`` comments, blank
lines ignored.  Physical quantities take an optional unit suffix
(``mass = 40 pg``); lists are comma separated.  Unit conversion is
delegated to the physical layer, the single place units exist.
"""

from __future__ import annotations

import math
from pathlib import Path

from .outputs import tf_label
from .physical import FIELD_UNITS, ParameterError, PhysicalParams, parse_quantity
from .records import Record


class ConfigError(ValueError):
    """Config file rejected; message carries file line and key context."""


DEFAULT_CONFIG = """\
# Device (measured values; unit suffixes are converted on parse)
coulomb_k = 8.988e9
capacitance = 27.5 nF
voltage_amplitude = 7.00 V
charge_density = 1.25e13 /cm^2
charge_area = 0.08 um^2
mass = 40 pg
bare_frequency = 134 kHz
separation = 3.15 um
bath_temperature = 20 mK
# resonator_charge = 1.6022e-15 C   # optional: overrides density * area

# Protocol (ramp times in 1/omega_m; tolerance is per-step, relative)
t_final = 0.5, 1.0, 2.0
sample_count = 201
tolerance = 1e-10

# Drive-error sweep
epsilon = -0.1, 0.0, 0.1
initial_state = nominal

# Output
output_dir = out
format = csv
precision = 12
"""

class ProtocolConfig(Record):
    t_final: tuple[float, ...] = (0.5, 1.0, 2.0)
    sample_count: int = 201
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not self.t_final or not all(t > 0.0 and math.isfinite(t) for t in self.t_final):
            raise ConfigError("t_final must be a non-empty list of positive finite times")
        labels = [tf_label(t) for t in self.t_final]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"t_final values share a file label: {', '.join(labels)}")
        if self.sample_count < 2:
            raise ConfigError(f"sample_count must be >= 2, got {self.sample_count}")
        if not 0.0 < self.tolerance <= 1e-3:
            raise ConfigError(f"tolerance must lie in (0, 1e-3], got {self.tolerance!r}")


class SweepConfig(Record):
    epsilon: tuple[float, ...] = (-0.1, 0.0, 0.1)
    initial_state: str = "nominal"

    def __post_init__(self) -> None:
        if not self.epsilon or not all(math.isfinite(eps) for eps in self.epsilon):
            raise ConfigError("epsilon must be a non-empty list of finite drive errors")
        if self.initial_state not in ("nominal", "perturbed"):
            raise ConfigError(
                f"initial_state must be 'nominal' or 'perturbed', got {self.initial_state!r}"
            )


class OutputConfig(Record):
    directory: str = "out"
    format: str = "csv"
    precision: int = 12

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if not 6 <= self.precision <= 17:
            raise ConfigError(f"precision must lie in [6, 17], got {self.precision}")


class RunConfig(Record):
    physical: PhysicalParams
    protocol: ProtocolConfig
    sweep: SweepConfig
    output: OutputConfig


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


# Every non-physical key: (section, record field, parser), in
# serialization order.  The section records hold the only defaults;
# the physical keys are those of physical.FIELD_UNITS.
_KEYS = {
    "t_final": ("protocol", "t_final", _float_list),
    "sample_count": ("protocol", "sample_count", int),
    "tolerance": ("protocol", "tolerance", float),
    "epsilon": ("sweep", "epsilon", _float_list),
    "initial_state": ("sweep", "initial_state", str),
    "output_dir": ("output", "directory", str),
    "format": ("output", "format", str),
    "precision": ("output", "precision", int),
}
_SECTIONS = {"protocol": ProtocolConfig, "sweep": SweepConfig, "output": OutputConfig}


def parse_config(
    text: str, source: str = "<config>", overrides: dict[str, str] | None = None
) -> RunConfig:
    """Parse config text; raise ConfigError with line/field context.

    ``overrides`` (key -> value text) replace the file's values, parsed as its lines are.
    """
    entries: dict[str, tuple[str, str]] = {}  # key -> (where, value text)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} (first at {entries[key][0]})")
        if key not in FIELD_UNITS and key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        entries[key] = f"{source}:{lineno}", value
    for key, value in (overrides or {}).items():
        if key not in FIELD_UNITS and key not in _KEYS:
            raise ConfigError(f"command line: unknown key {key!r}")
        entries[key] = "command line", value.strip()
    physical_kwargs: dict[str, float] = {}
    sections: dict[str, dict] = {name: {} for name in _SECTIONS}
    for key, (where, value) in entries.items():
        if not value:
            raise ConfigError(f"{where}: {key}: empty value")
        try:  # ParameterError is a ValueError too
            if key in FIELD_UNITS:
                physical_kwargs[key] = parse_quantity(key, value)
            else:
                section, name, parse = _KEYS[key]
                sections[section][name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from exc

    required = (name for name in PhysicalParams._fields if name not in PhysicalParams._field_defaults)
    missing = [key for key in required if key not in physical_kwargs]
    if missing:
        raise ConfigError(f"{source}: missing required physical parameters: {', '.join(missing)}")

    try:
        physical = PhysicalParams.create(**physical_kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return RunConfig(physical, **{name: cls(**sections[name]) for name, cls in _SECTIONS.items()})


def load_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Load a config file, or the built-in defaults when path is None."""
    if path is None:
        return parse_config(DEFAULT_CONFIG, "<default>", overrides)
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, str(p), overrides)

