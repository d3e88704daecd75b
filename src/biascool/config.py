"""Flat key = value run configuration with unit suffixes.

The format is deliberately minimal so runs diff cleanly and parse with
no dependencies: one ``key = value`` per line, ``#`` comments, blank
lines ignored.  Physical quantities take an optional unit suffix
(``mass = 40 pg``); lists are comma separated.  Unit conversion is
delegated to the physical layer, the single place units exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .outputs import tf_label
from .physical import ParameterError, PhysicalParams, parse_quantity


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

_PHYSICAL_KEYS = (
    "coulomb_k",
    "capacitance",
    "voltage_amplitude",
    "charge_density",
    "charge_area",
    "resonator_charge",
    "mass",
    "bare_frequency",
    "separation",
    "bath_temperature",
)
_REQUIRED_PHYSICAL = (
    "capacitance",
    "voltage_amplitude",
    "mass",
    "bare_frequency",
    "separation",
    "bath_temperature",
)


@dataclass(frozen=True)
class ProtocolConfig:
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


@dataclass(frozen=True)
class SweepConfig:
    epsilon: tuple[float, ...] = (-0.1, 0.0, 0.1)
    initial_state: str = "nominal"

    def __post_init__(self) -> None:
        if not self.epsilon:
            raise ConfigError("epsilon list must be non-empty")
        if self.initial_state not in ("nominal", "perturbed"):
            raise ConfigError(
                f"initial_state must be 'nominal' or 'perturbed', got {self.initial_state!r}"
            )


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    format: str = "csv"
    precision: int = 12

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if not 6 <= self.precision <= 17:
            raise ConfigError(f"precision must lie in [6, 17], got {self.precision}")


@dataclass(frozen=True)
class RunConfig:
    physical: PhysicalParams
    protocol: ProtocolConfig
    sweep: SweepConfig
    output: OutputConfig


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text; raise ConfigError with line/field context."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} (first at line {raw[key][1]})")
        raw[key] = (value, lineno)

    def take(key: str) -> tuple[str, int] | None:
        return raw.pop(key, None)

    physical_kwargs: dict[str, float] = {}
    for key in _PHYSICAL_KEYS:
        entry = take(key)
        if entry is None:
            continue
        value, lineno = entry
        try:
            physical_kwargs[key] = parse_quantity(key, value)
        except ParameterError as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from exc

    def scalar(key: str, default, conv):
        entry = take(key)
        if entry is None:
            return default
        value, lineno = entry
        try:
            return conv(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from exc

    t_final = scalar("t_final", ProtocolConfig.t_final, _float_list)
    sample_count = scalar("sample_count", ProtocolConfig.sample_count, int)
    tolerance = scalar("tolerance", ProtocolConfig.tolerance, float)
    epsilon = scalar("epsilon", SweepConfig.epsilon, _float_list)
    initial_state = scalar("initial_state", SweepConfig.initial_state, str)
    directory = scalar("output_dir", OutputConfig.directory, str)
    fmt = scalar("format", OutputConfig.format, str)
    precision = scalar("precision", OutputConfig.precision, int)

    if raw:
        key, (_, lineno) = next(iter(raw.items()))
        raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
    missing = [key for key in _REQUIRED_PHYSICAL if key not in physical_kwargs]
    if missing:
        raise ConfigError(f"{source}: missing required physical parameters: {', '.join(missing)}")

    try:
        physical = PhysicalParams.create(**physical_kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return RunConfig(
        physical=physical,
        protocol=ProtocolConfig(t_final, sample_count, tolerance),
        sweep=SweepConfig(epsilon, initial_state),
        output=OutputConfig(directory, fmt, precision),
    )


def load_config(path: str | Path | None) -> RunConfig:
    """Load a config file, or the built-in defaults when path is None."""
    if path is None:
        return parse_config(DEFAULT_CONFIG, source="<default>")
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, source=str(p))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical config text in base SI units; parses back to the same config."""
    lines = []
    for f in fields(PhysicalParams):
        value = getattr(cfg.physical, f.name)
        lines.append(f"{f.name} = {value!r}")
    lines.append(f"t_final = {', '.join(repr(t) for t in cfg.protocol.t_final)}")
    lines.append(f"sample_count = {cfg.protocol.sample_count}")
    lines.append(f"tolerance = {cfg.protocol.tolerance!r}")
    lines.append(f"epsilon = {', '.join(repr(e) for e in cfg.sweep.epsilon)}")
    lines.append(f"initial_state = {cfg.sweep.initial_state}")
    lines.append(f"output_dir = {cfg.output.directory}")
    lines.append(f"format = {cfg.output.format}")
    lines.append(f"precision = {cfg.output.precision}")
    return "\n".join(lines) + "\n"
