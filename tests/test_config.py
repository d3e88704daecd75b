import math
from pathlib import Path

import pytest

from biascool.config import (
    DEFAULT_CONFIG,
    ConfigError,
    OutputConfig,
    ProtocolConfig,
    SweepConfig,
    load_config,
    parse_config,
)
from biascool.physical import FIELD_UNITS, PhysicalParams

from conftest import ETA_DEFAULT
from oracles import serialize_config


def test_default_config_parses_to_device_values():
    cfg = parse_config(DEFAULT_CONFIG)
    p = cfg.physical
    assert p.mass == pytest.approx(4e-14, rel=1e-15)
    assert p.bare_frequency == pytest.approx(2 * math.pi * 134e3, rel=1e-15)
    assert p.separation == pytest.approx(3.15e-6, rel=1e-15)
    assert p.bath_temperature == pytest.approx(0.02, rel=1e-15)
    assert p.capacitance == pytest.approx(27.5e-9, rel=1e-15)
    assert p.charge_density == pytest.approx(1.25e17, rel=1e-15)
    assert p.charge_area == pytest.approx(8e-14, rel=1e-15)
    assert p.eta == pytest.approx(ETA_DEFAULT, rel=1e-12)
    assert cfg.protocol.t_final == (0.5, 1.0, 2.0)
    assert cfg.protocol.sample_count == 201
    assert cfg.sweep.epsilon == (-0.1, 0.0, 0.1)
    assert cfg.output.format == "csv"


def test_load_config_none_uses_defaults():
    assert load_config(None) == parse_config(DEFAULT_CONFIG)


def test_round_trip_is_identity():
    cfg = parse_config(DEFAULT_CONFIG)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_caption_parameter_variant():
    # smaller charged area halves the coupling; start frequency ~2500
    text = DEFAULT_CONFIG.replace("charge_area = 0.08 um^2", "charge_area = 0.04 um^2")
    cfg = parse_config(text)
    assert cfg.physical.eta == pytest.approx(ETA_DEFAULT / 2.0, rel=1e-12)
    assert math.sqrt(1.0 + cfg.physical.eta) == pytest.approx(2500.0, rel=0.01)


def test_zero_voltage_decouples():
    text = DEFAULT_CONFIG.replace("voltage_amplitude = 7.00 V", "voltage_amplitude = 0 V")
    cfg = parse_config(text)
    assert cfg.physical.eta == 0.0


def test_direct_charge_override_warns_when_inconsistent():
    text = DEFAULT_CONFIG.replace(
        "# resonator_charge = 1.6022e-15 C   # optional: overrides density * area",
        "resonator_charge = 3e-15 C",
    )
    with pytest.warns(UserWarning, match="overrides"):
        cfg = parse_config(text)
    assert cfg.physical.resonator_charge == 3e-15


@pytest.mark.parametrize(
    "mutation,message",
    [
        (("mass = 40 pg", "mass = 40 stone"), "mass"),
        (("mass = 40 pg", "mass = heavy pg"), "mass"),
        (("mass = 40 pg", "massif = 40 pg"), "unknown key"),
        (("sample_count = 201", "sample_count = 1"), "sample_count"),
        (("tolerance = 1e-10", "tolerance = 0"), "tolerance"),
        (("tolerance = 1e-10", "tolerance = 1e-2"), "tolerance"),
        (("precision = 12", "precision = 5"), "precision"),
        (("precision = 12", "precision = 18"), "precision"),
        (("format = csv", "format = yaml"), "format"),
        (("initial_state = nominal", "initial_state = sideways"), "initial_state"),
        (("t_final = 0.5, 1.0, 2.0", "t_final = -1.0"), "t_final"),
        (("epsilon = -0.1, 0.0, 0.1", "epsilon = ,"), "epsilon"),
        (("t_final = 0.5, 1.0, 2.0", "t_final = 0.5, 0.5000000000001"), "t_final"),
        (("t_final = 0.5, 1.0, 2.0", "t_final = 1.0, 1.0"), "t_final"),
        (("epsilon = -0.1, 0.0, 0.1", "epsilon = nan"), "epsilon"),
        (("epsilon = -0.1, 0.0, 0.1", "epsilon = -0.1, inf"), "epsilon"),
        (("output_dir = out", "output_dir ="), "output_dir: empty value"),
        (("mass = 40 pg", "mass =   # no value"), "mass: empty value"),
    ],
)
def test_invalid_values_rejected(mutation, message):
    old, new = mutation
    with pytest.raises(ConfigError, match=message):
        parse_config(DEFAULT_CONFIG.replace(old, new))


@pytest.mark.parametrize(
    "key", ["capacitance", "voltage_amplitude", "mass", "bare_frequency", "separation", "bath_temperature"]
)
def test_missing_required_key(key):
    text = "\n".join(
        line for line in DEFAULT_CONFIG.splitlines() if not line.startswith(key)
    )
    with pytest.raises(ConfigError, match=f"missing required physical parameters: {key}$"):
        parse_config(text)


def test_error_carries_line_number():
    text = DEFAULT_CONFIG.replace("mass = 40 pg", "mass = 40 stone")
    lineno = next(
        i for i, line in enumerate(DEFAULT_CONFIG.splitlines(), 1) if line.startswith("mass")
    )
    with pytest.raises(ConfigError, match=f"<config>:{lineno}"):
        parse_config(text)


@pytest.mark.parametrize("load", [lambda o: parse_config(DEFAULT_CONFIG, overrides=o), lambda o: load_config(None, o)])
def test_unknown_override_key_rejected(load):
    # an override is checked as a config line is: a ConfigError, not a KeyError
    with pytest.raises(ConfigError, match="^command line: unknown key 'bogus'$"):
        load({"bogus": "1"})
    assert load({"sample_count": "41"}).protocol.sample_count == 41


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(DEFAULT_CONFIG + "\nmass = 41 pg\n")


def test_garbage_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(DEFAULT_CONFIG + "\nthis is not a setting\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(DEFAULT_CONFIG + "\n\n# trailing comment\n")
    assert cfg == parse_config(DEFAULT_CONFIG)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_section_dataclass_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(t_final=())
    with pytest.raises(ConfigError):
        SweepConfig(epsilon=(0.1,), initial_state="other")
    with pytest.raises(ConfigError):
        OutputConfig(precision=30)


def test_readme_shows_the_built_in_config_and_units():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert readme.split("```ini\n", 1)[1].split("```", 1)[0] == DEFAULT_CONFIG
    table = readme.split("| field | units |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines():
        field, units = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        listed[field] = set(units.split())
    suffixes = {field: set(units) - {""} for field, units in FIELD_UNITS.items()}
    assert listed == {field: units for field, units in suffixes.items() if units}
    required = readme.split("Required device keys:", 1)[1].split(".", 1)[0]
    assert [key.strip().strip("`") for key in required.split(",")] == [
        name for name in PhysicalParams._fields if name not in PhysicalParams._field_defaults
    ]


def test_text_defaults_match_dataclass_defaults():
    # the built-in text restates the section defaults; both must agree
    physical_only = "\n".join(
        line for line in DEFAULT_CONFIG.splitlines() if line.split("=")[0].strip() in FIELD_UNITS
    )
    assert parse_config(physical_only) == parse_config(DEFAULT_CONFIG)
