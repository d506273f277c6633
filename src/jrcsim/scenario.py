"""Scenario configuration: JSON schema, validation, canonical hashing.

A scenario file is a JSON object; every key is optional and unknown keys are
rejected with the offending dotted path. The defaults describe the reference
evaluation setup: a 5-element half-wavelength array at 28 GHz, a target at
5 m, three clutter scatterers inside the target range, intense clutter
sigma 0.8 (light 0.1), likelihood-ratio threshold eta = 1e-6, and a sweep
family over N in {5, 10} and carriers {2.8, 28} GHz.

Each field is declared once, with its default and the rule its values must
meet; every section validates itself when it is built, so a ScenarioConfig
made by scenario_from_dict, by its constructor or by dataclasses.replace is
valid or raises ConfigError naming the field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "load_scenario",
    "scenario_from_dict",
    "canonical_json",
    "config_hash",
    "dbm_to_watts",
    "watts_to_dbm",
    "CLUTTER_LEVELS",
]

# canonical clutter intensity levels (amplitude scale sigma_l)
CLUTTER_LEVELS = {"none": 0.0, "light": 0.1, "intense": 0.8}


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    if p_watts <= 0.0:
        raise ValueError(f"power must be positive, got {p_watts}")
    return 10.0 * np.log10(p_watts) + 30.0


# value rules shared by several fields
_POSITIVE = {"lo": 0.0, "lo_open": True}
_NONNEGATIVE = {"lo": 0.0}
_UNIT = {"lo": 0.0, "hi": 1.0}
_ANGLE = {"lo": 0.0, "lo_open": True, "hi": np.pi, "below_pi": True}
# 10^27 W at the top, far past any physical budget; every command gives finite
# tables at both ends (the CLI's extreme-power test runs them)
_DBM = {"lo": -300.0, "hi": 300.0}


def _setting(default, kind=None, **rule):
    """A field with its default and the rule every value must meet.

    The rule is a kind (float, int or str) plus lo/hi bounds (lo_open
    excludes lo), choices, or `above` an earlier field of the section. A
    tuple default makes a non-empty list whose entries each meet the rule; a
    None default makes the field optional.
    """
    if kind is None:
        kind = type(default[0]) if isinstance(default, tuple) else type(default)
    return field(default=default, metadata={"kind": kind, **rule})


def _value(value, path: str, rule: dict):
    """One scalar checked against its rule; ints become floats for float fields."""
    kind = rule["kind"]
    if "choices" in rule:
        if value not in rule["choices"]:
            raise ConfigError(f"{path}: must be one of {sorted(rule['choices'])}, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{path}: expected {noun}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer literal past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite")
    lo, hi, lo_open = rule.get("lo"), rule.get("hi"), rule.get("lo_open", False)
    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigError(f"{path}: must be {'>' if lo_open else '>='} {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {value}")
    if rule.get("below_pi") and value >= np.pi:
        raise ConfigError(f"{path}: must be < pi, got {value}")
    return value


def _check(obj, prefix: str) -> None:
    """Validate every field of a frozen section in place, in declaration order."""
    for f in dataclasses.fields(obj):
        path, value, rule = f"{prefix}.{f.name}", getattr(obj, f.name), f.metadata
        if not rule:  # a section of ScenarioConfig, already checked when built
            if not isinstance(value, f.default_factory):
                raise ConfigError(f"{f.name}: expected an object, got {type(value).__name__}")
            continue
        if isinstance(f.default, tuple):
            if not isinstance(value, (list, tuple)) or not value:
                noun = {float: " of numbers", int: " of integers"}.get(rule["kind"], "")
                raise ConfigError(f"{path}: expected a non-empty list{noun}")
            value = tuple(_value(v, f"{path}[{i}]", rule) for i, v in enumerate(value))
        elif value is not None or f.default is not None:
            value = _value(value, path, rule)
        object.__setattr__(obj, f.name, value)
        other = rule.get("above")
        if other is not None and value is not None and value <= getattr(obj, other):
            raise ConfigError(f"{path}: must exceed {other}={getattr(obj, other)}, got {value}")


class _Section:
    """Base of the scenario sections: each validates its fields when built."""

    def __post_init__(self) -> None:
        _check(self, _SECTION_NAMES[type(self)])


@dataclass(frozen=True)
class ArraySection(_Section):
    n_antennas: int = _setting(5, lo=1)
    carrier_ghz: float = _setting(28.0, **_POSITIVE)
    spacing_m: float | None = _setting(None, float, **_POSITIVE)


@dataclass(frozen=True)
class TargetSection(_Section):
    range_m: float = _setting(5.0, **_POSITIVE)
    angle_rad: float = _setting(np.pi / 3.0, **_ANGLE)
    rcs_scale: float = _setting(3.0e7, **_POSITIVE)
    phase: str = _setting("uniform", choices=("zero", "uniform"))


@dataclass(frozen=True)
class ClutterSection(_Section):
    count: int = _setting(3, lo=0)
    sigma: float = _setting(0.8, **_NONNEGATIVE)
    min_range_m: float = _setting(0.5, **_POSITIVE)
    max_range_m: float = _setting(5.0, above="min_range_m", **_POSITIVE)
    angle_exclusion_rad: float = _setting(0.05, **_NONNEGATIVE)


@dataclass(frozen=True)
class PathLossSection(_Section):
    kind: str = _setting("free_space", choices=("free_space", "tr38901_umi_los"))
    h_bs_m: float = _setting(10.0, **_POSITIVE)
    h_ut_m: float = _setting(1.5, **_POSITIVE)


@dataclass(frozen=True)
class CommSection(_Section):
    destination_range_m: float = _setting(20.0, **_POSITIVE)
    destination_angle_rad: float = _setting(1.7, **_ANGLE)
    relay_range_m: float = _setting(10.0, **_POSITIVE)
    relay_angle_rad: float = _setting(1.4, **_ANGLE)
    noise_var_dest_w: float = _setting(4.0e-13, **_POSITIVE)
    noise_var_relay_w: float = _setting(4.0e-13, **_POSITIVE)
    relay_power_w: float = _setting(0.01, **_NONNEGATIVE)
    fading: str = _setting("los", choices=("los", "rayleigh"))


@dataclass(frozen=True)
class PowerSection(_Section):
    min_dbm: float = _setting(-10.0, **_DBM)
    max_dbm: float = _setting(40.0, above="min_dbm", **_DBM)
    points: int = _setting(21, lo=2)
    nominal_dbm: float = _setting(30.0, **_DBM)
    rho: float = _setting(0.5, **_UNIT)


@dataclass(frozen=True)
class DetectionSection(_Section):
    eta: float = _setting(1.0e-6, **_POSITIVE)
    trials: int = _setting(100_000, lo=1)
    powers_dbm: tuple[float, ...] = _setting((30.0, 36.0), **_DBM)
    clutter_levels: tuple[str, ...] = _setting(("light", "intense"), choices=tuple(CLUTTER_LEVELS))
    kappa_min: float = _setting(0.0)
    kappa_max: float | None = _setting(None, float, above="kappa_min")
    kappa_points: int = _setting(21, lo=1)


@dataclass(frozen=True)
class TargetsSection(_Section):
    rate_bps_hz: float = _setting(5.0, **_NONNEGATIVE)
    pfa_max: float = _setting(1.0e-6, lo=0.0, lo_open=True, hi=1.0)
    pd_min: float = _setting(0.6, **_UNIT)
    p_max_dbm: float = _setting(46.0, **_DBM)


@dataclass(frozen=True)
class OptimizerSection(_Section):
    power_points: int = _setting(64, lo=2)
    rho_points: int = _setting(21, lo=2)
    kappa_points: int = _setting(101, lo=3)
    tol_factor: float = _setting(1.0e-3, **_POSITIVE)
    fixed_rho: float | None = _setting(None, float, **_UNIT)


@dataclass(frozen=True)
class SweepSection(_Section):
    antennas: tuple[int, ...] = _setting((5, 10), lo=1)
    carriers_ghz: tuple[float, ...] = _setting((2.8, 28.0), **_POSITIVE)
    clutter_levels: tuple[str, ...] = _setting(
        ("none", "light", "intense"), choices=tuple(CLUTTER_LEVELS)
    )
    realizations: int = _setting(100, lo=1)


@dataclass(frozen=True)
class OutputSection(_Section):
    dir: str = _setting("runs")
    format: str = _setting("csv", choices=("csv", "json"))


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = _setting(20260817, lo=0)
    array: ArraySection = field(default_factory=ArraySection)
    target: TargetSection = field(default_factory=TargetSection)
    clutter: ClutterSection = field(default_factory=ClutterSection)
    path_loss: PathLossSection = field(default_factory=PathLossSection)
    comm: CommSection = field(default_factory=CommSection)
    power: PowerSection = field(default_factory=PowerSection)
    detection: DetectionSection = field(default_factory=DetectionSection)
    targets: TargetsSection = field(default_factory=TargetsSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    output: OutputSection = field(default_factory=OutputSection)

    def __post_init__(self) -> None:
        _check(self, "config")
        # compared in watts, the unit the optimizer's geometric grid spans
        if dbm_to_watts(self.power.min_dbm) >= dbm_to_watts(self.targets.p_max_dbm):
            raise ConfigError(
                f"targets.p_max_dbm: must exceed power.min_dbm={self.power.min_dbm}, "
                f"got {self.targets.p_max_dbm}"
            )

    def power_grid_dbm(self) -> np.ndarray:
        return np.linspace(self.power.min_dbm, self.power.max_dbm, self.power.points)

    def to_dict(self) -> dict:
        return dataclasses.asdict(
            self, dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items}
        )


# section class -> its key in the scenario file, the prefix of its error paths
_SECTION_NAMES = {
    f.default_factory: f.name
    for f in dataclasses.fields(ScenarioConfig)
    if f.default_factory is not dataclasses.MISSING
}


def canonical_json(config: ScenarioConfig) -> str:
    """Key-sorted, whitespace-free JSON; the round-trip identity anchor."""
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))


def config_hash(config: ScenarioConfig) -> str:
    """Fingerprint of everything that shapes the emitted records.

    The output section (directory, file format) is excluded: the same
    scenario written elsewhere or as JSON instead of CSV is the same data.
    """
    d = config.to_dict()
    d.pop("output")
    payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _from_mapping(cls, raw, path: str):
    """Build cls from a parsed JSON object; absent or null sections take defaults."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")
    return cls(**{
        key: _from_mapping(fields[key].default_factory, value, key)
        if fields[key].default_factory is not dataclasses.MISSING else value
        for key, value in raw.items()
    })


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a parsed JSON object and fill defaults for absent fields."""
    return _from_mapping(ScenarioConfig, raw, "config")


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario JSON file; an empty file means all defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not text.strip():
        return ScenarioConfig()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(raw)
