"""Scenario configuration: JSON schema, validation, canonical hashing.

A scenario file is a JSON object; every key is optional and unknown keys are
rejected with the offending dotted path. The defaults describe the reference
evaluation setup: a 5-element half-wavelength array at 28 GHz, a target at
5 m, three clutter scatterers inside the target range, intense clutter
sigma 0.8 (light 0.1), a false-alarm cap of 1e-6 with a detection floor of
0.6, and a sweep family over N in {5, 10} and carriers {2.8, 28} GHz.

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

from .array_geometry import separation

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "load_scenario",
    "scenario_from_dict",
    "config_hash",
    "dbm_to_watts",
    "watts_to_dbm",
    "CLUTTER_LEVELS",
]

# canonical clutter intensity levels (amplitude scale sigma)
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
_ANGLE = {"lo": 0.0, "lo_open": True, "hi": np.pi, "hi_open": True}
# 10^27 W at the top, far past any physical budget; every command gives finite
# tables at both ends (the CLI's extreme-power test runs them)
_DBM = {"lo": -300.0, "hi": 300.0}
# magnitudes far past physical ones that still keep every product of powers,
# reflectivity, clutter scale, noise, lengths (m) and carriers (GHz) finite at
# both dBm ends, each bound also with the reflectivity and clutter ones (same test)
_MAGNITUDE = {"lo": 1.0e-30, "hi": 1.0e40}
_LENGTH = {"lo": 1.0e-6, "hi": 1.0e9}
_CARRIER = {"lo": 1.0e-6, "hi": 1.0e6}
# thresholds whose grid span (at most 2e300) stays finite
_THRESHOLD = {"lo": -1.0e300, "hi": 1.0e300}
# every count, the one limit: 2^31 - 1, the largest dimension LAPACK's 32-bit
# integers take; a count up to it that the memory cannot hold ends as the
# out-of-memory error, and a larger one is refused before any allocation
_COUNT = 2**31 - 1


def _setting(default, kind=None, *, lo=None, hi=None, lo_open=False, hi_open=False, choices=None, above=None):
    """A field with its default and the rule every value must meet.

    The rule is a kind (float, int or str) plus lo/hi bounds (lo_open and
    hi_open exclude them), choices, or `above` an earlier field of the section. A
    tuple default makes a non-empty list of distinct entries that each meet the
    rule; a None default makes the field optional. The metadata holds the rule
    as _value reads it, (kind, lo, hi, lo_open, hi_open, choices), and `above`.
    """
    if kind is None:
        kind = type(default[0]) if isinstance(default, tuple) else type(default)
    return field(default=default, metadata={"rule": (kind, lo, hi, lo_open, hi_open, choices), "above": above})


def _value(value, path: str, rule: tuple):
    """One scalar checked against its rule; ints become floats for float fields."""
    kind, lo, hi, lo_open, hi_open, choices = rule
    if choices is not None:
        if value not in choices:
            raise ConfigError(f"{path}: must be one of {sorted(choices)}, got {value!r}")
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
    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigError(f"{path}: must be {'>' if lo_open else '>='} {lo}, got {value}")
    if hi is not None and (value >= hi if hi_open else value > hi):
        raise ConfigError(f"{path}: must be {'<' if hi_open else '<='} {hi}, got {value}")
    return value


def _check(obj) -> None:
    """Validate every field of a frozen section, or the seed and sections of a
    ScenarioConfig, in place, in declaration order, as _FIELDS lists them."""
    for name, path, rule, default, above in _FIELDS[type(obj)]:
        value = getattr(obj, name)
        if rule is None:  # a section of ScenarioConfig, already checked when built
            if not isinstance(value, default):
                raise ConfigError(f"{name}: expected an object, got {type(value).__name__}")
            continue
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)) or not value:
                noun = {float: " of numbers", int: " of integers"}.get(rule[0], "")
                raise ConfigError(f"{path}: expected a non-empty list{noun}")
            checked = tuple(_value(v, f"{path}[{i}]", rule) for i, v in enumerate(value))
            # each entry keys its own rows, so a repeat would give tied table keys
            if len(set(checked)) < len(checked):
                raise ConfigError(f"{path}: entries must be distinct, got {list(checked)}")
        elif value is None and default is None:
            continue
        else:
            checked = _value(value, path, rule)
        if checked is not value:
            object.__setattr__(obj, name, checked)
        if above is not None and checked <= getattr(obj, above):
            raise ConfigError(f"{path}: must exceed {above}={getattr(obj, above)}, got {checked}")


class _Section:
    """Base of the scenario sections: each validates its fields when built."""

    def __post_init__(self) -> None:
        _check(self)


@dataclass(frozen=True)
class ArraySection(_Section):
    """The array: element count, carrier (GHz) and element spacing (m; half a wavelength when None)."""

    n_antennas: int = _setting(5, lo=1, hi=_COUNT)
    carrier_ghz: float = _setting(28.0, **_CARRIER)
    spacing_m: float | None = _setting(None, float, **_LENGTH)


@dataclass(frozen=True)
class TargetSection(_Section):
    """The target: range (m), bearing (rad), reflectivity scale and phase law."""

    range_m: float = _setting(5.0, **_LENGTH)
    angle_rad: float = _setting(np.pi / 3.0, **_ANGLE)
    rcs_scale: float = _setting(3.0e7, **_MAGNITUDE)
    phase: str = _setting("uniform", choices=("zero", "uniform"))


@dataclass(frozen=True)
class ClutterSection(_Section):
    """The clutter: scatterer count, amplitude scale sigma, range window (m) and target bearing window (rad)."""

    count: int = _setting(3, lo=0, hi=_COUNT)
    sigma: float = _setting(0.8, lo=0.0, hi=_MAGNITUDE["hi"])
    min_range_m: float = _setting(0.5, **_LENGTH)
    max_range_m: float = _setting(5.0, above="min_range_m", **_LENGTH)
    angle_exclusion_rad: float = _setting(0.05, **_NONNEGATIVE)


@dataclass(frozen=True)
class PathLossSection(_Section):
    """The path-loss law and, for TR 38.901 UMi LoS, the antenna heights (m)."""

    kind: str = _setting("free_space", choices=("free_space", "tr38901_umi_los"))
    h_bs_m: float = _setting(10.0, **_LENGTH)
    h_ut_m: float = _setting(1.5, **_LENGTH)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "tr38901_umi_los":
            # below 1 m the TR 38.901 breakpoint distance is not positive
            for name in ("h_bs_m", "h_ut_m"):
                height = getattr(self, name)
                if height <= 1.0:
                    raise ConfigError(f"path_loss.{name}: must exceed 1.0 for tr38901_umi_los, got {height}")


@dataclass(frozen=True)
class CommSection(_Section):
    """The link: destination and relay positions, noise variances (W), relay budget (W) and fading law."""

    destination_range_m: float = _setting(20.0, **_LENGTH)
    destination_angle_rad: float = _setting(1.7, **_ANGLE)
    relay_range_m: float = _setting(10.0, **_LENGTH)
    relay_angle_rad: float = _setting(1.4, **_ANGLE)
    noise_var_dest_w: float = _setting(4.0e-13, **_MAGNITUDE)
    noise_var_relay_w: float = _setting(4.0e-13, **_MAGNITUDE)
    relay_power_w: float = _setting(0.01, lo=0.0, hi=_MAGNITUDE["hi"])
    fading: str = _setting("los", choices=("los", "rayleigh"))


@dataclass(frozen=True)
class PowerSection(_Section):
    """The transmit power grid (dBm) and the power split rho of the SCNR sweep."""

    min_dbm: float = _setting(-10.0, **_DBM)
    max_dbm: float = _setting(40.0, above="min_dbm", **_DBM)
    points: int = _setting(21, lo=2, hi=_COUNT)
    rho: float = _setting(0.5, **_UNIT)


@dataclass(frozen=True)
class DetectionSection(_Section):
    """The detection sweep: Monte Carlo trials, powers (dBm), clutter levels and threshold grid."""

    trials: int = _setting(100_000, lo=1, hi=_COUNT)
    powers_dbm: tuple[float, ...] = _setting((30.0, 36.0), **_DBM)
    clutter_levels: tuple[str, ...] = _setting(("light", "intense"), choices=tuple(CLUTTER_LEVELS))
    kappa_min: float = _setting(0.0, **_THRESHOLD)
    kappa_max: float | None = _setting(None, float, above="kappa_min", **_THRESHOLD)
    kappa_points: int = _setting(21, lo=1, hi=_COUNT)


@dataclass(frozen=True)
class TargetsSection(_Section):
    """The targets: rate (b/s/Hz), false-alarm cap, detection floor and power ceiling (dBm)."""

    # past ~1000 the SINR floor 2^r - 1 leaves the float range
    rate_bps_hz: float = _setting(5.0, lo=0.0, hi=1000.0)
    # a cap of 1 has no finite smallest threshold
    pfa_max: float = _setting(1.0e-6, lo=0.0, lo_open=True, hi=1.0, hi_open=True)
    pd_min: float = _setting(0.6, **_UNIT)
    p_max_dbm: float = _setting(46.0, **_DBM)


@dataclass(frozen=True)
class OptimizerSection(_Section):
    """The power search: split grid points, relative tolerance and an optional fixed split."""

    rho_points: int = _setting(21, lo=2, hi=_COUNT)
    tol_factor: float = _setting(1.0e-3, **_POSITIVE)
    fixed_rho: float | None = _setting(None, float, **_UNIT)


@dataclass(frozen=True)
class SweepSection(_Section):
    """The SCNR sweep: antenna counts, carriers (GHz), clutter levels and realizations per cell."""

    antennas: tuple[int, ...] = _setting((5, 10), lo=1, hi=_COUNT)
    carriers_ghz: tuple[float, ...] = _setting((2.8, 28.0), **_CARRIER)
    clutter_levels: tuple[str, ...] = _setting(
        ("none", "light", "intense"), choices=tuple(CLUTTER_LEVELS)
    )
    # a sweep stream key holds the realization index in its low 24 bits
    realizations: int = _setting(100, lo=1, hi=1 << 24)


@dataclass(frozen=True)
class OutputSection(_Section):
    """Where and how tables are written: the directory and the file format."""

    dir: str = _setting("runs")
    format: str = _setting("csv", choices=("csv", "json"))


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: the master seed and one section per key of the scenario file."""

    # the seed is one 64-bit word of the Philox key
    seed: int = _setting(20260817, lo=0, hi=(1 << 64) - 1)
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
        _check(self)
        # compared in watts, the unit the optimizer's geometric grid spans
        if dbm_to_watts(self.power.min_dbm) >= dbm_to_watts(self.targets.p_max_dbm):
            raise ConfigError(
                f"targets.p_max_dbm: must exceed power.min_dbm={self.power.min_dbm}, "
                f"got {self.targets.p_max_dbm}"
            )
        # the clutter placement draw loops until a bearing falls outside the
        # window and does not check that one can; tested with its arithmetic
        angle, window = self.target.angle_rad, self.clutter.angle_exclusion_rad
        if self.clutter.count > 0 and angle - window <= 0.0 and angle + window >= np.pi:
            raise ConfigError(
                f"clutter.angle_exclusion_rad: must leave part of (0, pi) outside the window "
                f"about target.angle_rad={angle}, got {window}"
            )
        # the relay-to-destination hop needs a positive length, measured as the physics measures it
        comm = self.comm
        hop = separation(comm.relay_range_m, comm.relay_angle_rad, comm.destination_range_m, comm.destination_angle_rad)
        if hop <= 0.0:
            raise ConfigError(
                f"comm.relay_range_m: must place the relay off the destination at destination_range_m="
                f"{comm.destination_range_m}, destination_angle_rad={comm.destination_angle_rad}, "
                f"got {comm.relay_range_m} at relay_angle_rad={comm.relay_angle_rad}"
            )

    def power_grid_dbm(self) -> np.ndarray:
        return np.linspace(self.power.min_dbm, self.power.max_dbm, self.power.points)

    def to_dict(self) -> dict:
        """The scenario as its file reads: a dict per section, a list per tuple."""
        return {name: _plain(value) for name, value in vars(self).items()}


def _plain(value):
    """One field's value as to_dict gives it: a section as the dict of its
    fields (vars() of a section holds its fields alone, in declaration order,
    and no section nests another), a tuple as a list."""
    if isinstance(value, _Section):
        return {name: list(v) if isinstance(v, tuple) else v for name, v in vars(value).items()}
    return list(value) if isinstance(value, tuple) else value


# section class -> its key in the scenario file, the prefix of its error paths
_SECTION_NAMES = {
    f.default_factory: f.name
    for f in dataclasses.fields(ScenarioConfig)
    if f.default_factory is not dataclasses.MISSING
}

# each class's fields as _check reads them, in declaration order: name, error
# path, rule (None for a section of ScenarioConfig), default (the section's
# class for a section) and the earlier field it must exceed; so a check reads
# no dataclass field list and forms no path but a list entry's
_FIELDS = {
    cls: tuple(
        (f.name, f"{prefix}.{f.name}", f.metadata["rule"], f.default, f.metadata["above"])
        if f.metadata else (f.name, f.name, None, f.default_factory, None)
        for f in dataclasses.fields(cls)
    )
    for cls, prefix in [(ScenarioConfig, "config"), *_SECTION_NAMES.items()]
}


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
    fields = cls.__dataclass_fields__
    unknown = sorted(set(raw) - fields.keys())
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
