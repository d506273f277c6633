"""Dense reference implementations of the radar model, and the random scenes fed to them.

The simulator never forms the clutter-plus-noise covariance W: it works through
the rank-L kernel in jrcsim.radar_sensing. The functions here form W and the
response matrices A = a a^T densely and solve through a Cholesky factor, so the
kernel, the detector moments and the acceptance gates have an independent
reference to be checked against. A radar scene is the context's own
ClutterSteering (steering matrix B and amplitude scale sigma). The
detector's false-alarm threshold has a one-threshold-at-a-time reference in
Python floats, and its blocked Monte Carlo counts a one-draw reference: all the
trials drawn, sorted and counted at once. The exact and Fresnel element distances and the Fraunhofer
boundary back the near-field gate, and parse_table_csv reads an emitted table
back into typed records. The link SINRs have a beam-level reference: the
relay gain that meets its budget at the beams of one (P, rho), then each
SINR from the beams' channel gains. The stacked scene draw has a
one-realization-at-a-time reference: each realization derives its own phase
and clutter streams and draws from them in order, an angle on 0 or pi drawn
again on the spot. The CSV writer has a per-cell reference: each row's values
rendered one at a time, as the text of the value alone; its comma join has
csv.writer, which quotes a cell where needed, as its reference. ScenarioConfig.to_dict
has the deep copy of dataclasses.asdict as its reference, and config_hash
the JSON of to_dict without the output section. Scenario validation has a
field-by-field reference: reading each class's dataclass fields and their
rule metadata on every check and forming every field's path, and building a
file's absent sections anew (reference_validation, reference_from_dict).
Operating-point
records over a grid of powers are built one power at a time (power_by_power),
and the power search's verdict at one power has the record's split-by-split
reading as its reference (first_feasible_split).
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from jrcsim.array_geometry import array_constants, element_index_offsets, steering_matrix, steering_vector
from jrcsim.context import KIND_SCENE, KIND_TARGET_PHASE, stream_id
from jrcsim.detection import _null_blocks
from jrcsim.experiments import COLUMNS
from jrcsim.comm_link import rate_threshold
from jrcsim.radar_sensing import ClutterSteering, InterferenceKernel
from jrcsim.propagation import path_loss_db
from jrcsim import scenario as scenario_module
from jrcsim.scenario import ArraySection, CommSection, ConfigError, ScenarioConfig
from jrcsim.stats import derive_stream, float_text, inverse_q, q_function


def random_positions(rng, count=3) -> tuple[list, list]:
    """Ranges and angles of scatterers at random ranges in (0.5, 5) m and
    bearings in (0.2, 2.9) rad, drawn range then angle per scatterer."""
    draws = [(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 2.9))) for _ in range(count)]
    return [r for r, _ in draws], [theta for _, theta in draws]


def clutter_at(array: ArraySection, ranges, angles, sigma=0.8) -> ClutterSteering:
    """The radar scene of scatterers at the given ranges and angles, all at amplitude scale sigma."""
    return ClutterSteering(steering_matrix(array, ranges, angles), float(sigma))


def clutter_placements(scenario: ScenarioConfig, rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """Ranges and angles of one realization's clutter, drawn from its stream one
    uniform at a time: range then angle per element, an angle outside (0, pi)
    drawn again; without clutter nothing is drawn and the stream may be None."""
    clutter, target_angle = scenario.clutter, scenario.target.angle_rad
    lo = max(0.0, target_angle - clutter.angle_exclusion_rad)
    hi = min(np.pi, target_angle + clutter.angle_exclusion_rad)
    mass = lo + (np.pi - hi)
    ranges, angles = np.empty(clutter.count), np.empty(clutter.count)
    for i in range(clutter.count):
        # map u in [0, 1) to (min, max], the lower end open up to rounding
        ranges[i] = clutter.max_range_m - rng.uniform() * (clutter.max_range_m - clutter.min_range_m)
        while True:
            t = rng.uniform() * mass
            angles[i] = t if t < lo else hi + (t - lo)
            if 0.0 < angles[i] < np.pi:
                break
    return ranges, angles


def scene_draws(scenario: ScenarioConfig, scene_keys) -> tuple[np.ndarray, np.ndarray]:
    """Reflectivities alpha_0 (R,) and clutter steering matrices (R, N, L) of
    the realizations scene_keys, one realization at a time: its phase stream
    (under a uniform phase) gives one uniform, its scene stream (with clutter)
    the placements of clutter_placements."""
    target, clutter = scenario.target, scenario.clutter
    carrier_hz = array_constants(scenario.array)[0]
    mag = target.rcs_scale * 10.0 ** (-2.0 * path_loss_db(scenario.path_loss, carrier_hz, target.range_m) / 20.0)
    alpha0, placements = [], []
    for key in scene_keys:
        if target.phase == "uniform":
            rng = derive_stream(scenario.seed, stream_id(KIND_TARGET_PHASE, key))
            alpha0.append(complex(mag * np.exp(2j * np.pi * rng.uniform())))
        else:
            alpha0.append(complex(mag))
        rng = derive_stream(scenario.seed, stream_id(KIND_SCENE, key)) if clutter.count else None
        placements.append(clutter_placements(scenario, rng))
    return np.array(alpha0), steering_matrix(scenario.array, *zip(*placements))


def make_beams(rng, n=5, power=1.0) -> np.ndarray:
    """Random data and radar beams sharing the power equally, as the rows of a (2, N) array."""
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u *= np.sqrt(power / 2.0) / np.linalg.norm(u)
    v *= np.sqrt(power / 2.0) / np.linalg.norm(v)
    return np.stack((u, v))


def response_matrix(array: ArraySection, range_m: float, angle_rad: float) -> np.ndarray:
    """Two-way array response A = a a^T (symmetric, rank one)."""
    a = steering_vector(array, range_m, angle_rad)
    return np.outer(a, a)


def transmit_covariance(beams: np.ndarray) -> np.ndarray:
    """Waveform covariance R_x = v v^H + u u^H for unit-power symbols and beams (u, v) as rows."""
    u, v = beams
    r = np.outer(v, v.conj())
    return r + np.outer(u, u.conj())


def clutter_covariance(clutter: ClutterSteering, r_x: np.ndarray) -> np.ndarray:
    """Dense W = sum_l sigma^2 A_l R_x A_l^H + I from the full response matrices."""
    n = clutter.matrix.shape[0]
    if r_x.shape != (n, n):
        raise ValueError(f"R_x shape {r_x.shape} does not match the {n}-element array")
    columns = clutter.matrix.T
    responses = columns[:, :, None] * columns[:, None, :]  # (L, N, N) stack of A_l
    terms = responses @ r_x @ responses.conj().transpose(0, 2, 1)
    w = np.eye(n, dtype=complex) + clutter.sigma**2 * np.sum(terms, axis=0)
    # the sum is Hermitian in exact arithmetic; symmetrize away rounding skew
    return (w + w.conj().T) / 2.0


def scnr(w: np.ndarray, alpha0: complex, a_target: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """Output SCNR |alpha_0|^2 |w^H A x|^2 / (w^H W w) for a receive beamformer w.

    a_target is the target steering vector; A = a a^T collapses the numerator
    to (w^H a)(a^T x).
    """
    denom = np.vdot(w, cov @ w).real
    if denom <= 0.0:
        raise ValueError("receive beamformer must be nonzero")
    signal = abs(alpha0) ** 2 * abs(np.vdot(w, a_target) * np.dot(a_target, x)) ** 2
    return float(signal / denom)


def optimal_receive_beamformer(a_target: np.ndarray, cov: np.ndarray, x: np.ndarray) -> np.ndarray:
    """SCNR-optimal receive beamformer w* = W^-1 (A x), unnormalized."""
    y = a_target * np.dot(a_target, x)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov), y)


def scnr_at_optimum(alpha0: complex, a_target: np.ndarray, cov: np.ndarray, x: np.ndarray) -> float:
    """SCNR attained by w*: |alpha_0|^2 (A x)^H W^-1 (A x)."""
    y = a_target * np.dot(a_target, x)
    return float(abs(alpha0) ** 2 * np.vdot(y, scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov), y)).real)


def average_scnr(clutter: ClutterSteering, beams: np.ndarray, alpha0: complex, a_target: np.ndarray) -> float:
    """Symbol-averaged optimal SCNR |alpha_0|^2 tr(A^H W^-1 A R_x) at one beam set.

    With A = a a^T the trace factors into (a^H W^-1 a)(a^T R_x conj(a)), the
    loading sum_k |a^T b_k|^2 over the beams b_k.
    """
    kernel = InterferenceKernel(clutter, clutter.gains(beams))  # the gains at unit sigma
    loading = np.sum(np.abs(beams @ a_target) ** 2)
    return float(abs(alpha0) ** 2 * kernel.quadratic(a_target, [clutter.sigma**2])[0] * loading)


def _beam_gain(h: np.ndarray, beam: np.ndarray):
    """|h^T b|^2 for one beam or each row of a stack, rounded as the scalar
    abs(np.dot(h, b)) ** 2 is: the same BLAS dot, hypot and pow."""
    z = np.vecdot(h.conj(), beam)
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def af_gain(h_sr: np.ndarray, beams: np.ndarray, comm: CommSection):
    """Relay gain f_rd = sqrt(budget / (received signal power + relay noise)).

    The received power is |h_sr^T u|^2 + |h_sr^T v|^2, so |f_rd|^2 times
    (received + noise) meets the budget exactly.
    """
    received = _beam_gain(h_sr, beams[..., 0, :]) + _beam_gain(h_sr, beams[..., 1, :])
    return np.sqrt(comm.relay_power_w / (received + comm.noise_var_relay_w))


def sinr_direct(h_sd: np.ndarray, beams: np.ndarray, comm: CommSection):
    """Direct-link SINR: the data beam against radar leakage plus noise."""
    signal = _beam_gain(h_sd, beams[..., 0, :])
    interference = _beam_gain(h_sd, beams[..., 1, :])
    return signal / (interference + comm.noise_var_dest_w)


def sinr_relayed(h_sr: np.ndarray, h_rd: complex, gain, beams: np.ndarray, comm: CommSection):
    """Relayed-path SINR at the destination for the data beam u and relay gain f = gain.

    gamma_rd = |h_rd f h_sr^T u|^2 / (|h_rd f|^2 N_r + N_d).
    """
    through = abs(h_rd) ** 2 * gain * gain
    signal = through * _beam_gain(h_sr, beams[..., 0, :])
    denom = through * comm.noise_var_relay_w + comm.noise_var_dest_w
    return signal / denom


def radar_snapshot_batch(
    clutter: ClutterSteering,
    alpha0: complex,
    a_target: np.ndarray,
    beams: np.ndarray,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """(count, N) receive snapshots with fresh symbols, clutter draws, and noise.

    Draw order is fixed — symbols, clutter amplitudes, noise — so a given
    stream yields the same batch on every platform.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n = clutter.matrix.shape[0]
    symbols = (rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))) / np.sqrt(2.0)
    x = symbols @ beams  # (count, N)
    s = alpha0 * (x @ a_target)[:, None] * a_target[None, :]
    if clutter.matrix.shape[1]:
        shape = (count, clutter.matrix.shape[1])
        amps = clutter.sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        s = s + (amps * (x @ clutter.matrix)) @ clutter.matrix.T
    noise = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) / np.sqrt(2.0)
    return s + noise


def power_by_power(ctx, powers, rhos) -> SimpleNamespace:
    """Every field of the records of a 1-D array of powers over the splits rhos,
    one record per power, stacked on a leading power axis."""
    points = [ctx.operating_point(p, rhos) for p in np.asarray(powers, dtype=float).tolist()]
    return SimpleNamespace(**{f.name: np.array([getattr(p, f.name) for p in points]) for f in dataclasses.fields(points[0])})


def first_feasible_split(ctx, power_watts, rhos) -> int | None:
    """The first split of rhos feasible at one power, or None: the record of
    the power over the splits, its SINR sum against 2^r - 1 and its live
    deflection against Q^-1(pfa_max) - Q^-1(pd_min), split by split. The
    search decides each entry as this does."""
    targets, point = ctx.scenario.targets, ctx.operating_point(float(power_watts), np.asarray(rhos, dtype=float))
    floor = inverse_q(targets.pfa_max) - inverse_q(targets.pd_min)
    with np.errstate(invalid="ignore"):
        ok = (point.gamma_direct + point.gamma_relayed >= rate_threshold(targets.rate_bps_hz)) & (
            (point.mu1_abs > 0.0) & (point.deflection >= floor)
        )
    return int(np.argmax(ok)) if ok.any() else None


def scalar_false_alarm_threshold(mu1_abs: float, sigma2: float, pfa_max: float) -> float:
    """The smallest threshold at or above kappa_fa = |mu_1| sqrt(2 sigma^2)
    Q^-1(pfa_max) whose P_FA = Q(kappa / (|mu_1| sqrt(2 sigma^2))) is at most
    pfa_max, in Python floats: a step doubling from one ulp climbs past the
    cap, and the last step is bisected."""
    scale = mu1_abs * math.sqrt(2.0 * sigma2)

    def pfa(kappa):
        return float(q_function(kappa / scale))

    lo = hi = scale * inverse_q(pfa_max)
    step = math.ulp(lo)
    while pfa(hi) > pfa_max:
        lo, hi, step = hi, hi + step, 2.0 * step
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if pfa(mid) > pfa_max else (lo, mid)
    return hi


def sample_test_statistics(ctx, point, *, trials: int, rng: np.random.Generator) -> np.ndarray:
    """T_0 trial by trial at one operating point: the simulator's Monte Carlo
    blocks joined end to end. T_1 is T_0 + 2 |mu_1|^2 trial by trial."""
    return np.concatenate([block.copy() for block in _null_blocks(ctx, point, trials, rng)])


def full_draw_rates(ctx, point, kappas, *, trials: int, rng: np.random.Generator) -> dict:
    """pfa_mc and pd_mc over ascending thresholds from one draw of all the
    trials: T_0 drawn whole from the jumped stream at the echo-summed scale,
    sorted once, shifted by 2 |mu_1|^2 for H1, and each rate counted by one
    binary search, with no blocks."""
    w = point.w
    coeffs = np.append(ctx.clutter.echoes(point.x) @ w.conj(), np.linalg.norm(w))
    t_h0 = np.random.Generator(rng.bit_generator.jumped(1)).standard_normal(trials)
    t_h0 *= np.sqrt(2.0) * point.mu1_abs * np.linalg.norm(coeffs)
    sorted_h0 = np.sort(t_h0)
    sorted_h1 = sorted_h0 + 2.0 * np.float_power(point.mu1_abs, 2.0)
    return {
        f"{rate}_mc": (trials - np.searchsorted(sorted_t, kappas, side="left")) / trials
        for rate, sorted_t in (("pfa", sorted_h0), ("pd", sorted_h1))
    }


def exact_distance(array: ArraySection, r: float, theta: float) -> np.ndarray:
    """Exact element-to-scatterer distances via the law of cosines."""
    n, d = element_index_offsets(array.n_antennas), array_constants(array)[2]
    return np.sqrt(r * r + (n * d) ** 2 - 2.0 * r * n * d * np.cos(theta))


def fresnel_distance(array: ArraySection, r: float, theta: float) -> np.ndarray:
    """Second-order Fresnel approximation of the element distances."""
    n, d = element_index_offsets(array.n_antennas), array_constants(array)[2]
    return r - n * d * np.cos(theta) + (n * d) ** 2 / (2.0 * r)


def aperture(array: ArraySection) -> float:
    """Physical array length (N - 1) * d."""
    return (array.n_antennas - 1) * array_constants(array)[2]


def fraunhofer_distance(array: ArraySection) -> float:
    """Far-field boundary 2 D^2 / lambda for aperture D; ranges below it are near-field."""
    ap = aperture(array)
    return 2.0 * ap * ap / array_constants(array)[1]


def csv_cell(value) -> str:
    """One emitted value's CSV text: empty for None, true/false for a bool, a
    float at 9 significant digits, anything else as str prints it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float_text(value)
    return str(value)


def render_csv(table) -> bytes:
    """A table's CSV file, its header then each row rendered cell by cell from
    the row's values."""
    names = [name for name, _ in COLUMNS[table.name]]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for row in table.rows:
        writer.writerow([csv_cell(row[name]) for name in names])
    return out.getvalue().encode("ascii")


def csv_writer_bytes(table) -> bytes:
    """A table's CSV file as csv.writer writes its header and cell texts,
    quoting any cell that holds a comma, a quote or a line break."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(name for name, _ in COLUMNS[table.name])
    writer.writerows(table.texts)
    return out.getvalue().encode("ascii")


def parse_table_csv(path: str, name: str) -> list[dict]:
    """Read an emitted CSV of table `name` back into typed records (inverse of the CSV writer)."""
    columns = COLUMNS[name]
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = [column for column, _ in columns]
        if header != expected:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        kinds = dict(columns)
        records = []
        for cells in reader:
            row = {}
            for column, cell in zip(expected, cells):
                if cell == "":
                    row[column] = None
                elif kinds[column] is bool:
                    row[column] = cell == "true"
                else:
                    row[column] = kinds[column](cell)
            records.append(row)
    return records


def scenario_as_dict(config: ScenarioConfig) -> dict:
    """ScenarioConfig.to_dict by dataclasses.asdict: every section a dict, every tuple a list."""
    return dataclasses.asdict(
        config, dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items}
    )


def scenario_hash(config: ScenarioConfig) -> str:
    """config_hash by to_dict: the key-sorted, whitespace-free JSON of every section but output."""
    d = config.to_dict()
    d.pop("output")
    return hashlib.sha256(json.dumps(d, sort_keys=True, separators=(",", ":")).encode("ascii")).hexdigest()


def _reference_rule(f: dataclasses.Field) -> dict:
    """A field's rule as a dict of the keys it sets: kind, and lo, hi, lo_open,
    hi_open, choices and above where given. Every count, each integer but
    the seed, is at most 2^31 - 1, stated here apart from the field table."""
    names = ("kind", "lo", "hi", "lo_open", "hi_open", "choices")
    rule = dict(zip(names, f.metadata["rule"]), above=f.metadata["above"])
    if rule["kind"] is int and f.name != "seed":
        rule["hi"] = min(rule["hi"] or REFERENCE_COUNT_LIMIT, REFERENCE_COUNT_LIMIT)
    return {key: value for key, value in rule.items() if value is not None}


REFERENCE_COUNT_LIMIT = 2**31 - 1


def _reference_value(value, path: str, rule: dict):
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
    lo, hi = rule.get("lo"), rule.get("hi")
    lo_open, hi_open = rule.get("lo_open", False), rule.get("hi_open", False)
    if lo is not None and (value <= lo if lo_open else value < lo):
        raise ConfigError(f"{path}: must be {'>' if lo_open else '>='} {lo}, got {value}")
    if hi is not None and (value >= hi if hi_open else value > hi):
        raise ConfigError(f"{path}: must be {'<' if hi_open else '<='} {hi}, got {value}")
    return value


def _reference_check(obj) -> None:
    """Validate every field of a frozen section, or of a ScenarioConfig, in
    place, in declaration order, from its dataclass fields and their rules."""
    prefix = "config" if isinstance(obj, ScenarioConfig) else scenario_module._SECTION_NAMES[type(obj)]
    for f in dataclasses.fields(obj):
        path, value = f"{prefix}.{f.name}", getattr(obj, f.name)
        if not f.metadata:  # a section of ScenarioConfig, already checked when built
            if not isinstance(value, f.default_factory):
                raise ConfigError(f"{f.name}: expected an object, got {type(value).__name__}")
            continue
        rule = _reference_rule(f)
        if isinstance(f.default, tuple):
            if not isinstance(value, (list, tuple)) or not value:
                noun = {float: " of numbers", int: " of integers"}.get(rule["kind"], "")
                raise ConfigError(f"{path}: expected a non-empty list{noun}")
            value = tuple(_reference_value(v, f"{path}[{i}]", rule) for i, v in enumerate(value))
            if len(set(value)) < len(value):
                raise ConfigError(f"{path}: entries must be distinct, got {list(value)}")
        elif value is not None or f.default is not None:
            value = _reference_value(value, path, rule)
        object.__setattr__(obj, f.name, value)
        other = rule.get("above")
        if other is not None and value is not None and value <= getattr(obj, other):
            raise ConfigError(f"{path}: must exceed {other}={getattr(obj, other)}, got {value}")


@contextlib.contextmanager
def reference_validation():
    """Every section and ScenarioConfig built inside validates by _reference_check."""
    checker = scenario_module._check
    scenario_module._check = _reference_check
    try:
        yield
    finally:
        scenario_module._check = checker


def _reference_mapping(cls, raw, path: str):
    """Build cls from a parsed JSON object; absent or null sections are built anew."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")
    return cls(**{
        key: _reference_mapping(fields[key].default_factory, value, key)
        if fields[key].default_factory is not dataclasses.MISSING else value
        for key, value in raw.items()
    })


def reference_from_dict(raw) -> ScenarioConfig:
    """scenario_from_dict field by field: the reference mapping under reference_validation."""
    with reference_validation():
        return _reference_mapping(ScenarioConfig, raw, "config")
