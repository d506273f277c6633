"""Target detection: linear test statistic, closed-form rates, Monte Carlo checks.

Conditioned on a known transmit snapshot x and receive beamformer w, the
projected observation y_s = w^H s is complex Gaussian: mean mu_1 = alpha_0
w^H A x under H1 (0 under H0) and variance

    sigma^2 = sum_l sigma_l^2 |w^H A_l x|^2 + ||w||^2,

where the clutter sum is one product with the scene's steering matrix
(ClutterSteering.projected_power). The log likelihood ratio reduces
(affinely) to T = 2 Re(y_s conj(mu_1)) compared against
kappa = sigma^2 ln(eta) + |mu_1|^2, giving

    P_FA = Q( kappa / (|mu_1| sqrt(2 sigma^2)) ),
    P_D  = Q( (kappa - 2 |mu_1|^2) / (|mu_1| sqrt(2 sigma^2)) ).

Monte Carlo trials freeze the waveform x (it is known to the receiver) and
redraw clutter amplitudes and noise each trial; trial randomness is forked
off the caller's stream in fixed-size blocks so counts are reproducible
bit-for-bit regardless of execution schedule.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .array_geometry import ArrayConfig, steering_vector
from .comm_link import BeamformerSet
from .propagation import Scene
from .radar_sensing import ClutterSteering, transmit_waveform
from .stats import ConfidenceInterval, binomial_ci, q_function

__all__ = [
    "DetectionStatisticParams",
    "DetectionOperatingPoint",
    "statistic_params",
    "with_threshold",
    "false_alarm_probability",
    "detection_probability",
    "sample_test_statistics",
    "simulate_detection",
    "roc_sweep",
]

_BLOCK = 1 << 14


@dataclass(frozen=True)
class DetectionStatisticParams:
    """Sufficient statistics of the detection problem at a fixed (w, x).

    ``eta`` is the likelihood-ratio threshold that generated ``kappa``; it is
    None when the threshold was set directly.
    """

    mu1: complex
    sigma2: float
    kappa: float
    eta: float | None = None

    def __post_init__(self) -> None:
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class DetectionOperatingPoint:
    """Closed-form and empirical rates at one threshold."""

    kappa: float
    pfa_analytic: float
    pd_analytic: float
    pfa_mc: float
    pfa_ci: ConfidenceInterval
    pd_mc: float
    pd_ci: ConfidenceInterval
    trials: int


def statistic_params(
    w: np.ndarray,
    alpha0: complex,
    a_target: np.ndarray,
    clutter: ClutterSteering,
    x: np.ndarray,
    eta: float,
) -> DetectionStatisticParams:
    """Moments of y_s = w^H s and the threshold kappa = sigma^2 ln(eta) + |mu_1|^2."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    # w^H A x with A = a a^T collapses to (w^H a)(a^T x)
    mu1 = alpha0 * np.vdot(w, a_target) * np.dot(a_target, x)
    sigma2 = float(np.vdot(w, w).real) + clutter.projected_power(w, x)
    kappa = sigma2 * math.log(eta) + abs(mu1) ** 2
    return DetectionStatisticParams(mu1=complex(mu1), sigma2=sigma2, kappa=kappa, eta=eta)


def with_threshold(params: DetectionStatisticParams, kappa: float) -> DetectionStatisticParams:
    """Same statistic moments with the threshold replaced directly."""
    return dataclasses.replace(params, kappa=float(kappa), eta=None)


def _deflection(params: DetectionStatisticParams) -> float:
    mu = abs(params.mu1)
    if mu == 0.0:
        raise ValueError("|mu1| = 0: the statistic is degenerate and the closed forms do not apply")
    return mu * np.sqrt(2.0 * params.sigma2)


def false_alarm_probability(params: DetectionStatisticParams) -> float:
    """P(T >= kappa | H0) = Q(kappa / (|mu_1| sqrt(2 sigma^2)))."""
    return float(q_function(params.kappa / _deflection(params)))


def detection_probability(params: DetectionStatisticParams) -> float:
    """P(T >= kappa | H1) = Q((kappa - 2 |mu_1|^2) / (|mu_1| sqrt(2 sigma^2)))."""
    scale = _deflection(params)
    return float(q_function((params.kappa - 2.0 * abs(params.mu1) ** 2) / scale))


def sample_test_statistics(
    cfg: ArrayConfig,
    scene: Scene,
    beams: BeamformerSet,
    w: np.ndarray,
    trials: int,
    rng: np.random.Generator,
    x: np.ndarray | None = None,
):
    """Monte Carlo draws of T under H0 and H1 at a frozen waveform.

    If ``x`` is not given, one symbol realization is drawn from ``rng`` and
    frozen across all trials. Returns (t_h0, t_h1, params) where ``params``
    carries mu_1 and sigma^2 for the same (w, x); its threshold is the
    likelihood-ratio value for eta = 1 and is typically replaced by the
    caller. Each block of trials uses a jumped copy of ``rng``'s bit
    generator, so results depend only on the stream state and trial index.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if x is None:
        x = transmit_waveform(beams, rng)
    n = cfg.n_antennas
    a_t = steering_vector(cfg, scene.target)
    clutter = ClutterSteering.of(cfg, scene)
    params = statistic_params(w, scene.alpha0, a_t, clutter, x, eta=1.0)
    target_vec = scene.alpha0 * a_t * np.dot(a_t, x)
    clutter_vecs = clutter.echoes(x)
    n_clutter = len(clutter.scale)
    w_conj = w.conj()
    mu_conj = np.conj(params.mu1)
    base = rng.bit_generator
    t_out = [np.empty(trials), np.empty(trials)]
    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    for hyp in (0, 1):
        done = 0
        for b in range(n_blocks):
            m = min(_BLOCK, trials - done)
            g = np.random.Generator(base.jumped(1 + 2 * b + hyp))
            amps = (g.standard_normal((m, n_clutter)) + 1j * g.standard_normal((m, n_clutter))) / np.sqrt(2.0)
            noise = (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n))) / np.sqrt(2.0)
            s = amps @ clutter_vecs + noise
            if hyp == 1:
                s = s + target_vec[None, :]
            y = s @ w_conj
            t_out[hyp][done : done + m] = 2.0 * (y * mu_conj).real
            done += m
    return t_out[0], t_out[1], params


def _operating_point(
    kappa: float,
    t_h0: np.ndarray,
    t_h1: np.ndarray,
    params: DetectionStatisticParams,
) -> DetectionOperatingPoint:
    trials = len(t_h0)
    n_fa = int(np.count_nonzero(t_h0 >= kappa))
    n_d = int(np.count_nonzero(t_h1 >= kappa))
    at_kappa = with_threshold(params, kappa)
    if abs(params.mu1) > 0.0:
        pfa_a = false_alarm_probability(at_kappa)
        pd_a = detection_probability(at_kappa)
    else:
        pfa_a = float("nan")
        pd_a = float("nan")
    return DetectionOperatingPoint(
        kappa=float(kappa),
        pfa_analytic=pfa_a,
        pd_analytic=pd_a,
        pfa_mc=n_fa / trials,
        pfa_ci=binomial_ci(n_fa, trials),
        pd_mc=n_d / trials,
        pd_ci=binomial_ci(n_d, trials),
        trials=trials,
    )


def simulate_detection(
    cfg: ArrayConfig,
    scene: Scene,
    beams: BeamformerSet,
    w: np.ndarray,
    kappa: float,
    trials: int,
    rng: np.random.Generator,
    x: np.ndarray | None = None,
) -> DetectionOperatingPoint:
    """Empirical false-alarm and detection rates at one threshold.

    Runs ``trials`` H0 draws (target amplitude forced to zero) and ``trials``
    H1 draws, forms y_s = w^H s per trial, thresholds T, and reports exact
    integer-count rates with Wilson confidence intervals alongside the
    closed-form values.
    """
    t_h0, t_h1, params = sample_test_statistics(cfg, scene, beams, w, trials, rng, x=x)
    return _operating_point(kappa, t_h0, t_h1, params)


def roc_sweep(
    cfg: ArrayConfig,
    scene: Scene,
    beams: BeamformerSet,
    w: np.ndarray,
    kappa_grid,
    trials: int,
    rng: np.random.Generator,
    x: np.ndarray | None = None,
) -> list[DetectionOperatingPoint]:
    """Operating points over a threshold grid, sorted by ascending kappa.

    All thresholds share one set of Monte Carlo draws (common random numbers),
    so a single-point grid reduces exactly to ``simulate_detection`` and the
    empirical curves inherit the analytic monotonicity in kappa.
    """
    kappas = np.sort(np.asarray(kappa_grid, dtype=float))
    if kappas.size == 0:
        raise ValueError("kappa_grid must be non-empty")
    if not np.all(np.isfinite(kappas)):
        raise ValueError("kappa_grid must be finite")
    t_h0, t_h1, params = sample_test_statistics(cfg, scene, beams, w, trials, rng, x=x)
    return [_operating_point(k, t_h0, t_h1, params) for k in kappas]
