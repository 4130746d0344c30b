"""Seeded stochastic time-domain simulation of the cooling loop.

The equation of motion

    m x'' = -m omega0^2 x - m gamma x' + F_th(t) + F_ext(t) + F_fb(t)

is integrated with semi-implicit (symplectic) Euler. Structural damping has
no exact time-domain form, so runs use the viscous-equivalent rate
gamma = gamma_m(omega0); near-resonant dynamics dominate everything the
simulation is used to validate.

Thermal force and readout imprecision are independent white streams drawn
from counter-based generators keyed by (seed, stream id), so a trace is
bit-exact reproducible from (config, seed). Per-sample standard deviations
follow the single-sided convention sigma^2 = S * f_s / 2.

The controller path mirrors the digital loop. The apparent position
y_i = x_i + n_i gives the velocity estimate u_i = (y_i - y_{i-2}) / (2 dt),
an RBJ constant-peak-gain biquad bandpass at omega0 (unity gain, zero phase:
the near-resonant filter plus 90 degree shift of the real loop) turns it into
vel_i, and the force set from vel_i (-m g gamma vel_i, or the chain's DAC,
cos^2 modulator and radiation pressure) acts from step i + 1: one sample of
latency. Warm-up: the force during step 0 is 0, vel_0 = 0 without stepping
the bandpass, and y_{-1} = y_0, so u_1 = (y_1 - y_0) / (2 dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import C_LIGHT, TWO_PI
from .cooling import open_loop_thermal_variance
from .errors import ConfigError, DivergenceError, DomainError
from .feedback import FeedbackChain
from .readout import HliReadout
from .resonator import MechanicalResonator
from .spectrum import SpectrumRecord

STREAM_THERMAL = 0
STREAM_IMPRECISION = 1

PRESET_QUALITIES = {"q100": 100.0, "q1e3": 1.0e3, "q1e5": 1.0e5}
CONTROLLERS = ("off", "derivative", "chain")


def preset_resonator(base: MechanicalResonator, q: float) -> MechanicalResonator:
    """Desk-scale copy of ``base``: same omega0 and mass, viscous damping
    omega0/q so closed-loop statistics converge in seconds."""
    if not q > 0.0:
        raise DomainError("q must be > 0")
    return replace(base, q_internal=math.inf, gamma_viscous=base.omega0 / q,
                   loss_exponent=0.0)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for an independent stream of a seeded run."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Time-domain run description.

    duration        : s
    dt              : s; None picks 1/(100 f0)
    seed            : 64-bit stream seed
    x0              : initial position, m (the mass starts at rest)
    external        : "none", "sine", or "samples"
    ext_amplitude   : N, sine amplitude
    ext_frequency   : Hz, sine frequency
    ext_samples     : imported force series, N (external = "samples")
    controller      : "off", "derivative", or "chain"
    gain            : unitless g of the derivative controller
    bandpass_quality: quality of the velocity-estimate bandpass
    dac_bits        : optional DAC quantization depth for the chain controller
    """

    duration: float
    dt: float | None = None
    seed: int = 0
    x0: float = 0.0
    external: str = "none"
    ext_amplitude: float = 0.0
    ext_frequency: float = 0.0
    ext_samples: np.ndarray | None = None
    controller: str = "off"
    gain: float = 0.0
    bandpass_quality: float = 10.0
    dac_bits: int | None = None

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("duration must be finite and > 0")
        if self.external not in ("none", "sine", "samples"):
            raise ConfigError(f"unknown external force mode {self.external!r}")
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"unknown controller mode {self.controller!r}")
        if self.controller == "derivative" and not self.gain >= 0.0:
            raise ConfigError("gain must be >= 0")
        if self.external == "samples" and self.ext_samples is None:
            raise ConfigError("ext_samples required for external = 'samples'")
        if not self.bandpass_quality > 0.0:
            raise ConfigError("bandpass_quality must be > 0")

    def resolve_dt(self, res: MechanicalResonator) -> float:
        f0 = res.omega0 / TWO_PI
        dt = self.dt if self.dt is not None else 1.0 / (100.0 * f0)
        if dt > 1.0 / (20.0 * f0):
            raise ConfigError(
                f"dt = {dt:g} s undersamples the oscillation; need "
                f"dt <= {1.0 / (20.0 * f0):g} s (20 samples per period)")
        if self.duration < 100.0 * dt:
            raise ConfigError("duration must cover at least 100 steps")
        return dt


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Uniformly sampled loop record; reproducible from (config, seed)."""

    t: np.ndarray
    x: np.ndarray                    # true position, m
    y: np.ndarray                    # apparent position, m
    feedback_force: np.ndarray       # N
    control_voltage: np.ndarray | None  # V (chain controller only)
    power: np.ndarray | None         # W (chain controller only)
    seed: int
    config: SimConfig

    @property
    def sample_rate(self) -> float:
        return 1.0 / (self.t[1] - self.t[0])


def _external_force(cfg: SimConfig, n: int, dt: float) -> np.ndarray:
    if cfg.external == "none":
        return np.zeros(n)
    if cfg.external == "sine":
        t = dt * np.arange(n)
        return cfg.ext_amplitude * np.sin(TWO_PI * cfg.ext_frequency * t)
    samples = np.asarray(cfg.ext_samples, dtype=float)
    if samples.size < n:
        raise ConfigError(
            f"ext_samples has {samples.size} samples, run needs {n}")
    return samples[:n]


def _imprecision_sigma(hli: HliReadout | None, sample_rate: float) -> float:
    if hli is None:
        return 0.0
    if isinstance(hli.imprecision_asd, SpectrumRecord):
        raise ConfigError(
            "time-domain runs need a flat (white) imprecision ASD")
    return math.sqrt(float(hli.imprecision_asd) ** 2 * sample_rate / 2.0)


def simulate(cfg: SimConfig, res: MechanicalResonator,
             chain: FeedbackChain | None = None,
             hli: HliReadout | None = None) -> SimTrace:
    """Integrate the loop and return the trace.

    Raises ``DivergenceError`` when |x| exceeds one million times the
    initial bound (largest of |x0|, the equilibrium thermal rms, and the
    resonant response to the sine drive).
    """
    dt = cfg.resolve_dt(res)
    n = int(round(cfg.duration / dt))
    m = res.mass
    w2 = res.omega0 ** 2
    gamma = float(res.damping_rate(res.omega0))
    fs = 1.0 / dt

    if cfg.controller == "chain" and chain is None:
        raise ConfigError("chain controller requires a FeedbackChain")

    # independent seeded streams, one draw block per stream
    if res.temperature > 0.0:
        sigma_f = math.sqrt(res.thermal_force_psd(res.omega0) * fs / 2.0)
        f_th = stream_rng(cfg.seed, STREAM_THERMAL).standard_normal(n) * sigma_f
    else:
        f_th = np.zeros(n)
    sigma_y = _imprecision_sigma(hli, fs)
    if sigma_y > 0.0:
        noise_y = stream_rng(cfg.seed, STREAM_IMPRECISION).standard_normal(n) * sigma_y
    else:
        noise_y = np.zeros(n)
    f_ext = _external_force(cfg, n, dt)

    thermal_rms = math.sqrt(open_loop_thermal_variance(res))
    drive_rms = 0.0
    if cfg.external == "sine":
        drive_rms = abs(cfg.ext_amplitude) * res.quality_factor() / (m * w2)
    bound = 1.0e6 * max(abs(cfg.x0), thermal_rms, drive_rms, 1.0e-12)

    track_chain = cfg.controller == "chain"
    x_out = np.empty(n)
    f_out = np.empty(n)
    v_out = np.empty(n) if track_chain else None
    p_out = np.empty(n) if track_chain else None

    # controller setup: RBJ constant-peak-gain bandpass coefficients
    use_ctrl = cfg.controller != "off"
    if use_ctrl:
        w = res.omega0 * dt
        alpha = math.sin(w) / (2.0 * cfg.bandpass_quality)
        norm = 1.0 + alpha
        b0 = alpha / norm
        b2 = -alpha / norm
        a1 = -2.0 * math.cos(w) / norm
        a2 = (1.0 - alpha) / norm
        s1 = s2 = 0.0  # transposed direct form II states
        inv_2dt = 1.0 / (2.0 * dt)
    if cfg.controller == "derivative":
        force_per_velocity = -m * cfg.gain * gamma
    elif track_chain:
        phase_per_velocity = TWO_PI / chain.wavelength / res.omega0
        dac_gain = chain.dac_gain
        vpi = chain.eoam.half_wave_voltage
        theta = chain.eoam.bias_angle
        p0 = chain.eoam.max_power
        rp = 2.0 / C_LIGHT
        lsb = vpi / 2 ** cfg.dac_bits if cfg.dac_bits else None

    f_in_l = (f_th + f_ext).tolist()
    noise_y_l = noise_y.tolist() if use_ctrl else None

    x = float(cfg.x0)
    v = 0.0
    f_fb = 0.0
    inv_m = 1.0 / m
    for i in range(n):
        v += dt * ((f_in_l[i] + f_fb) * inv_m - w2 * x - gamma * v)
        x += dt * v
        if not -bound < x < bound:
            raise DivergenceError(
                f"|x| exceeded {bound:.3g} m at step {i}")
        x_out[i] = x
        f_out[i] = f_fb
        if use_ctrl:
            y = x + noise_y_l[i]
            if i == 0:
                vel = 0.0
                y1 = y2 = y
            else:
                u = (y - y2) * inv_2dt
                vel = b0 * u + s1
                s1 = -a1 * vel + s2
                s2 = b2 * u - a2 * vel
                y2 = y1
                y1 = y
            if track_chain:
                volt = dac_gain * phase_per_velocity * vel
                if lsb is not None:
                    volt = round(volt / lsb) * lsb
                power = p0 * math.cos(theta + math.pi * volt / vpi) ** 2
                v_out[i] = volt
                p_out[i] = power
                f_fb = rp * power
            else:
                f_fb = force_per_velocity * vel

    t = dt * np.arange(n)
    return SimTrace(t=t, x=x_out, y=x_out + noise_y, feedback_force=f_out,
                    control_voltage=v_out, power=p_out,
                    seed=cfg.seed, config=cfg)


@dataclass(frozen=True)
class MonteCarloResult:
    """Across-seed steady-state variance statistics."""

    mean: float            # m^2
    ci_halfwidth: float    # 95 percent, normal approximation
    per_seed: tuple        # per-seed steady-state variances
    stationary: bool       # False when the steady window still drifts


def _steady_window(trace: SimTrace) -> np.ndarray:
    """The second half of the trace: the transient is discarded."""
    return trace.x[trace.x.size // 2:]


def steady_state_variance(trace: SimTrace) -> float:
    """Variance of the steady-state window of the trace."""
    return float(np.var(_steady_window(trace)))


def monte_carlo_variance(cfg: SimConfig, res: MechanicalResonator,
                         n_seeds: int,
                         chain: FeedbackChain | None = None,
                         hli: HliReadout | None = None) -> MonteCarloResult:
    """Steady-state variance over ``n_seeds`` independent runs.

    Seeds are cfg.seed, cfg.seed + 1, ... The per-seed estimate uses the
    second half of each trace; the run must last at least 20 closed-loop
    relaxation times so that window is stationary. Stationarity is checked
    by splitting the steady window into quarters and comparing their
    across-seed means at three standard errors.
    """
    if n_seeds < 10:
        raise ConfigError("n_seeds must be >= 10")
    gamma = float(res.damping_rate(res.omega0))
    if cfg.controller == "derivative":
        g = cfg.gain
    elif cfg.controller == "chain":
        g = chain.gain_factor(res) if chain is not None else 0.0
    else:
        g = 0.0
    min_duration = 20.0 / ((1.0 + g) * gamma)
    if cfg.duration < min_duration:
        raise ConfigError(
            f"duration {cfg.duration:g} s too short for stationarity; "
            f"need >= {min_duration:g} s at g = {g:g}")

    # one trace alive at a time; per seed, the variance of the steady window
    # (steady_state_variance's value) and of its two halves
    variances, q3, q4 = np.empty((3, n_seeds))
    for k in range(n_seeds):
        tail = _steady_window(simulate(replace(cfg, seed=cfg.seed + k), res,
                                       chain=chain, hli=hli))
        half = tail.size // 2
        variances[k] = np.var(tail)
        q3[k] = np.var(tail[:half])
        q4[k] = np.var(tail[half:])

    mean = float(np.mean(variances))
    sem = float(np.std(variances, ddof=1) / math.sqrt(n_seeds))
    drift = abs(float(np.mean(q3) - np.mean(q4)))
    drift_sem = math.sqrt((np.var(q3, ddof=1) + np.var(q4, ddof=1)) / n_seeds)
    stationary = bool(drift <= 3.0 * drift_sem) if drift_sem > 0 else True
    return MonteCarloResult(mean=mean, ci_halfwidth=1.96 * sem,
                            per_seed=tuple(variances.tolist()),
                            stationary=stationary)
