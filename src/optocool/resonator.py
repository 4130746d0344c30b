"""Mechanical resonator model.

A suspended test mass with internal (structural) loss and optional viscous
(gas) damping. The frequency-dependent damping rate is

    gamma_m(omega) = gamma_v + omega0^2 * phi(omega) / omega

with loss coefficient ``phi(omega) = (1/Q_int) * (omega/omega0)**p``; the
default exponent p = 0 is the constant structural loss typical of fused
silica flexures. The resonator's responses are not stated here: its force
susceptibility chi_m is `cooling.effective_susceptibility` at g = 0, and
`cooling.acceleration_transfer` is -m chi_m. Every frequency-domain method
goes through `damping_rate`, the one place that validates omega (finite and
> 0); `gamma0` is its value at omega0, computed once per resonator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import KB
from .errors import DomainError, FitError


@dataclass(frozen=True)
class MechanicalResonator:
    """Suspended test mass.

    mass          : kg
    omega0        : resonance frequency, rad/s
    q_internal    : internal quality factor, 1/phi(omega0)
    gamma_viscous : viscous (gas) damping rate, rad/s
    temperature   : device temperature, K
    loss_exponent : p in phi(omega) = (1/q_internal) * (omega/omega0)**p
    """

    mass: float
    omega0: float
    q_internal: float
    gamma_viscous: float = 0.0
    temperature: float = 300.0
    loss_exponent: float = 0.0

    def __post_init__(self):
        if not self.mass > 0.0:
            raise DomainError("mass must be > 0")
        if not self.omega0 > 0.0:
            raise DomainError("omega0 must be > 0")
        # omega0**2 scales every damping rate: at 1e300 it overflows, and at
        # 1e-300 it underflows to a zero gamma0
        if not 0.0 < self.omega0 * self.omega0 < math.inf:
            raise DomainError("omega0 must have a finite, nonzero square")
        if not self.q_internal > 0.0:
            raise DomainError("q_internal must be > 0")
        if not self.gamma_viscous >= 0.0:
            raise DomainError("gamma_viscous must be >= 0")
        if not self.temperature >= 0.0:
            raise DomainError("temperature must be >= 0")
        if not math.isfinite(self.loss_exponent):
            raise DomainError("loss_exponent must be finite")
        # omega0**2 / Q can underflow to 0 or overflow where omega0**2 does not
        with np.errstate(over="ignore"):
            gamma0 = self.gamma0
        if self.q_internal < math.inf and not 0.0 < gamma0 < math.inf:
            raise DomainError("omega0,q_internal must give a damping rate at "
                              "omega0 that is finite and > 0")
        # every response scales as 1 / (m omega0^2): subnormal at 1e-155 Hz
        stiffness = self.mass * self.omega0 * self.omega0
        if not (stiffness > 0.0 and 1.0 / stiffness < math.inf):
            raise DomainError("mass,omega0 must give a stiffness m omega0^2 "
                              "that is > 0 with a finite reciprocal")
        # the peak response 1 / (m omega0 gamma0) overflows where the
        # stiffness does not: at 1e-152 Hz with 2.6 g and Q = 4.77e5
        peak = self.mass * self.omega0 * gamma0
        if gamma0 > 0.0 and not (peak > 0.0 and 1.0 / peak < math.inf):
            raise DomainError("mass,omega0,q_internal,gamma_viscous must give "
                              "a resonant response 1/(m omega0 gamma0) that "
                              "is finite")

    # -- damping model -------------------------------------------------

    def damping_rate(self, omega):
        """gamma_m(omega) = gamma_v + omega0^2 phi(omega) / omega, rad/s."""
        omega = np.asarray(omega, dtype=float)
        if not np.all(np.isfinite(omega)) or np.any(omega <= 0.0):
            raise DomainError("omega must be finite and > 0")
        phi = (1.0 / self.q_internal) * (omega / self.omega0) ** self.loss_exponent
        return self.gamma_viscous + self.omega0 ** 2 * phi / omega

    @functools.cached_property
    def gamma0(self) -> float:
        """gamma_m(omega0) as a float, rad/s; computed once per instance."""
        return float(self.damping_rate(self.omega0))

    def quality_factor(self) -> float:
        """Q at resonance, omega0 / gamma_m(omega0), viscous part included."""
        return self.omega0 / self.gamma0

    def with_temperature(self, temperature: float) -> "MechanicalResonator":
        return replace(self, temperature=temperature)

    # -- thermal noise (single-sided) -----------------------------------

    def thermal_accel_asd(self, omega):
        """Thermal acceleration noise floor, m s^-2 / rtHz."""
        return np.sqrt(4.0 * KB * self.temperature / self.mass * self.damping_rate(omega))

    def thermal_force_psd(self, omega, gm=None):
        """Thermal (Langevin) force PSD, N^2/Hz; m^2 a_th^2 by construction.

        ``gm`` is ``damping_rate(omega)`` when the caller has it already.
        """
        gm = self.damping_rate(omega) if gm is None else gm
        return 4.0 * KB * self.temperature * self.mass * gm

    # -- ringdown --------------------------------------------------------

    def ringdown_envelope(self, x0: float, t):
        """Free-decay amplitude envelope x0 exp(-gamma_m(omega0) t / 2), m."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise DomainError("t must be >= 0")
        return x0 * np.exp(-0.5 * self.gamma0 * t)


@dataclass(frozen=True)
class RingdownFit:
    """Result of a log-linear envelope fit."""

    q: float              # omega0 / (2 |slope|)
    omega0: float         # rad/s used for the Q conversion
    decay_rate: float     # fitted gamma_m, rad/s (= 2 |slope|)
    amplitude0: float     # fitted envelope at t = 0, m
    residual_rms: float   # rms of log-envelope residuals
    n_points: int


def extract_envelope(t, x, omega0):
    """Pick the absolute-value peak of each oscillation cycle.

    Returns (t_peaks, amplitudes); ``omega0`` sets the cycle length.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
        raise DomainError("t and x must be equal-length 1-d arrays")
    period = 2.0 * math.pi / omega0
    dt = float(np.median(np.diff(t)))
    per_cycle = max(int(round(period / dt)), 2)
    n_cycles = x.size // per_cycle
    if n_cycles < 2:
        raise FitError("series shorter than two oscillation cycles")
    cycles = np.abs(x[:n_cycles * per_cycle]).reshape(n_cycles, per_cycle)
    idx = per_cycle * np.arange(n_cycles) + np.argmax(cycles, axis=1)
    return t[idx], np.abs(x[idx])


def _omega_from_zero_crossings(t, x):
    sign = np.sign(x)
    sign[sign == 0] = 1
    crossings = np.nonzero(np.diff(sign))[0]
    if crossings.size < 4:
        raise FitError("cannot estimate omega0: fewer than 4 zero crossings")
    span = t[crossings[-1]] - t[crossings[0]]
    return math.pi * (crossings.size - 1) / span


def fit_q_from_ringdown(t, series, omega0=None) -> RingdownFit:
    """Least-squares fit of the log envelope to a line; Q = omega0/(2|slope|).

    ``series`` is either an amplitude envelope (non-negative samples) or a
    raw oscillating decay, detected by the presence of sign changes. Raises
    ``FitError`` on fewer than 10 envelope points, a non-decaying envelope,
    a fitted span below half an e-fold, or an envelope that is not one
    exponential: one whose earlier and later halves, each fitted alone,
    decay at rates apart by more than a tenth of the whole's. A record that
    runs on into its noise floor ends in a flat envelope, which takes the
    later half's rate down by tens of percent and the whole's with it; a
    pure decay sampled 10 or more times a cycle keeps its halves within a
    few percent, set by where each cycle's largest sample falls.
    """
    t = np.asarray(t, dtype=float)
    series = np.asarray(series, dtype=float)
    oscillatory = np.any(series < 0.0)
    if oscillatory:
        if omega0 is None:
            omega0 = _omega_from_zero_crossings(t, series)
        t_env, amp = extract_envelope(t, series, omega0)
    else:
        if omega0 is None:
            raise FitError("omega0 required when fitting an envelope directly")
        t_env, amp = t, series

    keep = amp > 0.0
    t_env, amp = t_env[keep], amp[keep]
    if t_env.size < 10:
        raise FitError(f"too few envelope samples ({t_env.size} < 10)")

    log_amp = np.log(amp)
    slope, intercept = np.polyfit(t_env, log_amp, 1)
    span_efolds = abs(slope) * (t_env[-1] - t_env[0])
    if slope >= 0.0 or span_efolds < 0.5:
        raise FitError(
            f"non-decaying or too-short envelope: slope {slope:.3e} 1/s, "
            f"span {span_efolds:.3f} e-folds")

    half = t_env.size // 2
    early, late = (np.polyfit(t_env[part], log_amp[part], 1)[0]
                   for part in (slice(None, half), slice(half, None)))
    if abs(late - early) > 0.1 * abs(slope):
        raise FitError(
            f"not one exponential: the log envelope's halves have slopes "
            f"{early:.3e} and {late:.3e} 1/s, as when a record runs on "
            "into its noise floor")

    residuals = log_amp - (slope * t_env + intercept)
    gamma = 2.0 * abs(float(slope))
    return RingdownFit(
        q=float(omega0) / gamma,
        omega0=float(omega0),
        decay_rate=gamma,
        amplitude0=float(np.exp(intercept)),
        residual_rms=float(np.sqrt(np.mean(residuals ** 2))),
        n_points=int(t_env.size),
    )
