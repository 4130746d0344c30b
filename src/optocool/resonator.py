"""Mechanical resonator model.

A suspended test mass with internal (structural) loss and optional viscous
(gas) damping. The frequency-dependent damping rate is

    gamma_m(omega) = gamma_v + omega0^2 * phi(omega) / omega

with loss coefficient ``phi(omega) = (1/Q_int) * (omega/omega0)**p``; the
default exponent p = 0 is the constant structural loss typical of fused
silica flexures. The force susceptibility follows the positive-real-at-DC
sign convention,

    chi_m(omega) = 1 / ( m * (omega0^2 - omega^2 + i gamma_m(omega) omega) ),

and the sign flip of displacement against frame acceleration lives only in
`acceleration_transfer`. Every frequency-domain method goes through
`damping_rate`, the one place that validates omega (finite and > 0).
"""

from __future__ import annotations

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
        if not self.q_internal > 0.0:
            raise DomainError("q_internal must be > 0")
        if not self.gamma_viscous >= 0.0:
            raise DomainError("gamma_viscous must be >= 0")
        if not self.temperature >= 0.0:
            raise DomainError("temperature must be >= 0")
        if not math.isfinite(self.loss_exponent):
            raise DomainError("loss_exponent must be finite")

    # -- damping model -------------------------------------------------

    def damping_rate(self, omega):
        """gamma_m(omega) = gamma_v + omega0^2 phi(omega) / omega, rad/s."""
        omega = np.asarray(omega, dtype=float)
        if not np.all(np.isfinite(omega)) or np.any(omega <= 0.0):
            raise DomainError("omega must be finite and > 0")
        phi = (1.0 / self.q_internal) * (omega / self.omega0) ** self.loss_exponent
        return self.gamma_viscous + self.omega0 ** 2 * phi / omega

    def quality_factor(self) -> float:
        """Q at resonance, omega0 / gamma_m(omega0), viscous part included."""
        return self.omega0 / float(self.damping_rate(self.omega0))

    def with_temperature(self, temperature: float) -> "MechanicalResonator":
        return replace(self, temperature=temperature)

    # -- response ------------------------------------------------------

    def force_susceptibility(self, omega):
        """chi_m(omega), displacement per unit force, complex m/N."""
        omega = np.asarray(omega, dtype=float)
        gm = self.damping_rate(omega)
        return 1.0 / (self.mass * (self.omega0 ** 2 - omega ** 2 + 1j * gm * omega))

    def acceleration_transfer(self, omega):
        """x(omega)/a(omega) for frame acceleration a, complex s^2.

        Equals -mass * chi_m: the test mass lags the accelerated frame.
        """
        return -self.mass * self.force_susceptibility(omega)

    # -- thermal noise (single-sided) -----------------------------------

    def thermal_accel_asd(self, omega):
        """Thermal acceleration noise floor, m s^-2 / rtHz."""
        return np.sqrt(4.0 * KB * self.temperature / self.mass * self.damping_rate(omega))

    def thermal_force_psd(self, omega):
        """Thermal (Langevin) force PSD, N^2/Hz; m^2 a_th^2 by construction."""
        return 4.0 * KB * self.temperature * self.mass * self.damping_rate(omega)

    # -- ringdown --------------------------------------------------------

    def ringdown_envelope(self, x0: float, t):
        """Free-decay amplitude envelope x0 exp(-gamma_m(omega0) t / 2), m."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise DomainError("t must be >= 0")
        gm = float(self.damping_rate(self.omega0))
        return x0 * np.exp(-0.5 * gm * t)


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
    or a fitted span below half an e-fold.
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
