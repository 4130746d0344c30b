"""Transduction chain from measured displacement to radiation-pressure force.

The chain composes three stages: digital gain (phase in, volts out),
electro-optic amplitude modulator (volts in, watts out, P0 cos^2(theta +
pi V / Vpi) transfer at the bias angle theta), and radiation-pressure actuator (watts in, newtons out, 2/c for a
perfectly reflecting mass). All gains are reported as magnitudes; the
feedback polarity is absorbed into the controller sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import C_LIGHT, TWO_PI
from .errors import DomainError, PowerLimitError
from .resonator import MechanicalResonator


def actuator_gain() -> float:
    """Radiation-pressure force per watt on a perfect reflector, 2/c N/W."""
    return 2.0 / C_LIGHT


@dataclass(frozen=True)
class Eoam:
    """Polarization-based electro-optic amplitude modulator.

    half_wave_voltage : Vpi, volts from full transmission to extinction
    max_power         : P0, maximum transmitted power, W
    bias_angle        : theta = pi * V_bias / Vpi, rad, in [0, pi/2]
    damage_threshold  : optical power the crystal tolerates, W
    """

    half_wave_voltage: float
    max_power: float
    bias_angle: float = math.pi / 4.0
    damage_threshold: float = 0.1

    def __post_init__(self):
        if not self.half_wave_voltage > 0.0:
            raise DomainError("half_wave_voltage must be > 0")
        if not 0.0 < self.damage_threshold < math.inf:
            raise DomainError("damage_threshold must be finite and > 0")
        if not 0.0 < self.max_power <= self.damage_threshold:
            raise DomainError("max_power,damage_threshold must give "
                              "0 < max_power <= damage_threshold")
        if not 0.0 <= self.bias_angle <= math.pi / 2.0:
            raise DomainError("bias_angle must be in [0, pi/2]")

    def gain(self) -> float:
        """|dP/dV| at the bias point, (pi P0 / Vpi) sin(2 theta), W/V."""
        return (math.pi * self.max_power / self.half_wave_voltage
                * math.sin(2.0 * self.bias_angle))


@dataclass(frozen=True)
class FeedbackChain:
    """Composed feedback transduction chain.

    eoam       : intensity modulator
    dac_gain   : G_DAC, phasemeter phase to analog voltage, V/rad
    wavelength : feedback laser wavelength, m (2 pi / wavelength converts
                 displacement to phase)
    """

    eoam: Eoam
    dac_gain: float
    wavelength: float

    def __post_init__(self):
        if not self.dac_gain >= 0.0:
            raise DomainError("dac_gain must be >= 0")
        if not self.wavelength > 0.0:
            raise DomainError("wavelength must be > 0")

    def static_gain(self) -> float:
        """Force per unit apparent displacement at the bias point, N/m.

        Product of actuator (N/W), modulator slope (W/V), DAC gain (V/rad)
        and displacement-to-phase (2 pi / wavelength), equal to the closed
        form 4 pi^2 G_DAC P0 sin(2 theta) / (c wavelength Vpi).
        """
        return (actuator_gain() * self.eoam.gain() * self.dac_gain
                * TWO_PI / self.wavelength)

    def gain_factor(self, res: MechanicalResonator) -> float:
        """Unitless cooling gain g = static_gain * Q / (m omega0^2)."""
        return self.static_gain() * res.quality_factor() / (res.mass * res.omega0 ** 2)

    def required_power(self, res: MechanicalResonator, g_target: float) -> float:
        """P0 realizing ``g_target``, W; g is linear in P0 (no limit check)."""
        if not g_target > 0.0:
            raise DomainError("g_target must be > 0")
        g = self.gain_factor(res)
        if g == 0.0:  # the zero factors, or both where the product underflows
            factors = {"bias_angle": math.sin(2.0 * self.eoam.bias_angle),
                       "dac_gain": self.dac_gain}
            zero = [name for name, f in factors.items() if f == 0.0] or factors
            raise DomainError(f"{','.join(zero)} must give a nonzero "
                              "transduction sin(2 theta) G_DAC")
        return self.eoam.max_power * g_target / g

    def power_for_gain(self, res: MechanicalResonator, g_target: float) -> float:
        """Like ``required_power`` but refuses powers above the damage threshold."""
        p0 = self.required_power(res, g_target)
        if p0 > self.eoam.damage_threshold:
            raise PowerLimitError(
                f"g = {g_target:g} needs P0 = {p0:.4g} W, above the damage "
                f"threshold {self.eoam.damage_threshold:.4g} W")
        return p0

    def with_power(self, p0: float) -> "FeedbackChain":
        return replace(self, eoam=replace(self.eoam, max_power=p0))

    def with_dac_gain(self, dac_gain: float) -> "FeedbackChain":
        return replace(self, dac_gain=dac_gain)


def max_dac_gain(half_wave_voltage: float, wavelength: float, x_pp: float) -> float:
    """Largest DAC gain keeping the EOAM drive within Vpi, V/rad.

    ``x_pp`` is the full peak-to-peak displacement of the test mass; the
    phasemeter maps it to a phase span 2 pi x_pp / wavelength, so
    G_DAC^max = Vpi wavelength / (2 pi x_pp).
    """
    if not x_pp > 0.0:
        raise DomainError("x_pp must be > 0")
    return half_wave_voltage * wavelength / (TWO_PI * x_pp)
