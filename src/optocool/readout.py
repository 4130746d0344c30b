"""Optical readout models: Fabry-Perot frequency readout and heterodyne
interferometer, both analytic (no beat note is demodulated here).

The Fabry-Perot readout converts cavity length change into laser frequency
shift through nu = x * c / (wavelength * cavity_length); its dynamic range
is set by the laser tuning range and its capture range by wavelength/finesse.
The heterodyne interferometer is the long-range readout: apparent position
is true position plus an imprecision draw, with no range limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, G_STANDARD
from .cooling import effective_susceptibility
from .errors import DomainError
from .resonator import MechanicalResonator
from .spectrum import KIND_ASD, SpectrumRecord


@dataclass(frozen=True)
class FpiReadout:
    """Fabry-Perot frequency readout.

    cavity_length : mean cavity length, m
    wavelength    : mean laser wavelength, m
    tuning_range  : laser frequency tuning range, Hz
    finesse       : cavity finesse (only the capture range consumes it)
    readout_noise : flat frequency noise floor nu_n, Hz/rtHz; None or 0 for
                    noiseless, else large enough that `imprecision_psd`
                    does not underflow to 0
    """

    cavity_length: float
    wavelength: float
    tuning_range: float
    finesse: float = 1000.0
    readout_noise: float | None = None

    def __post_init__(self):
        if not self.cavity_length > 0.0:
            raise DomainError("cavity_length must be > 0")
        if not self.wavelength > 0.0:
            raise DomainError("wavelength must be > 0")
        if not self.tuning_range > 0.0:
            raise DomainError("tuning_range must be > 0")
        if not self.finesse > 1.0:
            raise DomainError("finesse must be > 1")
        if not 0.0 <= (self.readout_noise or 0.0) < math.inf:
            raise DomainError("readout_noise must be finite and >= 0")
        if self.readout_noise and not self.imprecision_psd > 0.0:
            raise DomainError("readout_noise must be 0 or give a nonzero "
                              "imprecision_psd, not one that underflows to 0")
        if not math.isfinite(self.dynamic_range()):
            raise DomainError("wavelength,cavity_length,tuning_range must "
                              "give a finite dynamic range "
                              "wavelength*length*tuning/c")
        if self.capture_range() >= self.dynamic_range():
            raise DomainError("finesse,wavelength,cavity_length,tuning_range "
                              "must put the capture range wavelength/finesse "
                              "below the dynamic range")

    @property
    def displacement_to_frequency(self) -> float:
        """c / (wavelength * cavity_length), Hz per m."""
        return C_LIGHT / (self.wavelength * self.cavity_length)

    @property
    def imprecision_psd(self) -> float:
        """Displacement floor (nu_n / displacement_to_frequency)^2, m^2/Hz."""
        return ((self.readout_noise or 0.0)
                / self.displacement_to_frequency) ** 2

    def dynamic_range(self) -> float:
        """Largest trackable length change, wavelength*length*tuning/c, m."""
        return self.wavelength * self.cavity_length * self.tuning_range / C_LIGHT

    def capture_range(self) -> float:
        """Linear-regime displacement bound wavelength/finesse, m."""
        return self.wavelength / self.finesse

    def capture_check(self, rms_x: float) -> bool:
        """True iff rms motion is strictly inside the capture range."""
        if not rms_x >= 0.0:
            raise DomainError("rms_x must be >= 0")
        return rms_x < self.capture_range()

    def noise_asd(self, omega) -> np.ndarray:
        """Readout frequency noise nu_n at each omega, Hz/rtHz."""
        return np.full_like(np.asarray(omega, dtype=float),
                            self.readout_noise or 0.0)

    def output_spectrum(self, res: MechanicalResonator, g: float,
                        omega) -> SpectrumRecord:
        """ASD of the detected laser frequency, Hz/rtHz.

        Thermal acceleration drives the mass through the closed-loop
        response m |chi_eff(omega)| of derivative feedback at gain g (the
        open-loop response at g = 0); the readout noise passes straight
        through. The two independent terms combine as the root sum of
        squares.
        """
        omega = np.asarray(omega, dtype=float)
        accel_to_freq = (self.displacement_to_frequency * res.mass
                         * np.abs(effective_susceptibility(res, g, omega)))
        psd = (self.noise_asd(omega) ** 2
               + (accel_to_freq * res.thermal_accel_asd(omega)) ** 2)
        return SpectrumRecord(omega, np.sqrt(psd), KIND_ASD, "Hz/rtHz")

    def acceleration_equivalent(self, res: MechanicalResonator) -> dict:
        """Acceleration equivalent of the dynamic range, both readings.

        ``as_written`` evaluates dynamic_range * omega0 / sqrt(Q) (nominal
        units m/s); ``dimensional`` evaluates dynamic_range * omega0^2 /
        sqrt(Q) (m s^-2 / rtHz). Both are also quoted in units of standard
        gravity for comparison with noise budgets quoted in ng/rtHz.
        """
        q = res.quality_factor()
        dl = self.dynamic_range()
        as_written = dl * res.omega0 / math.sqrt(q)
        dimensional = dl * res.omega0 ** 2 / math.sqrt(q)
        return {
            "as_written": as_written,
            "as_written_g": as_written / G_STANDARD,
            "dimensional": dimensional,
            "dimensional_g": dimensional / G_STANDARD,
        }


@dataclass(frozen=True)
class HliReadout:
    """Heterodyne laser interferometer (long-range readout).

    wavelength           : m
    imprecision_asd      : flat displacement noise floor, m/rtHz; its
                           square `imprecision_psd` must lie in (0, inf)
    heterodyne_frequency : beat note frequency, Hz

    A refused value raises ``DomainError("<field> <reason>")``.
    """

    wavelength: float
    imprecision_asd: float
    heterodyne_frequency: float = 1.0e4

    def __post_init__(self):
        if not self.wavelength > 0.0:
            raise DomainError("wavelength must be > 0")
        try:
            psd = self.imprecision_psd
        except OverflowError:  # the float power of a finite ASD
            psd = math.inf
        if not (self.imprecision_asd > 0.0 and 0.0 < psd < math.inf):
            raise DomainError(
                "imprecision_asd must be > 0 with a finite, nonzero square")
        if not self.heterodyne_frequency > 0.0:
            raise DomainError("heterodyne_frequency must be > 0")

    @property
    def imprecision_psd(self) -> float:
        """Flat imprecision PSD S_xx^n, m^2/Hz."""
        return self.imprecision_asd ** 2

    def imprecision_psd_at(self, omega) -> np.ndarray:
        """`imprecision_psd` at each omega, m^2/Hz."""
        return np.full_like(np.asarray(omega, dtype=float),
                            self.imprecision_psd)

