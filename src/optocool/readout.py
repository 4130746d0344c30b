"""Optical readout models: Fabry-Perot frequency readout and heterodyne
interferometer with its digital phasemeter.

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
from scipy.signal import lfilter

from .constants import C_LIGHT, G_STANDARD, TWO_PI
from .cooling import effective_susceptibility
from .errors import ConfigError, DomainError, RangeError
from .resonator import MechanicalResonator
from .spectrum import KIND_ASD, SpectrumRecord, psd_lookup, read_rows


def _squared(asd):
    """A flat ASD squared into a PSD value; None and records pass through."""
    if asd is None or isinstance(asd, SpectrumRecord):
        return asd
    return float(asd) ** 2


@dataclass(frozen=True)
class FpiReadout:
    """Fabry-Perot frequency readout.

    cavity_length : mean cavity length, m
    wavelength    : mean laser wavelength, m
    tuning_range  : laser frequency tuning range, Hz
    finesse       : cavity finesse (only the capture range consumes it)
    readout_noise : frequency noise floor nu_n; flat value in Hz/rtHz,
                    a SpectrumRecord, or None for noiseless
    """

    cavity_length: float
    wavelength: float
    tuning_range: float
    finesse: float = 1000.0
    readout_noise: float | SpectrumRecord | None = None

    def __post_init__(self):
        if not self.cavity_length > 0.0:
            raise DomainError("cavity_length must be > 0")
        if not self.wavelength > 0.0:
            raise DomainError("wavelength must be > 0")
        if not self.tuning_range > 0.0:
            raise DomainError("tuning_range must be > 0")
        if not self.finesse > 1.0:
            raise DomainError("finesse must be > 1")
        noise = self.readout_noise
        if (noise is not None and not isinstance(noise, SpectrumRecord)
                and not noise >= 0.0):
            raise DomainError("readout_noise must be >= 0")
        if self.capture_range() >= self.dynamic_range():
            raise DomainError(
                "capture range wavelength/finesse must be below the dynamic range")

    @property
    def displacement_to_frequency(self) -> float:
        """c / (wavelength * cavity_length), Hz per m."""
        return C_LIGHT / (self.wavelength * self.cavity_length)

    def dynamic_range(self) -> float:
        """Largest trackable length change, wavelength*length*tuning/c, m."""
        return self.wavelength * self.cavity_length * self.tuning_range / C_LIGHT

    def capture_range(self) -> float:
        """Linear-regime displacement bound wavelength/finesse, m."""
        return self.wavelength / self.finesse

    def freq_from_displacement(self, x: float) -> float:
        """Laser frequency shift for displacement x, Hz."""
        if abs(x) >= self.dynamic_range():
            raise RangeError(
                f"|x| = {abs(x):.4g} m exceeds the dynamic range "
                f"{self.dynamic_range():.4g} m")
        return x * self.displacement_to_frequency

    def capture_check(self, rms_x: float) -> bool:
        """True iff rms motion is strictly inside the capture range."""
        if not rms_x >= 0.0:
            raise DomainError("rms_x must be >= 0")
        return rms_x < self.capture_range()

    def noise_asd(self, omega) -> np.ndarray:
        """Readout frequency noise nu_n(omega), Hz/rtHz."""
        return np.sqrt(psd_lookup(_squared(self.readout_noise), "readout_noise")(omega))

    def output_spectrum(self, res: MechanicalResonator, g: float, omega,
                        external_accel: SpectrumRecord | None = None
                        ) -> SpectrumRecord:
        """ASD of the detected laser frequency, Hz/rtHz.

        External and thermal acceleration drive the mass through the
        closed-loop response m |chi_eff(omega)| of derivative feedback at
        gain g (the open-loop response at g = 0); the readout noise passes
        straight through. Statistically independent terms combine as the
        root sum of squares.
        """
        omega = np.asarray(omega, dtype=float)
        accel_to_freq = (self.displacement_to_frequency * res.mass
                         * np.abs(effective_susceptibility(res, g, omega)))

        psd = (self.noise_asd(omega) ** 2
               + (accel_to_freq * res.thermal_accel_asd(omega)) ** 2)
        if external_accel is not None:
            psd = psd + accel_to_freq ** 2 * psd_lookup(
                external_accel, "external_accel")(omega)
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
    imprecision_asd      : displacement noise floor, m/rtHz (flat value or
                           a SpectrumRecord for a shaped measured floor)
    lpf_corner           : phasemeter low-pass corner, Hz
    heterodyne_frequency : beat note frequency, Hz
    """

    wavelength: float
    imprecision_asd: float | SpectrumRecord
    lpf_corner: float = 500.0
    heterodyne_frequency: float = 1.0e4

    def __post_init__(self):
        if not self.wavelength > 0.0:
            raise DomainError("wavelength must be > 0")
        if isinstance(self.imprecision_asd, SpectrumRecord):
            if not np.all(self.imprecision_asd.values > 0.0):
                raise DomainError("imprecision ASD must be > 0 everywhere")
        elif not self.imprecision_asd > 0.0:
            raise DomainError("imprecision ASD must be > 0")
        if not self.lpf_corner > 0.0:
            raise DomainError("lpf_corner must be > 0")
        if not self.heterodyne_frequency > 0.0:
            raise DomainError("heterodyne_frequency must be > 0")

    def imprecision_psd_at(self, omega) -> np.ndarray:
        """Imprecision PSD S_xx^n at omega, m^2/Hz."""
        return psd_lookup(_squared(self.imprecision_asd), "imprecision_asd")(omega)


class Phasemeter:
    """Streaming I/Q phasemeter for a heterodyne beat note.

    Demodulates at the heterodyne frequency, low-passes I and Q with a
    first-order IIR (bilinear transform design), takes the four-quadrant
    angle and unwraps it across calls. One instance per stream; the filter
    state is not shareable.
    """

    def __init__(self, heterodyne_frequency: float, lpf_corner: float,
                 sample_rate: float, wavelength: float | None = None):
        if not 4.0 * heterodyne_frequency < sample_rate:
            raise ConfigError(
                f"sample_rate {sample_rate:g} Hz must exceed 4 x heterodyne "
                f"frequency ({4.0 * heterodyne_frequency:g} Hz)")
        if not 0.0 < lpf_corner < heterodyne_frequency / 2.0:
            raise ConfigError(
                f"lpf_corner {lpf_corner:g} Hz must be > 0 and below half the "
                f"heterodyne frequency ({heterodyne_frequency / 2.0:g} Hz)")
        self.f_het = heterodyne_frequency
        self.sample_rate = sample_rate
        self.wavelength = wavelength
        # first-order low-pass via bilinear transform of wc/(s+wc):
        # y[n] = b x[n] + b x[n-1] - a1 y[n-1]
        wc = TWO_PI * lpf_corner
        k = 2.0 * sample_rate
        b = wc / (k + wc)
        self._b = np.array([b, b])
        self._a = np.array([1.0, (wc - k) / (k + wc)])
        self._zi = np.zeros((2, 1))  # filter states of I and Q
        self._n = 0      # samples consumed
        self._last_phase = None

    def process(self, samples) -> np.ndarray:
        """Consume beat samples, return the unwrapped phase series, rad."""
        samples = np.asarray(samples, dtype=float)
        n = np.arange(self._n, self._n + samples.size)
        self._n += samples.size
        phase_lo = TWO_PI * self.f_het / self.sample_rate * n
        iq_raw = np.stack((2.0 * samples * np.cos(phase_lo),
                           -2.0 * samples * np.sin(phase_lo)))
        (i_f, q_f), self._zi = lfilter(self._b, self._a, iq_raw, zi=self._zi)
        phase = np.arctan2(q_f, i_f)
        if self._last_phase is not None:
            phase = np.unwrap(np.concatenate(([self._last_phase], phase)))[1:]
        else:
            phase = np.unwrap(phase)
        self._last_phase = float(phase[-1])
        return phase

    def displacement(self, samples) -> np.ndarray:
        """Phase converted to displacement, phase * wavelength / 2 pi, m."""
        if self.wavelength is None:
            raise ConfigError("wavelength required for displacement output")
        return self.process(samples) * self.wavelength / TWO_PI


def phasemeter_extract(beat, sample_rate: float, heterodyne_frequency: float,
                       lpf_corner: float) -> np.ndarray:
    """One-shot phase extraction from a beat series, rad (unwrapped)."""
    pm = Phasemeter(heterodyne_frequency, lpf_corner, sample_rate)
    return pm.process(beat)


def phase_from_csv(path, heterodyne_frequency: float, lpf_corner: float):
    """Run the phasemeter on a raw ``t_s,value`` sample CSV.

    Returns (t, unwrapped phase in rad). The sample rate is taken from the
    first two timestamps; ``#`` comment lines are skipped.
    """
    rows = [row for row in read_rows(path)[0] if row[0] != "t_s"]
    t = [float(row[0]) for row in rows]
    values = [float(row[1]) for row in rows]
    if len(t) < 2:
        raise ConfigError(f"{path}: need at least two samples")
    t = np.asarray(t)
    sample_rate = 1.0 / (t[1] - t[0])
    return t, phasemeter_extract(np.asarray(values), sample_rate,
                                 heterodyne_frequency, lpf_corner)
