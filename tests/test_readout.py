import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from optocool import (CoolingSetup, DomainError, FpiReadout, HliReadout,
                      MechanicalResonator, SpectrumRecord, closed_loop_psd,
                      effective_susceptibility, noise_temperature)
from optocool.cooling import acceleration_transfer
from optocool.simulate import stream_rng

TWO_PI = 2 * math.pi


class TestFpiConversion:
    def test_zero_displacement(self, fpi):
        assert 0.0 * fpi.displacement_to_frequency == 0.0

    def test_one_nanometer(self, fpi):
        # direct evaluation oracle: x c / (wavelength * cavity length)
        assert 1e-9 * fpi.displacement_to_frequency == pytest.approx(
            5.635196578947368e6, rel=1e-12)

    def test_linearity(self, fpi):
        x = 3.7e-10
        assert 2 * x * fpi.displacement_to_frequency == pytest.approx(
            2 * (x * fpi.displacement_to_frequency), rel=0, abs=0)

    def test_round_trip(self, fpi):
        x = 8.13e-8
        nu = x * fpi.displacement_to_frequency
        assert nu / fpi.displacement_to_frequency == pytest.approx(x, rel=1e-12)

    def test_imprecision_psd_is_readout_noise_in_metres(self, fpi):
        # direct evaluation oracle: (nu_n wavelength L / c)^2
        noisy = replace(fpi, readout_noise=1e3)
        x_n = 1e3 * fpi.wavelength * fpi.cavity_length / 299792458.0
        assert noisy.imprecision_psd == pytest.approx(x_n ** 2, rel=1e-12)
        assert math.sqrt(noisy.imprecision_psd) == pytest.approx(
            1.7746e-13, rel=1e-4)

    @pytest.mark.parametrize("noise", [None, 0.0])
    def test_noiseless_imprecision_psd_is_zero(self, fpi, noise):
        assert replace(fpi, readout_noise=noise).imprecision_psd == 0.0


class TestFpiDynamicRange:
    def test_paper_value(self, fpi):
        # 1.775 um, the quoted 1.8 um within 2 percent
        assert fpi.dynamic_range() == pytest.approx(1.7745609864541694e-6,
                                                    rel=1e-12)
        assert fpi.dynamic_range() == pytest.approx(1.8e-6, rel=0.02)

    def test_linear_in_tuning_range(self, fpi):
        doubled = FpiReadout(fpi.cavity_length, fpi.wavelength,
                             2 * fpi.tuning_range, fpi.finesse)
        assert doubled.dynamic_range() == pytest.approx(
            2 * fpi.dynamic_range(), rel=1e-12)

    def test_linear_in_cavity_length(self, fpi):
        half = FpiReadout(fpi.cavity_length / 2, fpi.wavelength,
                          fpi.tuning_range, fpi.finesse)
        assert half.dynamic_range() == pytest.approx(
            fpi.dynamic_range() / 2, rel=1e-12)

    def test_overflowing_product_refused(self, fpi):
        # wavelength * length * tuning overflows before the division by c
        with pytest.raises(DomainError, match=r"^wavelength,cavity_length,"
                           r"tuning_range must give a finite dynamic range"):
            replace(fpi, wavelength=1e300)


class TestCaptureCheck:
    def test_zero_rms(self, fpi):
        assert fpi.capture_check(0.0) is True

    def test_threshold(self, fpi):
        # capture range is 1064 nm / 1000 = 1.064 nm
        assert fpi.capture_check(1e-9) is True
        assert fpi.capture_check(2e-9) is False

    def test_boundary_is_strict(self, fpi):
        assert fpi.capture_check(fpi.capture_range()) is False

    def test_negative_rms_rejected(self, fpi):
        with pytest.raises(DomainError):
            fpi.capture_check(-1.0)

    def test_nan_rms_rejected(self, fpi):
        with pytest.raises(DomainError):
            fpi.capture_check(math.nan)


class TestFpiOutputSpectrum:
    def test_thermal_only_matches_transfer(self, fpi, resonator):
        omega = np.logspace(-1, 1, 101) * resonator.omega0
        rec = fpi.output_spectrum(resonator, g=0.0, omega=omega)
        expected = (fpi.displacement_to_frequency
                    * np.abs(acceleration_transfer(resonator, omega))
                    * resonator.thermal_accel_asd(omega))
        assert np.allclose(rec.values, expected, rtol=1e-9)

    def test_gain_suppresses_resonance(self, fpi, resonator):
        w0 = np.array([resonator.omega0])
        open_loop = fpi.output_spectrum(resonator, 0.0, omega=w0).values[0]
        g = 100.0
        closed = fpi.output_spectrum(resonator, g, omega=w0).values[0]
        assert closed == pytest.approx(open_loop / (1.0 + g), rel=1e-9)

    def test_readout_noise_passes_through(self, resonator, fpi):
        noisy = FpiReadout(fpi.cavity_length, fpi.wavelength,
                           fpi.tuning_range, fpi.finesse, readout_noise=5.0)
        cold = resonator.with_temperature(0.0)
        omega = np.array([10 * resonator.omega0])
        rec = noisy.output_spectrum(cold, 0.0, omega=omega)
        assert rec.values[0] == pytest.approx(5.0, rel=1e-12)

    def test_negative_readout_noise_rejected(self, fpi):
        # squaring the flat ASD into a PSD must not hide its sign
        with pytest.raises(DomainError, match="readout_noise"):
            FpiReadout(fpi.cavity_length, fpi.wavelength, fpi.tuning_range,
                       fpi.finesse, readout_noise=-5.0)

    @pytest.mark.parametrize("noise", [math.inf, math.nan])
    def test_non_finite_readout_noise_rejected(self, fpi, noise):
        with pytest.raises(DomainError,
                           match=r"^readout_noise must be finite and >= 0$"):
            FpiReadout(fpi.cavity_length, fpi.wavelength, fpi.tuning_range,
                       fpi.finesse, readout_noise=noise)

    def test_underflowing_readout_noise_refused(self, fpi):
        # 1e-170 Hz/rtHz is 1.8e-186 m/rtHz, whose square underflows to 0:
        # a handover cascade would read it as a noiseless readout
        with pytest.raises(DomainError, match=r"^readout_noise must be 0 or "
                                              r"give a nonzero imprecision_psd"):
            FpiReadout(fpi.cavity_length, fpi.wavelength, fpi.tuning_range,
                       fpi.finesse, readout_noise=1e-170)

    def test_tiny_readout_noise_with_nonzero_square_kept(self, fpi):
        # a floor whose square in m^2/Hz is tiny but nonzero is kept as is
        small = 1e-146 * fpi.displacement_to_frequency
        kept = FpiReadout(fpi.cavity_length, fpi.wavelength,
                          fpi.tuning_range, fpi.finesse, readout_noise=small)
        assert kept.imprecision_psd > 0.0
        assert np.all(kept.noise_asd(np.array([1.0, 30.0])) == small)

    def test_rss_combination(self, fpi, resonator):
        omega = np.logspace(-0.5, 0.5, 11) * resonator.omega0
        noisy = FpiReadout(fpi.cavity_length, fpi.wavelength,
                           fpi.tuning_range, fpi.finesse, readout_noise=1e3)
        thermal = fpi.output_spectrum(resonator, 0.0, omega=omega).values
        total = noisy.output_spectrum(resonator, 0.0, omega=omega).values
        assert np.allclose(total, np.sqrt(thermal ** 2 + 1e6), rtol=1e-12)

    def test_closed_loop_is_effective_susceptibility(self, fpi, resonator):
        # one closed-loop model: frequency-dependent loss, high gain
        res = MechanicalResonator(mass=resonator.mass, omega0=resonator.omega0,
                                  q_internal=resonator.q_internal,
                                  loss_exponent=-1.0)
        omega = np.logspace(-1, 1, 201) * res.omega0
        for g in (100.0, 1e4):
            rec = fpi.output_spectrum(res, g, omega=omega)
            expected = (fpi.displacement_to_frequency * res.mass
                        * np.abs(effective_susceptibility(res, g, omega))
                        * res.thermal_accel_asd(omega))
            np.testing.assert_allclose(rec.values, expected, rtol=1e-12)

    def test_acceleration_equivalent_both_readings(self, fpi, resonator):
        eq = fpi.acceleration_equivalent(resonator)
        assert eq["as_written_g"] == pytest.approx(7.770213129790779e-9, rel=1e-9)
        assert eq["dimensional"] == pytest.approx(2.2598284602046722e-6, rel=1e-9)


class TestHli:
    @pytest.mark.parametrize("asd", [math.inf, math.nan, 1e160, 1e-170])
    def test_imprecision_square_refused(self, asd):
        # the PSD, asd ** 2, must lie in (0, inf): 1e160 overflows, 1e-170
        # underflows to 0
        with pytest.raises(DomainError, match=r"^imprecision_asd "):
            HliReadout(wavelength=1064e-9, imprecision_asd=asd)

    def test_imprecision_psd_is_the_square(self, hli):
        assert hli.imprecision_psd == 5e-12 ** 2
        assert np.all(hli.imprecision_psd_at(np.array([1.0, 30.0]))
                      == hli.imprecision_psd)

    def test_white_noise_discretization(self, hli):
        # single-sided convention: sample variance = S * fs / 2
        fs = 1000.0
        sigma = math.sqrt(hli.imprecision_asd ** 2 * fs / 2)
        draws = stream_rng(77, 1).standard_normal(1_000_000) * sigma
        var = np.var(draws)
        assert var == pytest.approx(hli.imprecision_asd ** 2 * fs / 2, rel=0.05)

    def test_shaped_noise_matches_cooling(self, resonator):
        # noise temperature and closed-loop PSD read one S_n(omega0)
        w0 = resonator.omega0
        rec = SpectrumRecord(np.array([0.5, 0.9, 1.3, 2.0]) * w0,
                             np.array([4e-12, 1e-11, 2e-12, 5e-12]),
                             "asd", "m/rtHz")
        s_n = float(rec.to_psd().interp(w0))
        assert noise_temperature(resonator, rec) == pytest.approx(
            noise_temperature(resonator, s_n), rel=1e-12)
        cold = resonator.with_temperature(0.0)
        shaped = closed_loop_psd(CoolingSetup(cold, 10.0, rec), w0)
        flat = closed_loop_psd(CoolingSetup(cold, 10.0, s_n), w0)
        assert shaped == pytest.approx(flat, rel=1e-12)


class _Phasemeter:
    """Beat-note oracle: a streaming I/Q phasemeter (Heinzel et al., Class.
    Quantum Grav. 21, S581 (2004)).

    Demodulates at the heterodyne frequency, low-passes I and Q with the
    bilinear transform of wc/(s + wc), [b, b] / [1, -p], carrying the
    filters' state from chunk to chunk, and unwraps the four-quadrant angle
    across chunks. One instance per stream.
    """

    def __init__(self, f_het, corner, fs):
        k, wc = 2.0 * fs, TWO_PI * corner
        self.b, self.a = [wc / (k + wc)] * 2, [1.0, (wc - k) / (k + wc)]
        self.step = TWO_PI * f_het / fs  # local-oscillator phase per sample
        self.zi, self.n, self.tail = np.zeros((2, 1)), 0, np.empty(0)

    def process(self, samples):
        """Consume beat samples, return the unwrapped phase series, rad."""
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:  # lfilter would return an undefined zi
            return np.empty(0)
        lo = self.step * np.arange(self.n, self.n + samples.size)
        self.n += samples.size
        (i_f, q_f), self.zi = lfilter(
            self.b, self.a, [2.0 * samples * np.cos(lo),
                             -2.0 * samples * np.sin(lo)], zi=self.zi)
        phase = np.unwrap(np.concatenate((self.tail, np.arctan2(q_f, i_f))))
        self.tail = phase[-1:]
        return phase[phase.size - samples.size:]


class TestPhasemeter:
    FS = 20_000.0
    F_HET = 1000.0

    def _beat(self, phase, n):
        t = np.arange(n) / self.FS
        return np.cos(TWO_PI * self.F_HET * t + phase)

    def test_constant_phase_settles(self):
        # synthetic-signal round trip: offset recovered after the filter
        # transient (mean over a settled window)
        corner = 20.0
        tau = 1.0 / (TWO_PI * corner)
        n = int(30 * tau * self.FS)
        t = np.arange(n) / self.FS
        beat = np.cos(TWO_PI * self.F_HET * t + 0.7)
        phase = _Phasemeter(self.F_HET, corner, self.FS).process(beat)
        settled = phase[int(10 * tau * self.FS):]
        assert np.mean(settled) == pytest.approx(0.7, abs=1e-3)

    def test_zero_phase(self):
        corner = 20.0
        n = 40_000
        phase = _Phasemeter(self.F_HET, corner, self.FS).process(
            self._beat(0.0, n))
        assert abs(np.mean(phase[n // 2:])) < 1e-3

    def test_slow_ramp_slope(self):
        # synthetic ramp oracle: 0.1 Hz phase ramp through a 100 Hz corner
        corner = 100.0
        duration = 5.0
        n = int(duration * self.FS)
        t = np.arange(n) / self.FS
        ramp = TWO_PI * 0.1 * t
        beat = np.cos(TWO_PI * self.F_HET * t + ramp)
        phase = _Phasemeter(self.F_HET, corner, self.FS).process(beat)
        sel = t > 1.0
        slope = np.polyfit(t[sel], phase[sel], 1)[0]
        assert slope == pytest.approx(TWO_PI * 0.1, rel=5e-3)

    def test_amplitude_invariance(self):
        n = 10_000
        beat = self._beat(0.3, n)
        a = _Phasemeter(self.F_HET, 50.0, self.FS).process(beat)
        b = _Phasemeter(self.F_HET, 50.0, self.FS).process(7.5 * beat)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_unwrap_many_turns(self):
        # N full turns tracked to 1e-6 N (cycle-averaged endpoints)
        corner = 100.0
        slope_hz = 0.1
        n_turns = 20
        duration = n_turns / slope_hz + 2.0
        n = int(duration * self.FS)
        t = np.arange(n) / self.FS
        beat = np.cos(TWO_PI * self.F_HET * t + TWO_PI * slope_hz * t)
        phase = _Phasemeter(self.F_HET, corner, self.FS).process(beat)
        window = int(0.05 * self.FS)  # integer count of 2 f_het cycles
        i1 = int(1.0 * self.FS)
        i2 = i1 + int(n_turns / slope_hz * self.FS)
        lead = np.mean(phase[i1:i1 + window])
        tail = np.mean(phase[i2:i2 + window])
        assert tail - lead == pytest.approx(TWO_PI * n_turns,
                                            abs=1e-6 * n_turns)

    def test_streaming_matches_one_shot(self):
        n = 30_000
        beat = self._beat(1.1, n)
        whole = _Phasemeter(self.F_HET, 40.0, self.FS).process(beat)
        pm = _Phasemeter(self.F_HET, 40.0, self.FS)
        chunked = np.concatenate([pm.process(beat[:7000]),
                                  pm.process(beat[7000:])])
        assert np.allclose(whole, chunked, atol=1e-12)

    @pytest.mark.parametrize("cut", [0, 3001], ids=["first", "between"])
    def test_empty_chunk(self, cut):
        beat = self._beat(1.1, 10_000)
        whole = _Phasemeter(self.F_HET, 40.0, self.FS).process(beat)
        pm = _Phasemeter(self.F_HET, 40.0, self.FS)
        head = pm.process(beat[:cut])
        state = (pm.zi.copy(), pm.n, pm.tail.copy())
        empty = pm.process([])
        assert empty.shape == (0,)
        assert np.array_equal(pm.zi, state[0])
        assert pm.n == state[1]
        assert np.array_equal(pm.tail, state[2])
        chunked = np.concatenate([head, empty, pm.process(beat[cut:])])
        assert np.allclose(whole, chunked, atol=1e-12)

    def test_displacement_conversion(self):
        # phase = 2 pi x / wavelength, so x = phase * wavelength / 2 pi
        lam = 1064e-9
        n = 40_000
        phase = _Phasemeter(self.F_HET, 20.0, self.FS).process(
            self._beat(0.7, n))
        disp = phase * lam / TWO_PI
        assert np.mean(disp[n // 2:]) == pytest.approx(
            0.7 * lam / TWO_PI, rel=2e-3)

    def test_doppler_tracking_bound(self):
        """The HLI tracks x = a sin(omega0 t) while its peak Doppler shift
        a omega0 / wavelength stays below the beat frequency, so up to
        a_max = f_het wavelength / omega0 (358.8 um at 4.72 Hz), with the
        phase = 2 pi x / wavelength of a single pass; a double-pass reading
        4 pi x / wavelength would halve a_max."""
        fs, f_het, lam, omega0 = 100e3, 10e3, 1064e-9, TWO_PI * 4.72
        t = np.arange(int(fs)) / fs
        a_max = f_het * lam / omega0

        def error(a):  # after 50 ms, less its median offset, m
            x = a * np.sin(omega0 * t)
            beat = np.cos(TWO_PI * f_het * t + TWO_PI * x / lam)
            phase = _Phasemeter(f_het, 500.0, fs).process(beat)
            err = (phase * lam / TWO_PI - x)[int(0.05 * fs):]
            return err - np.median(err)

        inside = error(0.9 * a_max)  # every sample within half a fringe
        assert np.max(np.abs(inside)) <= min(2e-3 * 0.9 * a_max, lam / 2)
        beyond = error(1.1 * a_max)  # slips whole fringes
        assert np.max(np.abs(beyond)) >= 0.05 * 1.1 * a_max
        assert np.ptp(beyond) >= lam
