import math

import numpy as np
import pytest

from optocool import (ConfigError, CoolingSetup, DomainError, FpiReadout,
                      HliReadout, MechanicalResonator, Phasemeter, RangeError,
                      SpectrumRecord, closed_loop_psd,
                      effective_susceptibility, noise_temperature,
                      phasemeter_extract)
from optocool.simulate import stream_rng

TWO_PI = 2 * math.pi


class TestFpiConversion:
    def test_zero_displacement(self, fpi):
        assert fpi.freq_from_displacement(0.0) == 0.0

    def test_one_nanometer(self, fpi):
        # direct evaluation oracle: x c / (wavelength * cavity length)
        assert fpi.freq_from_displacement(1e-9) == pytest.approx(
            5.635196578947368e6, rel=1e-12)

    def test_linearity(self, fpi):
        x = 3.7e-10
        assert fpi.freq_from_displacement(2 * x) == pytest.approx(
            2 * fpi.freq_from_displacement(x), rel=0, abs=0)

    def test_round_trip(self, fpi):
        x = 8.13e-8
        nu = fpi.freq_from_displacement(x)
        assert nu / fpi.displacement_to_frequency == pytest.approx(x, rel=1e-12)

    def test_out_of_range(self, fpi):
        with pytest.raises(RangeError, match="dynamic range"):
            fpi.freq_from_displacement(2e-6)


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
                    * np.abs(resonator.acceleration_transfer(omega))
                    * resonator.thermal_accel_asd(omega))
        assert np.allclose(rec.values, expected, rtol=1e-9)

    def test_gain_suppresses_resonance(self, fpi, resonator):
        w0 = np.array([resonator.omega0])
        open_loop = fpi.output_spectrum(resonator, 0.0, omega=w0).values[0]
        g = 100.0
        closed = fpi.output_spectrum(resonator, g, omega=w0).values[0]
        assert closed == pytest.approx(open_loop / (1.0 + g), rel=1e-9)

    def test_external_off_resonance(self, fpi, resonator):
        # analytic oracle: flat 1e-9 m s^-2/rtHz at 2 w0 through 1/(3 w0^2)
        omega = np.array([2 * resonator.omega0])
        ext = SpectrumRecord(np.array([0.1, 100.0]) * resonator.omega0,
                             np.array([1e-9, 1e-9]), "asd", "m s^-2/rtHz")
        cold = resonator.with_temperature(0.0)
        rec = fpi.output_spectrum(cold, 0.0, omega=omega, external_accel=ext)
        assert rec.values[0] == pytest.approx(2135.7188556187457, rel=1e-2)

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
    def test_white_noise_discretization(self, hli):
        # single-sided convention: sample variance = S * fs / 2
        fs = 1000.0
        sigma = math.sqrt(hli.imprecision_asd ** 2 * fs / 2)
        draws = stream_rng(77, 1).standard_normal(1_000_000) * sigma
        var = np.var(draws)
        assert var == pytest.approx(hli.imprecision_asd ** 2 * fs / 2, rel=0.05)

    def test_shaped_noise_lookup(self):
        rec = SpectrumRecord(np.array([1.0, 100.0]), np.array([1e-12, 3e-12]),
                             "asd", "m/rtHz")
        hli = HliReadout(wavelength=1064e-9, imprecision_asd=rec)
        assert hli.imprecision_psd_at(1.0) == pytest.approx(1e-24)

    def test_non_finite_record_refused(self):
        omega = np.array([1.0, 100.0])
        nan_rec = SpectrumRecord(omega, np.array([math.nan, 3e-12]),
                                 "asd", "m/rtHz")
        with pytest.raises(DomainError):
            HliReadout(wavelength=1064e-9, imprecision_asd=nan_rec)
        inf_rec = SpectrumRecord(omega, np.array([math.inf, 3e-12]),
                                 "asd", "m/rtHz")
        hli = HliReadout(wavelength=1064e-9, imprecision_asd=inf_rec)
        with pytest.raises(DomainError, match="imprecision_asd"):
            hli.imprecision_psd_at(1.0)

    def test_shaped_noise_matches_cooling(self, resonator):
        # readout, noise temperature and closed-loop PSD read one S_n(omega0)
        w0 = resonator.omega0
        rec = SpectrumRecord(np.array([0.5, 0.9, 1.3, 2.0]) * w0,
                             np.array([4e-12, 1e-11, 2e-12, 5e-12]),
                             "asd", "m/rtHz")
        s_n = float(HliReadout(wavelength=1064e-9,
                               imprecision_asd=rec).imprecision_psd_at(w0))
        assert noise_temperature(resonator, rec) == pytest.approx(
            noise_temperature(resonator, s_n), rel=1e-12)
        cold = resonator.with_temperature(0.0)
        shaped = closed_loop_psd(CoolingSetup(cold, 10.0, rec), w0)
        flat = closed_loop_psd(CoolingSetup(cold, 10.0, s_n), w0)
        assert shaped == pytest.approx(flat, rel=1e-12)


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
        phase = phasemeter_extract(beat, self.FS, self.F_HET, corner)
        settled = phase[int(10 * tau * self.FS):]
        assert np.mean(settled) == pytest.approx(0.7, abs=1e-3)

    def test_zero_phase(self):
        corner = 20.0
        n = 40_000
        phase = phasemeter_extract(self._beat(0.0, n), self.FS,
                                   self.F_HET, corner)
        assert abs(np.mean(phase[n // 2:])) < 1e-3

    def test_slow_ramp_slope(self):
        # synthetic ramp oracle: 0.1 Hz phase ramp through a 100 Hz corner
        corner = 100.0
        duration = 5.0
        n = int(duration * self.FS)
        t = np.arange(n) / self.FS
        ramp = TWO_PI * 0.1 * t
        beat = np.cos(TWO_PI * self.F_HET * t + ramp)
        phase = phasemeter_extract(beat, self.FS, self.F_HET, corner)
        sel = t > 1.0
        slope = np.polyfit(t[sel], phase[sel], 1)[0]
        assert slope == pytest.approx(TWO_PI * 0.1, rel=5e-3)

    def test_amplitude_invariance(self):
        n = 10_000
        beat = self._beat(0.3, n)
        a = phasemeter_extract(beat, self.FS, self.F_HET, 50.0)
        b = phasemeter_extract(7.5 * beat, self.FS, self.F_HET, 50.0)
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
        phase = phasemeter_extract(beat, self.FS, self.F_HET, corner)
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
        whole = phasemeter_extract(beat, self.FS, self.F_HET, 40.0)
        pm = Phasemeter(self.F_HET, 40.0, self.FS)
        chunked = np.concatenate([pm.process(beat[:7000]),
                                  pm.process(beat[7000:])])
        assert np.allclose(whole, chunked, atol=1e-12)

    def test_nyquist_precondition(self):
        with pytest.raises(ConfigError):
            Phasemeter(heterodyne_frequency=6000.0, lpf_corner=10.0,
                       sample_rate=self.FS)
        with pytest.raises(ConfigError):
            Phasemeter(heterodyne_frequency=self.F_HET, lpf_corner=600.0,
                       sample_rate=self.FS)

    @pytest.mark.parametrize("f_het, corner, fs", [
        (1e4, -10.0, 1e5), (1e4, 0.0, 1e5), (1e4, math.nan, 1e5),
        (1e4, 10.0, math.nan), (math.nan, 10.0, 1e5)])
    def test_bad_filter_rejected(self, f_het, corner, fs):
        with pytest.raises(ConfigError):
            Phasemeter(f_het, corner, fs)

    def test_displacement_conversion(self):
        lam = 1064e-9
        pm = Phasemeter(self.F_HET, 20.0, self.FS, wavelength=lam)
        n = 40_000
        disp = pm.displacement(self._beat(0.7, n))
        assert np.mean(disp[n // 2:]) == pytest.approx(
            0.7 * lam / TWO_PI, rel=2e-3)

    def test_phase_from_csv(self, tmp_path):
        from optocool import phase_from_csv
        n = 40_000
        t = np.arange(n) / self.FS
        beat = np.cos(TWO_PI * self.F_HET * t + 0.3)
        path = tmp_path / "beat.csv"
        path.write_text("t_s,value\n" + "".join(
            f"{float(ti)!r},{float(vi)!r}\n" for ti, vi in zip(t, beat)))
        t_out, phase = phase_from_csv(path, self.F_HET, 20.0)
        assert t_out.size == n
        assert np.mean(phase[n // 2:]) == pytest.approx(0.3, abs=1e-3)
