import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import welch

from optocool import DomainError, SimConfig, estimate_psd, preset_resonator, simulate
from optocool.cooling import effective_susceptibility
from optocool.simulate import stream_rng

TWO_PI = 2 * math.pi


class TestWhiteNoise:
    def test_flat_level(self):
        # unit-variance white noise has single-sided PSD 2/fs
        fs = 1000.0
        x = stream_rng(123, 0).standard_normal(200 * 1024)
        rec = estimate_psd(x, fs, 2048, overlap=0.0)
        assert float(np.median(rec.values)) == pytest.approx(2.0 / fs, rel=0.1)
        assert rec.meta["segments"] == 100

    def test_parseval(self):
        fs = 1000.0
        x = stream_rng(7, 0).standard_normal(100_000)
        rec = estimate_psd(x, fs, 4096)
        assert rec.meta["parseval_ratio"] == pytest.approx(1.0, rel=0.05)


class TestTone:
    def test_integrated_peak_power(self):
        fs = 1000.0
        amp = 3.7e-5
        f_tone = 123.4
        t = np.arange(300_000) / fs
        x = amp * np.sin(TWO_PI * f_tone * t)
        rec = estimate_psd(x, fs, 8192)
        freqs = rec.freq_hz
        df = freqs[1] - freqs[0]
        sel = np.abs(freqs - f_tone) < 6 * df
        peak_power = float(np.sum(rec.values[sel]) * df)
        assert peak_power == pytest.approx(amp ** 2 / 2, rel=0.02)


class TestThermalClosure:
    def test_open_loop_psd_matches_susceptibility(self, resonator):
        # median over 20 seeds against |chi_m|^2 S_FF in omega0 +- 10 gamma
        res = preset_resonator(resonator, 100.0)
        gamma = float(res.damping_rate(res.omega0))
        f0 = res.omega0 / TWO_PI
        psds = []
        for seed in range(20):
            cfg = SimConfig(duration=170.0, dt=1.0 / (100 * f0),
                            seed=9000 + seed)
            trace = simulate(cfg, res)
            rec = estimate_psd(trace.x, 100 * f0, 2 ** 14, unit="m^2/Hz")
            psds.append(rec.values)
        median_psd = np.median(np.asarray(psds), axis=0)
        omega = rec.omega
        band = (omega > res.omega0 - 10 * gamma) & (omega < res.omega0 + 10 * gamma)
        chi_m = effective_susceptibility(res, 0.0, omega[band])
        analytic = np.abs(chi_m) ** 2 * res.thermal_force_psd(omega[band])
        ratio = median_psd[band] / analytic
        assert float(np.median(ratio)) == pytest.approx(1.0, abs=0.15)
        integrated = (np.trapezoid(median_psd[band], omega[band])
                      / np.trapezoid(analytic, omega[band]))
        assert integrated == pytest.approx(1.0, abs=0.15)


class TestValidation:
    def test_too_short_series(self):
        with pytest.raises(DomainError):
            estimate_psd(np.zeros(100), 100.0, 64)

    def test_bad_overlap(self):
        with pytest.raises(DomainError):
            estimate_psd(np.zeros(1000), 100.0, 128, overlap=1.0)

    def test_record_shape(self):
        rec = estimate_psd(stream_rng(1, 0).standard_normal(4096), 50.0, 512)
        assert rec.kind == "psd"
        assert np.all(rec.omega > 0.0)
        assert rec.unit == "1/Hz"


class TestWelchOracle:
    """The NumPy Welch estimate against scipy.signal.welch."""

    @settings(max_examples=60, deadline=None)
    @given(segment=st.integers(2, 300), extra=st.integers(0, 3000),
           overlap=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy(self, segment, extra, overlap, seed):
        fs = 37.5
        x = stream_rng(seed, 0).standard_normal(2 * segment + extra)
        rec = estimate_psd(x, fs, segment, overlap=overlap)
        freqs, pxx = welch(x, fs=fs, window="hann", nperseg=segment,
                           noverlap=int(overlap * segment), detrend=False,
                           scaling="density")
        assert np.array_equal(rec.omega, TWO_PI * freqs[1:])
        assert np.max(np.abs(rec.values - pxx[1:])) <= 1e-13 * np.max(pxx)
        step = segment - int(overlap * segment)
        assert rec.meta["segments"] == 1 + (x.size - segment) // step

