import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import welch

from optocool import ConfigError, SimConfig, estimate_psd, preset_resonator, simulate
from optocool import psd
from optocool.cooling import effective_susceptibility
from optocool.psd import LiftedSystem
from optocool.simulate import _linear_step, stream_rng

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
        with pytest.raises(ConfigError):
            estimate_psd(np.zeros(100), 100.0, 64)

    def test_bad_overlap(self):
        with pytest.raises(ConfigError):
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


def _stepped_response(a, b, c, z0, w):
    """Oracle: C z_1 .. C z_N of z_{i+1} = A z_i + B w_{i+1}, one step at a
    time."""
    z = np.array(z0, dtype=float)
    rows = []
    for w_i in np.asarray(w).T:
        z = a @ z + b @ w_i
        rows.append(c @ z)
    return np.array(rows).reshape(-1, c.shape[0])


def _derivative_loop(resonator):
    """The damped 8-state derivative loop (g = 15) of the q100 preset,
    read out as (x, F), from its state after the warm-up step."""
    res = preset_resonator(resonator, 100.0)
    cfg = SimConfig(duration=10.0, x0=2e-9, controller="derivative",
                    gain=15.0, bandpass_quality=0.3)
    gamma = float(res.damping_rate(res.omega0))
    a, b, z0 = _linear_step(res, cfg, cfg.resolve_dt(res),
                            -res.mass * cfg.gain * gamma, (1e-9, 1e-9), 0.0)
    return a, b, np.eye(8)[[0, 6]], z0


def _rotation():
    """Lossless rotation by 2 pi / 100 per step: |eigenvalues| = 1."""
    theta = TWO_PI / 100.0
    a = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    return (a, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]),
            np.array([1.0, 0.0]))


def _two_by_two():
    """A stable 3-state system with two inputs and two outputs."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    return (a, rng.standard_normal((3, 2)), rng.standard_normal((2, 3)),
            rng.standard_normal(3))


class TestLiftedResponse:
    """`LiftedSystem` against the per-step recursion."""

    L = psd._BLOCK
    LENGTHS = [1, L - 1, L, L + 1, L * psd._STACK + 1,
               3 * L * psd._STACK - 7]  # 24 blocks: not a power of two

    def _assert_agrees(self, system, n, lifted=None):
        a, b, c, z0 = system
        w = stream_rng(0, 0).standard_normal((b.shape[1], n))
        got = (lifted or LiftedSystem(a, b, c)).response(z0, tuple(w))
        ref = _stepped_response(a, b, c, z0, w)
        assert got.shape == (n, c.shape[0])
        for col in range(c.shape[0]):
            rms = math.sqrt(float(np.mean(ref[:, col] ** 2)))
            assert np.max(np.abs(got[:, col] - ref[:, col])) <= 1e-10 * rms

    @pytest.mark.parametrize("n", LENGTHS)
    def test_damped_loop(self, resonator, n):
        self._assert_agrees(_derivative_loop(resonator), n)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_marginal_rotation(self, n):
        self._assert_agrees(_rotation(), n)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_two_inputs_two_outputs(self, n):
        self._assert_agrees(_two_by_two(), n)

    def test_scan_in_chunks(self, monkeypatch):
        # scan products of 3 columns: the chunks of each pass overlap the
        # columns they read
        a, b, c, z0 = _two_by_two()
        monkeypatch.setattr(psd, "_SERIAL_MNK", 3 * a.size)
        self._assert_agrees((a, b, c, z0), 5 * self.L * psd._STACK + 3)

    def test_one_instance_across_lengths(self, resonator):
        # 8 blocks take 3 scan passes and 24 take 5: the longer run squares
        # two more A^(L 2^k) onto the kept list, the short one after it
        # reads only the first three
        system = _derivative_loop(resonator)
        lifted = LiftedSystem(*system[:3])
        for n, passes in [(self.L + 1, 3), (3 * self.L * psd._STACK - 7, 5),
                          (self.L + 1, 5)]:
            self._assert_agrees(system, n, lifted)
            assert len(lifted._jumps) == passes

    def test_empty_series(self, resonator):
        a, b, c, z0 = _derivative_loop(resonator)
        out = LiftedSystem(a, b, c).response(z0, (np.empty(0), np.empty(0)))
        assert out.shape == (0, 2)
