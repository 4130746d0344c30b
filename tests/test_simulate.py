import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from optocool import (ConfigError, CoolingSetup, DivergenceError, Eoam,
                      FeedbackChain, HliReadout, KB, SimConfig,
                      SpectrumRecord, closed_loop_variance,
                      monte_carlo_variance, preset_resonator, simulate,
                      steady_state_variance)

TWO_PI = 2 * math.pi


@pytest.fixture
def q100(resonator):
    return preset_resonator(resonator, 100.0)


def f0_of(res):
    return res.omega0 / TWO_PI


class TestReproducibility:
    def test_bit_exact_same_seed(self, q100):
        cfg = SimConfig(duration=30.0, seed=42)
        a = simulate(cfg, q100)
        b = simulate(cfg, q100)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.feedback_force, b.feedback_force)

    def test_seeds_differ(self, q100):
        a = simulate(SimConfig(duration=30.0, seed=1), q100)
        b = simulate(SimConfig(duration=30.0, seed=2), q100)
        assert not np.array_equal(a.x, b.x)

    def test_streams_independent(self, q100):
        # imprecision draws must not perturb the thermal stream
        hli = HliReadout(wavelength=1064e-9, imprecision_asd=1e-10)
        bare = simulate(SimConfig(duration=30.0, seed=3), q100)
        read = simulate(SimConfig(duration=30.0, seed=3), q100, hli=hli)
        assert np.array_equal(bare.x, read.x)
        assert not np.array_equal(read.y, read.x)

    def test_controller_off_ignores_chain(self, q100, chain):
        cfg = SimConfig(duration=30.0, seed=4)
        assert np.array_equal(simulate(cfg, q100).x,
                              simulate(cfg, q100, chain=chain).x)


class TestIntegrator:
    def test_energy_drift(self, resonator):
        # symplectic check: cycle-averaged energy, corrected for the
        # analytic damping factor, drifts less than 1e-4 over 1e5 steps
        res = preset_resonator(resonator, 1e5).with_temperature(0.0)
        f0 = f0_of(res)
        dt = 1.0 / (100 * f0)
        cfg = SimConfig(duration=1e5 * dt, dt=dt, x0=1e-6, seed=1)
        tr = simulate(cfg, res)
        v = np.gradient(tr.x, dt)
        energy = 0.5 * res.mass * (v ** 2 + res.omega0 ** 2 * tr.x ** 2)
        per = 100  # samples per period
        window = 20 * per
        e0 = energy[:window].mean()
        e1 = energy[-window:].mean()
        gamma = float(res.damping_rate(res.omega0))
        span = tr.t[-window // 2] - tr.t[window // 2]
        drift = abs(e1 * math.exp(gamma * span) - e0) / e0
        assert drift < 1e-4

    def test_ringdown_q_round_trip(self, q100):
        from optocool import fit_q_from_ringdown
        res = q100.with_temperature(0.0)
        cfg = SimConfig(duration=25.0, x0=1e-6, seed=1)
        tr = simulate(cfg, res)
        fit = fit_q_from_ringdown(tr.t, tr.x)
        assert fit.q == pytest.approx(100.0, rel=0.01)

    def test_resonance_suppression(self, q100):
        # driven on resonance, amplitude ratio (g=100)/(g=0) = 1/101
        res = q100.with_temperature(0.0)
        f0 = f0_of(res)

        def amp(g):
            cfg = SimConfig(duration=120.0, seed=2, external="sine",
                            ext_amplitude=1e-9, ext_frequency=f0,
                            controller="derivative" if g else "off", gain=g)
            tr = simulate(cfg, res)
            tail = tr.x[int(0.7 * tr.x.size):]
            return math.sqrt(2.0) * float(np.std(tail))

        assert amp(100.0) / amp(0.0) == pytest.approx(1.0 / 101.0, rel=0.03)

    def test_divergence_guard(self, q100):
        res = q100.with_temperature(0.0)
        n = int(30.0 * 100 * f0_of(res))
        cfg = SimConfig(duration=30.0, seed=1, external="samples",
                        ext_samples=np.full(n, 1.0))  # 1 N static shove
        with pytest.raises(DivergenceError, match="step"):
            simulate(cfg, res)

    def test_external_sine_present(self, q100):
        res = q100.with_temperature(0.0)
        cfg = SimConfig(duration=40.0, seed=1, external="sine",
                        ext_amplitude=1e-9, ext_frequency=f0_of(res))
        tr = simulate(cfg, res)
        assert float(np.max(np.abs(tr.x))) > 1e-10


class TestChainController:
    def _chain(self, res, g_target):
        eoam = Eoam(half_wave_voltage=200.0, max_power=0.02,
                    bias_angle=math.pi / 4, damage_threshold=10.0)
        chain = FeedbackChain(eoam, dac_gain=1.0, wavelength=1064e-9)
        per_dac = chain.gain_factor(res)
        return chain.with_dac_gain(g_target / per_dac)

    def test_matches_linearized_derivative(self, q100):
        # small-amplitude linearization validity: cos^2 modulator vs the
        # ideal derivative law at the chain's equivalent gain, same seed
        chain = self._chain(q100, 5.0)
        g_eq = chain.gain_factor(q100)
        common = dict(duration=300.0, seed=11, bandpass_quality=10.0)
        full = simulate(SimConfig(controller="chain", **common), q100,
                        chain=chain)
        lin = simulate(SimConfig(controller="derivative", gain=g_eq, **common),
                       q100)
        v_full = float(np.var(full.x[full.x.size // 2:]))
        v_lin = float(np.var(lin.x[lin.x.size // 2:]))
        assert v_full == pytest.approx(v_lin, rel=0.05)

    def test_power_trace_bounded(self, q100):
        chain = self._chain(q100, 5.0)
        tr = simulate(SimConfig(duration=60.0, seed=12, controller="chain"),
                      q100, chain=chain)
        assert tr.power is not None and tr.control_voltage is not None
        assert np.all(tr.power >= 0.0)
        assert np.all(tr.power <= chain.eoam.max_power * (1 + 1e-12))

    def test_chain_cools(self, q100):
        chain = self._chain(q100, 20.0)
        hot = simulate(SimConfig(duration=300.0, seed=13), q100)
        cool = simulate(SimConfig(duration=300.0, seed=13, controller="chain"),
                        q100, chain=chain)
        assert steady_state_variance(cool) < 0.3 * steady_state_variance(hot)

    def test_dac_quantization_toggle(self, q100):
        chain = self._chain(q100, 5.0)
        smooth = simulate(SimConfig(duration=60.0, seed=14, controller="chain"),
                          q100, chain=chain)
        coarse = simulate(SimConfig(duration=60.0, seed=14, controller="chain",
                                    dac_bits=8), q100, chain=chain)
        lsb = chain.eoam.half_wave_voltage / 2 ** 8
        steps = coarse.control_voltage / lsb
        assert np.allclose(steps, np.round(steps), atol=1e-9)
        assert not np.array_equal(smooth.control_voltage,
                                  coarse.control_voltage)

    def test_chain_requires_chain(self, q100):
        with pytest.raises(ConfigError):
            simulate(SimConfig(duration=30.0, controller="chain"), q100)


class TestControllerOracle:
    """The controller rebuilt from the recorded y: the velocity estimate
    (y_i - y_{i-2}) / 2dt with y_{-1} = y_{-2} = y_0, the RBJ
    constant-peak-gain bandpass run by lfilter, and one sample of latency."""

    HLI = HliReadout(wavelength=1064e-9, imprecision_asd=1e-12)

    def _velocity(self, tr, res):
        dt = tr.t[1]
        w = res.omega0 * dt
        alpha = math.sin(w) / (2.0 * tr.config.bandpass_quality)
        b = np.array([alpha, 0.0, -alpha])
        a = np.array([1.0 + alpha, -2.0 * math.cos(w), 1.0 - alpha])
        y_before = np.concatenate((tr.y[:1], tr.y[:1], tr.y[:-2]))
        return lfilter(b, a, (tr.y - y_before) / (2.0 * dt))

    @staticmethod
    def _assert_matches(actual, oracle):
        # rounding differs near zero crossings, so scale to the peak value
        np.testing.assert_allclose(actual, oracle, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(oracle)))

    def test_derivative_force(self, q100):
        cfg = SimConfig(duration=60.0, seed=21, controller="derivative",
                        gain=8.0, bandpass_quality=3.0)
        tr = simulate(cfg, q100, hli=self.HLI)
        gamma = float(q100.damping_rate(q100.omega0))
        expected = -q100.mass * cfg.gain * gamma * self._velocity(tr, q100)
        assert tr.feedback_force[0] == 0.0
        self._assert_matches(tr.feedback_force[1:], expected[:-1])

    def test_chain_voltage(self, q100):
        chain = TestChainController()._chain(q100, 5.0)
        cfg = SimConfig(duration=60.0, seed=22, controller="chain")
        tr = simulate(cfg, q100, chain=chain, hli=self.HLI)
        per_velocity = chain.dac_gain * TWO_PI / chain.wavelength / q100.omega0
        self._assert_matches(tr.control_voltage,
                             per_velocity * self._velocity(tr, q100))

    def test_quantized_chain_voltage(self, q100):
        # a DAC gain large enough that the voltages span many LSBs
        chain = TestChainController()._chain(q100, 150.0)
        cfg = SimConfig(duration=60.0, seed=23, controller="chain", dac_bits=8)
        tr = simulate(cfg, q100, chain=chain, hli=self.HLI)
        lsb = chain.eoam.half_wave_voltage / 2 ** 8
        per_velocity = chain.dac_gain * TWO_PI / chain.wavelength / q100.omega0
        oracle = per_velocity * self._velocity(tr, q100)
        steps = tr.control_voltage / lsb
        assert np.max(np.abs(steps)) > 10.0
        assert np.allclose(steps, np.round(steps), rtol=0, atol=1e-9)
        assert np.all(np.abs(tr.control_voltage - oracle) <= 0.5 * lsb * (1 + 1e-9))


class TestValidation:
    def test_dt_too_coarse(self, q100):
        cfg = SimConfig(duration=100.0, dt=1.0)
        with pytest.raises(ConfigError, match="undersamples"):
            simulate(cfg, q100)

    def test_duration_too_short(self, q100):
        f0 = f0_of(q100)
        cfg = SimConfig(duration=0.05, dt=1.0 / (100 * f0))
        with pytest.raises(ConfigError, match="100 steps"):
            simulate(cfg, q100)

    def test_samples_too_short(self, q100):
        cfg = SimConfig(duration=30.0, external="samples",
                        ext_samples=np.zeros(10))
        with pytest.raises(ConfigError, match="samples"):
            simulate(cfg, q100)

    def test_shaped_imprecision_rejected(self, q100):
        rec = SpectrumRecord(np.array([1.0, 10.0]), np.array([1e-12, 1e-12]),
                             "asd", "m/rtHz")
        hli = HliReadout(wavelength=1064e-9, imprecision_asd=rec)
        with pytest.raises(ConfigError, match="flat"):
            simulate(SimConfig(duration=30.0), q100, hli=hli)

    def test_bad_modes_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(duration=1.0, external="wind")
        with pytest.raises(ConfigError):
            SimConfig(duration=1.0, controller="pid")
        with pytest.raises(ConfigError):
            SimConfig(duration=1.0, external="samples")
        with pytest.raises(ConfigError):
            SimConfig(duration=1.0, controller="derivative", gain=math.nan)


class TestMonteCarlo:
    def test_equipartition_open_loop(self, q100):
        gamma = float(q100.damping_rate(q100.omega0))
        cfg = SimConfig(duration=200.0 / gamma, seed=100)
        mc = monte_carlo_variance(cfg, q100, 20)
        expected = KB * q100.temperature / (q100.mass * q100.omega0 ** 2)
        assert mc.mean == pytest.approx(expected, rel=0.10)
        assert mc.stationary

    def test_thermal_scaling_linear(self, q100):
        gamma = float(q100.damping_rate(q100.omega0))
        cfg = SimConfig(duration=200.0 / gamma, seed=200)
        means, cis = {}, {}
        for temp in (75.0, 150.0, 300.0):
            mc = monte_carlo_variance(cfg, q100.with_temperature(temp), 10)
            means[temp], cis[temp] = mc.mean, mc.ci_halfwidth
        for temp in (75.0, 150.0):
            scaled = means[300.0] * temp / 300.0
            tol = cis[temp] + cis[300.0] * temp / 300.0
            assert abs(means[temp] - scaled) <= tol

    def test_closed_loop_matches_band_integral(self, q100):
        # cooling-analysis oracle at the preset's optimal gain
        gamma = float(q100.damping_rate(q100.omega0))
        x_th0 = KB * q100.temperature / (q100.mass * q100.omega0 ** 2)
        g_opt = 15.0
        s_n = 4 * x_th0 / (gamma * g_opt ** 2)
        hli = HliReadout(wavelength=1064e-9, imprecision_asd=math.sqrt(s_n))
        f0 = f0_of(q100)
        cfg = SimConfig(duration=400.0 / ((1 + g_opt) * gamma),
                        dt=1.0 / (200 * f0), seed=300,
                        controller="derivative", gain=g_opt,
                        bandpass_quality=0.3)
        mc = monte_carlo_variance(cfg, q100, 20, hli=hli)
        ref = closed_loop_variance(
            CoolingSetup(q100, g_opt, imprecision_psd=s_n)).numeric.variance
        assert mc.mean == pytest.approx(ref, rel=0.10)

    def test_ci_shrinks_with_duration(self, q100):
        gamma = float(q100.damping_rate(q100.omega0))
        base = SimConfig(duration=100.0 / gamma, seed=500)
        long = replace(base, duration=200.0 / gamma)
        ci_short = monte_carlo_variance(base, q100, 16).ci_halfwidth
        ci_long = monte_carlo_variance(long, q100, 16).ci_halfwidth
        assert ci_short / ci_long == pytest.approx(math.sqrt(2.0), rel=0.30)

    def test_bandpass_quality_sensitivity_report(self, q100, capsys):
        # the velocity-filter quality is a free loop parameter; its effect
        # on the closed-loop variance is reported, only sanity-bounded
        gamma = float(q100.damping_rate(q100.omega0))
        g = 10.0
        ref = closed_loop_variance(
            CoolingSetup(q100, g, imprecision_psd=0.0)).numeric.variance
        with capsys.disabled():
            print("\nbandpass quality sensitivity (g = 10, thermal only):")
            for bpq in (0.3, 1.0, 3.0, 10.0):
                cfg = SimConfig(duration=200.0 / ((1 + g) * gamma), seed=4200,
                                controller="derivative", gain=g,
                                bandpass_quality=bpq)
                mc = monte_carlo_variance(cfg, q100, 10)
                ratio = mc.mean / ref
                print(f"  quality {bpq:5.1f}: variance/band-integral = {ratio:.3f}")
                assert 0.5 < ratio < 2.0

    def test_too_few_seeds(self, q100):
        with pytest.raises(ConfigError):
            monte_carlo_variance(SimConfig(duration=700.0), q100, 5)

    def test_duration_guard(self, q100):
        with pytest.raises(ConfigError, match="stationarity"):
            monte_carlo_variance(SimConfig(duration=10.0), q100, 10)
