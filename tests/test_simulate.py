import copy
import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from optocool import (ConfigError, CoolingSetup, DivergenceError, DomainError,
                      Eoam, FeedbackChain, HliReadout, KB, MechanicalResonator,
                      SimConfig, closed_loop_variance,
                      monte_carlo_variance, preset_resonator, simulate,
                      steady_state_variance)
from optocool.simulate import (LiftedSystem, _chain_map, _linear_step,
                               _spectral_radius, stream_rng)

# the module: the package's ``simulate`` attribute is the function
simulate_module = importlib.import_module("optocool.simulate")

TWO_PI = 2 * math.pi


@pytest.fixture
def q100(resonator):
    return preset_resonator(resonator, 100.0)


def f0_of(res):
    return res.omega0 / TWO_PI


def sine_samples(amplitude, frequency, dt, n):
    """A sine drive as the force series ``ext_samples``, N."""
    return amplitude * np.sin(TWO_PI * frequency * (dt * np.arange(n)))


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
        dt = SimConfig(duration=120.0).resolve_dt(res)
        drive = sine_samples(1e-9, f0, dt, int(round(120.0 / dt)))

        def amp(g):
            cfg = SimConfig(duration=120.0, seed=2, ext_samples=drive,
                            controller="derivative" if g else "off", gain=g)
            tr = simulate(cfg, res)
            tail = tr.x[int(0.7 * tr.x.size):]
            return math.sqrt(2.0) * float(np.std(tail))

        assert amp(100.0) / amp(0.0) == pytest.approx(1.0 / 101.0, rel=0.03)

    def test_divergence_guard(self, q100):
        res = q100.with_temperature(0.0)
        n = int(30.0 * 100 * f0_of(res))
        cfg = SimConfig(duration=30.0, seed=1,
                        ext_samples=np.full(n, 1.0))  # 1 N static shove
        with pytest.raises(DivergenceError, match="step"):
            simulate(cfg, res)

    def test_external_sine_present(self, q100):
        res = q100.with_temperature(0.0)
        dt = SimConfig(duration=40.0).resolve_dt(res)
        cfg = SimConfig(duration=40.0, seed=1, ext_samples=sine_samples(
            1e-9, f0_of(res), dt, int(round(40.0 / dt))))
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


class TestRelaxedChain:
    """The smooth chain loop by waveform relaxation against the stepped
    `_chain_loop`, which simulate runs where the relaxation does not
    apply."""

    HLI = HliReadout(wavelength=1064e-9, imprecision_asd=1e-12)

    @staticmethod
    def _run(cfg, res, chain, hli, relax):
        """simulate with `_relaxed_chain` replaced by ``relax``."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate_module, "_relaxed_chain", relax)
            return simulate(cfg, res, chain=chain, hli=hli)

    @staticmethod
    def _spy(relaxed):
        """`_relaxed_chain`, appending to ``relaxed`` whether it ran."""
        relax = simulate_module._relaxed_chain

        def spy(*args):
            out = relax(*args)
            relaxed.append(out is not None)
            return out
        return spy

    def _runs(self, cfg, res, chain, hli):
        """simulate's trace, whether it relaxed, and the stepped trace."""
        relaxed = []
        trace = self._run(cfg, res, chain, hli, self._spy(relaxed))
        stepped = self._run(cfg, res, chain, hli, lambda *args: None)
        return trace, relaxed == [True], stepped

    @staticmethod
    def _fields(trace):
        return (trace.x, trace.feedback_force, trace.control_voltage,
                trace.power)

    def _assert_agrees(self, trace, stepped, rel):
        for got, ref in zip(self._fields(trace), self._fields(stepped)):
            rms = math.sqrt(float(np.mean(ref ** 2)))
            assert np.max(np.abs(got - ref)) <= rel * rms

    def _assert_identical(self, trace, stepped):
        for got, ref in zip(self._fields(trace), self._fields(stepped)):
            assert np.array_equal(got, ref)

    @staticmethod
    def _cfg(res, per_period, **kwargs):
        return SimConfig(duration=20.0, dt=1.0 / (per_period * f0_of(res)),
                         controller="chain", **kwargs)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("per_period", [100, 200])
    @pytest.mark.parametrize("quality", [0.3, 10.0])
    @pytest.mark.parametrize("gain", [5.0, 20.0, 150.0])
    def test_matches_stepped_loop(self, q100, gain, quality, per_period,
                                  noisy):
        chain = TestChainController()._chain(q100, gain)
        cfg = self._cfg(q100, per_period, seed=51, bandpass_quality=quality)
        trace, relaxed, stepped = self._runs(cfg, q100, chain,
                                             self.HLI if noisy else None)
        # at g = 150 and Q_bp = 0.3 the imprecision drives the modulator
        # past its linear range, and the passes stop shrinking
        assert relaxed == (not (gain == 150.0 and quality == 0.3 and noisy))
        self._assert_agrees(trace, stepped, 1e-10)

    @settings(max_examples=30, deadline=None)
    @given(gain=st.floats(0.5, 300.0), quality=st.floats(0.2, 20.0))
    def test_matches_stepped_loop_any_gain(self, gain, quality):
        res = preset_resonator(MechanicalResonator(
            mass=2.6e-3, omega0=TWO_PI * 4.72, q_internal=4.77e5,
            temperature=300.0), 100.0)
        chain = TestChainController()._chain(res, gain)
        cfg = self._cfg(res, 100, seed=52, bandpass_quality=quality)
        trace, _, stepped = self._runs(cfg, res, chain, self.HLI)
        self._assert_agrees(trace, stepped, 1e-10)

    @pytest.mark.parametrize("bits", [8, 16])
    def test_quantised_dac_is_stepped(self, q100, bits):
        chain = TestChainController()._chain(q100, 20.0)
        cfg = self._cfg(q100, 100, seed=53, dac_bits=bits)
        trace, relaxed, stepped = self._runs(cfg, q100, chain, self.HLI)
        assert not relaxed
        self._assert_identical(trace, stepped)

    @staticmethod
    def _radius(res, cfg, chain):
        """Spectral radius of the loop linearised at the modulator's bias."""
        volt_per_velocity, *_, rp = _chain_map(res, chain)
        slope = -rp * chain.eoam.gain() * volt_per_velocity
        a, _, _ = _linear_step(res, cfg, cfg.resolve_dt(res), slope,
                               (0.0, 0.0))
        return _spectral_radius(a)

    def test_unstable_linear_loop_is_stepped(self, q100):
        # the derivative loop at this gain is refused; the chain's cos^2
        # bounds its force, so it runs
        chain = TestChainController()._chain(q100, 2000.0)
        cfg = self._cfg(q100, 100, seed=54, bandpass_quality=0.3)
        assert self._radius(q100, cfg, chain) >= 1.0
        trace, relaxed, stepped = self._runs(cfg, q100, chain, self.HLI)
        assert not relaxed
        self._assert_identical(trace, stepped)

    @pytest.mark.parametrize("gain, x0", [(150.0, 1e-6), (1000.0, 0.0)])
    def test_stalled_passes_are_stepped(self, q100, gain, x0):
        chain = TestChainController()._chain(q100, gain)
        cfg = self._cfg(q100, 100, seed=55, x0=x0)
        assert self._radius(q100, cfg, chain) < 1.0
        trace, relaxed, stepped = self._runs(cfg, q100, chain, self.HLI)
        assert not relaxed
        self._assert_identical(trace, stepped)

    def _shoved(self, res):
        """A run with a 1 N shove from mid-run, and its step count."""
        cfg = self._cfg(res, 100, seed=56)
        n = int(round(cfg.duration / cfg.resolve_dt(res)))
        shove = np.zeros(n)
        shove[n // 2:] = 1.0
        return replace(cfg, ext_samples=shove), n

    # the shove: at g = 20 it drives the modulator far past its linear
    # range and the passes stop shrinking; at g = 1e-3 they settle, and the
    # relaxed trace crosses the bound
    @pytest.mark.parametrize("gain, relaxes", [(20.0, False), (1e-3, True)])
    def test_divergence_names_the_stepped_step(self, q100, gain, relaxes):
        chain = TestChainController()._chain(q100, gain)
        cfg, n = self._shoved(q100)
        relaxed = []
        with pytest.raises(DivergenceError) as got:
            self._run(cfg, q100, chain, None, self._spy(relaxed))
        with pytest.raises(DivergenceError) as stepped:
            self._run(cfg, q100, chain, None, lambda *args: None)
        assert relaxed == [relaxes]
        assert str(got.value) == str(stepped.value)
        assert str(got.value).endswith(f"at step {n // 2}")

    def test_slow_passes_fall_back_early(self, q100, monkeypatch):
        # at g = 1 the shove's updates shrink by 0.07-0.4 a pass: too slowly
        # to settle in the passes left, which the second pass shows
        passes = []

        class Counted(LiftedSystem):
            def response(self, z0, w):
                passes.append(1)
                return super().response(z0, w)

        monkeypatch.setattr(simulate_module, "LiftedSystem", Counted)
        chain = TestChainController()._chain(q100, 1.0)
        relaxed = []
        with pytest.raises(DivergenceError):
            self._run(self._shoved(q100)[0], q100, chain, None,
                      self._spy(relaxed))
        assert relaxed == [False]
        assert 1 <= sum(passes) <= 3

    @pytest.mark.parametrize("controller", ["off", "derivative", "chain"])
    def test_one_lifted_system_per_run(self, q100, monkeypatch, controller):
        built = []

        class Counted(LiftedSystem):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(simulate_module, "LiftedSystem", Counted)
        chain = TestChainController()._chain(q100, 20.0)
        cfg = replace(self._cfg(q100, 100, seed=57), controller=controller,
                      gain=15.0)
        relaxed = []
        self._run(cfg, q100, chain, self.HLI, self._spy(relaxed))
        assert relaxed == ([True] if controller == "chain" else [])
        assert len(built) == 1


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
        cfg = SimConfig(duration=30.0, ext_samples=np.zeros(10))
        with pytest.raises(ConfigError, match="samples"):
            simulate(cfg, q100)

    @pytest.mark.parametrize("quality", [0.0, -1.0, math.inf, math.nan])
    def test_bad_bandpass_quality_refused(self, quality):
        # an infinite quality would zero the bandpass and switch feedback off
        with pytest.raises(DomainError, match="bandpass_quality must be"):
            SimConfig(duration=1.0, controller="derivative", gain=10.0,
                      bandpass_quality=quality)

    @pytest.mark.parametrize("dt", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_bad_dt_refused(self, dt):
        # these failed later: 0 by ZeroDivisionError, nan and -1 by ValueError
        with pytest.raises(DomainError, match=r"^dt must be finite and > 0"):
            SimConfig(duration=1.0, dt=dt)

    @pytest.mark.parametrize("bits", [0, -3])
    def test_dac_bits_below_one_refused(self, bits):
        # a DAC has at least one bit; at -3 its 8 Vpi step rounds every
        # control voltage to 0
        with pytest.raises(DomainError, match="dac_bits must be >= 1"):
            SimConfig(duration=1.0, controller="chain", dac_bits=bits)

    @pytest.mark.parametrize("bits", [1024, 1100])
    def test_dac_bits_past_a_float_refused(self, bits):
        # 2 ** 1024 does not convert to a float: the LSB would raise
        # OverflowError at the first step
        with pytest.raises(DomainError, match="dac_bits must be <= 1023"):
            SimConfig(duration=1.0, controller="chain", dac_bits=bits)

    def test_deepest_dac_runs(self, q100):
        chain = TestChainController()._chain(q100, 150.0)
        cfg = SimConfig(duration=2.0, controller="chain", dac_bits=1023)
        tr = simulate(cfg, q100, chain=chain, hli=TestControllerOracle.HLI)
        assert np.all(np.isfinite(tr.control_voltage))

    @pytest.mark.parametrize("seed", [-1, -5, 2 ** 64, 2 ** 64 + 7])
    def test_seed_outside_64_bits_refused(self, seed):
        # masked to 64 bits, these ran as 2**64 - 1, 2**64 - 5, 0 and 7
        with pytest.raises(DomainError, match=r"^seed must be in \[0, 2"):
            SimConfig(duration=1.0, seed=seed)

    def test_widest_seed_runs(self, q100):
        cfg = SimConfig(duration=2.0, seed=2 ** 64 - 1)
        assert simulate(cfg, q100).x.size > 0

    def test_bad_modes_rejected(self):
        with pytest.raises(DomainError):
            SimConfig(duration=1.0, controller="pid")
        with pytest.raises(DomainError):
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


def _stepped_loop(cfg, res, hli):
    """The off/derivative loop stepped sample by sample, as simulate ran it
    before the block recursion: returns (x, feedback_force)."""
    dt = cfg.resolve_dt(res)
    n = int(round(cfg.duration / dt))
    m = res.mass
    w2 = res.omega0 ** 2
    gamma = float(res.damping_rate(res.omega0))
    fs = 1.0 / dt
    sigma_f = math.sqrt(res.thermal_force_psd(res.omega0) * fs / 2.0)
    f_in = stream_rng(cfg.seed, 0).standard_normal(n) * sigma_f
    if cfg.ext_samples is not None:
        f_in = f_in + np.asarray(cfg.ext_samples[:n], dtype=float)
    sigma_y = math.sqrt(hli.imprecision_asd ** 2 * fs / 2.0)
    noise_y = stream_rng(cfg.seed, 1).standard_normal(n) * sigma_y

    use_ctrl = cfg.controller != "off"
    w = res.omega0 * dt
    alpha = math.sin(w) / (2.0 * cfg.bandpass_quality)
    norm = 1.0 + alpha
    b0 = alpha / norm
    b2 = -alpha / norm
    a1 = -2.0 * math.cos(w) / norm
    a2 = (1.0 - alpha) / norm
    s1 = s2 = 0.0
    inv_2dt = 1.0 / (2.0 * dt)
    force_per_velocity = -m * cfg.gain * gamma

    x_out = np.empty(n)
    f_out = np.empty(n)
    f_in_l = f_in.tolist()
    noise_y_l = noise_y.tolist()
    x = float(cfg.x0)
    v = 0.0
    f_fb = 0.0
    inv_m = 1.0 / m
    for i in range(n):
        v += dt * ((f_in_l[i] + f_fb) * inv_m - w2 * x - gamma * v)
        x += dt * v
        x_out[i] = x
        f_out[i] = f_fb
        if use_ctrl:
            y = x + noise_y_l[i]
            if i == 0:
                vel = 0.0
                y1 = y2 = y
            else:
                u = (y - y2) * inv_2dt
                vel = b0 * u + s1
                s1 = -a1 * vel + s2
                s2 = b2 * u - a2 * vel
                y2 = y1
                y1 = y
            f_fb = force_per_velocity * vel
    return x_out, f_out


class TestBlockRecursion:
    """The block recursion of off/derivative against the stepped loop."""

    HLI = HliReadout(wavelength=1064e-9, imprecision_asd=1e-11)

    def _cfg(self, res, per_period, duration, gain, quality, drive):
        f0 = f0_of(res)
        dt = 1.0 / (per_period * f0)
        n = int(round(duration / dt))
        if drive == "sine":
            samples = sine_samples(1e-11, 0.9 * f0, dt, n)
        else:
            samples = 1e-10 * np.random.default_rng(5).standard_normal(n)
        return SimConfig(duration=duration, dt=dt, seed=31, x0=2e-9,
                         ext_samples=samples,
                         controller="derivative" if gain else "off",
                         gain=gain, bandpass_quality=quality)

    def _assert_agrees(self, cfg, res, rel):
        tr = simulate(cfg, res, hli=self.HLI)
        x_ref, f_ref = _stepped_loop(cfg, res, self.HLI)
        for got, ref in ((tr.x, x_ref), (tr.feedback_force, f_ref)):
            rms = math.sqrt(float(np.mean(ref ** 2)))
            assert np.max(np.abs(got - ref)) <= rel * rms

    @pytest.mark.parametrize("drive", ["sine", "samples"])
    @pytest.mark.parametrize("gain", [0.0, 15.0, 1000.0])
    @pytest.mark.parametrize("quality", [0.3, 10.0])
    @pytest.mark.parametrize("per_period", [100, 200])
    def test_matches_stepped_loop(self, q100, per_period, quality, gain,
                                  drive):
        cfg = self._cfg(q100, per_period, 30.0, gain, quality, drive)
        self._assert_agrees(cfg, q100, 1e-10)

    @pytest.mark.parametrize("drive", ["sine", "samples"])
    @pytest.mark.parametrize("gain", [15.0, 1000.0])
    @pytest.mark.parametrize("quality", [0.3, 10.0])
    @pytest.mark.parametrize("per_period", [100, 200])
    def test_matches_stepped_loop_without_long_double(
            self, q100, monkeypatch, per_period, quality, gain, drive):
        # where np.longdouble is float64 (MSVC builds, macOS arm64) the
        # scan squares A^L in float64; the derivative loop must still agree
        monkeypatch.setattr(np, "longdouble", np.float64)
        cfg = self._cfg(q100, per_period, 30.0, gain, quality, drive)
        self._assert_agrees(cfg, q100, 1e-10)

    @pytest.mark.parametrize("gain", [0.0, 15.0])
    def test_matches_stepped_loop_finely_sampled(self, q100, gain):
        cfg = self._cfg(q100, 5000, 5.0, gain, 0.3, "sine")
        self._assert_agrees(cfg, q100, 1e-7)

    @settings(max_examples=50, deadline=None)
    # below g ~ 1e-150 the force's squares underflow and its rms reads 0
    @given(gain=st.just(0.0) | st.floats(1e-3, 2000.0),
           quality=st.floats(0.2, 20.0))
    def test_matches_stepped_loop_any_stable_loop(self, gain, quality):
        res = preset_resonator(MechanicalResonator(
            mass=2.6e-3, omega0=TWO_PI * 4.72, q_internal=4.77e5,
            temperature=300.0), 100.0)
        cfg = self._cfg(res, 100, 5.0, gain, quality, "samples")
        dt = cfg.resolve_dt(res)
        gamma = float(res.damping_rate(res.omega0))
        a, _, _ = _linear_step(res, cfg, dt, -res.mass * gain * gamma,
                               (0.0, 0.0))
        assume(_spectral_radius(a) < 1.0)
        self._assert_agrees(cfg, res, 1e-10)

    def test_monte_carlo_seeds_are_simulate_runs(self, q100):
        cfg = SimConfig(duration=10.0, seed=700, controller="derivative",
                        gain=15.0, bandpass_quality=0.3)
        mc = monte_carlo_variance(cfg, q100, 10, hli=self.HLI)
        for k in range(10):
            tr = simulate(replace(cfg, seed=700 + k), q100, hli=self.HLI)
            assert mc.per_seed[k] == steady_state_variance(tr)


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
                            -res.mass * cfg.gain * gamma, (1e-9, 1e-9))
    return a, b, np.eye(8)[[0, 6]], z0


def _chain_slope_loop(resonator):
    """The chain loop's linear system at the modulator's bias slope (g = 20)
    of the q100 preset, read out as (x, vel) as `_relaxed_chain` runs it."""
    res = preset_resonator(resonator, 100.0)
    chain = TestChainController()._chain(res, 20.0)
    cfg = SimConfig(duration=10.0, x0=2e-9, controller="chain",
                    bandpass_quality=0.3)
    volt_per_velocity, _, _, _, rp = _chain_map(res, chain)
    slope = -rp * chain.eoam.gain() * volt_per_velocity
    a, b, z0 = _linear_step(res, cfg, cfg.resolve_dt(res), slope,
                            (1e-9, 1e-9))
    return a, b, np.eye(8)[[0, 7]], z0


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

    L, STACK = simulate_module._BLOCK, simulate_module._STACK
    LENGTHS = [1, L - 1, L, L + 1, L * STACK + 1,
               3 * L * STACK - 7]  # 24 blocks: not a power of two

    def _assert_agrees(self, system, n, lifted=None):
        a, b, c, z0 = system
        w = stream_rng(0, 0).standard_normal((b.shape[1], n))
        got = (lifted or LiftedSystem(a, b, c, n)).response(z0, tuple(w))
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
        monkeypatch.setattr(simulate_module, "_SERIAL_MNK", 3 * a.size)
        self._assert_agrees((a, b, c, z0), 5 * self.L * self.STACK + 3)

    @pytest.mark.parametrize("loop", [_derivative_loop, _chain_slope_loop])
    def test_any_chunk_size_is_bit_identical(self, resonator, monkeypatch,
                                             loop):
        # 2 whole chunks and 1001 steps: 3 chunks, n not a multiple of L
        a, b, c, z0 = loop(resonator)
        n = 2 * self.L * self.STACK * simulate_module._CHUNK + 1001
        lifted = LiftedSystem(a, b, c, n)
        w = tuple(stream_rng(0, 0).standard_normal((b.shape[1], n)))
        ref = lifted.response(z0, w)
        for stacks in (1, -(-n // (self.L * self.STACK))):  # 1 stack, 1 chunk
            monkeypatch.setattr(simulate_module, "_CHUNK", stacks)
            assert np.array_equal(lifted.response(z0, w), ref)

    def test_jumps_built_for_the_run(self, resonator):
        # 8 blocks take 3 scan passes and 24 take 5, one A^(L 2^k) each
        for n, passes in [(self.L + 1, 3), (3 * self.L * self.STACK - 7, 5)]:
            lifted = LiftedSystem(*_derivative_loop(resonator)[:3], n)
            assert len(lifted._jumps) == passes

    def test_response_writes_nothing(self, resonator):
        system, n = _derivative_loop(resonator), 3 * self.L * self.STACK - 7
        lifted = LiftedSystem(*system[:3], n)
        before = copy.deepcopy(vars(lifted))
        for _ in range(2):
            self._assert_agrees(system, n, lifted)
        assert vars(lifted).keys() == before.keys()
        for name, value in vars(lifted).items():
            assert np.array_equal(np.asarray(value), np.asarray(before[name]))

    @pytest.mark.parametrize("n", [L, L + 2])
    def test_other_length_refused(self, resonator, n):
        a, b, c, z0 = _derivative_loop(resonator)
        lifted = LiftedSystem(a, b, c, self.L + 1)
        with pytest.raises(ValueError, match=f"series of {self.L + 1} "):
            lifted.response(z0, tuple(np.zeros((2, n))))


class TestWorkingMemory:
    """simulate holds the trace it returns and little more."""

    HLI = HliReadout(wavelength=1064e-9, imprecision_asd=1e-11)

    def _peak(self, res, controller, n):
        """tracemalloc's peak bytes above the start over one n-step run."""
        cfg = SimConfig(duration=n / (100.0 * f0_of(res)), seed=3,
                        controller=controller, gain=15.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            simulate(cfg, res, hli=self.HLI)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("controller", ["off", "derivative"])
    def test_bytes_per_step(self, q100, controller):
        # the trace's t, x, y and F are 32 bytes per step; the difference
        # of two run lengths cancels the fixed scratch of the chunks
        simulate(SimConfig(duration=10.0, controller=controller), q100)
        short, long = 200_000, 400_000
        per_step = ((self._peak(q100, controller, long)
                     - self._peak(q100, controller, short)) / (long - short))
        assert per_step <= 40.0


class TestLoopStability:
    # at the default 100 samples per period, the q100 loop with a 0.3
    # bandpass goes unstable between g = 1500 and 1700, with a 10 bandpass
    # between g = 1100 and 1200
    @pytest.mark.parametrize("quality, gain", [(0.3, 1500.0), (10.0, 1100.0)])
    def test_stable_high_gain_runs(self, q100, quality, gain):
        cfg = SimConfig(duration=30.0, seed=41, controller="derivative",
                        gain=gain, bandpass_quality=quality)
        tr = simulate(cfg, q100)
        assert np.all(np.isfinite(tr.x))

    @pytest.mark.parametrize("quality, gain, radius", [
        (0.3, 2000.0, "1.01786"), (10.0, 1200.0, "1.00014")])
    def test_unstable_loop_refused(self, q100, quality, gain, radius):
        cfg = SimConfig(duration=30.0, seed=41, controller="derivative",
                        gain=gain, bandpass_quality=quality)
        with pytest.raises(ConfigError) as info:
            simulate(cfg, q100)
        msg = str(info.value)
        assert f"gain = {gain:g}" in msg
        assert f"bandpass_quality = {quality:g}" in msg
        assert f"spectral radius {radius}" in msg


class TestNonFiniteInput:
    @pytest.mark.parametrize("field, value", [
        ("x0", math.nan), ("x0", math.inf)])
    def test_scalar_refused(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            SimConfig(duration=30.0, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_samples_refused(self, value):
        samples = np.zeros(20000)
        samples[123] = value
        with pytest.raises(DomainError, match="^ext_samples must be finite"):
            SimConfig(duration=30.0, ext_samples=samples)
