import functools
import math

import numpy as np
import pytest

from optocool import (CoolingSetup, DomainError, FitError, KB,
                      MechanicalResonator, closed_loop_psd,
                      fit_q_from_ringdown)
from optocool.resonator import extract_envelope

W0 = 2 * math.pi * 4.72


def eq_19a_open_loop(res, omega):
    # independent route: direct substitution into the closed-loop
    # denominator at g = 0
    gm = res.gamma_viscous + res.omega0 ** 2 / (res.q_internal * omega)
    return 1.0 / (res.mass * (res.omega0 ** 2 - omega ** 2 + 1j * gm * omega))


class TestSusceptibility:
    def test_static_spring_limit(self, resonator):
        val = resonator.force_susceptibility(resonator.omega0 * 1e-6)
        assert abs(val) == pytest.approx(0.4373034645248734, rel=1e-6)

    def test_resonance_value(self, resonator):
        val = resonator.force_susceptibility(resonator.omega0)
        oracle = eq_19a_open_loop(resonator, resonator.omega0)
        assert val == pytest.approx(oracle, rel=1e-12)
        assert val.real == pytest.approx(0.0, abs=1e-12)
        assert val.imag == pytest.approx(-2.0859375257836463e5, rel=1e-9)

    def test_free_mass_limit(self, resonator):
        val = abs(resonator.force_susceptibility(10 * resonator.omega0))
        expected = 1.0 / (99 * resonator.mass * resonator.omega0 ** 2)
        assert val == pytest.approx(expected, rel=1e-3)

    def test_matches_direct_substitution_on_grid(self, resonator):
        omega = np.logspace(-2, 2, 201) * resonator.omega0
        assert np.allclose(resonator.force_susceptibility(omega),
                           eq_19a_open_loop(resonator, omega), rtol=1e-12)

    def test_passive_dissipation(self, resonator):
        omega = np.logspace(-3, 3, 301) * resonator.omega0
        assert np.all(resonator.force_susceptibility(omega).imag < 0.0)

    def test_resonance_magnitude_identity(self, resonator):
        # |chi_m(w0)| m w0^2 = Q for structural-only damping
        val = abs(resonator.force_susceptibility(resonator.omega0))
        prod = val * resonator.mass * resonator.omega0 ** 2
        assert prod == pytest.approx(resonator.q_internal, rel=1e-9)

    def test_rejects_bad_omega(self, resonator):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                resonator.force_susceptibility(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("method", [
        "damping_rate", "force_susceptibility", "acceleration_transfer",
        "thermal_force_psd", "thermal_accel_asd", "closed_loop_psd"])
    def test_every_method_rejects_bad_omega(self, resonator, method, bad):
        # damping_rate is the one omega check; every method goes through it
        if method == "closed_loop_psd":
            setup = CoolingSetup(resonator, 10.0, imprecision_psd=1e-24,
                                 external_force_psd=1e-30)
            call = functools.partial(closed_loop_psd, setup)
        else:
            call = getattr(resonator, method)
        with pytest.raises(DomainError):
            call(bad)


class TestAccelerationTransfer:
    def test_dc_limit(self, resonator):
        val = resonator.acceleration_transfer(resonator.omega0 * 1e-6)
        assert val.real == pytest.approx(-1.0 / resonator.omega0 ** 2, rel=1e-6)

    def test_resonance_magnitude(self, resonator):
        val = abs(resonator.acceleration_transfer(resonator.omega0))
        expected = resonator.q_internal / resonator.omega0 ** 2
        assert val == pytest.approx(expected, rel=1e-9)

    def test_is_minus_mass_times_susceptibility(self, resonator):
        omega = np.logspace(-2, 2, 101) * resonator.omega0
        lhs = resonator.acceleration_transfer(omega)
        rhs = -resonator.mass * resonator.force_susceptibility(omega)
        assert np.array_equal(lhs, rhs)


class TestThermalNoise:
    def test_paper_resonator_floor(self, resonator):
        # direct evaluation oracle: sqrt(4 kB T / m * w0 / Q)
        val = resonator.thermal_accel_asd(resonator.omega0)
        assert val == pytest.approx(1.9904319503763807e-11, rel=1e-9)

    def test_structural_frequency_scaling(self, resonator):
        ratio = (resonator.thermal_accel_asd(2 * resonator.omega0)
                 / resonator.thermal_accel_asd(resonator.omega0))
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_mass_scaling(self, resonator):
        heavier = MechanicalResonator(mass=2 * resonator.mass,
                                      omega0=resonator.omega0,
                                      q_internal=resonator.q_internal,
                                      temperature=resonator.temperature)
        ratio = (heavier.thermal_accel_asd(resonator.omega0)
                 / resonator.thermal_accel_asd(resonator.omega0))
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_zero_temperature(self, resonator):
        cold = resonator.with_temperature(0.0)
        assert cold.thermal_accel_asd(resonator.omega0) == 0.0
        assert cold.thermal_force_psd(resonator.omega0) == 0.0
        omega = np.logspace(-1, 1, 5) * resonator.omega0
        assert np.array_equal(cold.thermal_accel_asd(omega), np.zeros(5))
        assert np.array_equal(cold.thermal_force_psd(omega), np.zeros(5))

    def test_force_psd_value(self, resonator):
        val = resonator.thermal_force_psd(resonator.omega0)
        assert val == pytest.approx(2.6781898799774866e-27, rel=1e-9)

    def test_force_accel_consistency(self, resonator):
        omega = np.logspace(-2, 2, 101) * resonator.omega0
        lhs = resonator.mass ** 2 * resonator.thermal_accel_asd(omega) ** 2
        rhs = resonator.thermal_force_psd(omega)
        assert np.allclose(lhs, rhs, rtol=1e-12)


class TestRingdown:
    def test_envelope_t0(self, resonator):
        assert resonator.ringdown_envelope(1e-6, 0.0) == pytest.approx(1e-6)

    def test_e_fold(self, resonator):
        gm = resonator.damping_rate(resonator.omega0)
        val = resonator.ringdown_envelope(1.0, 2.0 / gm)
        assert val == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_half_life(self, resonator):
        # analytic inversion: t_half = 2 ln 2 / gamma
        val = resonator.ringdown_envelope(1.0, 22297.28416796924)
        assert val == pytest.approx(0.5, rel=1e-9)

    def test_negative_time_rejected(self, resonator):
        with pytest.raises(DomainError):
            resonator.ringdown_envelope(1.0, -1.0)

    def test_nan_time_rejected(self, resonator):
        with pytest.raises(DomainError):
            resonator.ringdown_envelope(1.0, math.nan)
        with pytest.raises(DomainError):
            resonator.ringdown_envelope(1.0, np.array([0.0, math.nan]))


class TestRingdownFit:
    def test_noiseless_round_trip(self, resonator):
        gm = resonator.damping_rate(resonator.omega0)
        t = np.linspace(0.0, 6.0 / gm, 200)  # 3 amplitude e-folds
        env = resonator.ringdown_envelope(1e-6, t)
        fit = fit_q_from_ringdown(t, env, omega0=resonator.omega0)
        assert fit.q == pytest.approx(resonator.q_internal, rel=1e-3)
        assert fit.amplitude0 == pytest.approx(1e-6, rel=1e-6)
        assert fit.residual_rms < 1e-10

    def test_noisy_envelope_median(self, resonator):
        # Monte-Carlo oracle: 1 percent multiplicative noise, 100 samples
        # over 3 e-folds, 20-seed median within 1 percent
        gm = resonator.damping_rate(resonator.omega0)
        t = np.linspace(0.0, 6.0 / gm, 100)
        env = np.asarray(resonator.ringdown_envelope(1e-6, t))
        qs = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            noisy = env * (1.0 + 0.01 * rng.standard_normal(t.size))
            fit = fit_q_from_ringdown(t, noisy, omega0=resonator.omega0)
            qs.append(fit.q)
        median = float(np.median(qs))
        assert median == pytest.approx(resonator.q_internal, rel=1e-2)

    def test_constant_amplitude_fails(self, resonator):
        t = np.linspace(0.0, 100.0, 50)
        with pytest.raises(FitError):
            fit_q_from_ringdown(t, np.full(50, 2.0), omega0=resonator.omega0)

    def test_too_few_samples(self, resonator):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(FitError):
            fit_q_from_ringdown(t, np.exp(-t), omega0=resonator.omega0)

    def test_oscillatory_input_round_trip(self):
        # raw decaying oscillation, envelope picked per cycle
        q = 50.0
        w0 = W0
        res = MechanicalResonator(mass=1e-3, omega0=w0, q_internal=q,
                                  temperature=0.0)
        fs = 200 * w0 / (2 * math.pi)
        t = np.arange(0, 40 * q / w0, 1 / fs)
        x = 1e-6 * np.exp(-0.5 * w0 / q * t) * np.cos(w0 * t)
        fit = fit_q_from_ringdown(t, x)
        assert fit.q == pytest.approx(q, rel=1e-2)
        assert fit.omega0 == pytest.approx(w0, rel=1e-3)

    def test_envelope_extraction_amplitude(self):
        w0 = W0
        fs = 100 * w0 / (2 * math.pi)
        t = np.arange(0, 200 * 2 * math.pi / w0, 1 / fs)
        x = 3e-7 * np.cos(w0 * t)
        t_env, amp = extract_envelope(t, x, omega0=w0)
        assert np.allclose(amp, 3e-7, rtol=2e-3)


    def test_envelope_matches_per_cycle_argmax(self):
        # reference: the first largest |x| of each whole cycle; the
        # trailing partial cycle is dropped
        per_cycle, n_cycles = 25, 40
        x = np.round(np.random.default_rng(5).standard_normal(
            per_cycle * n_cycles + 11), 1)
        x[3], x[7] = 9.0, -9.0  # an exact tie in the first cycle
        t = 0.01 * np.arange(x.size)
        t_env, amp = extract_envelope(t, x, 2 * math.pi / (per_cycle * 0.01))
        idx = [k * per_cycle + int(np.argmax(np.abs(x[k * per_cycle:
                                                       (k + 1) * per_cycle])))
               for k in range(n_cycles)]
        assert idx[0] == 3
        assert np.array_equal(t_env, t[idx])
        assert np.array_equal(amp, np.abs(x[idx]))

class TestValidation:
    def test_invariants(self):
        with pytest.raises(DomainError):
            MechanicalResonator(mass=-1.0, omega0=W0, q_internal=100.0)
        with pytest.raises(DomainError):
            MechanicalResonator(mass=1.0, omega0=0.0, q_internal=100.0)
        with pytest.raises(DomainError):
            MechanicalResonator(mass=1.0, omega0=W0, q_internal=0.0)
        with pytest.raises(DomainError):
            MechanicalResonator(mass=1.0, omega0=W0, q_internal=10.0,
                                temperature=-1.0)

    @pytest.mark.parametrize("field", [
        "gamma_viscous", "temperature", "loss_exponent"])
    def test_nan_rejected(self, field):
        with pytest.raises(DomainError, match=field):
            MechanicalResonator(mass=1.0, omega0=W0, q_internal=10.0,
                                **{field: math.nan})

    def test_infinite_q_allowed(self):
        # the desk-scale presets are purely viscous: q_internal = inf
        res = MechanicalResonator(mass=1.0, omega0=W0, q_internal=math.inf,
                                  gamma_viscous=W0 / 100.0)
        assert res.quality_factor() == pytest.approx(100.0, rel=1e-12)

    def test_equipartition_reference(self, resonator):
        x2 = KB * resonator.temperature / (resonator.mass * resonator.omega0 ** 2)
        assert x2 == pytest.approx(1.8112877729784058e-21, rel=1e-9)

    def test_loss_exponent_shapes_damping(self):
        res = MechanicalResonator(mass=1e-3, omega0=W0, q_internal=1e3,
                                  loss_exponent=1.0)
        # phi ~ omega makes the structural rate frequency independent
        assert res.damping_rate(2 * W0) == pytest.approx(res.damping_rate(W0))

    def test_viscous_contribution(self):
        res = MechanicalResonator(mass=1e-3, omega0=W0, q_internal=1e6,
                                  gamma_viscous=0.5)
        assert res.damping_rate(W0) == pytest.approx(0.5 + W0 / 1e6)
        assert res.quality_factor() == pytest.approx(W0 / (0.5 + W0 / 1e6))
