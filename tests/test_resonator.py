import collections
import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from optocool import (CascadeConfig, CoolingSetup, DomainError, FitError, KB,
                      MechanicalResonator, closed_loop_psd,
                      closed_loop_variance, compare_single_step,
                      fit_q_from_ringdown, plan_cascade)
from optocool.cooling import acceleration_transfer, effective_susceptibility
from optocool.resonator import extract_envelope

W0 = 2 * math.pi * 4.72


def eq_19a_open_loop(res, omega):
    # independent route: direct substitution into the closed-loop
    # denominator at g = 0
    gm = res.gamma_viscous + res.omega0 ** 2 / (res.q_internal * omega)
    return 1.0 / (res.mass * (res.omega0 ** 2 - omega ** 2 + 1j * gm * omega))


def chi_m(res, omega):
    # the resonator's own susceptibility is the closed loop's at g = 0
    return effective_susceptibility(res, 0.0, omega)


class TestSusceptibility:
    def test_static_spring_limit(self, resonator):
        val = chi_m(resonator, resonator.omega0 * 1e-6)
        assert abs(val) == pytest.approx(0.4373034645248734, rel=1e-6)

    def test_resonance_value(self, resonator):
        val = chi_m(resonator, resonator.omega0)
        oracle = eq_19a_open_loop(resonator, resonator.omega0)
        assert val == pytest.approx(oracle, rel=1e-12)
        assert val.real == pytest.approx(0.0, abs=1e-12)
        assert val.imag == pytest.approx(-2.0859375257836463e5, rel=1e-9)

    def test_free_mass_limit(self, resonator):
        val = abs(chi_m(resonator, 10 * resonator.omega0))
        expected = 1.0 / (99 * resonator.mass * resonator.omega0 ** 2)
        assert val == pytest.approx(expected, rel=1e-3)

    def test_matches_direct_substitution_on_grid(self, resonator):
        omega = np.logspace(-2, 2, 201) * resonator.omega0
        assert np.allclose(chi_m(resonator, omega),
                           eq_19a_open_loop(resonator, omega), rtol=1e-12)

    def test_passive_dissipation(self, resonator):
        omega = np.logspace(-3, 3, 301) * resonator.omega0
        assert np.all(chi_m(resonator, omega).imag < 0.0)

    def test_resonance_magnitude_identity(self, resonator):
        # |chi_m(w0)| m w0^2 = Q for structural-only damping
        val = abs(chi_m(resonator, resonator.omega0))
        prod = val * resonator.mass * resonator.omega0 ** 2
        assert prod == pytest.approx(resonator.q_internal, rel=1e-9)

    def test_rejects_bad_omega(self, resonator):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                chi_m(resonator, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("method", [
        "damping_rate", "force_susceptibility", "acceleration_transfer",
        "thermal_force_psd", "thermal_accel_asd", "closed_loop_psd"])
    def test_every_method_rejects_bad_omega(self, resonator, method, bad):
        # damping_rate is the one omega check; every response goes through it
        setup = CoolingSetup(resonator, 10.0, imprecision_psd=1e-24,
                             external_force_psd=1e-30)
        call = {"force_susceptibility": functools.partial(chi_m, resonator),
                "acceleration_transfer": functools.partial(
                    acceleration_transfer, resonator),
                "closed_loop_psd": functools.partial(closed_loop_psd, setup),
                }.get(method) or getattr(resonator, method)
        with pytest.raises(DomainError):
            call(bad)


class TestAccelerationTransfer:
    def test_dc_limit(self, resonator):
        val = acceleration_transfer(resonator, resonator.omega0 * 1e-6)
        assert val.real == pytest.approx(-1.0 / resonator.omega0 ** 2, rel=1e-6)

    def test_resonance_magnitude(self, resonator):
        val = abs(acceleration_transfer(resonator, resonator.omega0))
        expected = resonator.q_internal / resonator.omega0 ** 2
        assert val == pytest.approx(expected, rel=1e-9)

    def test_is_minus_mass_times_susceptibility(self, resonator):
        shaped = replace(resonator, gamma_viscous=1e-3, loss_exponent=0.5)
        for res in (resonator, shaped):
            omega = np.logspace(-3, 3, 20001) * res.omega0
            lhs = acceleration_transfer(res, omega)
            rhs = -res.mass * effective_susceptibility(res, 0.0, omega)
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

    @pytest.mark.parametrize("duration", [20.0, 60.0])
    @pytest.mark.parametrize("floor", [0.0, 1e-6, 1e-4, 1e-2])
    def test_decay_into_a_noise_floor(self, duration, floor):
        # Q = 50 at 4.72 Hz, 200 Hz sampling, white floor relative to the
        # start amplitude; a fit past the decay read up to -88% off
        rate = W0 / 50.0
        t = np.arange(round(duration * 200.0)) / 200.0
        x = np.exp(-0.5 * rate * t) * np.cos(W0 * t)
        x += floor * np.random.default_rng(7).standard_normal(t.size)
        try:
            fit = fit_q_from_ringdown(t, x)
        except FitError as exc:
            assert "not one exponential" in str(exc)
            assert floor > 0.0
        else:
            assert fit.decay_rate == pytest.approx(rate, rel=0.01)

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

    @pytest.mark.parametrize("omega0, q", [(2 * math.pi * 1e-150, 1e30),
                                           (2 * math.pi * 1e-160, 4.77e5),
                                           (W0, 1e-307)],
                             ids=["underflow", "subnormal-square", "overflow"])
    def test_damping_rate_at_omega0_not_finite_and_positive_refused(
            self, omega0, q):
        # omega0**2 is finite and > 0, but omega0**2 / Q is 0 or inf
        with pytest.raises(DomainError, match=r"^omega0,q_internal "):
            MechanicalResonator(mass=1.0, omega0=omega0, q_internal=q)

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


class TestGamma0:
    @pytest.mark.parametrize("viscous, exponent", [
        (0.0, 0.0), (1e-3, 0.0), (1e-3, 0.5)],
        ids=["structural", "viscous", "viscous-and-exponent"])
    def test_is_damping_rate_at_omega0_bit_for_bit(self, resonator, viscous,
                                                   exponent):
        res = replace(resonator, gamma_viscous=viscous, loss_exponent=exponent)
        assert type(res.gamma0) is float
        moved = replace(res, omega0=2.0 * res.omega0, q_internal=1e3)
        cold = res.with_temperature(4.0)
        for r in (res, moved, cold):
            assert r.gamma0 == float(r.damping_rate(r.omega0))
        # a replaced resonator computes its own value, not the cached one
        assert moved.gamma0 != res.gamma0
        assert cold.gamma0 == res.gamma0

    def test_scalar_damping_rate_once_per_instance(self, resonator, chain,
                                                   hli, fpi, monkeypatch):
        # gamma_m(omega0) is a constant of the resonator: the cascade and
        # cooling layers read it from the cache, not from damping_rate. The
        # resonator checks it when it is made, so it is made after the patch
        calls = collections.Counter()
        damping_rate = MechanicalResonator.damping_rate

        def counted(self, omega):
            if np.ndim(omega) == 0:
                calls[id(self)] += 1
            return damping_rate(self, omega)

        monkeypatch.setattr(MechanicalResonator, "damping_rate", counted)
        resonator = replace(resonator)
        cfg = CascadeConfig(initial_gain=1.0, initial_span=200e-6)
        plan_cascade(cfg, chain, resonator, hli, fpi)
        compare_single_step(50.0, cfg, chain, resonator, hli, fpi)
        closed_loop_variance(CoolingSetup(resonator, 50.0, (5e-12) ** 2, 1e-30))
        assert calls[id(resonator)] == 1
        assert max(calls.values()) == 1
