import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from optocool import (CoolingSetup, DomainError, MechanicalResonator,
                      SpectrumRecord, closed_loop_psd, closed_loop_variance,
                      derivative_feedback, effective_susceptibility,
                      effective_temperature, effective_temperature_floor,
                      noise_temperature, optimal_gain)
from optocool import cooling
from optocool.cooling import (imprecision_variance,
                              open_loop_thermal_variance)

HLI_PSD = (5e-12) ** 2  # m^2/Hz


def chi_m(res, omega):
    # the resonator's own susceptibility is the closed loop's at g = 0
    return effective_susceptibility(res, 0.0, omega)


class TestDerivativeFeedback:
    def test_zero_gain(self, resonator):
        assert derivative_feedback(resonator, 0.0, resonator.omega0) == 0.0

    def test_purely_imaginary(self, resonator):
        omega = np.logspace(-2, 2, 101) * resonator.omega0
        vals = derivative_feedback(resonator, 7.0, omega)
        assert np.all(vals.real == 0.0)
        assert np.all(vals.imag > 0.0)

    def test_resonance_magnitude(self, resonator):
        # direct substitution oracle m g gamma_m(w0) w0
        val = derivative_feedback(resonator, 2500.0, resonator.omega0)
        assert abs(val) == pytest.approx(1.1985018578448548e-2, rel=1e-9)

    def test_nan_gain_rejected(self, resonator):
        with pytest.raises(DomainError):
            derivative_feedback(resonator, math.nan, resonator.omega0)


class TestEffectiveSusceptibility:
    def test_open_loop_limit(self, resonator):
        # bit for bit the open-loop chi_m written out with gamma_m
        res = replace(resonator, gamma_viscous=1e-3, loss_exponent=0.5)
        omega = np.logspace(-1, 1, 51) * res.omega0
        gm = res.damping_rate(omega)
        written = 1.0 / (res.mass * (res.omega0 ** 2 - omega ** 2
                                     + 1j * gm * omega))
        assert np.array_equal(chi_m(res, omega), written)

    def test_resonance_suppression(self, resonator):
        for g in (2500.0, 5000.0, 10000.0):
            ratio = (abs(effective_susceptibility(resonator, g, resonator.omega0))
                     / abs(chi_m(resonator, resonator.omega0)))
            assert ratio == pytest.approx(1.0 / (1.0 + g), rel=1e-12)

    def test_off_resonance_insensitivity(self, resonator):
        for g in (1e2, 1e3, 1e4):
            chi = effective_susceptibility(resonator, g, 10 * resonator.omega0)
            chi0 = chi_m(resonator, 10 * resonator.omega0)
            assert abs(chi / chi0 - 1.0) < 1e-3

    def test_matches_loop_composition(self, resonator):
        # dual route: closed form vs chi_m / (1 + chi_m chi_fb)
        omega = np.logspace(-2, 2, 1000) * resonator.omega0
        for g in (0.0, 1.0, 2500.0, 3.4e4):
            chi_open = chi_m(resonator, omega)
            chi_fb = derivative_feedback(resonator, g, omega)
            composed = chi_open / (1.0 + chi_open * chi_fb)
            closed = effective_susceptibility(resonator, g, omega)
            assert np.allclose(closed, composed, rtol=1e-12)

    def test_exact_suppression_with_viscous_part(self):
        res = MechanicalResonator(mass=1e-3, omega0=10.0, q_internal=1e4,
                                  gamma_viscous=1e-3, temperature=300.0)
        g = 123.0
        lhs = abs(effective_susceptibility(res, g, res.omega0)) * (1.0 + g)
        rhs = abs(chi_m(res, res.omega0))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_nan_gain_rejected(self, resonator):
        with pytest.raises(DomainError):
            effective_susceptibility(resonator, math.nan, resonator.omega0)


class TestClosedLoopPsd:
    def test_open_loop_thermal(self, resonator):
        omega = np.logspace(-1, 1, 31) * resonator.omega0
        setup = CoolingSetup(resonator, 0.0, imprecision_psd=0.0)
        psd = closed_loop_psd(setup, omega)
        expected = (np.abs(chi_m(resonator, omega)) ** 2
                    * resonator.thermal_force_psd(omega))
        assert np.allclose(psd, expected, rtol=1e-12)

    def test_feedthrough_saturates_at_imprecision(self, resonator):
        cold = resonator.with_temperature(0.0)
        g = 1e6
        setup = CoolingSetup(cold, g, imprecision_psd=HLI_PSD)
        val = closed_loop_psd(setup, np.array([resonator.omega0]))[0]
        assert val == pytest.approx((g / (1 + g)) ** 2 * HLI_PSD, rel=1e-9)

    def test_all_sources_zero(self, resonator):
        cold = resonator.with_temperature(0.0)
        setup = CoolingSetup(cold, 10.0, imprecision_psd=0.0)
        assert closed_loop_psd(setup, np.array([resonator.omega0]))[0] == 0.0

    def test_thermal_sensitivity_unchanged_by_feedback(self, resonator):
        # the thermal-force coefficient is gain independent: the PSD ratio
        # with and without gain is exactly |chi_eff/chi_m|^2
        omega = np.logspace(-1, 1, 41) * resonator.omega0
        g = 777.0
        open_psd = closed_loop_psd(CoolingSetup(resonator, 0.0, 0.0), omega)
        closed = closed_loop_psd(CoolingSetup(resonator, g, 0.0), omega)
        chi_ratio = (np.abs(effective_susceptibility(resonator, g, omega)) ** 2
                     / np.abs(chi_m(resonator, omega)) ** 2)
        assert np.allclose(closed / open_psd, chi_ratio, rtol=1e-12)


class TestVariance:
    def test_equipartition_open_loop(self, resonator):
        setup = CoolingSetup(resonator, 0.0, imprecision_psd=0.0)
        out = closed_loop_variance(setup)
        assert out.analytic.variance == pytest.approx(1.8112877729784058e-21,
                                                      rel=1e-9)
        assert out.numeric.variance == pytest.approx(out.analytic.variance,
                                                     rel=0.02)

    def test_parts_sum_to_total(self, resonator):
        setup = CoolingSetup(resonator, 50.0, imprecision_psd=HLI_PSD,
                             external_force_psd=1e-30)
        out = closed_loop_variance(setup)
        for res in (out.numeric, out.analytic):
            assert res.variance == pytest.approx(
                res.thermal + res.feedthrough + res.external, rel=1e-12, abs=0)
            assert min(res.thermal, res.feedthrough, res.external) >= 0.0

    def test_one_susceptibility_evaluation_per_call(self, resonator,
                                                    monkeypatch):
        # the thermal, feedthrough and external parts share one |chi_eff|^2
        calls = []

        def counted(*args):
            calls.append(args)
            return effective_susceptibility(*args)

        monkeypatch.setattr(cooling, "effective_susceptibility", counted)
        closed_loop_variance(CoolingSetup(resonator, 50.0, HLI_PSD, 1e-30))
        assert len(calls) == 1

    @pytest.mark.parametrize("viscous, exponent", [(0.0, 0.0), (1e-3, 0.5)],
                             ids=["structural", "viscous-and-exponent"])
    @pytest.mark.parametrize("g, shaped, external", [
        (0.0, False, None), (50.0, True, 3e-27), (3.4e4, False, 1e-30)])
    def test_rows_are_the_public_functions_bit_for_bit(
            self, resonator, viscous, exponent, g, shaped, external):
        # the rows share one gamma_m per node array; each public function
        # evaluates its own, and the rows must not move by a bit
        res = replace(resonator, gamma_viscous=viscous,
                      loss_exponent=exponent)
        imprecision = HLI_PSD
        if shaped:
            f = np.logspace(math.log10(0.4), math.log10(50.0), 200)
            imprecision = SpectrumRecord(
                2 * math.pi * f, 5e-12 * np.sqrt(1.0 + (2.5 / f) ** 4),
                "asd", "m/rtHz")
        setup = CoolingSetup(res, g, imprecision, external)
        w0 = res.omega0
        omega = np.geomspace(w0 / 10, 10 * w0, 4001).reshape(-1, 1)
        chi2 = abs(effective_susceptibility(res, g, omega)) ** 2
        feedback2 = abs(derivative_feedback(res, g, omega)) ** 2
        s_n = cooling.psd_lookup(imprecision, "imprecision_psd")(omega)
        s_ext = cooling.psd_lookup(external, "external_force_psd")(omega)
        want = np.stack((chi2 * res.thermal_force_psd(omega),
                         chi2 * feedback2 * s_n, chi2 * s_ext))
        assert cooling._parts(setup)[1](omega).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["flat", "shaped", "external"])
    def test_numeric_is_band_integral_of_psd(self, resonator, kind):
        # quad oracle on the summed spectrum, independent of the per-part
        # integrals; g = 100 keeps the kinks of the shaped record's linear
        # interpolation from limiting quad below rtol 1e-9
        w0 = resonator.omega0
        imprecision, external = HLI_PSD, None
        if kind == "shaped":
            f = np.logspace(math.log10(0.4), math.log10(50.0), 200)
            imprecision = SpectrumRecord(
                2 * math.pi * f, 5e-12 * np.sqrt(1.0 + (2.5 / f) ** 4),
                "asd", "m/rtHz")
        elif kind == "external":
            external = 3e-27
        setup = CoolingSetup(resonator, 100.0, imprecision, external)
        gamma_eff = 101.0 * float(resonator.damping_rate(w0))
        points = [p for p in w0 + gamma_eff * np.arange(-10, 11)
                  if w0 / 10 < p < 10 * w0]
        value = quad(lambda w: closed_loop_psd(setup, w), w0 / 10, 10 * w0,
                     points=points, limit=400, epsabs=0.0, epsrel=1e-10,
                     full_output=1)[0]
        assert closed_loop_variance(setup).numeric.variance == pytest.approx(
            value / (2 * math.pi), rel=1e-9, abs=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_record_refused(self, resonator, bad):
        values = np.full(4, 5e-12)
        values[3] = bad  # off resonance: only the band integral reads it
        rec = SpectrumRecord(np.array([0.1, 0.9, 1.1, 10.0]) * resonator.omega0,
                             values, "asd", "m/rtHz")
        with pytest.raises(DomainError, match="imprecision_psd"):
            closed_loop_variance(CoolingSetup(resonator, 100.0, rec))

    def test_analytic_vs_numeric_two_percent(self):
        # quadrature oracle over the narrow line, Q >= 1e3, g <= g_opt
        res = MechanicalResonator(mass=2.6e-3, omega0=2 * math.pi * 4.72,
                                  q_internal=1e3, temperature=300.0)
        g_opt = optimal_gain(res, HLI_PSD).closed_form
        for g in (0.0, 1.0, 10.0, g_opt / 3, g_opt):
            out = closed_loop_variance(CoolingSetup(res, g, HLI_PSD))
            assert out.numeric.variance == pytest.approx(
                out.analytic.variance, rel=0.02)

    def test_large_gain_noise_dominated(self, resonator):
        g = 1e6
        out = closed_loop_variance(CoolingSetup(resonator, g, HLI_PSD))
        x_n2 = imprecision_variance(resonator, HLI_PSD)
        assert out.analytic.feedthrough == pytest.approx(
            g ** 2 / (1 + g) * x_n2, rel=1e-12)
        assert out.analytic.feedthrough > 100 * out.analytic.thermal


class TestOptimalGain:
    def test_closed_form_value(self, resonator):
        got = optimal_gain(resonator, HLI_PSD)
        assert got.closed_form == pytest.approx(2158.996682860589, rel=1e-9)

    def test_inverse_sqrt_scaling(self, resonator):
        base = optimal_gain(resonator, HLI_PSD).closed_form
        quad = optimal_gain(resonator, 4 * HLI_PSD).closed_form
        assert quad == pytest.approx(base / 2, rel=1e-12)

    def test_minimizer_agrees(self, resonator):
        got = optimal_gain(resonator, HLI_PSD)
        assert got.minimized == pytest.approx(got.closed_form, rel=0.02)
        ratio = (open_loop_thermal_variance(resonator)
                 / imprecision_variance(resonator, HLI_PSD))
        assert got.minimized == pytest.approx(math.sqrt(1 + ratio) - 1,
                                              rel=1e-12, abs=0)

    def test_minimizer_brackets_minimum(self, resonator):
        # derivative sign change: variance rises on either side
        got = optimal_gain(resonator, HLI_PSD)
        x_th0 = open_loop_thermal_variance(resonator)
        x_n2 = imprecision_variance(resonator, HLI_PSD)

        def var(g):
            return (x_th0 + g * g * x_n2) / (1.0 + g)

        g = got.minimized
        assert var(0.9 * g) > var(g) < var(1.1 * g)

    def test_random_parameter_sets(self):
        # 20 seeded parameter sets with T/T_n >= 1e4
        rng = np.random.default_rng(2024)
        for _ in range(20):
            res = MechanicalResonator(
                mass=float(rng.uniform(1e-4, 1e-1)),
                omega0=float(rng.uniform(1.0, 1e3)),
                q_internal=float(10 ** rng.uniform(3, 6)),
                temperature=float(rng.uniform(10.0, 600.0)))
            ratio_target = 10 ** rng.uniform(4, 8)
            s_n = (4 * open_loop_thermal_variance(res)
                   / (float(res.damping_rate(res.omega0)) * ratio_target))
            got = optimal_gain(res, s_n)
            assert got.minimized == pytest.approx(got.closed_form, rel=0.02)


class TestTemperatures:
    def test_noise_temperature_values(self, resonator):
        assert noise_temperature(resonator, HLI_PSD) == pytest.approx(
            6.436018808059912e-5, rel=1e-9)
        assert noise_temperature(resonator, (2e-13) ** 2) == pytest.approx(
            1.0297630092895861e-7, rel=1e-9)

    def test_noise_temperature_linearity(self, resonator):
        assert noise_temperature(resonator, 3 * HLI_PSD) == pytest.approx(
            3 * noise_temperature(resonator, HLI_PSD), rel=1e-12)

    def test_zero_gain_returns_bath(self, resonator):
        t_n = noise_temperature(resonator, HLI_PSD)
        assert effective_temperature(resonator, 0.0, t_n) == pytest.approx(
            resonator.temperature)

    def test_floor_value(self, resonator):
        t_n = noise_temperature(resonator, HLI_PSD)
        assert effective_temperature_floor(resonator, t_n) == pytest.approx(
            0.27790686514859425, rel=1e-9)

    def test_minimum_approaches_floor(self, resonator):
        # the exact minimum 2 T_n (sqrt(1 + T/T_n) - 1) sits a relative
        # 1/sqrt(T/T_n) below the asymptotic floor 2 sqrt(T T_n)
        t_n = noise_temperature(resonator, HLI_PSD)
        g = np.linspace(500.0, 10000.0, 4001)
        teff = np.array([effective_temperature(resonator, gi, t_n) for gi in g])
        floor = effective_temperature_floor(resonator, t_n)
        assert np.min(teff) == pytest.approx(floor, rel=0.01)
        exact = 2 * t_n * (math.sqrt(1 + resonator.temperature / t_n) - 1)
        assert np.min(teff) == pytest.approx(exact, rel=1e-6)

    def test_convex_in_gain(self, resonator):
        t_n = noise_temperature(resonator, HLI_PSD)
        g = np.linspace(0.1, 5e4, 2001)
        teff = np.array([effective_temperature(resonator, gi, t_n) for gi in g])
        second = np.diff(teff, 2)
        assert np.all(second > 0.0)

    @pytest.mark.parametrize("s_n", [(2e-13) ** 2, HLI_PSD, (1e-10) ** 2])
    def test_agrees_with_analytic_variance(self, resonator, s_n):
        # two statements of one model: (T + g^2 T_n)/(1+g) in kelvin and
        # the analytic variance scaled by m omega0^2 / kB
        t_n = noise_temperature(resonator, s_n)
        for g in np.logspace(0.0, 5.0, 11):
            analytic = closed_loop_variance(
                CoolingSetup(resonator, g, imprecision_psd=s_n)).analytic
            assert effective_temperature(resonator, g, t_n) == pytest.approx(
                analytic.t_eff, rel=1e-12)

    def test_input_validation(self, resonator):
        with pytest.raises(DomainError):
            effective_temperature(resonator, -1.0, 1e-5)
        with pytest.raises(DomainError):
            effective_temperature(resonator, 1.0, -1e-5)
        with pytest.raises(DomainError):
            noise_temperature(resonator, 0.0)
        with pytest.raises(DomainError):
            CoolingSetup(resonator, math.nan, HLI_PSD)
        with pytest.raises(DomainError, match="imprecision_psd"):
            closed_loop_variance(CoolingSetup(resonator, 10.0, math.nan))

    @pytest.mark.parametrize("call", [
        lambda res: effective_temperature(res, math.nan, 1e-5),
        lambda res: effective_temperature(res, 1.0, math.nan),
        lambda res: effective_temperature_floor(res, math.nan),
    ], ids=["teff-gain", "teff-t_n", "floor-t_n"])
    def test_nan_argument_rejected(self, resonator, call):
        with pytest.raises(DomainError):
            call(resonator)
