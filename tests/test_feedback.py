import math

import numpy as np
import pytest

from optocool import (DomainError, Eoam, FeedbackChain, MechanicalResonator,
                      PowerLimitError, actuator_gain, max_dac_gain)

C = 299792458.0


class TestActuator:
    def test_value(self):
        assert actuator_gain() == pytest.approx(6.671281903963041e-9, rel=1e-12)

    def test_one_watt(self):
        assert 1.0 * actuator_gain() == pytest.approx(2.0 / C)

    def test_linear_scaling(self):
        assert 34.43 * actuator_gain() == pytest.approx(2.296922359534475e-7,
                                                        rel=1e-12)


class TestEoam:
    def test_gain_maximum_at_quarter_bias(self, eoam):
        assert eoam.gain() == pytest.approx(
            math.pi * eoam.max_power / eoam.half_wave_voltage, rel=1e-12)

    def test_gain_zero_bias(self):
        flat = Eoam(200.0, 1e-3, bias_angle=0.0)
        assert flat.gain() == pytest.approx(0.0, abs=1e-18)

    def test_gain_matches_finite_difference(self):
        # central finite difference of the transfer P0 cos^2(pi V / Vpi)
        # at random biases
        def power(eoam, v):
            return eoam.max_power * math.cos(
                math.pi * v / eoam.half_wave_voltage) ** 2

        rng = np.random.default_rng(42)
        for theta in rng.uniform(0.05, math.pi / 2 - 0.05, 1000):
            eoam = Eoam(150.0, 2e-3, bias_angle=float(theta))
            v_bias = theta * eoam.half_wave_voltage / math.pi
            h = 1e-5
            fd = abs(power(eoam, v_bias + h)
                     - power(eoam, v_bias - h)) / (2 * h)
            assert fd == pytest.approx(eoam.gain(), rel=1e-6)

    def test_invariants(self):
        with pytest.raises(DomainError):
            Eoam(half_wave_voltage=0.0, max_power=1e-3)
        with pytest.raises(DomainError):
            Eoam(half_wave_voltage=100.0, max_power=0.2, damage_threshold=0.1)
        with pytest.raises(DomainError):
            Eoam(half_wave_voltage=100.0, max_power=1e-3, bias_angle=2.0)
        with pytest.raises(DomainError):
            FeedbackChain(eoam=Eoam(half_wave_voltage=100.0, max_power=1e-3),
                          dac_gain=math.nan, wavelength=1064e-9)


class TestStaticGain:
    def test_closed_form_identity(self):
        # factored product equals the closed form for random parameters
        rng = np.random.default_rng(7)
        for _ in range(50):
            vpi = rng.uniform(50, 500)
            p0 = rng.uniform(1e-4, 5e-2)
            theta = rng.uniform(0.1, math.pi / 2 - 0.1)
            gdac = rng.uniform(1e-3, 10.0)
            lam = rng.uniform(500e-9, 2000e-9)
            chain = FeedbackChain(Eoam(vpi, p0, theta), gdac, lam)
            closed = (4 * math.pi ** 2 / (C * lam)) * gdac * p0 \
                * math.sin(2 * theta) / vpi
            assert chain.static_gain() == pytest.approx(closed, rel=1e-12)

    def test_zero_dac_gain(self, eoam):
        chain = FeedbackChain(eoam, 0.0, 1064e-9)
        assert chain.static_gain() == 0.0

    def test_reference_value(self, eoam):
        # direct evaluation: (4 pi^2 / c lambda) P0 / Vpi at G_DAC = 1
        chain = FeedbackChain(eoam, 1.0, 1064e-9)
        assert chain.static_gain() == pytest.approx(7.178362721682635e-7,
                                                    rel=1e-12)

    def test_jointly_linear(self, eoam):
        chain = FeedbackChain(eoam, 0.3, 1064e-9)
        assert chain.with_power(2 * eoam.max_power).static_gain() == \
            pytest.approx(2 * chain.static_gain(), rel=1e-12)
        assert chain.with_dac_gain(0.6).static_gain() == \
            pytest.approx(2 * chain.static_gain(), rel=1e-12)


class TestGainFactor:
    def test_zero_static_gain(self, eoam, resonator):
        chain = FeedbackChain(eoam, 0.0, 1064e-9)
        assert chain.gain_factor(resonator) == 0.0

    def test_linear_in_power(self, chain, resonator):
        doubled = chain.with_power(2 * chain.eoam.max_power)
        assert doubled.gain_factor(resonator) == pytest.approx(
            2 * chain.gain_factor(resonator), rel=1e-12)

    def test_paper_scenario_first_principles(self, chain, resonator):
        # algebraic reduction oracle g = 2 pi Q P0 / (c m w0^2 x_pp);
        # 1.16 mW at the 200 um span cap gives 0.0254, not the quoted 1
        g = chain.gain_factor(resonator)
        assert g == pytest.approx(0.025356450321192003, rel=1e-9)
        x_pp = 200e-6
        reduced = (2 * math.pi * resonator.q_internal * chain.eoam.max_power
                   / (C * resonator.mass * resonator.omega0 ** 2 * x_pp))
        assert g == pytest.approx(reduced, rel=1e-12)

    def test_monotonicity(self, chain, resonator):
        g = chain.gain_factor(resonator)
        assert chain.with_power(1.5 * chain.eoam.max_power).gain_factor(resonator) > g
        assert chain.with_dac_gain(1.5 * chain.dac_gain).gain_factor(resonator) > g
        heavier = MechanicalResonator(2 * resonator.mass, resonator.omega0,
                                      resonator.q_internal)
        assert chain.gain_factor(heavier) < g
        stiffer = MechanicalResonator(resonator.mass, 2 * resonator.omega0,
                                      resonator.q_internal)
        assert chain.gain_factor(stiffer) < g
        lossier = MechanicalResonator(resonator.mass, resonator.omega0,
                                      resonator.q_internal / 10)
        assert chain.gain_factor(lossier) < g


class TestPowerForGain:
    def test_round_trip(self, chain, resonator):
        for g in (0.01, 0.5, 2.0):
            p0 = chain.required_power(resonator, g)
            back = chain.with_power(p0).gain_factor(resonator)
            assert back == pytest.approx(g, rel=1e-12)

    def test_power_ratio_tracks_gain_ratio(self, chain, resonator):
        lo = chain.required_power(resonator, 1.0)
        hi = chain.required_power(resonator, 3.40e4)
        assert hi / lo == pytest.approx(3.40e4, rel=1e-12)

    def test_g_one_needs_46_milliwatt(self, chain, resonator):
        assert chain.required_power(resonator, 1.0) == pytest.approx(
            0.04574772830211625, rel=1e-9)

    def test_damage_threshold_enforced(self, chain, resonator):
        with pytest.raises(PowerLimitError, match="damage"):
            chain.power_for_gain(resonator, 2159.0)
        # the unchecked variant still reports the requirement
        assert chain.required_power(resonator, 2159.0) > 0.1

    def test_nonpositive_target_rejected(self, chain, resonator):
        with pytest.raises(DomainError):
            chain.required_power(resonator, 0.0)

    def test_zero_transduction_rejected(self, chain, resonator):
        unbiased = Eoam(half_wave_voltage=200.0, max_power=1.16e-3,
                        bias_angle=0.0)
        for dead in (chain.with_dac_gain(0.0),
                     FeedbackChain(eoam=unbiased, dac_gain=chain.dac_gain,
                                   wavelength=chain.wavelength)):
            with pytest.raises(DomainError, match="zero transduction"):
                dead.required_power(resonator, 1.0)

    @pytest.mark.parametrize("bias_angle, dac_gain, named", [
        (0.0, 0.17, "bias_angle"), (math.pi / 4.0, 0.0, "dac_gain"),
        (0.0, 0.0, "bias_angle,dac_gain"),
        (math.pi / 4.0, 5e-324, "bias_angle,dac_gain")],
        ids=["bias", "dac", "both", "underflow"])
    def test_zero_transduction_names_its_factors(self, resonator, bias_angle,
                                                 dac_gain, named):
        # each zero factor, or both where a product of nonzero ones underflows
        chain = FeedbackChain(Eoam(200.0, 1.16e-3, bias_angle=bias_angle),
                              dac_gain=dac_gain, wavelength=1064e-9)
        with pytest.raises(DomainError) as info:
            chain.required_power(resonator, 1.0)
        assert str(info.value) == (f"{named} must give a nonzero "
                                   "transduction sin(2 theta) G_DAC")


class TestMaxDacGain:
    def test_reference_value(self):
        assert max_dac_gain(200.0, 1064e-9, 200e-6) == pytest.approx(
            0.16934085944977667, rel=1e-12)

    def test_halving_span_doubles_gain(self):
        assert max_dac_gain(200.0, 1064e-9, 100e-6) == pytest.approx(
            2 * max_dac_gain(200.0, 1064e-9, 200e-6), rel=1e-12)

    def test_drive_stays_within_half_wave(self):
        # at the cap, the phase span of the motion maps to exactly Vpi
        vpi, lam, x_pp = 200.0, 1064e-9, 200e-6
        gd = max_dac_gain(vpi, lam, x_pp)
        phase_span = 2 * math.pi * x_pp / lam
        assert gd * phase_span == pytest.approx(vpi, rel=1e-12)

    def test_zero_span_rejected(self):
        with pytest.raises(DomainError):
            max_dac_gain(200.0, 1064e-9, 0.0)


def test_gain_both_routes_agree(chain, resonator):
    # composed chain vs the reduced span form, 1e-12 relative
    x_pp = 200e-6
    reduced = (2 * math.pi * resonator.q_internal * chain.eoam.max_power
               / (C * resonator.mass * resonator.omega0 ** 2 * x_pp))
    assert chain.gain_factor(resonator) == pytest.approx(reduced, rel=1e-12)
