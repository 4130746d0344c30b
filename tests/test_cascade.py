import math
from dataclasses import replace

import numpy as np
import pytest

from optocool import (CascadeConfig, DomainError, InfeasibleError,
                      compare_single_step, effective_temperature,
                      noise_temperature, optimal_gain, plan_cascade,
                      variance_evolution)

HLI_PSD = (5e-12) ** 2


def paper_cascade_config(**overrides):
    defaults = dict(initial_gain=1.0, initial_span=200e-6)
    defaults.update(overrides)
    return CascadeConfig(**defaults)


@pytest.fixture
def sturdy_chain(chain):
    # modulator rated for the multi-watt initial gains some scenarios need
    return replace(chain, eoam=replace(chain.eoam, damage_threshold=200.0))


class TestVarianceEvolution:
    def test_t_zero(self):
        assert variance_evolution(10.0, 3e-10, 1e-4, 0.0) == pytest.approx(
            3e-10, rel=1e-12)

    def test_asymptote(self):
        g, x2 = 25.0, 4e-10
        val = variance_evolution(g, x2, 1e-4, 1e9)
        assert val == pytest.approx(x2 / (1 + g), rel=1e-12)

    def test_time_constant(self):
        # direct substitution at t = 1/((1+g) gamma)
        g, x2, gamma = 7.0, 1e-9, 6.2e-5
        t = 1.0 / ((1 + g) * gamma)
        expected = x2 * (1 + g / math.e) / (1 + g)
        assert variance_evolution(g, x2, gamma, t) == pytest.approx(
            expected, rel=1e-12)

    def test_monotone_nonincreasing(self):
        t = np.linspace(0.0, 1e5, 1000)
        vals = variance_evolution(3.0, 1e-10, 6.2e-5, t)
        assert np.all(np.diff(vals) <= 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            variance_evolution(-1.0, 1e-10, 1e-4, 1.0)
        with pytest.raises(DomainError):
            variance_evolution(1.0, 1e-10, 1e-4, -1.0)

    def test_nan_inputs_rejected(self):
        with pytest.raises(DomainError, match="g must"):
            variance_evolution(math.nan, 1e-10, 1e-4, 1.0)
        with pytest.raises(DomainError, match="t must"):
            variance_evolution(1.0, 1e-10, 1e-4, math.nan)
        with pytest.raises(DomainError, match="t must"):
            variance_evolution(1.0, 1e-10, 1e-4, np.array([0.0, math.nan]))


class TestPlanCascade:
    def test_variance_at_rejects_nan(self, chain, resonator, hli, fpi):
        schedule = plan_cascade(paper_cascade_config(), chain, resonator,
                                hli, fpi)
        with pytest.raises(DomainError):
            schedule.variance_at(math.nan)

    def test_paper_scenario_reaches_single_step_level(self, chain, resonator,
                                                      hli, fpi):
        cfg = paper_cascade_config()
        schedule = plan_cascade(cfg, chain, resonator, hli, fpi)
        assert schedule.termination == "reached_target_gain"
        g_opt = optimal_gain(resonator, HLI_PSD).closed_form
        t_n = noise_temperature(resonator, HLI_PSD)
        single = effective_temperature(resonator, g_opt, t_n)
        assert schedule.final_t_eff == pytest.approx(single, rel=0.02)
        assert schedule.stages[-1].gain == pytest.approx(g_opt, rel=1e-9)

    def test_gains_increase_variance_decreases(self, chain, resonator, hli, fpi):
        # gains rise strictly until the target, then hold while the final
        # stages settle onto the imprecision floor
        schedule = plan_cascade(paper_cascade_config(), chain, resonator,
                                hli, fpi)
        gains = [s.gain for s in schedule.stages]
        target = optimal_gain(resonator, HLI_PSD).closed_form
        rising = [g for g in gains if g < target * (1 - 1e-9)]
        assert all(b > a for a, b in zip(rising, rising[1:]))
        assert all(b >= a for a, b in zip(gains, gains[1:]))
        variances = [s.variance_out for s in schedule.stages]
        assert all(b < a for a, b in zip(variances, variances[1:]))
        assert all(s.duration > 0 for s in schedule.stages)

    def test_gain_ratio_equals_dac_ratio(self, chain, resonator, hli, fpi):
        # fixed optical power makes g proportional to the digital gain
        schedule = plan_cascade(paper_cascade_config(), chain, resonator,
                                hli, fpi)
        for a, b in zip(schedule.stages, schedule.stages[1:]):
            assert b.gain / a.gain == pytest.approx(b.dac_gain / a.dac_gain,
                                                    rel=1e-9)

    def test_evolution_internal_consistency(self, chain, resonator, hli, fpi):
        schedule = plan_cascade(paper_cascade_config(), chain, resonator,
                                hli, fpi)
        for s in schedule.stages:
            expected = max(
                variance_evolution(s.gain, s.variance_in, schedule.gamma_m,
                                   s.duration),
                s.variance_floor)
            assert s.variance_out == pytest.approx(expected, rel=1e-12)

    def test_degenerate_single_stage(self, sturdy_chain, resonator, hli, fpi):
        # already at the optimal gain and close enough to equilibrium that
        # one settling block reaches the floor
        g_opt = optimal_gain(resonator, HLI_PSD).closed_form
        # a span of 10 sqrt(1e-21) m starts at variance 1e-21 m^2
        cfg = CascadeConfig(initial_gain=g_opt,
                            initial_span=10.0 * math.sqrt(1e-21))
        schedule = plan_cascade(cfg, sturdy_chain, resonator, hli, fpi)
        assert len(schedule.stages) == 1
        gamma = schedule.gamma_m
        assert schedule.total_time == pytest.approx(
            7.0 / ((1 + g_opt) * gamma), rel=1e-12)
        assert schedule.termination == "reached_target_gain"

    def test_imprecision_floor_termination(self, chain, resonator, hli, fpi):
        # a small start span caps the DAC gain high, but the feedthrough
        # floor stops the span from shrinking before the target gain
        cfg = CascadeConfig(initial_gain=1.0, initial_span=1e-8)
        schedule = plan_cascade(cfg, chain, resonator, hli, fpi)
        assert schedule.termination == "imprecision_floor"
        gains = [s.gain for s in schedule.stages]
        assert all(b >= a for a, b in zip(gains, gains[1:]))
        last = schedule.stages[-1]
        assert last.variance_out == last.variance_floor

    def test_infeasible_power_reports_minimum(self, chain, resonator, hli, fpi):
        cfg = paper_cascade_config(power=1e-6)
        with pytest.raises(InfeasibleError, match="minimum power"):
            plan_cascade(cfg, chain, resonator, hli, fpi)

    def test_overflowing_dac_gain_infeasible(self, chain, resonator, hli, fpi):
        # the cap Vpi wavelength / (2 pi span) starts at 1.6e305 V/rad and
        # overflows as the span shrinks, while the gain stays finite
        wide = replace(chain, wavelength=1e300)
        with pytest.raises(InfeasibleError, match=r"^stage \d+: the DAC gain "
                           r"for g = \S+ is inf V/rad, not finite$"):
            plan_cascade(paper_cascade_config(), wide, resonator, hli, fpi)

    def test_faster_with_larger_initial_gain(self, sturdy_chain, resonator,
                                             hli, fpi):
        # proportionally larger power, fewer stages, shorter total time
        times, counts = [], []
        for g0 in (1.0, 2.0, 5.0, 10.0):
            schedule = plan_cascade(paper_cascade_config(initial_gain=g0),
                                    sturdy_chain, resonator, hli, fpi)
            assert schedule.termination == "reached_target_gain"
            times.append(schedule.total_time)
            counts.append(len(schedule.stages))
        assert all(b < a for a, b in zip(times, times[1:]))
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_power_scales_with_initial_gain(self, sturdy_chain, resonator,
                                            hli, fpi):
        p1 = plan_cascade(paper_cascade_config(initial_gain=1.0),
                          sturdy_chain, resonator, hli, fpi).power
        p5 = plan_cascade(paper_cascade_config(initial_gain=5.0),
                          sturdy_chain, resonator, hli, fpi).power
        assert p5 == pytest.approx(5 * p1, rel=1e-9)

    def test_handover_termination(self, chain, resonator, hli, fpi):
        cfg = paper_cascade_config(termination="handover")
        schedule = plan_cascade(cfg, chain, resonator, hli, fpi)
        assert schedule.termination == "handover"
        last = schedule.stages[-1]
        assert last.handover
        assert math.sqrt(last.variance_out) < fpi.capture_range()
        # every earlier stage was still outside the capture range
        for s in schedule.stages[:-1]:
            assert not s.handover

    def test_post_handover_continuation(self, chain, resonator, hli, fpi):
        fpi_psd = (2e-13) ** 2
        noisy = replace(fpi,
                        readout_noise=2e-13 * fpi.displacement_to_frequency)
        cfg = paper_cascade_config(termination="handover")
        schedule = plan_cascade(cfg, chain, resonator, hli, noisy)
        assert schedule.termination == "reached_target_gain"
        readouts = [s.readout for s in schedule.stages]
        assert readouts[0] == "hli"
        assert "fpi" in readouts
        g_opt_fpi = optimal_gain(resonator, fpi_psd).closed_form
        assert schedule.stages[-1].gain == pytest.approx(g_opt_fpi, rel=1e-9)

    def test_sampling_matches_stage_boundaries(self, chain, resonator, hli, fpi):
        schedule = plan_cascade(paper_cascade_config(), chain, resonator,
                                hli, fpi)
        assert schedule.variance_at(0.0) == pytest.approx(
            schedule.stages[0].variance_in, rel=1e-9)
        for s in schedule.stages:
            end = s.start + s.duration
            assert schedule.variance_at(end * (1 - 1e-12)) == pytest.approx(
                s.variance_out, rel=1e-6)
        t = np.linspace(0.0, schedule.total_time, 500)
        vals = [schedule.variance_at(ti) for ti in t]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("overrides, fpi_asd", [
        ({}, None), ({"initial_gain": 0.5}, None),
        ({"termination": "handover"}, 2e-13)],
        ids=["default", "g0-0.5", "handover-fpi"])
    def test_variance_at_bit_for_bit(self, chain, resonator, hli, fpi,
                                     overrides, fpi_asd):
        # reference: the first stage ending after t, else the last stage,
        # through the checked variance_evolution
        if fpi_asd is not None:
            fpi = replace(fpi,
                          readout_noise=fpi_asd * fpi.displacement_to_frequency)
        schedule = plan_cascade(paper_cascade_config(**overrides), chain,
                                resonator, hli, fpi)
        stages = schedule.stages

        def reference(t):
            stage = next((s for s in stages if t < s.start + s.duration),
                         stages[-1])
            tau = min(max(t - stage.start, 0.0), stage.duration)
            return max(variance_evolution(stage.gain, stage.variance_in,
                                          schedule.gamma_m, tau),
                       stage.variance_floor)

        # the times `cascade run` samples, then every stage start and end
        times = list(np.logspace(math.log10(stages[0].duration / 100.0),
                                 math.log10(schedule.total_time), 400))
        for s in stages:
            end = s.start + s.duration
            times += [s.start, end, end * (1 + 1e-12), end * (1 - 1e-12)]
        times += [0.0, 2.0 * schedule.total_time]
        got = [schedule.variance_at(t) for t in times]
        assert all(type(v) is float for v in got)
        assert got == [reference(t) for t in times]

    def test_config_validation(self):
        with pytest.raises(DomainError):
            CascadeConfig(initial_gain=0.0, initial_span=1e-4)
        with pytest.raises(DomainError):
            CascadeConfig(initial_gain=1.0)
        with pytest.raises(DomainError):
            CascadeConfig(initial_span=1e-4, n_settle=0.5)
        with pytest.raises(DomainError):
            CascadeConfig(initial_span=1e-4, n_settle=math.nan)
        with pytest.raises(DomainError):
            CascadeConfig(initial_span=1e-4, safety_factor=math.nan)
        with pytest.raises(DomainError):
            CascadeConfig(initial_span=1e-4, termination="sometimes")
        with pytest.raises(DomainError, match="power must be > 0"):
            CascadeConfig(initial_span=1e-4, power=0.0)
        for field in ("power", "n_settle", "safety_factor", "initial_span"):
            with pytest.raises(DomainError, match=f"^{field} must be finite"):
                CascadeConfig(**{"initial_span": 1e-4, field: math.inf})


    @pytest.mark.parametrize("target", [0.0, -5.0, math.nan, math.inf])
    def test_target_gain_must_be_positive(self, target):
        with pytest.raises(DomainError, match="target_gain"):
            CascadeConfig(initial_span=1e-4, target_gain=target)

class TestHandoverCheck:
    def test_small_rms_passes(self, chain, resonator, hli, fpi):
        schedule = plan_cascade(paper_cascade_config(), chain, resonator,
                                hli, fpi)
        final = schedule.stages[-1]
        assert math.sqrt(final.variance_out) < 1e-9
        assert final.handover

    def test_large_rms_fails(self, chain, resonator, hli, fpi):
        schedule = plan_cascade(paper_cascade_config(), chain, resonator,
                                hli, fpi)
        first = schedule.stages[0]
        assert math.sqrt(first.variance_out) > 1e-6
        assert not first.handover

    def test_boundary_is_strict(self, chain, resonator, hli, fpi):
        # a stage hands over iff the capture check passes on its exit rms,
        # and equality with the capture range does not hand over
        schedule = plan_cascade(paper_cascade_config(), chain, resonator,
                                hli, fpi)
        for stage in schedule.stages:
            assert stage.handover == fpi.capture_check(
                math.sqrt(stage.variance_out))
        assert not fpi.capture_check(math.sqrt(fpi.capture_range() ** 2))
        assert fpi.capture_check(math.sqrt((0.999 * fpi.capture_range()) ** 2))


class TestCompareSingleStep:
    def test_paper_numbers(self, chain, resonator, hli, fpi):
        g_opt = optimal_gain(resonator, HLI_PSD).closed_form
        cfg = paper_cascade_config()
        cmp = compare_single_step(g_opt, cfg, chain, resonator, hli, fpi)
        # analytic: settle time 7/((1+g) gamma), order one minute
        gamma = resonator.damping_rate(resonator.omega0)
        assert cmp.single_time == pytest.approx(7.0 / ((1 + g_opt) * gamma),
                                                rel=1e-12)
        assert 20.0 < cmp.single_time < 120.0
        assert cmp.single_exceeds_threshold  # ~99 W against a 0.1 W limit
        assert cmp.cascade_power < 0.1
        assert cmp.cascade_time > cmp.single_time

    def test_power_ratio_is_gain_ratio(self, chain, resonator, hli, fpi):
        cfg = paper_cascade_config()
        cmp = compare_single_step(500.0, cfg, chain, resonator, hli, fpi)
        assert cmp.single_power / cmp.cascade_power == pytest.approx(
            500.0 / cfg.initial_gain, rel=1e-9)

    def test_reciprocity_order_of_magnitude(self, chain, resonator, hli, fpi):
        g_opt = optimal_gain(resonator, HLI_PSD).closed_form
        cmp = compare_single_step(g_opt, paper_cascade_config(), chain,
                                  resonator, hli, fpi)
        assert 0.1 <= cmp.reciprocity <= 10.0
