"""Acceptance suite: one test per criterion, each printing a PASS line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and nowhere else.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from optocool import (CascadeConfig, CoolingSetup, HliReadout,
                      MechanicalResonator, SimConfig, closed_loop_variance,
                      compare_single_step, effective_susceptibility,
                      effective_temperature, effective_temperature_floor,
                      estimate_psd, fit_q_from_ringdown,
                      monte_carlo_variance, noise_temperature, optimal_gain,
                      plan_cascade, preset_resonator, simulate,
                      variance_evolution)
from optocool.cli import run_command
from optocool.cooling import open_loop_thermal_variance

TWO_PI = 2 * math.pi
HLI_PSD = (5e-12) ** 2


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_dynamic_range(fpi):
    value = fpi.dynamic_range()
    assert value == pytest.approx(1.775e-6, rel=1e-3)
    assert value == pytest.approx(1.8e-6, rel=0.02)
    _report(1, "dynamic range 1.775 um within 2% of 1.8 um")


def test_02_damping_rate(resonator):
    gamma = float(resonator.damping_rate(resonator.omega0))
    assert gamma == pytest.approx(resonator.omega0 / resonator.q_internal,
                                  rel=1e-12)
    assert gamma == pytest.approx(TWO_PI * 9.9e-6, rel=1e-3)
    assert gamma == pytest.approx(TWO_PI * 10e-6, rel=0.05)
    _report(2, "damping rate 2 pi x 9.9 uHz within 5% of 2 pi x 10 uHz")


def test_03_resonance_suppression(resonator):
    w0 = resonator.omega0
    chi_open = abs(effective_susceptibility(resonator, 0.0, w0))
    for g in (2500.0, 5000.0, 10000.0):
        ratio = abs(effective_susceptibility(resonator, g, w0)) / chi_open
        assert ratio == pytest.approx(1.0 / (1.0 + g), rel=1e-3)
    _report(3, "resonance suppression 1/(1+g) to 0.1%")


def test_04_optimal_gain_consistency():
    rng = np.random.default_rng(77)
    for _ in range(20):
        res = MechanicalResonator(
            mass=float(rng.uniform(1e-4, 1e-1)),
            omega0=float(rng.uniform(1.0, 1e3)),
            q_internal=float(10 ** rng.uniform(3, 6)),
            temperature=float(rng.uniform(10.0, 600.0)))
        ratio = 10 ** rng.uniform(4, 8)  # T / T_n
        s_n = (4 * open_loop_thermal_variance(res)
               / (float(res.damping_rate(res.omega0)) * ratio))
        got = optimal_gain(res, s_n)
        assert got.minimized == pytest.approx(got.closed_form, rel=0.02)
    _report(4, "numeric gain minimizer within 2% of closed form, 20 sets")


def test_05_temperature_floor(resonator):
    t_n = noise_temperature(resonator, HLI_PSD)
    floor = effective_temperature_floor(resonator, t_n)
    assert floor == pytest.approx(0.278, rel=2e-3)

    rng = np.random.default_rng(5)
    cases = [(resonator.temperature, t_n)]
    cases += [(300.0, 300.0 / float(10 ** rng.uniform(4, 7)))
              for _ in range(10)]
    for temp, tn in cases:
        res = resonator.with_temperature(temp)
        fit = minimize_scalar(
            lambda g: effective_temperature(res, g, tn),
            bounds=(1.0, 1e9), method="bounded",
            options={"xatol": 1e-3})
        t_min = effective_temperature(res, float(fit.x), tn)
        assert t_min == pytest.approx(
            effective_temperature_floor(res, tn), rel=0.01)
    _report(5, "min T_eff equals 2 sqrt(T T_n) within 1%; floor 0.278 K")


def test_06_variance_evolution():
    gamma = 6.217323825972253e-5
    for g in (1.0, 100.0, 3.4e4):
        x2_0 = 4e-10
        assert variance_evolution(g, x2_0, gamma, 0.0) == pytest.approx(
            x2_0, rel=1e-12)
        tail = variance_evolution(g, x2_0, gamma, 1e12)
        assert tail == pytest.approx(x2_0 / (1.0 + g), rel=1e-12)
        t = np.linspace(0.0, 20.0 / ((1 + g) * gamma), 1000)
        vals = variance_evolution(g, x2_0, gamma, t)
        assert np.all(np.diff(vals) <= 0.0)
    _report(6, "relaxation endpoints exact to 1e-12; monotone on 1000-pt grid")


def test_07_cascade_equivalence(chain, resonator, hli, fpi):
    cfg = CascadeConfig(initial_gain=1.0, initial_span=200e-6)
    schedule = plan_cascade(cfg, chain, resonator, hli, fpi)
    assert schedule.termination == "reached_target_gain"
    g_opt = optimal_gain(resonator, HLI_PSD).closed_form
    t_n = noise_temperature(resonator, HLI_PSD)
    single_step = effective_temperature(resonator, g_opt, t_n)
    assert schedule.final_t_eff == pytest.approx(single_step, rel=0.05)
    _report(7, "cascade final T_eff matches single-step g_opt within 5%")


def test_08_power_time_reciprocity(chain, resonator, hli, fpi):
    g_opt = optimal_gain(resonator, HLI_PSD).closed_form
    cfg = CascadeConfig(initial_gain=1.0, initial_span=200e-6)
    cmp = compare_single_step(g_opt, cfg, chain, resonator, hli, fpi)
    assert cmp.power_ratio < 1.0 < cmp.time_ratio
    assert 0.1 <= cmp.reciprocity <= 10.0
    _report(8, "power reduction x time increase within 0.1x-10x of unity")


def test_09_monte_carlo_closure(resonator):
    res = preset_resonator(resonator, 100.0)
    f0 = res.omega0 / TWO_PI
    gamma = float(res.damping_rate(res.omega0))
    g_opt = 15.0  # imprecision chosen to put the preset optimum here
    s_n = 4 * open_loop_thermal_variance(res) / (gamma * g_opt ** 2)
    assert optimal_gain(res, s_n).closed_form == pytest.approx(g_opt, rel=1e-9)
    hli = HliReadout(wavelength=1064e-9, imprecision_asd=math.sqrt(s_n))

    for g, seed in ((0.0, 3100), (10.0, 3200), (g_opt, 3300)):
        if g == 0.0:
            cfg = SimConfig(duration=200.0 / gamma, seed=seed)
            mc = monte_carlo_variance(cfg, res, 20)
            ref = closed_loop_variance(
                CoolingSetup(res, 0.0, imprecision_psd=0.0)).numeric.variance
        else:
            cfg = SimConfig(duration=400.0 / ((1 + g) * gamma),
                            dt=1.0 / (200 * f0), seed=seed,
                            controller="derivative", gain=g,
                            bandpass_quality=0.3)
            mc = monte_carlo_variance(cfg, res, 20, hli=hli)
            ref = closed_loop_variance(
                CoolingSetup(res, g, imprecision_psd=s_n)).numeric.variance
        assert mc.stationary
        assert mc.mean == pytest.approx(ref, rel=0.10), f"g = {g}"
    _report(9, "20-seed Langevin variance within 10% of band integral, "
               "g in {0, 10, g_opt}")


def test_10_spectral_closure(resonator):
    res = preset_resonator(resonator, 100.0)
    gamma = float(res.damping_rate(res.omega0))
    f0 = res.omega0 / TWO_PI
    psds = []
    for seed in range(20):
        cfg = SimConfig(duration=170.0, dt=1.0 / (100 * f0), seed=9000 + seed)
        trace = simulate(cfg, res)
        rec = estimate_psd(trace.x, 100 * f0, 2 ** 14, unit="m^2/Hz")
        psds.append(rec.values)
    median_psd = np.median(np.asarray(psds), axis=0)
    omega = rec.omega
    band = ((omega > res.omega0 - 10 * gamma)
            & (omega < res.omega0 + 10 * gamma))
    chi_m = effective_susceptibility(res, 0.0, omega[band])
    analytic = np.abs(chi_m) ** 2 * res.thermal_force_psd(omega[band])
    ratio = median_psd[band] / analytic
    assert float(np.median(ratio)) == pytest.approx(1.0, abs=0.15)
    integrated = (np.trapezoid(median_psd[band], omega[band])
                  / np.trapezoid(analytic, omega[band]))
    assert integrated == pytest.approx(1.0, abs=0.15)
    _report(10, "Welch PSD within 15% of |chi_m|^2 S_FF in omega0 +- 10 gamma")


def test_11_ringdown_round_trips(resonator):
    gamma = float(resonator.damping_rate(resonator.omega0))
    t = np.linspace(0.0, 6.0 / gamma, 300)
    env = resonator.ringdown_envelope(1e-6, t)
    fit = fit_q_from_ringdown(t, env, omega0=resonator.omega0)
    assert fit.q == pytest.approx(4.77e5, rel=0.01)

    res100 = preset_resonator(resonator, 100.0).with_temperature(0.0)
    trace = simulate(SimConfig(duration=25.0, x0=1e-6, seed=1), res100)
    fit100 = fit_q_from_ringdown(trace.t, trace.x)
    assert fit100.q == pytest.approx(100.0, rel=0.01)
    _report(11, "ringdown Q recovered within 1% (analytic and time domain)")


def test_12_paper_report(tmp_path):
    run_command(["--out", str(tmp_path), "paper-report"])
    text = (tmp_path / "paper_report.txt").read_text()
    rows = {}
    for line in text.splitlines():
        if "|" in line and not line.startswith(("#", "quantity")):
            parts = [p.strip() for p in line.split("|")]
            rows[parts[0]] = (float(parts[2]), float(parts[3]), parts[5])

    expected_flags = {
        "g_opt": "DEVIATION",
        "P0_for_g1": "DEVIATION",
        "P0_for_g_opt": "DEVIATION",
        "a_th_at_resonance": "DEVIATION",
        "dynamic_range": "MATCH",
        "gamma_m": "MATCH",
    }
    references = {
        "g_opt": 3.40e4,
        "P0_for_g1": 1.16e-3,
        "P0_for_g_opt": 34.43,
        "a_th_at_resonance": 1e-11,
        "dynamic_range": 1.8e-6,
        "gamma_m": TWO_PI * 10e-6,
    }
    for name, flag in expected_flags.items():
        assert name in rows, f"missing row {name}"
        computed, reference, got_flag = rows[name]
        assert reference == pytest.approx(references[name], rel=1e-9)
        assert got_flag == flag, f"{name}: {got_flag} != {flag}"
        deviation = abs(computed / reference - 1.0)
        assert (deviation <= 0.10) == (flag == "MATCH")
    _report(12, "paper-report emits all six quantities with honest flags")
