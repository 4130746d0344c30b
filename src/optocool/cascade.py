"""Cascaded feedback cooling scheduler.

A single cooling step at high gain needs an optical power proportional to
the gain, because the digital gain is capped by the test-mass displacement
span. Cooling shrinks that span, so the cap rises as the mass cools: the
cascade holds the optical power fixed, waits for each stage to settle, then
re-derives the span, raises the digital gain to its new cap, and repeats
until the target gain (or the Fabry-Perot capture range) is reached.

Stage-advance rule: a stage runs for ``n_settle`` e-folds of its closed-loop
variance decay; the next span estimate is 2 * safety_factor * rms so the
modulator drive stays within the half-wave voltage against amplitude
fluctuations. The scheduled variance never drops below the analytic
imprecision-feedthrough floor for the stage's gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import KB
from .cooling import analytic_variance, optimal_gain
from .errors import DomainError, InfeasibleError
from .feedback import FeedbackChain, max_dac_gain
from .readout import FpiReadout, HliReadout
from .resonator import MechanicalResonator

TERMINATE_GAIN = "gain"
TERMINATE_HANDOVER = "handover"

REASON_TARGET = "reached_target_gain"
REASON_HANDOVER = "handover"
REASON_MAX_STAGES = "max_stages"
REASON_FLOOR = "imprecision_floor"

_REL_TOL = 1.0 + 1e-9


def variance_evolution(g: float, x2_0: float, gamma_m: float, t) -> float:
    """Closed-loop variance relaxation from x2_0 at gain g, m^2.

    <x^2(t)> = x2_0 / (1+g) * (1 + g exp(-(1+g) gamma_m t))
    """
    if not g >= 0.0:
        raise DomainError("g must be >= 0")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("t must be >= 0")
    out = x2_0 / (1.0 + g) * (1.0 + g * np.exp(-(1.0 + g) * gamma_m * t))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CascadeConfig:
    """Knobs of the cascade planner.

    initial_gain        : g0 of the first stage
    power               : fixed optical power, W; None means the minimum
                          power that realizes g0 at the initial span
    n_settle            : variance e-folds per stage before advancing
    safety_factor       : span estimate is 2 * safety_factor * rms
    termination         : "gain" (run to target_gain) or "handover" (stop
                          once rms falls inside the Fabry-Perot capture range)
    max_stages          : hard stage cap
    initial_span        : starting peak-to-peak displacement, m
    initial_variance    : starting variance, m^2 (alternative to the span)
    target_gain         : final gain; None means the optimal gain for the
                          long-range readout's imprecision
    fpi_imprecision_psd : optional displacement imprecision of the
                          Fabry-Perot readout, m^2/Hz; with termination
                          "handover" the cascade then continues on the new
                          readout to its recomputed optimal gain
    """

    initial_gain: float = 1.0
    power: float | None = None
    n_settle: float = 7.0
    safety_factor: float = 5.0
    termination: str = TERMINATE_GAIN
    max_stages: int = 64
    initial_span: float | None = None
    initial_variance: float | None = None
    target_gain: float | None = None
    fpi_imprecision_psd: float | None = None

    def __post_init__(self):
        if not self.initial_gain > 0.0:
            raise DomainError("initial_gain must be > 0")
        if not self.n_settle >= 1.0:
            raise DomainError("n_settle must be >= 1")
        if not self.safety_factor >= 1.0:
            raise DomainError("safety_factor must be >= 1")
        if self.termination not in (TERMINATE_GAIN, TERMINATE_HANDOVER):
            raise DomainError("termination must be 'gain' or 'handover'")
        if self.max_stages < 1:
            raise DomainError("max_stages must be >= 1")
        if (self.initial_span is None) == (self.initial_variance is None):
            raise DomainError("give exactly one of initial_span / initial_variance")
        if self.initial_span is not None and not self.initial_span > 0.0:
            raise DomainError("initial_span must be > 0")
        if self.initial_variance is not None and not self.initial_variance > 0.0:
            raise DomainError("initial_variance must be > 0")
        if self.target_gain is not None and not 0.0 < self.target_gain < math.inf:
            raise DomainError("target_gain must be finite and > 0")

    def starting_variance(self) -> float:
        if self.initial_variance is not None:
            return self.initial_variance
        rms = self.initial_span / (2.0 * self.safety_factor)
        return rms * rms

    def starting_span(self) -> float:
        if self.initial_span is not None:
            return self.initial_span
        return 2.0 * self.safety_factor * math.sqrt(self.initial_variance)


@dataclass(frozen=True)
class CascadeStage:
    """One fixed-gain segment of the schedule."""

    index: int
    gain: float
    dac_gain: float        # V/rad
    start: float           # s
    duration: float        # s
    variance_in: float     # m^2
    variance_out: float    # m^2
    variance_floor: float  # analytic feedthrough floor at this gain, m^2
    t_eff_out: float       # K
    readout: str           # "hli" or "fpi"
    handover: bool         # exit rms inside the capture range


@dataclass(frozen=True)
class CascadeSchedule:
    """Planned cascade with bookkeeping for time-series sampling."""

    stages: tuple
    termination: str
    power: float           # W, fixed across stages
    total_time: float      # s
    gamma_m: float         # rad/s, damping rate at resonance
    teff_scale: float      # m omega0^2 / kB, K per m^2
    handover_stage: int | None

    @property
    def final_t_eff(self) -> float:
        return self.stages[-1].t_eff_out

    def variance_at(self, t: float) -> float:
        """Scheduled variance at absolute time t, m^2 (clamped per stage)."""
        if not t >= 0.0:
            raise DomainError("t must be >= 0")
        for stage in self.stages:
            if t < stage.start + stage.duration or stage is self.stages[-1]:
                tau = min(max(t - stage.start, 0.0), stage.duration)
                val = variance_evolution(stage.gain, stage.variance_in,
                                         self.gamma_m, tau)
                return max(val, stage.variance_floor)

    def t_eff_at(self, t: float) -> float:
        return self.teff_scale * self.variance_at(t)


def plan_cascade(cfg: CascadeConfig, chain: FeedbackChain,
                 res: MechanicalResonator, hli: HliReadout,
                 fpi: FpiReadout) -> CascadeSchedule:
    """Plan the staged gain increases at fixed optical power.

    Raises ``InfeasibleError`` when the configured power cannot realize the
    initial gain at the initial span's digital-gain cap; the message reports
    the minimum power.
    """
    gamma = float(res.damping_rate(res.omega0))
    teff_scale = res.mass * res.omega0 ** 2 / KB

    hli_psd = float(hli.imprecision_psd_at(res.omega0))
    target = cfg.target_gain
    if target is None:
        target = optimal_gain(res, hli_psd).closed_form

    span0 = cfg.starting_span()
    dac0 = max_dac_gain(chain.eoam.half_wave_voltage, chain.wavelength, span0)
    if cfg.power is None:
        power = chain.with_dac_gain(dac0).power_for_gain(res, cfg.initial_gain)
    else:
        power = cfg.power
        reachable = chain.with_dac_gain(dac0).with_power(power).gain_factor(res)
        if reachable * _REL_TOL < cfg.initial_gain:
            minimum = chain.with_dac_gain(dac0).required_power(res, cfg.initial_gain)
            raise InfeasibleError(
                f"g0 = {cfg.initial_gain:g} is not reachable at P0 = "
                f"{power:.4g} W with the initial span {span0:.4g} m; "
                f"minimum power is {minimum:.4g} W")

    # trim the first stage's digital gain so it runs at exactly g0
    powered = chain.with_power(power)
    gain_per_dac = powered.with_dac_gain(1.0).gain_factor(res)
    g = cfg.initial_gain
    dac = g / gain_per_dac
    noise_psd = hli_psd
    readout = "hli"
    switched = False

    stages = []
    variance = cfg.starting_variance()
    t_start = 0.0
    termination = REASON_MAX_STAGES
    for index in range(1, cfg.max_stages + 1):
        duration = cfg.n_settle / ((1.0 + g) * gamma)
        decayed = variance_evolution(g, variance, gamma, duration)
        floor = sum(analytic_variance(res, g, noise_psd))
        var_out = max(decayed, floor)
        stage = CascadeStage(
            index=index, gain=g, dac_gain=dac, start=t_start,
            duration=duration, variance_in=variance, variance_out=var_out,
            variance_floor=floor, t_eff_out=teff_scale * var_out,
            readout=readout,
            handover=fpi.capture_check(math.sqrt(var_out)))
        stages.append(stage)
        t_start += duration
        variance = var_out

        at_target = g >= target / _REL_TOL
        if at_target and var_out <= floor * _REL_TOL:
            # equilibrium reached at the target gain: cooling complete
            termination = REASON_TARGET
            break
        if (cfg.termination == TERMINATE_HANDOVER and stage.handover
                and not switched):
            if cfg.fpi_imprecision_psd is not None:
                switched = True
                readout = "fpi"
                noise_psd = cfg.fpi_imprecision_psd
                target = optimal_gain(res, noise_psd).closed_form
                at_target = g >= target / _REL_TOL
            else:
                termination = REASON_HANDOVER
                break

        if at_target:
            # hold the target gain and keep settling toward the floor
            continue
        span = 2.0 * cfg.safety_factor * math.sqrt(variance)
        dac_next = max_dac_gain(chain.eoam.half_wave_voltage,
                                chain.wavelength, span)
        g_next = g * dac_next / dac
        if g_next <= g * _REL_TOL:
            termination = REASON_FLOOR
            break
        if g_next > target:
            dac_next = dac * target / g
            g_next = target
        g, dac = g_next, dac_next

    handover_stage = next((s.index for s in stages if s.handover), None)
    return CascadeSchedule(
        stages=tuple(stages), termination=termination, power=power,
        total_time=sum(s.duration for s in stages), gamma_m=gamma,
        teff_scale=teff_scale, handover_stage=handover_stage)


@dataclass(frozen=True)
class SingleStepComparison:
    """Cascade vs single-step cooling to the same target gain."""

    target_gain: float
    single_power: float            # W needed in one step
    single_time: float             # s to settle in one step
    single_exceeds_threshold: bool
    cascade_power: float           # W, fixed cascade power
    cascade_time: float            # s, total schedule time
    cascade_stages: int
    power_ratio: float             # cascade / single (fold reduction < 1)
    time_ratio: float              # cascade / single (fold increase > 1)
    reciprocity: float             # power_ratio * time_ratio


def compare_single_step(g_target: float, cfg: CascadeConfig,
                        chain: FeedbackChain, res: MechanicalResonator,
                        hli: HliReadout, fpi: FpiReadout) -> SingleStepComparison:
    """Compare one-step cooling at ``g_target`` against the cascade."""
    gamma = float(res.damping_rate(res.omega0))
    span0 = cfg.starting_span()
    dac0 = max_dac_gain(chain.eoam.half_wave_voltage, chain.wavelength, span0)
    single_power = chain.with_dac_gain(dac0).required_power(res, g_target)
    single_time = cfg.n_settle / ((1.0 + g_target) * gamma)

    schedule = plan_cascade(replace(cfg, target_gain=g_target),
                            chain, res, hli, fpi)
    power_ratio = schedule.power / single_power
    time_ratio = schedule.total_time / single_time
    return SingleStepComparison(
        target_gain=g_target,
        single_power=single_power, single_time=single_time,
        single_exceeds_threshold=single_power > chain.eoam.damage_threshold,
        cascade_power=schedule.power, cascade_time=schedule.total_time,
        cascade_stages=len(schedule.stages),
        power_ratio=power_ratio, time_ratio=time_ratio,
        reciprocity=power_ratio * time_ratio)
