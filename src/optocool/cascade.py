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
imprecision-feedthrough floor for the stage's gain. `variance_at` finds
a time's stage by bisection over the stage end times and spends one `exp`.
"""

from __future__ import annotations

import bisect
import functools
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
    out = _relaxation(g, x2_0, gamma_m, t)
    return float(out) if out.ndim == 0 else out


def _relaxation(g, x2_0, gamma_m, t):
    """`variance_evolution`'s law, unchecked; one `np.exp` of ``t``."""
    return x2_0 / (1.0 + g) * (1.0 + g * np.exp(-(1.0 + g) * gamma_m * t))


@dataclass(frozen=True)
class CascadeConfig:
    """Knobs of the cascade planner.

    initial_gain        : g0 of the first stage
    power               : fixed optical power, W; None means the minimum
                          power that realizes g0 at the initial span
    n_settle            : variance e-folds per stage before advancing
    safety_factor       : span estimate is 2 * safety_factor * rms
    termination         : "gain" (run to target_gain) or "handover" (once
                          rms falls inside the Fabry-Perot capture range,
                          go on with that readout's `imprecision_psd` to its
                          optimal gain, or stop if it is noiseless)
    max_stages          : hard stage cap
    initial_span        : starting peak-to-peak displacement, m (required)
    target_gain         : final gain; None means the optimal gain for the
                          long-range readout's imprecision

    A refused value raises ``DomainError("<field> <reason>")``; each field
    has the name of its ``[cascade]`` config key.
    """

    initial_gain: float = 1.0
    power: float | None = None
    n_settle: float = 7.0
    safety_factor: float = 5.0
    termination: str = TERMINATE_GAIN
    max_stages: int = 64
    initial_span: float | None = None
    target_gain: float | None = None

    def __post_init__(self):
        if not self.initial_gain > 0.0:
            raise DomainError("initial_gain must be > 0")
        if self.power is not None and not self.power > 0.0:
            raise DomainError("power must be > 0")
        if not self.n_settle >= 1.0:
            raise DomainError("n_settle must be >= 1")
        if not self.safety_factor >= 1.0:
            raise DomainError("safety_factor must be >= 1")
        if self.termination not in (TERMINATE_GAIN, TERMINATE_HANDOVER):
            raise DomainError("termination must be 'gain' or 'handover'")
        if self.max_stages < 1:
            raise DomainError("max_stages must be >= 1")
        if self.initial_span is None or not self.initial_span > 0.0:
            raise DomainError("initial_span must be > 0")
        if self.target_gain is not None and not 0.0 < self.target_gain < math.inf:
            raise DomainError("target_gain must be finite and > 0")
        # the range checks above let only +inf through as a non-finite value
        for name in ("power", "n_settle", "safety_factor", "initial_span"):
            if getattr(self, name) == math.inf:
                raise DomainError(f"{name} must be finite")


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

    @functools.cached_property
    def _stage_ends(self) -> list:
        return [stage.start + stage.duration for stage in self.stages]

    def variance_at(self, t: float) -> float:
        """Scheduled variance at absolute time t, m^2 (clamped per stage): the
        stage found by bisection over the stage ends, one `exp` per call."""
        if not t >= 0.0:
            raise DomainError("t must be >= 0")
        stage = self.stages[min(bisect.bisect_right(self._stage_ends, t),
                                len(self.stages) - 1)]
        tau = min(max(t - stage.start, 0.0), stage.duration)
        return max(float(_relaxation(stage.gain, stage.variance_in,
                                     self.gamma_m, tau)), stage.variance_floor)

    def compare_single_step(self, g_target: float, cfg: CascadeConfig,
                            chain: FeedbackChain,
                            res: MechanicalResonator) -> SingleStepComparison:
        """This schedule against one step at ``g_target`` from cfg's span."""
        dac0 = max_dac_gain(chain.eoam.half_wave_voltage, chain.wavelength,
                            cfg.initial_span)
        single_power = chain.with_dac_gain(dac0).required_power(res, g_target)
        single_time = cfg.n_settle / ((1.0 + g_target) * self.gamma_m)
        power_ratio = self.power / single_power
        time_ratio = self.total_time / single_time
        return SingleStepComparison(
            single_power=single_power, single_time=single_time,
            single_exceeds_threshold=single_power > chain.eoam.damage_threshold,
            cascade_power=self.power, cascade_time=self.total_time,
            power_ratio=power_ratio, time_ratio=time_ratio,
            reciprocity=power_ratio * time_ratio)


def plan_cascade(cfg: CascadeConfig, chain: FeedbackChain,
                 res: MechanicalResonator, hli: HliReadout,
                 fpi: FpiReadout) -> CascadeSchedule:
    """Plan the staged gain increases at fixed optical power.

    Raises ``InfeasibleError`` when the configured power cannot realize the
    initial gain at the initial span's digital-gain cap; the message reports
    the minimum power.
    """
    gamma = res.gamma0
    teff_scale = res.mass * res.omega0 ** 2 / KB

    noise_psd = hli.imprecision_psd
    target = cfg.target_gain
    if target is None:
        target = optimal_gain(res, noise_psd).closed_form

    capped = chain.with_dac_gain(max_dac_gain(
        chain.eoam.half_wave_voltage, chain.wavelength, cfg.initial_span))
    power = cfg.power
    if power is None:
        power = capped.power_for_gain(res, cfg.initial_gain)
    powered = chain.with_power(power)  # the modulator refuses P0 out of range
    minimum = capped.required_power(res, cfg.initial_gain)
    if power * _REL_TOL < minimum:
        raise InfeasibleError(
            f"g0 = {cfg.initial_gain:g} is not reachable at P0 = "
            f"{power:.4g} W with the initial span {cfg.initial_span:.4g} m; "
            f"minimum power is {minimum:.4g} W")

    # trim the first stage's digital gain so it runs at exactly g0
    gain_per_dac = powered.with_dac_gain(1.0).gain_factor(res)
    g = cfg.initial_gain
    dac = g / gain_per_dac
    readout = "hli"

    stages = []
    rms = cfg.initial_span / (2.0 * cfg.safety_factor)
    variance = rms * rms
    t_start = 0.0
    termination = REASON_MAX_STAGES
    for index in range(1, cfg.max_stages + 1):
        if not math.isfinite(dac):
            raise InfeasibleError(f"stage {index}: the DAC gain for g = "
                                  f"{g:g} is {dac!r} V/rad, not finite")
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
                and readout == "hli"):
            if fpi.imprecision_psd > 0.0:
                readout = "fpi"
                noise_psd = fpi.imprecision_psd
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

    single_power: float            # W needed in one step
    single_time: float             # s to settle in one step
    single_exceeds_threshold: bool
    cascade_power: float           # W, fixed cascade power
    cascade_time: float            # s, total schedule time
    power_ratio: float             # cascade / single (fold reduction < 1)
    time_ratio: float              # cascade / single (fold increase > 1)
    reciprocity: float             # power_ratio * time_ratio


def compare_single_step(g_target: float, cfg: CascadeConfig,
                        chain: FeedbackChain, res: MechanicalResonator,
                        hli: HliReadout, fpi: FpiReadout) -> SingleStepComparison:
    """Compare one-step cooling at ``g_target`` against a cascade to it."""
    schedule = plan_cascade(replace(cfg, target_gain=g_target),
                            chain, res, hli, fpi)
    return schedule.compare_single_step(g_target, cfg, chain, res)
