"""Radiation-pressure feedback cooling toolkit for a low-frequency
optomechanical inertial sensor.

Models the mechanical resonator, both optical readouts (Fabry-Perot
frequency readout and long-range heterodyne interferometer), and the
radiation-pressure feedback chain; computes cooling gains and effective
temperatures; and runs single-step and cascaded cooling both analytically
and by seeded Langevin simulation.
"""

import types as _types

from .cascade import (CascadeConfig, CascadeSchedule, CascadeStage,
                      SingleStepComparison, compare_single_step,
                      plan_cascade, variance_evolution)
from .constants import C_LIGHT, KB
from .cooling import (ClosedLoopVariance, CoolingResult, CoolingSetup,
                      OptimalGain, closed_loop_psd, closed_loop_variance,
                      derivative_feedback, effective_susceptibility,
                      effective_temperature, effective_temperature_floor,
                      noise_temperature, optimal_gain)
from .errors import (ConfigError, DivergenceError, DomainError, FitError,
                     InfeasibleError, NumericalError, PowerLimitError)
from .feedback import Eoam, FeedbackChain, actuator_gain, max_dac_gain
from .psd import estimate_psd
from .readout import FpiReadout, HliReadout
from .resonator import (MechanicalResonator, RingdownFit, extract_envelope,
                        fit_q_from_ringdown)
from .simulate import (MonteCarloResult, SimConfig, SimTrace,
                       monte_carlo_variance, preset_resonator, simulate,
                       steady_state_variance, stream_rng)
from .spectrum import SpectrumRecord

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, _types.ModuleType)]
