"""Closed-loop frequency-domain analysis of derivative feedback cooling.

Derivative (velocity-proportional) feedback multiplies the intrinsic damping
without adding thermal force, so the effective susceptibility is the open
loop one with gamma_m replaced by (1+g) gamma_m. The price is that readout
imprecision is fed back as a real force; balancing the two yields an optimal
gain and a floor on the reachable effective temperature.

This module is the one home of the response model. `effective_susceptibility`
holds its only susceptibility expression, in the positive-real-at-DC sign
convention,

    chi_eff = 1 / (m (omega0^2 - omega^2 + i (1+g) gamma_m(omega) omega)),

whose g = 0 case is the resonator's own chi_m; `acceleration_transfer`,
-m chi_m, is the one place displacement flips sign against frame
acceleration. One function gives the thermal, feedthrough and external
parts of the closed-loop spectrum as rows; `closed_loop_psd` is their sum
and `closed_loop_variance` integrates all three in one pass, so they share
one evaluation per node. The readout output spectrum composes
`effective_susceptibility`, and the cascade planner's per-stage floor is
`analytic_variance`. Only the time-domain simulator keeps its own
(viscous-equivalent) feedback rate.

Variance integrals run over omega in [omega0/10, 10 omega0] with a fixed
composite rule: 16-point Gauss-Legendre on panels whose edges are a log
backbone over the band (33 edges, built once per band, read-only), omega0
+- gamma_eff 2^k for k >= -4 (the resonance is far too narrow for any
uniform grid) and the knots of any density record. The 8-point rule on the
same panels is the error estimate; an integral whose two rules differ by
more than INTEGRAL_RTOL raises NumericalError, as does a gamma_eff too
large for the band (it overflows, or the band's ratio to it underflows).
One reduction per rule sums all three rows, each row pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constants import KB, TWO_PI
from .errors import DomainError, NumericalError
from .resonator import MechanicalResonator
from .spectrum import SpectrumRecord, psd_lookup

INTEGRAL_RTOL = 1.0e-6
BAND_DECADES = (0.1, 10.0)  # integration band, multiples of omega0
_X16, _W16 = np.polynomial.legendre.leggauss(16)
_X8, _W8 = np.polynomial.legendre.leggauss(8)
_NODES = np.concatenate((_X16, _X8))


def derivative_feedback(res: MechanicalResonator, g: float, omega, gm=None):
    """Derivative feedback transfer i m g gamma_m(omega) omega, N/m.

    ``gm`` is ``res.damping_rate(omega)`` when the caller has it already.
    """
    if not g >= 0.0:
        raise DomainError("g must be >= 0")
    omega = np.asarray(omega, dtype=float)
    gm = res.damping_rate(omega) if gm is None else gm
    return 1j * res.mass * g * gm * omega


def effective_susceptibility(res: MechanicalResonator, g: float, omega,
                             gm=None):
    """Closed-loop susceptibility with effective damping (1+g) gamma_m, m/N.

    Algebraically identical to chi_m / (1 + chi_m chi_fb) with the
    derivative feedback above. ``gm`` is ``res.damping_rate(omega)`` when
    the caller has it already.
    """
    if not g >= 0.0:
        raise DomainError("g must be >= 0")
    omega = np.asarray(omega, dtype=float)
    gm = res.damping_rate(omega) if gm is None else gm
    return 1.0 / (res.mass * (res.omega0 ** 2 - omega ** 2
                              + 1j * (1.0 + g) * gm * omega))


def acceleration_transfer(res: MechanicalResonator, omega):
    """x(omega)/a(omega) for frame acceleration a, complex s^2.

    Equals -mass * chi_m: the test mass lags the accelerated frame.
    """
    return -res.mass * effective_susceptibility(res, 0.0, omega)


@dataclass(frozen=True)
class CoolingSetup:
    """Inputs of a closed-loop variance calculation.

    res                : mechanical resonator
    gain               : unitless feedback gain g >= 0
    imprecision_psd    : readout imprecision S_xx^n, m^2/Hz (flat or record)
    external_force_psd : optional external force PSD S_FF^ext, N^2/Hz
    """

    res: MechanicalResonator
    gain: float
    imprecision_psd: float | SpectrumRecord
    external_force_psd: float | SpectrumRecord | None = None

    def __post_init__(self):
        if not self.gain >= 0.0:
            raise DomainError("gain must be >= 0")
        if self.imprecision_psd is None:
            raise DomainError("imprecision_psd is required")


@dataclass(frozen=True)
class CoolingResult:
    """Closed-loop displacement variance and its decomposition.

    variance    : total <x^2>, m^2
    thermal     : thermal contribution, m^2
    feedthrough : imprecision fed back as force, m^2
    external    : external-force contribution, m^2
    t_eff       : m omega0^2 variance / kB, K
    """

    variance: float
    thermal: float
    feedthrough: float
    external: float
    t_eff: float


@dataclass(frozen=True)
class ClosedLoopVariance:
    """Both routes to the closed-loop variance.

    ``numeric`` integrates the closed-loop PSD and is authoritative
    downstream; ``analytic`` is the high-Q, g >> 1 approximation reported
    alongside it.
    """

    numeric: CoolingResult
    analytic: CoolingResult


def _parts(setup: CoolingSetup):
    """S_n and parts(omega), the thermal, feedthrough and external rows of S_xx.

    The rows, m^2/Hz, share one gamma_m and one |chi_eff|^2 per omega, and
    each density is looked up once here. The builtin ``abs(z) ** 2`` is
    deliberate: on a NumPy complex scalar, ``np.abs(z) ** 2`` can differ in
    the last bit.
    """
    res, g = setup.res, setup.gain
    s_n = psd_lookup(setup.imprecision_psd, "imprecision_psd")
    s_ext = psd_lookup(setup.external_force_psd, "external_force_psd")

    def parts(w):
        gm = res.damping_rate(w)
        chi2 = abs(effective_susceptibility(res, g, w, gm)) ** 2
        feedback2 = abs(derivative_feedback(res, g, w, gm)) ** 2
        return np.stack((chi2 * res.thermal_force_psd(w, gm),
                         chi2 * feedback2 * s_n(w), chi2 * s_ext(w)))

    return s_n, parts


def closed_loop_psd(setup: CoolingSetup, omega):
    """Closed-loop displacement PSD S_xx(omega), m^2/Hz."""
    return np.sum(_parts(setup)[1](omega), axis=0)


@lru_cache
def _backbone(lo: float, hi: float) -> np.ndarray:
    """The band's 33-edge log backbone, built once per band; read-only."""
    edges = np.geomspace(lo, hi, 33)
    edges.flags.writeable = False
    return edges


def _band_edges(setup: CoolingSetup) -> np.ndarray:
    """Panel edges over the analysis band around omega0, rad/s."""
    res, w0 = setup.res, setup.res.omega0
    lo, hi = BAND_DECADES[0] * w0, BAND_DECADES[1] * w0
    gamma_eff = (1.0 + setup.gain) * res.gamma0
    if not gamma_eff > 0.0:
        raise DomainError("damping rate at omega0 must be > 0")
    span = (hi - lo) / gamma_eff  # 0 if gamma_eff overflows or dwarfs the band
    if not span > 0.0:
        raise NumericalError("effective damping (1+g) gamma0 is too large "
                             f"for the band at g = {setup.gain:g}")
    steps = gamma_eff * 2.0 ** np.arange(-4, math.log2(span))
    knots = [v.omega for v in (setup.imprecision_psd, setup.external_force_psd)
             if isinstance(v, SpectrumRecord)]
    edges = np.concatenate((_backbone(lo, hi), w0 - steps, w0 + steps, *knots))
    return np.unique(edges[(edges >= lo) & (edges <= hi)])


def _integrate_band(parts, edges, g: float) -> list:
    """Integrals of each row of parts(omega)/(2 pi) over the panels at gain g."""
    half = 0.5 * np.diff(edges)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = parts(edges[:-1, None] + half * (1.0 + _NODES)) * half
    i16s = (values[..., :16] * _W16).reshape(3, -1).sum(axis=1).tolist()
    i8s = (values[..., 16:] * _W8).reshape(3, -1).sum(axis=1).tolist()
    integrals = []
    for what, i16, i8 in zip(("thermal", "feedthrough", "external"), i16s, i8s):
        if not (math.isfinite(i16) and math.isfinite(i8)):
            raise NumericalError(f"{what} integral is not finite at g = {g:g}")
        if not abs(i16 - i8) <= INTEGRAL_RTOL * abs(i16):
            raise NumericalError(
                f"{what} integral did not reach rtol {INTEGRAL_RTOL:g}: "
                f"value {i16 / TWO_PI:.6g}, error estimate "
                f"{abs(i16 - i8) / TWO_PI:.3g}")
        integrals.append(i16 / TWO_PI)
    return integrals


def noise_temperature(res: MechanicalResonator, imprecision_psd) -> float:
    """Apparent temperature of the readout imprecision, K.

    T_n = m omega0^2 <x_n^2> / kB with <x_n^2> from `imprecision_variance`.
    """
    x_n2 = imprecision_variance(res, imprecision_psd)
    if not x_n2 > 0.0:
        raise DomainError("imprecision PSD must be > 0 at omega0")
    return res.mass * res.omega0 ** 2 * x_n2 / KB


def open_loop_thermal_variance(res: MechanicalResonator) -> float:
    """Equipartition displacement variance kB T / (m omega0^2), m^2."""
    return KB * res.temperature / (res.mass * res.omega0 ** 2)


def imprecision_variance(res: MechanicalResonator, imprecision_psd) -> float:
    """Apparent displacement variance of the readout, gamma_m S_n / 4, m^2."""
    s_n = float(psd_lookup(imprecision_psd, "imprecision_psd")(res.omega0))
    return res.gamma0 * s_n / 4.0


def analytic_variance(res: MechanicalResonator, g: float,
                      imprecision_psd) -> tuple[float, float]:
    """High-Q analytic thermal and feedthrough variances at gain g, m^2.

    <x_th,0^2>/(1+g) and g^2 <x_n^2>/(1+g), with <x_th,0^2> = kB T / m
    omega0^2 and <x_n^2> = gamma_m S_n(omega0)/4.
    """
    x_th0 = open_loop_thermal_variance(res)
    x_n2 = imprecision_variance(res, imprecision_psd)
    return x_th0 / (1.0 + g), g ** 2 * x_n2 / (1.0 + g)


def closed_loop_variance(setup: CoolingSetup) -> ClosedLoopVariance:
    """Closed-loop variance by numeric band integration and analytic form.

    Analytic: <x^2> = `analytic_variance` thermal + feedthrough + <x_ext^2>(g).
    The external term is integrated numerically in both routes.
    """
    res, g = setup.res, setup.gain
    s_n, parts = _parts(setup)
    thermal_num, feed_num, ext = _integrate_band(parts, _band_edges(setup), g)

    s_n0 = float(s_n(res.omega0))
    scale = res.mass * res.omega0 ** 2 / KB

    def result(thermal, feedthrough):
        total = thermal + feedthrough + ext
        return CoolingResult(total, thermal, feedthrough, ext,
                             t_eff=scale * total)

    return ClosedLoopVariance(numeric=result(thermal_num, feed_num),
                              analytic=result(*analytic_variance(res, g, s_n0)))


class OptimalGain(NamedTuple):
    """Optimal gain in its g >> 1 closed form and as the exact minimizer.

    closed_form : sqrt(x_th0 / x_n2), the large-gain optimum
    minimized   : sqrt(1 + x_th0 / x_n2) - 1, the exact minimizer of the
                  analytic variance (x_th0 + g^2 x_n2) / (1 + g)
    """

    closed_form: float
    minimized: float


def optimal_gain(res: MechanicalResonator, imprecision_psd) -> OptimalGain:
    """Gain minimizing the on-resonance displacement.

    Closed form sqrt(4 kB T / (m omega0^2 Gamma_m S_n)) with Gamma_m =
    gamma_m(omega0); the companion value is the exact minimizer of the
    analytic closed-loop variance (thermal plus feedthrough), the positive
    root of x_n2 g^2 + 2 x_n2 g - x_th0 = 0.
    """
    if not res.temperature > 0.0:
        raise DomainError("temperature must be > 0 for the optimal gain")
    x_th0 = open_loop_thermal_variance(res)
    x_n2 = imprecision_variance(res, imprecision_psd)
    if not x_n2 > 0.0:
        raise DomainError("imprecision PSD must be > 0 at omega0")
    ratio = x_th0 / x_n2
    # sqrt(1 + r) - 1 written without the cancellation at small r
    return OptimalGain(closed_form=math.sqrt(ratio),
                       minimized=ratio / (math.sqrt(1.0 + ratio) + 1.0))


def effective_temperature(res: MechanicalResonator, g: float, t_n: float) -> float:
    """Effective test-mass temperature T/(1+g) + g^2 T_n/(1+g), K."""
    if not g >= 0.0:
        raise DomainError("g must be >= 0")
    if not t_n >= 0.0:
        raise DomainError("t_n must be >= 0")
    return (res.temperature + g ** 2 * t_n) / (1.0 + g)


def effective_temperature_floor(res: MechanicalResonator, t_n: float) -> float:
    """Lowest reachable effective temperature 2 sqrt(T T_n), K."""
    if not t_n >= 0.0:
        raise DomainError("t_n must be >= 0")
    return 2.0 * math.sqrt(res.temperature * t_n)
