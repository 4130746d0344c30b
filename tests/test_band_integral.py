"""The composite Gauss-Legendre band integral against a quad oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from optocool import (CoolingSetup, DomainError, MechanicalResonator,
                      NumericalError, SpectrumRecord, closed_loop_psd,
                      closed_loop_variance)
from optocool.cooling import _integrate_band, _parts


def _oracle(setup):
    """quad on each interval between omega0 +- gamma_eff {1, 2, 5} 10^k and
    the record knots, summed over the band."""
    res, w0 = setup.res, setup.res.omega0
    lo, hi = w0 / 10, 10 * w0
    gamma_eff = (1.0 + setup.gain) * float(res.damping_rate(w0))
    steps = gamma_eff * np.outer([1.0, 2.0, 5.0], 10.0 ** np.arange(-2, 12))
    points = {lo, hi, w0, *(w0 - steps.ravel()), *(w0 + steps.ravel())}
    for value in (setup.imprecision_psd, setup.external_force_psd):
        if isinstance(value, SpectrumRecord):
            points.update(value.omega)
    edges = sorted(p for p in points if lo <= p <= hi)
    total = sum(quad(lambda w: closed_loop_psd(setup, w), a, b, epsabs=0.0,
                     epsrel=1e-12, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return total / (2 * math.pi)


def _shaped(asd, omega0):
    """The benchmark's shaped imprecision: a 1/f^2 ASD rise below 2.5 Hz."""
    f = np.logspace(math.log10(0.4), math.log10(50.0), 200)
    f0 = omega0 / (2 * math.pi)

    def shape(x):
        return np.sqrt(1.0 + (2.5 / x) ** 4)

    return SpectrumRecord(2 * math.pi * f, asd * shape(f) / shape(f0),
                          "asd", "m/rtHz")


@pytest.mark.parametrize("asd, g", [(5.77e-13, 5.051e4), (1.14e-11, 1.116e4)])
def test_shaped_high_gain_matches_oracle(resonator, asd, g):
    # at these gains the resonance spans many knots of the record
    setup = CoolingSetup(resonator, g, _shaped(asd, resonator.omega0))
    got = closed_loop_variance(setup).numeric.variance
    assert got == pytest.approx(_oracle(setup), rel=1e-9, abs=0)


@settings(max_examples=40, deadline=None)
@given(log_q=st.floats(0.0, 6.0), log_g=st.floats(-1.0, 5.0),
       viscous=st.floats(0.0, 10.0), loss_exponent=st.sampled_from([-1, 0, 1]),
       log_s_n=st.floats(-28.0, -20.0),
       external=st.one_of(st.none(), st.floats(0.1, 10.0)))
def test_variance_matches_oracle(log_q, log_g, viscous, loss_exponent, log_s_n,
                                 external):
    # (1+g)/Q spans underdamped to heavily overdamped; g < 1 is set to 0
    q = 10.0 ** log_q
    res = MechanicalResonator(
        mass=2.6e-3, omega0=2 * math.pi * 4.72, q_internal=q,
        gamma_viscous=viscous * 2 * math.pi * 4.72 / q, temperature=300.0,
        loss_exponent=float(loss_exponent))
    if external is not None:
        external *= float(res.thermal_force_psd(res.omega0))
    g = 10.0 ** log_g if log_g >= 0.0 else 0.0
    setup = CoolingSetup(res, g, 10.0 ** log_s_n, external)
    got = closed_loop_variance(setup).numeric.variance
    assert got == pytest.approx(_oracle(setup), rel=1e-9, abs=0)


def test_one_panel_raises_naming_the_part(resonator):
    setup = CoolingSetup(resonator, 100.0, 2.5e-23)
    _, parts = _parts(setup)
    edges = np.array([0.1, 10.0]) * resonator.omega0
    with pytest.raises(NumericalError, match="thermal"):
        _integrate_band(parts, edges, 100.0)


def test_lossless_resonator_refused():
    # an infinite Q leaves no damping to set the resonance panels by
    res = MechanicalResonator(mass=2.6e-3, omega0=2 * math.pi * 4.72,
                              q_internal=math.inf)
    with pytest.raises(DomainError, match="damping rate"):
        closed_loop_variance(CoolingSetup(res, 10.0, 2.5e-23))
