"""The composite Gauss-Legendre band integral against a quad oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from optocool import (CoolingSetup, DomainError, MechanicalResonator,
                      NumericalError, SpectrumRecord, closed_loop_psd,
                      closed_loop_variance)
from optocool.cooling import (_NODES, _W8, _W16, INTEGRAL_RTOL, _backbone,
                              _band_edges, _integrate_band, _parts)


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


def _per_row_integrals(parts, edges, g):
    """The band integral reduced one row at a time: the reference that
    `_integrate_band`'s joint reduction equals bit for bit."""
    half = 0.5 * np.diff(edges)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        values = parts(edges[:-1, None] + half * (1.0 + _NODES)) * half
    integrals = []
    for what, row in zip(("thermal", "feedthrough", "external"), values):
        i16 = float(np.sum(row[:, :16] * _W16))
        i8 = float(np.sum(row[:, 16:] * _W8))
        if not (math.isfinite(i16) and math.isfinite(i8)):
            raise NumericalError(f"{what} integral is not finite at g = {g:g}")
        if not abs(i16 - i8) <= INTEGRAL_RTOL * abs(i16):
            raise NumericalError(f"{what} integral did not reach rtol")
        integrals.append(i16 / (2 * math.pi))
    return integrals


def _fresh_edges(setup):
    """`_band_edges` with its backbone from a fresh np.geomspace."""
    res, w0 = setup.res, setup.res.omega0
    lo, hi = 0.1 * w0, 10.0 * w0
    gamma_eff = (1.0 + setup.gain) * res.gamma0
    steps = gamma_eff * 2.0 ** np.arange(-4, math.log2((hi - lo) / gamma_eff))
    knots = [v.omega for v in (setup.imprecision_psd, setup.external_force_psd)
             if isinstance(v, SpectrumRecord)]
    edges = np.concatenate((np.geomspace(lo, hi, 33), w0 - steps, w0 + steps,
                            *knots))
    return np.unique(edges[(edges >= lo) & (edges <= hi)])


def _setup(resonator, kind, g):
    if kind == "shaped":
        return CoolingSetup(resonator, g, _shaped(5.77e-13, resonator.omega0))
    external = (3.0 * float(resonator.thermal_force_psd(resonator.omega0))
                if kind == "external" else None)
    return CoolingSetup(resonator, g, 5.77e-13 ** 2, external)


@pytest.mark.parametrize("kind, g", [
    *((kind, g) for kind in ("flat", "external", "shaped")
      for g in (0.0, 1.0, 316.0, 1.116e4)),
    ("flat", 5.051e4), ("external", 5.051e4), ("shaped", 5.051e4)])
def test_joint_reduction_is_the_per_row_sum_bit_for_bit(resonator, kind, g):
    setup = _setup(resonator, kind, g)
    edges = _band_edges(setup)
    assert edges.tobytes() == _fresh_edges(setup).tobytes()
    _, parts = _parts(setup)
    got = _integrate_band(parts, edges, g)
    want = _per_row_integrals(parts, edges, g)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_backbone_cache_is_read_only_and_not_handed_out(resonator):
    setup = _setup(resonator, "flat", 100.0)
    w0 = resonator.omega0
    backbone = _backbone(0.1 * w0, 10.0 * w0)
    assert not backbone.flags.writeable
    with pytest.raises(ValueError):
        backbone[0] = 0.0
    edges = _band_edges(setup)
    assert edges.flags.writeable
    assert not np.shares_memory(edges, backbone)
    edges[:] = 0.0
    assert _band_edges(setup).tobytes() == _fresh_edges(setup).tobytes()
    assert backbone.tobytes() == np.geomspace(0.1 * w0, 10.0 * w0, 33).tobytes()


def test_each_resonance_gets_its_own_band(resonator):
    other = MechanicalResonator(mass=2.6e-3, omega0=3.0 * resonator.omega0,
                                q_internal=4.77e5, temperature=300.0)
    first, second = (_setup(res, "flat", 100.0) for res in (resonator, other))
    got = [_band_edges(setup) for setup in (first, second, first)]
    for edges, setup in zip(got, (first, second, first)):
        assert edges.tobytes() == _fresh_edges(setup).tobytes()
        w0 = setup.res.omega0
        assert (edges[0], edges[-1]) == (0.1 * w0, 10.0 * w0)


@pytest.mark.parametrize("omega0, g", [
    (2 * math.pi * 4.72, 1e300),  # (1+g) gamma0 overflows
    (1e-150, 1e170)])  # (1+g) gamma0 is finite; the band / it underflows
def test_too_large_effective_damping_names_the_gain(omega0, g):
    # refused before log2 would meet the zero ratio
    res = MechanicalResonator(mass=2.6e-3, omega0=omega0, q_internal=4.77e5,
                              gamma_viscous=1e10)
    message = (f"effective damping (1+g) gamma0 is too large for the band at "
               f"g = {g:g}")
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        closed_loop_variance(CoolingSetup(res, g, 2.5e-23))
