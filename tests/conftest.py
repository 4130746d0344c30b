import math

import pytest

from optocool import Eoam, FeedbackChain, FpiReadout, HliReadout, \
    MechanicalResonator, max_dac_gain

OMEGA0 = 2.0 * math.pi * 4.72  # rad/s


@pytest.fixture
def resonator():
    """2.6 g fused-silica flexure resonator, structural damping only."""
    return MechanicalResonator(mass=2.6e-3, omega0=OMEGA0,
                               q_internal=4.77e5, gamma_viscous=0.0,
                               temperature=300.0)


@pytest.fixture
def fpi():
    return FpiReadout(cavity_length=50e-3, wavelength=1064e-9,
                      tuning_range=10e9, finesse=1000.0)


@pytest.fixture
def hli():
    return HliReadout(wavelength=1064e-9, imprecision_asd=5e-12,
                      heterodyne_frequency=1e4)


@pytest.fixture
def eoam():
    return Eoam(half_wave_voltage=200.0, max_power=1.16e-3,
                bias_angle=math.pi / 4.0, damage_threshold=0.1)


@pytest.fixture
def chain(eoam):
    gdac = max_dac_gain(eoam.half_wave_voltage, 1064e-9, 200e-6)
    return FeedbackChain(eoam=eoam, dac_gain=gdac, wavelength=1064e-9)
