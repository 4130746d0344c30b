"""Physical constants (exact SI values)."""

import math

KB = 1.380649e-23       # Boltzmann constant, J/K
C_LIGHT = 299792458.0   # speed of light, m/s
G_STANDARD = 9.80665    # standard gravity, m/s^2 (for ng/rtHz reporting only)
TWO_PI = 2.0 * math.pi  # rad per cycle
