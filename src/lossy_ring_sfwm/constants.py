"""Physical constants (SI)."""

import math

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34  # reduced Planck constant [J s]
C_VACUUM = 2.99792458e8  # speed of light in vacuum [m/s]
EPS0 = 8.8541878128e-12  # vacuum permittivity [F/m]
