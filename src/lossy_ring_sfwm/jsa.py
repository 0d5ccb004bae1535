"""Joint spectral amplitude of photon pairs from a pulsed pump.

For a weak transform-limited Gaussian pump pulse the two-photon term of
the output state carries a biphoton wave function per channel pair,

    phi^(XX')(k1, k2) = (alpha^2 / beta) (i hbar / 2 pi) sqrt(wS wI) vP^2
                        gnl L  F_S+^(X)*(k1) F_I+^(X')*(k2) g(k1, k2),

normalized so the squared moduli summed over channel pairs integrate to
one; |beta|^2 is then the pair generation probability. The pump factor
g depends on k1, k2 only through the two-photon energy E = w1 + w2:
after eliminating the energy delta function,

    g(E) = (gP^2 / (L vP)) (tau / sqrt(pi)) exp(-tau^2 (E/2 - w_o)^2)
           * Integral dx exp(-tau^2 x^2) / (b^2 - x^2),   b = (wP - E/2) - i GbarP,

where the Gaussian prefactor is pulled out analytically. The remaining
integral has the closed form

    Integral dx exp(-tau^2 x^2) / (b^2 - x^2) = i pi w(-tau b) / b,

with w the Faddeeva function, computed by `wofz`: Weideman's N = 40
rational approximation (SIAM J. Numer. Anal. 31, 1497 (1994)), valid for
Im z >= 0, worst relative error 1.2e-15 against 30-digit mpmath over
|Re z| in 1e-3..1e6, Im z in 1e-4..1e5. Since Im b = -GbarP < 0, w is
only needed in the upper half plane, where it is bounded by 1, so g(E) is
finite for any pulse length; for long pulses the Gaussian prefactor
simply underflows to zero far from 2 w_o. Because
the ring-channel couplings are frequency independent, every channel
pair shares one spectral shape; a single reference-pair grid plus
per-pair complex weights represents the full wave function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constants import HBAR, TWO_PI
from .model import Band, PulsedPump, SystemSpec
from .numerics import grid_integrate_2d, integrate_adaptive
from .phantom import Branch, enhancement_factor


class GridTooCoarseError(ValueError):
    """The JSA grid missed too much of the normalization. The pairs' energy
    2 omega_o lies `offset` linewidths Gbar_S + Gbar_I from the grid centre
    omega_S + omega_I; past kappa_max, the grid's reach, no finer grid helps."""

    def __init__(self, residual: float, tolerance: float, offset: float, kappa_max: float):
        advice = "increase the grid extent or resolution"
        if offset > kappa_max:
            advice = (f"the pairs' energy 2 omega_o lies {offset:.3g} linewidths (Gbar_S + "
                      f"Gbar_I) from the grid centre omega_S + omega_I; raise kappa_max "
                      f"(now {kappa_max:g}) past that or detune the pump less")
        super().__init__(
            f"JSA grid normalization residual {residual:.3e} exceeds tolerance "
            f"{tolerance:.1e}; {advice}")
        self.residual = residual
        self.tolerance = tolerance


def pump_bandwidth(pump: PulsedPump) -> float:
    """Intensity FWHM of the pump power spectrum [rad/s]."""
    return 2.0 * math.sqrt(math.log(2.0)) / pump.tau


def pulse_spectral_amplitude(omega, omega_center: float, pump: PulsedPump):
    """Spectral amplitude with unit integrated squared modulus (over omega)."""
    tau = pump.tau
    return (tau * tau / math.pi) ** 0.25 * np.exp(-0.5 * tau * tau
                                                  * (omega - omega_center) ** 2)


@functools.cache
def _weideman_coefficients() -> tuple[float, np.ndarray]:
    """Weideman's scale L and polynomial coefficients, highest power first."""
    # the FFT of (L^2 + t^2) e^{-t^2} on t = L tan(theta / 2), built on first
    # use so that commands without a JSA never load numpy.fft; N = 40 terms
    # is fixed (32 leave 3e-13, 40 reach 1.2e-15)
    n, m = 40, 80
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return L, a[n:0:-1]


def wofz(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0."""
    L, coeffs = _weideman_coefficients()
    iz = 1j * np.reshape(z, -1)  # scalars take the array path, so both round alike
    d = L - iz
    w = 2.0 * np.polyval(coeffs, (L + iz) / d) / (d * d) + (1.0 / math.sqrt(math.pi)) / d
    return w.reshape(np.shape(z))


def _pump_g_factor(system: SystemSpec, pump: PulsedPump):
    """Returns g(E): the pump-pair spectral factor at two-photon energy E
    (a scalar or an array)."""
    pb = system.bands[Band.PUMP]
    omega_o = pb.omega + pump.detuning
    gbar_p = system.gamma_bar(Band.PUMP)
    gamma_p2 = system.amplitude_coupling(system.pump_input_channel, Band.PUMP) ** 2
    tau = pump.tau
    L = system.ring.circumference
    scale = gamma_p2 / (L * pb.v) * tau / math.sqrt(math.pi)

    def g(E):
        half = np.reshape(E, -1) / 2.0  # scalars take the array path: np.exp rounds alike
        b = (pb.omega - half) - 1j * gbar_p
        envelope = np.exp(-(tau * (half - omega_o)) ** 2)
        return (scale * envelope * (1j * math.pi) * wofz(-tau * b) / b).reshape(np.shape(E))

    return g


def _lorentzian_pair_integral(system: SystemSpec, s: float, gamma_s: float,
                              gamma_i: float) -> float:
    """Exact integral over omega1 of |F_S|^2 |F_I|^2 at fixed two-photon
    energy s, for channel decay rates gamma_s, gamma_i."""
    sb = system.bands[Band.SIGNAL]
    ib = system.bands[Band.IDLER]
    L = system.ring.circumference
    gbs = system.gamma_bar(Band.SIGNAL)
    gbi = system.gamma_bar(Band.IDLER)
    amp = (2.0 * sb.v * gamma_s / L) * (2.0 * ib.v * gamma_i / L)
    mismatch = s - sb.omega - ib.omega
    return amp * math.pi * (gbs + gbi) / (gbs * gbi * (mismatch ** 2 + (gbs + gbi) ** 2))


def _jsa_prefactor(system: SystemSpec) -> float:
    sb, ib, pb = (system.bands[b] for b in (Band.SIGNAL, Band.IDLER, Band.PUMP))
    return (HBAR / TWO_PI) * math.sqrt(sb.omega * ib.omega) * pb.v ** 2 \
        * system.ring.gamma_nl * system.ring.circumference


def _energy_mass_integral(system: SystemSpec, pump: PulsedPump, gamma_s: float,
                          gamma_i: float, *, half_window: float | None = None) -> float:
    """Integrated squared modulus of the unnormalized biphoton amplitude
    (before dividing by beta) of a channel pair with decay rates gamma_s,
    gamma_i: the integral over two-photon energy of |g|^2 times the
    signal/idler Lorentzian pair integral, to 1e-7 relative, times the
    common prefactor."""
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    g = _pump_g_factor(system, pump)
    gsum = system.gamma_bar(Band.SIGNAL) + system.gamma_bar(Band.IDLER)
    center = 2.0 * (pb.omega + pump.detuning)
    if half_window is None:
        half_window = 16.0 / pump.tau + 8.0 * gsum

    def integrand(s: np.ndarray) -> np.ndarray:
        return np.abs(g(s)) ** 2 * _lorentzian_pair_integral(system, s, gamma_s, gamma_i)

    quad = integrate_adaptive(integrand, center - half_window, center + half_window, rel_tol=1e-7,
                              points=[(center, 1.0 / pump.tau), (sb.omega + ib.omega, gsum)])
    return _jsa_prefactor(system) ** 2 / (sb.v * ib.v) * quad.value


def pair_mass(system: SystemSpec, pump: PulsedPump, signal_exit: str,
              idler_exit: str) -> float:
    """Integrated squared modulus of one channel pair's unnormalized
    biphoton amplitude (before dividing by beta)."""
    return _energy_mass_integral(system, pump,
                                 system.channel(signal_exit).gamma(Band.SIGNAL),
                                 system.channel(idler_exit).gamma(Band.IDLER))


def total_mass(system: SystemSpec, pump: PulsedPump) -> float:
    """Sum of pair_mass over all channel pairs (the decay-rate sums
    factorize, so the total uses the full linewidths)."""
    return _energy_mass_integral(system, pump, system.gamma_bar(Band.SIGNAL),
                                 system.gamma_bar(Band.IDLER))


def antidiagonal_mass_fraction(system: SystemSpec, pump: PulsedPump,
                               half_width: float) -> float:
    """Fraction of the biphoton squared-modulus mass with two-photon energy
    within +- half_width of the energy-conservation line 2 omega_o."""
    inside = _energy_mass_integral(system, pump, system.gamma_bar(Band.SIGNAL),
                                   system.gamma_bar(Band.IDLER), half_window=half_width)
    return inside / total_mass(system, pump)


@dataclass(frozen=True)
class JsaGrid:
    """Discretized biphoton wave function for one reference channel pair.

    kappa axes are the dimensionless detunings v (k - K) / Gbar per band;
    values hold the normalized phi for the reference pair (k-space units,
    m); every other pair is weight * values with the complex weights
    keyed by (signal exit, idler exit). beta2 is the pair generation
    probability |beta|^2 for the pulse amplitude alpha.
    """

    kappa1: np.ndarray
    kappa2: np.ndarray
    values: np.ndarray  # complex, shape (len(kappa1), len(kappa2))
    reference_pair: tuple[str, str]
    weights: Mapping[tuple[str, str], complex]
    beta2: float
    normalization_residual: float

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.values)


def _direct_pair_grid(system: SystemSpec, pump: PulsedPump, signal_exit: str,
                      idler_exit: str, kappa1: np.ndarray,
                      kappa2: np.ndarray) -> np.ndarray:
    """Unnormalized biphoton amplitude of one channel pair on the grid,
    evaluated directly from its own enhancement factors."""
    sb, ib = system.bands[Band.SIGNAL], system.bands[Band.IDLER]
    gbs, gbi = system.gamma_bar(Band.SIGNAL), system.gamma_bar(Band.IDLER)
    omega1 = sb.omega + gbs * kappa1
    omega2 = ib.omega + gbi * kappa2
    f_s = enhancement_factor(system, signal_exit, Band.SIGNAL, sb.k_of_omega(omega1),
                             Branch.PLUS)
    f_i = enhancement_factor(system, idler_exit, Band.IDLER, ib.k_of_omega(omega2),
                             Branch.PLUS)
    # two-photon energies from the grid corner in units of the signal step:
    # on equal steps every cell of an anti-diagonal gets the same energy, so
    # g runs on 2n - 1 distinct energies instead of n^2
    d1 = gbs * (kappa1[1] - kappa1[0])
    d2 = gbi * (kappa2[1] - kappa2[0])
    steps = np.arange(len(omega1))[:, None] + (d2 / d1) * np.arange(len(omega2))
    energies, index = np.unique((omega1[0] + omega2[0]) + d1 * steps, return_inverse=True)
    g_grid = _pump_g_factor(system, pump)(energies)[index.reshape(steps.shape)]
    return 1j * _jsa_prefactor(system) * np.conj(f_s)[:, None] * np.conj(f_i)[None, :] \
        * g_grid


def reference_amplitude(system: SystemSpec, pair: tuple[str, str]) -> float:
    """gamma_S^(X) gamma_I^(Y) of the reference pair, which divides every weight."""
    amp = system.amplitude_coupling(pair[0], Band.SIGNAL) \
        * system.amplitude_coupling(pair[1], Band.IDLER)
    if amp == 0.0:
        raise ValueError(f"reference pair {list(pair)} has a zero signal or idler coupling")
    return amp


def build_jsa(system: SystemSpec, pump: PulsedPump, *, n: int = 512,
              kappa_max: float = 8.0, reference_pair: tuple[str, str] | None = None,
              residual_tol: float = 2.5e-3) -> JsaGrid:
    """Normalized biphoton wave function on an n x n grid.

    The grid spans kappa in [-kappa_max, kappa_max] on both axes
    (kappa_max >= 8 resolves the Lorentzian wings); the trapezoidal
    normalization over all channel pairs must agree with the Gauss-Legendre
    normalization total_mass within residual_tol, else GridTooCoarseError
    is raised.
    """
    if kappa_max < 8.0:
        raise ValueError(f"grid must cover at least 8 linewidths, got {kappa_max}")
    if n < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {n}")
    if reference_pair is None:
        phys = system.physical_channels
        reference_pair = (phys[0].channel_id, phys[0].channel_id)
    ref_amp = reference_amplitude(system, reference_pair)
    kappa1 = kappa2 = np.linspace(-kappa_max, kappa_max, n)

    mass_total = total_mass(system, pump)
    beta = math.sqrt(mass_total) * pump.alpha ** 2
    raw = _direct_pair_grid(system, pump, reference_pair[0], reference_pair[1],
                            kappa1, kappa2)
    values = raw * (pump.alpha ** 2 / beta)

    weights = {(x, y): complex(system.amplitude_coupling(x, Band.SIGNAL)
                               * system.amplitude_coupling(y, Band.IDLER) / ref_amp)
               for x in system.channel_ids for y in system.channel_ids}
    # k-space grid steps [1/m]
    dk_s = system.gamma_bar(Band.SIGNAL) * (kappa1[1] - kappa1[0]) / system.bands[Band.SIGNAL].v
    dk_i = system.gamma_bar(Band.IDLER) * (kappa2[1] - kappa2[0]) / system.bands[Band.IDLER].v
    sum_w2 = sum(abs(w) ** 2 for w in weights.values())
    grid_norm = sum_w2 * grid_integrate_2d(np.abs(values) ** 2, dk_s, dk_i)
    residual = abs(grid_norm - 1.0)
    if residual > residual_tol:
        pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
        offset = abs(2.0 * (pb.omega + pump.detuning) - sb.omega - ib.omega) \
            / (system.gamma_bar(Band.SIGNAL) + system.gamma_bar(Band.IDLER))
        raise GridTooCoarseError(residual, residual_tol, offset, kappa_max)
    return JsaGrid(kappa1=kappa1, kappa2=kappa2, values=values,
                   reference_pair=reference_pair, weights=weights,
                   beta2=pump.alpha ** 4 * mass_total,
                   normalization_residual=residual)


def direct_pair_grid(system: SystemSpec, pump: PulsedPump, signal_exit: str,
                     idler_exit: str, grid: JsaGrid) -> np.ndarray:
    """Normalized biphoton amplitude of one pair evaluated from scratch on
    the grid's axes (for checking shape constancy against the weights)."""
    raw = _direct_pair_grid(system, pump, signal_exit, idler_exit,
                            grid.kappa1, grid.kappa2)
    return raw / (math.sqrt(total_mass(system, pump)))
