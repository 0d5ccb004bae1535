"""Phantom-channel Hamiltonian model of the lossy ring.

Scattering loss is a coupling into one fictitious ("phantom") waveguide,
so the linear dynamics are unitary and lost photons remain in the state
space. Each channel X contributes a decay rate Gamma_J^(X) to the total
ring linewidth Gbar_J, and the steady-state scattering solutions are
captured by the complex enhancement factors

    F_(J,+-)^(X)(d) = (1/sqrt(L)) gamma_J^(X) / (+-i Gbar_J - d)

with gamma_J^(X) = sqrt(2 v_J Gamma_J^(X)) the amplitude coupling (taken
real) and d = v_J (k - K_J) = omega - omega_J the detuning from the
band's resonance, the argument every function here takes. The minus sign
belongs to incoming-type solutions: a mode of linewidth Gbar_J driven as
e^{-i omega t} responds in proportion to 1 / (-i Gbar_J - d). The plus
sign belongs to outgoing-type ones. At real d, F_+ = F_-*, so every
product here needs only F_-, the factor enhancement_factor returns.

CW pair rates come out in closed form as a product of enhancement
factors and the fluctuating vacuum power. One array kernel, pair_rates,
evaluates that product for every (signal exit, idler exit) at once;
channel decay rates may be numpy arrays that broadcast together, so a
whole coupling map is one call, and the scalar pair_rate_cw is a thin
call into it. The Fermi-golden-rule frequency integral is kept alongside
as a brute-force oracle for that closed form.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .constants import EPS0, HBAR
from .model import Band, CwPump, SystemSpec, two_photon_detuning
from .numerics import integrate_adaptive

if TYPE_CHECKING:  # used in annotations only, so no command pays its import
    from numpy.typing import ArrayLike


def enhancement_factor(system: SystemSpec, channel_id: str, band: Band,
                       d: ArrayLike) -> complex | np.ndarray:
    """Incoming-type complex field enhancement factor F_- of one channel at
    detuning d = omega - omega_J from the band's resonance (or an array of
    them); the outgoing-type F_+ is its complex conjugate."""
    gamma_amp = system.amplitude_coupling(channel_id, band)
    gbar = system.gamma_bar(band)
    # gamma / (-i Gbar - d) written as -gamma / (d + i Gbar): at every real d
    # this rounds to the exact conjugate of F_+ = gamma / (i Gbar - d), signed
    # zeros included. The real part at d = 0 is +0; the first form gives -0,
    # and an underflowed JSA cell on the grid's centre row or column would
    # then read phase pi, not 0
    return -gamma_amp / (math.sqrt(system.ring.circumference) * (d + 1j * gbar))


def _enhancement_abs2(v: float, gamma: ArrayLike, gbar: ArrayLike, circumference: float,
                      detuning: float = 0.0):
    """|F_+|^2 = |F_-|^2, 2 v Gamma^(X) / (L (detuning^2 + Gbar^2)), for
    scalar or array decay rates."""
    return 2.0 * v * gamma / (circumference * (detuning * detuning + gbar * gbar))


# ---------------------------------------------------------------------------
# CW rates
# ---------------------------------------------------------------------------

def vacuum_power(gamma_bar_s: ArrayLike, gamma_bar_i: ArrayLike, omega_s: float,
                 omega_i: float, detuning: float = 0.0):
    """Fluctuating vacuum power [W] entering the closed-form pair rate, for
    scalar or array linewidths.

    detuning is the two-photon offset 2 omega_o - omega_S - omega_I.
    """
    if np.min(gamma_bar_s) <= 0 or np.min(gamma_bar_i) <= 0:
        raise ValueError("linewidths must be positive")
    gsum = gamma_bar_s + gamma_bar_i
    return (HBAR / 2.0) * math.sqrt(omega_s * omega_i) * gamma_bar_s * gamma_bar_i \
        * gsum / (detuning ** 2 + gsum ** 2)


def pair_vacuum_power(system: SystemSpec, pump: CwPump, gamma_bar_s: ArrayLike,
                      gamma_bar_i: ArrayLike):
    """vacuum_power at the CW pump's two-photon offset 2 omega_o - omega_S - omega_I."""
    return vacuum_power(gamma_bar_s, gamma_bar_i, system.bands[Band.SIGNAL].omega,
                        system.bands[Band.IDLER].omega,
                        detuning=two_photon_detuning(system, pump))


def pair_rates(system: SystemSpec, pump: CwPump,
               gammas: Mapping[str, Mapping[Band, ArrayLike]] | None = None
               ) -> dict[tuple[str, str], float | np.ndarray]:
    """Closed-form CW rates [pairs/s] R_XY = C |F_P|^4 |F_S^(X)|^2 |F_I^(Y)|^2 P_vac
    of pairs leaving via every (signal exit X, idler exit Y).

    gammas overrides some channels' decay rates (id -> band -> rate); numpy
    arrays that broadcast together give every rate on the broadcast grid.
    A rate that is not finite raises FloatingPointError.
    """
    gammas = gammas or {}
    for cid in gammas:
        system.channel(cid)  # KeyError on an unknown id
    rates = {c.channel_id: gammas.get(c.channel_id, c.gammas) for c in system.channels}
    pb = system.bands[Band.PUMP]
    sb = system.bands[Band.SIGNAL]
    ib = system.bands[Band.IDLER]
    L = system.ring.circumference
    gbar = {b: sum(g[b] for g in rates.values()) for b in Band}
    omega_o = pb.omega + pump.detuning
    gnl_l = system.ring.gamma_nl * L
    f_pump2 = _enhancement_abs2(
        pb.v, rates[system.pump_input_channel][Band.PUMP], gbar[Band.PUMP], L,
        detuning=pump.detuning)
    p_vac = pair_vacuum_power(system, pump, gbar[Band.SIGNAL], gbar[Band.IDLER])
    common = (math.sqrt(sb.omega * ib.omega) / omega_o) \
        * (pb.v ** 2 / (sb.v * ib.v)) * gnl_l ** 2 \
        * pump.power ** 2 * p_vac / (HBAR * omega_o) * f_pump2 ** 2
    f_s2 = {x: _enhancement_abs2(sb.v, g[Band.SIGNAL], gbar[Band.SIGNAL], L)
            for x, g in rates.items()}
    f_i2 = {y: _enhancement_abs2(ib.v, g[Band.IDLER], gbar[Band.IDLER], L)
            for y, g in rates.items()}
    out = {(x, y): common * f_s2[x] * f_i2[y] for x in rates for y in rates}
    if not all(np.isfinite(r).all() for r in out.values()):
        # the vacuum power's (detuning^2 + (Gbar_S + Gbar_I)^2) is 0 only
        # when Gbar_S^2 is, so the bands' denominators tell an underflow
        denominators = (pump.detuning * pump.detuning + gbar[Band.PUMP] * gbar[Band.PUMP],
                        gbar[Band.SIGNAL] * gbar[Band.SIGNAL],
                        gbar[Band.IDLER] * gbar[Band.IDLER])
        if any(np.any(d == 0) for d in denominators):
            raise FloatingPointError("a linewidth squared underflows to 0, so a pair rate "
                                     "is not finite")
        raise FloatingPointError("a pair rate overflows the float range")
    return out


def pair_rate_cw(system: SystemSpec, pump: CwPump, signal_exit: str,
                 idler_exit: str) -> float:
    """Closed-form CW rate [pairs/s] of pairs with the signal leaving via
    signal_exit and the idler via idler_exit."""
    return float(pair_rates(system, pump)[(signal_exit, idler_exit)])


class ZeroRateError(ZeroDivisionError):
    """A reference rate is 0: with a positive nonlinearity, an underflow."""


def _golden_rule_kernel(system: SystemSpec, pump: CwPump, signal_exit: str,
                        idler_exit: str, d1: np.ndarray) -> np.ndarray:
    """|golden-rule interaction kernel|^2 at signal detunings d1 = omega1 -
    omega_S (an array); the idler's is the two-photon detuning less d1."""
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    scale = HBAR ** 2 * EPS0 * pb.v ** 2 / (12.0 * math.pi ** 2) \
        * math.sqrt(sb.omega * ib.omega) * (system.ring.gamma_nl * system.ring.circumference)
    f_pump = enhancement_factor(system, system.pump_input_channel, Band.PUMP, pump.detuning)
    f_s = enhancement_factor(system, signal_exit, Band.SIGNAL, d1)
    f_i = enhancement_factor(system, idler_exit, Band.IDLER,
                             two_photon_detuning(system, pump) - d1)
    return np.abs(scale * f_s * f_i * f_pump * f_pump) ** 2


def fgr_rate_oracle(system: SystemSpec, pump: CwPump, signal_exit: str,
                    idler_exit: str) -> float:
    """Brute-force frequency integral of the golden-rule pair rate.

    Builds the interaction kernel from the enhancement factors and
    integrates it numerically to 1e-8 relative over the whole line, in
    theta with the signal detuning Gbar_S tan theta, theta in (-pi/2, pi/2):
    the signal Lorentzian becomes flat and the tails end at the interval's
    edges, so no window cuts them off. Serves as the anti-drift oracle for
    the closed-form pair_rate_cw.
    """
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    omega_o = pb.omega + pump.detuning
    gbar_s, gbar_i = system.gamma_bar(Band.SIGNAL), system.gamma_bar(Band.IDLER)
    # the idler resonance, in signal half-widths
    x = two_photon_detuning(system, pump) / gbar_s

    def mapped(t: np.ndarray) -> np.ndarray:
        tan = np.tan(t)
        return _golden_rule_kernel(system, pump, signal_exit, idler_exit,
                                   gbar_s * tan) * (gbar_s * (1.0 + tan * tan))

    # peaks as (theta, half-width in theta), dtheta/domega1 = 1 / (Gbar_S (1 + x^2))
    # at the idler's; a difference of atans would round to 0 far out
    quad = integrate_adaptive(mapped, -0.5 * math.pi, 0.5 * math.pi, rel_tol=1e-8,
                              points=[(0.0, 0.25 * math.pi),
                                      (math.atan(x), gbar_i / gbar_s / (1.0 + x * x))])
    prefactor = 72.0 * math.pi ** 3 / (EPS0 ** 2 * HBAR ** 4 * omega_o ** 2) \
        * pump.power ** 2 / (sb.v * ib.v * pb.v ** 2)
    return prefactor * quad.value
