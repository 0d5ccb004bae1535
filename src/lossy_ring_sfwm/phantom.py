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
factors and the fluctuating vacuum power. One kernel, pair_rates,
evaluates that product for every (signal exit, idler exit) at once, on
float decay rates or on lists of them, one entry per cell of a coupling
map, and the scalar pair_rate_cw is a thin call into it. The
golden-rule frequency integral, in complex math node by node, is kept
alongside as a brute-force oracle for that closed form. Everything here
computes in Python floats and complex numbers; jsa alone passes numpy
arrays, to enhancement_factor.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from .constants import EPS0, HBAR
from .model import Band, CwPump, SystemSpec, two_photon_detuning
from .numerics import QuadratureError, integrate_adaptive


def _enhancement(system: SystemSpec, channel_id: str, band: Band):
    """d -> enhancement_factor(system, channel_id, band, d), constants held."""
    minus_gamma = -system.amplitude_coupling(channel_id, band)
    gbar = system.gamma_bar(band)
    root_l = math.sqrt(system.ring.circumference)
    # gamma / (-i Gbar - d) written as -gamma / (d + i Gbar): at every real d
    # this rounds to the exact conjugate of F_+ = gamma / (i Gbar - d), signed
    # zeros included. The real part at d = 0 is +0; the first form gives -0,
    # and an underflowed JSA cell on the grid's centre row or column would
    # then read phase pi, not 0
    return lambda d: minus_gamma / (root_l * (d + 1j * gbar))


def enhancement_factor(system: SystemSpec, channel_id: str, band: Band, d: float) -> complex:
    """Incoming-type complex field enhancement factor F_- of one channel at
    detuning d = omega - omega_J from the band's resonance (or a numpy array
    of them, as jsa passes); the outgoing-type F_+ is its complex conjugate."""
    return _enhancement(system, channel_id, band)(d)


# ---------------------------------------------------------------------------
# CW rates
# ---------------------------------------------------------------------------

def _vacuum_powers(gamma_bar_s: list[float], gamma_bar_i: list[float], omega_s: float,
                   omega_i: float, detuning: float) -> list[float]:
    """vacuum_power of each cell of equal-length lists of linewidths."""
    if any(g <= 0.0 for g in gamma_bar_s) or any(g <= 0.0 for g in gamma_bar_i):
        raise ValueError("linewidths must be positive")
    c = (HBAR / 2.0) * math.sqrt(omega_s * omega_i)
    d2 = detuning ** 2
    return [c * s * i * g / (d2 + g * g)
            for s, i in zip(gamma_bar_s, gamma_bar_i) for g in (s + i,)]


def vacuum_power(gamma_bar_s: float, gamma_bar_i: float, omega_s: float, omega_i: float,
                 detuning: float = 0.0) -> float:
    """Fluctuating vacuum power [W] entering the closed-form pair rate.

    detuning is the two-photon offset 2 omega_o - omega_S - omega_I.
    """
    return _vacuum_powers([gamma_bar_s], [gamma_bar_i], omega_s, omega_i, detuning)[0]


def pair_vacuum_power(system: SystemSpec, pump: CwPump, gamma_bar_s: float,
                      gamma_bar_i: float) -> float:
    """vacuum_power at the CW pump's two-photon offset 2 omega_o - omega_S - omega_I."""
    return vacuum_power(gamma_bar_s, gamma_bar_i, system.bands[Band.SIGNAL].omega,
                        system.bands[Band.IDLER].omega,
                        detuning=two_photon_detuning(system, pump))


def pair_rates(system: SystemSpec, pump: CwPump,
               gammas: Mapping[str, Mapping[Band, float | list[float]]] | None = None
               ) -> dict[tuple[str, str], float | list[float]]:
    """Closed-form CW rates [pairs/s] R_XY = C |F_P|^4 |F_S^(X)|^2 |F_I^(Y)|^2 P_vac
    of pairs leaving via every (signal exit X, idler exit Y).

    gammas overrides some channels' decay rates (id -> band -> rate). A rate
    is a float, or a list of n floats, one per cell of a map; every list of
    one call has the same n, and each pair's rate is then the list of its n
    cells. Each cell's expressions run in one order, so a cell has the bits
    of a call on that cell's floats alone, and a call on floats, the n = 1
    case, returns floats. A rate that is not finite raises
    FloatingPointError.
    """
    gammas = gammas or {}
    for cid in gammas:
        system.channel(cid)  # KeyError on an unknown id
    lengths = {len(g) for r in gammas.values() for g in r.values() if isinstance(g, list)}
    if len(lengths) > 1:
        raise ValueError(f"the lists of decay rates differ in length: {sorted(lengths)}")
    n = max(lengths, default=1)
    rates = {c.channel_id: {b: g if isinstance(g, list) else [g] * n
                            for b, g in gammas.get(c.channel_id, c.gammas).items()}
             for c in system.channels}
    pb = system.bands[Band.PUMP]
    sb = system.bands[Band.SIGNAL]
    ib = system.bands[Band.IDLER]
    L = system.ring.circumference
    # each cell's sum runs in channel order from 0, as sum() over its floats
    gbar = {b: [sum(cell) for cell in zip(*(g[b] for g in rates.values()))] for b in Band}
    omega_o = pb.omega + pump.detuning
    gnl_l = system.ring.gamma_nl * L
    # |F_+|^2 = |F_-|^2 = 2 v Gamma^(X) / (L (detuning^2 + Gbar^2)). The
    # denominators are tested before dividing, since a 0 would raise
    denominators = {}
    for band, detuning in ((Band.PUMP, pump.detuning), (Band.SIGNAL, 0.0), (Band.IDLER, 0.0)):
        denominators[band] = [L * (detuning * detuning + g * g) for g in gbar[band]]
        if 0.0 in denominators[band]:
            raise FloatingPointError("a linewidth squared underflows to 0, so a pair rate "
                                     "is not finite")

    def abs2(band: Band, gamma: list[float]) -> list[float]:
        two_v = 2.0 * system.bands[band].v
        return [two_v * g / den for g, den in zip(gamma, denominators[band])]

    f_pump2 = abs2(Band.PUMP, rates[system.pump_input_channel][Band.PUMP])
    f_s2 = {x: abs2(Band.SIGNAL, g[Band.SIGNAL]) for x, g in rates.items()}
    f_i2 = {y: abs2(Band.IDLER, g[Band.IDLER]) for y, g in rates.items()}
    # the vacuum power's (detuning^2 + (Gbar_S + Gbar_I)^2) is 0 only when
    # Gbar_S^2 is, which has been tested
    p_vac = _vacuum_powers(gbar[Band.SIGNAL], gbar[Band.IDLER], sb.omega, ib.omega,
                           two_photon_detuning(system, pump))
    # the squares of the swept terms are products: a float's x ** 2 is libm's
    # pow, which is not x * x on about 0.08% of arguments
    scale = (math.sqrt(sb.omega * ib.omega) / omega_o) \
        * (pb.v ** 2 / (sb.v * ib.v)) * gnl_l ** 2 * pump.power ** 2
    energy = HBAR * omega_o
    common = [scale * p / energy * (f * f) for p, f in zip(p_vac, f_pump2)]
    out = {(x, y): [c * s * i for c, s, i in zip(common, f_s2[x], f_i2[y])]
           for x in rates for y in rates}
    if not all(all(map(math.isfinite, r)) for r in out.values()):
        raise FloatingPointError("a pair rate overflows the float range")
    return out if lengths else {pair: r for pair, (r,) in out.items()}


def pair_rate_cw(system: SystemSpec, pump: CwPump, signal_exit: str,
                 idler_exit: str) -> float:
    """Closed-form CW rate [pairs/s] of pairs with the signal leaving via
    signal_exit and the idler via idler_exit."""
    return pair_rates(system, pump)[(signal_exit, idler_exit)]


class ZeroRateError(ZeroDivisionError):
    """A reference rate is 0: with a positive nonlinearity, an underflow."""


def rel_difference(rate_attenuation: float, rate_phantom: float) -> float:
    """|R_att - R_ph| / R_ph of a strategy-1 and a phantom rate; a phantom rate
    of 0, an underflow once the nonlinearity is positive, leaves it undefined."""
    if rate_phantom == 0.0:
        raise ZeroRateError("the phantom rate underflows to 0, so the relative "
                            "difference of the two strategies is undefined")
    return abs(rate_attenuation - rate_phantom) / rate_phantom


def _golden_rule_kernel(system: SystemSpec, pump: CwPump, signal_exit: str,
                        idler_exit: str) -> Callable[[float], float]:
    """d1 -> |golden-rule interaction kernel|^2 at the signal detuning d1 =
    omega1 - omega_S; the idler's is the two-photon detuning less d1."""
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    scale = HBAR ** 2 * EPS0 * pb.v ** 2 / (12.0 * math.pi ** 2) \
        * math.sqrt(sb.omega * ib.omega) * (system.ring.gamma_nl * system.ring.circumference)
    f_pump = enhancement_factor(system, system.pump_input_channel, Band.PUMP, pump.detuning)
    f_s = _enhancement(system, signal_exit, Band.SIGNAL)
    f_i = _enhancement(system, idler_exit, Band.IDLER)
    e = two_photon_detuning(system, pump)

    def kernel(d1: float) -> float:
        k = abs(scale * f_s(d1) * f_i(e - d1) * f_pump * f_pump)
        return k * k

    return kernel


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

    kernel = _golden_rule_kernel(system, pump, signal_exit, idler_exit)

    def mapped(thetas: list[float]) -> list[float]:
        return [kernel(gbar_s * tan) * (gbar_s * (1.0 + tan * tan))
                for tan in map(math.tan, thetas)]

    # peaks as (theta, half-width in theta), dtheta/domega1 = 1 / (Gbar_S (1 + x^2))
    # at the idler's; a difference of atans would round to 0 far out
    t_i, half_width = math.atan(x), gbar_i / gbar_s / (1.0 + x * x)
    if t_i + half_width == t_i:  # far out, a narrow line is below one ulp of atan(x)
        raise QuadratureError(f"oracle rate R[{signal_exit},{idler_exit}]: the idler line is "
                              "narrower than the theta map resolves")
    prefactor = 72.0 * math.pi ** 3 / (EPS0 ** 2 * HBAR ** 4 * omega_o ** 2) \
        * pump.power ** 2 / (sb.v * ib.v * pb.v ** 2)
    try:
        quad = integrate_adaptive(mapped, -0.5 * math.pi, 0.5 * math.pi, rel_tol=1e-8,
                                  points=[(0.0, 0.25 * math.pi), (t_i, half_width)])
    except QuadratureError as e:
        raise e.scaled(prefactor, f"oracle rate R[{signal_exit},{idler_exit}]",
                       " pairs/s") from e
    rate = prefactor * quad.value
    if not math.isfinite(rate):  # the kernel's v_P^2 underflows as the prefactor overflows
        raise FloatingPointError(f"the oracle rate R[{signal_exit},{idler_exit}] is {rate}, "
                                 "past the float range")
    return rate
