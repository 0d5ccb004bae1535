"""Phantom-channel Hamiltonian model of the lossy ring.

Scattering loss is a coupling into one fictitious ("phantom") waveguide,
so the linear dynamics are unitary and lost photons remain in the state
space. Each channel X contributes a decay rate Gamma_J^(X) to the total
ring linewidth Gbar_J, and the steady-state scattering solutions are
captured by the complex enhancement factors

    F_(J,+-)^(X)(k) = (1/sqrt(L)) gamma_J^(X) / (v_J (K_J - k) -+ i Gbar_J)

with gamma_J^(X) = sqrt(2 v_J Gamma_J^(X)) the amplitude coupling (taken
real). The minus branch belongs to incoming-type solutions, the plus
branch to outgoing-type ones. CW pair rates come out in closed form as a
product of enhancement factors and the fluctuating vacuum power. One
array kernel, pair_rates, evaluates that product for every (signal exit,
idler exit) at once; channel decay rates may be numpy arrays that
broadcast together, so a whole coupling map is one call, and the scalar
pair_rate_cw and rate_matrix are thin calls into it. The
Fermi-golden-rule frequency integral is kept alongside as a brute-force
oracle for that closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.typing import ArrayLike

from .constants import EPS0, HBAR
from .model import Band, ChannelKind, CwPump, SystemSpec
from .numerics import integrate_adaptive


class Branch(enum.Enum):
    """Sign of i Gbar in the enhancement denominator."""

    MINUS = "in"  # incoming-type solutions
    PLUS = "out"  # outgoing-type solutions


def _strategy2_detuning(system: SystemSpec, band: Band, k: ArrayLike):
    p = system.bands[band]
    return p.v * (p.k_ref - k)  # = omega_J - omega(k)


def enhancement_factor(system: SystemSpec, channel_id: str, band: Band, k: ArrayLike,
                       branch: Branch) -> complex | np.ndarray:
    """Complex field enhancement factor of one channel at wavenumber k (or an array)."""
    gamma_amp = system.amplitude_coupling(channel_id, band)
    gbar = system.gamma_bar(band)
    sign = -1.0 if branch is Branch.MINUS else 1.0
    den = _strategy2_detuning(system, band, k) + sign * 1j * gbar
    return gamma_amp / (math.sqrt(system.ring.circumference) * den)


def _enhancement_abs2(v: float, gamma: ArrayLike, gbar: ArrayLike, circumference: float,
                      detuning: float = 0.0):
    """|F|^2 of either branch, 2 v Gamma^(X) / (L (detuning^2 + Gbar^2)), for
    scalar or array decay rates."""
    return 2.0 * v * gamma / (circumference * (detuning * detuning + gbar * gbar))


def enhancement_peak_abs2(system: SystemSpec, channel_id: str, band: Band) -> float:
    """|F|^2 on resonance: 2 v Gamma^(X) / (L Gbar^2)."""
    return _enhancement_abs2(system.bands[band].v, system.channel(channel_id).gamma(band),
                             system.gamma_bar(band), system.ring.circumference)


# ---------------------------------------------------------------------------
# Asymptotic field amplitudes (piecewise over the waveguide regions + ring)
# ---------------------------------------------------------------------------

class Region(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    RING = "ring"


@dataclass(frozen=True)
class PiecewiseAmplitude:
    """Amplitude of an asymptotic field in one region of the structure.

    For waveguide regions the amplitude multiplies the bare running wave
    e^{i k z}; in the ring it multiplies the mode profile e^{i kappa_J zeta}.
    """

    region: Region
    channel_id: str | None  # None for the ring
    amplitude: complex


def _asy_amplitude(system: SystemSpec, channel_id: str, band: Band, k: float,
                   branch: Branch) -> list[PiecewiseAmplitude]:
    """Solution with a unit wave in one channel: entering through it on the
    MINUS branch (incoming type), leaving through it on the PLUS branch."""
    F = enhancement_factor(system, channel_id, band, k, branch)
    v = system.bands[band].v
    sqrt_l = math.sqrt(system.ring.circumference)
    incoming = branch is Branch.MINUS
    regions = (Region.INPUT, Region.OUTPUT) if incoming else (Region.OUTPUT, Region.INPUT)
    driven, scattered = regions
    pieces = [PiecewiseAmplitude(driven, c.channel_id, float(c.channel_id == channel_id))
              for c in system.channels]
    pieces.append(PiecewiseAmplitude(Region.RING, None, -F))
    for c in system.channels:
        amp = (1j if incoming else -1j) * system.amplitude_coupling(c.channel_id, band) \
            * sqrt_l * F / v
        pieces.append(PiecewiseAmplitude(scattered, c.channel_id,
                                         1.0 + amp if c.channel_id == channel_id else amp))
    return pieces


def asy_in_amplitude(system: SystemSpec, input_channel: str, band: Band,
                     k: float) -> list[PiecewiseAmplitude]:
    """Incoming-type solution: unit wave entering via one channel."""
    chan = system.channel(input_channel)
    if chan.kind is not ChannelKind.PHYSICAL:
        raise ValueError(f"asymptotic-in fields are driven through physical channels, "
                         f"{input_channel!r} is {chan.kind.value}")
    return _asy_amplitude(system, input_channel, band, k, Branch.MINUS)


def asy_out_amplitude(system: SystemSpec, output_channel: str, band: Band,
                      k: float) -> list[PiecewiseAmplitude]:
    """Outgoing-type solution: unit wave leaving via one channel."""
    return _asy_amplitude(system, output_channel, band, k, Branch.PLUS)


def flux(system: SystemSpec, pieces: list[PiecewiseAmplitude], region: Region,
         band: Band) -> float:
    """Power-like flux sum v |amplitude|^2 over one region type."""
    v = system.bands[band].v
    return sum(v * abs(p.amplitude) ** 2 for p in pieces if p.region is region)


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


def _pair_vacuum_power(system: SystemSpec, pump: CwPump, gamma_bar_s: ArrayLike,
                       gamma_bar_i: ArrayLike):
    """vacuum_power at the CW pump's two-photon offset 2 omega_o - omega_S - omega_I."""
    sb = system.bands[Band.SIGNAL]
    ib = system.bands[Band.IDLER]
    omega_o = system.bands[Band.PUMP].omega + pump.detuning
    return vacuum_power(gamma_bar_s, gamma_bar_i, sb.omega, ib.omega,
                        detuning=2.0 * omega_o - sb.omega - ib.omega)


def _pump_k(system: SystemSpec, pump: CwPump) -> float:
    p = system.bands[Band.PUMP]
    return p.k_ref + pump.detuning / p.v


def pair_rates(system: SystemSpec, pump: CwPump,
               gammas: Mapping[str, Mapping[Band, ArrayLike]] | None = None
               ) -> dict[tuple[str, str], float | np.ndarray]:
    """Closed-form CW rates [pairs/s] R_XY = C |F_P|^4 |F_S^(X)|^2 |F_I^(Y)|^2 P_vac
    of pairs leaving via every (signal exit X, idler exit Y).

    gammas overrides some channels' decay rates (id -> band -> rate); numpy
    arrays that broadcast together give every rate on the broadcast grid.
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
        detuning=_strategy2_detuning(system, Band.PUMP, _pump_k(system, pump)))
    p_vac = _pair_vacuum_power(system, pump, gbar[Band.SIGNAL], gbar[Band.IDLER])
    common = (math.sqrt(sb.omega * ib.omega) / omega_o) \
        * (pb.v ** 2 / (sb.v * ib.v)) * gnl_l ** 2 \
        * pump.power ** 2 * p_vac / (HBAR * omega_o) * f_pump2 ** 2
    f_s2 = {x: _enhancement_abs2(sb.v, g[Band.SIGNAL], gbar[Band.SIGNAL], L)
            for x, g in rates.items()}
    f_i2 = {y: _enhancement_abs2(ib.v, g[Band.IDLER], gbar[Band.IDLER], L)
            for y, g in rates.items()}
    return {(x, y): common * f_s2[x] * f_i2[y] for x in rates for y in rates}


def pair_rate_cw(system: SystemSpec, pump: CwPump, signal_exit: str,
                 idler_exit: str) -> float:
    """Closed-form CW rate [pairs/s] of pairs with the signal leaving via
    signal_exit and the idler via idler_exit."""
    return float(pair_rates(system, pump)[(signal_exit, idler_exit)])


@dataclass(frozen=True)
class RateMatrix:
    """CW pair rates for every (signal exit, idler exit) channel pair."""

    rates: Mapping[tuple[str, str], float]  # [pairs/s]
    p_vac: float  # [W]

    def rate(self, signal_exit: str, idler_exit: str) -> float:
        return self.rates[(signal_exit, idler_exit)]


def rate_matrix(system: SystemSpec, pump: CwPump) -> RateMatrix:
    rates = {key: float(r) for key, r in pair_rates(system, pump).items()}
    p_vac = _pair_vacuum_power(system, pump, system.gamma_bar(Band.SIGNAL),
                               system.gamma_bar(Band.IDLER))
    return RateMatrix(rates=rates, p_vac=p_vac)


def rate_ratio(matrix: RateMatrix, signal_exit: str, idler_exit: str,
               ref_signal_exit: str, ref_idler_exit: str) -> float:
    """Ratio of two rate-matrix entries; the reference entry must be nonzero."""
    ref = matrix.rate(ref_signal_exit, ref_idler_exit)
    if ref == 0.0:
        raise ZeroDivisionError(
            f"reference rate R[{ref_signal_exit},{ref_idler_exit}] is zero")
    return matrix.rate(signal_exit, idler_exit) / ref


def _golden_rule_kernel(system: SystemSpec, pump: CwPump, signal_exit: str,
                        idler_exit: str, omega1: np.ndarray) -> np.ndarray:
    """|golden-rule interaction kernel|^2 at signal frequencies omega1 (an array)."""
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    scale = HBAR ** 2 * EPS0 * pb.v ** 2 / (12.0 * math.pi ** 2) \
        * math.sqrt(sb.omega * ib.omega) * (system.ring.gamma_nl * system.ring.circumference)
    f_pump = enhancement_factor(system, system.pump_input_channel, Band.PUMP,
                                _pump_k(system, pump), Branch.MINUS)
    f_s = enhancement_factor(system, signal_exit, Band.SIGNAL, sb.k_of_omega(omega1),
                             Branch.PLUS)
    f_i = enhancement_factor(system, idler_exit, Band.IDLER,
                             ib.k_of_omega(2.0 * (pb.omega + pump.detuning) - omega1),
                             Branch.PLUS)
    return np.abs(scale * np.conj(f_s) * np.conj(f_i) * f_pump * f_pump) ** 2


def fgr_rate_oracle(system: SystemSpec, pump: CwPump, signal_exit: str,
                    idler_exit: str, *, rel_tol: float = 1e-8,
                    window_halfwidths: float = 500.0) -> float:
    """Brute-force frequency integral of the golden-rule pair rate.

    Builds the interaction kernel from the enhancement factors and
    integrates it numerically; serves as the anti-drift oracle for the
    closed-form pair_rate_cw.
    """
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    omega_o = pb.omega + pump.detuning
    gbar_s, gbar_i = system.gamma_bar(Band.SIGNAL), system.gamma_bar(Band.IDLER)
    mirror = 2.0 * omega_o - ib.omega  # omega1 at which the idler is resonant
    lo = min(sb.omega, mirror) - window_halfwidths * max(gbar_s, gbar_i)
    hi = max(sb.omega, mirror) + window_halfwidths * max(gbar_s, gbar_i)
    quad = integrate_adaptive(
        lambda w: _golden_rule_kernel(system, pump, signal_exit, idler_exit, w),
        lo, hi, rel_tol=rel_tol, points=[(sb.omega, gbar_s), (mirror, gbar_i)])
    prefactor = 72.0 * math.pi ** 3 / (EPS0 ** 2 * HBAR ** 4 * omega_o ** 2) \
        * pump.power ** 2 / (sb.v * ib.v * pb.v ** 2)
    return prefactor * quad.value
