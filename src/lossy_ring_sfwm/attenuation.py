"""Loss-as-attenuation model of the ring-waveguide system.

Lossless point couplers (f2 = sigma f1 + i kappa f4, f3 = i kappa f1 + sigma
f4) join the bus waveguides to a ring whose loss enters through a complex
wavevector: incoming fields propagate with k + i xi/2 (attenuation), outgoing
ones with k - i xi/2, so that the solution has a single freely propagating
outgoing component. A single-bus ring is an add-drop ring with one coupler,
so one builder makes the fields of both: i kappa_1 / (1 - prod sigma e^{i k~ L})
incoming just after the pump's coupler 1, gaining sigma_j past each further
coupler j, and i kappa_e prod_{j != e} sigma_j / (prod sigma - e^{i k~ L})
outgoing just after its exit coupler e, gaining 1 / sigma_j instead.

Pair rates integrate the overlap (signal idler)* pump pump around the ring,
then over the signal frequency; signal and idler are always outgoing and the
pump incoming, so the overlap conjugates by position. The frequency integral
runs in theta = atan(s tan(phi / 2)), phi the signal's round-trip phase and
s = (1 + r) / (1 - r) for its round-trip amplitude r: the Jacobian of that map
cancels the signal's Airy factor 1 / |1 - r e^{i phi}|^2 exactly, so the
quadrature sees a flat signal resonance instead of a peak. Each rate makes its
three field builders once, holding all that does not depend on omega, since
rebuilding that per quadrature node was most of a rate's cost. A node is then
two builder calls and one overlap_of_fields call in plain complex math, which
`benchmark/run.py --trace 1` counts per evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import TWO_PI
from .model import Band, CwPump, SystemSpec, phantom_gamma_from_xi
from .numerics import integrate_adaptive

# half-width of the rate quadrature window, in signal linewidths (FWHM), and
# the fraction of one free spectral range it may span on either side of the
# resonance, so neighbouring resonances never leak in
_WINDOW_LINEWIDTHS = 40.0
_WINDOW_FSR_CAP = 0.45

_TAYLOR_THRESHOLD = 1e-6  # |dk L| below which the overlap integral is expanded


class SingularityError(ArithmeticError):
    """A lossless resonance denominator vanished (sigma = 1 on resonance)."""


@dataclass(frozen=True)
class PointCoupler:
    """Lossless 2x2 junction between a bus waveguide and the ring."""

    sigma: float  # self-coupling
    kappa: float  # cross-coupling

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"self-coupling must be in [0, 1], got {self.sigma}")
        if abs(self.sigma**2 + self.kappa**2 - 1.0) > 1e-12:
            raise ValueError(
                f"coupler must be lossless: sigma^2 + kappa^2 = "
                f"{self.sigma**2 + self.kappa**2}")

    @classmethod
    def from_sigma(cls, sigma: float) -> "PointCoupler":
        return cls(sigma=sigma, kappa=math.sqrt(max(0.0, 1.0 - sigma * sigma)))


def coupler_scatter(coupler: PointCoupler, f1: complex, f4: complex) -> tuple[complex, complex]:
    """Outputs (f2, f3) of the point coupler for inputs (f1, f4)."""
    f2 = coupler.sigma * f1 + 1j * coupler.kappa * f4
    f3 = 1j * coupler.kappa * f1 + coupler.sigma * f4
    return f2, f3


@dataclass(frozen=True)
class RingField:
    """A piecewise ring field: amplitude at the start of each arc segment,
    all segments sharing one propagation wavevector."""

    k_prop: complex  # multiplies zeta in this field's e^{i k zeta}
    segments: tuple[tuple[float, complex], ...]  # (arc length, start amplitude)


def phase_mismatch_integral(dk: complex, length: float) -> complex:
    """Integral of e^{i dk zeta} over one segment, stable at dk -> 0."""
    x = dk * length
    if abs(x) < _TAYLOR_THRESHOLD:
        return length * (1.0 + 1j * x / 2.0 - x * x / 6.0)
    return (cmath.exp(1j * x) - 1.0) / (1j * dk)


def overlap_of_fields(signal: RingField, idler: RingField, pump: RingField,
                      delta_kappa: float = 0.0) -> complex:
    """Ring overlap of (signal idler)* pump pump, segment by segment.

    Segment amplitudes already carry each field's propagation phase to the
    segment start; only the mode-mismatch phase accumulates explicitly, with
    one exponent for all segments, since each field keeps one wavevector."""
    if not len(signal.segments) == len(idler.segments) == len(pump.segments):
        raise ValueError("fields must share one ring segmentation")
    k_p = pump.k_prop
    dk = complex(delta_kappa) - signal.k_prop.conjugate() - idler.k_prop.conjugate() + k_p + k_p
    total = 0.0 + 0.0j
    start = 0.0
    for (length, a_s), (_, a_i), (_, a_p) in zip(signal.segments, idler.segments,
                                                 pump.segments):
        amp = a_s.conjugate() * a_i.conjugate() * a_p * a_p
        total += amp * cmath.exp(1j * delta_kappa * start) \
            * phase_mismatch_integral(dk, length)
        start += length
    return total


def overlap_by_zeta_scan(signal: RingField, idler: RingField, pump: RingField,
                         circumference: float, delta_kappa: float = 0.0,
                         n: int = 10_001) -> complex:
    """Direct numerical scan of the ring overlap integrand (oracle for
    overlap_of_fields; deliberately ignorant of the closed form).

    Each arc segment is scanned separately because the field amplitudes
    jump across coupling points."""
    fields = ((signal, True), (idler, True), (pump, False), (pump, False))  # (field, conjugated)
    n_seg = len(signal.segments)
    if any(len(f.segments) != n_seg for f, _ in fields):
        raise ValueError("fields must share one ring segmentation")
    total = 0.0 + 0.0j
    start = 0.0
    per_segment = max(n // n_seg, 64)
    for seg in range(n_seg):
        length = signal.segments[seg][0]
        local = np.linspace(0.0, length, per_segment)
        vals = np.ones_like(local, dtype=complex)
        for f, conj in fields:
            amp = f.segments[seg][1] * np.exp(1j * f.k_prop * local)
            vals = vals * (np.conj(amp) if conj else amp)
        vals *= np.exp(1j * delta_kappa * (start + local))
        total += np.trapezoid(vals, local)
        start += length
    return complex(total)


# ---------------------------------------------------------------------------
# Field builder: one per band and exit of a rate, holding everything that
# does not depend on omega
# ---------------------------------------------------------------------------

FieldBuilder = Callable[[float], RingField]


def ring_field_builder(system: SystemSpec, band: Band,
                       exit_channel: str | None = None) -> FieldBuilder:
    """omega -> the ring field in `band`, one arc segment after each coupler of
    system.buses(1, 2), in that order around the ring: incoming from the pump
    bus when exit_channel is None, else outgoing through exit_channel."""
    buses = system.buses(1, 2)
    incoming = exit_channel is None
    if not (incoming or exit_channel in buses):
        raise KeyError(f"exit channel {exit_channel!r} is not a physical channel")
    first = 0 if incoming else buses.index(exit_channel)
    sigmas = [system.sigma_view(x, band) for x in buses]
    passed = sigmas[first + 1:] + sigmas[:first]  # the further couplers, in field order
    kappa = PointCoupler.from_sigma(sigmas[first]).kappa
    numerator = 1j * kappa * (1 if incoming else math.prod(passed))
    product = math.prod(sigmas)
    n = len(buses)
    L, length = system.ring.circumference, system.ring.circumference / n
    shift = (0.5j if incoming else -0.5j) * system.ring.xi  # i Im k~
    k_of_omega = system.bands[band].k_of_omega

    def field(omega: float) -> RingField:
        kt = k_of_omega(omega) + shift
        phase = cmath.exp(1j * kt * L)
        den = 1.0 - product * phase if incoming else product - phase
        if abs(den) < 1e-13:
            raise SingularityError(
                "resonance denominator vanished; a lossless ring at sigma = 1 has no "
                "steady asymptotic field on resonance")
        amps = [numerator / den]
        if passed:
            hop = cmath.exp(1j * kt * L / n)
            for s in passed:
                amps.append(s * amps[-1] * hop if incoming else amps[-1] * hop / s)
        # amps run from coupler `first` on; segments from coupler 1
        return RingField(kt, tuple((length, x) for x in amps[n - first:] + amps[:n - first]))

    return field


# ---------------------------------------------------------------------------
# CW pair generation rate
# ---------------------------------------------------------------------------

def _linewidth(system: SystemSpec, band: Band) -> float:
    """Resonance half-width: physical decay rates plus the loss's xi v / 2; a
    phantom channel, which this model never reads, plays no part."""
    return sum(c.gamma(band) for c in system.physical_channels) \
        + phantom_gamma_from_xi(system.ring.xi, system.bands[band].v)


def signal_window(system: SystemSpec, pump: CwPump) -> tuple[float, float]:
    """(lo, hi) of the signal frequencies a rate integrates: 40 linewidths
    either side of the signal resonance, capped at 0.45 of a free spectral
    range, above 1e-3 omega_S and below the signal frequency at which the
    idler 2 omega_o - omega1 falls to 1e-3 omega_I. A far red-detuned pump
    leaves it empty (lo >= hi)."""
    sb, ib = system.bands[Band.SIGNAL], system.bands[Band.IDLER]
    omega_o = system.bands[Band.PUMP].omega + pump.detuning
    fsr = TWO_PI * sb.v / system.ring.circumference
    half_window = min(_WINDOW_LINEWIDTHS * 2.0 * _linewidth(system, Band.SIGNAL),
                      _WINDOW_FSR_CAP * fsr)
    return (max(sb.omega - half_window, 1e-3 * sb.omega),
            min(sb.omega + half_window, 2.0 * omega_o - 1e-3 * ib.omega))


def pair_rate_cw(system: SystemSpec, pump: CwPump, signal_exit: str, idler_exit: str, *,
                 rel_tol: float = 1e-6) -> float:
    """CW pair generation rate [pairs/s] with the signal collected in the bus
    signal_exit and the idler in idler_exit.

    The integral over omega1 runs in theta = atan(s tan(phi / 2)), with phi =
    (omega1 - omega_S) L / v_S the signal's round-trip phase, s = (1 + r) /
    (1 - r) and r = prod sigma_j e^{-xi L / 2} its round-trip amplitude. Its
    Airy factor 1 / |1 - r e^{i phi}|^2 = (cos^2 theta + sin^2 theta / s^2) /
    (1 - r)^2 times the Jacobian domega1/dtheta = (2 v_S s / L) / (s^2 cos^2
    theta + sin^2 theta) is a constant, so the signal resonance is flat in
    theta; where the idler resonance coincides with it, what remains is a trig
    polynomial. The window is signal_window's, |phi| <= 0.9 pi, where the map
    is monotone."""
    signal = ring_field_builder(system, Band.SIGNAL, signal_exit)
    idler = ring_field_builder(system, Band.IDLER, idler_exit)
    ring = system.ring
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    omega_o = pb.omega + pump.detuning
    pump_field = ring_field_builder(system, Band.PUMP)(omega_o)

    r = math.prod(system.sigma_view(x, Band.SIGNAL) for x in system.buses(1, 2)) \
        * ring.roundtrip_amplitude
    if r >= 1.0:
        raise SingularityError("the signal resonance of a lossless, uncoupled ring has no "
                               "width to integrate over")
    s = (1.0 + r) / (1.0 - r)
    scale = 2.0 * sb.v / ring.circumference  # omega1 - omega_S = scale * phi / 2

    def theta(omega1: float) -> float:
        return math.atan(s * math.tan((omega1 - sb.omega) / scale))

    def integrand(omega1: float) -> float:
        omega2 = 2.0 * omega_o - omega1
        j = overlap_of_fields(signal(omega1), idler(omega2), pump_field,
                              delta_kappa=ring.delta_kappa)
        return omega1 * omega2 * abs(j) ** 2

    def mapped(t: np.ndarray) -> np.ndarray:
        omega = sb.omega + scale * np.arctan(np.tan(t) / s)
        jacobian = scale * s / (s * s * np.cos(t) ** 2 + np.sin(t) ** 2)
        return np.array([integrand(w) for w in omega.tolist()]) * jacobian

    lo, hi = signal_window(system, pump)
    points = [(0.0, theta(sb.omega + _linewidth(system, Band.SIGNAL)))]
    mirror = 2.0 * omega_o - ib.omega  # omega1 at which the idler is resonant
    if lo < mirror < hi:
        t_m = theta(mirror)
        points.append((t_m, abs(theta(mirror + _linewidth(system, Band.IDLER)) - t_m)))
    quad = integrate_adaptive(mapped, theta(lo), theta(hi), rel_tol=rel_tol, points=points)
    prefactor = (1.0 / TWO_PI) * (ring.gamma_nl * pump.power / pb.omega) ** 2 \
        * pb.v ** 2 / (sb.v * ib.v)
    return prefactor * quad.value
