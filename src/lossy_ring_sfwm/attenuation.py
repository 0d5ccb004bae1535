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

A field is held as its envelope about its resonance's carrier e^{i K zeta},
K L = 2 pi m, at the detuning d = omega - omega_J: its round-trip phase is
d L / v, and the carriers' mismatch 2 K_P - K_S - K_I joins the ring's
delta_kappa in the overlap.

Pair rates integrate the overlap (signal idler)* pump pump around the ring,
then over the signal detuning; signal and idler are always outgoing and the
pump incoming, so the overlap conjugates by position. The frequency integral
runs in theta = atan(s tan(phi / 2)), phi the signal's round-trip phase and
s = (1 + r) / (1 - r) for its round-trip amplitude r: the Jacobian of that map
cancels the signal's Airy factor 1 / |1 - r e^{i phi}|^2 exactly, so the
quadrature sees a flat signal resonance instead of a peak, and the idler line
over the signal's is what is left. Where that ratio stays within twice its
far-off value, as where an idler line no narrower than 1/sqrt(2) of the
signal's sits on it, one panel resolves it and the quadrature is handed no
hints; a taller idler peak (a detuned pump, a narrower idler) is hinted
together with the signal resonance. Each rate makes its three field builders
once, holding all that does not depend on the detuning, since rebuilding
that per quadrature node was most of a rate's cost. A node is then two
builder calls and one overlap_of_fields call in plain complex math, which
`benchmark/run.py --trace 1` counts per evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .constants import TWO_PI
from .model import Band, CwPump, SystemSpec, phantom_gamma_from_xi, two_photon_detuning
from .numerics import QuadratureError, integrate_adaptive

# half-width of the rate quadrature window, as a fraction of one free
# spectral range, so neighbouring resonances never leak in
_WINDOW_FSR = 0.45

_TAYLOR_THRESHOLD = 1e-6  # |dk L| below which the overlap integral is expanded


class SingularityError(ArithmeticError):
    """A lossless resonance denominator vanished (sigma = 1 on resonance)."""


@dataclass(frozen=True)
class RingField:
    """A piecewise ring field's envelope about its carrier: amplitude at the
    start of each of n equal arcs, all arcs sharing one propagation wavevector."""

    k_prop: complex  # multiplies zeta in the envelope's e^{i k zeta}
    arc: float  # length of each arc, L / n for n couplers
    amps: tuple[complex, ...]  # start amplitude of each arc


def phase_mismatch_integral(dk: complex, length: float) -> complex:
    """Integral of e^{i dk zeta} over one arc, stable at dk -> 0."""
    x = dk * length
    if abs(x) < _TAYLOR_THRESHOLD:
        return length * (1.0 + 1j * x / 2.0 - x * x / 6.0)
    return (cmath.exp(1j * x) - 1.0) / (1j * dk)


def overlap_of_fields(signal: RingField, idler: RingField, pump: RingField,
                      delta_kappa: float = 0.0) -> complex:
    """Ring overlap of (signal idler)* pump pump, arc by arc.

    Arc amplitudes already carry each field's propagation phase to the arc
    start; only the mode-mismatch phase accumulates explicitly, with one
    exponent and one integral for all arcs, since they are equal."""
    k_p = pump.k_prop
    dk = complex(delta_kappa) - signal.k_prop.conjugate() - idler.k_prop.conjugate() + k_p + k_p
    integral = phase_mismatch_integral(dk, signal.arc)
    total = 0.0 + 0.0j
    for j, (a_s, a_i, a_p) in enumerate(zip(signal.amps, idler.amps, pump.amps, strict=True)):
        amp = a_s.conjugate() * a_i.conjugate() * a_p * a_p
        total += amp * cmath.exp(1j * delta_kappa * (j * signal.arc)) * integral
    return total


# ---------------------------------------------------------------------------
# Field builder: one per band and exit of a rate, holding everything that
# does not depend on the detuning
# ---------------------------------------------------------------------------

FieldBuilder = Callable[[float], RingField]


def ring_field_builder(system: SystemSpec, band: Band,
                       exit_channel: str | None = None) -> FieldBuilder:
    """Detuning d = omega - omega_J -> the ring field's envelope in `band`, one
    arc after each coupler of system.buses(1, 2), in that order
    around the ring: incoming from the pump bus when exit_channel is None,
    else outgoing through exit_channel."""
    buses = system.buses(1, 2)
    incoming = exit_channel is None
    if not (incoming or exit_channel in buses):
        raise KeyError(f"exit channel {exit_channel!r} is not a physical channel")
    first = 0 if incoming else buses.index(exit_channel)
    sigmas = [system.sigma_view(x, band) for x in buses]
    passed = sigmas[first + 1:] + sigmas[:first]  # the further couplers, in field order
    kappa = math.sqrt(max(0.0, 1.0 - sigmas[first] * sigmas[first]))
    numerator = 1j * kappa * (1 if incoming else math.prod(passed))
    product = math.prod(sigmas)
    n = len(buses)
    L, arc = system.ring.circumference, system.ring.circumference / n
    shift = (0.5j if incoming else -0.5j) * system.ring.xi  # i Im k~
    v = system.bands[band].v

    def field(d: float) -> RingField:
        kt = d / v + shift
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
        # amps run from coupler `first` on; arcs from coupler 1
        return RingField(kt, arc, tuple(amps[n - first:] + amps[:n - first]))

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
    """(lo, hi) of the signal detunings a rate integrates: 0.45 of a free
    spectral range either side of the signal resonance, whatever its
    linewidth, with the signal above 1e-3 omega_S and the idler above 1e-3
    omega_I. No coupling enters it. A far red-detuned pump leaves it empty
    (lo >= hi)."""
    sb, ib = system.bands[Band.SIGNAL], system.bands[Band.IDLER]
    half_window = _WINDOW_FSR * TWO_PI * sb.v / system.ring.circumference
    return (max(-half_window, -0.999 * sb.omega),
            min(half_window, two_photon_detuning(system, pump) + 0.999 * ib.omega))


def pair_rate_cw(system: SystemSpec, pump: CwPump, signal_exit: str, idler_exit: str, *,
                 rel_tol: float = 1e-6) -> float:
    """CW pair generation rate [pairs/s] with the signal collected in the bus
    signal_exit and the idler in idler_exit.

    The integral over the signal detuning d1 = omega1 - omega_S runs in
    theta = atan(s tan(phi / 2)), with phi = d1 L / v_S the signal's
    round-trip phase, s = (1 + r) / (1 - r) and r = prod sigma_j e^{-xi L /
    2} its round-trip amplitude. Its
    Airy factor 1 / |1 - r e^{i phi}|^2 = (cos^2 theta + sin^2 theta / s^2) /
    (1 - r)^2 times the Jacobian dd1/dtheta = (2 v_S s / L) / (s^2 cos^2
    theta + sin^2 theta) is a constant, so the signal resonance is flat in
    theta; where the idler resonance coincides with it, what remains is a trig
    polynomial. The window is signal_window's, |phi| <= 0.9 pi, where the map
    is monotone.

    In the Lorentzian limit the integrand in theta goes as (d1^2 + G_S^2) /
    ((d1 - e)^2 + G_I^2), G the half-widths and e = 2 omega_o - omega_S -
    omega_I the signal detuning of the idler peak: 1 far off, (e^2 + G_S^2)
    / G_I^2 at e. Up to 2 the quadrature starts on one panel, with no hints;
    above that it is handed the signal resonance and, inside the window, the
    idler peak, each with its half-width in theta, so the panels ladder in
    around the peak."""
    signal = ring_field_builder(system, Band.SIGNAL, signal_exit)
    idler = ring_field_builder(system, Band.IDLER, idler_exit)
    ring = system.ring
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    pump_field = ring_field_builder(system, Band.PUMP)(pump.detuning)
    e = two_photon_detuning(system, pump)  # d1 at which the idler is resonant
    # the ring's mismatch plus the carriers' 2 pi (2 m_P - m_S - m_I) / L
    delta_kappa = ring.delta_kappa + TWO_PI * (2 * pb.m - sb.m - ib.m) / ring.circumference

    r = math.prod(system.sigma_view(x, Band.SIGNAL) for x in system.buses(1, 2)) \
        * ring.roundtrip_amplitude
    if r >= 1.0:
        raise SingularityError("the signal resonance of a lossless, uncoupled ring has no "
                               "width to integrate over")
    s = (1.0 + r) / (1.0 - r)
    scale = 2.0 * sb.v / ring.circumference  # d1 = scale * phi / 2

    def theta(d1: float) -> float:
        return math.atan(s * math.tan(d1 / scale))

    def integrand(d1: float) -> float:
        j = overlap_of_fields(signal(d1), idler(e - d1), pump_field, delta_kappa=delta_kappa)
        return (sb.omega + d1) * (ib.omega + (e - d1)) * abs(j) ** 2

    def mapped(thetas: list[float]) -> list[float]:
        return [integrand(scale * math.atan(math.tan(t) / s))
                * (scale * s / (s * s * math.cos(t) ** 2 + math.sin(t) ** 2)) for t in thetas]

    lo, hi = signal_window(system, pump)
    gamma_s, gamma_i = _linewidth(system, Band.SIGNAL), _linewidth(system, Band.IDLER)
    points = []
    # hint only an idler line standing above twice its far-off value in theta
    if e ** 2 + gamma_s ** 2 > 2.0 * gamma_i ** 2:
        points.append((0.0, theta(gamma_s)))
        if lo < e < hi:
            t_m = theta(e)
            points.append((t_m, abs(theta(e + gamma_i) - t_m)))
    prefactor = (1.0 / TWO_PI) * (ring.gamma_nl * pump.power / pb.omega) ** 2 \
        * pb.v ** 2 / (sb.v * ib.v)
    try:
        quad = integrate_adaptive(mapped, theta(lo), theta(hi), rel_tol=rel_tol, points=points)
    except QuadratureError as e:
        raise e.scaled(prefactor, f"strategy-1 rate R[{signal_exit},{idler_exit}]",
                       " pairs/s") from e
    rate = prefactor * quad.value
    if not math.isfinite(rate):
        raise FloatingPointError(f"the strategy-1 pair rate is {rate}, past the float range")
    return rate
