"""Loss-as-attenuation model of the ring-waveguide system.

Linear fields are built from the lossless point-coupling relations

    f2 = sigma f1 + i kappa f4,   f3 = i kappa f1 + sigma f4,

and loss enters through a complex propagation wavevector in the ring:
incoming-type fields propagate with k + i xi/2 (attenuation), while
outgoing-type fields propagate with k - i xi/2 (an enhancement of equal
magnitude, so that the solution has a single freely propagating outgoing
component). For the all-pass ring this gives the familiar transfer
functions

    f_ring,in  = i kappa / (1 - sigma e^{i k~ L})
    f_thru,in  = (sigma - e^{i k~ L}) / (1 - sigma e^{i k~ L})

and their outgoing-type duals. Pair generation rates follow from the
overlap of two pump (incoming) and signal/idler (outgoing) ring fields
integrated around the ring, then over the signal frequency.

Each rate makes its field builders (signal out, idler out, pump in) once:
a builder maps omega to a ring field and holds all that does not depend on
omega, since rebuilding it per quadrature node was most of a rate's cost.
A node is then two builder calls and one overlap_of_fields call in plain
complex math, which `benchmark/run.py --trace 1` counts per evaluation.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import TWO_PI
from .model import Band, CwPump, SystemSpec, phantom_gamma_from_xi
from .numerics import integrate_adaptive

# fraction of one free spectral range the rate quadrature window may span
# on either side of the resonance, so neighbouring resonances never leak in
_WINDOW_FSR_CAP = 0.45

_TAYLOR_THRESHOLD = 1e-6  # |dk L| below which the overlap integral is expanded


class SingularityError(ArithmeticError):
    """A lossless resonance denominator vanished (sigma = 1 on resonance)."""


class FieldRegime(enum.Enum):
    INCOMING = "in"
    OUTGOING = "out"


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


def _loss_shift(regime: FieldRegime, xi: float) -> complex:
    """i Im k~: +i xi/2 attenuates incoming-type fields, -i xi/2 enhances outgoing ones."""
    return (0.5j if regime is FieldRegime.INCOMING else -0.5j) * xi


def _checked_inverse_denominator(d: complex) -> complex:
    if abs(d) < 1e-13:
        raise SingularityError(
            "resonance denominator vanished; a lossless ring at sigma = 1 has no "
            "steady asymptotic field on resonance")
    return d


@dataclass(frozen=True)
class RingField:
    """A piecewise ring field: amplitude at the start of each arc segment,
    all segments sharing one propagation wavevector."""

    regime: FieldRegime
    k_prop: complex  # multiplies zeta in this field's e^{i k zeta}
    segments: tuple[tuple[float, complex], ...]  # (arc length, start amplitude)


def phase_mismatch_integral(dk: complex, length: float) -> complex:
    """Integral of e^{i dk zeta} over one segment, stable at dk -> 0."""
    x = dk * length
    if abs(x) < _TAYLOR_THRESHOLD:
        return length * (1.0 + 1j * x / 2.0 - x * x / 6.0)
    return (cmath.exp(1j * x) - 1.0) / (1j * dk)


def overlap_of_fields(signal: RingField, idler: RingField, pump3: RingField,
                      pump4: RingField, delta_kappa: float = 0.0) -> complex:
    """Ring overlap of (signal idler)* pump pump, segment by segment.

    Segment amplitudes already carry each field's propagation phase to the
    segment start; only the mode-mismatch phase accumulates explicitly, with
    one exponent for all segments, since each field keeps one wavevector."""
    fields = (signal, idler, pump3, pump4)
    if not (len(signal.segments) == len(idler.segments) == len(pump3.segments)
            == len(pump4.segments)):
        raise ValueError("fields must share one ring segmentation")
    c1, c2, c3, c4 = conjugated = [f.regime is not FieldRegime.INCOMING for f in fields]
    dk = sum((-f.k_prop.conjugate() if conj else f.k_prop
              for f, conj in zip(fields, conjugated)), complex(delta_kappa))
    total = 0.0 + 0.0j
    start = 0.0
    for (length, a1), (_, a2), (_, a3), (_, a4) in zip(*(f.segments for f in fields)):
        amp = (a1.conjugate() if c1 else a1) * (a2.conjugate() if c2 else a2) \
            * (a3.conjugate() if c3 else a3) * (a4.conjugate() if c4 else a4)
        total += amp * cmath.exp(1j * delta_kappa * start) \
            * phase_mismatch_integral(dk, length)
        start += length
    return total


def overlap_by_zeta_scan(signal: RingField, idler: RingField, pump3: RingField,
                         pump4: RingField, circumference: float,
                         delta_kappa: float = 0.0, n: int = 10_001) -> complex:
    """Direct numerical scan of the ring overlap integrand (oracle for
    overlap_of_fields; deliberately ignorant of the closed form).

    Each arc segment is scanned separately because the field amplitudes
    jump across coupling points."""
    fields = (signal, idler, pump3, pump4)
    n_seg = len(signal.segments)
    if any(len(f.segments) != n_seg for f in fields):
        raise ValueError("fields must share one ring segmentation")
    total = 0.0 + 0.0j
    start = 0.0
    per_segment = max(n // n_seg, 64)
    for seg in range(n_seg):
        length = signal.segments[seg][0]
        local = np.linspace(0.0, length, per_segment)
        vals = np.ones_like(local, dtype=complex)
        for f in fields:
            amp = f.segments[seg][1] * np.exp(1j * f.k_prop * local)
            vals = vals * (np.conj(amp) if f.regime is FieldRegime.OUTGOING else amp)
        vals *= np.exp(1j * delta_kappa * (start + local))
        total += np.trapezoid(vals, local)
        start += length
    return complex(total)


# ---------------------------------------------------------------------------
# Field builders: one per band and field type of a rate, holding everything
# that does not depend on omega
# ---------------------------------------------------------------------------

FieldBuilder = Callable[[float], RingField]


def single_bus_builder(system: SystemSpec, band: Band, regime: FieldRegime) -> FieldBuilder:
    """Single-bus ring: omega -> the one-segment ring field of the given type,
    i kappa / (1 - sigma e^{i k~ L}) incoming, i kappa / (sigma - e^{i k~ L}) outgoing."""
    coupler = PointCoupler.from_sigma(system.sigma_view(system.single_bus, band))
    sigma, i_kappa, incoming = coupler.sigma, 1j * coupler.kappa, regime is FieldRegime.INCOMING
    L, shift = system.ring.circumference, _loss_shift(regime, system.ring.xi)
    k_of_omega = system.bands[band].k_of_omega

    def field(omega: float) -> RingField:
        kt = k_of_omega(omega) + shift
        phase = cmath.exp(1j * kt * L)
        den = _checked_inverse_denominator(1.0 - sigma * phase if incoming else sigma - phase)
        return RingField(regime, kt, ((L, i_kappa / den),))

    return field


def add_drop_in_builder(system: SystemSpec, band: Band) -> FieldBuilder:
    """Add-drop ring: omega -> incoming-type ring field, pump entering via
    through; its amplitudes just after the through and the drop coupler."""
    c1, c2 = (PointCoupler.from_sigma(system.sigma_view(x, band))
              for x in system.add_drop_buses)
    s12, i_kappa1, s2 = c1.sigma * c2.sigma, 1j * c1.kappa, c2.sigma
    L, shift = system.ring.circumference, _loss_shift(FieldRegime.INCOMING, system.ring.xi)
    k_of_omega = system.bands[band].k_of_omega

    def field(omega: float) -> RingField:
        kt = k_of_omega(omega) + shift
        r1 = i_kappa1 / _checked_inverse_denominator(1.0 - s12 * cmath.exp(1j * kt * L))
        return RingField(FieldRegime.INCOMING, kt,
                         ((L / 2.0, r1), (L / 2.0, s2 * r1 * cmath.exp(1j * kt * L / 2.0))))

    return field


def add_drop_out_builder(system: SystemSpec, band: Band, exit_channel: str) -> FieldBuilder:
    """Add-drop ring: omega -> outgoing-type ring field with its single
    outgoing component in the through or the drop waveguide."""
    through, drop = system.add_drop_buses
    s1, s2 = system.sigma_view(through, band), system.sigma_view(drop, band)
    if exit_channel not in (through, drop):
        raise KeyError(f"exit channel {exit_channel!r} is not a physical channel")
    k1, k2 = PointCoupler.from_sigma(s1).kappa, PointCoupler.from_sigma(s2).kappa
    if min(s1, s2) <= 0.0:
        raise ValueError("add-drop outgoing fields need self-couplings in (0, 1]")
    L, shift = system.ring.circumference, _loss_shift(FieldRegime.OUTGOING, system.ring.xi)
    k_of_omega = system.bands[band].k_of_omega

    def field(omega: float) -> RingField:
        kt = k_of_omega(omega) + shift
        full = cmath.exp(1j * kt * L)
        half = cmath.exp(1j * kt * L / 2.0)
        den = _checked_inverse_denominator(s1 * s2 - full)
        if exit_channel == through:
            u3 = 1j * k1 * s2 / den
            segments = ((L / 2.0, u3), (L / 2.0, u3 * half / s2))
        else:
            w3 = 1j * k2 * s1 / den
            segments = ((L / 2.0, w3 * half / s1), (L / 2.0, w3))
        return RingField(FieldRegime.OUTGOING, kt, segments)

    return field


# ---------------------------------------------------------------------------
# CW pair generation rate
# ---------------------------------------------------------------------------

def _linewidth(system: SystemSpec, band: Band) -> float:
    """Resonance half-width: physical decay rates plus the loss's xi v / 2; a
    phantom channel, which this model never reads, plays no part."""
    return sum(c.gamma(band) for c in system.physical_channels) \
        + phantom_gamma_from_xi(system.ring.xi, system.bands[band].v)


def _rate_from_overlap(system: SystemSpec, pump: CwPump, signal: FieldBuilder,
                       idler: FieldBuilder, pump_in: FieldBuilder,
                       window_linewidths: float, rel_tol: float) -> float:
    ring = system.ring
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    omega_o = pb.omega + pump.detuning
    pump_field = pump_in(omega_o)

    gbar_s = _linewidth(system, Band.SIGNAL)
    fsr = TWO_PI * sb.v / ring.circumference
    half_window = min(window_linewidths * 2.0 * gbar_s, _WINDOW_FSR_CAP * fsr)
    lo = max(sb.omega - half_window, 1e-3 * sb.omega)
    hi = min(sb.omega + half_window, 2.0 * omega_o - 1e-3 * ib.omega)

    def integrand(omega1: float) -> float:
        omega2 = 2.0 * omega_o - omega1
        j = overlap_of_fields(signal(omega1), idler(omega2), pump_field, pump_field,
                              delta_kappa=ring.delta_kappa)
        return omega1 * omega2 * abs(j) ** 2

    mirror = 2.0 * omega_o - ib.omega  # omega1 at which the idler is resonant
    quad = integrate_adaptive(lambda omega: np.array([integrand(w) for w in omega.tolist()]),
                              lo, hi, rel_tol=rel_tol,
                              points=[(sb.omega, gbar_s),
                                      (mirror, _linewidth(system, Band.IDLER))])
    prefactor = (1.0 / TWO_PI) * (ring.gamma_nl * pump.power / pb.omega) ** 2 \
        * pb.v ** 2 / (sb.v * ib.v)
    return prefactor * quad.value


def pair_rate_cw(system: SystemSpec, pump: CwPump, *,
                 window_linewidths: float = 40.0, rel_tol: float = 1e-6) -> float:
    """CW pair generation rate [pairs/s] of the single-bus ring, both
    photons collected in the bus waveguide."""
    return _rate_from_overlap(
        system, pump,
        single_bus_builder(system, Band.SIGNAL, FieldRegime.OUTGOING),
        single_bus_builder(system, Band.IDLER, FieldRegime.OUTGOING),
        single_bus_builder(system, Band.PUMP, FieldRegime.INCOMING),
        window_linewidths, rel_tol)


def pair_rate_cw_add_drop(system: SystemSpec, pump: CwPump, signal_exit: str,
                          idler_exit: str, *, window_linewidths: float = 40.0,
                          rel_tol: float = 1e-6) -> float:
    """CW pair rate [pairs/s] of the add-drop ring with the signal and the
    idler collected in the given physical waveguides."""
    return _rate_from_overlap(
        system, pump,
        add_drop_out_builder(system, Band.SIGNAL, signal_exit),
        add_drop_out_builder(system, Band.IDLER, idler_exit),
        add_drop_in_builder(system, Band.PUMP),
        window_linewidths, rel_tol)
