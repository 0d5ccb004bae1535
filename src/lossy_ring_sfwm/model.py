"""Domain model for a lossy microring coupled to bus waveguides.

A system is a ring (geometry, propagation loss, effective nonlinearity)
plus three frequency bands (pump, signal, idler, each with linear
dispersion omega(k) = omega_J + v_J (k - K_J) about its ring resonance of
order m_J, K_J L = 2 pi m_J) and an ordered list of coupling channels.
Below the config layer a field is seen only through its detuning
d = omega - omega_J: no absolute frequency or wavenumber reaches a
resonance denominator. Each channel couples the ring to one waveguide;
the canonical coupling strength is the decay rate Gamma_J^(X) [rad/s] the
channel contributes to the ring linewidth in band J. One channel may be a
"phantom": a fictitious waveguide whose decay rate stands in for
scattering loss so that lost photons remain trackable.

Equivalent parameterizations and the conversions between them:

    sigma      point-coupler self-coupling,     Gamma = (1 - sigma) v / L
    Q          coupling quality factor,         Gamma = omega / (2 Q)
    xi         power attenuation [1/m],         Gamma_phantom = xi v / 2
    eta        escape efficiency,               eta^(X) = Gamma^(X) / sum_Y Gamma^(Y)

xi is the *power* attenuation constant: field amplitude decays as
exp(-xi l / 2) over length l, so the round-trip amplitude factor is
a = exp(-xi L / 2).
"""

from __future__ import annotations

import enum
import math
from typing import Mapping

from .constants import C_VACUUM, TWO_PI
from .frozen import Frozen, set_field

# dB/cm -> 1/m for a power attenuation coefficient
_DB_PER_CM_TO_NP_PER_M = 100.0 * math.log(10.0) / 10.0


class Band(enum.Enum):
    """Frequency band of a field participating in the four-wave mixing."""

    PUMP = "pump"
    SIGNAL = "signal"
    IDLER = "idler"


class ChannelKind(enum.Enum):
    PHYSICAL = "physical"
    PHANTOM = "phantom"


class BandParams(Frozen):
    """Linear dispersion data for one frequency band, whose center omega sits
    on the ring resonance of order m. No group-velocity dispersion term is
    stored: dispersion is strictly linear within the band."""

    __slots__ = ("omega", "v", "m")

    def __init__(self, omega: float, v: float, m: int):
        set_field(self, "omega", omega)  # band center angular frequency [rad/s]
        set_field(self, "v", v)  # group velocity [m/s]
        set_field(self, "m", m)  # resonance order: the band center's wavenumber is 2 pi m / L
        if omega <= 0:
            raise ValueError(f"band center frequency must be positive, got {omega}")
        if v <= 0:
            raise ValueError(f"group velocity must be positive, got {v}")
        if m < 1:
            raise ValueError(f"resonance order must be at least 1, got {m}")


def band_from_wavelength(wavelength_m: float, group_velocity: float, effective_index: float,
                         circumference: float) -> BandParams:
    """Build band parameters from a vacuum wavelength.

    The band center is taken to sit exactly on the ring resonance whose
    order m is nearest, m = round(n_eff L / wavelength).
    """
    omega = TWO_PI * C_VACUUM / wavelength_m
    if math.isinf(omega):
        raise OverflowError("the band frequency 2 pi c / wavelength overflows")
    order = effective_index * circumference / wavelength_m
    if math.isinf(order):
        raise ValueError("the resonance order n_eff L / wavelength overflows")
    m = round(order)
    if m < 1:
        raise ValueError(
            f"no ring resonance near wavelength {wavelength_m} m for circumference "
            f"{circumference} m and effective index {effective_index}")
    return BandParams(omega=omega, v=group_velocity, m=m)


class RingSpec(Frozen):
    """Ring geometry, scattering loss, and effective nonlinearity."""

    __slots__ = ("radius", "loss_db_per_cm", "gamma_nl", "delta_kappa")

    def __init__(self, radius: float, loss_db_per_cm: float, gamma_nl: float,
                 delta_kappa: float = 0.0):
        set_field(self, "radius", radius)  # [m]
        set_field(self, "loss_db_per_cm", loss_db_per_cm)  # power attenuation [dB/cm]
        set_field(self, "gamma_nl", gamma_nl)  # effective nonlinear parameter [1/(W m)]
        # ring-mode wavenumber mismatch 2 kappa_P - kappa_S - kappa_I [1/m]
        set_field(self, "delta_kappa", delta_kappa)
        if radius <= 0:
            raise ValueError(f"ring radius must be positive, got {radius}")
        if loss_db_per_cm < 0:
            raise ValueError(f"loss must be non-negative, got {loss_db_per_cm}")
        if gamma_nl < 0:
            raise ValueError(f"nonlinear parameter must be non-negative, got {gamma_nl}")

    @property
    def circumference(self) -> float:
        """L = 2 pi R [m]."""
        return TWO_PI * self.radius

    @property
    def xi(self) -> float:
        """Power attenuation constant [1/m]."""
        return xi_from_db_per_cm(self.loss_db_per_cm)

    @property
    def roundtrip_amplitude(self) -> float:
        """Field amplitude factor a = exp(-xi L / 2) per round trip."""
        return roundtrip_amplitude(self.xi, self.circumference)


class ChannelCoupling(Frozen):
    """Coupling of the ring to one waveguide, one decay rate per band."""

    __slots__ = ("channel_id", "gammas", "kind")

    def __init__(self, channel_id: str, gammas: Mapping[Band, float],
                 kind: ChannelKind = ChannelKind.PHYSICAL):
        set_field(self, "channel_id", channel_id)
        set_field(self, "gammas", gammas)  # decay rate Gamma_J^(X) [rad/s] per band
        set_field(self, "kind", kind)
        if not channel_id:
            raise ValueError("channel id must be non-empty")
        for b in Band:
            if b not in gammas:
                raise ValueError(f"channel {channel_id!r}: missing decay rate for {b.value}")
            if gammas[b] < 0:
                raise ValueError(
                    f"channel {channel_id!r}: decay rate must be non-negative, "
                    f"got {gammas[b]} for {b.value}")

    def gamma(self, band: Band) -> float:
        return self.gammas[band]


class CwPump(Frozen):
    """Continuous-wave pump: power and detuning from the pump band center."""

    __slots__ = ("power", "detuning")

    def __init__(self, power: float, detuning: float = 0.0):
        set_field(self, "power", power)  # [W]
        set_field(self, "detuning", detuning)  # omega_o - omega_P [rad/s]
        if power <= 0:
            raise ValueError(f"pump power must be positive, got {power}")


class PulsedPump(Frozen):
    """Transform-limited Gaussian pump pulse.

    duration_fwhm is the full width at half maximum of the *intensity*
    envelope; alpha is the dimensionless classical amplitude (mean photon
    number |alpha|^2 in the pulse).
    """

    __slots__ = ("duration_fwhm", "alpha", "detuning")

    def __init__(self, duration_fwhm: float, alpha: float = 1.0, detuning: float = 0.0):
        set_field(self, "duration_fwhm", duration_fwhm)  # [s]
        set_field(self, "alpha", alpha)
        # pulse carrier offset from the pump band center [rad/s]
        set_field(self, "detuning", detuning)
        if duration_fwhm <= 0:
            raise ValueError(f"pulse duration must be positive, got {duration_fwhm}")

    @property
    def tau(self) -> float:
        """Gaussian amplitude parameter: envelope exp(-t^2 / (2 tau^2))."""
        return self.duration_fwhm / (2.0 * math.sqrt(math.log(2.0)))


class GeometryError(ValueError):
    """The channels do not fit a sweep that fixes the ring's geometry (its bus
    count, a phantom); strategy 1 and rate take any number of buses."""


class SystemSpec(Frozen):
    """A ring, its three bands, and its ordered coupling channels."""

    __slots__ = ("ring", "bands", "channels", "pump_input_channel")

    def __init__(self, ring: RingSpec, bands: Mapping[Band, BandParams],
                 channels: tuple[ChannelCoupling, ...], pump_input_channel: str):
        set_field(self, "ring", ring)
        set_field(self, "bands", bands)
        set_field(self, "channels", channels)
        set_field(self, "pump_input_channel", pump_input_channel)
        for b in Band:
            if b not in bands:
                raise ValueError(f"missing band parameters for {b.value}")
        if not channels:
            raise ValueError("system needs at least one coupling channel")
        ids = [c.channel_id for c in channels]
        if len(set(ids)) != len(ids):
            raise ValueError(f"channel ids must be unique, got {ids}")
        if sum(c.kind is ChannelKind.PHANTOM for c in channels) > 1:
            raise ValueError("at most one phantom channel is allowed")
        if self.channel(pump_input_channel).kind is not ChannelKind.PHYSICAL:
            raise ValueError(
                f"pump input channel {pump_input_channel!r} must be a physical channel")
        for b in Band:
            if self.gamma_bar(b) <= 0:
                raise ValueError(f"total linewidth must be positive in band {b.value}")

    def channel(self, channel_id: str) -> ChannelCoupling:
        for c in self.channels:
            if c.channel_id == channel_id:
                return c
        raise KeyError(f"unknown channel id {channel_id!r}")

    @property
    def channel_ids(self) -> tuple[str, ...]:
        return tuple(c.channel_id for c in self.channels)

    @property
    def physical_channels(self) -> tuple[ChannelCoupling, ...]:
        return tuple(c for c in self.channels if c.kind is ChannelKind.PHYSICAL)

    def buses(self) -> tuple[str, ...]:
        """Physical channel ids, the pump bus first, then the others in channel
        order; strategy 1 puts coupler j of the n at j L / n, in this order."""
        p = self.pump_input_channel
        return (p,) + tuple(c.channel_id for c in self.physical_channels if c.channel_id != p)

    @property
    def phantom_channel(self) -> ChannelCoupling | None:
        for c in self.channels:
            if c.kind is ChannelKind.PHANTOM:
                return c
        return None

    def gamma_bar(self, band: Band) -> float:
        """Total ring linewidth (HWHM) in the band: sum of channel decay rates."""
        return sum(c.gamma(band) for c in self.channels)

    def amplitude_coupling(self, channel_id: str, band: Band) -> float:
        """Amplitude coupling |gamma_J^(X)| = sqrt(2 v_J Gamma_J^(X)) [sqrt(m)/s]."""
        return math.sqrt(2.0 * self.bands[band].v * self.channel(channel_id).gamma(band))

    def sigma_view(self, channel_id: str, band: Band) -> float:
        """Point-coupler self-coupling equivalent to this channel's decay rate."""
        return sigma_from_gamma(self.channel(channel_id).gamma(band),
                                self.bands[band].v, self.ring.circumference)

    def escape_efficiency(self, channel_id: str, band: Band) -> float:
        return self.channel(channel_id).gamma(band) / self.gamma_bar(band)

    def with_channel_gamma(self, channel_id: str, gammas: Mapping[Band, float]) -> "SystemSpec":
        """A copy of the system with one channel's decay rates replaced."""
        new = tuple(c.replace(gammas=dict(gammas)) if c.channel_id == channel_id else c
                    for c in self.channels)
        return self.replace(channels=new)


# ---------------------------------------------------------------------------
# Conversions. Their inputs are checked where they enter: the config parser
# and the CLI's sweep axes take a loss >= 0, a radius, wavelength and
# velocity > 0 and a sigma in (0, 1], and the value classes keep those
# invariants, so a conversion checks only what its own result can break.
# ---------------------------------------------------------------------------

def xi_from_db_per_cm(loss_db_per_cm: float) -> float:
    """Power attenuation constant [1/m] from a loss figure in dB/cm."""
    return loss_db_per_cm * _DB_PER_CM_TO_NP_PER_M


def roundtrip_amplitude(xi: float, circumference: float) -> float:
    """Round-trip field amplitude a = exp(-xi L / 2)."""
    return math.exp(-xi * circumference / 2.0)


def gamma_from_sigma(sigma: float, v: float, circumference: float) -> float:
    """Decay rate [rad/s] of a point coupler with self-coupling sigma.

    Valid in the high-finesse limit where the coupler removes a fraction
    (1 - sigma) of the circulating amplitude per round trip.
    """
    return (1.0 - sigma) * v / circumference


def sigma_from_gamma(gamma: float, v: float, circumference: float) -> float:
    """Inverse of gamma_from_sigma; a decay rate past the point-coupling
    regime, which no sigma in (0, 1] gives, raises ValueError."""
    sigma = 1.0 - gamma * circumference / v
    if sigma <= 0.0:
        raise ValueError(f"decay rate {gamma} exceeds the point-coupling regime "
                         f"(would need self-coupling {sigma} <= 0)")
    return sigma


def phantom_gamma_from_xi(xi: float, v: float) -> float:
    """Phantom-channel decay rate reproducing a propagation loss xi.

    Chosen so the intrinsic quality factor comes out as
    Q_int = omega / (2 Gamma) = omega / (xi v).
    """
    return xi * v / 2.0


def two_photon_detuning(system: SystemSpec, pump: CwPump | PulsedPump) -> float:
    """2 delta_p + (2 omega_P - omega_S - omega_I), the pairs' energy 2 omega_o
    less both resonances: the signal detuning at which the idler is resonant."""
    b = system.bands
    return 2.0 * pump.detuning + (2.0 * b[Band.PUMP].omega - b[Band.SIGNAL].omega
                                  - b[Band.IDLER].omega)


def finesse(system: SystemSpec) -> float:
    """Free spectral range over resonance linewidth (FWHM) in the pump band."""
    p = system.bands[Band.PUMP]
    fsr = TWO_PI * p.v / system.ring.circumference
    return fsr / (2.0 * system.gamma_bar(Band.PUMP))
