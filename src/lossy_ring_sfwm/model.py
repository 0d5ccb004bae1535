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
from dataclasses import dataclass, replace
from typing import Mapping

from .constants import C_VACUUM, TWO_PI

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


@dataclass(frozen=True)
class BandParams:
    """Linear dispersion data for one frequency band, whose center omega sits
    on the ring resonance of order m. No group-velocity dispersion term is
    stored: dispersion is strictly linear within the band."""

    omega: float  # band center angular frequency [rad/s]
    v: float  # group velocity [m/s]
    m: int  # resonance order: the band center's wavenumber is 2 pi m / L

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"band center frequency must be positive, got {self.omega}")
        if self.v <= 0:
            raise ValueError(f"group velocity must be positive, got {self.v}")
        if self.m < 1:
            raise ValueError(f"resonance order must be at least 1, got {self.m}")


def band_from_wavelength(wavelength_m: float, group_velocity: float, effective_index: float,
                         circumference: float) -> BandParams:
    """Build band parameters from a vacuum wavelength.

    The band center is taken to sit exactly on the ring resonance whose
    order m is nearest, m = round(n_eff L / wavelength).
    """
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    omega = TWO_PI * C_VACUUM / wavelength_m
    m = round(effective_index * circumference / wavelength_m)
    if m < 1:
        raise ValueError(
            f"no ring resonance near wavelength {wavelength_m} m for circumference "
            f"{circumference} m and effective index {effective_index}")
    return BandParams(omega=omega, v=group_velocity, m=m)


@dataclass(frozen=True)
class RingSpec:
    """Ring geometry, scattering loss, and effective nonlinearity."""

    radius: float  # [m]
    loss_db_per_cm: float  # power attenuation [dB/cm]
    gamma_nl: float  # effective nonlinear parameter [1/(W m)]
    delta_kappa: float = 0.0  # ring-mode wavenumber mismatch 2 kappa_P - kappa_S - kappa_I [1/m]

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"ring radius must be positive, got {self.radius}")
        if self.loss_db_per_cm < 0:
            raise ValueError(f"loss must be non-negative, got {self.loss_db_per_cm}")
        if self.gamma_nl < 0:
            raise ValueError(f"nonlinear parameter must be non-negative, got {self.gamma_nl}")

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


@dataclass(frozen=True)
class ChannelCoupling:
    """Coupling of the ring to one waveguide, one decay rate per band."""

    channel_id: str
    gammas: Mapping[Band, float]  # decay rate Gamma_J^(X) [rad/s] per band
    kind: ChannelKind = ChannelKind.PHYSICAL

    def __post_init__(self):
        if not self.channel_id:
            raise ValueError("channel id must be non-empty")
        for b in Band:
            if b not in self.gammas:
                raise ValueError(f"channel {self.channel_id!r}: missing decay rate for {b.value}")
            if self.gammas[b] < 0:
                raise ValueError(
                    f"channel {self.channel_id!r}: decay rate must be non-negative, "
                    f"got {self.gammas[b]} for {b.value}")

    def gamma(self, band: Band) -> float:
        return self.gammas[band]


@dataclass(frozen=True)
class CwPump:
    """Continuous-wave pump: power and detuning from the pump band center."""

    power: float  # [W]
    detuning: float = 0.0  # omega_o - omega_P [rad/s]

    def __post_init__(self):
        if self.power <= 0:
            raise ValueError(f"pump power must be positive, got {self.power}")


@dataclass(frozen=True)
class PulsedPump:
    """Transform-limited Gaussian pump pulse.

    duration_fwhm is the full width at half maximum of the *intensity*
    envelope; alpha is the dimensionless classical amplitude (mean photon
    number |alpha|^2 in the pulse).
    """

    duration_fwhm: float  # [s]
    alpha: float = 1.0
    detuning: float = 0.0  # pulse carrier offset from the pump band center [rad/s]

    def __post_init__(self):
        if self.duration_fwhm <= 0:
            raise ValueError(f"pulse duration must be positive, got {self.duration_fwhm}")

    @property
    def tau(self) -> float:
        """Gaussian amplitude parameter: envelope exp(-t^2 / (2 tau^2))."""
        return self.duration_fwhm / (2.0 * math.sqrt(math.log(2.0)))


class GeometryError(ValueError):
    """The ring's channels do not fit the model asked for (bus count, phantom)."""


_BUS_RINGS = {1: "a single-bus ring needs one physical channel",
              2: "an add-drop ring needs two physical channels"}


@dataclass(frozen=True)
class SystemSpec:
    """A ring, its three bands, and its ordered coupling channels."""

    ring: RingSpec
    bands: Mapping[Band, BandParams]
    channels: tuple[ChannelCoupling, ...]
    pump_input_channel: str

    def __post_init__(self):
        for b in Band:
            if b not in self.bands:
                raise ValueError(f"missing band parameters for {b.value}")
        if not self.channels:
            raise ValueError("system needs at least one coupling channel")
        ids = [c.channel_id for c in self.channels]
        if len(set(ids)) != len(ids):
            raise ValueError(f"channel ids must be unique, got {ids}")
        if sum(c.kind is ChannelKind.PHANTOM for c in self.channels) > 1:
            raise ValueError("at most one phantom channel is allowed")
        pump_in = self.channel(self.pump_input_channel)
        if pump_in.kind is not ChannelKind.PHYSICAL:
            raise ValueError(
                f"pump input channel {self.pump_input_channel!r} must be a physical channel")
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

    def buses(self, *counts: int) -> tuple[str, ...]:
        """Physical channel ids, the pump bus first: (bus,) of a single-bus ring,
        (through, drop) of an add-drop ring; a GeometryError unless one of `counts`."""
        ids = [c.channel_id for c in self.physical_channels]
        if len(ids) not in counts:
            raise GeometryError(f"{_BUS_RINGS[max(counts)]}, got {len(ids)}")
        return (self.pump_input_channel,) + tuple(x for x in ids
                                                  if x != self.pump_input_channel)

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
        self.channel(channel_id)  # raise KeyError early on unknown id
        new = tuple(replace(c, gammas=dict(gammas)) if c.channel_id == channel_id else c
                    for c in self.channels)
        return replace(self, channels=new)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def xi_from_db_per_cm(loss_db_per_cm: float) -> float:
    """Power attenuation constant [1/m] from a loss figure in dB/cm."""
    if loss_db_per_cm < 0:
        raise ValueError(f"loss must be non-negative, got {loss_db_per_cm}")
    return loss_db_per_cm * _DB_PER_CM_TO_NP_PER_M


def roundtrip_amplitude(xi: float, circumference: float) -> float:
    """Round-trip field amplitude a = exp(-xi L / 2)."""
    if xi < 0:
        raise ValueError(f"attenuation must be non-negative, got {xi}")
    if circumference <= 0:
        raise ValueError(f"circumference must be positive, got {circumference}")
    return math.exp(-xi * circumference / 2.0)


def gamma_from_sigma(sigma: float, v: float, circumference: float) -> float:
    """Decay rate [rad/s] of a point coupler with self-coupling sigma.

    Valid in the high-finesse limit where the coupler removes a fraction
    (1 - sigma) of the circulating amplitude per round trip.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"self-coupling must be in (0, 1], got {sigma}")
    return (1.0 - sigma) * v / circumference


def sigma_from_gamma(gamma: float, v: float, circumference: float) -> float:
    """Inverse of gamma_from_sigma."""
    if gamma < 0:
        raise ValueError(f"decay rate must be non-negative, got {gamma}")
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
    if xi < 0:
        raise ValueError(f"attenuation must be non-negative, got {xi}")
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
