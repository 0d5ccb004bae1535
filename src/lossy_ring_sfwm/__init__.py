"""Photon-pair generation by spontaneous four-wave mixing in lossy
microring-waveguide systems, with two complementary loss models: a
complex-wavevector attenuation treatment and a phantom-channel
Hamiltonian treatment."""

from .model import (Band, BandParams, ChannelCoupling, ChannelKind, CwPump,
                    PulsedPump, RingSpec, SystemSpec, add_drop_system,
                    band_from_wavelength, finesse, gamma_from_sigma,
                    phantom_gamma_from_xi, ring_system, roundtrip_amplitude,
                    sigma_from_gamma, uniform_gammas, xi_from_db_per_cm)

__all__ = [
    "Band", "BandParams", "ChannelCoupling", "ChannelKind", "CwPump",
    "PulsedPump", "RingSpec", "SystemSpec", "add_drop_system",
    "band_from_wavelength", "finesse", "gamma_from_sigma", "phantom_gamma_from_xi",
    "ring_system", "roundtrip_amplitude", "sigma_from_gamma", "uniform_gammas",
    "xi_from_db_per_cm",
]

__version__ = "0.1.0"
