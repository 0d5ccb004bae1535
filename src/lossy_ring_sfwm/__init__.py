"""Photon-pair generation by spontaneous four-wave mixing in lossy
microring-waveguide systems, with two complementary loss models: a
complex-wavevector attenuation treatment and a phantom-channel
Hamiltonian treatment."""

__version__ = "0.1.0"
