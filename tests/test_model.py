"""Unit conversions, derived quality factors, and their closure properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossy_ring_sfwm.model import (Band, BandParams, ChannelCoupling, ChannelKind,
                                   CwPump, PulsedPump, RingSpec, SystemSpec,
                                   band_from_wavelength, finesse, gamma_from_sigma,
                                   phantom_gamma_from_xi, roundtrip_amplitude,
                                   sigma_from_gamma, xi_from_db_per_cm)
from conftest import bundled_system

# reference geometry: 10 um ring, 1550 nm, v = 1e8 m/s
L_REF = 2.0 * math.pi * 1e-5
V_REF = 1e8
OMEGA_REF = 2.0 * math.pi * 2.99792458e8 / 1550e-9


class TestXiFromDb:
    def test_reference_loss(self):
        # 26 dB/cm: 26 * 100 * ln(10) / 10
        assert xi_from_db_per_cm(26.0) == pytest.approx(598.6721241784519, rel=1e-12)

    def test_lossless(self):
        assert xi_from_db_per_cm(0.0) == 0.0

    def test_hand_value(self):
        # 4.343 dB/cm is 1 Np/cm to four figures
        assert xi_from_db_per_cm(4.343) == pytest.approx(100.0, rel=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            xi_from_db_per_cm(-1.0)


class TestRoundtripAmplitude:
    def test_reference(self):
        a = roundtrip_amplitude(xi_from_db_per_cm(26.0), L_REF)
        assert a == pytest.approx(0.9813679243033546, rel=1e-12)
        assert a == pytest.approx(0.9814, rel=1e-3)

    def test_lossless(self):
        assert roundtrip_amplitude(0.0, L_REF) == 1.0

    def test_doubled_length_squares(self):
        xi = xi_from_db_per_cm(26.0)
        a1 = roundtrip_amplitude(xi, L_REF)
        a2 = roundtrip_amplitude(xi, 2.0 * L_REF)
        assert a2 == pytest.approx(a1 * a1, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=5e3),
           st.floats(min_value=1e3, max_value=1e5))
    def test_monotone_decreasing_in_xi(self, xi, dxi):
        a_lo = roundtrip_amplitude(xi, L_REF)
        a_hi = roundtrip_amplitude(xi + dxi, L_REF)
        assert a_hi < a_lo <= 1.0


class TestCouplingConversions:
    def test_reference_sigma(self):
        g = gamma_from_sigma(0.9814, V_REF, L_REF)
        assert g == pytest.approx(29602819415.09245, rel=1e-12)

    def test_decoupled(self):
        assert gamma_from_sigma(1.0, V_REF, L_REF) == 0.0

    def test_linearity(self):
        g1 = gamma_from_sigma(0.9814, V_REF, L_REF)
        g2 = gamma_from_sigma(1.0 - 2.0 * (1.0 - 0.9814), V_REF, L_REF)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            gamma_from_sigma(bad, V_REF, L_REF)

    @given(st.floats(min_value=1e-9, max_value=1.0))
    def test_roundtrip_closure(self, sigma):
        g = gamma_from_sigma(sigma, V_REF, L_REF)
        assert sigma_from_gamma(g, V_REF, L_REF) == pytest.approx(sigma, abs=1e-12)

    def test_phantom_gamma(self):
        xi = xi_from_db_per_cm(26.0)
        g = phantom_gamma_from_xi(xi, V_REF)
        assert g == pytest.approx(29933606208.922596, rel=1e-12)
        # implied intrinsic quality factor sits near 2e4
        assert OMEGA_REF / (2.0 * g) == pytest.approx(2.03e4, rel=1e-3)

    def test_phantom_lossless(self):
        assert phantom_gamma_from_xi(0.0, V_REF) == 0.0

    def test_phantom_linearity(self):
        g = phantom_gamma_from_xi(598.672, V_REF)
        assert phantom_gamma_from_xi(2.0 * 598.672, V_REF) == pytest.approx(2.0 * g)


def _bands(ring):
    """Pump, signal and idler bands, all on the ring resonance nearest 1550 nm."""
    return {b: band_from_wavelength(1550e-9, V_REF, 2.4, ring.circumference) for b in Band}


def _system_from_gammas(gammas_by_channel, loss_db_per_cm=26.0):
    """Channels C0..Cn with the last one a phantom (when there are >= 2)."""
    ring = RingSpec(radius=1e-5, loss_db_per_cm=loss_db_per_cm, gamma_nl=100.0)
    channels = []
    last = len(gammas_by_channel) - 1
    for i, g in enumerate(gammas_by_channel):
        kind = (ChannelKind.PHANTOM if i == last and last > 0
                else ChannelKind.PHYSICAL)
        channels.append(ChannelCoupling(f"C{i}", dict.fromkeys(Band, g), kind))
    return SystemSpec(ring=ring, bands=_bands(ring), channels=tuple(channels),
                      pump_input_channel="C0")


class TestQualityFactors:
    """Loaded Q = omega / (2 Gbar) and escape efficiencies eta = Gamma / Gbar."""

    def test_critical_coupling_reference(self):
        g = phantom_gamma_from_xi(xi_from_db_per_cm(26.0), V_REF)
        system = _system_from_gammas([g, g])
        omega = system.bands[Band.PUMP].omega
        q_load = omega / (2.0 * system.gamma_bar(Band.PUMP))
        assert q_load == pytest.approx(omega / (4.0 * g), rel=1e-12)
        assert q_load == pytest.approx(1.0e4, rel=0.03)
        assert system.escape_efficiency("C0", Band.PUMP) == pytest.approx(0.5, abs=1e-15)
        assert system.escape_efficiency("C1", Band.PUMP) == pytest.approx(0.5, abs=1e-15)

    def test_three_channel_example(self):
        g = 2.9933606208922596e10
        system = _system_from_gammas([0.5 * g, g, g])
        for cid, eta in (("C0", 0.2), ("C1", 0.4), ("C2", 0.4)):
            assert system.escape_efficiency(cid, Band.PUMP) == pytest.approx(eta, rel=1e-12)

    def test_single_channel_eta_is_one(self):
        system = _system_from_gammas([1e10], loss_db_per_cm=0.0)
        # lossless phantom keeps zero decay: all escape via the bus
        assert system.escape_efficiency("C0", Band.SIGNAL) == pytest.approx(1.0, abs=1e-15)

    @given(st.lists(st.floats(min_value=1e6, max_value=1e12), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_eta_sums_to_one(self, gammas):
        # the same identity as Gbar = sum of the channel decay rates
        system = _system_from_gammas(gammas + [1e9])
        total = sum(system.escape_efficiency(c, Band.IDLER) for c in system.channel_ids)
        assert total == pytest.approx(1.0, abs=1e-15)


class TestFinesse:
    def test_reference_system(self):
        system = bundled_system()
        assert finesse(system) == pytest.approx(83.98219993212294, rel=1e-12)
        assert finesse(system) == pytest.approx(84.0, rel=1e-3)

    def test_linewidth_scaling(self):
        g = 1e10
        f1 = finesse(_system_from_gammas([g, g]))
        # both decay rates an order of magnitude down -> finesse up tenfold
        f2 = finesse(_system_from_gammas([g / 10.0, g / 10.0], loss_db_per_cm=2.6))
        assert f2 == pytest.approx(10.0 * f1, rel=1e-12)

    def test_lossless_single_coupler(self):
        system = _system_from_gammas(
            [gamma_from_sigma(0.9814, V_REF, L_REF), 0.0], loss_db_per_cm=0.0)
        assert finesse(system) == pytest.approx(168.90283083816138, rel=1e-12)


class TestDomainTypes:
    def test_band_invariants(self):
        with pytest.raises(ValueError):
            BandParams(omega=-1.0, v=1e8, m=97)
        with pytest.raises(ValueError):
            BandParams(omega=1e15, v=0.0, m=97)
        with pytest.raises(ValueError, match="resonance order"):
            BandParams(omega=1e15, v=1e8, m=0)

    def test_band_snaps_to_resonance(self):
        # n_eff L / wavelength = 97.29 for the bundled ring
        p = band_from_wavelength(1550e-9, V_REF, 2.4, L_REF)
        assert p.m == 97
        assert p.m == round(2.4 * L_REF / 1550e-9)

    def test_circumference(self):
        ring = RingSpec(radius=1e-5, loss_db_per_cm=0.0, gamma_nl=0.0)
        assert ring.circumference == pytest.approx(2.0 * math.pi * 1e-5, rel=1e-15)

    def test_unique_channel_ids(self):
        ring = RingSpec(radius=1e-5, loss_db_per_cm=1.0, gamma_nl=1.0)
        dup = (ChannelCoupling("O", dict.fromkeys(Band, 1e9)),
               ChannelCoupling("O", dict.fromkeys(Band, 2e9)))
        with pytest.raises(ValueError, match="unique"):
            SystemSpec(ring=ring, bands=_bands(ring), channels=dup, pump_input_channel="O")

    def test_pump_input_must_be_physical(self):
        ring = RingSpec(radius=1e-5, loss_db_per_cm=1.0, gamma_nl=1.0)
        chans = (ChannelCoupling("O", dict.fromkeys(Band, 1e9)),
                 ChannelCoupling("P", dict.fromkeys(Band, 1e9), ChannelKind.PHANTOM))
        with pytest.raises(ValueError, match="physical"):
            SystemSpec(ring=ring, bands=_bands(ring), channels=chans, pump_input_channel="P")

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_buses_put_the_pump_bus_first(self, n):
        # any bus count, the phantom left out, the pump bus first and the
        # others in channel order: the couplers' order around the ring
        ring = RingSpec(radius=1e-5, loss_db_per_cm=1.0, gamma_nl=1.0)
        ids = [f"B{i}" for i in range(n)]
        chans = tuple(ChannelCoupling(x, dict.fromkeys(Band, 1e9)) for x in ids) \
            + (ChannelCoupling("P", dict.fromkeys(Band, 1e9), ChannelKind.PHANTOM),)
        pump = ids[-1]
        system = SystemSpec(ring=ring, bands=_bands(ring), channels=chans,
                            pump_input_channel=pump)
        assert system.buses() == (pump, *ids[:-1])

    def test_empty_channels_rejected(self):
        ring = RingSpec(radius=1e-5, loss_db_per_cm=1.0, gamma_nl=1.0)
        with pytest.raises(ValueError, match="channel"):
            SystemSpec(ring=ring, bands=_bands(ring), channels=(), pump_input_channel="O")

    def test_pump_validation(self):
        with pytest.raises(ValueError):
            CwPump(power=0.0)
        with pytest.raises(ValueError):
            PulsedPump(duration_fwhm=-1e-12)

    def test_pulse_tau_from_intensity_fwhm(self):
        pulse = PulsedPump(duration_fwhm=10e-12)
        # intensity envelope exp(-t^2/tau^2) halves at t = tau sqrt(ln 2)
        t_half = pulse.tau * math.sqrt(math.log(2.0))
        assert 2.0 * t_half == pytest.approx(10e-12, rel=1e-12)
