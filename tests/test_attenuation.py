"""Point-coupling fields, ring overlaps, and attenuation-model rates."""

import cmath
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossy_ring_sfwm import attenuation as att
from lossy_ring_sfwm.config import parse_config
from lossy_ring_sfwm.model import (Band, ChannelCoupling, CwPump, GeometryError, RingSpec,
                                   SystemSpec, add_drop_system, gamma_from_sigma,
                                   ring_system, uniform_gammas, xi_from_db_per_cm)

V = 1e8
SIGMA_REF = 0.9814


@pytest.fixture(scope="module")
def ring_ref():
    return ring_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4, sigma=SIGMA_REF)


@pytest.fixture(scope="module")
def ring_lossless():
    return ring_system(1e-5, 0.0, 100.0, 1550e-9, V, 2.4, sigma=SIGMA_REF)


def _critical_system():
    """Loss tuned so the round-trip amplitude equals the self-coupling."""
    L = 2.0 * math.pi * 1e-5
    xi = -2.0 * math.log(SIGMA_REF) / L
    loss_db_per_cm = xi / (100.0 * math.log(10.0) / 10.0)
    return ring_system(1e-5, loss_db_per_cm, 100.0, 1550e-9, V, 2.4, sigma=SIGMA_REF)


def _lossless(system):
    """The same ring without propagation loss; strategy 1 never reads the
    phantom entry, which keeps the total linewidth positive."""
    return replace(system, ring=replace(system.ring, loss_db_per_cm=0.0))


def _add_drop(s1, s2, loss_db_per_cm=26.0):
    """Add-drop ring, through T and drop D, with bus self-couplings s1 and s2."""
    system = add_drop_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4,
                             gamma_through_ratio=1.0, gamma_drop_ratio=1.0)
    L = system.ring.circumference
    for cid, sigma in (("T", s1), ("D", s2)):
        system = system.with_channel_gamma(cid, uniform_gammas(gamma_from_sigma(sigma, V, L)))
    return replace(system, ring=replace(system.ring, loss_db_per_cm=loss_db_per_cm))


def _coupler(system, channel_id):
    return att.PointCoupler.from_sigma(system.sigma_view(channel_id, Band.PUMP))


def _all_pass_ports(system, omega):
    """Incoming pump-band ring amplitude of a single-bus ring, and the
    bus transmission the point coupler gives for it (bus input 1, ring
    return f_ring e^{i k~ L})."""
    field = att.ring_field_builder(system, Band.PUMP)(omega)
    ((length, f_ring),) = field.segments
    f_through, _ = att.coupler_scatter(_coupler(system, system.single_bus), 1.0,
                                       f_ring * cmath.exp(1j * field.k_prop * length))
    return f_ring, f_through


def _add_drop_ports(system, omega):
    """Incoming pump-band ring amplitude after the through coupler, from the
    field builder, and the through and drop transmissions the couplers
    give for its two segments (input 1 at the through bus, 0 at the add port)."""
    field = att.ring_field_builder(system, Band.PUMP)(omega)
    (length, r1), (_, r2) = field.segments
    half = cmath.exp(1j * field.k_prop * length)
    f_drop, _ = att.coupler_scatter(_coupler(system, "D"), 0.0, r1 * half)
    f_through, _ = att.coupler_scatter(_coupler(system, "T"), 1.0, r2 * half)
    return r1, f_through, f_drop


def _single_bus_fields(system, omega_s, omega_i, omega_p):
    """(signal, idler, pump) fields of the single-bus ring from its builders."""
    bus = system.single_bus
    signal, idler = (att.ring_field_builder(system, band, bus)(omega)
                     for band, omega in ((Band.SIGNAL, omega_s), (Band.IDLER, omega_i)))
    return signal, idler, att.ring_field_builder(system, Band.PUMP)(omega_p)


class TestPointCoupler:
    def test_identity_coupler(self):
        c = att.PointCoupler.from_sigma(1.0)
        f1, f4 = 0.3 + 0.1j, -0.2 + 0.9j
        assert att.coupler_scatter(c, f1, f4) == (f1, f4)

    def test_full_crossover(self):
        c = att.PointCoupler.from_sigma(0.0)
        f2, f3 = att.coupler_scatter(c, 1.0, 0.0)
        assert f2 == 0.0
        assert f3 == 1.0j

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    def test_unitarity(self, sigma, f1, f4):
        c = att.PointCoupler.from_sigma(sigma)
        f2, f3 = att.coupler_scatter(c, f1, f4)
        assert abs(f2) ** 2 + abs(f3) ** 2 == pytest.approx(
            abs(f1) ** 2 + abs(f4) ** 2, rel=1e-12, abs=1e-12)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            att.PointCoupler(sigma=0.9, kappa=0.9)


class TestAsyFields:
    """All-pass ring fields from the field builder."""

    def test_ring_enhancement_at_matched_coupling(self):
        system = _critical_system()
        f_ring, _ = _all_pass_ports(system, system.bands[Band.PUMP].omega)
        # hand evaluation: kappa^2 / (1 - sigma a)^2 with sigma = a
        a = system.ring.roundtrip_amplitude
        expected = (1.0 - SIGMA_REF ** 2) / (1.0 - SIGMA_REF * a) ** 2
        assert abs(f_ring) ** 2 == pytest.approx(expected, rel=1e-10)
        assert abs(f_ring) ** 2 == pytest.approx(27.134, rel=1e-3)

    def test_extinction_at_matched_coupling(self):
        system = _critical_system()
        _, f_through = _all_pass_ports(system, system.bands[Band.PUMP].omega)
        # floor set by the round-trip phase k L ~ 6e2 rad in double precision
        assert abs(f_through) < 1e-10

    def test_decoupled_ring(self):
        system = ring_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4, sigma=1.0)
        omega = system.bands[Band.PUMP].omega + 0.37 * V / system.ring.circumference
        f_ring, f_through = _all_pass_ports(system, omega)
        assert f_ring == 0.0
        assert abs(f_through) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.999),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_lossless_all_pass(self, sigma, phase):
        system = _lossless(ring_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4, sigma=sigma))
        omega = system.bands[Band.PUMP].omega + phase * V / system.ring.circumference
        _, f_through = _all_pass_ports(system, omega)
        assert abs(f_through) == pytest.approx(1.0, abs=1e-12)

    def test_outgoing_magnitude_scaled_by_roundtrip(self, ring_ref):
        # on resonance the outgoing enhancement is a times the incoming one
        omega = ring_ref.bands[Band.SIGNAL].omega
        f_in, f_out = (att.ring_field_builder(ring_ref, Band.SIGNAL, exit_channel)(omega)
                       .segments[0][1] for exit_channel in (None, "O"))
        a = ring_ref.ring.roundtrip_amplitude
        assert abs(f_out) == pytest.approx(a * abs(f_in), rel=1e-12)

    def test_lossless_pole(self):
        # decoupled lossless ring on resonance: |1 - e^{i k L}| ~ 1e-14
        system = _lossless(ring_system(1e-6, 26.0, 100.0, 1550e-9, V, 2.4, sigma=1.0))
        field = att.ring_field_builder(system, Band.PUMP)
        with pytest.raises(att.SingularityError):
            field(system.bands[Band.PUMP].omega)


class TestAddDropFields:
    """Incoming add-drop fields from the field builder."""

    def test_second_coupler_removed(self):
        system = _add_drop(0.97, 1.0)
        single = replace(system, channels=(system.channel("T"), system.phantom_channel))
        omega = system.bands[Band.PUMP].omega + 0.3 * system.gamma_bar(Band.PUMP)
        r1, f_through, f_drop = _add_drop_ports(system, omega)
        f_ring, single_through = _all_pass_ports(single, omega)
        assert r1 == pytest.approx(f_ring)
        assert f_through == pytest.approx(single_through)
        assert f_drop == 0.0

    def test_symmetric_lossless_full_transfer(self):
        # on resonance with equal couplers and no loss all power drops
        system = _add_drop(0.95, 0.95, loss_db_per_cm=0.0)
        _, f_through, f_drop = _add_drop_ports(system, system.bands[Band.PUMP].omega)
        assert abs(f_drop) == pytest.approx(1.0, rel=1e-12)
        assert abs(f_through) < 1e-12

    @given(st.floats(min_value=0.3, max_value=0.999),
           st.floats(min_value=0.3, max_value=0.999),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_lossless_power_conservation(self, s1, s2, phase):
        system = _add_drop(s1, s2, loss_db_per_cm=0.0)
        omega = system.bands[Band.PUMP].omega + phase * V / system.ring.circumference
        _, f_through, f_drop = _add_drop_ports(system, omega)
        total = abs(f_through) ** 2 + abs(f_drop) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


class TestOverlap:
    def test_resonant_lossless_limit(self, ring_lossless):
        system = ring_lossless
        w = {b: system.bands[b].omega for b in Band}
        fields = _single_bus_fields(system, w[Band.SIGNAL], w[Band.IDLER], w[Band.PUMP])
        j = att.overlap_of_fields(*fields, delta_kappa=system.ring.delta_kappa)
        f_s, f_i, f_p = (f.segments[0][1] for f in fields)
        expected = np.conj(f_s * f_i) * f_p * f_p * system.ring.circumference
        assert j == pytest.approx(expected, rel=1e-12)

    def test_signal_idler_swap_symmetry(self, ring_ref):
        w0 = ring_ref.bands[Band.PUMP].omega
        gbar = ring_ref.gamma_bar(Band.PUMP)
        j1, j2 = (att.overlap_of_fields(*_single_bus_fields(ring_ref, w0 + d, w0 - d, w0))
                  for d in (1.3 * gbar, -1.3 * gbar))
        assert j1 == pytest.approx(j2, rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=0.998),
           st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_zeta_scan(self, sigma, loss, d1, d2, dp):
        system = ring_system(1e-5, loss, 100.0, 1550e-9, V, 2.4, sigma=sigma)
        gbar = system.gamma_bar(Band.PUMP)
        w = {b: system.bands[b].omega for b in Band}
        fields = _single_bus_fields(system, w[Band.SIGNAL] + d1 * gbar,
                                    w[Band.IDLER] + d2 * gbar, w[Band.PUMP] + dp * gbar)
        closed = att.overlap_of_fields(*fields)
        # the scan is a trapezoid rule, off by up to 1.5e-8 at 10,001 points
        # on the corners of this box (sigma 0.5, |d| = 3); 40,001 points
        # bring that below 1e-9
        scanned = att.overlap_by_zeta_scan(*fields, system.ring.circumference, n=40_001)
        assert abs(closed - scanned) <= 1e-8 * abs(closed)

    @given(st.floats(min_value=0.6, max_value=0.995),
           st.floats(min_value=0.6, max_value=0.995),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_add_drop_closed_form_matches_zeta_scan(self, s2_t, s2_d, d1):
        system = add_drop_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4,
                                 gamma_through_ratio=1.5, gamma_drop_ratio=1.0)
        gbar = system.gamma_bar(Band.PUMP)
        w = {b: system.bands[b].omega for b in Band}
        fields = (att.ring_field_builder(system, Band.SIGNAL, "D")(w[Band.SIGNAL] + d1 * gbar),
                  att.ring_field_builder(system, Band.IDLER, "T")(w[Band.IDLER] - d1 * gbar),
                  att.ring_field_builder(system, Band.PUMP)(w[Band.PUMP]))
        closed = att.overlap_of_fields(*fields)
        scanned = att.overlap_by_zeta_scan(*fields, system.ring.circumference)
        assert abs(closed - scanned) <= 1e-8 * abs(closed)

    def test_overlap_magnitude_phase_invariant(self, ring_ref):
        w0 = ring_ref.bands[Band.PUMP].omega
        gbar = ring_ref.gamma_bar(Band.PUMP)
        f_s, f_i, f_p = _single_bus_fields(ring_ref, w0 + gbar, w0 - gbar, w0)
        j_ref = att.overlap_of_fields(f_s, f_i, f_p)
        phase = cmath.exp(0.81j)
        rotated = replace(f_p, segments=tuple((l, a * phase) for l, a in f_p.segments))
        j_rot = att.overlap_of_fields(f_s, f_i, rotated)
        assert abs(j_rot) == pytest.approx(abs(j_ref), rel=1e-12)

    def test_mismatch_integral_taylor_branch(self):
        # the series and the exact expression must agree near the threshold
        L = 6.28e-5
        for scale in (0.9e-6, 1.1e-6):
            dk = scale / L
            exact = (cmath.exp(1j * dk * L) - 1.0) / (1j * dk)
            assert att.phase_mismatch_integral(dk, L) == pytest.approx(exact, rel=1e-12)


class TestPairRate:
    def test_reference_rate(self, ring_ref):
        rate = att.pair_rate_cw(ring_ref, CwPump(1e-3), "O", "O")
        # frozen from an independent trapezoid evaluation of the rate integral
        assert rate == pytest.approx(294872.0, rel=1e-3)
        assert 2e5 < rate < 4e5

    def test_zero_nonlinearity(self):
        system = ring_system(1e-5, 26.0, 0.0, 1550e-9, V, 2.4, sigma=SIGMA_REF)
        assert att.pair_rate_cw(system, CwPump(1e-3), "O", "O") == 0.0

    def test_quadratic_power_scaling(self, ring_ref):
        r1 = att.pair_rate_cw(ring_ref, CwPump(1e-3), "O", "O")
        r2 = att.pair_rate_cw(ring_ref, CwPump(2e-3), "O", "O")
        assert r2 == pytest.approx(4.0 * r1, rel=1e-9)

    def test_add_drop_rate_positive_and_window_capped(self):
        system = add_drop_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4,
                                 gamma_through_ratio=1.5, gamma_drop_ratio=1.0)
        rate = att.pair_rate_cw(system, CwPump(1e-3), "T", "T")
        assert rate > 0.0

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    def test_default_tolerance_matches_tight_run(self, name):
        # the 8/16-point Gauss-Legendre estimate is conservative: rates at the
        # default rel_tol 1e-6 agree with a 1e-10 run well inside 1e-6
        config = parse_config((resources.files("lossy_ring_sfwm") / "configs" / name)
                              .read_text())
        system, pump = config.system, config.pump
        ids = [c.channel_id for c in system.physical_channels]
        rates = [(att.pair_rate_cw(system, pump, x, y),
                  att.pair_rate_cw(system, pump, x, y, rel_tol=1e-10))
                 for x in ids for y in ids]
        for default, tight in rates:
            assert default == pytest.approx(tight, rel=1e-6)

    @pytest.mark.parametrize("name, exits, expected", [
        ("ring_channel.json", None, 294871.97920976783),
        ("add_drop.json", ("T", "T"), 16839.97829297199),
        ("add_drop.json", ("T", "D"), 17030.070712950794),
        ("add_drop.json", ("D", "T"), 17030.070712950797),
        ("add_drop.json", ("D", "D"), 17277.28037063311)])
    def test_golden_rates(self, name, exits, expected):
        # frozen rates; a wrong half-round-trip phase or exit amplitude in a
        # field builder moves them far beyond the quadrature tolerance
        config = parse_config((resources.files("lossy_ring_sfwm") / "configs" / name)
                              .read_text())
        # exits None: both photons in the one bus of a single-bus ring
        rate = att.pair_rate_cw(config.system, config.pump,
                                *(exits or (config.system.single_bus,) * 2))
        assert rate == pytest.approx(expected, rel=1e-9)

    def test_builders_match_transfer_functions(self, ring_ref):
        # the builders against the transfer functions written out by hand
        L = ring_ref.ring.circumference
        xi = ring_ref.ring.xi
        band = ring_ref.bands[Band.SIGNAL]
        omega = band.omega + 0.7 * ring_ref.gamma_bar(Band.SIGNAL)
        k = band.k_of_omega(omega)
        sigma = ring_ref.sigma_view("O", Band.SIGNAL)
        i_kappa = 1j * math.sqrt(1.0 - sigma * sigma)
        for exit_channel, kt in ((None, k + 0.5j * xi), ("O", k - 0.5j * xi)):
            field = att.ring_field_builder(ring_ref, Band.SIGNAL, exit_channel)(omega)
            phase = cmath.exp(1j * kt * L)
            den = 1.0 - sigma * phase if exit_channel is None else sigma - phase
            assert field.k_prop == kt
            assert field.segments == ((L, i_kappa / den),)
        system = add_drop_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4,
                                 gamma_through_ratio=1.5, gamma_drop_ratio=1.0)
        s1, s2 = (system.sigma_view(x, Band.PUMP) for x in ("T", "D"))
        i_kappa1, i_kappa2 = (1j * math.sqrt(1.0 - s * s) for s in (s1, s2))
        k = system.bands[Band.PUMP].k_of_omega(omega)
        kt = k + 0.5j * xi
        r1 = i_kappa1 / (1.0 - s1 * s2 * cmath.exp(1j * kt * L))
        field = att.ring_field_builder(system, Band.PUMP)(omega)
        assert field.segments == ((L / 2.0, r1),
                                  (L / 2.0, s2 * r1 * cmath.exp(1j * kt * L / 2.0)))
        # outgoing: the amplitude just after the exit coupler, divided by the
        # other coupler's sigma half a round trip on
        kt = k - 0.5j * xi
        den = s1 * s2 - cmath.exp(1j * kt * L)
        half = cmath.exp(1j * kt * L / 2.0)
        u = i_kappa1 * s2 / den
        field = att.ring_field_builder(system, Band.PUMP, "T")(omega)
        assert field.k_prop == kt
        assert field.segments == ((L / 2.0, u), (L / 2.0, u * half / s2))
        w = i_kappa2 * s1 / den
        field = att.ring_field_builder(system, Band.PUMP, "D")(omega)
        assert field.segments == ((L / 2.0, w * half / s1), (L / 2.0, w))

    def test_single_bus_is_add_drop_with_decoupled_drop(self):
        # one ring model: a drop bus with Gamma_D = 0 is a coupler at sigma = 1,
        # which leaves the single-bus rate
        system = add_drop_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4,
                                 gamma_through_ratio=1.5, gamma_drop_ratio=0.0)
        single = replace(system, channels=(system.channel("T"), system.phantom_channel))
        pump = CwPump(1e-3)
        assert att.pair_rate_cw(system, pump, "T", "T") == pytest.approx(
            att.pair_rate_cw(single, pump, "T", "T"), rel=1e-12)

    def test_three_bus_ring_rejected(self):
        system = add_drop_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4,
                                 gamma_through_ratio=1.0, gamma_drop_ratio=1.0)
        third = ChannelCoupling("X", system.channel("D").gammas)
        system = replace(system, channels=system.channels + (third,))
        with pytest.raises(GeometryError):
            att.pair_rate_cw(system, CwPump(1e-3), "T", "T")
