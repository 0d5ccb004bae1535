"""Point-coupling fields, ring overlaps, and attenuation-model rates."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossy_ring_sfwm import attenuation as att
from lossy_ring_sfwm import sweeps
from lossy_ring_sfwm.constants import TWO_PI
from lossy_ring_sfwm.model import (Band, ChannelCoupling, CwPump, GeometryError, finesse,
                                   gamma_from_sigma)
from lossy_ring_sfwm.numerics import integrate_adaptive
from conftest import bundled_system

V = 1e8
SIGMA_REF = 0.9814


@pytest.fixture(scope="module")
def ring_ref():
    return bundled_system()


@pytest.fixture(scope="module")
def ring_lossless():
    return bundled_system(loss_db_per_cm=0.0)


def _critical_system():
    """Loss tuned so the round-trip amplitude equals the bundled self-coupling."""
    L = 2.0 * math.pi * 1e-5
    xi = -2.0 * math.log(SIGMA_REF) / L
    return bundled_system(loss_db_per_cm=xi / (100.0 * math.log(10.0) / 10.0))


def _lossless(system):
    """The same ring without propagation loss; strategy 1 never reads the
    phantom entry, which keeps the total linewidth positive."""
    return replace(system, ring=replace(system.ring, loss_db_per_cm=0.0))


def _add_drop(s1, s2, loss_db_per_cm=26.0):
    """Add-drop ring, through T and drop D, with bus self-couplings s1 and s2."""
    return bundled_system("add_drop.json", {"T": {"sigma": s1}, "D": {"sigma": s2}},
                          loss_db_per_cm=loss_db_per_cm)


def _coupler(system, channel_id):
    return att.PointCoupler.from_sigma(system.sigma_view(channel_id, Band.PUMP))


def _all_pass_ports(system, omega):
    """Incoming pump-band ring amplitude of a single-bus ring, and the
    bus transmission the point coupler gives for it (bus input 1, ring
    return f_ring e^{i k~ L})."""
    field = att.ring_field_builder(system, Band.PUMP)(omega)
    ((length, f_ring),) = field.segments
    f_through, _ = att.coupler_scatter(_coupler(system, system.pump_input_channel), 1.0,
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
    (bus,) = system.buses(1)
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

    def test_decoupled_ring(self, ring_ref):
        system = ring_ref.with_channel_gamma("O", dict.fromkeys(Band, 0.0))  # sigma = 1
        omega = system.bands[Band.PUMP].omega + 0.37 * V / system.ring.circumference
        f_ring, f_through = _all_pass_ports(system, omega)
        assert f_ring == 0.0
        assert abs(f_through) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.999),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_lossless_all_pass(self, sigma, phase):
        system = bundled_system(couplings={"O": {"sigma": sigma}}, loss_db_per_cm=0.0)
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
        system = _lossless(bundled_system(radius_m=1e-6).with_channel_gamma(
            "O", dict.fromkeys(Band, 0.0)))
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
        system = bundled_system(couplings={"O": {"sigma": sigma}}, loss_db_per_cm=loss)
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
        system = bundled_system("add_drop.json")
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

    def test_zero_nonlinearity(self, ring_ref):
        # parse_config rejects gamma_nl = 0, so the ring is edited directly
        system = replace(ring_ref, ring=replace(ring_ref.ring, gamma_nl=0.0))
        assert att.pair_rate_cw(system, CwPump(1e-3), "O", "O") == 0.0

    def test_quadratic_power_scaling(self, ring_ref):
        r1 = att.pair_rate_cw(ring_ref, CwPump(1e-3), "O", "O")
        r2 = att.pair_rate_cw(ring_ref, CwPump(2e-3), "O", "O")
        assert r2 == pytest.approx(4.0 * r1, rel=1e-9)

    def test_add_drop_rate_positive_and_window_capped(self):
        system = bundled_system("add_drop.json")
        rate = att.pair_rate_cw(system, CwPump(1e-3), "T", "T")
        assert rate > 0.0

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    def test_default_tolerance_matches_tight_run(self, name):
        # the 8/16-point Gauss-Legendre estimate is conservative: rates at the
        # default rel_tol 1e-6 agree with a 1e-10 run well inside 1e-6
        system, pump = bundled_system(name), CwPump(1e-3)
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
        system = bundled_system(name)
        # exits None: both photons in the one bus of a single-bus ring
        rate = att.pair_rate_cw(system, CwPump(1e-3), *(exits or system.buses(1) * 2))
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
        system = bundled_system("add_drop.json")
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
        system = bundled_system("add_drop.json", {"D": {"sigma": 1.0}})
        single = replace(system, channels=(system.channel("T"), system.phantom_channel))
        pump = CwPump(1e-3)
        assert att.pair_rate_cw(system, pump, "T", "T") == pytest.approx(
            att.pair_rate_cw(single, pump, "T", "T"), rel=1e-12)

    def test_three_bus_ring_rejected(self):
        system = bundled_system("add_drop.json")
        third = ChannelCoupling("X", system.channel("D").gammas)
        system = replace(system, channels=system.channels + (third,))
        with pytest.raises(GeometryError):
            att.pair_rate_cw(system, CwPump(1e-3), "T", "T")


def _omega_space_rate(system, pump, signal_exit, idler_exit):
    """The strategy-1 rate integrated directly in omega1 at rel_tol 1e-11,
    with both resonances hinted as peaks: an independent check of the
    Jacobian of pair_rate_cw's theta map and of the window's image."""
    signal = att.ring_field_builder(system, Band.SIGNAL, signal_exit)
    idler = att.ring_field_builder(system, Band.IDLER, idler_exit)
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    omega_o = pb.omega + pump.detuning
    pump_field = att.ring_field_builder(system, Band.PUMP)(omega_o)

    def integrand(omega):
        return np.array([w * (2.0 * omega_o - w) * abs(att.overlap_of_fields(
            signal(w), idler(2.0 * omega_o - w), pump_field,
            delta_kappa=system.ring.delta_kappa)) ** 2 for w in omega.tolist()])

    lo, hi = att.signal_window(system, pump)
    quad = integrate_adaptive(integrand, lo, hi, rel_tol=1e-11, points=[
        (sb.omega, att._linewidth(system, Band.SIGNAL)),
        (2.0 * omega_o - ib.omega, att._linewidth(system, Band.IDLER))])
    return (system.ring.gamma_nl * pump.power / pb.omega) ** 2 * pb.v ** 2 \
        / (TWO_PI * sb.v * ib.v) * quad.value


def _theta_map_cases():
    """25 rates: the bundled rings at every exit; single-bus sigma from 0.88
    (the window capped at 0.45 FSR) to 0.9995; finesse 40 to 2,500; an
    add-drop ring with a weak drop; pumps detuned by 0.5, 3 and 20 linewidths."""
    ring, add_drop = bundled_system(), bundled_system("add_drop.json")
    pump = CwPump(1e-3)
    L = ring.ring.circumference
    cases = [(f"{name}-{x}{y}", s, pump, x, y)
             for name, s in (("ring_channel", ring), ("add_drop", add_drop))
             for x in s.buses(1, 2) for y in s.buses(1, 2)]
    for sigma in (0.88, 0.9, 0.95, 0.99, 0.999, 0.9995):
        gammas = {b: gamma_from_sigma(sigma, ring.bands[b].v, L) for b in Band}
        cases.append((f"sigma-{sigma}", ring.with_channel_gamma("O", gammas), pump, "O", "O"))
    for f in (40.0, 100.0, 500.0, 1000.0, 2500.0):
        cases.append((f"finesse-{f}",
                      sweeps._rescaled_coupling_system(ring, finesse(ring) / f), pump, "O", "O"))
    weak_drop = bundled_system("add_drop.json", {"T": {"sigma": 0.99}, "D": {"sigma": 0.996}},
                               radius_m=1.1e-5, loss_db_per_cm=8.0)
    cases += [(f"weak_drop-{x}{y}", weak_drop, CwPump(1.5e-3), x, y)
              for x in ("T", "D") for y in ("T", "D")]
    for d in (0.5, 3.0, 20.0):
        cases.append((f"detuned-{d}", ring,
                      CwPump(1e-3, detuning=d * ring.gamma_bar(Band.PUMP)), "O", "O"))
    detuned = CwPump(1e-3, detuning=3.0 * add_drop.gamma_bar(Band.PUMP))
    cases += [("add_drop_detuned-TD", add_drop, detuned, "T", "D"),
              ("add_drop_detuned-DD", add_drop, detuned, "D", "D")]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


class TestThetaMap:
    @pytest.mark.parametrize("system, pump, x, y", _theta_map_cases())
    def test_matches_omega_space_integral(self, system, pump, x, y):
        rate = att.pair_rate_cw(system, pump, x, y)
        assert rate == pytest.approx(_omega_space_rate(system, pump, x, y), rel=1e-9)

    def test_lossless_uncoupled_ring_is_singular(self, ring_ref):
        # r = 1 leaves the signal resonance no width, even with the pump off it
        system = _lossless(ring_ref).with_channel_gamma("O", dict.fromkeys(Band, 0.0))
        pump = CwPump(1e-3, detuning=ring_ref.gamma_bar(Band.PUMP))
        with pytest.raises(att.SingularityError):
            att.pair_rate_cw(system, pump, "O", "O")
