"""Point-coupling fields, ring overlaps, and attenuation-model rates."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossy_ring_sfwm import attenuation as att
from lossy_ring_sfwm import phantom, sweeps
from lossy_ring_sfwm.config import parse_config
from lossy_ring_sfwm.constants import TWO_PI
from lossy_ring_sfwm.model import (Band, ChannelCoupling, CwPump, GeometryError, finesse,
                                   gamma_from_sigma, two_photon_detuning)
from lossy_ring_sfwm.numerics import QuadratureError, integrate_adaptive
from conftest import bundled, bundled_system
from oracles import PointCoupler, coupler_scatter, overlap_by_zeta_scan, strategy1_rate_mp

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
    return PointCoupler.from_sigma(system.sigma_view(channel_id, Band.PUMP))


def _all_pass_ports(system, d):
    """Incoming pump-band ring amplitude of a single-bus ring at pump
    detuning d, and the bus transmission the point coupler gives for it (bus
    input 1, ring return f_ring e^{i k~ L})."""
    field = att.ring_field_builder(system, Band.PUMP)(d)
    (f_ring,) = field.amps
    f_through, _ = coupler_scatter(_coupler(system, system.pump_input_channel), 1.0,
                                   f_ring * cmath.exp(1j * field.k_prop * field.arc))
    return f_ring, f_through


def _add_drop_ports(system, d):
    """Incoming pump-band ring amplitude after the through coupler at pump
    detuning d, from the field builder, and the through and drop
    transmissions the couplers give for its two arcs (input 1 at the
    through bus, 0 at the add port)."""
    field = att.ring_field_builder(system, Band.PUMP)(d)
    r1, r2 = field.amps
    half = cmath.exp(1j * field.k_prop * field.arc)
    f_drop, _ = coupler_scatter(_coupler(system, "D"), 0.0, r1 * half)
    f_through, _ = coupler_scatter(_coupler(system, "T"), 1.0, r2 * half)
    return r1, f_through, f_drop


def _single_bus_fields(system, d_s, d_i, d_p):
    """(signal, idler, pump) fields of the single-bus ring from its builders,
    at the detunings d_s, d_i and d_p from their resonances."""
    (bus,) = system.buses(1)
    signal, idler = (att.ring_field_builder(system, band, bus)(d)
                     for band, d in ((Band.SIGNAL, d_s), (Band.IDLER, d_i)))
    return signal, idler, att.ring_field_builder(system, Band.PUMP)(d_p)


class TestPointCoupler:
    def test_identity_coupler(self):
        c = PointCoupler.from_sigma(1.0)
        f1, f4 = 0.3 + 0.1j, -0.2 + 0.9j
        assert coupler_scatter(c, f1, f4) == (f1, f4)

    def test_full_crossover(self):
        c = PointCoupler.from_sigma(0.0)
        f2, f3 = coupler_scatter(c, 1.0, 0.0)
        assert f2 == 0.0
        assert f3 == 1.0j

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    def test_unitarity(self, sigma, f1, f4):
        c = PointCoupler.from_sigma(sigma)
        f2, f3 = coupler_scatter(c, f1, f4)
        assert abs(f2) ** 2 + abs(f3) ** 2 == pytest.approx(
            abs(f1) ** 2 + abs(f4) ** 2, rel=1e-12, abs=1e-12)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            PointCoupler(sigma=0.9, kappa=0.9)


class TestAsyFields:
    """All-pass ring fields from the field builder."""

    def test_ring_enhancement_at_matched_coupling(self):
        system = _critical_system()
        f_ring, _ = _all_pass_ports(system, 0.0)
        # hand evaluation: kappa^2 / (1 - sigma a)^2 with sigma = a
        a = system.ring.roundtrip_amplitude
        expected = (1.0 - SIGMA_REF ** 2) / (1.0 - SIGMA_REF * a) ** 2
        assert abs(f_ring) ** 2 == pytest.approx(expected, rel=1e-10)
        assert abs(f_ring) ** 2 == pytest.approx(27.134, rel=1e-3)

    def test_extinction_at_matched_coupling(self):
        system = _critical_system()
        _, f_through = _all_pass_ports(system, 0.0)
        # on resonance the round-trip phase is 0, so only the coupler's and
        # the loss's roundoff stays
        assert abs(f_through) < 1e-10

    def test_decoupled_ring(self, ring_ref):
        system = ring_ref.with_channel_gamma("O", dict.fromkeys(Band, 0.0))  # sigma = 1
        f_ring, f_through = _all_pass_ports(system, 0.37 * V / system.ring.circumference)
        assert f_ring == 0.0
        assert abs(f_through) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.999),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_lossless_all_pass(self, sigma, phase):
        system = bundled_system(couplings={"O": {"sigma": sigma}}, loss_db_per_cm=0.0)
        _, f_through = _all_pass_ports(system, phase * V / system.ring.circumference)
        assert abs(f_through) == pytest.approx(1.0, abs=1e-12)

    def test_outgoing_magnitude_scaled_by_roundtrip(self, ring_ref):
        # on resonance the outgoing enhancement is a times the incoming one
        f_in, f_out = (att.ring_field_builder(ring_ref, Band.SIGNAL, exit_channel)(0.0)
                       .amps[0] for exit_channel in (None, "O"))
        a = ring_ref.ring.roundtrip_amplitude
        assert abs(f_out) == pytest.approx(a * abs(f_in), rel=1e-12)

    def test_lossless_pole(self):
        # decoupled lossless ring on resonance: 1 - e^{i d L / v} = 0
        system = _lossless(bundled_system(radius_m=1e-6).with_channel_gamma(
            "O", dict.fromkeys(Band, 0.0)))
        field = att.ring_field_builder(system, Band.PUMP)
        with pytest.raises(att.SingularityError):
            field(0.0)


class TestAddDropFields:
    """Incoming add-drop fields from the field builder."""

    def test_second_coupler_removed(self):
        system = _add_drop(0.97, 1.0)
        single = replace(system, channels=(system.channel("T"), system.phantom_channel))
        d = 0.3 * system.gamma_bar(Band.PUMP)
        r1, f_through, f_drop = _add_drop_ports(system, d)
        f_ring, single_through = _all_pass_ports(single, d)
        assert r1 == pytest.approx(f_ring)
        assert f_through == pytest.approx(single_through)
        assert f_drop == 0.0

    def test_symmetric_lossless_full_transfer(self):
        # on resonance with equal couplers and no loss all power drops
        system = _add_drop(0.95, 0.95, loss_db_per_cm=0.0)
        _, f_through, f_drop = _add_drop_ports(system, 0.0)
        assert abs(f_drop) == pytest.approx(1.0, rel=1e-12)
        assert abs(f_through) < 1e-12

    @given(st.floats(min_value=0.3, max_value=0.999),
           st.floats(min_value=0.3, max_value=0.999),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_lossless_power_conservation(self, s1, s2, phase):
        system = _add_drop(s1, s2, loss_db_per_cm=0.0)
        _, f_through, f_drop = _add_drop_ports(system, phase * V / system.ring.circumference)
        total = abs(f_through) ** 2 + abs(f_drop) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


class TestOverlap:
    def test_resonant_lossless_limit(self, ring_lossless):
        system = ring_lossless
        fields = _single_bus_fields(system, 0.0, 0.0, 0.0)
        j = att.overlap_of_fields(*fields, delta_kappa=system.ring.delta_kappa)
        f_s, f_i, f_p = (f.amps[0] for f in fields)
        expected = np.conj(f_s * f_i) * f_p * f_p * system.ring.circumference
        assert j == pytest.approx(expected, rel=1e-12)

    def test_signal_idler_swap_symmetry(self, ring_ref):
        gbar = ring_ref.gamma_bar(Band.PUMP)
        j1, j2 = (att.overlap_of_fields(*_single_bus_fields(ring_ref, d, -d, 0.0))
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
        fields = _single_bus_fields(system, d1 * gbar, d2 * gbar, dp * gbar)
        closed = att.overlap_of_fields(*fields)
        # the scan is a trapezoid rule, off by up to 1.5e-8 at 10,001 points
        # on the corners of this box (sigma 0.5, |d| = 3); 40,001 points
        # bring that below 1e-9
        scanned = overlap_by_zeta_scan(*fields, n=40_001)
        assert abs(closed - scanned) <= 1e-8 * abs(closed)

    @given(st.floats(min_value=0.6, max_value=0.995),
           st.floats(min_value=0.6, max_value=0.995),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_add_drop_closed_form_matches_zeta_scan(self, s2_t, s2_d, d1):
        system = bundled_system("add_drop.json", {"T": {"sigma": s2_t}, "D": {"sigma": s2_d}})
        gbar = system.gamma_bar(Band.PUMP)
        fields = (att.ring_field_builder(system, Band.SIGNAL, "D")(d1 * gbar),
                  att.ring_field_builder(system, Band.IDLER, "T")(-d1 * gbar),
                  att.ring_field_builder(system, Band.PUMP)(0.0))
        closed = att.overlap_of_fields(*fields)
        scanned = overlap_by_zeta_scan(*fields)
        assert abs(closed - scanned) <= 1e-8 * abs(closed)

    def test_overlap_magnitude_phase_invariant(self, ring_ref):
        gbar = ring_ref.gamma_bar(Band.PUMP)
        f_s, f_i, f_p = _single_bus_fields(ring_ref, gbar, -gbar, 0.0)
        j_ref = att.overlap_of_fields(f_s, f_i, f_p)
        phase = cmath.exp(0.81j)
        rotated = replace(f_p, amps=tuple(a * phase for a in f_p.amps))
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
        # fields are envelopes about the carrier e^{i 2 pi m zeta / L}, whose
        # phases, 1 per round trip and (-1)^m per half, the wavenumber k
        # of the detuning d = 0.7 Gbar leaves out
        L = ring_ref.ring.circumference
        xi = ring_ref.ring.xi
        d = 0.7 * ring_ref.gamma_bar(Band.SIGNAL)
        k = d / ring_ref.bands[Band.SIGNAL].v
        sigma = ring_ref.sigma_view("O", Band.SIGNAL)
        i_kappa = 1j * math.sqrt(1.0 - sigma * sigma)
        for exit_channel, kt in ((None, k + 0.5j * xi), ("O", k - 0.5j * xi)):
            field = att.ring_field_builder(ring_ref, Band.SIGNAL, exit_channel)(d)
            phase = cmath.exp(1j * kt * L)
            den = 1.0 - sigma * phase if exit_channel is None else sigma - phase
            assert field.k_prop == kt
            assert (field.arc, field.amps) == (L, (i_kappa / den,))
        system = bundled_system("add_drop.json")
        s1, s2 = (system.sigma_view(x, Band.PUMP) for x in ("T", "D"))
        i_kappa1, i_kappa2 = (1j * math.sqrt(1.0 - s * s) for s in (s1, s2))
        k = d / system.bands[Band.PUMP].v
        kt = k + 0.5j * xi
        r1 = i_kappa1 / (1.0 - s1 * s2 * cmath.exp(1j * kt * L))
        field = att.ring_field_builder(system, Band.PUMP)(d)
        assert (field.arc, field.amps) == (L / 2.0,
                                           (r1, s2 * r1 * cmath.exp(1j * kt * L / 2.0)))
        # outgoing: the amplitude just after the exit coupler, divided by the
        # other coupler's sigma half a round trip on
        kt = k - 0.5j * xi
        den = s1 * s2 - cmath.exp(1j * kt * L)
        half = cmath.exp(1j * kt * L / 2.0)
        u = i_kappa1 * s2 / den
        field = att.ring_field_builder(system, Band.PUMP, "T")(d)
        assert field.k_prop == kt
        assert (field.arc, field.amps) == (L / 2.0, (u, u * half / s2))
        w = i_kappa2 * s1 / den
        field = att.ring_field_builder(system, Band.PUMP, "D")(d)
        assert (field.arc, field.amps) == (L / 2.0, (w * half / s1, w))

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
    """The strategy-1 rate integrated directly in the signal detuning d1 =
    omega1 - omega_S at rel_tol 1e-11, with both resonances hinted as peaks:
    an independent check of the Jacobian of pair_rate_cw's theta map and of
    the window's image. Every case here has one resonance order for all
    three bands, so the carriers add no mismatch."""
    signal = att.ring_field_builder(system, Band.SIGNAL, signal_exit)
    idler = att.ring_field_builder(system, Band.IDLER, idler_exit)
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    assert pb.m == sb.m == ib.m
    e = two_photon_detuning(system, pump)
    pump_field = att.ring_field_builder(system, Band.PUMP)(pump.detuning)

    def integrand(d1):
        return [(sb.omega + d) * (ib.omega + (e - d)) * abs(att.overlap_of_fields(
            signal(d), idler(e - d), pump_field,
            delta_kappa=system.ring.delta_kappa)) ** 2 for d in d1]

    lo, hi = att.signal_window(system, pump)
    quad = integrate_adaptive(integrand, lo, hi, rel_tol=1e-11, points=[
        (0.0, att._linewidth(system, Band.SIGNAL)), (e, att._linewidth(system, Band.IDLER))])
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


def _idler_velocity_system(name, factor):
    """A bundled ring whose idler band alone has `factor` times the shared
    group velocity, so its linewidth is about `factor` times the signal's."""
    doc = bundled(name)
    bands = doc["system"]["bands"]
    bands["idler"] = {"group_velocity_m_per_s": factor * bands["group_velocity_m_per_s"]}
    return parse_config(doc).system


def _hint_rule_cases():
    """36 rates across pair_rate_cw's hint rule: idler linewidths 0.2 to 5
    times the signal's, pumps detuned by 0, 0.3 and 3 pump linewidths, and
    the exits OO, TD and DD of the bundled rings."""
    cases = []
    for factor in (0.2, 0.75, 1.5, 5.0):
        for name, exits in (("ring_channel", ("OO",)), ("add_drop", ("TD", "DD"))):
            system = _idler_velocity_system(f"{name}.json", factor)
            for d in (0.0, 0.3, 3.0):
                pump = CwPump(1e-3, detuning=d * system.gamma_bar(Band.PUMP))
                cases += [pytest.param(system, pump, x, y,
                                       id=f"{name}-{x}{y}-idler{factor}-detuned{d}")
                          for x, y in exits]
    return cases


class TestThetaMap:
    @pytest.mark.parametrize("system, pump, x, y", _theta_map_cases())
    def test_matches_omega_space_integral(self, system, pump, x, y):
        rate = att.pair_rate_cw(system, pump, x, y)
        assert rate == pytest.approx(_omega_space_rate(system, pump, x, y), rel=1e-9)

    @pytest.mark.parametrize("system, pump, x, y", _hint_rule_cases())
    def test_hint_rule_keeps_default_tolerance(self, system, pump, x, y):
        # rates with no hints (idler line flat in theta) and with the two
        # hints (idler line a peak) both stay within the requested 1e-6;
        # dropping only the signal's hint misses by 4.8e-6 on add-drop DD
        # with the idler at 0.2 and the pump detuned by 0.3 linewidths
        rate = att.pair_rate_cw(system, pump, x, y)
        assert rate == pytest.approx(_omega_space_rate(system, pump, x, y), rel=1e-6)

    @pytest.fixture
    def quadratures(self, monkeypatch):
        """The (points, evaluations) of each integrate_adaptive call a rate makes."""
        calls = []

        def spy(*args, **kwargs):
            quad = integrate_adaptive(*args, **kwargs)
            calls.append((kwargs["points"], quad.evaluations))
            return quad

        monkeypatch.setattr(att, "integrate_adaptive", spy)
        return calls

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    def test_flat_lines_take_one_panel(self, name, quadratures):
        # on resonance the idler line sits on the signal's, both flat in
        # theta: no hints, and one 8/16-point panel converges
        system = bundled_system(name)
        for x in system.buses(1, 2):
            for y in system.buses(1, 2):
                att.pair_rate_cw(system, CwPump(1e-3), x, y)
        assert quadratures == [([], 24)] * len(system.buses(1, 2)) ** 2

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    def test_detuned_idler_peak_keeps_both_hints(self, name, quadratures):
        # a pump 3 linewidths off puts the idler peak 6 linewidths from the
        # signal's, 37 times its far-off value in theta: both are hinted
        system = bundled_system(name)
        x = system.pump_input_channel
        att.pair_rate_cw(system, CwPump(1e-3, detuning=3.0 * system.gamma_bar(Band.PUMP)), x, x)
        ((points, _),) = quadratures
        assert len(points) == 2
        assert points[0][0] == 0.0 < points[1][0]

    def test_lossless_uncoupled_ring_is_singular(self, ring_ref):
        # r = 1 leaves the signal resonance no width, even with the pump off it
        system = _lossless(ring_ref).with_channel_gamma("O", dict.fromkeys(Band, 0.0))
        pump = CwPump(1e-3, detuning=ring_ref.gamma_bar(Band.PUMP))
        with pytest.raises(att.SingularityError):
            att.pair_rate_cw(system, pump, "O", "O")


def _high_finesse(f):
    """ring_channel.json with every decay rate and the loss scaled to finesse f."""
    ring = bundled_system()
    return sweeps._rescaled_coupling_system(ring, finesse(ring) / f)


class TestMpmathOracle:
    """pair_rate_cw at rel_tol 1e-12 against the 30-digit transfer functions
    in absolute wavenumbers. The tolerance holds at high finesse, where 1 - r
    is small, because each field's round-trip phase d L / v has no
    wavenumber of 1.5e6 1/m to lose its bits to."""

    @pytest.mark.parametrize("system, pump, x, y", [
        pytest.param(_high_finesse(500), CwPump(1e-3), "O", "O", id="finesse-500"),
        pytest.param(_high_finesse(5000), CwPump(1e-3), "O", "O", id="finesse-5000"),
        pytest.param(bundled_system("add_drop.json"), CwPump(1e-3), "T", "T", id="add_drop-TT"),
        pytest.param(bundled_system("add_drop.json"), CwPump(1e-3), "D", "D", id="add_drop-DD"),
        pytest.param(_high_finesse(500),
                     CwPump(1e-3, detuning=3.0 * _high_finesse(500).gamma_bar(Band.PUMP)),
                     "O", "O", id="finesse-500-detuned-3")])
    def test_tight_rate_matches_mpmath(self, system, pump, x, y):
        rate = att.pair_rate_cw(system, pump, x, y, rel_tol=1e-12)
        assert rate == pytest.approx(strategy1_rate_mp(system, pump, x, y), rel=1e-10)

    @pytest.mark.parametrize("f", [84.0, 200.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
                                   20000.0])
    def test_tight_tolerance_converges_at_any_finesse(self, f):
        rate = att.pair_rate_cw(_high_finesse(f), CwPump(1e-3), "O", "O", rel_tol=1e-12)
        assert rate == pytest.approx(
            att.pair_rate_cw(_high_finesse(f), CwPump(1e-3), "O", "O", rel_tol=1e-10),
            rel=1e-10)


def _mode_order_system(name, orders=None, signal_index=None):
    """A bundled ring whose bands sit at the resonance orders `orders` (signal,
    pump, idler), each at wavelength 2.4 L / m, or whose signal band alone
    has effective index `signal_index`."""
    doc = bundled(name)
    bands = doc["system"]["bands"]
    if orders:
        L = 2.0 * math.pi * doc["system"]["ring"]["radius_m"]
        for band, m in zip(("signal", "pump", "idler"), orders):
            bands[band] = {"wavelength_nm": 2.4 * L / m * 1e9}
    if signal_index:
        bands["signal"] = {"effective_index": signal_index}
    return parse_config(doc).system


class TestModeOrders:
    """Bands on distinct ring resonances: the carriers' mismatch 2 m_P - m_S -
    m_I enters the overlap, and each field's half-round-trip phase (-1)^m
    with it."""

    @pytest.mark.parametrize("name, exits, expected", [
        ("ring_channel.json", ("O", "O"), 294840.63985368784),
        ("add_drop.json", ("T", "T"), 16838.188519099862),
        ("add_drop.json", ("T", "D"), 17028.260735758606),
        ("add_drop.json", ("D", "D"), 17275.444119751373)])
    def test_matched_orders(self, name, exits, expected):
        # orders 98, 97, 96: 2 m_P = m_S + m_I and 2 omega_P = omega_S + omega_I
        system = _mode_order_system(name, orders=(98, 97, 96))
        assert [system.bands[b].m for b in (Band.SIGNAL, Band.PUMP, Band.IDLER)] == [98, 97, 96]
        assert att.pair_rate_cw(system, CwPump(1e-3), *exits) == pytest.approx(expected,
                                                                               rel=1e-9)

    def test_mismatched_single_bus_generates_nothing(self):
        # m_S = 98 against m_P = m_I = 97 at one frequency: the overlap of a
        # uniform ring field with e^{-2 pi i zeta / L} vanishes
        system = _mode_order_system("ring_channel.json", signal_index=2.42)
        assert system.bands[Band.SIGNAL].m == 98 and system.bands[Band.PUMP].m == 97
        pump = CwPump(1e-3)
        assert att.pair_rate_cw(system, pump, "O", "O") \
            < 1e-20 * phantom.pair_rate_cw(system, pump, "O", "O")

    @pytest.mark.parametrize("exits", [("T", "D"), ("D", "D")])
    def test_mismatched_add_drop_matches_mpmath(self, exits):
        # with an odd mismatch the two arcs' overlaps do not cancel, and the
        # sign (-1)^(2 m_P - m_S - m_I) between them is the carriers' alone:
        # counting it twice, in the overlap and in the arcs' amplitudes, gives
        # rates 300 to 600 times larger
        system = _mode_order_system("add_drop.json", signal_index=2.42)
        pump = CwPump(1e-3)
        assert att.pair_rate_cw(system, pump, *exits, rel_tol=1e-10) == pytest.approx(
            strategy1_rate_mp(system, pump, *exits), rel=1e-9)

    def test_mismatched_add_drop_failure_quoted_in_pairs_per_s(self, monkeypatch):
        # TD and DD converge to the bits they had before a failure was
        # restated. A quadrature that fails quotes the rate it reached, in
        # pairs/s, not the theta integral before its prefactor
        system = _mode_order_system("add_drop.json", signal_index=2.42)
        pump = CwPump(1e-3)
        assert att.pair_rate_cw(system, pump, "T", "D") == 11.006426297854075
        assert att.pair_rate_cw(system, pump, "D", "D") == 22.36049347585042
        integrate = att.integrate_adaptive

        def fail(*args, **kwargs):
            value = integrate(*args, **kwargs).value
            raise QuadratureError("quadrature did not converge", value=value,
                                  error_estimate=1e-3 * value, rel_tol=kwargs["rel_tol"])

        monkeypatch.setattr(att, "integrate_adaptive", fail)
        with pytest.raises(QuadratureError) as exc:
            att.pair_rate_cw(system, pump, "T", "D")
        err = exc.value
        assert err.value == 11.006426297854075
        assert err.error_estimate == pytest.approx(1e-3 * err.value, rel=1e-15)
        assert str(err) == ("strategy-1 rate R[T,D]: quadrature did not converge: estimate "
                            f"{err.error_estimate:.3e} pairs/s vs requested 1.0e-06 "
                            f"relative on value {err.value:.6e} pairs/s")
        assert isinstance(err.__cause__, QuadratureError)
        assert err.__cause__.value != err.value


def _gap_law(system, x, y):
    """c_XY = (pi / 2) sum_j eta_j (2 delta_jP + delta_jX + delta_jY - 7 eta_j)
    over the physical buses j, P the pump bus: the limit of F (R_att - R_ph) /
    R_ph (docs/strategy_gap.md)."""
    p = system.pump_input_channel
    total = 0.0
    for j in system.buses(1, 2):
        eta = system.escape_efficiency(j, Band.PUMP)
        total += eta * (2 * (j == p) + (j == x) + (j == y) - 7.0 * eta)
    return math.pi / 2.0 * total


def _gap_cases():
    """(config, exit pair, bound on |F gap - c| at F = 2,500): a single bus
    at eta below, at and above 4/7, and every exit pair of add_drop.json and
    of two more add-drop coupling sets, given as (eta_T, eta_D)."""
    cases = []
    for eta in (0.2, 4.0 / 7.0, 0.8):
        doc = bundled()
        doc["system"]["channels"][0]["coupling"] = {"eta": eta}
        cases.append(pytest.param(parse_config(doc), ("O", "O"), 1e-3, id=f"eta={eta:.3g}"))
    for etas in (None, (0.2, 0.5), (0.5, 0.15)):
        doc = bundled("add_drop.json")
        for channel, eta in zip(doc["system"]["channels"], etas or ()):
            channel["coupling"] = {"eta": eta}
        name = "add_drop" if etas is None else "eta_T={},eta_D={}".format(*etas)
        cases += [pytest.param(parse_config(doc), (x, y), 5e-3, id=f"{name}-{x}{y}")
                  for x in "TD" for y in "TD"]
    return cases


class TestStrategyGap:
    """Strategy 1 linearises each coupler, Gamma = (1 - sigma) v / L, against
    the exact -ln(sigma) v / L; the rates' relative gap is c_XY / F + O(1/F^2)."""

    @pytest.mark.parametrize("config, pair, bound", _gap_cases())
    def test_scaled_gap_approaches_the_law(self, config, pair, bound):
        system = config.system
        deviations = []
        for f in (250.0, 2500.0):
            # every coupling and the loss scaled together: eta stays fixed
            scaled = sweeps._rescaled_coupling_system(system, finesse(system) / f)
            r_att = att.pair_rate_cw(scaled, config.pump, *pair, rel_tol=1e-11)
            r_ph = phantom.pair_rates(scaled, config.pump)[pair]
            deviations.append(abs(finesse(scaled) * (r_att - r_ph) / r_ph
                                  - _gap_law(system, *pair)))
        coarse, fine = deviations
        assert fine <= coarse / 5.0, deviations  # O(1/F): about 10x per decade
        assert fine <= bound, deviations
