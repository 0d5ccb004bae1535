"""Point-coupling fields, ring overlaps, and attenuation-model rates."""

import cmath
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossy_ring_sfwm import attenuation as att
from lossy_ring_sfwm.config import parse_config
from lossy_ring_sfwm.model import (Band, CwPump, RingSpec, SystemSpec,
                                   add_drop_system, ring_system, uniform_gammas,
                                   xi_from_db_per_cm)

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
    def test_ring_enhancement_at_matched_coupling(self):
        system = _critical_system()
        k = system.bands[Band.PUMP].k_ref
        kt = att.ComplexWavevector.incoming(k, system.ring.xi)
        amps = att.asy_fields(SIGMA_REF, kt, system.ring.circumference)
        # hand evaluation: kappa^2 / (1 - sigma a)^2 with sigma = a
        a = system.ring.roundtrip_amplitude
        expected = (1.0 - SIGMA_REF ** 2) / (1.0 - SIGMA_REF * a) ** 2
        assert abs(amps.f_ring) ** 2 == pytest.approx(expected, rel=1e-10)
        assert abs(amps.f_ring) ** 2 == pytest.approx(27.134, rel=1e-3)

    def test_extinction_at_matched_coupling(self):
        system = _critical_system()
        k = system.bands[Band.PUMP].k_ref
        kt = att.ComplexWavevector.incoming(k, system.ring.xi)
        amps = att.asy_fields(SIGMA_REF, kt, system.ring.circumference)
        # floor set by the round-trip phase k L ~ 6e2 rad in double precision
        assert abs(amps.f_through) < 1e-10

    def test_decoupled_ring(self):
        kt = att.ComplexWavevector.incoming(1e7, 100.0)
        amps = att.asy_fields(1.0, kt, 6.28e-5)
        assert amps.f_ring == 0.0
        assert abs(amps.f_through) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.999),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_lossless_all_pass(self, sigma, phase):
        kt = att.ComplexWavevector.incoming(1e7 + phase / 6.28e-5, 0.0)
        amps = att.asy_fields(sigma, kt, 6.28e-5)
        assert abs(amps.f_through) == pytest.approx(1.0, abs=1e-12)

    def test_outgoing_magnitude_scaled_by_roundtrip(self, ring_ref):
        # on resonance the outgoing enhancement is a times the incoming one
        k = ring_ref.bands[Band.SIGNAL].k_ref
        xi = ring_ref.ring.xi
        L = ring_ref.ring.circumference
        f_in = att.asy_fields(SIGMA_REF, att.ComplexWavevector.incoming(k, xi), L)
        f_out = att.asy_fields(SIGMA_REF, att.ComplexWavevector.outgoing(k, xi), L)
        a = ring_ref.ring.roundtrip_amplitude
        assert abs(f_out.f_ring) == pytest.approx(a * abs(f_in.f_ring), rel=1e-12)

    def test_lossless_pole(self):
        kt = att.ComplexWavevector.incoming(1e7, 0.0)
        L = 2.0 * math.pi / 1e7 * 10  # resonance: k L = 20 pi
        with pytest.raises(att.SingularityError):
            att.asy_fields(1.0, kt, L)


class TestAddDropFields:
    def test_second_coupler_removed(self):
        kt = att.ComplexWavevector.incoming(1.001e7, 400.0)
        L = 6.28e-5
        single = att.asy_fields(0.97, kt, L)
        both = att.add_drop_fields(0.97, 1.0, kt, L)
        assert both.f_ring_first_half == pytest.approx(single.f_ring)
        assert both.f_through == pytest.approx(single.f_through)
        assert both.f_drop == 0.0

    def test_symmetric_lossless_full_transfer(self):
        # on resonance with equal couplers and no loss all power drops
        L = 6.283185307179586e-05
        k = 2.0 * math.pi * 100 / L
        kt = att.ComplexWavevector.incoming(k, 0.0)
        fields = att.add_drop_fields(0.95, 0.95, kt, L)
        assert abs(fields.f_drop) == pytest.approx(1.0, rel=1e-12)
        assert abs(fields.f_through) < 1e-12

    @given(st.floats(min_value=0.3, max_value=0.999),
           st.floats(min_value=0.3, max_value=0.999),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_lossless_power_conservation(self, s1, s2, phase):
        L = 6.28e-5
        kt = att.ComplexWavevector.incoming(1e7 + phase / L, 0.0)
        fields = att.add_drop_fields(s1, s2, kt, L)
        total = abs(fields.f_through) ** 2 + abs(fields.f_drop) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


class TestOverlap:
    def test_resonant_lossless_limit(self, ring_lossless):
        system = ring_lossless
        w = {b: system.bands[b].omega for b in Band}
        j = att.overlap_J(system, w[Band.SIGNAL], w[Band.IDLER],
                          w[Band.PUMP], w[Band.PUMP])
        f_s = att.ring_out_field(system, Band.SIGNAL, w[Band.SIGNAL]).segments[0][1]
        f_i = att.ring_out_field(system, Band.IDLER, w[Band.IDLER]).segments[0][1]
        f_p = att.ring_in_field(system, Band.PUMP, w[Band.PUMP]).segments[0][1]
        expected = np.conj(f_s * f_i) * f_p * f_p * system.ring.circumference
        assert j == pytest.approx(expected, rel=1e-12)

    def test_signal_idler_swap_symmetry(self, ring_ref):
        w0 = ring_ref.bands[Band.PUMP].omega
        gbar = ring_ref.gamma_bar(Band.PUMP)
        j1 = att.overlap_J(ring_ref, w0 + 1.3 * gbar, w0 - 1.3 * gbar, w0, w0)
        j2 = att.overlap_J(ring_ref, w0 - 1.3 * gbar, w0 + 1.3 * gbar, w0, w0)
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
        fields = (att.ring_out_field(system, Band.SIGNAL, w[Band.SIGNAL] + d1 * gbar),
                  att.ring_out_field(system, Band.IDLER, w[Band.IDLER] + d2 * gbar),
                  att.ring_in_field(system, Band.PUMP, w[Band.PUMP] + dp * gbar),
                  att.ring_in_field(system, Band.PUMP, w[Band.PUMP] + dp * gbar))
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
        fields = (att.add_drop_out_field(system, Band.SIGNAL, w[Band.SIGNAL] + d1 * gbar, "D"),
                  att.add_drop_out_field(system, Band.IDLER, w[Band.IDLER] - d1 * gbar, "T"),
                  att.add_drop_in_field(system, Band.PUMP, w[Band.PUMP]),
                  att.add_drop_in_field(system, Band.PUMP, w[Band.PUMP]))
        closed = att.overlap_of_fields(*fields)
        scanned = att.overlap_by_zeta_scan(*fields, system.ring.circumference)
        assert abs(closed - scanned) <= 1e-8 * abs(closed)

    def test_overlap_magnitude_phase_invariant(self, ring_ref):
        w0 = ring_ref.bands[Band.PUMP].omega
        gbar = ring_ref.gamma_bar(Band.PUMP)
        f_s = att.ring_out_field(ring_ref, Band.SIGNAL, w0 + gbar)
        f_i = att.ring_out_field(ring_ref, Band.IDLER, w0 - gbar)
        f_p = att.ring_in_field(ring_ref, Band.PUMP, w0)
        j_ref = att.overlap_of_fields(f_s, f_i, f_p, f_p)
        phase = cmath.exp(0.81j)
        rotated = att.RingField(
            regime=f_p.regime, k_prop=f_p.k_prop,
            segments=tuple((l, a * phase) for l, a in f_p.segments))
        j_rot = att.overlap_of_fields(f_s, f_i, rotated, rotated)
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
        rate = att.pair_rate_cw(ring_ref, CwPump(1e-3))
        # frozen from an independent trapezoid evaluation of the rate integral
        assert rate == pytest.approx(294872.0, rel=1e-3)
        assert 2e5 < rate < 4e5

    def test_zero_nonlinearity(self):
        system = ring_system(1e-5, 26.0, 0.0, 1550e-9, V, 2.4, sigma=SIGMA_REF)
        assert att.pair_rate_cw(system, CwPump(1e-3)) == 0.0

    def test_quadratic_power_scaling(self, ring_ref):
        r1 = att.pair_rate_cw(ring_ref, CwPump(1e-3))
        r2 = att.pair_rate_cw(ring_ref, CwPump(2e-3))
        assert r2 == pytest.approx(4.0 * r1, rel=1e-9)

    def test_add_drop_rate_positive_and_window_capped(self):
        system = add_drop_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4,
                                 gamma_through_ratio=1.5, gamma_drop_ratio=1.0)
        rate = att.pair_rate_cw_add_drop(system, CwPump(1e-3), "T", "T")
        assert rate > 0.0

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    def test_default_tolerance_matches_tight_run(self, name):
        # the 8/16-point Gauss-Legendre estimate is conservative: rates at the
        # default rel_tol 1e-6 agree with a 1e-10 run well inside 1e-6
        config = parse_config((resources.files("lossy_ring_sfwm") / "configs" / name)
                              .read_text())
        system, pump = config.system, config.pump
        ids = [c.channel_id for c in system.physical_channels]
        if len(ids) == 1:
            rates = [(att.pair_rate_cw(system, pump),
                      att.pair_rate_cw(system, pump, rel_tol=1e-10))]
        else:
            rates = [(att.pair_rate_cw_add_drop(system, pump, x, y),
                      att.pair_rate_cw_add_drop(system, pump, x, y, rel_tol=1e-10))
                     for x in ids for y in ids]
        for default, tight in rates:
            assert default == pytest.approx(tight, rel=1e-6)

    def test_single_bus_guard(self):
        system = add_drop_system(1e-5, 26.0, 100.0, 1550e-9, V, 2.4,
                                 gamma_through_ratio=1.0, gamma_drop_ratio=1.0)
        with pytest.raises(ValueError):
            att.pair_rate_cw(system, CwPump(1e-3))
