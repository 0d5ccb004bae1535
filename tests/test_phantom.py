"""Enhancement factors, the scattering matrix they give, vacuum power, and
CW rates of the phantom-channel model."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from lossy_ring_sfwm import cli
from lossy_ring_sfwm import phantom as ph
from lossy_ring_sfwm.config import parse_config
from lossy_ring_sfwm.constants import EPS0, HBAR
from lossy_ring_sfwm.model import (Band, ChannelCoupling, ChannelKind, CwPump,
                                   RingSpec, SystemSpec, band_from_wavelength,
                                   phantom_gamma_from_xi)
from lossy_ring_sfwm.numerics import QuadratureError
from conftest import bundled, bundled_system


def sample_system(q_int=2e4, eta=0.5):
    """Single bus at escape efficiency eta, plus the phantom with its decay
    rate set by the intrinsic quality factor q_int."""
    return bundled_system(couplings={"O": {"eta": eta}, "P": {"q_factor": q_int}})


def random_system(rng: random.Random, n_physical: int) -> SystemSpec:
    radius = rng.uniform(5e-6, 5e-5)
    ring = RingSpec(radius=radius, loss_db_per_cm=rng.uniform(1.0, 50.0),
                    gamma_nl=rng.uniform(10.0, 500.0))
    wavelength = rng.uniform(1.2e-6, 1.6e-6)
    v = rng.uniform(0.7e8, 1.5e8)
    bands = {b: band_from_wavelength(wavelength, v, 2.4, ring.circumference) for b in Band}
    channels = []
    for i in range(n_physical):
        gammas = {b: rng.uniform(0.3, 3.0) * phantom_gamma_from_xi(ring.xi, v)
                  for b in Band}
        channels.append(ChannelCoupling(f"C{i}", gammas))
    channels.append(ChannelCoupling(
        "P", {b: phantom_gamma_from_xi(ring.xi, bands[b].v) for b in Band},
        ChannelKind.PHANTOM))
    return SystemSpec(ring=ring, bands=bands, channels=tuple(channels),
                      pump_input_channel="C0")


def peak_abs2(system: SystemSpec, channel_id: str, band: Band) -> float:
    """|F|^2 on resonance, of F_- and of its conjugate F_+ alike."""
    return abs(ph.enhancement_factor(system, channel_id, band, 0.0)) ** 2


def scattering_matrix(system: SystemSpec, band: Band, d: float,
                      outgoing: bool = False) -> np.ndarray:
    """S_YX = delta_XY +- i gamma_Y sqrt(L) F_X / v over every channel, phantom
    included: from F = F_- (+) the wave leaving through Y when a unit wave
    enters through X; outgoing, from F = F_+ = F_-* (-), the wave entering
    through Y of the solution with a unit wave leaving through X."""
    ids = system.channel_ids
    v = system.bands[band].v
    sqrt_l = math.sqrt(system.ring.circumference)
    sign = -1j if outgoing else 1j
    f = [ph.enhancement_factor(system, x, band, d) for x in ids]
    if outgoing:
        f = [fx.conjugate() for fx in f]
    return np.array([[(y == x) + sign * system.amplitude_coupling(y, band) * sqrt_l * fx / v
                      for x, fx in zip(ids, f)] for y in ids])


def unitarity_defect(s: np.ndarray) -> float:
    """max |(S^dag S - I)_XY|."""
    return float(np.abs(s.conj().T @ s - np.eye(len(s))).max())


class TestEnhancementFactor:
    def test_reference_peak(self):
        system = sample_system()
        f2 = peak_abs2(system, "O", Band.PUMP)
        assert f2 == pytest.approx(26.19275943319821, rel=1e-12)
        assert f2 == pytest.approx(26.2, rel=0.01)
        # 2 v Gamma / (L Gbar^2), from the parsed decay rates
        band = system.bands[Band.PUMP]
        expected = 2.0 * band.v * system.channel("O").gamma(Band.PUMP) \
            / (system.ring.circumference * system.gamma_bar(Band.PUMP) ** 2)
        assert f2 == pytest.approx(expected, rel=1e-12)

    def test_incoming_sign(self):
        # F_- = gamma / (sqrt(L) (-i Gbar - d)) = gamma (-d + i Gbar) / (sqrt(L)
        # (d^2 + Gbar^2)), the response of a damped mode driven as e^{-i omega t}
        system = sample_system()
        gbar = system.gamma_bar(Band.PUMP)
        d = np.array([-3.0, -0.5, 0.0, 0.5, 3.0]) * gbar
        f = ph.enhancement_factor(system, "O", Band.PUMP, d)
        expected = system.amplitude_coupling("O", Band.PUMP) * (-d + 1j * gbar) \
            / (math.sqrt(system.ring.circumference) * (d * d + gbar * gbar))
        np.testing.assert_allclose(f, expected, rtol=1e-15, atol=0.0)
        assert np.all(f.imag > 0.0)

    @pytest.mark.parametrize("n_physical", [1, 2, 3])
    def test_conjugate_of_outgoing_bit_for_bit(self, n_physical):
        # F_- is the conjugate of F_+ = gamma / (sqrt(L) (i Gbar - d)) to the
        # last bit at every real d, the sign of a zero real part at d = 0
        # included, so the JSA's tables do not depend on which one is formed
        rng = random.Random(30_000 + n_physical)
        system = random_system(rng, n_physical)
        for band in Band:
            gbar = system.gamma_bar(band)
            d = gbar * np.concatenate([[0.0, 1e-300, -1e-300, 1.0, -1.0],
                                       np.linspace(-8.0, 8.0, 33),
                                       [rng.uniform(-1e3, 1e3) for _ in range(200)]])
            sqrt_l = math.sqrt(system.ring.circumference)
            for x in system.channel_ids[:-1]:  # the phantom may be decoupled
                f = ph.enhancement_factor(system, x, band, d)
                outgoing = system.amplitude_coupling(x, band) / (sqrt_l * (1j * gbar - d))
                assert f.tobytes() == np.conj(outgoing).tobytes()

    def test_decoupled_channel_vanishes(self):
        system = bundled_system(couplings={"O": {"gamma_rad_per_s": 1e10},
                                           "P": {"gamma_rad_per_s": 0}})
        f = ph.enhancement_factor(system, "P", Band.SIGNAL, 0.0)
        assert f == 0.0

    def test_half_width(self):
        # the detuning is handed over as it is, so only the last bits differ
        system = sample_system()
        gbar = system.gamma_bar(Band.SIGNAL)
        peak = peak_abs2(system, "O", Band.SIGNAL)
        f = ph.enhancement_factor(system, "O", Band.SIGNAL, gbar)
        assert abs(f) ** 2 == pytest.approx(peak / 2.0, rel=1e-14)

    def test_fwhm_is_full_linewidth(self):
        # |F|^2 halves one half-linewidth away on either side
        system = sample_system(eta=0.37)
        gbar = system.gamma_bar(Band.IDLER)
        peak = peak_abs2(system, "O", Band.IDLER)
        lo = ph.enhancement_factor(system, "O", Band.IDLER, -gbar)
        hi = ph.enhancement_factor(system, "O", Band.IDLER, gbar)
        assert abs(lo) ** 2 == pytest.approx(peak / 2.0, rel=1e-14)
        assert abs(hi) ** 2 == pytest.approx(peak / 2.0, rel=1e-14)


class TestAsymptoticAmplitudes:
    """The asymptotic amplitudes in the channels, as entries of the
    scattering matrix that enhancement_factor gives."""

    def test_extinction_at_critical_coupling(self):
        system = sample_system(eta=0.5)
        s = scattering_matrix(system, Band.PUMP, 0.0)
        assert abs(s[0, 0]) < 1e-12  # nothing leaves through the bus it entered

    def test_transparent_ring_limit(self):
        weak = {"gamma_rad_per_s": 1e-3}
        system = bundled_system("add_drop.json", {"T": weak, "D": weak}, loss_db_per_cm=0.0)
        assert system.channel_ids[:2] == ("T", "D")
        d = 1e2 * system.bands[Band.PUMP].v  # off resonance, v times 100 1/m
        s = scattering_matrix(system, Band.PUMP, d)
        assert s[0, 0] == pytest.approx(1.0, abs=1e-10)  # through T, into T
        assert abs(s[1, 0]) < 1e-10  # nothing drops into D

    @pytest.mark.parametrize("n_physical", [1, 2, 3])
    def test_flux_conservation(self, n_physical):
        # S^dag S = I: every column carries unit flux, and distinct columns
        # are orthogonal, for incoming- and outgoing-type solutions alike
        rng = random.Random(20_000 + n_physical)
        system = random_system(rng, n_physical)
        for band in Band:
            gbar = system.gamma_bar(band)
            for _ in range(40):
                d = rng.uniform(-6.0, 6.0) * gbar
                for outgoing in (False, True):
                    assert unitarity_defect(scattering_matrix(system, band, d, outgoing)) \
                        <= 1e-12


class TestVacuumPower:
    def test_reference_value(self):
        system = sample_system()
        omega = system.bands[Band.PUMP].omega
        gbar = system.gamma_bar(Band.SIGNAL)
        p_vac = ph.vacuum_power(gbar, gbar, omega, omega)
        assert p_vac == pytest.approx(1.946811576430854e-09, rel=1e-12)
        assert p_vac == pytest.approx(1.9e-9, rel=0.03)

    def test_detuning_suppression(self):
        p0 = ph.vacuum_power(1e10, 1e10, 1.2e15, 1.2e15, detuning=0.0)
        p_far = ph.vacuum_power(1e10, 1e10, 1.2e15, 1.2e15, detuning=1e14)
        assert p_far < 1e-7 * p0

    def test_symmetric_reduction(self):
        gbar, omega = 7.3e10, 1.215e15
        p_vac = ph.vacuum_power(gbar, gbar, omega, omega)
        assert p_vac == pytest.approx(HBAR * omega * gbar / 4.0, rel=1e-12)


class TestClosedFormRate:
    def test_reference_rate(self):
        system = sample_system()
        rate = ph.pair_rate_cw(system, CwPump(1e-3), "O", "O")
        assert rate == pytest.approx(282269.29568073363, rel=1e-12)

    def test_lossless_ring_keeps_all_pairs(self):
        system = bundled_system(couplings={"O": {"gamma_rad_per_s": 3e10}},
                                loss_db_per_cm=0.0)
        pump = CwPump(1e-3)
        assert ph.pair_rate_cw(system, pump, "O", "P") == 0.0
        assert ph.pair_rate_cw(system, pump, "P", "O") == 0.0
        assert ph.pair_rate_cw(system, pump, "P", "P") == 0.0
        assert ph.pair_rate_cw(system, pump, "O", "O") > 0.0

    def test_all_rates_equal_at_critical_coupling(self):
        rates = list(ph.pair_rates(sample_system(eta=0.5), CwPump(1e-3)).values())
        for r in rates[1:]:
            assert r == pytest.approx(rates[0], rel=1e-12)

    def test_linewidth_scaling_at_fixed_eta(self):
        # all linewidths doubled at fixed escape efficiency: rate falls 8x
        r1 = ph.pair_rate_cw(sample_system(q_int=2e4), CwPump(1e-3), "O", "O")
        r2 = ph.pair_rate_cw(sample_system(q_int=1e4), CwPump(1e-3), "O", "O")
        assert r2 == pytest.approx(r1 / 8.0, rel=1e-12)


def _mp_pair_rate(system: SystemSpec, pump: CwPump, signal_exit: str,
                  idler_exit: str) -> mp.mpf:
    """R_XY = C |F_P|^4 |F_S^(X)|^2 |F_I^(Y)|^2 P_vac at 30 digits, every
    factor rebuilt from the enhancement factor F = gamma / (sqrt(L) (v (K - k)
    -+ i Gbar)) with gamma = sqrt(2 v Gamma), v (K - k) = -d at detuning d."""
    with mp.workdps(30):
        L = mp.mpf(system.ring.circumference)
        band = {b: system.bands[b] for b in Band}
        gbar = {b: mp.fsum(mp.mpf(c.gamma(b)) for c in system.channels) for b in Band}

        def f_abs2(channel, b, d):
            v = mp.mpf(band[b].v)
            f = mp.sqrt(2 * v * mp.mpf(system.channel(channel).gamma(b))) \
                / (mp.sqrt(L) * (-d - 1j * gbar[b]))
            return abs(f) ** 2

        pb, sb, ib = band[Band.PUMP], band[Band.SIGNAL], band[Band.IDLER]
        omega_o = mp.mpf(pb.omega) + mp.mpf(pump.detuning)
        omega_s, omega_i = mp.mpf(sb.omega), mp.mpf(ib.omega)
        gsum = gbar[Band.SIGNAL] + gbar[Band.IDLER]
        p_vac = mp.mpf(HBAR) / 2 * mp.sqrt(omega_s * omega_i) * gbar[Band.SIGNAL] \
            * gbar[Band.IDLER] * gsum / ((2 * omega_o - omega_s - omega_i) ** 2 + gsum ** 2)
        power = mp.mpf(pump.power)
        c = mp.sqrt(omega_s * omega_i) / omega_o * mp.mpf(pb.v) ** 2 \
            / (mp.mpf(sb.v) * mp.mpf(ib.v)) * (mp.mpf(system.ring.gamma_nl) * L) ** 2 \
            * power ** 2 / (mp.mpf(HBAR) * omega_o)
        return c * f_abs2(system.pump_input_channel, Band.PUMP, mp.mpf(pump.detuning)) ** 2 \
            * f_abs2(signal_exit, Band.SIGNAL, mp.mpf(0)) \
            * f_abs2(idler_exit, Band.IDLER, mp.mpf(0)) * p_vac


@pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
def test_closed_form_matches_mpmath(name):
    # anchors the strategy-2 side of every strategy-1 comparison
    system, pump = bundled_system(name), CwPump(1e-3)
    for x in system.channel_ids:
        for y in system.channel_ids:
            exact = _mp_pair_rate(system, pump, x, y)
            assert exact > 0
            assert ph.pair_rate_cw(system, pump, x, y) == pytest.approx(float(exact), rel=1e-12)


class TestRateRatios:
    def test_broken_pair_ratio(self):
        rates = ph.pair_rates(sample_system(eta=0.6), CwPump(1e-3))
        assert rates[("O", "P")] / rates[("O", "O")] == pytest.approx(
            (1.0 - 0.6) / 0.6, rel=1e-12)

    def test_double_loss_ratio(self):
        eta = 0.6
        rates = ph.pair_rates(sample_system(eta=eta), CwPump(1e-3))
        expected = ((1.0 - eta) / eta) ** 2
        assert rates[("P", "P")] / rates[("O", "O")] == pytest.approx(expected, rel=1e-12)

    def test_ratios_match_escape_efficiencies(self):
        rng = random.Random(7)
        system = random_system(rng, 2)
        rates = ph.pair_rates(system, CwPump(2e-3))
        eta_s = {x: system.escape_efficiency(x, Band.SIGNAL) for x in system.channel_ids}
        eta_i = {y: system.escape_efficiency(y, Band.IDLER) for y in system.channel_ids}
        ids = system.channel_ids
        ref = (ids[0], ids[0])
        for x in ids:
            for y in ids:
                expected = (eta_s[x] * eta_i[y]) / (eta_s[ref[0]] * eta_i[ref[1]])
                assert rates[(x, y)] / rates[ref] == pytest.approx(expected, rel=1e-12)

    def test_zero_reference_rejected(self, tmp_path):
        # no bus coupling: everything decays via the phantom channel, so a
        # ratio to a bus pair is undefined
        zeroed = sample_system().with_channel_gamma("O", dict.fromkeys(Band, 0.0))
        assert ph.pair_rates(zeroed, CwPump(1e-3))[("O", "O")] == 0.0
        # the ratios command stops on its zero reference instead of writing inf
        doc = bundled()
        doc["pump"]["power_mw"] = 1e-300
        with pytest.raises(ph.ZeroRateError, match=r"reference rate R\[O,O\] is zero"):
            cli.cmd_ratios(parse_config(doc), tmp_path, None)
        assert not (tmp_path / "ratios.csv").exists()


class TestGoldenRuleOracle:
    def test_kernel_matches_scalar_factors(self):
        system = sample_system(eta=0.62)
        gbar = system.gamma_bar(Band.SIGNAL)
        pump = CwPump(1e-3, detuning=0.4 * gbar)
        pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
        scale = HBAR ** 2 * EPS0 * pb.v ** 2 / (12.0 * math.pi ** 2) \
            * math.sqrt(sb.omega * ib.omega) * system.ring.gamma_nl \
            * system.ring.circumference
        f_p = ph.enhancement_factor(system, "O", Band.PUMP, pump.detuning)
        # the idler's detuning is the pairs' 2 delta_p (+ 2 omega_P - omega_S
        # - omega_I = 0 on one shared band) less the signal's
        d1 = np.linspace(-40.0, 40.0, 161) * gbar
        for x, y in (("O", "O"), ("O", "P"), ("P", "O")):
            kernel = ph._golden_rule_kernel(system, pump, x, y)
            for d in d1.tolist():
                value = kernel(d)
                f_s = ph.enhancement_factor(system, x, Band.SIGNAL, d)
                f_i = ph.enhancement_factor(system, y, Band.IDLER, 2.0 * pump.detuning - d)
                expected = abs(scale * f_s * f_i * f_p * f_p) ** 2
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_matches_closed_form_on_reference(self):
        system = sample_system()
        pump = CwPump(1e-3)
        closed = ph.pair_rate_cw(system, pump, "O", "O")
        oracle = ph.fgr_rate_oracle(system, pump, "O", "O")
        assert abs(oracle - closed) / closed < 1e-6

    def test_matches_with_detuned_pump(self):
        system = sample_system(eta=0.62)
        pump = CwPump(1e-3, detuning=1.7 * system.gamma_bar(Band.PUMP))
        closed = ph.pair_rate_cw(system, pump, "O", "P")
        oracle = ph.fgr_rate_oracle(system, pump, "O", "P")
        assert abs(oracle - closed) / closed < 1e-6

    def test_zero_nonlinearity(self):
        system = sample_system()
        system = system.replace(ring=system.ring.replace(gamma_nl=0.0))
        assert ph.fgr_rate_oracle(system, CwPump(1e-3), "O", "O") == 0.0

    def test_failure_quoted_in_pairs_per_s(self, monkeypatch):
        # a quadrature that fails quotes the rate it reached, not the theta
        # integral before its prefactor
        system = sample_system()
        pump = CwPump(1e-3)
        rate = ph.fgr_rate_oracle(system, pump, "O", "O")
        integrate = ph.integrate_adaptive

        def fail(*args, **kwargs):
            value = integrate(*args, **kwargs).value
            raise QuadratureError("quadrature did not converge", value=value,
                                  error_estimate=1e-3 * value, rel_tol=1e-8)

        monkeypatch.setattr(ph, "integrate_adaptive", fail)
        with pytest.raises(QuadratureError) as exc:
            ph.fgr_rate_oracle(system, pump, "O", "O")
        err = exc.value
        assert err.value == rate
        assert err.error_estimate == pytest.approx(1e-3 * rate, rel=1e-15)
        assert str(err) == ("oracle rate R[O,O]: quadrature did not converge: estimate "
                            f"{err.error_estimate:.3e} pairs/s vs requested 1.0e-08 "
                            f"relative on value {rate:.6e} pairs/s")

    @pytest.mark.parametrize("name", ["ring_channel.json", "add_drop.json"])
    @pytest.mark.parametrize("linewidths", [0.0, 1.0, 30.0, 84.0, 400.0])
    def test_whole_line_matches_closed_form(self, name, linewidths):
        # the oracle integrates the Lorentzian tails to the end, which the
        # closed form includes; a window of 500 half-widths cut off 1.2e-4
        # of the rate at 400 linewidths of pump detuning
        system = bundled_system(name)
        pump = CwPump(1e-3, detuning=linewidths * system.gamma_bar(Band.PUMP))
        for x in system.channel_ids:
            for y in system.channel_ids:
                closed = ph.pair_rate_cw(system, pump, x, y)
                oracle = ph.fgr_rate_oracle(system, pump, x, y)
                assert abs(oracle - closed) <= 1e-9 * closed, (x, y)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_on_random_systems(self, seed):
        rng = random.Random(seed)
        system = random_system(rng, rng.randint(1, 3))
        pump = CwPump(rng.uniform(1e-4, 5e-3),
                      detuning=rng.uniform(-2.0, 2.0) * system.gamma_bar(Band.PUMP))
        ids = system.channel_ids
        x, y = rng.choice(ids), rng.choice(ids)
        closed = ph.pair_rate_cw(system, pump, x, y)
        oracle = ph.fgr_rate_oracle(system, pump, x, y)
        assert abs(oracle - closed) / closed < 1e-6
