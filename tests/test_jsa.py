"""Biphoton wave function: normalization, shape constancy, pump factor."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from lossy_ring_sfwm import jsa, phantom
from lossy_ring_sfwm.config import parse_config
from lossy_ring_sfwm.constants import HBAR
from lossy_ring_sfwm.model import Band, ChannelCoupling, CwPump, PulsedPump
from lossy_ring_sfwm.phantom import enhancement_factor
from conftest import bundled, bundled_system
from oracles import weideman_coefficients


@pytest.fixture(scope="module")
def system_06():
    """Single bus + phantom at escape efficiency 0.6 (the overcoupled case)."""
    return bundled_system(couplings={"O": {"eta": 0.6}})


@pytest.fixture(scope="module")
def system_short_pulse():
    """Single bus at escape efficiency 0.52 on a low-loss ring, where a
    1.66 ps pulse spans about 80 loaded linewidths."""
    return bundled_system(couplings={"O": {"eta": 0.52}}, radius_m=10.23e-6,
                          loss_db_per_cm=4.326)


@pytest.fixture(scope="module")
def pulse_10ps():
    return PulsedPump(duration_fwhm=10e-12)


def _g_oracle(system, pump, e):
    """g at two-photon detuning e, E = omega_S + omega_I + e, by mpmath
    quadrature of the raw pump integral at 30 digits, integral e^{-tau^2 x^2}
    / (b^2 - x^2) dx over the real line with b = (omega_P - E/2) - i Gbar_P;
    independent of the Faddeeva function."""
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    with mp.workdps(30):
        tau = mp.mpf(pump.tau)
        half_energy = (mp.mpf(sb.omega) + mp.mpf(ib.omega) + mp.mpf(e)) / 2
        gbar = mp.mpf(system.gamma_bar(Band.PUMP))
        c = tau * ((mp.mpf(pb.omega) - half_energy) - 1j * gbar)  # tau b
        # u = tau x; the integrand is even and peaks near u = |Re c|, width |Im c|
        x0, w = abs(c.real), abs(c.imag)
        breaks = sorted({mp.mpf(0)} | {x0 + s * k * w for k in (0, 1, 4, 16, 64)
                                       for s in (-1, 1) if x0 + s * k * w > 0})
        integral = 2 * tau * mp.quad(lambda u: mp.exp(-u * u) / (c * c - u * u),
                                     breaks + [mp.inf])
        gamma_p2 = mp.mpf(system.amplitude_coupling(system.pump_input_channel,
                                                    Band.PUMP)) ** 2
        scale = gamma_p2 / (mp.mpf(system.ring.circumference) * mp.mpf(pb.v)) \
            * tau / mp.sqrt(mp.pi)
        omega_o = mp.mpf(pb.omega) + mp.mpf(pump.detuning)
        envelope = mp.exp(-(tau * (half_energy - omega_o)) ** 2)
        return complex(scale * envelope * integral)


def _energy_mass_oracle(system, pump, half_window=None):
    """total_mass by a 30-digit mpmath quadrature over two-photon energies
    within half_window of 2 omega_o (default: total_mass's window), with g(E)
    from mpmath's erfc: w(z) = e^{-z^2} erfc(-i z), times the common
    prefactor."""
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    with mp.workdps(30):
        tau = mp.mpf(pump.tau)
        omega_o = mp.mpf(pb.omega) + mp.mpf(pump.detuning)
        gbar_p = mp.mpf(system.gamma_bar(Band.PUMP))
        gbs = mp.mpf(system.gamma_bar(Band.SIGNAL))
        gbi = mp.mpf(system.gamma_bar(Band.IDLER))
        L = mp.mpf(system.ring.circumference)
        gamma_p2 = mp.mpf(system.amplitude_coupling(system.pump_input_channel,
                                                    Band.PUMP)) ** 2
        scale = gamma_p2 / (L * mp.mpf(pb.v)) * tau / mp.sqrt(mp.pi)
        amp = (2 * mp.mpf(sb.v) * gbs / L) * (2 * mp.mpf(ib.v) * gbi / L)

        def integrand(s):
            b = (mp.mpf(pb.omega) - s / 2) - 1j * gbar_p
            z = -tau * b
            g = scale * mp.exp(-(tau * (s / 2 - omega_o)) ** 2) * 1j * mp.pi \
                * mp.exp(-z * z) * mp.erfc(-1j * z) / b
            mismatch = s - mp.mpf(sb.omega) - mp.mpf(ib.omega)
            return abs(g) ** 2 * amp * mp.pi * (gbs + gbi) \
                / (gbs * gbi * (mismatch ** 2 + (gbs + gbi) ** 2))

        center = 2 * omega_o
        half = 16 / tau + 8 * (gbs + gbi) if half_window is None else mp.mpf(half_window)
        # panels bracket the pump envelope, the Lorentzian and the pump pole
        breaks = {center - half, center + half}
        for width in (1 / tau, gbs + gbi, gbar_p):
            for k in (0, 0.5, 1, 2, 4, 8, 16, 64):
                breaks |= {x for x in (center - k * width, center + k * width)
                           if abs(x - center) < half}
        prefactor = mp.mpf(jsa._jsa_prefactor(system)) ** 2 / (mp.mpf(sb.v) * mp.mpf(ib.v))
        # Gauss-Legendre gives tanh-sinh's value to 16 digits here, 3x faster
        return float(prefactor * mp.quad(integrand, sorted(breaks), method="gauss-legendre"))


class TestEnergyMassIntegral:
    @pytest.mark.parametrize("duration", [1.66e-12, 10e-9])
    def test_matches_mpmath(self, system_06, system_short_pulse, duration):
        """The Gauss-Legendre mass on the 1.66 ps short pulse (the pump pole
        inside the bandwidth) and in the 10 ns CW limit, within the
        integral's requested rel_tol of 1e-7."""
        system = system_short_pulse if duration < 1e-9 else system_06
        pump = PulsedPump(duration_fwhm=duration)
        mass = jsa.total_mass(system, pump)
        assert mass == pytest.approx(_energy_mass_oracle(system, pump), rel=1e-7, abs=0.0)


def _wofz_oracle(z: complex) -> complex:
    """w(z) = e^{-z^2} erfc(-iz) at 30 digits."""
    with mp.workdps(30):
        z = mp.mpc(z)
        return complex(mp.exp(-z * z) * mp.erfc(-1j * z))


class TestFaddeeva:
    # the upper half plane: just above the real axis, near the pump pole
    # (5.44 + 1.5e-4 i, the worst point of a 3,000-point random scan), out
    # to |z| = 1e6, and on the imaginary axis
    POINTS = [complex(x, y) for x in (0.0, 1e-3, 0.5, 2.0, 5.44, 30.0, 1e3, 1e6)
              for y in (1e-4, 0.3, 3.0, 1e2, 1e5)] \
        + [complex(-x, y) for x in (1e-3, 2.0, 1e4) for y in (1e-4, 1.0)] \
        + [5.44 + 1.5e-4j, 1e6j]

    def test_matches_mpmath(self):
        w = jsa.wofz(np.array(self.POINTS))
        for z, value in zip(self.POINTS, w):
            assert complex(value) == pytest.approx(_wofz_oracle(z), rel=1e-13, abs=0.0), z

    def test_coefficients_match_fft_construction(self):
        # the literals against Weideman's FFT construction, to 2 ulp each
        L, coeffs = weideman_coefficients()
        assert jsa._WEIDEMAN_L == L == math.sqrt(40 / math.sqrt(2.0))
        assert jsa._WEIDEMAN_COEFFS.shape == coeffs.shape == (40,)
        assert np.all(np.abs(jsa._WEIDEMAN_COEFFS - coeffs) <= 2 * np.spacing(np.abs(coeffs)))


class TestPumpFactor:
    def test_matches_faddeeva_closed_form(self, system_06, system_short_pulse):
        """The Faddeeva closed form against a 30-digit quadrature of the raw
        integral: at 10 ps, on the 1.66 ps short-pulse ring and in the 10 ns
        CW limit. Detunings are in units of the narrower of the ring
        linewidth and the pump bandwidth, so the 10 ns envelope stays
        representable."""
        for system, duration in ((system_06, 10e-12), (system_short_pulse, 1.66e-12),
                                 (system_06, 10e-9)):
            pump = PulsedPump(duration_fwhm=duration)
            unit = min(system.gamma_bar(Band.PUMP), 1.0 / pump.tau)
            detunings = np.array([0.0, 0.6, -2.3, 7.9, -13.0]) * unit
            values = jsa._pump_g_factor(system, pump)(detunings)
            for e, value in zip(detunings.tolist(), values.tolist()):
                assert value == pytest.approx(_g_oracle(system, pump, e), rel=1e-12, abs=0.0)


class TestJsaGrid:
    def test_normalization_residual_default_grid(self, system_06, pulse_10ps):
        grid = jsa.build_jsa(system_06, pulse_10ps, n=512, kappa_max=8.0)
        assert grid.normalization_residual < 2.5e-3

    def test_normalization_residual_wide_grid(self, system_06, pulse_10ps):
        grid = jsa.build_jsa(system_06, pulse_10ps, n=512, kappa_max=12.0,
                             residual_tol=1e-3)
        assert grid.normalization_residual < 1e-3

    def test_weights(self, system_06, pulse_10ps):
        grid = jsa.build_jsa(system_06, pulse_10ps, n=64)
        # one lost idler relative to both collected: (1 - eta) / eta
        assert grid.weights[("O", "P")] ** 2 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert grid.weights[("P", "O")] ** 2 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert grid.weights[("P", "P")] ** 2 == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert grid.weights[("O", "O")] == 1.0
        assert all(type(w) is float and w > 0.0 for w in grid.weights.values())

    def test_shape_constancy_across_pairs(self, system_06, pulse_10ps):
        grid = jsa.build_jsa(system_06, pulse_10ps, n=64)
        direct = jsa.direct_pair_grid(system_06, pulse_10ps, "O", "P", grid)
        ratio = direct / grid.values
        mean = ratio.mean()
        assert np.abs(ratio - mean).max() / abs(mean) < 1e-12
        assert mean == pytest.approx(grid.weights[("O", "P")], rel=1e-9)

    def test_beta2_scales_with_alpha_fourth(self, system_06):
        weak = jsa.build_jsa(system_06, PulsedPump(10e-12, alpha=1.0), n=64)
        strong = jsa.build_jsa(system_06, PulsedPump(10e-12, alpha=3.0), n=64)
        assert strong.beta2 == pytest.approx(81.0 * weak.beta2, rel=1e-9)
        # the normalized wave function itself is amplitude independent
        assert np.allclose(strong.values, weak.values, rtol=1e-9)

    def test_grid_bits_do_not_depend_on_alpha(self):
        # alpha^2 / beta is 1 / sqrt(mass) at every alpha, so the normalized
        # grid is scaled by that alone; a ratio of two alpha-dependent
        # roundings would move its last bits
        system = bundled_system()
        reference = jsa.build_jsa(system, PulsedPump(10e-12, alpha=1.0), n=64).values
        for alpha in (0.6, 0.9, 1.1, 1.2, 1.7, 1e-30):
            grid = jsa.build_jsa(system, PulsedPump(10e-12, alpha=alpha), n=64)
            assert np.array_equal(grid.values, reference), alpha

    def test_grid_echo(self, system_06, pulse_10ps):
        grid = jsa.build_jsa(system_06, pulse_10ps, n=96, kappa_max=9.0)
        assert grid.values.shape == (96, 96)
        assert grid.kappa.shape == (96,)
        assert grid.kappa[0] == -9.0 and grid.kappa[-1] == 9.0

    def test_too_coarse_grid_raises(self, system_06, pulse_10ps):
        with pytest.raises(jsa.GridTooCoarseError,
                           match="increase the grid extent or resolution$") as exc:
            jsa.build_jsa(system_06, pulse_10ps, n=512, kappa_max=8.0,
                          residual_tol=1e-4)
        assert exc.value.residual > 1e-4

    def test_narrow_grid_rejected(self, system_06, pulse_10ps):
        with pytest.raises(ValueError):
            jsa.build_jsa(system_06, pulse_10ps, kappa_max=4.0)

    def test_zero_coupled_reference_pair_rejected(self, system_06, pulse_10ps):
        system = replace(system_06, channels=system_06.channels
                         + (ChannelCoupling("Z", dict.fromkeys(Band, 0.0)),))
        for ref in (("Z", "O"), ("O", "Z")):
            with pytest.raises(ValueError, match="zero signal or idler coupling"):
                jsa.build_jsa(system, pulse_10ps, n=16, reference_pair=ref)


class TestDistinctEnergies:
    """g runs once per distinct two-photon energy: 2n - 1 of them on equal
    signal and idler steps, n^2 when the linewidths differ."""

    @staticmethod
    def _system(signal_band: dict | None):
        doc = bundled()
        if signal_band:
            doc["system"]["bands"]["signal"] = signal_band
        return parse_config(doc).system

    @pytest.mark.parametrize("signal_band", [None, {"group_velocity_m_per_s": 1.234567e8}],
                             ids=["equal_steps", "unequal_steps"])
    def test_grid_matches_cell_by_cell_g(self, monkeypatch, pulse_10ps, signal_band):
        system = self._system(signal_band)
        gbs, gbi = system.gamma_bar(Band.SIGNAL), system.gamma_bar(Band.IDLER)
        assert (gbs != gbi) == (signal_band is not None)
        n = 24
        kappa = np.linspace(-8.0, 8.0, n)
        g = jsa._pump_g_factor(system, pulse_10ps)
        sizes = []

        def recording_g_factor(*args):
            def counted(energies):
                sizes.append(np.size(energies))
                return g(energies)
            return counted

        monkeypatch.setattr(jsa, "_pump_g_factor", recording_g_factor)
        rows = jsa._direct_pair_grid(system, pulse_10ps, "O", "P", kappa, 1.0)
        grid = np.concatenate([rows(start, start + 7) for start in range(0, n, 7)])
        # each energy once: the 2n - 1 anti-diagonals in one call, or each
        # block's own cells as the block is formed
        assert sizes == ([2 * n - 1] if signal_band is None else [7 * n, 7 * n, 7 * n, 3 * n])

        d1, d2 = gbs * kappa, gbi * kappa
        step1, step2 = gbs * (kappa[1] - kappa[0]), gbi * (kappa[1] - kappa[0])
        g_cells = np.array([[complex(g(np.array([(d1[0] + d2[0])
                                                 + step1 * (i + (step2 / step1) * j)]))[0])
                             for j in range(n)] for i in range(n)])
        f_s = enhancement_factor(system, "O", Band.SIGNAL, d1)
        f_i = enhancement_factor(system, "P", Band.IDLER, d2)
        expected = 1j * jsa._jsa_prefactor(system) * f_s[:, None] * f_i[None, :] * g_cells
        assert np.array_equal(grid, expected)

    @pytest.mark.parametrize("n", [64, 97])
    @pytest.mark.parametrize("signal_band", [None, {"group_velocity_m_per_s": 1.234567e8}],
                             ids=["equal_steps", "unequal_steps"])
    def test_row_blocks_match_the_whole_grid(self, pulse_10ps, signal_band, n):
        # each cell takes one floating-point order in a block of any size,
        # so the blocks the command writes are the whole grid's bits
        grid = jsa.build_jsa(self._system(signal_band), pulse_10ps, n=n, residual_tol=1.0)
        whole = grid.values
        assert whole.shape == (n, n)
        for rows in (1, 7, 8, n):
            blocks = np.concatenate([grid.rows(start, start + rows)
                                     for start in range(0, n, rows)])
            assert np.array_equal(blocks, whole), rows
            assert blocks.tobytes() == whole.tobytes(), rows


def antidiagonal_mass_fraction(system, pump, half_width):
    """The share of total_mass whose two-photon energy lies within
    half_width of the energy-conservation line 2 omega_o."""
    return _energy_mass_oracle(system, pump, half_width) / jsa.total_mass(system, pump)


class TestCwLimit:
    def test_long_pulse_concentrates_on_antidiagonal(self, system_06):
        pump = PulsedPump(duration_fwhm=10e-9)
        bandwidth = 2.0 * math.sqrt(math.log(2.0)) / pump.tau  # intensity FWHM [rad/s]
        assert antidiagonal_mass_fraction(system_06, pump, 3.0 * bandwidth) > 0.99

    def test_concentration_grows_with_duration(self, system_06):
        short = PulsedPump(duration_fwhm=10e-12)
        long = PulsedPump(duration_fwhm=100e-12)
        width = 0.5 * system_06.gamma_bar(Band.SIGNAL)
        f_short = antidiagonal_mass_fraction(system_06, short, width)
        f_long = antidiagonal_mass_fraction(system_06, long, width)
        assert f_long > f_short

    @pytest.mark.parametrize("name, signal_band", [
        ("ring_channel.json", None), ("add_drop.json", None),
        ("ring_channel.json", {"group_velocity_m_per_s": 1.5e8})],
        ids=["ring_channel", "add_drop", "unequal_linewidths"])
    def test_pair_probability_meets_cw_closed_form(self, name, signal_band):
        """beta^2 at alpha = 1 against the CW closed form times the pulse's
        integral of P(t)^2, (hbar omega_P)^2 / (tau sqrt(2 pi)): the ratio r
        follows 1 - r = c / (Gbar_P tau)^2 + O(tau^-4) with c = 3/2 +
        (Gbar_P / (Gbar_S + Gbar_I))^2 (docs/pulsed_limits.md). total_mass
        (Faddeeva g and a quadrature) and pair_rates (a closed form) share no
        code."""
        doc = bundled(name)
        if signal_band:
            doc["system"]["bands"]["signal"] = signal_band
        system = parse_config(doc).system
        gbar_p, gbar_s, gbar_i = (system.gamma_bar(b) for b in (Band.PUMP, Band.SIGNAL,
                                                                  Band.IDLER))
        assert (gbar_s != gbar_i) == (signal_band is not None)
        c = 1.5 + (gbar_p / (gbar_s + gbar_i)) ** 2
        rate = sum(phantom.pair_rates(system, CwPump(1.0)).values())  # 1 W
        photon = HBAR * system.bands[Band.PUMP].omega
        deficits, leftovers = [], []
        for target in (10.0, 20.0, 40.0):  # Gbar_P tau
            pump = PulsedPump(duration_fwhm=target / gbar_p * 2.0 * math.sqrt(math.log(2.0)))
            x = gbar_p * pump.tau
            beta2_cw = rate * photon ** 2 / (pump.tau * math.sqrt(2.0 * math.pi))
            r = jsa.total_mass(system, pump) / beta2_cw
            deficits.append((1.0 - r) * x ** 2)
            leftovers.append((1.0 - r - c / x ** 2) * x ** 4)
        # (1 - r) (Gbar_P tau)^2 closes on c about 4x per doubling of tau
        gaps = [c - d for d in deficits]
        assert all(0.0 < gap for gap in gaps)
        assert gaps[1] < gaps[0] / 3.0 and gaps[2] < gaps[1] / 3.0
        assert gaps[2] < 5e-3
        # and what is left settles near -4 (Gbar_P tau)^-4
        assert all(-4.8 < v < -3.6 for v in leftovers), leftovers
        assert abs(leftovers[2] - leftovers[1]) < 0.1


class TestPurity:
    def test_short_pulse_purity_tends_to_eleven_twelfths(self):
        """Equal linewidths and a pulse short against the ring's dwell time:
        in units of Gbar the JSA tends to 1 / ((x + i)(y + i)(x + y + 2i)),
        min(t1, t2) e^{-t1 - t2} in time, whose heralded purity is exactly
        11/12 (docs/pulsed_limits.md). The 512^2 grid to 80 linewidths is
        within about 3e-6 of a 1024^2 grid to 120."""
        system = bundled_system()
        assert system.gamma_bar(Band.SIGNAL) == system.gamma_bar(Band.IDLER)
        deficits = []
        for duration in (1e-12, 0.5e-12):
            grid = jsa.build_jsa(system, PulsedPump(duration), n=512, kappa_max=80.0)
            s = np.linalg.svd(grid.rows(0, 512), compute_uv=False)
            p = s ** 2 / np.sum(s ** 2)
            deficits.append(11.0 / 12.0 - float(np.sum(p ** 2)))
        assert all(d > 0.0 for d in deficits), deficits
        assert deficits[1] < deficits[0] / 5.0
        assert deficits[1] <= 3e-5


class TestShortPulse:
    """A pulse far shorter than the ring lifetime: the pole of the pump
    integral sits deep inside the pump bandwidth."""

    def test_wide_grid_passes_default_residual_gate(self, system_short_pulse):
        grid = jsa.build_jsa(system_short_pulse, PulsedPump(duration_fwhm=1.66e-12),
                             n=512, kappa_max=12.0)
        assert grid.normalization_residual <= 2.5e-3


class TestGridIntegrate2d:
    def test_unit_gaussian_mass(self):
        n = 512
        x = np.linspace(-6.0, 6.0, n)
        gx = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        values = np.outer(gx, gx)
        mass = jsa.grid_integrate_2d([values], x[1] - x[0], x[1] - x[0])
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_zero_grid(self):
        assert jsa.grid_integrate_2d([np.zeros((16, 16))], 0.1, 0.1) == 0.0

    def test_second_order_convergence(self):
        def mass(n):
            x = np.linspace(0.0, 1.0, n)
            values = np.outer(np.sin(math.pi * x), np.sin(math.pi * x))
            return jsa.grid_integrate_2d([values], x[1] - x[0], x[1] - x[0])

        exact = (2.0 / math.pi) ** 2
        err_coarse = abs(mass(33) - exact)
        err_fine = abs(mass(65) - exact)
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.1)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            jsa.grid_integrate_2d([np.zeros(8)], 0.1, 0.1)

    @pytest.mark.parametrize("rows, block", [(2, 1), (2, 2), (133, 1), (133, 7), (133, 8),
                                             (133, 64), (133, 133)])
    def test_row_blocks_match_one_shot_trapezoid(self, rows, block):
        # each row is summed on its own in both, so the blocks change no bit
        values = np.random.default_rng(rows).random((rows, 37)) ** 4
        one_shot = np.trapezoid(np.trapezoid(values, dx=0.3, axis=1), dx=0.7, axis=0)
        blocks = (values[start:start + block] for start in range(0, rows, block))
        assert jsa.grid_integrate_2d(blocks, 0.7, 0.3) == float(one_shot)
