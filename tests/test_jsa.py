"""Biphoton wave function: normalization, shape constancy, pump factor."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from lossy_ring_sfwm import jsa
from lossy_ring_sfwm.config import parse_config
from lossy_ring_sfwm.model import Band, ChannelCoupling, PulsedPump
from lossy_ring_sfwm.phantom import Branch, enhancement_factor
from conftest import bundled, bundled_system


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


def _g_oracle(system, pump, energy):
    """g(E) by mpmath quadrature of the raw pump integral at 30 digits,
    integral e^{-tau^2 x^2} / (b^2 - x^2) dx over the real line with
    b = (omega_P - E/2) - i Gbar_P; independent of the Faddeeva function."""
    pb = system.bands[Band.PUMP]
    with mp.workdps(30):
        tau = mp.mpf(pump.tau)
        half_energy = mp.mpf(energy) / 2
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


def _energy_mass_oracle(system, pump):
    """_energy_mass_integral over its default window by a 30-digit mpmath
    quadrature, with g(E) from mpmath's erfc: w(z) = e^{-z^2} erfc(-i z),
    times the common prefactor."""
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
        half = 16 / tau + 8 * (gbs + gbi)
        # panels bracket the pump envelope, the Lorentzian and the pump pole
        breaks = {center - half, center + half}
        for width in (1 / tau, gbs + gbi, gbar_p):
            for k in (0, 0.5, 1, 2, 4, 8, 16, 64):
                breaks |= {x for x in (center - k * width, center + k * width)
                           if abs(x - center) < half}
        scale = mp.mpf(jsa._jsa_prefactor(system)) ** 2 / (mp.mpf(sb.v) * mp.mpf(ib.v))
        return float(scale * mp.quad(integrand, sorted(breaks)))


class TestEnergyMassIntegral:
    @pytest.mark.parametrize("duration", [1.66e-12, 10e-9])
    def test_matches_mpmath(self, system_06, system_short_pulse, duration):
        """The Gauss-Legendre mass on the 1.66 ps short pulse (the pump pole
        inside the bandwidth) and in the 10 ns CW limit, within the
        integral's requested rel_tol of 1e-7."""
        system = system_short_pulse if duration < 1e-9 else system_06
        pump = PulsedPump(duration_fwhm=duration)
        mass = jsa._energy_mass_integral(system, pump, system.gamma_bar(Band.SIGNAL),
                                         system.gamma_bar(Band.IDLER))
        assert mass == pytest.approx(_energy_mass_oracle(system, pump), rel=1e-7)


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

    def test_scalar_matches_array(self):
        z = np.array(self.POINTS)
        scalars = [jsa.wofz(c) for c in self.POINTS]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert np.array_equal(np.array(scalars), jsa.wofz(z))


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
            pb = system.bands[Band.PUMP]
            unit = min(system.gamma_bar(Band.PUMP), 1.0 / pump.tau)
            g = jsa._pump_g_factor(system, pump)
            for detuning in (0.0, 0.6, -2.3, 7.9, -13.0):
                energy = 2.0 * pb.omega + detuning * unit
                assert complex(g(energy)) == pytest.approx(
                    _g_oracle(system, pump, energy), rel=1e-12, abs=0.0)

    def test_array_input_matches_scalar(self, system_06, pulse_10ps):
        pb = system_06.bands[Band.PUMP]
        gbar = system_06.gamma_bar(Band.PUMP)
        energies = 2.0 * pb.omega + np.linspace(-20.0, 20.0, 41) * gbar
        g = jsa._pump_g_factor(system_06, pulse_10ps)
        assert np.array_equal(g(energies), [g(e) for e in energies])

    def test_pulse_spectrum_normalized(self, pulse_10ps):
        omega = np.linspace(-40.0, 40.0, 400_001) / pulse_10ps.tau
        amp = jsa.pulse_spectral_amplitude(omega, 0.0, pulse_10ps)
        assert np.trapezoid(np.abs(amp) ** 2, omega) == pytest.approx(1.0, rel=1e-10)

    def test_pump_bandwidth_is_intensity_fwhm(self, pulse_10ps):
        bw = jsa.pump_bandwidth(pulse_10ps)
        amp = jsa.pulse_spectral_amplitude(np.array([0.0, bw / 2.0]), 0.0, pulse_10ps)
        power = np.abs(amp) ** 2
        assert power[1] == pytest.approx(power[0] / 2.0, rel=1e-12)


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
        assert abs(grid.weights[("O", "P")]) ** 2 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert abs(grid.weights[("P", "O")]) ** 2 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert abs(grid.weights[("P", "P")]) ** 2 == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert grid.weights[("O", "O")] == 1.0

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

    def test_grid_echo(self, system_06, pulse_10ps):
        grid = jsa.build_jsa(system_06, pulse_10ps, n=96, kappa_max=9.0)
        assert grid.values.shape == (96, 96)
        assert grid.kappa1[0] == -9.0 and grid.kappa1[-1] == 9.0

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

    @pytest.mark.parametrize("signal_band, distinct", [
        (None, 2 * 24 - 1), ({"group_velocity_m_per_s": 1.234567e8}, 24 * 24)],
        ids=["equal_steps", "unequal_steps"])
    def test_grid_matches_cell_by_cell_g(self, monkeypatch, pulse_10ps, signal_band,
                                         distinct):
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
        grid = jsa._direct_pair_grid(system, pulse_10ps, "O", "P", kappa, kappa)
        assert sizes == [distinct]

        sb, ib = system.bands[Band.SIGNAL], system.bands[Band.IDLER]
        omega1, omega2 = sb.omega + gbs * kappa, ib.omega + gbi * kappa
        d1, d2 = gbs * (kappa[1] - kappa[0]), gbi * (kappa[1] - kappa[0])
        g_cells = np.array([[complex(g((omega1[0] + omega2[0]) + d1 * (i + (d2 / d1) * j)))
                             for j in range(n)] for i in range(n)])
        f_s = enhancement_factor(system, "O", Band.SIGNAL, sb.k_of_omega(omega1),
                                 Branch.PLUS)
        f_i = enhancement_factor(system, "P", Band.IDLER, ib.k_of_omega(omega2),
                                 Branch.PLUS)
        expected = 1j * jsa._jsa_prefactor(system) * np.conj(f_s)[:, None] \
            * np.conj(f_i)[None, :] * g_cells
        assert np.array_equal(grid, expected)


class TestCwLimit:
    def test_long_pulse_concentrates_on_antidiagonal(self, system_06):
        pump = PulsedPump(duration_fwhm=10e-9)
        fraction = jsa.antidiagonal_mass_fraction(
            system_06, pump, 3.0 * jsa.pump_bandwidth(pump))
        assert fraction > 0.99

    def test_concentration_grows_with_duration(self, system_06):
        short = PulsedPump(duration_fwhm=10e-12)
        long = PulsedPump(duration_fwhm=100e-12)
        width = 0.5 * system_06.gamma_bar(Band.SIGNAL)
        f_short = jsa.antidiagonal_mass_fraction(system_06, short, width)
        f_long = jsa.antidiagonal_mass_fraction(system_06, long, width)
        assert f_long > f_short


class TestShortPulse:
    """A pulse far shorter than the ring lifetime: the pole of the pump
    integral sits deep inside the pump bandwidth."""

    def test_total_mass_is_sum_of_pair_masses(self, system_short_pulse):
        pump = PulsedPump(duration_fwhm=1.66e-12)
        total = jsa.total_mass(system_short_pulse, pump)
        assert math.isfinite(total) and total > 0.0
        pairs = sum(jsa.pair_mass(system_short_pulse, pump, x, y)
                    for x in ("O", "P") for y in ("O", "P"))
        assert total == pytest.approx(pairs, rel=1e-9)

    def test_wide_grid_passes_default_residual_gate(self, system_short_pulse):
        grid = jsa.build_jsa(system_short_pulse, PulsedPump(duration_fwhm=1.66e-12),
                             n=512, kappa_max=12.0)
        assert grid.normalization_residual <= 2.5e-3
