"""Quadrature kernels against analytic antiderivatives."""

import math

import numpy as np
import pytest

from lossy_ring_sfwm import attenuation
from lossy_ring_sfwm.model import CwPump
from lossy_ring_sfwm.numerics import (QuadratureError, _segment_edges, grid_integrate_2d,
                                      integrate_adaptive)
from conftest import bundled_system


class TestIntegrateAdaptive:
    """Integrands take a 1-D array of abscissae and return an array."""

    def test_lorentzian(self):
        peak, width = 2.5, 3.0
        result = integrate_adaptive(lambda x: peak / (1.0 + (x / width) ** 2),
                                    -40.0 * width, 40.0 * width, rel_tol=1e-10)
        exact = 2.0 * peak * width * math.atan(40.0)  # antiderivative arctan
        assert result.value == pytest.approx(exact, rel=1e-8)
        assert result.value == pytest.approx(math.pi * peak * width, rel=0.02)

    def test_squared_lorentzian(self):
        peak, width = 1.7, 0.4
        result = integrate_adaptive(lambda x: (peak / (1.0 + (x / width) ** 2)) ** 2,
                                    -40.0 * width, 40.0 * width, rel_tol=1e-10)
        # antiderivative (w/2)(u/(1+u^2) + atan u), u = x/w
        u = 40.0
        exact = peak ** 2 * width * (u / (1.0 + u * u) + math.atan(u))
        assert result.value == pytest.approx(exact, rel=1e-8)
        assert result.value == pytest.approx(math.pi * peak ** 2 * width / 2.0, rel=0.03)

    def test_zero_integrand(self):
        result = integrate_adaptive(np.zeros_like, -1.0, 1.0)
        assert result.value == 0.0

    def test_error_estimate_reported(self):
        result = integrate_adaptive(lambda x: np.exp(-x * x), -5.0, 5.0)
        assert result.abs_error_estimate >= 0.0
        assert result.evaluations > 0

    def test_evaluations_count_every_abscissa(self):
        sizes = []

        def f(x):
            assert x.ndim == 1
            sizes.append(x.size)
            return 1.0 / (1.0 + ((x - 0.3) / 1e-4) ** 2)

        result = integrate_adaptive(f, -1.0, 1.0, rel_tol=1e-9, points=[(0.3, 1e-4)])
        assert len(sizes) > 1  # the estimate needed splits, one call per round
        assert result.evaluations == sum(sizes)

    def test_nonconvergence_raises(self):
        with pytest.raises(QuadratureError) as exc:
            integrate_adaptive(lambda x: np.sin(1e4 * x * x) + 1e-300,
                               0.0, 50.0, rel_tol=1e-13, limit=3)
        assert exc.value.error_estimate is not None

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, -1.0)

    def test_points_hint_finds_narrow_peak(self):
        width = 1e-6
        result = integrate_adaptive(lambda x: 1.0 / (1.0 + ((x - 0.5) / width) ** 2),
                                    -1e3, 1e3, rel_tol=1e-9, points=[(0.5, width)])
        assert result.value == pytest.approx(math.pi * width, rel=1e-6)

    @pytest.mark.parametrize("half_width", [0.0, -1e-3])
    def test_points_need_positive_half_width(self, half_width):
        with pytest.raises(ValueError, match="half-width"):
            integrate_adaptive(np.cos, -1.0, 1.0, points=[(0.2, half_width)])

    def test_ladder_stops_at_a_tenth_of_the_half_width(self):
        # rungs at span 10^-k = 0.2, ..., 2e-5 lie at or above 3e-6 = hw / 10;
        # 2e-6 does not
        edges = _segment_edges(-1.0, 1.0, [(0.0, 3e-5)])
        assert len(edges) == 2 + 1 + 2 * 5
        assert min(abs(e) for e in edges if e != 0.0) == pytest.approx(2e-5)
        # a peak as wide as the interval gets its location only
        assert _segment_edges(-1.0, 1.0, [(0.0, 10.0)]) == [-1.0, 0.0, 1.0]

    def test_hinted_peak_far_below_the_interval_scale(self):
        width = 1e-13 * 2e3
        result = integrate_adaptive(lambda x: 1.0 / (1.0 + ((x - 0.5) / width) ** 2),
                                    -1e3, 1e3, rel_tol=1e-9, points=[(0.5, width)])
        assert result.value == pytest.approx(math.pi * width, rel=1e-6)

    def test_strategy1_rate_evaluations(self, monkeypatch):
        # the theta map flattens the signal resonance, so the bundled ring's
        # rate takes 4 panels of 8 + 16 nodes and no split
        evaluations = []

        def counted(*args, **kwargs):
            result = integrate_adaptive(*args, **kwargs)
            evaluations.append(result.evaluations)
            return result

        monkeypatch.setattr(attenuation, "integrate_adaptive", counted)
        attenuation.pair_rate_cw(bundled_system(), CwPump(1e-3), "O", "O")
        assert len(evaluations) == 1
        assert 0 < evaluations[0] <= 100

    def test_deterministic(self):
        f = lambda x: np.exp(-x * x) * np.cos(3.0 * x)
        r1 = integrate_adaptive(f, -8.0, 8.0)
        r2 = integrate_adaptive(f, -8.0, 8.0)
        assert r1.value == r2.value


class TestGridIntegrate2d:
    def test_unit_gaussian_mass(self):
        n = 512
        x = np.linspace(-6.0, 6.0, n)
        gx = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        values = np.outer(gx, gx)
        mass = grid_integrate_2d(values, x[1] - x[0], x[1] - x[0])
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_zero_grid(self):
        assert grid_integrate_2d(np.zeros((16, 16)), 0.1, 0.1) == 0.0

    def test_second_order_convergence(self):
        def mass(n):
            x = np.linspace(0.0, 1.0, n)
            values = np.outer(np.sin(math.pi * x), np.sin(math.pi * x))
            return grid_integrate_2d(values, x[1] - x[0], x[1] - x[0])

        exact = (2.0 / math.pi) ** 2
        err_coarse = abs(mass(33) - exact)
        err_fine = abs(mass(65) - exact)
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.1)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            grid_integrate_2d(np.zeros(8), 0.1, 0.1)
