"""Quadrature kernels against analytic antiderivatives."""

import math

import numpy as np
import pytest

from lossy_ring_sfwm import attenuation, numerics
from lossy_ring_sfwm.model import CwPump
from lossy_ring_sfwm.numerics import (QuadratureError, _segment_edges,
                                      grid_integrate_2d, integrate_adaptive)
from conftest import bundled_system
from oracles import gauss_legendre_half

_GL_HALVES = {8: (numerics._GL8_NODES, numerics._GL8_WEIGHTS),
              16: (numerics._GL16_NODES, numerics._GL16_WEIGHTS)}


@pytest.mark.parametrize("n", [8, 16])
class TestGaussLegendreRules:
    """The rules are constants; these pin them to their definition."""

    def test_literals_match_40_digit_rules(self, n):
        # nodes to 1 ulp; numpy's leggauss weights, whose bits the literals
        # hold, sit up to about 8e-15 relative from exact
        nodes, weights = _GL_HALVES[n]
        exact_nodes, exact_weights = gauss_legendre_half(n)
        assert len(nodes) == len(weights) == n // 2
        for x, exact in zip(nodes, exact_nodes):
            assert abs(x - float(exact)) <= math.ulp(float(exact)), (x, exact)
        for w, exact in zip(weights, exact_weights):
            assert w == pytest.approx(float(exact), rel=1e-14, abs=0.0), (w, exact)

    def test_literals_match_leggauss(self, n):
        # within 4 ulp, not bitwise: leggauss's last bits rest on its LAPACK
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(n)
        nodes, weights = _GL_HALVES[n]
        assert np.all(np.abs(x[n // 2:] - nodes) <= 4 * np.spacing(x[n // 2:]))
        assert np.all(np.abs(w[n // 2:] - weights) <= 4 * np.spacing(w[n // 2:]))

    def test_rules_mirror_the_halves(self, n):
        # the 8-point rule leads the nodes and owns the first weight column
        nodes, weights = numerics._rules()
        half_nodes, half_weights = _GL_HALVES[n]
        lo, col = (0, 0) if n == 8 else (8, 1)
        x, w = nodes[lo:lo + n], weights[lo:lo + n]
        assert x.tolist() == [-v for v in half_nodes[::-1]] + list(half_nodes)
        assert w[:, col].tolist() == list(half_weights[::-1]) + list(half_weights)
        assert not w[:, 1 - col].any()


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
                               0.0, 50.0, rel_tol=1e-13)
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
        mass = grid_integrate_2d([values], x[1] - x[0], x[1] - x[0])
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_zero_grid(self):
        assert grid_integrate_2d([np.zeros((16, 16))], 0.1, 0.1) == 0.0

    def test_second_order_convergence(self):
        def mass(n):
            x = np.linspace(0.0, 1.0, n)
            values = np.outer(np.sin(math.pi * x), np.sin(math.pi * x))
            return grid_integrate_2d([values], x[1] - x[0], x[1] - x[0])

        exact = (2.0 / math.pi) ** 2
        err_coarse = abs(mass(33) - exact)
        err_fine = abs(mass(65) - exact)
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.1)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            grid_integrate_2d([np.zeros(8)], 0.1, 0.1)

    @pytest.mark.parametrize("rows, block", [(2, 1), (2, 2), (133, 1), (133, 7), (133, 8),
                                             (133, 64), (133, 133)])
    def test_row_blocks_match_one_shot_trapezoid(self, rows, block):
        # each row is summed on its own in both, so the blocks change no bit
        values = np.random.default_rng(rows).random((rows, 37)) ** 4
        one_shot = np.trapezoid(np.trapezoid(values, dx=0.3, axis=1), dx=0.7, axis=0)
        blocks = (values[start:start + block] for start in range(0, rows, block))
        assert grid_integrate_2d(blocks, 0.7, 0.3) == float(one_shot)
