"""Quadrature kernels against analytic antiderivatives and their numpy form."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lossy_ring_sfwm import attenuation, numerics
from lossy_ring_sfwm.model import CwPump
from lossy_ring_sfwm.numerics import QuadratureError, _segment_edges, integrate_adaptive
from conftest import bundled_system
from oracles import gauss_legendre_half, integrate_adaptive_numpy

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
        # the 8-point rule leads the nodes, and each rule has its own weights
        half_nodes, half_weights = _GL_HALVES[n]
        lo, w = (0, numerics._W8) if n == 8 else (8, numerics._W16)
        assert len(numerics._NODES) == 24
        assert list(numerics._NODES[lo:lo + n]) == [-v for v in half_nodes[::-1]] \
            + list(half_nodes)
        assert list(w) == list(half_weights[::-1]) + list(half_weights)


def _pointwise(h):
    """The list integrand of a scalar function h."""
    return lambda xs: [h(x) for x in xs]


class TestIntegrateAdaptive:
    """Integrands take a list of abscissae and return a sequence of floats."""

    def test_lorentzian(self):
        peak, width = 2.5, 3.0
        result = integrate_adaptive(_pointwise(lambda x: peak / (1.0 + (x / width) ** 2)),
                                    -40.0 * width, 40.0 * width, rel_tol=1e-10)
        exact = 2.0 * peak * width * math.atan(40.0)  # antiderivative arctan
        assert result.value == pytest.approx(exact, rel=1e-8)
        assert result.value == pytest.approx(math.pi * peak * width, rel=0.02)

    def test_squared_lorentzian(self):
        peak, width = 1.7, 0.4
        result = integrate_adaptive(_pointwise(lambda x: (peak / (1.0 + (x / width) ** 2)) ** 2),
                                    -40.0 * width, 40.0 * width, rel_tol=1e-10)
        # antiderivative (w/2)(u/(1+u^2) + atan u), u = x/w
        u = 40.0
        exact = peak ** 2 * width * (u / (1.0 + u * u) + math.atan(u))
        assert result.value == pytest.approx(exact, rel=1e-8)
        assert result.value == pytest.approx(math.pi * peak ** 2 * width / 2.0, rel=0.03)

    def test_zero_integrand(self):
        result = integrate_adaptive(lambda xs: [0.0] * len(xs), -1.0, 1.0)
        assert result.value == 0.0

    def test_error_estimate_reported(self):
        result = integrate_adaptive(_pointwise(lambda x: math.exp(-x * x)), -5.0, 5.0)
        assert result.abs_error_estimate >= 0.0
        assert result.evaluations > 0

    def test_evaluations_count_every_abscissa(self):
        sizes = []

        def f(xs):
            assert isinstance(xs, list)
            sizes.append(len(xs))
            return [1.0 / (1.0 + ((x - 0.3) / 1e-4) ** 2) for x in xs]

        result = integrate_adaptive(f, -1.0, 1.0, rel_tol=1e-9, points=[(0.3, 1e-4)])
        assert len(sizes) > 1  # the estimate needed splits, one call per round
        assert result.evaluations == sum(sizes)

    def test_nonconvergence_raises(self):
        with pytest.raises(QuadratureError) as exc:
            integrate_adaptive(_pointwise(lambda x: math.sin(1e4 * x * x) + 1e-300),
                               0.0, 50.0, rel_tol=1e-13)
        assert exc.value.error_estimate is not None

    def test_points_hint_finds_narrow_peak(self):
        width = 1e-6
        result = integrate_adaptive(_pointwise(lambda x: 1.0 / (1.0 + ((x - 0.5) / width) ** 2)),
                                    -1e3, 1e3, rel_tol=1e-9, points=[(0.5, width)])
        assert result.value == pytest.approx(math.pi * width, rel=1e-6)

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
        result = integrate_adaptive(_pointwise(lambda x: 1.0 / (1.0 + ((x - 0.5) / width) ** 2)),
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
        f = _pointwise(lambda x: math.exp(-x * x) * math.cos(3.0 * x))
        r1 = integrate_adaptive(f, -8.0, 8.0)
        r2 = integrate_adaptive(f, -8.0, 8.0)
        assert r1.value == r2.value


_LORENTZIAN = st.tuples(st.floats(0.05, 0.95),  # centre, as a fraction of [a, b]
                        st.floats(-9.0, 0.0),  # log10 of the half-width over b - a
                        st.floats(0.1, 10.0),  # height
                        st.booleans())  # hinted


class TestNumpyForm:
    """The plain-Python quadrature against the numpy form it was ported from
    (tests/oracles.py): the same panels and split rule, so the same
    evaluations and the value to rounding, and a failure on the same draws."""

    @given(st.floats(-10.0, 10.0), st.floats(-1.0, 3.0), st.lists(_LORENTZIAN, min_size=1,
                                                                  max_size=4),
           st.floats(-12.0, -4.0))
    # a panel's error sits within rounding of its share of the tolerance in
    # round 5 of this draw, so the split follows the order of every sum
    @example(0.0, 1.6755094915384867, [(0.0859375, -7.372348729638524, 3.0, True)], -12.0)
    @settings(max_examples=200, deadline=None)
    def test_same_evaluations_and_value(self, a, log_span, peaks, log_tol):
        b = a + 10.0 ** log_span
        terms = [(a + u * (b - a), 10.0 ** k * (b - a), height) for u, k, height, _ in peaks]
        hints = [(c, w) for (c, w, _), (*_, hinted) in zip(terms, peaks) if hinted]

        def h(x):
            return sum(height / (1.0 + ((x - c) / w) ** 2) for c, w, height in terms)

        rel_tol = 10.0 ** log_tol
        outcomes = []
        for integrate, f in ((integrate_adaptive, _pointwise(h)),
                             (integrate_adaptive_numpy,
                              lambda x: np.array([h(v) for v in x.tolist()]))):
            try:
                outcomes.append(integrate(f, a, b, rel_tol=rel_tol, points=hints))
            except QuadratureError:
                outcomes.append(None)
        ours, reference = outcomes
        assert (ours is None) == (reference is None)
        if ours is not None:
            assert ours.evaluations == reference.evaluations
            assert ours.value == pytest.approx(reference.value, rel=1e-14, abs=0.0)
