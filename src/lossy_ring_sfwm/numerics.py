"""Quadrature and grid-integration kernels with controlled tolerances: panelled
Gauss-Legendre quadrature in numpy (integrate_adaptive) and a 2-D trapezoid.

Callers hint each resonance as a (location, half-width) pair; the starting
panels ladder in by decades to a tenth of the half-width and no further,
since the integrand is flat on that scale."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_RATE_RTOL = 1e-6

_RULE_POINTS = 8  # nodes of the lower Gauss-Legendre rule; the upper has twice as many


class QuadratureError(RuntimeError):
    """Adaptive integration did not reach the requested tolerance."""

    def __init__(self, message: str, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureResult:
    value: float | complex
    abs_error_estimate: float
    evaluations: int


def _segment_edges(a: float, b: float,
                   points: Sequence[tuple[float, float]] | None) -> list[float]:
    """Panel edges for [a, b]: each hinted peak, bracketed at a tenth, a
    hundredth, ... of the interval down to a tenth of its half-width, so a
    narrow peak cannot slip between nodes and its flat top costs no panels."""
    edges = {a, b}
    span = b - a
    for p, half_width in points or ():
        if not half_width > 0:
            raise ValueError(f"peak half-width must be positive, got {half_width}")
        if not a < p < b:
            continue
        edges.add(p)
        k = 1
        while (s := span * 10.0 ** (-k)) >= 0.1 * half_width:
            edges.update(q for q in (p - s, p + s) if a < q < b)
            k += 1
    return sorted(edges)


@functools.cache
def _rules() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] of the lower and the upper rule side by side, and a
    (nodes, 2) weight matrix applying each rule to its own nodes."""
    from numpy.polynomial.legendre import leggauss  # closed-form commands never integrate

    (x_lo, w_lo), (x_hi, w_hi) = leggauss(_RULE_POINTS), leggauss(2 * _RULE_POINTS)
    return np.r_[x_lo, x_hi], np.stack([np.r_[w_lo, 0.0 * w_hi], np.r_[0.0 * w_lo, w_hi]], 1)


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                       rel_tol: float = DEFAULT_RATE_RTOL,
                       points: Sequence[tuple[float, float]] | None = None,
                       limit: int = 200) -> QuadratureResult:
    """Adaptive Gauss-Legendre quadrature of a real integrand over [a, b].

    f maps a 1-D array of abscissae to the integrand values. Panels start
    at _segment_edges: `points` lists known peaks as (location, half-width)
    pairs, and the ladder around each reaches down to a tenth of its
    half-width. Each round evaluates the 8- and 16-point rules on all new
    panels in one call of f. value = sum of Q16, error estimate = sum of
    |Q16 - Q8|. While the estimate exceeds rel_tol * |value| (plus a tiny
    floor, so zero integrands converge), the panels above their equal share
    of it, and always the worst, are halved.
    When the budget of `limit` panels is spent, QuadratureError carries the
    achieved estimate. `evaluations` counts the abscissae passed to f.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    nodes, weights = _rules()
    edges = np.array(_segment_edges(a, b, points))
    lo, hi = edges[:-1], edges[1:]
    q = np.empty((0, 2))  # (Q8, Q16) of the panels evaluated so far, which lead lo and hi
    evaluations = 0
    while True:
        half = 0.5 * (hi - lo)[len(q):, None]
        x = 0.5 * (lo + hi)[len(q):, None] + half * nodes
        q = np.concatenate([q, (np.asarray(f(x.ravel())).reshape(x.shape) * half) @ weights])
        evaluations += x.size
        err = np.abs(q[:, 1] - q[:, 0])
        value, abserr = q[:, 1].sum().item(), err.sum().item()
        tol = rel_tol * abs(value) + 1e-300
        if abserr <= tol:
            return QuadratureResult(value, abserr, evaluations)
        room = limit - len(lo)
        if room <= 0:
            raise QuadratureError(
                f"quadrature did not converge: estimate {abserr:.3e} vs requested "
                f"{rel_tol:.1e} relative on value {value:.6e}",
                value=value, error_estimate=abserr)
        worst_first = np.argsort(-err, kind="stable")[:room]
        split = np.zeros(len(lo), dtype=bool)
        split[worst_first] = err[worst_first] > tol / len(lo)
        split[worst_first[0]] = True
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
        q = q[~split]


def grid_integrate_2d(values: np.ndarray, dx: float, dy: float) -> float:
    """Trapezoidal integral of samples on a rectangular grid."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {values.shape}")
    return float(np.trapezoid(np.trapezoid(values, dx=dy, axis=1), dx=dx, axis=0))
