"""Quadrature and grid-integration kernels with controlled tolerances."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

DEFAULT_RATE_RTOL = 1e-6


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


_LADDER_DECADES = 9  # features down to (b - a) * 1e-9 around hinted points resolve


def _segment_edges(a: float, b: float, points: Sequence[float] | None) -> list[float]:
    """Panel edges for [a, b]: the hinted peak locations plus a geometric
    ladder of brackets around each, so structure much narrower than the
    interval cannot slip between quadrature nodes."""
    edges = {a, b}
    if points:
        span = b - a
        for p in points:
            if not a < p < b:
                continue
            edges.add(p)
            for k in range(1, _LADDER_DECADES + 1):
                s = span * 10.0 ** (-k)
                for q in (p - s, p + s):
                    if a < q < b:
                        edges.add(q)
    return sorted(edges)


def _quad_segments(f, a, b, rel_tol, points, limit):
    value = 0.0
    abserr = 0.0
    neval = 0
    edges = _segment_edges(a, b, points)
    for lo, hi in zip(edges[:-1], edges[1:]):
        y, err, info = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=rel_tol,
                                      limit=limit, full_output=True)[:3]
        value += y
        abserr += err
        neval += int(info["neval"])
    return value, abserr, neval


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       rel_tol: float = DEFAULT_RATE_RTOL,
                       points: Sequence[float] | None = None,
                       limit: int = 200) -> QuadratureResult:
    """Adaptive quadrature of a real integrand over [a, b].

    The result's error estimate satisfies |err| <= rel_tol * |value|
    (with a tiny absolute floor so that identically-zero integrands
    converge); otherwise QuadratureError is raised carrying the achieved
    estimate. `points` marks known peaks for the subdivision.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    value, abserr, neval = _quad_segments(f, a, b, rel_tol, points, limit)
    if abserr > rel_tol * abs(value) + 1e-300:
        raise QuadratureError(
            f"quadrature did not converge: estimate {abserr:.3e} vs requested "
            f"{rel_tol:.1e} relative on value {value:.6e}",
            value=value, error_estimate=abserr)
    return QuadratureResult(value=value, abs_error_estimate=abserr, evaluations=neval)


def grid_integrate_2d(values: np.ndarray, dx: float, dy: float) -> float:
    """Trapezoidal integral of samples on a rectangular grid."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {values.shape}")
    return float(np.trapezoid(np.trapezoid(values, dx=dy, axis=1), dx=dx, axis=0))
