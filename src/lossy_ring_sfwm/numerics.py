"""Quadrature and grid-integration kernels with controlled tolerances: panelled
Gauss-Legendre quadrature in numpy (integrate_adaptive) and a 2-D trapezoid.

Callers hint each resonance as a (location, half-width) pair; the starting
panels ladder in by decades to a tenth of the half-width and no further,
since the integrand is flat on that scale. The 8- and 16-point rules are
constants, so no command loads numpy.polynomial or its eigensolver."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_RATE_RTOL = 1e-6

# the positive nodes and their weights of the 8- and 16-point Gauss-Legendre
# rules, at the bits of numpy's leggauss; both rules are symmetric about 0
_GL8_NODES = (0.18343464249564978, 0.525532409916329, 0.7966664774136267,
              0.9602898564975362)
_GL8_WEIGHTS = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
                0.10122853629037706)
_GL16_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
               0.6178762444026438, 0.755404408355003, 0.8656312023878318,
               0.9445750230732326, 0.9894009349916499)
_GL16_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                 0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                 0.062253523938647456, 0.027152459411754176)
_PANEL_LIMIT = 200  # panels a quadrature may split into before it gives up


class QuadratureError(ArithmeticError):
    """Adaptive integration did not reach the requested tolerance. An
    ArithmeticError, like an overflow or a zero rate, so the command-line
    interface ends the command with exit 1 on it and need not import this
    module, or numpy, to catch it."""

    def __init__(self, message: str, value=None, error_estimate=None, rel_tol=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.rel_tol = rel_tol

    def scaled(self, factor: float, what: str) -> QuadratureError:
        """This failure restated for `what`, a pair rate of factor times the
        integral, with its value and estimate in pairs/s; raise it from this
        one."""
        value, error = factor * self.value, abs(factor) * self.error_estimate
        return QuadratureError(_not_converged(f"{what}: quadrature", error, self.rel_tol,
                                              value, " pairs/s"),
                               value=value, error_estimate=error, rel_tol=self.rel_tol)


def _not_converged(what: str, error: float, rel_tol: float, value: float,
                   unit: str = "") -> str:
    return (f"{what} did not converge: estimate {error:.3e}{unit} vs requested "
            f"{rel_tol:.1e} relative on value {value:.6e}{unit}")


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
    """Nodes on [-1, 1] of the 8- and the 16-point rule side by side, in
    ascending order within each, and a (24, 2) weight matrix applying each
    rule to its own nodes. Built from the positive halves on first use."""
    x_lo, x_hi = (np.concatenate([-np.array(h[::-1]), h]) for h in (_GL8_NODES, _GL16_NODES))
    w_lo, w_hi = (np.concatenate([h[::-1], h]) for h in (_GL8_WEIGHTS, _GL16_WEIGHTS))
    return np.r_[x_lo, x_hi], np.stack([np.r_[w_lo, 0.0 * w_hi], np.r_[0.0 * w_lo, w_hi]], 1)


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                       rel_tol: float = DEFAULT_RATE_RTOL,
                       points: Sequence[tuple[float, float]] | None = None) -> QuadratureResult:
    """Adaptive Gauss-Legendre quadrature of a real integrand over [a, b].

    f maps a 1-D array of abscissae to the integrand values. Panels start
    at _segment_edges: `points` lists known peaks as (location, half-width)
    pairs, and the ladder around each reaches down to a tenth of its
    half-width. Each round evaluates the 8- and 16-point rules on all new
    panels in one call of f. value = sum of Q16, error estimate = sum of
    |Q16 - Q8|. While the estimate exceeds rel_tol * |value| (plus a tiny
    floor, so zero integrands converge), the panels above their equal share
    of it, and always the worst, are halved. When the budget of
    _PANEL_LIMIT panels is spent, QuadratureError carries the achieved
    estimate. `evaluations` counts the abscissae passed to f.
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
        room = _PANEL_LIMIT - len(lo)
        if room <= 0:
            raise QuadratureError(_not_converged("quadrature", abserr, rel_tol, value),
                                  value=value, error_estimate=abserr, rel_tol=rel_tol)
        worst_first = np.argsort(-err, kind="stable")[:room]
        split = np.zeros(len(lo), dtype=bool)
        split[worst_first] = err[worst_first] > tol / len(lo)
        split[worst_first[0]] = True
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
        q = q[~split]


def grid_integrate_2d(blocks: Iterable[np.ndarray], dx: float, dy: float) -> float:
    """Trapezoidal integral of samples on a rectangular grid, given as
    consecutive blocks of its rows (2-D arrays), so the grid need never be
    whole. Each row is trapezoided on its own, so every split of the rows
    into blocks gives the one-shot trapezoid's bits."""
    rows = []
    for block in blocks:
        if np.ndim(block) != 2:
            raise ValueError(f"expected a 2-D block of rows, got shape {np.shape(block)}")
        rows.append(np.trapezoid(block, dx=dy, axis=1))
        del block  # let go of it before the next block is formed
    return float(np.trapezoid(np.concatenate(rows), dx=dx, axis=0))
