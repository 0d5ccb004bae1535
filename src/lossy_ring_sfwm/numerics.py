"""Panelled Gauss-Legendre quadrature with a controlled tolerance
(integrate_adaptive) in plain Python, so the scalar commands load no numpy.

Callers hint each resonance as a (location, half-width) pair; the starting
panels ladder in by decades to a tenth of the half-width and no further,
since the integrand is flat on that scale. The 8- and 16-point rules are
constants."""

from __future__ import annotations

from typing import Callable, Sequence

from .frozen import Frozen, set_field

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
# both rules on [-1, 1], ascending within each: the 8-point rule's nodes,
# then the 16-point rule's, and each rule's weights on its own nodes
_NODES = tuple(-x for x in _GL8_NODES[::-1]) + _GL8_NODES \
    + tuple(-x for x in _GL16_NODES[::-1]) + _GL16_NODES
_W8 = _GL8_WEIGHTS[::-1] + _GL8_WEIGHTS
_W16 = _GL16_WEIGHTS[::-1] + _GL16_WEIGHTS
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

    def scaled(self, factor: float, what: str, unit: str) -> QuadratureError:
        """This failure restated for `what`, factor times the integral, with
        its value and estimate in `unit` (" pairs/s" for a rate, "" for a
        probability); raise it from this one."""
        value, error = factor * self.value, abs(factor) * self.error_estimate
        return QuadratureError(_not_converged(f"{what}: quadrature", error, self.rel_tol,
                                              value, unit),
                               value=value, error_estimate=error, rel_tol=self.rel_tol)

    def at(self, point: str) -> QuadratureError:
        """This failure at a sweep's point, e.g. "sigma = 0.95"; raise it from this one."""
        return QuadratureError(f"at {point}: {self}", value=self.value,
                               error_estimate=self.error_estimate, rel_tol=self.rel_tol)


def _not_converged(what: str, error: float, rel_tol: float, value: float,
                   unit: str = "") -> str:
    return (f"{what} did not converge: estimate {error:.3e}{unit} vs requested "
            f"{rel_tol:.1e} relative on value {value:.6e}{unit}")


class QuadratureResult(Frozen):
    __slots__ = ("value", "abs_error_estimate", "evaluations")

    def __init__(self, value: float | complex, abs_error_estimate: float, evaluations: int):
        set_field(self, "value", value)
        set_field(self, "abs_error_estimate", abs_error_estimate)
        set_field(self, "evaluations", evaluations)


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


def integrate_adaptive(f: Callable[[list[float]], Sequence[float]], a: float, b: float,
                       rel_tol: float = DEFAULT_RATE_RTOL,
                       points: Sequence[tuple[float, float]] | None = None) -> QuadratureResult:
    """Adaptive Gauss-Legendre quadrature of a real integrand over [a, b].

    f maps a list of abscissae to a sequence of as many float integrand
    values. Panels start at _segment_edges: `points` lists known peaks as
    (location, half-width) pairs, and the ladder around each reaches down
    to a tenth of its half-width. Each round evaluates the 8- and 16-point
    rules on all new panels in one call of f. value = sum of Q16, error
    estimate = sum of |Q16 - Q8|. While the estimate exceeds rel_tol *
    |value| (plus a tiny floor, so zero integrands converge), the panels
    above their equal share of it, and always the worst, are halved. When
    the budget of _PANEL_LIMIT panels is spent, QuadratureError carries the
    achieved estimate. `evaluations` counts the abscissae passed to f.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = _segment_edges(a, b, points)
    panels = list(zip(edges[:-1], edges[1:]))
    q: list[tuple[float, float]] = []  # (Q8, Q16) of the leading, evaluated panels
    evaluations = 0
    while True:
        new = panels[len(q):]
        x = [0.5 * (lo + hi) + 0.5 * (hi - lo) * t for lo, hi in new for t in _NODES]
        fx = f(x)
        for (lo, hi), k in zip(new, range(0, len(x), len(_NODES))):
            half = 0.5 * (hi - lo)
            q.append((sum(v * half * w for v, w in zip(fx[k:k + 8], _W8)),
                      sum(v * half * w for v, w in zip(fx[k + 8:k + 24], _W16))))
        evaluations += len(x)
        err = [abs(q16 - q8) for q8, q16 in q]
        value, abserr = sum(q16 for _, q16 in q), sum(err)
        tol = rel_tol * abs(value) + 1e-300
        if abserr <= tol:
            return QuadratureResult(value, abserr, evaluations)
        room = _PANEL_LIMIT - len(panels)
        if room <= 0:
            raise QuadratureError(_not_converged("quadrature", abserr, rel_tol, value),
                                  value=value, error_estimate=abserr, rel_tol=rel_tol)
        # the worst panels, as many as there is room for, that exceed their
        # share, and always the worst; ties in panel order
        worst_first = sorted(range(len(panels)), key=err.__getitem__, reverse=True)[:room]
        split = {i for i in worst_first if err[i] > tol / len(panels)} | {worst_first[0]}
        kept = [i for i in range(len(panels)) if i not in split]
        halves = [(lo, 0.5 * (lo + hi), hi) for lo, hi in (panels[i] for i in sorted(split))]
        panels = [panels[i] for i in kept] + [(lo, mid) for lo, mid, _ in halves] \
            + [(mid, hi) for _, mid, hi in halves]
        q = [q[i] for i in kept]
