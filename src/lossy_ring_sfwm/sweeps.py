"""Parameter studies: coupling sweeps, strategy comparison, add-drop grids.

Every sweep holds its axes and values as Columns, lists of Python floats,
so no sweep loads numpy. sweep_eta and add_drop_grid set the swept decay
rates as lists, one entry per point or per grid cell, and call the
closed-form kernel phantom.pair_rates once; each cell has the bits of a
call on its own floats. The strategy-1 sweeps (sweep_sigma,
compare_finesse, compare_finesse_add_drop) evaluate every point by its own
call, one after another in axis order. Each point reaches the model as a
Python float: a numpy scalar would flow through the system copy into every
field's wavevector and amplitudes, and each quadrature node would then do
its complex arithmetic on numpy scalars, several times slower than on
Python complex numbers. A quadrature that fails names its point, and the
strategies' relative difference is taken per point, as rate takes it.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from . import phantom  # the strategy-1 sweeps import attenuation when they run
from .frozen import Frozen, set_field
from .model import Band, CwPump, GeometryError, SystemSpec, finesse, gamma_from_sigma
from .numerics import QuadratureError


class Column(list):
    """A sweep's axis or values, as Python floats: add_drop_grid's values
    hold the grid's cells in row-major order. Like a 1-D numpy array it gives
    its length as .size, by which benchmark/tracing.py counts the points of
    every sweep."""

    @property
    def size(self) -> int:
        return len(self)


class SweepResult(Frozen):
    """A sweep's axes and values as Columns, and its metadata."""

    __slots__ = ("axes", "values", "metadata")

    def __init__(self, axes: Mapping[str, Column], values: Mapping[str, Column],
                 metadata: Mapping[str, object]):
        set_field(self, "axes", axes)
        set_field(self, "values", values)
        set_field(self, "metadata", metadata)


def quadratic_argmax(x: Sequence[float], y: Sequence[float]) -> float:
    """Axis location of the maximum, refined by a parabola through the best
    grid point and its neighbours; the first of equal maxima wins. Falls back
    to the grid point on edges; an all-zero curve, as an underflowing pump
    power gives, has no maximum."""
    if not any(y):
        raise phantom.ZeroRateError("every rate of the sweep is 0, so it has no maximum")
    i = max(range(len(y)), key=y.__getitem__)
    if i == 0 or i == len(y) - 1:
        return float(x[i])
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom >= 0.0:
        return float(x[i])
    offset = 0.5 * (y[i - 1] - y[i + 1]) / denom
    return float(x[i] + offset * (x[i + 1] - x[i - 1]) / 2.0)


def _least_squares(columns: list[list[float]], z: list[float]) -> list[float]:
    """The coefficients c that minimise |sum_k c_k columns[k] - z|, by
    modified Gram-Schmidt on the columns with z appended, whose last column
    of R is Q^T z (Bjorck's backward-stable form), then back substitution."""
    q = [list(c) for c in columns] + [list(z)]
    n = len(columns)
    r = [[0.0] * (n + 1) for _ in range(n)]
    for k in range(n):
        r[k][k] = norm = math.hypot(*q[k])
        q[k] = [a / norm for a in q[k]]
        for j in range(k + 1, n + 1):
            r[k][j] = dot = math.fsum(a * b for a, b in zip(q[k], q[j]))
            q[j] = [b - dot * a for a, b in zip(q[k], q[j])]
    c = [0.0] * n
    for k in reversed(range(n)):
        c[k] = (r[k][n] - math.fsum(r[k][j] * c[j] for j in range(k + 1, n))) / r[k][k]
    return c


def quadratic_argmax_2d(x: Sequence[float], y: Sequence[float],
                        grid: Sequence[float]) -> tuple[float, float]:
    """Location of the maximum of a 2-D grid on positive axes, its
    len(x) * len(y) cells in row-major order, refined by a least-squares
    quadratic surface in (log x, log y) through the 3 x 3 neighbourhood of
    the best point (a separable per-axis parabola is biased when the
    surface's axes are coupled); the first of equal maxima wins. In log
    coordinates a rate law such as t^2 d^2 / (1 + t + d)^7 is nearer a
    quadratic than on a linear axis. Falls back to the grid point on an edge
    or where the surface has no maximum."""
    if not any(grid):
        raise phantom.ZeroRateError("every rate of the grid is 0, so it has no maximum")
    i, j = divmod(grid.index(max(grid)), len(y))
    if i in (0, len(x) - 1) or j in (0, len(y) - 1):
        return float(x[i]), float(y[j])
    u0, v0 = math.log(x[i]), math.log(y[j])
    cells = [(math.log(x[i + a]) - u0, math.log(y[j + b]) - v0, grid[(i + a) * len(y) + j + b])
             for a in (-1, 0, 1) for b in (-1, 0, 1)]
    basis = [[1.0] * 9, [u for u, _, _ in cells], [v for _, v, _ in cells],
             [u * u for u, _, _ in cells], [u * v for u, v, _ in cells],
             [v * v for _, v, _ in cells]]
    _, c_u, c_v, c_uu, c_uv, c_vv = _least_squares(basis, [z for _, _, z in cells])
    # the Hessian [[2 c_uu, c_uv], [c_uv, 2 c_vv]] must be negative definite
    det = 4.0 * c_uu * c_vv - c_uv * c_uv
    if det <= 0.0 or c_uu >= 0.0:
        return float(x[i]), float(y[j])
    du = (c_uv * c_v - 2.0 * c_vv * c_u) / det
    dv = (c_uv * c_u - 2.0 * c_uu * c_v) / det
    return math.exp(u0 + du), math.exp(v0 + dv)


def _rescaled_coupling_system(system: SystemSpec, scale: float) -> SystemSpec:
    """All channel decay rates and the ring loss scaled by one factor,
    leaving escape efficiencies (and the resonance structure) unchanged."""
    ring = system.ring.replace(loss_db_per_cm=system.ring.loss_db_per_cm * scale)
    channels = tuple(c.replace(gammas={b: g * scale for b, g in c.gammas.items()})
                     for c in system.channels)
    return system.replace(ring=ring, channels=channels)


_BUS_RINGS = {1: "a single-bus ring needs one physical channel",
              2: "an add-drop ring needs two physical channels"}


def ring_buses(system: SystemSpec, count: int, with_phantom: bool = False) -> tuple[str, ...]:
    """system.buses() of a sweep that fixes the ring at `count` buses, with a phantom if asked."""
    if with_phantom and system.phantom_channel is None:
        raise GeometryError("this sweep needs the phantom channel")
    if len(buses := system.buses()) != count:
        raise GeometryError(f"{_BUS_RINGS[count]}, got {len(buses)}")
    return buses


def _strategy1_rate(system: SystemSpec, pump: CwPump, bus: str, axis: str,
                    point: float) -> float:
    """Strategy-1 rate R[bus,bus] at the point `axis` = point, named if it fails."""
    from . import attenuation

    try:
        return attenuation.pair_rate_cw(system, pump, bus, bus)
    except QuadratureError as e:
        raise e.at(f"{axis} = {point:.6g}") from e


def sweep_sigma(system: SystemSpec, sigma_values: Iterable[float], pump: CwPump) -> SweepResult:
    """Attenuation-model pair rate versus the bus self-coupling, at fixed
    ring loss."""
    (bus,) = ring_buses(system, 1)
    sigmas = Column(map(float, sigma_values))
    L = system.ring.circumference

    def rate_at(sigma: float) -> float:
        gammas = {b: gamma_from_sigma(sigma, system.bands[b].v, L) for b in Band}
        return _strategy1_rate(system.with_channel_gamma(bus, gammas), pump, bus, "sigma",
                               sigma)

    rates = Column(map(rate_at, sigmas))
    return SweepResult(
        axes={"sigma": sigmas},
        values={"rate_pairs_per_s": rates},
        metadata={
            "argmax_sigma": quadratic_argmax(sigmas, rates),
            "sigma_critical": system.ring.roundtrip_amplitude,
        })


def sweep_eta(system: SystemSpec, eta_values: Iterable[float], pump: CwPump) -> SweepResult:
    """Phantom-model rates of all four channel-pair trajectories versus the
    bus escape efficiency, at fixed ring loss."""
    (bus,) = ring_buses(system, 1, with_phantom=True)
    ph = system.phantom_channel.channel_id
    etas = Column(map(float, eta_values))
    if not all(0.0 < eta < 1.0 for eta in etas):
        raise ValueError("escape efficiency must lie strictly inside (0, 1)")
    g_ph = system.phantom_channel.gammas
    rates = phantom.pair_rates(
        system, pump, {bus: {b: [eta * g_ph[b] / (1.0 - eta) for eta in etas] for b in Band}})
    pairs = [(bus, bus), (bus, ph), (ph, bus), (ph, ph)]
    values = {f"R_{x}{y}": Column(rates[(x, y)]) for x, y in pairs}
    return SweepResult(
        axes={"eta": etas},
        values=values,
        metadata={"argmax_eta": quadratic_argmax(etas, values[f"R_{bus}{bus}"])})


def compare_finesse(system: SystemSpec, finesse_values: Iterable[float],
                    pump: CwPump) -> SweepResult:
    """Single-bus pair rate from both loss models versus resonator finesse.

    Finesse is varied by scaling all couplings and the loss together, so
    the escape efficiency stays fixed while the linewidth shrinks."""
    (bus,) = ring_buses(system, 1, with_phantom=True)
    fins = Column(map(float, finesse_values))
    f0 = finesse(system)

    def rates_at(f: float) -> tuple[float, float, float]:
        sys_f = _rescaled_coupling_system(system, f0 / f)
        r_att = _strategy1_rate(sys_f, pump, bus, "finesse", f)
        r_pha = phantom.pair_rate_cw(sys_f, pump, bus, bus)
        return r_att, r_pha, phantom.rel_difference(r_att, r_pha)

    r_att, r_pha, rel = map(Column, zip(*map(rates_at, fins)))
    return SweepResult(
        axes={"finesse": fins},
        values={"rate_attenuation": r_att, "rate_phantom": r_pha,
                "rel_difference": rel},
        metadata={"max_rel_difference": max(rel),
                  "final_rel_difference": rel[fins.index(max(fins))]})


def compare_finesse_add_drop(system: SystemSpec, sigma2_values: Iterable[float],
                             pump: CwPump) -> SweepResult:
    """Add-drop through-pair rate from both loss models, scanned over the
    add/drop self-coupling (which sets the finesse)."""
    through, drop = ring_buses(system, 2, with_phantom=True)
    sigmas = Column(map(float, sigma2_values))
    L = system.ring.circumference

    def rates_at(sigma2: float) -> tuple[float, float, float, float]:
        gammas = {b: gamma_from_sigma(sigma2, system.bands[b].v, L) for b in Band}
        sys_s = system.with_channel_gamma(drop, gammas)
        r_att = _strategy1_rate(sys_s, pump, through, "sigma2", sigma2)
        r_pha = phantom.pair_rate_cw(sys_s, pump, through, through)
        return finesse(sys_s), r_att, r_pha, phantom.rel_difference(r_att, r_pha)

    fins, r_att, r_pha, rel = map(Column, zip(*map(rates_at, sigmas)))
    return SweepResult(
        axes={"sigma2": sigmas},
        values={"finesse": fins, "rate_attenuation": r_att, "rate_phantom": r_pha,
                "rel_difference": rel},
        metadata={"sigma1": system.sigma_view(through, Band.PUMP)})


def add_drop_grid(system: SystemSpec, gamma_t_ratios: Iterable[float],
                  gamma_d_ratios: Iterable[float], pump: CwPump) -> SweepResult:
    """Phantom-model rate of every channel-pair trajectory on a grid of
    through and drop couplings, in units of the phantom decay rate. Each
    value is a Column of the grid's cells in row-major order, t outer."""
    through, drop = ring_buses(system, 2, with_phantom=True)
    ph = system.phantom_channel.channel_id
    g_ph = system.phantom_channel.gammas
    t_ratios = Column(map(float, gamma_t_ratios))
    d_ratios = Column(map(float, gamma_d_ratios))
    if any(r <= 0.0 for r in t_ratios + d_ratios):
        raise ValueError("coupling ratios must be positive")
    ids = (through, drop, ph)
    rates = phantom.pair_rates(system, pump, {
        through: {b: [t * g for t in t_ratios for _ in d_ratios] for b, g in g_ph.items()},
        drop: {b: [d * g for _ in t_ratios for d in d_ratios] for b, g in g_ph.items()}})
    values = {f"R_{x}{y}": Column(rates[(x, y)]) for x in ids for y in ids}
    argmax = {key: quadratic_argmax_2d(t_ratios, d_ratios, grid)
              for key, grid in values.items()}
    return SweepResult(
        axes={"gamma_t_ratio": t_ratios, "gamma_d_ratio": d_ratios},
        values=values,
        metadata={"argmax": argmax})
