"""Parameter studies: coupling sweeps, strategy comparison, add-drop grids.

add_drop_grid sets the swept decay rates as numpy arrays that broadcast
over (t, d) and calls the closed-form kernel phantom.pair_rates once; it
imports numpy when it runs. The sweeps along one axis (sweep_eta,
sweep_sigma, compare_finesse, compare_finesse_add_drop) evaluate every
point by its own call, one after another in axis order, and hold their
axes and values as Columns, lists of Python floats, so they load no numpy.
sweep_eta's per-point pair_rates gives the broadcast's bits, since the
kernel writes its squares as products. Each point reaches the model as a
Python float: a numpy scalar would flow through the system copy into every
field's wavevector and amplitudes, and each quadrature node would then do
its complex arithmetic on numpy scalars, several times slower than on
Python complex numbers. A quadrature that fails names its point, and the
strategies' relative difference is taken per point, as rate takes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import phantom  # the strategy-1 sweeps import attenuation when they run
from .frozen import Frozen, set_field
from .model import Band, CwPump, GeometryError, SystemSpec, finesse, gamma_from_sigma
from .numerics import QuadratureError

if TYPE_CHECKING:  # used in annotations only
    import numpy as np


class Column(list):
    """A sweep's axis or values along one axis, as Python floats. Like a 1-D
    numpy array it gives its length as .size, by which benchmark/tracing.py
    counts the points of every sweep."""

    @property
    def size(self) -> int:
        return len(self)


class SweepResult(Frozen):
    """Columns for the sweeps along one axis, numpy arrays for add_drop_grid."""

    __slots__ = ("axes", "values", "metadata")

    def __init__(self, axes: Mapping[str, Column | np.ndarray],
                 values: Mapping[str, Column | np.ndarray], metadata: Mapping[str, object]):
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


def quadratic_argmax_2d(x: np.ndarray, y: np.ndarray,
                        grid: np.ndarray) -> tuple[float, float]:
    """Location of a 2-D grid maximum on positive axes, refined by a
    least-squares quadratic surface in (log x, log y) through the 3 x 3
    neighbourhood of the best point (a separable per-axis parabola is biased
    when the surface's axes are coupled). In log coordinates a rate law such
    as t^2 d^2 / (1 + t + d)^7 is nearer a quadratic than on a linear axis."""
    import numpy as np

    grid = np.asarray(grid, dtype=float)
    if not np.any(grid):
        raise phantom.ZeroRateError("every rate of the grid is 0, so it has no maximum")
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    if i in (0, grid.shape[0] - 1) or j in (0, grid.shape[1] - 1):
        return float(x[i]), float(y[j])
    u, v = np.log(x), np.log(y)
    uu, vv = np.meshgrid(u[i - 1:i + 2] - u[i], v[j - 1:j + 2] - v[j], indexing="ij")
    z = grid[i - 1:i + 2, j - 1:j + 2].ravel()
    a = np.column_stack([np.ones(9), uu.ravel(), vv.ravel(), uu.ravel() ** 2,
                         (uu * vv).ravel(), vv.ravel() ** 2])
    c = np.linalg.lstsq(a, z, rcond=None)[0]
    hess = np.array([[2.0 * c[3], c[4]], [c[4], 2.0 * c[5]]])
    if np.linalg.det(hess) <= 0.0 or hess[0, 0] >= 0.0:
        return float(x[i]), float(y[j])
    du, dv = np.linalg.solve(hess, [-c[1], -c[2]])
    return float(np.exp(u[i] + du)), float(np.exp(v[j] + dv))


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
    pairs = [(bus, bus), (bus, ph), (ph, bus), (ph, ph)]

    def rates_at(eta: float) -> list[float]:
        rates = phantom.pair_rates(
            system, pump, {bus: {b: eta * g_ph[b] / (1.0 - eta) for b in Band}})
        return [rates[pair] for pair in pairs]

    columns = map(Column, zip(*map(rates_at, etas)))
    values = {f"R_{x}{y}": column for (x, y), column in zip(pairs, columns)}
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
    through and drop couplings, in units of the phantom decay rate."""
    import numpy as np

    through, drop = ring_buses(system, 2, with_phantom=True)
    ph = system.phantom_channel.channel_id
    g_ph = system.phantom_channel.gammas
    t_ratios = np.asarray(list(gamma_t_ratios), dtype=float)
    d_ratios = np.asarray(list(gamma_d_ratios), dtype=float)
    if np.any(t_ratios <= 0) or np.any(d_ratios <= 0):
        raise ValueError("coupling ratios must be positive")
    ids = (through, drop, ph)
    rates = phantom.pair_rates(system, pump, {
        through: {b: t_ratios[:, None] * g for b, g in g_ph.items()},
        drop: {b: d_ratios[None, :] * g for b, g in g_ph.items()}})
    values = {f"R_{x}{y}": rates[(x, y)] for x in ids for y in ids}
    argmax = {key: quadratic_argmax_2d(t_ratios, d_ratios, grid)
              for key, grid in values.items()}
    return SweepResult(
        axes={"gamma_t_ratio": t_ratios, "gamma_d_ratio": d_ratios},
        values=values,
        metadata={"argmax": argmax})
