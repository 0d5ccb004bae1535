"""Independent oracles the tests check the model and its constants against.

Tests import these helpers (`from oracles import ...`): the lossless point
coupler written out as a 2x2 junction, and a direct numerical scan of the
ring overlap, both deliberately ignorant of the closed forms in `src/`;
the strategy-1 pair rate at 30 digits on any number of buses, from the
point-coupler relations in absolute wavenumbers; Gauss-Legendre rules
from 40-digit roots of the Legendre polynomials; Weideman's Faddeeva
coefficients by his FFT construction; and the numpy forms that the
plain-Python code was ported from: the adaptive quadrature, the broadcast
closed-form pair rates and the least-squares refinement of a grid's
maximum.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from lossy_ring_sfwm import numerics
from lossy_ring_sfwm.attenuation import RingField
from lossy_ring_sfwm.constants import HBAR
from lossy_ring_sfwm.model import Band, CwPump, SystemSpec, two_photon_detuning


@dataclass(frozen=True)
class PointCoupler:
    """Lossless 2x2 junction between a bus waveguide and the ring."""

    sigma: float  # self-coupling
    kappa: float  # cross-coupling

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"self-coupling must be in [0, 1], got {self.sigma}")
        if abs(self.sigma**2 + self.kappa**2 - 1.0) > 1e-12:
            raise ValueError(
                f"coupler must be lossless: sigma^2 + kappa^2 = "
                f"{self.sigma**2 + self.kappa**2}")

    @classmethod
    def from_sigma(cls, sigma: float) -> "PointCoupler":
        return cls(sigma=sigma, kappa=math.sqrt(max(0.0, 1.0 - sigma * sigma)))


def coupler_scatter(coupler: PointCoupler, f1: complex, f4: complex) -> tuple[complex, complex]:
    """Outputs (f2, f3) of the point coupler for inputs (f1, f4)."""
    f2 = coupler.sigma * f1 + 1j * coupler.kappa * f4
    f3 = 1j * coupler.kappa * f1 + coupler.sigma * f4
    return f2, f3


def overlap_by_zeta_scan(signal: RingField, idler: RingField, pump: RingField,
                         delta_kappa: float = 0.0, n: int = 10_001) -> complex:
    """Direct numerical scan of the ring overlap integrand (oracle for
    overlap_of_fields; deliberately ignorant of the closed form).

    Each arc is scanned separately because the field amplitudes jump
    across coupling points."""
    fields = ((signal, True), (idler, True), (pump, False), (pump, False))  # (field, conjugated)
    n_arc = len(signal.amps)
    if any(len(f.amps) != n_arc or f.arc != signal.arc for f, _ in fields):
        raise ValueError("fields must share one ring segmentation")
    total = 0.0 + 0.0j
    local = np.linspace(0.0, signal.arc, max(n // n_arc, 64))
    for j in range(n_arc):
        vals = np.ones_like(local, dtype=complex)
        for f, conj in fields:
            amp = f.amps[j] * np.exp(1j * f.k_prop * local)
            vals = vals * (np.conj(amp) if conj else amp)
        vals *= np.exp(1j * delta_kappa * (j * signal.arc + local))
        total += np.trapezoid(vals, local)
    return complex(total)


def strategy1_rate_mp(system: SystemSpec, pump: CwPump, signal_exit: str,
                      idler_exit: str) -> float:
    """The strategy-1 CW pair rate, (1/2pi) (gamma_nl P / omega_P)^2 v_P^2 /
    (v_S v_I) times the integral of omega1 omega2 |J|^2 over signal
    frequencies within 0.45 of a free spectral range of omega_S, written out
    from the point-coupler transfer functions at 30 digits.

    The n buses couple at zeta_j = j L / n, in system.buses() order. Each
    field is the physical one, r_j e^{i k~ (zeta - zeta_j)} on the arc after
    coupler j, in the absolute wavenumber k = 2 pi m / L + (omega - omega_J)
    / v with k~ = k + i xi / 2 incoming and k - i xi / 2 outgoing. At
    coupler j the ring field r- that arrives and the bus field b_in that
    enters give r_j = sigma_j r- + i kappa_j b_in to the ring and b_out =
    i kappa_j r- + sigma_j b_in to the bus. The incoming field has b_in = 1
    at the pump bus and 0 at the others, so r_j = sigma_j r- + i kappa_j
    [j = 0]. The outgoing field through exit e has b_out = 1 at e and 0 at
    the others; solving for b_in gives r_j = (r- + i kappa_j [j = e]) /
    sigma_j. Either way r_j = g_j r- + c [j = q], so one round trip from the
    source coupler q gives r_q = c / (1 - prod g e^{i k~ L}), and each
    further arc starts at g_j e^{i k~ L / n} times the one before. J
    integrates (signal idler)* pump pump e^{i delta_kappa zeta} over each
    arc in closed form. The integral over the signal detuning, broken at the
    signal and idler resonances, runs by tanh-sinh to 15 digits, five orders
    past any tolerance it checks, and its nodes are lifted to 30 before
    omega1 = omega_S + detuning is formed."""
    with mp.workdps(30):
        ring = system.ring
        L, xi = mp.mpf(ring.circumference), mp.mpf(ring.xi)
        buses = system.buses()
        n_bus = len(buses)
        arc = L / n_bus

        def field(band, exit_channel):
            p = system.bands[band]
            k0, omega_j, v = 2 * mp.pi * p.m / L, mp.mpf(p.omega), mp.mpf(p.v)
            s = [mp.mpf(system.sigma_view(x, band)) for x in buses]
            incoming = exit_channel is None
            q = 0 if incoming else buses.index(exit_channel)  # the source coupler
            g = s if incoming else [1 / x for x in s]
            c = 1j * mp.sqrt(1 - s[q] ** 2) * (1 if incoming else g[q])

            def at(omega):
                """(start amplitude per arc, k~) at angular frequency omega."""
                kt = k0 + (omega - omega_j) / v + (0.5j if incoming else -0.5j) * xi
                hop = mp.expj(kt * arc)
                r = [0] * n_bus
                r[q] = c / (1 - mp.fprod(g) * hop ** n_bus)
                for step in range(1, n_bus):
                    j = (q + step) % n_bus
                    r[j] = g[j] * r[j - 1] * hop
                return r, kt

            return at

        pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
        omega_o = mp.mpf(pb.omega) + mp.mpf(pump.detuning)
        r_p, k_p = field(Band.PUMP, None)(omega_o)
        signal, idler = field(Band.SIGNAL, signal_exit), field(Band.IDLER, idler_exit)
        omega_s = mp.mpf(sb.omega)
        delta_kappa = mp.mpf(ring.delta_kappa)
        arc_phase = [mp.expj(delta_kappa * arc * j) for j in range(n_bus)]

        def integrand(d1):
            with mp.workdps(30):
                omega1 = omega_s + d1
                omega2 = 2 * omega_o - omega1
                (r_s, k_s), (r_i, k_i) = signal(omega1), idler(omega2)
                dk = delta_kappa + 2 * k_p - mp.conj(k_s) - mp.conj(k_i)
                x = 1j * dk * arc
                j = mp.fsum(mp.conj(r_s[n] * r_i[n]) * r_p[n] ** 2 * arc_phase[n]
                            for n in range(n_bus))
                return omega1 * omega2 * abs(j * (arc if x == 0 else arc * mp.expm1(x) / x)) ** 2

        half = mp.mpf(0.45) * 2 * mp.pi * mp.mpf(sb.v) / L
        idler_peak = 2 * omega_o - omega_s - mp.mpf(ib.omega)
        points = sorted({-half, mp.mpf(0), half} | ({idler_peak} if abs(idler_peak) < half
                                                     else set()))
        with mp.workdps(15):
            value = mp.quad(integrand, points)
        return float((mp.mpf(ring.gamma_nl) * mp.mpf(pump.power) / mp.mpf(pb.omega)) ** 2
                     * mp.mpf(pb.v) ** 2 / (2 * mp.pi * mp.mpf(sb.v) * mp.mpf(ib.v)) * value)


def gauss_legendre_half(n: int) -> tuple[list, list]:
    """The positive nodes, ascending, and their weights of the n-point
    Gauss-Legendre rule (n even), as 40-digit mpmath numbers: Newton on the
    three-term recurrence for P_n from Tricomi's first guess, and weights
    2 / ((1 - x^2) P_n'(x)^2)."""
    nodes, weights = [], []
    with mp.workdps(40):
        for k in range(n // 2, 0, -1):
            x = mp.cos(mp.pi * (k - mp.mpf(0.25)) / (n + mp.mpf(0.5)))
            for _ in range(100):
                p_prev, p = mp.mpf(1), x
                for m in range(2, n + 1):
                    p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
                dp = n * (x * p - p_prev) / (x * x - 1)
                x -= p / dp
                if abs(p / dp) < mp.mpf(10) ** -38:
                    break
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def weideman_coefficients(n: int = 40) -> tuple[float, np.ndarray]:
    """Weideman's scale L = sqrt(n / sqrt(2)) and his n polynomial
    coefficients of w(z), highest power first: the FFT of (L^2 + t^2) e^{-t^2}
    on t = L tan(theta / 2) (SIAM J. Numer. Anal. 31, 1497 (1994))."""
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return L, a[n:0:-1]


def integrate_adaptive_numpy(f, a: float, b: float, rel_tol: float = numerics.DEFAULT_RATE_RTOL,
                             points=None) -> numerics.QuadratureResult:
    """numerics.integrate_adaptive as it was written in numpy: f maps a 1-D
    array of abscissae to an array of integrand values. The same panels and
    split rule. Each rule's sum on a panel, and the value and error totals,
    are Python's sum over the terms the plain-Python form adds, in its
    order: a matmul or numpy's pairwise .sum() rounds differently (and
    Python's sum is compensated from 3.12 on), so a panel whose error sits
    within rounding of its share of the tolerance would split in one form
    and not the other."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    x_lo, x_hi = (np.concatenate([-np.array(h[::-1]), h])
                  for h in (numerics._GL8_NODES, numerics._GL16_NODES))
    w_lo, w_hi = (np.concatenate([h[::-1], h])
                  for h in (numerics._GL8_WEIGHTS, numerics._GL16_WEIGHTS))
    nodes = np.r_[x_lo, x_hi]
    edges = np.array(numerics._segment_edges(a, b, points))
    lo, hi = edges[:-1], edges[1:]
    q = np.empty((0, 2))  # (Q8, Q16) of the panels evaluated so far, which lead lo and hi
    evaluations = 0
    while True:
        half = 0.5 * (hi - lo)[len(q):, None]
        x = 0.5 * (lo + hi)[len(q):, None] + half * nodes
        terms = np.asarray(f(x.ravel())).reshape(x.shape) * half * np.r_[w_lo, w_hi]
        q = np.concatenate([q, [[sum(row[:8]), sum(row[8:])] for row in terms.tolist()]])
        evaluations += x.size
        err = np.abs(q[:, 1] - q[:, 0])
        value, abserr = sum(q[:, 1].tolist()), sum(err.tolist())
        tol = rel_tol * abs(value) + 1e-300
        if abserr <= tol:
            return numerics.QuadratureResult(value, abserr, evaluations)
        room = numerics._PANEL_LIMIT - len(lo)
        if room <= 0:
            raise numerics.QuadratureError("quadrature did not converge", value=value,
                                           error_estimate=abserr, rel_tol=rel_tol)
        worst_first = np.argsort(-err, kind="stable")[:room]
        split = np.zeros(len(lo), dtype=bool)
        split[worst_first] = err[worst_first] > tol / len(lo)
        split[worst_first[0]] = True
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
        q = q[~split]


def pair_rates_numpy(system: SystemSpec, pump: CwPump, gammas) -> dict:
    """phantom.pair_rates as it was written in numpy: decay-rate overrides
    (id -> band -> rate) that are arrays broadcast together, and every
    expression runs on the broadcast grid in the plain-Python kernel's order,
    so each cell is correctly rounded as the kernel's is."""
    rates = {c.channel_id: gammas.get(c.channel_id, c.gammas) for c in system.channels}
    pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
    L = system.ring.circumference
    gbar = {b: sum(g[b] for g in rates.values()) for b in Band}
    omega_o = pb.omega + pump.detuning

    def abs2(band, gamma, detuning=0.0):
        return 2.0 * system.bands[band].v * gamma / (L * (detuning * detuning
                                                          + gbar[band] * gbar[band]))

    f_pump2 = abs2(Band.PUMP, rates[system.pump_input_channel][Band.PUMP], pump.detuning)
    gs, gi = gbar[Band.SIGNAL], gbar[Band.IDLER]
    gsum = gs + gi
    p_vac = (HBAR / 2.0) * math.sqrt(sb.omega * ib.omega) * gs * gi * gsum \
        / (two_photon_detuning(system, pump) ** 2 + gsum * gsum)
    common = (math.sqrt(sb.omega * ib.omega) / omega_o) \
        * (pb.v ** 2 / (sb.v * ib.v)) * (system.ring.gamma_nl * L) ** 2 \
        * pump.power ** 2 * p_vac / (HBAR * omega_o) * (f_pump2 * f_pump2)
    return {(x, y): common * abs2(Band.SIGNAL, gx[Band.SIGNAL]) * abs2(Band.IDLER, gy[Band.IDLER])
            for x, gx in rates.items() for y, gy in rates.items()}


def quadratic_argmax_2d_lstsq(x, y, grid) -> tuple[float, float]:
    """sweeps.quadratic_argmax_2d as it was written in numpy, on a grid of
    len(x) x len(y) cells given flat in row-major order: np.linalg.lstsq
    fits the quadratic surface in (log x, log y) on the 3 x 3 neighbourhood
    of the first maximum, and np.linalg.solve finds its stationary point."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    grid = np.asarray(grid, dtype=float).reshape(len(x), len(y))
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
