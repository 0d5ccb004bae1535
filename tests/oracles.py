"""Independent oracles the tests check the model and its constants against.

Tests import these helpers (`from oracles import ...`): the lossless point
coupler written out as a 2x2 junction, and a direct numerical scan of the
ring overlap, both deliberately ignorant of the closed forms in `src/`;
the strategy-1 pair rate at 30 digits from the transfer functions in
absolute wavenumbers; Gauss-Legendre rules from 40-digit roots of the Legendre polynomials;
Weideman's Faddeeva coefficients by his FFT construction; and the numpy
form of the adaptive quadrature that the plain-Python one was ported from.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from lossy_ring_sfwm import numerics
from lossy_ring_sfwm.attenuation import RingField
from lossy_ring_sfwm.model import Band, CwPump, SystemSpec


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

    Each arc segment is scanned separately because the field amplitudes
    jump across coupling points."""
    fields = ((signal, True), (idler, True), (pump, False), (pump, False))  # (field, conjugated)
    n_seg = len(signal.segments)
    if any(len(f.segments) != n_seg for f, _ in fields):
        raise ValueError("fields must share one ring segmentation")
    total = 0.0 + 0.0j
    start = 0.0
    per_segment = max(n // n_seg, 64)
    for seg in range(n_seg):
        length = signal.segments[seg][0]
        local = np.linspace(0.0, length, per_segment)
        vals = np.ones_like(local, dtype=complex)
        for f, conj in fields:
            amp = f.segments[seg][1] * np.exp(1j * f.k_prop * local)
            vals = vals * (np.conj(amp) if conj else amp)
        vals *= np.exp(1j * delta_kappa * (start + local))
        total += np.trapezoid(vals, local)
        start += length
    return complex(total)


def strategy1_rate_mp(system: SystemSpec, pump: CwPump, signal_exit: str,
                      idler_exit: str) -> float:
    """The strategy-1 CW pair rate, (1/2pi) (gamma_nl P / omega_P)^2 v_P^2 /
    (v_S v_I) times the integral of omega1 omega2 |J|^2 over signal
    frequencies within 0.45 of a free spectral range of omega_S, written out
    from the point-coupler transfer functions at 30 digits.

    Each field is the physical one, A_j e^{i k~ zeta} on the arc after
    coupler j, in the absolute wavenumber k = 2 pi m / L + (omega - omega_J)
    / v with k~ = k + i xi / 2 incoming and k - i xi / 2 outgoing; the
    couplers sit at zeta = 0 and, on an add-drop ring, L / 2. J integrates
    (signal idler)* pump pump e^{i delta_kappa zeta} over each arc in closed
    form. The integral over the signal detuning, broken at the signal and
    idler resonances, runs by tanh-sinh to 15 digits, five orders past any
    tolerance it checks, and its nodes are lifted to 30 before omega1 =
    omega_S + detuning is formed."""
    with mp.workdps(30):
        ring = system.ring
        L, xi = mp.mpf(ring.circumference), mp.mpf(ring.xi)
        buses = system.buses(1, 2)
        starts = [L * j / len(buses) for j in range(len(buses) + 1)]

        def field(band, exit_channel):
            p = system.bands[band]
            k0, omega_j, v = 2 * mp.pi * p.m / L, mp.mpf(p.omega), mp.mpf(p.v)
            s = [mp.mpf(system.sigma_view(x, band)) for x in buses]
            i_kappa = [1j * mp.sqrt(1 - x * x) for x in s]
            prod = mp.fprod(s)

            def at(omega):
                """(amplitude per arc, k~) at angular frequency omega."""
                k = k0 + (omega - omega_j) / v
                if exit_channel is None:  # a unit wave in through the pump bus at 0
                    kt = k + 0.5j * xi
                    a = i_kappa[0] / (1 - prod * mp.expj(kt * L))
                    return [a] + [x * a for x in s[1:]], kt
                kt = k - 0.5j * xi
                den = prod - mp.expj(kt * L)
                if exit_channel == buses[0]:  # a unit wave out through the bus at 0
                    a = i_kappa[0] * prod / s[0] / den
                    return [a] + [a / x for x in s[1:]], kt
                # out through the drop at L / 2, A e^{i k~ (zeta - L / 2)} past it
                a = i_kappa[1] * s[0] / den * mp.expj(-kt * L / 2)
                return [a * mp.expj(kt * L) / s[0], a], kt

            return at

        pb, sb, ib = (system.bands[b] for b in (Band.PUMP, Band.SIGNAL, Band.IDLER))
        omega_o = mp.mpf(pb.omega) + mp.mpf(pump.detuning)
        a_p, k_p = field(Band.PUMP, None)(omega_o)
        signal, idler = field(Band.SIGNAL, signal_exit), field(Band.IDLER, idler_exit)
        omega_s = mp.mpf(sb.omega)

        def integrand(d1):
            with mp.workdps(30):
                omega1 = omega_s + d1
                omega2 = 2 * omega_o - omega1
                (a_s, k_s), (a_i, k_i) = signal(omega1), idler(omega2)
                dk = mp.mpf(ring.delta_kappa) + 2 * k_p - mp.conj(k_s) - mp.conj(k_i)
                j = 0
                for n in range(len(buses)):
                    length = starts[n + 1] - starts[n]
                    x = 1j * dk * length
                    j += mp.conj(a_s[n] * a_i[n]) * a_p[n] ** 2 * mp.expj(dk * starts[n]) \
                        * (length if x == 0 else length * mp.expm1(x) / x)
                return omega1 * omega2 * abs(j) ** 2

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
    split rule; each round's rules are one (panels, 24) x (24, 2) matmul."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    x_lo, x_hi = (np.concatenate([-np.array(h[::-1]), h])
                  for h in (numerics._GL8_NODES, numerics._GL16_NODES))
    w_lo, w_hi = (np.concatenate([h[::-1], h])
                  for h in (numerics._GL8_WEIGHTS, numerics._GL16_WEIGHTS))
    nodes = np.r_[x_lo, x_hi]
    weights = np.stack([np.r_[w_lo, 0.0 * w_hi], np.r_[0.0 * w_lo, w_hi]], 1)
    edges = np.array(numerics._segment_edges(a, b, points))
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
