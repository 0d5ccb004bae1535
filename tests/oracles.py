"""Independent oracles the tests check the model and its constants against.

Tests import these helpers (`from oracles import ...`): the lossless point
coupler written out as a 2x2 junction, and a direct numerical scan of the
ring overlap, both deliberately ignorant of the closed forms in `src/`;
Gauss-Legendre rules from 40-digit roots of the Legendre polynomials; and
Weideman's Faddeeva coefficients by his FFT construction.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from lossy_ring_sfwm.attenuation import RingField


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
