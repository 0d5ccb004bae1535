"""Joint spectral amplitude of photon pairs from a pulsed pump.

For a weak transform-limited Gaussian pump pulse the two-photon term of
the output state carries a biphoton wave function per channel pair,

    phi^(XX')(k1, k2) = (alpha^2 / beta) (i hbar / 2 pi) sqrt(wS wI) vP^2
                        gnl L  F_S-^(X)(k1) F_I-^(X')(k2) g(k1, k2),

with F_- = F_+* the enhancement factors `phantom` returns (the pair
leaves on outgoing-type solutions, whose factors F_+ enter conjugated),
normalized so the squared moduli summed over channel pairs integrate to
one; |beta|^2 = alpha^4 M, M the integrated squared modulus of the rest,
is then the pair generation probability, and alpha^2 / beta = 1 / sqrt(M)
does not depend on alpha. The pump factor
g depends on k1, k2 only through the two-photon detuning e = w1 + w2 -
wS - wI, the pairs' own being e_o = 2 w_o - wS - wI. After eliminating the
energy delta function,

    g(e) = (gP^2 / (L vP)) (tau / sqrt(pi)) exp(-tau^2 ((e - e_o)/2)^2)
           * Integral dx exp(-tau^2 x^2) / (b^2 - x^2),
    b = -((e - e_o)/2 + delta_p) - i GbarP,

where the Gaussian prefactor is pulled out analytically. The remaining
integral has the closed form

    Integral dx exp(-tau^2 x^2) / (b^2 - x^2) = i pi w(-tau b) / b,

with w the Faddeeva function, computed by `wofz`: Weideman's N = 40
rational approximation (SIAM J. Numer. Anal. 31, 1497 (1994)), its
coefficients written out as constants, valid for Im z >= 0, worst
relative error 1.2e-15 against 30-digit mpmath over |Re z| in
1e-3..1e6, Im z in 1e-4..1e5. Since Im b = -GbarP < 0, w is
only needed in the upper half plane, where it is bounded by 1, so g(E) is
finite for any pulse length up to tau |b| ~ 1e154, where wofz's d^2
overflows; for long pulses the Gaussian prefactor
simply underflows to zero far from e_o. Because
the ring-channel couplings are frequency independent and real, every
channel pair shares one spectral shape; a single reference-pair grid
plus per-pair real weights represents the full wave function.

The grid is square, n x n on one kappa axis. On equal signal and idler
steps, the case of every bundled configuration, cell (i, j) has
two-photon energy index i + j: g runs on the 2n - 1 energies of the
anti-diagonals and is read through a zero-copy Hankel view of them. The
grid is never held whole: a JsaGrid keeps the factors, about 3n numbers,
in a closure that forms normalized rows a block at a time, each cell in
the one floating-point order (the outer product of the factors, times g,
times the scale), so any split into blocks gives the whole grid's bits.
The normalization and the command's tables walk those blocks, and hold a
block's worth of cells at a time.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from .constants import HBAR, TWO_PI
from .frozen import Frozen, set_field
from .model import Band, PulsedPump, SystemSpec, two_photon_detuning
from .numerics import QuadratureError, integrate_adaptive
from .phantom import enhancement_factor


class FloatRangeError(FloatingPointError):
    """A JSA quantity left the float range, and `source` names the model
    input that put it there: "alpha" (the pulse amplitude), "pulse" (the
    pulse duration) or "linewidths" (the signal and idler decay rates)."""

    def __init__(self, source: str, message: str):
        super().__init__(message)
        self.source = source


class GridTooCoarseError(ArithmeticError):
    """The JSA grid missed too much of the normalization. The pairs' energy
    2 omega_o lies `offset` linewidths Gbar_S + Gbar_I from the grid centre
    omega_S + omega_I; past kappa_max, the grid's reach, no finer grid helps.
    A failed gate, as oracle-check's: an ArithmeticError, so the CLI exits 1."""

    def __init__(self, residual: float, tolerance: float, offset: float, kappa_max: float):
        advice = "increase the grid extent or resolution"
        if offset > kappa_max:
            advice = (f"the pairs' energy 2 omega_o lies {offset:.3g} linewidths (Gbar_S + "
                      f"Gbar_I) from the grid centre omega_S + omega_I; raise kappa_max "
                      f"(now {kappa_max:g}) past that or detune the pump less")
        super().__init__(
            f"JSA grid normalization residual {residual:.3e} exceeds tolerance "
            f"{tolerance:.1e}; {advice}")
        self.residual = residual


# Weideman's scale L = sqrt(N / sqrt(2)) and his N = 40 polynomial
# coefficients, highest power first: the FFT of (L^2 + t^2) e^{-t^2} on
# t = L tan(theta / 2), written out at the bits of that construction (N is
# fixed: 32 terms leave 3e-13, 40 reach 1.2e-15)
_WEIDEMAN_L = 5.3182958969449885
_WEIDEMAN_COEFFS = np.array([
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705])


def wofz(z: np.ndarray) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) on an array with Im z >= 0."""
    iz = 1j * z
    d = _WEIDEMAN_L - iz
    return 2.0 * np.polyval(_WEIDEMAN_COEFFS, (_WEIDEMAN_L + iz) / d) / (d * d) \
        + (1.0 / math.sqrt(math.pi)) / d


def _pump_g_factor(system: SystemSpec, pump: PulsedPump):
    """Returns g(e): the pump-pair spectral factor at two-photon detunings e
    = E - omega_S - omega_I (an array)."""
    pb = system.bands[Band.PUMP]
    e_o = two_photon_detuning(system, pump)
    gbar_p = system.gamma_bar(Band.PUMP)
    gamma_p2 = system.amplitude_coupling(system.pump_input_channel, Band.PUMP) ** 2
    tau = pump.tau
    L = system.ring.circumference
    scale = gamma_p2 / (L * pb.v) * tau / math.sqrt(math.pi)

    def g(e: np.ndarray) -> np.ndarray:
        half = (e - e_o) / 2.0  # (E - 2 omega_o) / 2
        b = -(half + pump.detuning) - 1j * gbar_p
        envelope = np.exp(-(tau * half) ** 2)
        return scale * envelope * (1j * math.pi) * wofz(-tau * b) / b

    return g


def _jsa_prefactor(system: SystemSpec) -> float:
    sb, ib, pb = (system.bands[b] for b in (Band.SIGNAL, Band.IDLER, Band.PUMP))
    return (HBAR / TWO_PI) * math.sqrt(sb.omega * ib.omega) * pb.v ** 2 \
        * system.ring.gamma_nl * system.ring.circumference


def total_mass(system: SystemSpec, pump: PulsedPump) -> float:
    """Integrated squared modulus of the unnormalized biphoton amplitude
    (before dividing by beta), summed over all channel pairs: the integral
    over two-photon detuning e of |g(e)|^2 times the exact integral over
    omega1 of |F_S|^2 |F_I|^2 at fixed e, to 1e-7 relative, times the
    common prefactor. The channel sums factorize, so the Lorentzian pair
    integral takes the full linewidths Gbar_S, Gbar_I as decay rates."""
    sb, ib = system.bands[Band.SIGNAL], system.bands[Band.IDLER]
    g = _pump_g_factor(system, pump)
    gbs, gbi = system.gamma_bar(Band.SIGNAL), system.gamma_bar(Band.IDLER)
    gsum = gbs + gbi
    center = two_photon_detuning(system, pump)
    half_window = 16.0 / pump.tau + 8.0 * gsum
    L = system.ring.circumference
    # the Lorentzian pair integral is lorentz / (gbs gbi (e^2 + gsum^2))
    lorentz = (2.0 * sb.v * gbs / L) * (2.0 * ib.v * gbi / L) * math.pi * gsum

    def integrand(energies: list[float]) -> list[float]:
        e = np.array(energies)
        values = np.abs(g(e)) ** 2 * (lorentz / (gbs * gbi * (e ** 2 + gsum ** 2)))
        if not np.isfinite(values).all():
            # an infinite linewidth makes lorentz inf; else the pulse did it:
            # 1 / tau overflows the window, or tau b the Faddeeva function
            if not math.isfinite(lorentz):
                raise FloatRangeError("linewidths", "the pair-mass integrand leaves the float "
                                      f"range at linewidths Gbar_S = {gbs:.3g}, Gbar_I = "
                                      f"{gbi:.3g} rad/s")
            raise FloatRangeError("pulse", "the pair-mass integrand leaves the float range "
                                  f"at pulse length tau = {pump.tau:.3g} s")
        return values.tolist()

    def mass(integral: float) -> float:
        # formed after the quadrature, so that a range error of the
        # integrand, which names the input at fault, comes first
        return _jsa_prefactor(system) ** 2 / (sb.v * ib.v) * integral

    lo, hi = center - half_window, center + half_window
    if not lo < hi:  # the window is below one ulp of a huge two-photon detuning
        raise QuadratureError(f"pair probability at alpha = 1: the window {half_window:.3g} "
                              f"rad/s either side of the two-photon detuning {center:.3g} "
                              "rad/s rounds to one point")
    try:
        quad = integrate_adaptive(integrand, lo, hi, rel_tol=1e-7,
                                  points=[(center, 1.0 / pump.tau), (0.0, gsum)])
    except QuadratureError as e:
        raise e.scaled(mass(1.0), "pair probability at alpha = 1", "") from e
    return mass(quad.value)


def grid_integrate_2d(blocks: Iterable[np.ndarray], dx: float, dy: float) -> float:
    """Trapezoidal integral of a grid given as consecutive 2-D blocks of its
    rows, so it need never be whole. Each row is trapezoided on its own, so
    every split into blocks gives the one-shot trapezoid's bits."""
    rows = []
    for block in blocks:
        if np.ndim(block) != 2:
            raise ValueError(f"expected a 2-D block of rows, got shape {np.shape(block)}")
        rows.append(np.trapezoid(block, dx=dy, axis=1))
        del block  # let go of it before the next block is formed
    return float(np.trapezoid(np.concatenate(rows), dx=dx, axis=0))


# rows per block of the normalization's |phi|^2: about the block the command's
# tables are written in (7 rows of a 512^2 grid), so the norm adds no peak
_NORM_ROWS = 8


class JsaGrid(Frozen):
    """Discretized biphoton wave function for one reference channel pair.

    kappa is the dimensionless detuning (omega - omega_J) / Gbar_J of
    either band, one axis for both. The normalized phi of the reference
    pair (k-space units, m) is held as its factors: rows(start, stop) forms
    its rows start..stop - 1 (stop may pass the last row), the same bits as
    those rows of the whole grid, and values forms the whole grid. Every
    other pair is weight * phi with the real weights keyed by (signal exit,
    idler exit). beta2 is the pair generation probability |beta|^2 for the
    pulse amplitude alpha.
    """

    __slots__ = ("kappa", "reference_pair", "weights", "beta2", "normalization_residual",
                 "rows")

    def __init__(self, kappa: np.ndarray, reference_pair: tuple[str, str],
                 weights: Mapping[tuple[str, str], float], beta2: float,
                 normalization_residual: float, rows: Callable[[int, int], np.ndarray]):
        set_field(self, "kappa", kappa)
        set_field(self, "reference_pair", reference_pair)
        set_field(self, "weights", weights)
        set_field(self, "beta2", beta2)
        set_field(self, "normalization_residual", normalization_residual)
        set_field(self, "rows", rows)

    @property
    def values(self) -> np.ndarray:
        """The whole normalized grid, shape (len(kappa), len(kappa))."""
        return self.rows(0, len(self.kappa))


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 as one real array, squared in place."""
    a = np.abs(z)
    a *= a
    return a


def _direct_pair_grid(system: SystemSpec, pump: PulsedPump, signal_exit: str,
                      idler_exit: str, kappa: np.ndarray, scale: float
                      ) -> Callable[[int, int], np.ndarray]:
    """Biphoton amplitude of one channel pair times scale on the kappa x
    kappa grid, evaluated directly from its own enhancement factors: returns
    rows(start, stop), rows start..stop - 1 as a fresh complex array, cell
    (i, j) formed as row[i] col[j], times g, times scale."""
    gbs, gbi = system.gamma_bar(Band.SIGNAL), system.gamma_bar(Band.IDLER)
    d1, d2 = gbs * kappa, gbi * kappa
    row = 1j * _jsa_prefactor(system) * enhancement_factor(system, signal_exit,
                                                           Band.SIGNAL, d1)
    col = enhancement_factor(system, idler_exit, Band.IDLER, d2)
    # two-photon detunings from the grid corner in units of the signal step.
    # On equal steps cell (i, j) has energy index i + j, so g runs once on
    # the 2n - 1 energies of the anti-diagonals and every block of rows
    # reads a zero-copy Hankel view of them; on unequal steps g runs on each
    # block's cells as the block is formed
    g = _pump_g_factor(system, pump)
    n = len(kappa)
    step1 = gbs * (kappa[1] - kappa[0])
    step2 = gbi * (kappa[1] - kappa[0])
    hankel = None
    if step2 / step1 == 1.0:
        hankel = np.lib.stride_tricks.sliding_window_view(
            g((d1[0] + d2[0]) + step1 * np.arange(2 * n - 1)), n)

    def rows(start: int, stop: int) -> np.ndarray:
        block = row[start:stop, None] * col
        if hankel is not None:
            block *= hankel[start:stop]
        else:
            block *= g((d1[0] + d2[0]) + step1 * (
                np.arange(start, min(stop, n))[:, None] + (step2 / step1) * np.arange(n)))
        block *= scale
        return block

    return rows


def reference_amplitude(system: SystemSpec, pair: tuple[str, str]) -> float:
    """gamma_S^(X) gamma_I^(Y) of the reference pair, which divides every weight."""
    amp = system.amplitude_coupling(pair[0], Band.SIGNAL) \
        * system.amplitude_coupling(pair[1], Band.IDLER)
    if amp == 0.0:
        raise ValueError(f"reference pair {list(pair)} has a zero signal or idler coupling")
    return amp


def build_jsa(system: SystemSpec, pump: PulsedPump, *, n: int = 512,
              kappa_max: float = 8.0, reference_pair: tuple[str, str] | None = None,
              residual_tol: float = 2.5e-3) -> JsaGrid:
    """Normalized biphoton wave function on an n x n grid.

    The grid spans kappa in [-kappa_max, kappa_max] on both axes
    (kappa_max >= 8 resolves the Lorentzian wings); the trapezoidal
    normalization over all channel pairs must agree with the Gauss-Legendre
    normalization total_mass within residual_tol, else GridTooCoarseError
    is raised. The normalization walks the grid in blocks of _NORM_ROWS
    rows, so no grid-sized array is formed. The grid is scaled by
    1 / sqrt(total_mass), the same bits at every alpha; alpha enters only
    beta2, which must neither underflow to 0 nor overflow.
    """
    if kappa_max < 8.0:
        raise ValueError(f"grid must cover at least 8 linewidths, got {kappa_max}")
    if n < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {n}")
    if reference_pair is None:
        phys = system.physical_channels
        reference_pair = (phys[0].channel_id, phys[0].channel_id)
    ref_amp = reference_amplitude(system, reference_pair)
    kappa = np.linspace(-kappa_max, kappa_max, n)

    mass_total = total_mass(system, pump)
    if mass_total == 0.0:
        raise FloatingPointError("the pair mass underflows to 0, so the JSA has no "
                                 "normalization")
    try:
        beta2 = pump.alpha ** 4 * mass_total
    except OverflowError:  # alpha^4 alone leaves the float range
        beta2 = math.inf
    if not 0.0 < beta2 < math.inf:
        raise FloatRangeError("alpha", "the pair probability beta2 = alpha^4 mass "
                              f"{'underflows to 0' if beta2 == 0.0 else 'overflows'} at "
                              f"alpha = {pump.alpha:.3g}")
    rows = _direct_pair_grid(system, pump, reference_pair[0], reference_pair[1], kappa,
                             1.0 / math.sqrt(mass_total))

    weights = {(x, y): system.amplitude_coupling(x, Band.SIGNAL)
               * system.amplitude_coupling(y, Band.IDLER) / ref_amp
               for x in system.channel_ids for y in system.channel_ids}
    # k-space grid steps [1/m]
    dk_s = system.gamma_bar(Band.SIGNAL) * (kappa[1] - kappa[0]) / system.bands[Band.SIGNAL].v
    dk_i = system.gamma_bar(Band.IDLER) * (kappa[1] - kappa[0]) / system.bands[Band.IDLER].v
    sum_w2 = sum(w ** 2 for w in weights.values())
    grid_norm = sum_w2 * grid_integrate_2d(
        (abs2(rows(start, start + _NORM_ROWS))
         for start in range(0, n, _NORM_ROWS)), dk_s, dk_i)
    residual = abs(grid_norm - 1.0)
    if residual > residual_tol:
        offset = abs(two_photon_detuning(system, pump)) \
            / (system.gamma_bar(Band.SIGNAL) + system.gamma_bar(Band.IDLER))
        raise GridTooCoarseError(residual, residual_tol, offset, kappa_max)
    return JsaGrid(kappa=kappa, reference_pair=reference_pair, weights=weights, beta2=beta2,
                   normalization_residual=residual, rows=rows)


def direct_pair_grid(system: SystemSpec, pump: PulsedPump, signal_exit: str,
                     idler_exit: str, grid: JsaGrid) -> np.ndarray:
    """Normalized biphoton amplitude of one pair evaluated from scratch on
    the grid's axes (for checking shape constancy against the weights)."""
    return _direct_pair_grid(system, pump, signal_exit, idler_exit, grid.kappa,
                             1.0 / math.sqrt(total_mass(system, pump)))(0, len(grid.kappa))
