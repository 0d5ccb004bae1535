"""Parameter sweeps: coupling optima, strategy convergence, add-drop grids."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lossy_ring_sfwm import attenuation, cli, phantom, sweeps
from lossy_ring_sfwm.config import parse_config
from lossy_ring_sfwm.model import Band, CwPump, finesse, gamma_from_sigma
from conftest import bundled, bundled_system
from oracles import pair_rates_numpy, quadratic_argmax_2d_lstsq

PUMP = CwPump(1e-3)


@pytest.fixture(scope="module")
def ring_ref():
    return bundled_system()


@pytest.fixture(scope="module")
def add_drop_ref():
    return bundled_system("add_drop.json")


class TestSweepSigma:
    def test_maximum_is_overcoupled(self, ring_ref):
        result = sweeps.sweep_sigma(ring_ref, np.linspace(0.955, 0.995, 41), PUMP)
        sigma_star = result.metadata["argmax_sigma"]
        a = result.metadata["sigma_critical"]
        assert sigma_star < a
        # high-finesse mapping of the optimum onto escape efficiency
        xi_half_l = ring_ref.ring.xi * ring_ref.ring.circumference / 2.0
        eta_star = (1.0 - sigma_star) / ((1.0 - sigma_star) + xi_half_l)
        # R ~ eta^4 (1 - eta)^3 peaks at 4/7; a rate with one fewer pump
        # |F|^2 would peak at 3/5 (docs/add_drop_optimum.md)
        assert eta_star == pytest.approx(4.0 / 7.0, abs=0.01)

    def test_decoupled_limit_is_slow(self, ring_ref):
        result = sweeps.sweep_sigma(ring_ref, np.array([0.97, 0.999]), PUMP)
        rates = result.values["rate_pairs_per_s"]
        assert rates[1] < 0.05 * rates[0]


class TestSweepEta:
    def test_curves_cross_at_critical_coupling(self, ring_ref):
        result = sweeps.sweep_eta(ring_ref, np.array([0.5]), PUMP)
        rates = [result.values[k][0] for k in sorted(result.values)]
        for r in rates[1:]:
            assert r == pytest.approx(rates[0], rel=1e-12)

    def test_argmax_near_four_sevenths(self, ring_ref):
        result = sweeps.sweep_eta(ring_ref, np.linspace(0.02, 0.98, 97), PUMP)
        assert result.metadata["argmax_eta"] == pytest.approx(4.0 / 7.0, abs=0.01)

    def test_only_collected_pairs_survive_strong_coupling(self, ring_ref):
        result = sweeps.sweep_eta(ring_ref, np.array([0.98]), PUMP)
        r_oo = result.values["R_OO"][0]
        assert result.values["R_OP"][0] == pytest.approx(r_oo * 0.02 / 0.98, rel=1e-9)
        assert result.values["R_PP"][0] < 1e-3 * r_oo

    def test_ratio_identities_along_sweep(self, ring_ref):
        etas = np.linspace(0.05, 0.95, 19)
        result = sweeps.sweep_eta(ring_ref, etas, PUMP)
        r_oo = np.asarray(result.values["R_OO"])
        np.testing.assert_allclose(np.asarray(result.values["R_OP"]) / r_oo,
                                   (1.0 - etas) / etas, rtol=1e-12)
        np.testing.assert_allclose(np.asarray(result.values["R_PP"]) / r_oo,
                                   ((1.0 - etas) / etas) ** 2, rtol=1e-12)

    def test_matches_pair_rate_cw_loop(self, ring_ref):
        etas = np.array([0.03, 0.2, 0.21, 0.57, 0.9, 0.97])
        pump = CwPump(0.7e-3, detuning=-1.1 * ring_ref.gamma_bar(Band.PUMP))
        result = sweeps.sweep_eta(ring_ref, etas, pump)
        g_ph = ring_ref.phantom_channel.gammas
        for i, eta in enumerate(etas):
            system = ring_ref.with_channel_gamma(
                "O", {b: eta * g_ph[b] / (1.0 - eta) for b in Band})
            for x, y in [("O", "O"), ("O", "P"), ("P", "O"), ("P", "P")]:
                assert result.values[f"R_{x}{y}"][i] == pytest.approx(
                    phantom.pair_rate_cw(system, pump, x, y), rel=1e-13, abs=0.0)

    @given(radius=st.floats(5e-6, 5e-5), loss=st.floats(0.5, 60.0),
           gamma_nl=st.floats(10.0, 500.0), sigma=st.floats(0.9, 0.999),
           wavelengths=st.tuples(*[st.floats(1400.0, 1700.0)] * 3),
           velocities=st.tuples(*[st.floats(0.7e8, 1.5e8)] * 3),
           power_mw=st.floats(1e-3, 100.0), detuning=st.floats(-1e11, 1e11),
           eta_min=st.floats(1e-4, 0.5), eta_max=st.floats(0.5, 0.9999),
           points=st.integers(2, 101))
    @settings(max_examples=100, deadline=None)
    def test_matches_broadcast_bit_for_bit(self, radius, loss, gamma_nl, sigma, wavelengths,
                                           velocities, power_mw, detuning, eta_min, eta_max,
                                           points):
        # sweep_eta calls pair_rates once on lists of Python floats; the
        # numpy broadcast over an eta array, the form the kernel was ported
        # from, is its oracle. The kernel writes its squares as products, so
        # they agree to the bit; with a float's x ** 2, libm's pow, they would
        # not on about 0.1% of points, which an axis of the command's spacing
        # finds
        assume(eta_min < eta_max)
        etas = cli._linspace(eta_min, eta_max, points)
        doc = bundled()
        doc["system"]["ring"].update(radius_m=radius, loss_db_per_cm=loss,
                                     gamma_nl_per_w_m=gamma_nl)
        doc["system"]["channels"][0]["coupling"] = {"sigma": sigma}
        for band, wavelength, v in zip(("pump", "signal", "idler"), wavelengths, velocities):
            doc["system"]["bands"][band] = {"wavelength_nm": wavelength,
                                            "group_velocity_m_per_s": v}
        del doc["system"]["bands"]["group_velocity_m_per_s"]
        system = parse_config(doc).system
        pump = CwPump(power_mw * 1e-3, detuning=detuning)
        result = sweeps.sweep_eta(system, etas, pump)
        eta = np.asarray(etas)
        g_ph = system.phantom_channel.gammas
        want = pair_rates_numpy(system, pump, {"O": {b: eta * g_ph[b] / (1.0 - eta)
                                                     for b in Band}})
        assert result.axes["eta"] == etas
        for (x, y), rates in want.items():
            column = result.values[f"R_{x}{y}"]
            assert all(type(r) is float for r in column)
            assert column == rates.tolist(), (x, y)


class TestCompareFinesse:
    def test_convergence_thresholds(self, ring_ref):
        fins = np.array([50.0, 84.0, 150.0, 300.0, 600.0, 1000.0, 2000.0])
        result = sweeps.compare_finesse(ring_ref, fins, PUMP)
        rel = np.asarray(result.values["rel_difference"])
        assert rel[1] <= 0.15  # near the base finesse of 84
        assert np.all(rel[fins >= 1000.0] <= 0.01)
        assert np.all(np.diff(rel) < 0.0)  # monotone convergence beyond 50

    def test_scaled_gap_settles(self, ring_ref):
        # the strategy gap falls as c / F at fixed escape efficiency, so
        # F (R_att - R_ph) / R_ph rises to a constant; a window that cut
        # the Lorentzian tails at a fixed number of linewidths bent it down
        fins = np.array([84.0, 200.0, 632.0, 2000.0, 5000.0, 20000.0])
        result = sweeps.compare_finesse(ring_ref, fins, PUMP)
        r_att = np.asarray(result.values["rate_attenuation"])
        r_ph = np.asarray(result.values["rate_phantom"])
        scaled = fins * (r_att - r_ph) / r_ph
        assert np.all(np.diff(scaled) >= 0.0), scaled
        assert scaled[-1] == pytest.approx(scaled[-2], rel=1e-3), scaled

    def test_escape_efficiency_held_fixed(self, ring_ref):
        scaled = sweeps._rescaled_coupling_system(ring_ref, 0.1)
        assert scaled.escape_efficiency("O", Band.PUMP) == pytest.approx(
            ring_ref.escape_efficiency("O", Band.PUMP), rel=1e-12)
        assert finesse(scaled) == pytest.approx(10.0 * finesse(ring_ref), rel=1e-12)


class TestCompareFinesseAddDrop:
    def test_agreement_grows_with_finesse(self, add_drop_ref):
        sigmas = np.array([0.3, 0.7, 0.95, 0.9999])
        result = sweeps.compare_finesse_add_drop(add_drop_ref, sigmas, PUMP)
        rel = result.values["rel_difference"]
        fins = result.values["finesse"]
        assert np.all(np.diff(fins) > 0.0)
        assert rel[0] > 0.5  # the coupling model breaks down at finesse ~4
        assert rel[-1] < 0.05  # and agrees at the base finesse ~84

    def test_exit_ratios_converge_to_phantom_model(self):
        # the paper's claim across strategies: lost and broken pairs relate to
        # unscattered ones as R_XY / R_TT = Gamma_S^X Gamma_I^Y / (Gamma_S^T Gamma_I^T),
        # which strategy 1 reaches, on its own path, as the finesse grows
        exits = [("T", "D"), ("D", "T"), ("D", "D")]
        gaps = []
        for scale, fin in ((1.0, 56), (0.1, 559), (0.01, 5588)):
            system = sweeps._rescaled_coupling_system(bundled_system("add_drop.json"), scale)
            assert round(finesse(system)) == fin
            closed = phantom.pair_rates(system, PUMP)
            att = {(x, y): attenuation.pair_rate_cw(system, PUMP, x, y)
                   for x, y in [("T", "T")] + exits}
            ratios = [(att[k] / att["T", "T"], closed[k] / closed["T", "T"]) for k in exits]
            gaps.append([abs(r1 - r2) / r2 for r1, r2 in ratios])
        gaps = np.array(gaps)  # rows: finesse; columns: TD, DT, DD
        assert np.all(gaps[1:] <= gaps[:-1] / 5.0)  # at least 5x per decade of finesse
        assert np.all(gaps[-1] < 1e-5)


def _sigma_system(system, channel_id, sigma):
    """The system with one bus's decay rates set from a self-coupling."""
    L = system.ring.circumference
    return system.with_channel_gamma(
        channel_id, {b: gamma_from_sigma(sigma, system.bands[b].v, L) for b in Band})


def _scaled_system(system, scale):
    """Every decay rate and the ring loss scaled by one factor."""
    ring = system.ring.replace(loss_db_per_cm=system.ring.loss_db_per_cm * scale)
    channels = tuple(c.replace(gammas={b: g * scale for b, g in c.gammas.items()})
                     for c in system.channels)
    return system.replace(ring=ring, channels=channels)


def _sweep_sigma_point(system, sigma):
    return {"rate_pairs_per_s": attenuation.pair_rate_cw(_sigma_system(system, "O", sigma),
                                                         PUMP, "O", "O")}


def _compare_finesse_point(system, fin):
    scaled = _scaled_system(system, finesse(system) / fin)
    return {"rate_attenuation": attenuation.pair_rate_cw(scaled, PUMP, "O", "O"),
            "rate_phantom": phantom.pair_rate_cw(scaled, PUMP, "O", "O")}


def _compare_finesse_add_drop_point(system, sigma2):
    point = _sigma_system(system, "D", sigma2)
    return {"rate_attenuation": attenuation.pair_rate_cw(point, PUMP, "T", "T"),
            "rate_phantom": phantom.pair_rate_cw(point, PUMP, "T", "T")}


# each strategy-1 sweep: its system fixture, a numpy axis, and the rates of
# one point computed on a system built from a Python float
STRATEGY1_SWEEPS = {
    "sweep_sigma": ("ring_ref", np.array([0.96, 0.975, 0.99]), _sweep_sigma_point),
    "compare_finesse": ("ring_ref", np.array([60.0, 300.0, 1500.0]), _compare_finesse_point),
    "compare_finesse_add_drop": ("add_drop_ref", np.array([0.5, 0.9, 0.99]),
                                 _compare_finesse_add_drop_point),
}


class TestStrategy1Sweeps:
    @pytest.mark.parametrize("name", list(STRATEGY1_SWEEPS))
    def test_nodes_run_on_python_floats(self, request, monkeypatch, name):
        # a numpy axis value must not reach the model: as a numpy scalar it
        # turns every wavevector and amplitude at every quadrature node into
        # np.complex128, whose arithmetic is several times slower
        fixture, axis, point_rates = STRATEGY1_SWEEPS[name]
        system = request.getfixturevalue(fixture)
        seen = set()
        overlap = attenuation.overlap_of_fields

        def spy(*fields, **kwargs):
            for f in fields:
                seen.add(type(f.k_prop))
                seen.update(type(a) for a in f.amps)
            return overlap(*fields, **kwargs)

        monkeypatch.setattr(attenuation, "overlap_of_fields", spy)
        result = getattr(sweeps, name)(system, axis, PUMP)
        monkeypatch.undo()
        assert seen == {complex}
        # benchmark/tracing.py counts a sweep's points as .size of its values
        assert [v.size for v in result.values.values()] == [len(axis)] * len(result.values)
        for i, x in enumerate(axis.tolist()):
            for key, rate in point_rates(system, x).items():
                assert result.values[key][i] == pytest.approx(rate, rel=1e-12, abs=0.0)


class TestAddDropGrid:
    def test_drop_pair_optimum(self, add_drop_ref):
        # a linear axis: the argmax is refined in (log t, log d) all the same,
        # where the surface is nearer a quadratic (a linear-coordinate fit
        # lands 2% off)
        axis = np.linspace(0.05, 5.0, 41)
        result = sweeps.add_drop_grid(add_drop_ref, axis, axis, PUMP)
        t_star, d_star = result.metadata["argmax"]["R_DD"]
        # stationary point of t^2 d^2 / (1 + t + d)^7 sits at (2/3, 2/3)
        assert t_star == pytest.approx(2.0 / 3.0, rel=0.005)
        assert d_star == pytest.approx(2.0 / 3.0, rel=0.005)

    def test_rise_then_fall_along_fixed_through_slice(self, add_drop_ref):
        d_axis = np.linspace(0.1, 3.0, 59)
        result = sweeps.add_drop_grid(add_drop_ref, np.array([1.4, 1.5]), d_axis, PUMP)
        slice_rates = result.values["R_DD"][len(d_axis):]  # the row t = 1.5
        peak = int(np.argmax(slice_rates))
        assert 0 < peak < len(d_axis) - 1
        assert np.all(np.diff(slice_rates[:peak + 1]) > 0.0)
        assert np.all(np.diff(slice_rates[peak:]) < 0.0)
        # the fixed-t slice of t^2 d^2 / (1 + t + d)^7 peaks at d* = 2 (1 + t) / 5,
        # which is 1.0 at t = 1.5
        assert d_axis[peak] == pytest.approx(1.0, abs=0.06)

    def test_no_drop_coupling_kills_drop_rates(self, add_drop_ref):
        system = add_drop_ref.with_channel_gamma("D", dict.fromkeys(Band, 0.0))
        for (x, y), rate in phantom.pair_rates(system, PUMP).items():
            if "D" in (x, y):
                assert rate == 0.0
            else:
                assert rate > 0.0

    def test_ratio_identities_on_grid(self, add_drop_ref):
        axis = np.array([0.3, 1.0, 2.5])
        result = sweeps.add_drop_grid(add_drop_ref, axis, axis, PUMP)
        for i, t in enumerate(axis):
            for j, d in enumerate(axis):
                r_tt = result.values["R_TT"][i * len(axis) + j]
                r_dd = result.values["R_DD"][i * len(axis) + j]
                r_td = result.values["R_TD"][i * len(axis) + j]
                assert r_dd / r_tt == pytest.approx((d / t) ** 2, rel=1e-12)
                assert r_td / r_tt == pytest.approx(d / t, rel=1e-12)

    def test_grid_deterministic(self, add_drop_ref):
        axis = np.logspace(np.log10(0.05), np.log10(5.0), 9)
        one = sweeps.add_drop_grid(add_drop_ref, axis, axis, PUMP)
        two = sweeps.add_drop_grid(add_drop_ref, axis, axis, PUMP)
        for key in one.values:
            assert np.array_equal(one.values[key], two.values[key])

    def test_every_cell_matches_scalar_rate(self, add_drop_ref):
        # irregular axes (not log-spaced) and a detuned pump
        t_axis = np.array([0.07, 0.3, 0.31, 1.2, 4.9])
        d_axis = np.array([0.05, 0.6, 2.0, 2.2])
        pump = CwPump(1.3e-3, detuning=0.8 * add_drop_ref.gamma_bar(Band.PUMP))
        result = sweeps.add_drop_grid(add_drop_ref, t_axis, d_axis, pump)
        g_ph = add_drop_ref.phantom_channel.gammas
        ids = ("T", "D", "P")
        for i, t in enumerate(t_axis):
            for j, d in enumerate(d_axis):
                system = add_drop_ref.with_channel_gamma(
                    "T", {b: t * g for b, g in g_ph.items()}).with_channel_gamma(
                    "D", {b: d * g for b, g in g_ph.items()})
                for x in ids:
                    for y in ids:
                        assert result.values[f"R_{x}{y}"][i * len(d_axis) + j] == pytest.approx(
                            phantom.pair_rate_cw(system, pump, x, y), rel=1e-13, abs=0.0)

    def test_blocks_do_not_change_values(self, add_drop_ref, monkeypatch):
        # 41^2 cells span more than one block of whole t-rows. Each cell
        # equals one pair_rates call over every cell, and blocks of 1 and of
        # 7 rows (the last of 6) give the same Columns and argmax
        axis = np.logspace(np.log10(0.05), np.log10(5.0), 41)
        assert axis.size ** 2 > sweeps._GRID_BLOCK_CELLS
        result = sweeps.add_drop_grid(add_drop_ref, axis, axis, PUMP)
        cells = result.axes["gamma_t_ratio"]
        g_ph = add_drop_ref.phantom_channel.gammas
        whole = phantom.pair_rates(add_drop_ref, PUMP, {
            "T": {b: [t * g for t in cells for _ in cells] for b, g in g_ph.items()},
            "D": {b: [d * g for _ in cells for d in cells] for b, g in g_ph.items()}})
        assert list(result.values) == [f"R_{x}{y}" for x, y in whole]
        for (x, y), rates in whole.items():
            assert result.values[f"R_{x}{y}"] == rates
        pair_rates, calls = phantom.pair_rates, []

        def counted(system, pump, gammas):
            calls.append(len(gammas["T"][Band.PUMP]))
            return pair_rates(system, pump, gammas)

        monkeypatch.setattr(phantom, "pair_rates", counted)
        for rows, sizes in ((1, [1] * 41), (7, [7] * 5 + [6])):
            monkeypatch.setattr(sweeps, "_GRID_BLOCK_CELLS", rows * axis.size)
            calls.clear()
            blocked = sweeps.add_drop_grid(add_drop_ref, axis, axis, PUMP)
            assert calls == [n * axis.size for n in sizes]
            assert blocked.values == result.values
            assert blocked.metadata == result.metadata

    def test_cells_match_numpy_broadcast_bit_for_bit(self, add_drop_ref):
        # each cell of the row-major lists has the bits of the numpy
        # broadcast over (t, d) that the grid was ported from
        t_axis = np.logspace(np.log10(0.05), np.log10(5.0), 17)
        d_axis = np.linspace(0.1, 3.0, 13)
        pump = CwPump(1.3e-3, detuning=0.8 * add_drop_ref.gamma_bar(Band.PUMP))
        result = sweeps.add_drop_grid(add_drop_ref, t_axis, d_axis, pump)
        g_ph = add_drop_ref.phantom_channel.gammas
        want = pair_rates_numpy(add_drop_ref, pump, {
            "T": {b: t_axis[:, None] * g for b, g in g_ph.items()},
            "D": {b: d_axis[None, :] * g for b, g in g_ph.items()}})
        assert [v.size for v in result.values.values()] == [17 * 13] * 9
        for (x, y), rates in want.items():
            column = result.values[f"R_{x}{y}"]
            assert all(type(r) is float for r in column)
            assert column == rates.ravel().tolist(), (x, y)


def _assert_argmax_matches_lstsq(x, y, grid):
    """The pure-Python argmax and the numpy lstsq form find the same point."""
    got = sweeps.quadratic_argmax_2d(x, y, grid)
    want = quadratic_argmax_2d_lstsq(x, y, grid)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    return got


class TestQuadraticArgmax2d:
    def test_bundled_grid_every_key(self, add_drop_ref):
        # add-drop-grid's default 81^2 axis; R_DD, R_DT, R_DP and their
        # mirrors peak inside, the rest on the d = min edge
        axis = [10.0 ** u for u in cli._linspace(np.log10(0.05), np.log10(5.0), 81)]
        result = sweeps.add_drop_grid(add_drop_ref, axis, axis, PUMP)
        assert len(result.values) == 9
        inside = 0
        for key, grid in result.values.items():
            t, d = _assert_argmax_matches_lstsq(axis, axis, grid)
            inside += t not in axis and d not in axis
        assert inside == 5

    @pytest.mark.parametrize("seed", range(20))
    def test_random_quadratic_surfaces(self, seed):
        # a negative-definite quadratic in (log x, log y) on irregular log
        # axes, plus a cubic term the 6-term fit cannot follow, so the fit
        # is a least-squares one, not an interpolation
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(5, 12, size=2)
        u = np.sort(rng.uniform(-3.0, 3.0, nx))
        v = np.sort(rng.uniform(-3.0, 3.0, ny))
        u0, v0 = rng.uniform(u[1], u[-2]), rng.uniform(v[1], v[-2])
        a, c = rng.uniform(0.5, 5.0, size=2)
        b = rng.uniform(-0.9, 0.9) * np.sqrt(a * c)
        du, dv = u[:, None] - u0, v[None, :] - v0
        z = 10.0 - (a * du * du + 2.0 * b * du * dv + c * dv * dv) + 0.05 * du ** 3
        x, y = np.exp(u).tolist(), np.exp(v).tolist()
        t, d = _assert_argmax_matches_lstsq(x, y, z.ravel().tolist())
        i, j = np.unravel_index(int(np.argmax(z)), z.shape)
        if 0 < i < nx - 1 and 0 < j < ny - 1:
            assert (t, d) != (x[i], y[j])

    def test_saddle_and_edge_return_the_grid_point(self):
        x = y = [0.5, 1.0, 2.0, 4.0, 8.0]
        # the centre is the maximum, but its neighbourhood fits a saddle:
        # high along one diagonal, low along the other
        saddle = np.zeros((5, 5))
        saddle[1:4, 1:4] = [[0.9, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 0.9]]
        uu, vv = (w.ravel() for w in np.meshgrid(*[np.log([0.5, 1.0, 2.0])] * 2, indexing="ij"))
        design = np.column_stack([np.ones(9), uu, vv, uu * uu, uu * vv, vv * vv])
        c = np.linalg.lstsq(design, saddle[1:4, 1:4].ravel(), rcond=None)[0]
        assert 4.0 * c[3] * c[5] - c[4] ** 2 < 0.0  # indefinite
        assert _assert_argmax_matches_lstsq(x, y, saddle.ravel().tolist()) == (2.0, 2.0)
        edge = np.add.outer(-(np.log(x) - np.log(2.0)) ** 2, -np.log(y))  # max at d = y[0]
        assert _assert_argmax_matches_lstsq(x, y, edge.ravel().tolist()) == (2.0, 0.5)
        with pytest.raises(phantom.ZeroRateError):
            sweeps.quadratic_argmax_2d(x, y, [0.0] * 25)


class TestSweepResult:
    def test_quadratic_argmax_refines_parabola(self):
        x = np.linspace(0.0, 2.0, 21)
        y = -(x - 0.73) ** 2
        assert sweeps.quadratic_argmax(x, y) == pytest.approx(0.73, abs=1e-12)

    def test_quadratic_argmax_takes_first_of_equal_maxima(self):
        # np.argmax's rule, which the plain-Python fit keeps
        assert sweeps.quadratic_argmax([0.0, 1.0, 2.0, 3.0, 4.0],
                                       [0.0, 1.0, 0.0, 1.0, 0.0]) == 1.0
        assert sweeps.quadratic_argmax([0.0, 1.0, 2.0], [1.0, 0.0, 1.0]) == 0.0
        with pytest.raises(phantom.ZeroRateError):
            sweeps.quadratic_argmax([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
