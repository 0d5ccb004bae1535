"""Command-line interface.

    lossy-ring-sfwm <command> --config cfg.json [--out DIR] [--tol X]

Commands: rate, ratios, sweep-sigma, sweep-eta, compare-finesse,
add-drop-grid, jsa, oracle-check; only jsa and oracle-check have a gate,
and only they accept --tol. Every command rejects an options block that
no command reads, and any key of its own block that it does not read.
Each command writes CSV data files and a JSON metadata sidecar
(configuration hash, derived parameters, tolerances achieved) into the
output directory. Outputs are byte-stable for a fixed configuration:
stable column order, shortest round-trip decimals, no timestamps. Only
main reports a failure, in one stderr line; the exception's class picks
the exit status: 1 for an ArithmeticError (a failed quadrature, a rate
that is zero, not finite or singular, or a failed gate: jsa's residual or
oracle-check's deviation), 2 for a ConfigError or GeometryError (a bad
config or geometry) or an option the command does not take; 0 on success.

Each command runs in a fresh process, which compiles every module it
loads when no bytecode cache is written, so each handler imports the
layers it runs. Importing cli and parsing a config load config, model,
frozen and constants and no numpy, so --help, a bad option and a bad
config exit without it. Of the standard library they load argparse,
contextlib, csv, enum, json, math, pathlib, typing, warnings and the
built-in SHA-256, with what those import (re, functools, collections,
os), and neither dataclasses nor inspect, which would bring ast, dis and
tokenize: the value classes are plain classes on frozen.Frozen. (From
Python 3.14 argparse's help formatter, built by every add_argument, loads
dataclasses for its colour themes, so building the parser does.) ratios
and oracle-check load numerics and phantom, rate attenuation too,
sweep-eta and add-drop-grid numerics, phantom and sweeps, sweep-sigma and
compare-finesse attenuation too, and jsa numerics, jsa and phantom.
Every command but jsa computes in Python floats and loads no numpy;
only jsa loads it, for its complex grid, and keeps numpy's
RuntimeWarnings off stderr. add-drop-grid and jsa write their grids
through orjson, a block of rows at a time, and neither holds its grid
whole: add-drop-grid holds only its nine value Columns, about 1.9 MB at
81^2, for the argmax fit. Both log axes, compare-finesse's and
add-drop-grid's, are libm's 10 ** u over a linear axis of exponents. No
command loads OpenSSL (the config hash is CPython's built-in SHA-256),
numpy.polynomial or numpy.fft (the quadrature and Faddeeva tables are
constants), and no module of the package imports dataclasses.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .config import ConfigError, RunConfig, _check_keys, _number, derived_echo, parse_config
from .constants import TWO_PI
from .model import (Band, CwPump, GeometryError, PulsedPump, finesse, gamma_from_sigma,
                    sigma_from_gamma)

if TYPE_CHECKING:  # the handlers import the layers they run
    from .sweeps import SweepResult


def _write_csv(path: Path, header: list, rows) -> None:
    """Rows hold Python floats, ints and strings; csv writes a float as its
    shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# cells per orjson call of _write_float_csv: one call and one set of masks
# per row cost more than repr on a narrow table, and the text and masks of a
# larger block would raise the peak memory
_WRITE_CELLS = 4096
# the layout bands of |x| of _write_float_csv: orjson writes |x| < _TINY and
# _PLAIN[0] < |x| < _PLAIN[1] as repr does, and an exponent of one digit
# where repr writes two in _PAD
_TINY, _PAD, _PLAIN = 0.9e-9, (1.1e-9, 0.9e-5), (1.1e-4, 0.9e16)


def _mend_row(line: bytes, pad: list[int], by_repr: list[tuple[int, float]]) -> bytes:
    """One orjson row with repr's two-digit exponent in its cells `pad` and
    repr's text for each (cell, value) of by_repr."""
    cells = line.split(b",")
    for j in pad:
        cells[j] = cells[j].replace(b"e-", b"e-0")
    for j, x in by_repr:
        cells[j] = repr(x).encode()
    return b",".join(cells)


@contextlib.contextmanager
def _write_float_csv(path: Path, header: list):
    """Writes the header and yields append(*columns), which writes a block
    of rows in the bytes csv.writer writes for the same rows of Python
    floats: a list of rows of Python floats, or numpy float columns (1-D, or
    2-D blocks of them).

    Callers append their rows a block at a time, so no table is held
    whole: the 2-D grids are up to 263k cells. repr's bignum dtoa would
    spend most of a jsa run on them. orjson's Ryu formatter picks the same
    shortest round-trip digits about 20x faster; only its layout can
    differ. Cells with 1.1e-9 < |x| < 0.9e-5 get repr's two-digit exponent
    (e-7 -> e-07). Cells with |x| < 0.9e-9 or 1.1e-4 < |x| < 0.9e16 are
    already laid out as repr lays them out. Every other cell is written by
    repr: the 1e-5..1e-4 band, where only repr uses an exponent, the 10%
    margins around 1e-9 and 1e-4, |x| >= 0.9e16 (repr writes e+16) and
    NaN/inf (orjson writes null). Each block is one orjson call, split into
    its rows; the writer mends row by row, splitting into cells and
    re-joining only the rows that hold a cell to mend. A block of Python
    floats is tested in Python, a column at a time, and a numpy block by
    numpy masks, so a writer of lists loads no numpy.
    """
    # orjson is imported here, so that the commands writing no grid never load it
    import orjson

    def append_rows(rows: list) -> None:
        step = max(1, _WRITE_CELLS // len(rows[0]))
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            lines = orjson.dumps(block)[2:-2].split(b"],[")
            mends: dict[int, tuple[list, list]] = {}  # row -> (pad, by_repr)
            for j, column in enumerate(zip(*block)):
                # positive cells in the plain band, the common case, are as
                # repr writes them; a NaN would pass min and max, not sum
                if _PLAIN[0] < min(column) and max(column) < _PLAIN[1] \
                        and math.isfinite(sum(column)):
                    continue
                for i, x in enumerate(column):
                    if _PAD[0] < abs(x) < _PAD[1]:
                        mends.setdefault(i, ([], []))[0].append(j)
                    elif not (abs(x) < _TINY or _PLAIN[0] < abs(x) < _PLAIN[1]):
                        mends.setdefault(i, ([], []))[1].append((j, x))
            for i, (pad, by_repr) in mends.items():
                lines[i] = _mend_row(lines[i], pad, by_repr)
            lines.append(b"")
            fh.buffer.write(b"\r\n".join(lines))

    def append_arrays(*columns) -> None:
        import numpy as np

        width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
        step = max(1, _WRITE_CELLS // width)
        for start in range(0, len(columns[0]), step):
            block = np.column_stack([c[start:start + step] for c in columns])
            lines = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
            a = np.abs(block)
            pad = (a > _PAD[0]) & (a < _PAD[1])
            by_repr = ~(pad | (a < _TINY) | ((a > _PLAIN[0]) & (a < _PLAIN[1])))
            for i in np.flatnonzero((pad | by_repr).any(axis=1)).tolist():
                lines[i] = _mend_row(lines[i], np.flatnonzero(pad[i]).tolist(),
                                     [(j, float(block[i, j]))
                                      for j in np.flatnonzero(by_repr[i]).tolist()])
            lines.append(b"")
            fh.buffer.write(b"\r\n".join(lines))

    def append(*columns) -> None:
        if isinstance(columns[0], list):
            append_rows(*columns)
        else:
            append_arrays(*columns)

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()
        yield append


def _write_sweep(outdir: Path, command: str, config: RunConfig,
                 result: SweepResult) -> None:
    """<stem>.csv holds the sweep axis, then every value column in the result's
    order, each under its name; <stem>_meta.json the result's metadata."""
    stem = command.replace("-", "_")
    ((name, axis),) = result.axes.items()
    _write_csv(outdir / f"{stem}.csv", [name] + list(result.values),
               zip(axis, *result.values.values()))
    _write_metadata(outdir, command, config, result.metadata)


def _write_metadata(outdir: Path, command: str, config: RunConfig, extra: dict) -> None:
    """<stem>_meta.json: the command, the config hash, the strategy and the
    derived parameters, then the command's own entries."""
    meta = {"command": command, "config_hash": config.config_hash,
            "strategy": config.strategy, "derived": derived_echo(config), **extra}
    with open(outdir / f"{command.replace('-', '_')}_meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _require_cw(config: RunConfig) -> CwPump:
    if not isinstance(config.pump, CwPump):
        raise ConfigError("pump.kind", "this command needs a CW pump")
    return config.pump


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) in Python floats, bit for bit: i * step + lo
    with step = (hi - lo) / (n - 1), or (i / (n - 1)) * (hi - lo) + lo where
    that step underflows to 0, and hi last."""
    delta, div = hi - lo, n - 1
    step = delta / div
    return [(i * step if step != 0.0 else i / div * delta) + lo for i in range(div)] + [hi]


def _axis(config: RunConfig, name: str, lo_key: str, hi_key: str, n_key: str, defaults,
          *, log=False, unit: str | None = None) -> list[float]:
    """The swept axis of a command's options block, as Python floats: linear,
    or log-spaced where log is set."""
    # unit: "(0, 1)" for an escape efficiency, "(0, 1]" for a self-coupling
    block, path = config.options.get(name, {}), f"options.{name}"
    _check_keys(block, {lo_key, hi_key, n_key}, path)
    lo = _number(block, lo_key, path, default=defaults[0], positive=log)
    hi = _number(block, hi_key, path, default=defaults[1])
    n = _number(block, n_key, path, default=defaults[2], minimum=2, integer=True)
    for key, v in ((lo_key, lo), (hi_key, hi)):
        if unit and not (0.0 < v < 1.0 or v == 1.0 and unit.endswith("]")):
            raise ConfigError(f"{path}.{key}", f"must lie in {unit}, got {v}")
    if log:  # libm's log10 and pow over a linear axis of exponents
        try:
            axis = [10.0 ** u for u in _linspace(math.log10(lo), math.log10(hi), n)]
        except OverflowError as e:  # 10 ** log10(hi) rounds past the largest float
            raise ConfigError(f"{path}.{hi_key}", f"10 ** log10({hi}) overflows") from e
    else:
        axis = _linspace(lo, hi, n)
    # the one check of the axis: bounds too close for n distinct floats
    # between them fail it as hi <= lo does
    if not all(a < b for a, b in zip(axis, axis[1:])):
        raise ConfigError(f"{path}.{hi_key}", f"[{lo}, {hi}] x {n} is not a strictly "
                          "increasing axis")
    return axis


def _require_lossy_phantom(config: RunConfig) -> None:
    """sweep-eta and add-drop-grid set couplings in units of the phantom decay rate."""
    channel = config.system.phantom_channel
    if channel is not None and 0.0 in channel.gammas.values():
        raise ConfigError(config.sources[channel.channel_id],
                          "the phantom decay rate, the unit of the swept couplings, is zero")


def _widest_channel_field(config: RunConfig) -> str:
    """The coupling field of the channel with the largest signal plus idler
    decay rate, the one that takes the linewidths out of the float range."""
    widest = max(config.system.channels, key=lambda c: c.gamma(Band.SIGNAL) + c.gamma(Band.IDLER))
    return config.sources[widest.channel_id]


def _require_strategy1(config: RunConfig, channel_ids, *, scale: float = 1.0,
                       path: str | None = None) -> None:
    """Strategy 1 models each bus as a point coupler: its decay rate, times the
    largest scale a sweep applies, must leave a self-coupling above 0. Its
    outgoing fields grow as e^{xi L / 2} around the ring, which at that scale
    must stay finite. The error names `path`, else the channel's coupling
    field or the ring loss. The signal window, 0.45 of a free spectral range
    either side of the signal resonance, must reach past that resonance: the
    free spectral range must exceed one ulp of omega_S, and the idler of a
    resonant signal must lie above the window's 1e-3 omega_I floor. No
    coupling enters the window, so one check holds for every point of a
    sweep."""
    from . import attenuation

    system = config.system
    sb = system.bands[Band.SIGNAL]
    if not sb.omega + TWO_PI * sb.v / system.ring.circumference > sb.omega:
        raise ConfigError("system.ring.radius_m", "makes the free spectral range, which caps "
                          "strategy 1's signal window, smaller than one ulp of omega_S")
    _, hi = attenuation.signal_window(system, config.pump)
    if not hi > 0.0:
        raise ConfigError("pump.detuning_rad_per_s", "puts the idler of a resonant signal "
                          "below 1e-3 omega_I, so strategy 1 has no signal window")
    try:
        math.exp(system.ring.xi * scale * system.ring.circumference / 2.0)
    except OverflowError as e:
        raise ConfigError(path or "system.ring.loss_db_per_cm", "the outgoing fields of "
                          "strategy 1, which grow as e^(xi L / 2), overflow") from e
    for c in system.channels:
        if c.channel_id not in channel_ids:
            continue
        try:
            for b in Band:
                sigma_from_gamma(c.gamma(b) * scale, system.bands[b].v,
                                 system.ring.circumference)
        except ValueError as e:
            raise ConfigError(path or config.sources[c.channel_id], str(e)) from e


def cmd_rate(config: RunConfig, outdir: Path, tol) -> None:
    from . import phantom

    system, pump = config.system, _require_cw(config)
    rows, meta = [], {}
    matched: dict[str, float] = {}
    if config.strategy in ("phantom", "both"):
        rates = phantom.pair_rates(system, pump)
        rows += [("phantom", x, y, rate) for (x, y), rate in rates.items()]
        gbar = [system.gamma_bar(b) for b in (Band.SIGNAL, Band.IDLER)]
        meta["p_vac_w"] = phantom.pair_vacuum_power(system, pump, *gbar)
        matched["phantom"] = rates[(system.pump_input_channel,) * 2]
    if config.strategy in ("attenuation", "both"):
        from . import attenuation

        buses = system.buses()
        _require_strategy1(config, buses)
        rates = {(x, y): attenuation.pair_rate_cw(system, pump, x, y)
                 for x in buses for y in buses}
        rows += [("attenuation", x, y, rate) for (x, y), rate in rates.items()]
        matched["attenuation"] = rates[(system.pump_input_channel,) * 2]
    if len(matched) == 2:
        meta["rel_difference"] = phantom.rel_difference(matched["attenuation"],
                                                        matched["phantom"])
    _write_csv(outdir / "rate.csv",
               ["strategy", "signal_exit", "idler_exit", "rate_pairs_per_s"], rows)
    _write_metadata(outdir, "rate", config, meta)


def cmd_ratios(config: RunConfig, outdir: Path, tol) -> None:
    from . import phantom

    pump = _require_cw(config)
    rates = phantom.pair_rates(config.system, pump)
    ref = (config.system.physical_channels[0].channel_id,) * 2
    if rates[ref] == 0.0:
        raise phantom.ZeroRateError(f"reference rate R[{ref[0]},{ref[1]}] is zero")
    rows = [(x, y, *ref, rate / rates[ref]) for (x, y), rate in rates.items()]
    _write_csv(outdir / "ratios.csv",
               ["signal_exit", "idler_exit", "ref_signal_exit", "ref_idler_exit",
                "ratio"], rows)
    _write_metadata(outdir, "ratios", config, {"reference_pair": list(ref)})


def cmd_sweep_sigma(config: RunConfig, outdir: Path, tol) -> None:
    from . import sweeps

    pump = _require_cw(config)
    axis = _axis(config, "sweep_sigma", "min", "max", "points", (0.90, 0.9995, 101),
                 unit="(0, 1]")
    _require_strategy1(config, [])  # the ring loss: the sweep sets the bus coupling
    system = config.system
    L = system.ring.circumference
    for b in Band:  # the lowest sigma sets the largest decay rate of the sweep
        gamma = gamma_from_sigma(axis[0], system.bands[b].v, L)
        try:
            sigma_from_gamma(gamma, system.bands[b].v, L)
        except ValueError as e:
            if math.isinf(gamma):
                raise ConfigError(config.sources[b], "the bus decay rate "
                                  f"(1 - sigma) v / L at sigma = {axis[0]} overflows") from e
            raise ConfigError("options.sweep_sigma.min", str(e)) from e
    if axis[-1] == 1.0:  # a lossless ring has no linewidth once the bus decouples
        # a ring of another bus count is the geometry's fault, not the option's
        buses = sweeps.ring_buses(system, 1)
        try:
            system.with_channel_gamma(*buses, dict.fromkeys(Band, 0.0))
        except ValueError as e:
            raise ConfigError("options.sweep_sigma.max",
                              f"sigma = 1 decouples the bus: {e}") from e
    _write_sweep(outdir, "sweep-sigma", config, sweeps.sweep_sigma(config.system, axis, pump))


def cmd_sweep_eta(config: RunConfig, outdir: Path, tol) -> None:
    from . import sweeps

    pump = _require_cw(config)
    axis = _axis(config, "sweep_eta", "min", "max", "points", (0.02, 0.98, 101),
                 unit="(0, 1)")
    _require_lossy_phantom(config)
    _write_sweep(outdir, "sweep-eta", config, sweeps.sweep_eta(config.system, axis, pump))


def cmd_compare_finesse(config: RunConfig, outdir: Path, tol) -> None:
    from . import sweeps

    pump = _require_cw(config)
    if len(config.system.physical_channels) == 2:
        axis = _axis(config, "compare_finesse", "sigma2_min", "sigma2_max", "points",
                     (0.3, 0.9999, 25), unit="(0, 1]")
        _require_strategy1(config, [config.system.pump_input_channel])  # the through bus
        result = sweeps.compare_finesse_add_drop(config.system, axis, pump)
    else:
        axis = _axis(config, "compare_finesse", "min", "max", "points", (50.0, 2000.0, 25),
                     log=True)
        # every coupling scales by finesse / axis value, most at the lowest finesse
        _require_strategy1(config, [config.system.pump_input_channel],
                           scale=finesse(config.system) / axis[0],
                           path="options.compare_finesse.min")
        result = sweeps.compare_finesse(config.system, axis, pump)
    _write_sweep(outdir, "compare-finesse", config, result)


def cmd_add_drop_grid(config: RunConfig, outdir: Path, tol) -> None:
    from . import sweeps

    pump = _require_cw(config)
    axis = _axis(config, "add_drop_grid", "min_ratio", "max_ratio", "points",
                 (0.05, 5.0, 81), log=True)
    _require_lossy_phantom(config)
    result = sweeps.add_drop_grid(config.system, axis, axis, pump)
    keys = sorted(result.values)
    t_axis, d_axis = result.axes["gamma_t_ratio"], result.axes["gamma_d_ratio"]
    n_d = len(d_axis)
    # whole t-rows of the row-major values, about one orjson call of the writer
    step = max(1, _WRITE_CELLS // ((2 + len(keys)) * n_d))
    with _write_float_csv(outdir / "add_drop_grid.csv",
                          ["gamma_t_ratio", "gamma_d_ratio"] + keys) as append:
        for start in range(0, len(t_axis), step):
            ts = t_axis[start:start + step]
            cells = slice(start * n_d, (start + len(ts)) * n_d)
            append(list(zip([t for t in ts for _ in d_axis], d_axis * len(ts),
                            *(result.values[k][cells] for k in keys))))
    _write_metadata(outdir, "add-drop-grid", config,
                    {"argmax": result.metadata["argmax"], "pump_power_w": pump.power,
                     "pump_detuning_rad_per_s": pump.detuning})


def _reference_pair(config: RunConfig, ref) -> tuple[str, str]:
    """A JSA reference pair: two channel ids whose signal and idler couplings
    are nonzero, since every other pair is scaled by their inverse."""
    from . import jsa

    ids = config.system.channel_ids
    if not (isinstance(ref, list) and len(ref) == 2 and all(c in ids for c in ref)):
        raise ConfigError("options.jsa.reference_pair",
                          f"expected a list of two channel ids from {list(ids)}, got {ref!r}")
    try:
        jsa.reference_amplitude(config.system, (ref[0], ref[1]))
    except ValueError as e:
        raise ConfigError("options.jsa.reference_pair", str(e)) from e
    return ref[0], ref[1]


def cmd_jsa(config: RunConfig, outdir: Path, tol) -> None:
    import numpy as np

    from . import jsa

    pump = config.pump
    if not isinstance(pump, PulsedPump):
        raise ConfigError("pump.kind", "the jsa command needs a pulsed pump")
    block, path = config.options.get("jsa", {}), "options.jsa"
    _check_keys(block, {"grid_points", "kappa_max", "residual_tol", "reference_pair"}, path)
    n = _number(block, "grid_points", path, default=512, minimum=2, integer=True)
    kappa_max = _number(block, "kappa_max", path, default=8.0, minimum=8.0)
    residual_tol = tol if tol is not None else _number(block, "residual_tol", path,
                                                       default=2.5e-3, minimum=0.0)
    default_ref = [config.system.physical_channels[0].channel_id] * 2  # as in build_jsa
    ref_pair = _reference_pair(config, block.get("reference_pair", default_ref))
    with warnings.catch_warnings():
        # numpy would warn of an overflow or a 0/0 on stderr, as a pulse of
        # 1e-300 ps makes it do; jsa raises on a result that is not finite
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            grid = jsa.build_jsa(config.system, pump, n=n, kappa_max=kappa_max,
                                 reference_pair=ref_pair, residual_tol=residual_tol)
        except jsa.FloatRangeError as e:
            field = {"alpha": "pump.alpha", "pulse": "pump.duration_fwhm_ps"}.get(e.source)
            raise ConfigError(field or _widest_channel_field(config), str(e)) from e

        header = ["kappa1\\kappa2"] + grid.kappa.tolist()
        # each block of rows is formed once and appended to both tables, one
        # orjson call each
        block_rows = max(1, _WRITE_CELLS // len(header))
        with _write_float_csv(outdir / "jsa_abs2.csv", header) as append_abs2, \
                _write_float_csv(outdir / "jsa_phase.csv", header) as append_phase:
            for start in range(0, n, block_rows):
                phi = grid.rows(start, start + block_rows)
                kappa = grid.kappa[start:start + block_rows]
                append_abs2(kappa, jsa.abs2(phi))
                append_phase(kappa, np.angle(phi))
    _write_csv(outdir / "jsa_weights.csv",
               ["signal_exit", "idler_exit", "weight_re", "weight_im", "weight_abs2"],
               [(x, y, w, 0.0, w ** 2)
                for (x, y), w in grid.weights.items()])
    _write_metadata(outdir, "jsa", config, {
        "grid_points": n,
        "kappa_max": kappa_max,
        "reference_pair": list(grid.reference_pair),
        "beta2": grid.beta2,
        "normalization_residual": grid.normalization_residual,
        "residual_tol": residual_tol,
        "pump_duration_fwhm_s": pump.duration_fwhm,
    })


def cmd_oracle_check(config: RunConfig, outdir: Path, tol) -> None:
    from . import phantom

    pump = _require_cw(config)
    block, path = config.options.get("oracle_check", {}), "options.oracle_check"
    _check_keys(block, {"max_rel_dev"}, path)
    max_dev_tol = tol if tol is not None else _number(block, "max_rel_dev", path,
                                                      default=1e-6, minimum=0.0)
    system = config.system
    rates = phantom.pair_rates(system, pump)
    rows = []
    worst = 0.0
    for x in system.channel_ids:
        for y in system.channel_ids:
            closed = float(rates[(x, y)])
            oracle = phantom.fgr_rate_oracle(system, pump, x, y)
            dev = abs(oracle - closed) / closed if closed > 0 else abs(oracle)
            worst = max(worst, dev)
            rows.append((x, y, closed, oracle, dev))
    _write_csv(outdir / "oracle_check.csv",
               ["signal_exit", "idler_exit", "closed_form_pairs_per_s",
                "oracle_pairs_per_s", "rel_deviation"], rows)
    _write_metadata(outdir, "oracle-check", config,
                    {"max_rel_deviation": worst, "tolerance": max_dev_tol})
    print(f"oracle-check: max relative deviation {worst:.3e} (tolerance {max_dev_tol:.1e})")
    if worst > max_dev_tol:
        raise ArithmeticError("deviation exceeds tolerance")


_HANDLERS = {
    "rate": cmd_rate,
    "ratios": cmd_ratios,
    "sweep-sigma": cmd_sweep_sigma,
    "sweep-eta": cmd_sweep_eta,
    "compare-finesse": cmd_compare_finesse,
    "add-drop-grid": cmd_add_drop_grid,
    "jsa": cmd_jsa,
    "oracle-check": cmd_oracle_check,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one line, as a bad config gets: no usage lines
        self.exit(2, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """--tol, finite and >= 0 as the config's residual_tol and max_rel_dev."""
    with contextlib.suppress(ValueError):
        if 0.0 <= (tol := float(text)) < math.inf:
            return tol
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lossy-ring-sfwm",
        description="Photon-pair generation in lossy microring-waveguide systems.")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help="override the tolerance gate of jsa (normalization "
                             "residual) or oracle-check (relative deviation); "
                             "the other commands have no gate and reject it")
    return parser


_GATED = ("jsa", "oracle-check")  # the commands that read --tol
# the options blocks, one per command that reads options; each command
# checks the keys of its own block
_OPTION_BLOCKS = {"sweep_sigma", "sweep_eta", "compare_finesse", "add_drop_grid", "jsa",
                  "oracle_check"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol is not None and args.command not in _GATED:
        print(f"{args.command}: --tol applies only to {' and '.join(_GATED)}", file=sys.stderr)
        return 2
    try:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
        _check_keys(config.options, _OPTION_BLOCKS, "options")
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except OSError as e:  # a directory, or no permission to read
        print(f"config file not readable: {args.config}: {e.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"config file not UTF-8: {args.config}: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way, or no permission
        print(f"cannot create output directory: {args.out}: {e.strerror}", file=sys.stderr)
        return 2
    try:  # only jsa computes in numpy, and it keeps numpy's warnings off stderr
        _HANDLERS[args.command](config, outdir, args.tol)
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"invalid config: system.channels: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:  # a QuadratureError too
        # every pair rate and the pair mass square gamma_nl and the pump
        # band's group velocity v_P; an overflow is blamed on one only when
        # its square alone leaves the float range, so an overflowing power
        # or radius is not
        system = config.system
        squared = (("system.ring.gamma_nl_per_w_m", system.ring.gamma_nl),
                   (config.sources[Band.PUMP], system.bands[Band.PUMP].v))
        blamed = [field for field, x in squared if math.isinf(x * x)]
        if type(e) is OverflowError and blamed:
            print(f"invalid config: {blamed[0]}: its square, a factor of every pair rate, "
                  "leaves the float range", file=sys.stderr)
            return 2
        # the exception's class picks the exit code: an ArithmeticError ends
        # the command with exit 1 and one line. A zero rate, a singular
        # resonance, a rate that is not finite and the two gates (jsa's
        # GridTooCoarseError, oracle-check's relative deviation) say what
        # went wrong; a bare OverflowError only "math range error"
        what = "a result overflows the float range" if type(e) is OverflowError else e
        print(f"{args.command}: {what}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
