"""Command-line interface.

    lossy-ring-sfwm <command> --config cfg.json [--out DIR] [--tol X]

Commands: rate, ratios, sweep-sigma, sweep-eta, compare-finesse,
add-drop-grid, jsa, oracle-check; only jsa and oracle-check have a gate,
and only they accept --tol. Every command rejects an options block that
no command reads, and any key of its own block that it does not read.
Each command writes CSV data files and a JSON metadata sidecar
(configuration hash, derived parameters, tolerances achieved) into the
output directory. Outputs are byte-stable for a fixed configuration:
stable column order, shortest round-trip decimals, no timestamps. Exit
status: 0 on success; 1 when a tolerance gate fails, a quadrature fails
or a zero rate stops the command; 2 on a bad config or geometry, or an
option the command does not take.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import attenuation, jsa, phantom, sweeps
from .config import ConfigError, RunConfig, _check_keys, _number, derived_echo, parse_config
from .model import Band, CwPump, GeometryError, PulsedPump, finesse, sigma_from_gamma
from .numerics import QuadratureError

def _write_csv(path: Path, header: list, rows) -> None:
    """Rows hold Python floats, ints and strings; csv writes a float as its
    shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_float_csv(path: Path, header: list, *columns: np.ndarray) -> None:
    """Float columns (1-D, or 2-D blocks of them) streamed row by row."""
    # the repr of a row's list of Python floats, less brackets and spaces, is
    # the line csv.writer writes for it
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(repr(row.tolist())[1:-1].replace(", ", ",") + "\r\n"
                      for row in np.column_stack(columns))


def _write_sweep(outdir: Path, command: str, config: RunConfig,
                 result: sweeps.SweepResult) -> int:
    """<stem>.csv holds the sweep axis, then every value column in the result's
    order, each under its name; <stem>_meta.json the result's metadata."""
    stem = command.replace("-", "_")
    ((name, axis),) = result.axes.items()
    _write_float_csv(outdir / f"{stem}.csv", [name] + list(result.values),
                     axis, *result.values.values())
    meta = _base_metadata(command, config)
    meta.update(result.metadata)
    _write_metadata(outdir / f"{stem}_meta.json", meta)
    return 0


def _write_metadata(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _base_metadata(command: str, config: RunConfig) -> dict:
    return {
        "command": command,
        "config_hash": config.config_hash,
        "strategy": config.strategy,
        "derived": derived_echo(config),
    }


def _require_cw(config: RunConfig) -> CwPump:
    if not isinstance(config.pump, CwPump):
        raise ConfigError("pump.kind", "this command needs a CW pump")
    return config.pump


def _axis(config: RunConfig, name: str, lo_key: str, hi_key: str, n_key: str, defaults,
          *, log=False, unit: str | None = None):
    # unit: "(0, 1)" for an escape efficiency, "(0, 1]" for a self-coupling
    block, path = config.options.get(name, {}), f"options.{name}"
    _check_keys(block, {lo_key, hi_key, n_key}, path)
    lo = _number(block, lo_key, path, default=defaults[0], positive=log)
    hi = _number(block, hi_key, path, default=defaults[1])
    n = _number(block, n_key, path, default=defaults[2], minimum=2, integer=True)
    for key, v in ((lo_key, lo), (hi_key, hi)):
        if unit and not (0.0 < v < 1.0 or v == 1.0 and unit.endswith("]")):
            raise ConfigError(f"{path}.{key}", f"must lie in {unit}, got {v}")
    if not lo < hi:
        raise ConfigError(f"{path}.{lo_key}", f"bad axis [{lo}, {hi}] x {n}")
    if log:
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.linspace(lo, hi, n)


def _require_lossy_phantom(config: RunConfig) -> None:
    """sweep-eta and add-drop-grid set couplings in units of the phantom decay rate."""
    phantom = config.system.phantom_channel
    if phantom is not None and 0.0 in phantom.gammas.values():
        raise ConfigError("system.ring.loss_db_per_cm",
                          "the phantom decay rate, the unit of the swept couplings, is zero")


def _require_strategy1(config: RunConfig, channel_ids, *, scale: float = 1.0,
                       path: str | None = None) -> None:
    """Strategy 1 models each bus as a point coupler: its decay rate, times the
    largest scale a sweep applies, must leave a self-coupling above 0. Its
    outgoing fields grow as e^{xi L / 2} around the ring, which at that scale
    must stay finite. The error names `path`, else the channel's coupling
    field or the ring loss. The signal window must reach past the signal
    resonance, which holds at every linewidth a sweep sets exactly when the
    idler of a resonant signal lies above the window's 1e-3 omega_I floor."""
    system = config.system
    _, hi = attenuation.signal_window(system, config.pump)
    if not hi > system.bands[Band.SIGNAL].omega:
        raise ConfigError("pump.detuning_rad_per_s", "puts the idler of a resonant signal "
                          "below 1e-3 omega_I, so strategy 1 has no signal window")
    try:
        math.exp(system.ring.xi * scale * system.ring.circumference / 2.0)
    except OverflowError as e:
        raise ConfigError(path or "system.ring.loss_db_per_cm", "the outgoing fields of "
                          "strategy 1, which grow as e^(xi L / 2), overflow") from e
    for i, c in enumerate(system.channels):
        if c.channel_id not in channel_ids:
            continue
        try:
            for b in Band:
                sigma_from_gamma(c.gamma(b) * scale, system.bands[b].v,
                                 system.ring.circumference)
        except ValueError as e:
            (key,) = config.normalized["system"]["channels"][i]["coupling"]
            raise ConfigError(path or f"system.channels[{i}].coupling.{key}", str(e)) from e


def _attenuation_pairs(config: RunConfig, pump: CwPump):
    system = config.system
    buses = system.buses(1, 2)
    _require_strategy1(config, buses)
    return [(x, y, attenuation.pair_rate_cw(system, pump, x, y)) for x in buses for y in buses]


def cmd_rate(config: RunConfig, outdir: Path, tol) -> int:
    pump = _require_cw(config)
    rows = []
    meta = _base_metadata("rate", config)
    matched: dict[str, float] = {}
    if config.strategy in ("phantom", "both"):
        rates = phantom.pair_rates(config.system, pump)
        rows += [("phantom", x, y, rate) for (x, y), rate in rates.items()]
        gbar = [config.system.gamma_bar(b) for b in (Band.SIGNAL, Band.IDLER)]
        meta["p_vac_w"] = phantom.pair_vacuum_power(config.system, pump, *gbar)
        matched["phantom"] = rates[(config.system.pump_input_channel,) * 2]
    if config.strategy in ("attenuation", "both"):
        for x, y, rate in _attenuation_pairs(config, pump):
            rows.append(("attenuation", x, y, rate))
            if x == y == config.system.pump_input_channel:
                matched["attenuation"] = rate
    if len(matched) == 2:
        meta["rel_difference"] = sweeps.rel_difference(matched["attenuation"],
                                                       matched["phantom"])
    _write_csv(outdir / "rate.csv",
               ["strategy", "signal_exit", "idler_exit", "rate_pairs_per_s"], rows)
    _write_metadata(outdir / "rate_meta.json", meta)
    return 0


def cmd_ratios(config: RunConfig, outdir: Path, tol) -> int:
    pump = _require_cw(config)
    rates = phantom.pair_rates(config.system, pump)
    ref = (config.system.physical_channels[0].channel_id,) * 2
    if rates[ref] == 0.0:
        raise phantom.ZeroRateError(f"reference rate R[{ref[0]},{ref[1]}] is zero")
    rows = [(x, y, *ref, rate / rates[ref]) for (x, y), rate in rates.items()]
    _write_csv(outdir / "ratios.csv",
               ["signal_exit", "idler_exit", "ref_signal_exit", "ref_idler_exit",
                "ratio"], rows)
    meta = _base_metadata("ratios", config)
    meta["reference_pair"] = list(ref)
    _write_metadata(outdir / "ratios_meta.json", meta)
    return 0


def cmd_sweep_sigma(config: RunConfig, outdir: Path, tol) -> int:
    pump = _require_cw(config)
    axis = _axis(config, "sweep_sigma", "min", "max", "points", (0.90, 0.9995, 101),
                 unit="(0, 1]")
    _require_strategy1(config, [])  # the ring loss: the sweep sets the bus coupling
    return _write_sweep(outdir, "sweep-sigma", config,
                        sweeps.sweep_sigma(config.system, axis, pump))


def cmd_sweep_eta(config: RunConfig, outdir: Path, tol) -> int:
    pump = _require_cw(config)
    axis = _axis(config, "sweep_eta", "min", "max", "points", (0.02, 0.98, 101),
                 unit="(0, 1)")
    _require_lossy_phantom(config)
    return _write_sweep(outdir, "sweep-eta", config, sweeps.sweep_eta(config.system, axis, pump))


def cmd_compare_finesse(config: RunConfig, outdir: Path, tol) -> int:
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
    return _write_sweep(outdir, "compare-finesse", config, result)


def cmd_add_drop_grid(config: RunConfig, outdir: Path, tol) -> int:
    pump = _require_cw(config)
    axis = _axis(config, "add_drop_grid", "min_ratio", "max_ratio", "points",
                 (0.05, 5.0, 81), log=True)
    _require_lossy_phantom(config)
    result = sweeps.add_drop_grid(config.system, axis, axis, pump)
    keys = sorted(result.values)
    t, d = np.meshgrid(result.axes["gamma_t_ratio"], result.axes["gamma_d_ratio"],
                       indexing="ij")
    _write_float_csv(outdir / "add_drop_grid.csv", ["gamma_t_ratio", "gamma_d_ratio"] + keys,
                     t.ravel(), d.ravel(), *(result.values[k].ravel() for k in keys))
    meta = _base_metadata("add-drop-grid", config)
    meta["argmax"] = {k: list(v) for k, v in result.metadata["argmax"].items()}
    meta["pump_power_w"] = pump.power
    meta["pump_detuning_rad_per_s"] = pump.detuning
    _write_metadata(outdir / "add_drop_grid_meta.json", meta)
    return 0


def _reference_pair(config: RunConfig, ref) -> tuple[str, str]:
    """A JSA reference pair: two channel ids whose signal and idler couplings
    are nonzero, since every other pair is scaled by their inverse."""
    ids = config.system.channel_ids
    if not (isinstance(ref, list) and len(ref) == 2 and all(c in ids for c in ref)):
        raise ConfigError("options.jsa.reference_pair",
                          f"expected a list of two channel ids from {list(ids)}, got {ref!r}")
    try:
        jsa.reference_amplitude(config.system, (ref[0], ref[1]))
    except ValueError as e:
        raise ConfigError("options.jsa.reference_pair", str(e)) from e
    return ref[0], ref[1]


def cmd_jsa(config: RunConfig, outdir: Path, tol) -> int:
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
    try:
        grid = jsa.build_jsa(config.system, pump, n=n, kappa_max=kappa_max,
                             reference_pair=ref_pair, residual_tol=residual_tol)
    except jsa.GridTooCoarseError as e:
        print(f"jsa: {e}", file=sys.stderr)
        return 1

    header = ["kappa1\\kappa2"] + grid.kappa2.tolist()
    for name, data in (("jsa_abs2.csv", grid.abs2), ("jsa_phase.csv", grid.phase)):
        _write_float_csv(outdir / name, header, grid.kappa1, data)
    _write_csv(outdir / "jsa_weights.csv",
               ["signal_exit", "idler_exit", "weight_re", "weight_im", "weight_abs2"],
               [(x, y, w.real, w.imag, abs(w) ** 2)
                for (x, y), w in grid.weights.items()])
    meta = _base_metadata("jsa", config)
    meta.update({
        "grid_points": n,
        "kappa_max": kappa_max,
        "reference_pair": list(grid.reference_pair),
        "beta2": grid.beta2,
        "normalization_residual": grid.normalization_residual,
        "residual_tol": residual_tol,
        "pump_duration_fwhm_s": pump.duration_fwhm,
    })
    _write_metadata(outdir / "jsa_meta.json", meta)
    return 0


def cmd_oracle_check(config: RunConfig, outdir: Path, tol) -> int:
    pump = _require_cw(config)
    block, path = config.options.get("oracle_check", {}), "options.oracle_check"
    _check_keys(block, {"max_rel_dev"}, path)
    max_dev_tol = tol if tol is not None else _number(block, "max_rel_dev", path,
                                                      default=1e-6, minimum=0.0)
    system = config.system
    rows = []
    worst = 0.0
    for x in system.channel_ids:
        for y in system.channel_ids:
            closed = phantom.pair_rate_cw(system, pump, x, y)
            oracle = phantom.fgr_rate_oracle(system, pump, x, y)
            dev = abs(oracle - closed) / closed if closed > 0 else abs(oracle)
            worst = max(worst, dev)
            rows.append((x, y, closed, oracle, dev))
    _write_csv(outdir / "oracle_check.csv",
               ["signal_exit", "idler_exit", "closed_form_pairs_per_s",
                "oracle_pairs_per_s", "rel_deviation"], rows)
    meta = _base_metadata("oracle-check", config)
    meta["max_rel_deviation"] = worst
    meta["tolerance"] = max_dev_tol
    _write_metadata(outdir / "oracle_check_meta.json", meta)
    print(f"oracle-check: max relative deviation {worst:.3e} (tolerance {max_dev_tol:.1e})")
    if worst > max_dev_tol:
        print("oracle-check: deviation exceeds tolerance", file=sys.stderr)
        return 1
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossy-ring-sfwm",
        description="Photon-pair generation in lossy microring-waveguide systems.")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--tol", type=float, default=None,
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
        config = parse_config(Path(args.config).read_text())
        _check_keys(config.options, _OPTION_BLOCKS, "options")
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _HANDLERS[args.command](config, outdir, args.tol)
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"invalid config: system.channels: {e}", file=sys.stderr)
        return 2
    except (QuadratureError, phantom.ZeroRateError) as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
