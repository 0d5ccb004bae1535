"""Command-line interface.

    lossy-ring-sfwm <command> --config cfg.json [--out DIR] [--threads N] [--tol X]

Commands: rate, ratios, sweep-sigma, sweep-eta, compare-finesse,
add-drop-grid, jsa, oracle-check. Each command writes CSV data files and
a JSON metadata sidecar (configuration hash, derived parameters,
tolerances achieved) into the output directory. Outputs are byte-stable
for a fixed configuration: stable column order, shortest round-trip
decimals, no timestamps. The exit status is nonzero when a command's
tolerance gate fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import attenuation, jsa, phantom, sweeps
from .config import ConfigError, RunConfig, derived_echo, parse_config
from .model import Band, CwPump, PulsedPump
from .numerics import QuadratureError

_COMMANDS = ("rate", "ratios", "sweep-sigma", "sweep-eta", "compare-finesse",
             "add-drop-grid", "jsa", "oracle-check")


def _write_csv(path: Path, header: list, rows) -> None:
    """Rows hold Python floats, ints and strings; csv writes a float as its
    shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _rows(*columns: np.ndarray) -> list[list[float]]:
    """Equal-length float columns as CSV rows of Python floats."""
    return np.column_stack(columns).tolist()


def _write_sweep(path: Path, result: sweeps.SweepResult) -> None:
    """The sweep axis, then every value column in the result's order."""
    ((name, axis),) = result.axes.items()
    _write_csv(path, [name] + list(result.values), _rows(axis, *result.values.values()))


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


def _require_pulsed(config: RunConfig) -> PulsedPump:
    if not isinstance(config.pump, PulsedPump):
        raise ConfigError("pump.kind", "the jsa command needs a pulsed pump")
    return config.pump


def _axis(block: dict, lo_key: str, hi_key: str, n_key: str, defaults, *, log=False):
    lo = float(block.get(lo_key, defaults[0]))
    hi = float(block.get(hi_key, defaults[1]))
    n = int(block.get(n_key, defaults[2]))
    if not lo < hi or n < 2:
        raise ConfigError(f"options.{lo_key}", f"bad axis [{lo}, {hi}] x {n}")
    if log:
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.linspace(lo, hi, n)


def _attenuation_pairs(config: RunConfig, pump: CwPump):
    system = config.system
    phys = system.physical_channels
    if len(phys) == 1:
        bus = phys[0].channel_id
        rate = attenuation.pair_rate_cw(system, pump)
        return [(bus, bus, rate)]
    through = system.pump_input_channel
    drop = next(c.channel_id for c in phys if c.channel_id != through)
    return [(x, y, attenuation.pair_rate_cw_add_drop(system, pump, x, y))
            for x in (through, drop) for y in (through, drop)]


def cmd_rate(config: RunConfig, outdir: Path, threads: int, tol) -> int:
    pump = _require_cw(config)
    rows = []
    meta = _base_metadata("rate", config)
    matched: dict[str, float] = {}
    if config.strategy in ("phantom", "both"):
        matrix = phantom.rate_matrix(config.system, pump)
        rows += [("phantom", x, y, rate) for (x, y), rate in matrix.rates.items()]
        meta["p_vac_w"] = matrix.p_vac
        key = (config.system.pump_input_channel,) * 2
        matched["phantom"] = matrix.rate(*key)
    if config.strategy in ("attenuation", "both"):
        for x, y, rate in _attenuation_pairs(config, pump):
            rows.append(("attenuation", x, y, rate))
            if x == y == config.system.pump_input_channel:
                matched["attenuation"] = rate
    if len(matched) == 2:
        a, p = matched["attenuation"], matched["phantom"]
        meta["rel_difference"] = abs(a - p) / p
    _write_csv(outdir / "rate.csv",
               ["strategy", "signal_exit", "idler_exit", "rate_pairs_per_s"], rows)
    _write_metadata(outdir / "rate_meta.json", meta)
    return 0


def cmd_ratios(config: RunConfig, outdir: Path, threads: int, tol) -> int:
    pump = _require_cw(config)
    matrix = phantom.rate_matrix(config.system, pump)
    ref = (config.system.physical_channels[0].channel_id,) * 2
    rows = [(x, y, *ref, phantom.rate_ratio(matrix, x, y, *ref)) for x, y in matrix.rates]
    _write_csv(outdir / "ratios.csv",
               ["signal_exit", "idler_exit", "ref_signal_exit", "ref_idler_exit",
                "ratio"], rows)
    meta = _base_metadata("ratios", config)
    meta["reference_pair"] = list(ref)
    _write_metadata(outdir / "ratios_meta.json", meta)
    return 0


def cmd_sweep_sigma(config: RunConfig, outdir: Path, threads: int, tol) -> int:
    pump = _require_cw(config)
    block = dict(config.options.get("sweep_sigma", {}))
    axis = _axis(block, "min", "max", "points", (0.90, 0.9995, 101))
    result = sweeps.sweep_sigma(config.system, axis, pump, workers=threads)
    _write_csv(outdir / "sweep_sigma.csv", ["sigma", "rate_pairs_per_s"],
               _rows(result.axes["sigma"], result.values["rate"]))
    meta = _base_metadata("sweep-sigma", config)
    meta.update(result.metadata)
    _write_metadata(outdir / "sweep_sigma_meta.json", meta)
    return 0


def cmd_sweep_eta(config: RunConfig, outdir: Path, threads: int, tol) -> int:
    pump = _require_cw(config)
    block = dict(config.options.get("sweep_eta", {}))
    axis = _axis(block, "min", "max", "points", (0.02, 0.98, 101))
    result = sweeps.sweep_eta(config.system, axis, pump)
    _write_sweep(outdir / "sweep_eta.csv", result)
    meta = _base_metadata("sweep-eta", config)
    meta.update(result.metadata)
    _write_metadata(outdir / "sweep_eta_meta.json", meta)
    return 0


def cmd_compare_finesse(config: RunConfig, outdir: Path, threads: int, tol) -> int:
    pump = _require_cw(config)
    block = dict(config.options.get("compare_finesse", {}))
    if len(config.system.physical_channels) == 2:
        axis = _axis(block, "sigma2_min", "sigma2_max", "points", (0.3, 0.9999, 25))
        result = sweeps.compare_finesse_add_drop(config.system, axis, pump,
                                                 workers=threads)
    else:
        axis = _axis(block, "min", "max", "points", (50.0, 2000.0, 25), log=True)
        result = sweeps.compare_finesse(config.system, axis, pump, workers=threads)
    _write_sweep(outdir / "compare_finesse.csv", result)
    meta = _base_metadata("compare-finesse", config)
    meta.update(result.metadata)
    _write_metadata(outdir / "compare_finesse_meta.json", meta)
    return 0


def cmd_add_drop_grid(config: RunConfig, outdir: Path, threads: int, tol) -> int:
    pump = _require_cw(config)
    block = dict(config.options.get("add_drop_grid", {}))
    axis = _axis(block, "min_ratio", "max_ratio", "points", (0.05, 5.0, 81), log=True)
    result = sweeps.add_drop_grid(config.system, axis, axis, pump)
    keys = sorted(result.values)
    t, d = np.meshgrid(result.axes["gamma_t_ratio"], result.axes["gamma_d_ratio"],
                       indexing="ij")
    _write_csv(outdir / "add_drop_grid.csv", ["gamma_t_ratio", "gamma_d_ratio"] + keys,
               _rows(t.ravel(), d.ravel(), *(result.values[k].ravel() for k in keys)))
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
    if config.system.channel(ref[0]).gamma(Band.SIGNAL) * \
            config.system.channel(ref[1]).gamma(Band.IDLER) == 0.0:
        raise ConfigError("options.jsa.reference_pair",
                          f"{ref} needs nonzero signal and idler couplings")
    return ref[0], ref[1]


def cmd_jsa(config: RunConfig, outdir: Path, threads: int, tol) -> int:
    pump = _require_pulsed(config)
    block = dict(config.options.get("jsa", {}))
    n = int(block.get("grid_points", 512))
    kappa_max = float(block.get("kappa_max", 8.0))
    residual_tol = float(tol if tol is not None else block.get("residual_tol", 2.5e-3))
    ref = block.get("reference_pair")
    ref_pair = None if ref is None else _reference_pair(config, ref)
    try:
        grid = jsa.build_jsa(config.system, pump, n=n, kappa_max=kappa_max,
                             reference_pair=ref_pair, residual_tol=residual_tol)
    except jsa.GridTooCoarseError as e:
        print(f"jsa: {e}", file=sys.stderr)
        return 1

    header = ["kappa1\\kappa2"] + grid.kappa2.tolist()
    for name, data in (("jsa_abs2.csv", grid.abs2), ("jsa_phase.csv", grid.phase)):
        rows = ([k] + row for k, row in zip(grid.kappa1.tolist(), data.tolist()))
        _write_csv(outdir / name, header, rows)
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


def cmd_oracle_check(config: RunConfig, outdir: Path, threads: int, tol) -> int:
    pump = _require_cw(config)
    block = dict(config.options.get("oracle_check", {}))
    max_dev_tol = float(tol if tol is not None else block.get("max_rel_dev", 1e-6))
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the strategy-1 sweeps")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the command's tolerance gate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _HANDLERS[args.command](config, outdir, max(1, args.threads), args.tol)
    except ConfigError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    except QuadratureError as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
