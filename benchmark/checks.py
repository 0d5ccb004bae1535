"""Independent correctness checks on one job's output directory.

Each check is one benchmark operation: `check_job` returns a list of
(name, passed, detail) and the caller counts a failed check against the
workload's failed operations. The checks read the files the CLI wrote
and the job's own config, and compare them with exact identities, the
acceptance gates, or a scalar recomputation through the package's public
functions.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from pathlib import Path

from workloads import Job

_OUTPUTS = {
    "rate": ("rate.csv", "rate_meta.json"),
    "ratios": ("ratios.csv", "ratios_meta.json"),
    "sweep-sigma": ("sweep_sigma.csv", "sweep_sigma_meta.json"),
    "sweep-eta": ("sweep_eta.csv", "sweep_eta_meta.json"),
    "compare-finesse": ("compare_finesse.csv", "compare_finesse_meta.json"),
    "add-drop-grid": ("add_drop_grid.csv", "add_drop_grid_meta.json"),
    "jsa": ("jsa_abs2.csv", "jsa_phase.csv", "jsa_weights.csv", "jsa_meta.json"),
    "oracle-check": ("oracle_check.csv", "oracle_check_meta.json"),
}

ORACLE_GATE = 1e-6  # the oracle-check command's default tolerance
STRATEGY_AGREEMENT = 0.15  # acceptance criterion 5, at the bundled finesse
HIGH_FINESSE = 1000.0
HIGH_FINESSE_AGREEMENT = 0.01
IDENTITY_RTOL = 1e-12
GRID_SAMPLES = 5


class CheckFailed(Exception):
    pass


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(detail)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path: Path, *names: str) -> list[list[float]]:
    """The named CSV columns as floats."""
    header, rows = _read_csv(path)
    return [[float(r[header.index(name)]) for r in rows] for name in names]


def _meta(outdir: Path, command: str) -> dict:
    return json.loads((outdir / f"{command.replace('-', '_')}_meta.json").read_text())


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_outputs(job: Job, outdir: Path) -> str:
    """Every expected file exists and every numeric CSV cell is finite."""
    cells = 0
    for name in _OUTPUTS[job.command]:
        path = outdir / name
        _require(path.is_file(), f"missing output {name}")
        if not name.endswith(".csv"):
            continue
        header, rows = _read_csv(path)
        for row in [header[1:]] + rows:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # channel ids, strategy names, column names
                _require(math.isfinite(value), f"non-finite value {cell!r} in {name}")
                cells += 1
    return f"{cells} numeric cells finite"


def _check_oracle(job: Job, outdir: Path) -> str:
    meta = _meta(outdir, job.command)
    devs, = _columns(outdir / "oracle_check.csv", "rel_deviation")
    _require(meta["tolerance"] == ORACLE_GATE, f"gate is {meta['tolerance']}, not 1e-6")
    worst = max(devs)
    _require(worst <= ORACLE_GATE and meta["max_rel_deviation"] <= ORACLE_GATE,
             f"oracle deviation {worst:.3e} above {ORACLE_GATE:.0e}")
    return f"max oracle deviation {worst:.2e}"


def _check_rate(job: Job, outdir: Path) -> str:
    rel = _meta(outdir, job.command)["rel_difference"]
    _require(rel <= STRATEGY_AGREEMENT, f"strategies differ by {rel:.3%}")
    return f"strategy 1 vs 2 differ by {rel:.3%}"


def _check_compare_finesse(job: Job, outdir: Path) -> str:
    fins, rel = zip(*sorted(zip(*_columns(outdir / "compare_finesse.csv",
                                          "finesse", "rel_difference"))))
    _require(all(b < a for a, b in zip(rel, rel[1:])),
             "rel_difference does not fall monotonically with finesse")
    high = [r for f, r in zip(fins, rel) if f >= HIGH_FINESSE]
    worst_high = max(high, default=0.0)
    _require(worst_high <= HIGH_FINESSE_AGREEMENT,
             f"rel_difference {worst_high:.3%} above 1% at finesse >= 1000")
    return (f"monotone over finesse {fins[0]:.0f}-{fins[-1]:.0f}; "
            f"{len(high)} points at finesse >= 1000")


def _check_sweep_sigma(job: Job, outdir: Path) -> str:
    rates, = _columns(outdir / "sweep_sigma.csv", "rate_pairs_per_s")
    _require(all(r > 0 for r in rates), "non-positive pair rate")
    return f"{len(rates)} positive rates"


def _channel_ids(job: Job) -> tuple[str, str]:
    """(pump input channel, phantom channel) of the job's config."""
    system = job.config["system"]
    phantom = next(c["id"] for c in system["channels"] if c.get("kind") == "phantom")
    return system["pump_input_channel"], phantom


def _check_sweep_eta(job: Job, outdir: Path) -> str:
    o, p = _channel_ids(job)
    worst = 0.0
    for eta, r_oo, r_op, r_po, r_pp in zip(*_columns(
            outdir / "sweep_eta.csv", "eta", f"R_{o}{o}", f"R_{o}{p}", f"R_{p}{o}",
            f"R_{p}{p}")):
        frac = (1.0 - eta) / eta
        worst = max(worst, _rel(r_op / r_oo, frac), _rel(r_po / r_oo, frac),
                    _rel(r_pp / r_oo, frac * frac))
    _require(worst <= IDENTITY_RTOL, f"eta ratio identity off by {worst:.2e}")
    return f"eta ratio identities hold to {worst:.1e}"


def _eta_ratio(derived: dict, x: str, y: str, rx: str, ry: str) -> float:
    """eta_x eta_y / (eta_rx eta_ry): the rate or |weight|^2 ratio of two
    channel pairs when every band shares one set of couplings."""
    return (derived[f"eta_{x}"] * derived[f"eta_{y}"]
            / (derived[f"eta_{rx}"] * derived[f"eta_{ry}"]))


def _check_ratios(job: Job, outdir: Path) -> str:
    derived = _meta(outdir, job.command)["derived"]
    _, rows = _read_csv(outdir / "ratios.csv")
    worst = 0.0
    for x, y, rx, ry, ratio in rows:
        worst = max(worst, _rel(float(ratio), _eta_ratio(derived, x, y, rx, ry)))
    _require(worst <= IDENTITY_RTOL, f"ratio vs escape efficiencies off by {worst:.2e}")
    return f"{len(rows)} ratios match escape efficiencies to {worst:.1e}"


def _check_add_drop_grid(job: Job, outdir: Path) -> str:
    from lossy_ring_sfwm import phantom
    from lossy_ring_sfwm.config import parse_config

    config = parse_config(job.config)
    system, pump = config.system, config.pump
    through = system.pump_input_channel
    drop = next(c.channel_id for c in system.physical_channels if c.channel_id != through)
    g_ph = system.phantom_channel.gammas
    header, rows = _read_csv(outdir / "add_drop_grid.csv")
    worst = 0.0
    for row in random.Random(job.config_text()).sample(rows, GRID_SAMPLES):
        t, d = float(row[0]), float(row[1])
        sys_td = system.with_channel_gamma(through, {b: t * g for b, g in g_ph.items()})
        sys_td = sys_td.with_channel_gamma(drop, {b: d * g for b, g in g_ph.items()})
        for name, cell in zip(header[2:], row[2:]):
            x, y = name[2:]  # R_<signal exit><idler exit>, one-letter channel ids
            worst = max(worst, _rel(float(cell), phantom.pair_rate_cw(sys_td, pump, x, y)))
    _require(worst <= IDENTITY_RTOL, f"grid cell off the scalar closed form by {worst:.2e}")
    return f"{GRID_SAMPLES} sampled cells match pair_rate_cw to {worst:.1e}"


def _check_jsa(job: Job, outdir: Path) -> str:
    meta = _meta(outdir, job.command)
    residual, tol = meta["normalization_residual"], meta["residual_tol"]
    _require(residual <= tol, f"normalization residual {residual:.3e} above {tol:.1e}")
    rx, ry = meta["reference_pair"]
    derived = meta["derived"]
    _, rows = _read_csv(outdir / "jsa_weights.csv")
    worst = 0.0
    for x, y, _, _, abs2 in rows:
        worst = max(worst, _rel(float(abs2), _eta_ratio(derived, x, y, rx, ry)))
    _require(worst <= IDENTITY_RTOL, f"|weight|^2 off the eta ratios by {worst:.2e}")
    return f"residual {residual:.2e} <= {tol:.1e}; weights match eta ratios to {worst:.1e}"


_SPECIFIC = {
    "oracle-check": _check_oracle,
    "rate": _check_rate,
    "compare-finesse": _check_compare_finesse,
    "sweep-sigma": _check_sweep_sigma,
    "sweep-eta": _check_sweep_eta,
    "ratios": _check_ratios,
    "add-drop-grid": _check_add_drop_grid,
    "jsa": _check_jsa,
}


def check_job(job: Job, outdir: Path) -> list[tuple[str, bool, str]]:
    """Run the output check and the command's own check on one job."""
    results = []
    for name, fn in (("outputs", _check_outputs), (job.command, _SPECIFIC[job.command])):
        try:
            results.append((f"{job.name}:{name}", True, fn(job, outdir)))
        except (CheckFailed, OSError, KeyError, ValueError, IndexError,
                ZeroDivisionError) as e:
            results.append((f"{job.name}:{name}", False, f"{type(e).__name__}: {e}"))
    return results


def main(argv: list[str]) -> None:
    """`checks.py <job name> <command> <config.json> <output dir>` prints
    the results of check_job as one JSON line."""
    name, command, config, outdir = argv
    job = Job(name, command, json.loads(Path(config).read_text()))
    print(json.dumps(check_job(job, Path(outdir))))


if __name__ == "__main__":
    main(sys.argv[1:])
