"""Seeded workloads: each is a list of CLI jobs with generated configs.

Every config is drawn from the seed within the parameter ranges of the
paper's examples, around the bundled ring_channel.json and add_drop.json
(radius 10 um, 26 dB/cm, bus self-coupling 0.9814, drop rate equal to the
phantom rate). The program sees only the generated JSON; jobs pass no
--threads and no --tol, so every command runs with its own defaults and
tolerance gates.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("strategy1_sweeps", "closed_form_maps", "pulsed_jsa")

_BANDS = {"wavelength_nm": 1550.0, "effective_index": 2.4,
          "group_velocity_m_per_s": 1e8}
_GROUP_VELOCITY = _BANDS["group_velocity_m_per_s"]
_NP_PER_M_PER_DB_PER_CM = 100.0 * math.log(10.0) / 10.0


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `lossy-ring-sfwm <command> --config <name>.json`."""

    name: str  # unique within a workload; names the config file and out dir
    command: str
    config: dict

    def config_text(self) -> str:
        return json.dumps(self.config, sort_keys=True, indent=2) + "\n"


def _sig(x: float, digits: int = 4) -> float:
    """x rounded to a few significant digits, so configs read like hand-written ones."""
    return float(f"{x:.{digits}g}")


def _ring(rng: random.Random, loss_quantile: float | None = None) -> dict:
    """Ring with a loss log-uniform on 2.6-26 dB/cm, drawn at loss_quantile
    when given."""
    u = rng.random() if loss_quantile is None else loss_quantile
    return {"radius_m": _sig(rng.uniform(8e-6, 12e-6)),
            "loss_db_per_cm": _sig(2.6 * 10.0 ** u),
            "gamma_nl_per_w_m": 100.0}


def _phantom_gamma(ring: dict) -> float:
    """Phantom decay rate [rad/s] the config parser derives from the ring loss."""
    return ring["loss_db_per_cm"] * _NP_PER_M_PER_DB_PER_CM * _GROUP_VELOCITY / 2.0


def _doc(ring: dict, channels: list[dict], pump: dict, strategy: str,
         options: dict | None = None) -> dict:
    doc = {"system": {"ring": ring, "bands": dict(_BANDS), "channels": channels,
                      "pump_input_channel": channels[0]["id"]},
           "pump": pump, "strategy": strategy}
    if options:
        doc["options"] = options
    return doc


def _phantom() -> dict:
    return {"id": "P", "kind": "phantom", "coupling": {"from_loss": True}}


def _cw(rng: random.Random) -> dict:
    return {"kind": "cw", "power_mw": _sig(rng.uniform(0.5, 2.0))}


def _single_bus_sigma(rng: random.Random, options=None, strategy="both") -> dict:
    bus = {"id": "O", "coupling": {"sigma": _sig(rng.uniform(0.975, 0.99))}}
    return _doc(_ring(rng), [bus, _phantom()], _cw(rng), strategy, options)


def _single_bus_eta(rng: random.Random, pump: dict, options=None,
                    loss_quantile=None) -> dict:
    bus = {"id": "O", "coupling": {"eta": _sig(rng.uniform(0.3, 0.8), 3)}}
    return _doc(_ring(rng, loss_quantile), [bus, _phantom()], pump, "phantom", options)


def _add_drop(rng: random.Random, pump: dict, options=None, strategy="both",
              loss_quantile=None) -> dict:
    ring = _ring(rng, loss_quantile)
    through = {"id": "T", "coupling": {"sigma": _sig(rng.uniform(0.975, 0.99))}}
    drop_ratio = rng.uniform(0.5, 1.5)
    drop = {"id": "D", "coupling": {"gamma_rad_per_s":
                                    _sig(drop_ratio * _phantom_gamma(ring))}}
    return _doc(ring, [through, drop, _phantom()], pump, strategy, options)


def _strategy1_sweeps(rng: random.Random) -> list[Job]:
    sigma_axis = {"min": _sig(rng.uniform(0.88, 0.92)),
                  "max": _sig(rng.uniform(0.998, 0.9995)), "points": 101}
    finesse_axis = {"min": _sig(rng.uniform(40.0, 60.0)),
                    "max": _sig(rng.uniform(1500.0, 2500.0)), "points": 25}
    sigma2_axis = {"sigma2_min": _sig(rng.uniform(0.3, 0.5)),
                   "sigma2_max": _sig(rng.uniform(0.999, 0.9999)), "points": 25}
    return [
        Job("sweep-sigma", "sweep-sigma",
            _single_bus_sigma(rng, {"sweep_sigma": sigma_axis}, "attenuation")),
        Job("compare-finesse", "compare-finesse",
            _single_bus_sigma(rng, {"compare_finesse": finesse_axis})),
        Job("compare-finesse-add-drop", "compare-finesse",
            _add_drop(rng, _cw(rng), {"compare_finesse": sigma2_axis})),
        Job("rate-both-add-drop", "rate", _add_drop(rng, _cw(rng))),
    ]


def _closed_form_maps(rng: random.Random) -> list[Job]:
    grid_axis = {"min_ratio": _sig(rng.uniform(0.04, 0.06)),
                 "max_ratio": _sig(rng.uniform(4.0, 6.0)), "points": 81}
    eta_axis = {"min": _sig(rng.uniform(0.01, 0.03)),
                "max": _sig(rng.uniform(0.97, 0.99)), "points": 101}
    return [
        Job("add-drop-grid", "add-drop-grid",
            _add_drop(rng, _cw(rng), {"add_drop_grid": grid_axis}, "phantom")),
        Job("sweep-eta", "sweep-eta",
            _single_bus_sigma(rng, {"sweep_eta": eta_axis}, "phantom")),
        Job("ratios", "ratios", _add_drop(rng, _cw(rng), strategy="phantom")),
        Job("oracle-check-single-bus", "oracle-check",
            _single_bus_eta(rng, _cw(rng))),
        Job("oracle-check-add-drop", "oracle-check",
            _add_drop(rng, _cw(rng), strategy="phantom")),
    ]


def _short_pulse(rng: random.Random, loss_quantile: float, options: dict) -> dict:
    """Single bus pumped by a pulse whose bandwidth is 8-16 ring linewidths.

    The duration follows from the drawn ring: intensity bandwidth
    4 ln 2 / FWHM over the loaded linewidth 2 Gbar, Gbar = Gamma_P / (1 - eta).
    The program's total_mass fails on many more draws above about 19
    linewidths (a known defect, see README.md), so the range stops below."""
    doc = _single_bus_eta(rng, {"kind": "pulsed"}, options, loss_quantile)
    eta = doc["system"]["channels"][0]["coupling"]["eta"]
    linewidth = 2.0 * _phantom_gamma(doc["system"]["ring"]) / (1.0 - eta)
    bandwidth = rng.uniform(8.0, 16.0) * linewidth
    doc["pump"]["duration_fwhm_ps"] = _sig(4.0 * math.log(2.0) / bandwidth * 1e12, 3)
    return doc


def _pulsed_pair(rng: random.Random) -> tuple[dict, dict]:
    """A short pulse on a single bus and a long pulse on an add-drop ring."""
    jsa = {"jsa": {"grid_points": 512, "kappa_max": 12.0}}
    long = {"kind": "pulsed", "duration_fwhm_ps": _sig(rng.uniform(25.0, 35.0), 3)}
    # antithetic loss draws: each job spans the whole loss range, and when
    # one ring is lossy the other is not
    u = rng.random()
    return (_short_pulse(rng, u, jsa), _add_drop(rng, long, jsa, "phantom", 1.0 - u))


# The pulsed jobs come from a fixed set of cases, the pairs _pulsed_pair
# draws for case numbers 0-47, rather than from a fresh draw per seed: the
# program's total_mass quadrature fails on a small share of fresh draws (a
# known defect, see README.md), and every one of these cases passes. The
# seed picks the case and each pulse's amplitude alpha, which scales the
# pair probability but enters no quadrature.
_PULSED_CASES = 48


def _pulsed_jsa(rng: random.Random) -> list[Job]:
    case = rng.randrange(_PULSED_CASES)
    short, long = _pulsed_pair(random.Random(f"pulsed_jsa:{case}"))
    for doc in (short, long):
        doc["pump"]["alpha"] = _sig(rng.uniform(0.5, 2.0), 6)
    return [Job("jsa-short-pulse", "jsa", short), Job("jsa-long-pulse", "jsa", long)]


_GENERATORS = {"strategy1_sweeps": _strategy1_sweeps,
               "closed_form_maps": _closed_form_maps,
               "pulsed_jsa": _pulsed_jsa}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for one seed; equal seeds give equal configs."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)
