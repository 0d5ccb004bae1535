"""Span tracing of the package's layers, applied from outside the package.

`traced(tracer)` wraps each layer's public entry points at every module
binding that refers to them: `from .numerics import integrate_adaptive`
gives attenuation, phantom and jsa bindings of their own, so patching the
numerics module alone would miss every call. Spans (name, start, end,
parent, job) stay in memory; the caller writes them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import time
from collections import Counter
from pathlib import Path

PACKAGE = "lossy_ring_sfwm"

# (module, function, span name). A layer whose function a later version
# removes simply records nothing.
ENTRY_POINTS = (
    ("config", "parse_config", "config.parse"),
    ("numerics", "integrate_adaptive", "numerics.quad"),
    ("numerics", "integrate_adaptive_complex", "numerics.cquad"),
    ("attenuation", "pair_rate_cw", "attenuation.rate"),
    ("attenuation", "pair_rate_cw_add_drop", "attenuation.rate"),
    ("attenuation", "overlap_of_fields", "attenuation.overlap"),
    ("attenuation", "ring_in_field", "attenuation.field"),
    ("attenuation", "ring_out_field", "attenuation.field"),
    ("attenuation", "add_drop_in_field", "attenuation.field"),
    ("attenuation", "add_drop_out_field", "attenuation.field"),
    ("phantom", "pair_rate_cw", "phantom.pair_rate"),
    ("phantom", "rate_matrix", "phantom.rate_matrix"),
    ("phantom", "enhancement_factor", "phantom.enhancement"),
    ("phantom", "fgr_rate_oracle", "phantom.oracle"),
    ("jsa", "build_jsa", "jsa.build"),
    ("jsa", "total_mass", "jsa.total_mass"),
    ("sweeps", "sweep_sigma", "sweeps.sweep_sigma"),
    ("sweeps", "sweep_eta", "sweeps.sweep_eta"),
    ("sweeps", "compare_finesse", "sweeps.compare_finesse"),
    ("sweeps", "compare_finesse_add_drop", "sweeps.compare_finesse_add_drop"),
    ("sweeps", "add_drop_grid", "sweeps.add_drop_grid"),
)
# (module, class, method, span name)
METHODS = (("model", "SystemSpec", "with_channel_gamma", "model.with_channel_gamma"),)

SWEEPS = ("sweep_sigma", "sweep_eta", "compare_finesse", "compare_finesse_add_drop",
          "add_drop_grid")
_NS = 1e-9


class Tracer:
    """In-memory span recorder. Single-threaded: the CLI runs without --threads."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, job]
        self.stack: list[int] = []
        self.job = -1
        self.evaluations: Counter = Counter()  # quadrature integrand evaluations
        self.items: Counter = Counter()  # JSA cells, sweep points
        self.errors: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self, name, result)
            return result

        return traced_call

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _count_evaluations(tracer: Tracer, name: str, result) -> None:
    tracer.evaluations[name] += result.evaluations


def _count_cells(tracer: Tracer, name: str, result) -> None:
    tracer.items["jsa.cells"] += result.values.size


def _count_points(tracer: Tracer, name: str, result) -> None:
    tracer.items["sweeps.points"] += next(iter(result.values.values())).size


_COUNTERS = {"numerics.quad": _count_evaluations, "numerics.cquad": _count_evaluations,
             "jsa.build": _count_cells,
             **{f"sweeps.{s}": _count_points for s in SWEEPS}}


def package_modules() -> list:
    pkg = importlib.import_module(PACKAGE)
    return [pkg] + [importlib.import_module(f"{PACKAGE}.{m.name}")
                    for m in pkgutil.iter_modules(pkg.__path__)]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every binding of every entry point for the duration of the block."""
    modules = package_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    spans = {}  # id of an original function -> span name
    for mod, attr, span in ENTRY_POINTS:
        fn = getattr(by_name.get(mod), attr, None)
        if fn is not None:
            spans[id(fn)] = span
    patches = []  # (owner, attribute, original)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in spans:
                patches.append((module, attr, value))
    for mod, cls, attr, span in METHODS:
        owner = getattr(by_name.get(mod), cls, None)
        if owner is not None and attr in vars(owner):
            spans[id(vars(owner)[attr])] = span
            patches.append((owner, attr, vars(owner)[attr]))
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, tracer.wrap(spans[id(fn)], fn))
        yield tracer
    finally:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from one traced pass.

    A span's self time is its duration minus that of its direct children;
    children of one span never overlap, because the run is single-threaded.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    under_build = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:  # a parent is recorded before its children
            child_ns[parent] += end - start
            under_build[i] = under_build[parent] or spans[parent][0] == "jsa.build"
    calls, total, self_ns = Counter(), Counter(), Counter()
    g_evals = 0
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        g_evals += name == "numerics.cquad" and under_build[i]

    def s(name):
        return total[name] * _NS

    m = {
        "cli.self_s": self_ns["cli.main"] * _NS,
        "config.parse_calls": calls["config.parse"],
        "config.parse_s": s("config.parse"),
        "model.with_channel_gamma_calls": calls["model.with_channel_gamma"],
        "model.with_channel_gamma_s": s("model.with_channel_gamma"),
        "numerics.quad_calls": calls["numerics.quad"],
        "numerics.quad_evals": tracer.evaluations["numerics.quad"],
        "numerics.quad_s": s("numerics.quad"),
        "numerics.quad_errors": (tracer.errors["numerics.quad"]
                                 + tracer.errors["numerics.cquad"]),
        "numerics.cquad_calls": calls["numerics.cquad"],
        "numerics.cquad_evals": tracer.evaluations["numerics.cquad"],
        "numerics.cquad_s": s("numerics.cquad"),
        "numerics.self_s": (self_ns["numerics.quad"] + self_ns["numerics.cquad"]) * _NS,
        "attenuation.rate_calls": calls["attenuation.rate"],
        "attenuation.rate_s": s("attenuation.rate"),
        "attenuation.overlap_calls": calls["attenuation.overlap"],
        "attenuation.overlap_s": s("attenuation.overlap"),
        "attenuation.field_calls": calls["attenuation.field"],
        "attenuation.field_s": s("attenuation.field"),
        "attenuation.evals_per_rate": (calls["attenuation.overlap"]
                                       / max(calls["attenuation.rate"], 1)),
        "phantom.pair_rate_calls": calls["phantom.pair_rate"],
        "phantom.pair_rate_s": s("phantom.pair_rate"),
        "phantom.rate_matrix_calls": calls["phantom.rate_matrix"],
        "phantom.rate_matrix_s": s("phantom.rate_matrix"),
        "phantom.enhancement_calls": calls["phantom.enhancement"],
        "phantom.oracle_calls": calls["phantom.oracle"],
        "phantom.oracle_s": s("phantom.oracle"),
        "jsa.build_s": s("jsa.build"),
        "jsa.total_mass_s": s("jsa.total_mass"),
        "jsa.grid_s": s("jsa.build") - s("jsa.total_mass"),
        "jsa.g_evals": g_evals,
        "jsa.cells": tracer.items["jsa.cells"],
        "sweeps.points": tracer.items["sweeps.points"],
        "sweeps.self_s": sum(self_ns[f"sweeps.{x}"] for x in SWEEPS) * _NS,
        "trace.spans": len(spans),
    }
    for x in SWEEPS:
        m[f"sweeps.{x}_s"] = s(f"sweeps.{x}")
    return m


# modules whose size is reported; one a later version removes reads 0
LOC_MODULES = ("init", "attenuation", "cli", "config", "constants", "jsa", "model",
               "numerics", "phantom", "sweeps")


def lines_of_code(src: Path) -> dict[str, int]:
    """Non-blank, non-comment lines of each package module (`init` is
    __init__.py) and of all of them together (`src`)."""
    counts = dict.fromkeys(LOC_MODULES, 0)
    total = 0
    for path in (src / PACKAGE).glob("*.py"):
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        n = sum(1 for ln in lines if ln and not ln.startswith("#"))
        name = "init" if path.stem == "__init__" else path.stem
        if name in counts:
            counts[name] = n
        total += n
    return {**{f"{k}.loc": v for k, v in counts.items()}, "src.loc": total}
