"""Benchmark of the lossy-ring-sfwm command-line program.

    python3 benchmark/run.py --workload all --seed 1

runs every workload and prints every metric by name with its unit. Run it
from the root of a checkout; the program is taken from the checkout's
src/. Each workload is a closed loop with one client: its CLI jobs run one
at a time, each as a fresh `python -m lossy_ring_sfwm.cli` process, the
next spawned only after the previous one exits, so this process and one
job are all that run.

--trace 0 measures the end-to-end metrics: set-up time, then rounds of the
workload's jobs until --seconds have passed, with every job's output
checked after it exits. --trace 1 runs the same jobs in this process
through cli.main, untraced, twice traced and untraced again, and reports
per-layer metrics from the spans of the first traced pass. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Job, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEADLINE_S = 170.0  # per workload; a run still going then is cut and reported failed
# set-up as a user pays it: a fresh interpreter imports the CLI and parses
# every config of the workload
_SETUP_CODE = ("import sys, lossy_ring_sfwm.cli\n"
               "from lossy_ring_sfwm.config import parse_config\n"
               "for path in sys.argv[1:]:\n"
               "    with open(path) as fh:\n"
               "        parse_config(fh.read())\n")
_COUNT_SUFFIXES = ("_calls", "_evals", "_errors", "bytes_written", "cells", "points",
                   "spans")
# The host's speed drifts by some 20% over tens of seconds with load from
# elsewhere. Each timed process is therefore bracketed by a fixed pure-Python
# calibration loop, and its time is scaled to the speed at which that loop
# takes CAL_REF_S, so that two runs compare the program rather than the load
# on the host while each ran.
CAL_REF_S = 0.020
_CAL_LOOP = 300_000


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S:.0f} s per workload")


class Operations:
    """Operations (jobs, checks, self-tests) attempted in a run, and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(".loc"):
        return "lines"
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("overhead_frac"):
        return "ratio"
    if metric.endswith("evals_per_rate"):
        return "evals/rate"
    return "count"


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _write_configs(jobs: list[Job], work: Path) -> dict[str, Path]:
    paths = {}
    for job in jobs:
        paths[job.name] = work / f"{job.name}.json"
        paths[job.name].write_text(job.config_text())
    return paths


def _cli_argv(job: Job, config: Path, outdir: Path) -> list[str]:
    return [job.command, "--config", str(config), "--out", str(outdir)]


def _log_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _child_env() -> dict:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _check(job: Job, config: Path, outdir: Path) -> list:
    """checks.check_job on one job's outputs, in a separate interpreter.

    A spawned process's max RSS starts from this process's peak RSS, so
    this process never loads the package or a whole output file: its peak
    must stay below that of any job."""
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("checks.py")),
                           job.name, job.command, str(config), str(outdir)],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [(f"{job.name}:checks", False,
                 f"checker exit {proc.returncode}: {proc.stderr.strip()[-300:]}")]


def calibration_s() -> float:
    """Median time of five runs of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(_CAL_LOOP):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run one process to its exit: (wall seconds from spawn to exit, exit
    code, its max RSS in MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except DeadlineExceeded:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, ops: Operations,
            work: Path) -> dict[str, float]:
    """End-to-end metrics of one workload, tracing off."""
    jobs = make_jobs(workload, seed)
    configs = _write_configs(jobs, work)
    env = _child_env()
    setup_argv = [sys.executable, "-c", _SETUP_CODE, *map(str, configs.values())]
    setup_log = work / "setup.log"
    # one untimed start fills the bytecode and file caches, which a user
    # does not pay again on every command
    _spawn(setup_argv, env, setup_log)

    raw: dict[str, list[float]] = {"setup": []}
    scaled: dict[str, list[float]] = {"setup": []}
    for job in jobs:
        raw[job.name], scaled[job.name] = [], []
    cal_before = calibration_s()

    def timed(name: str, argv: list[str], log: Path) -> tuple[int, float]:
        nonlocal cal_before
        wall, code, rss = _spawn(argv, env, log)
        cal_after = calibration_s()
        raw[name].append(wall)
        scaled[name].append(wall * CAL_REF_S / ((cal_before + cal_after) / 2.0))
        cal_before = cal_after
        return code, rss

    first_outputs: dict[str, str] = {}
    peak_rss = 0.0
    cycle: list[Job | None] = [None, *jobs]  # None: a set-up sample
    start = time.perf_counter()
    # one whole round, then on round-robin while the next process, at its
    # last duration, ends within the measuring time
    for n in itertools.count():
        job = cycle[n % len(cycle)]
        name = "setup" if job is None else job.name
        if n >= len(cycle) and time.perf_counter() - start + raw[name][-1] > seconds:
            break
        if job is None:
            code, _ = timed("setup", setup_argv, setup_log)
            ops.record("setup", code == 0, f"exit {code}: {_log_tail(setup_log)}")
            continue
        outdir = _fresh_dir(work / "out" / job.name)
        log = work / f"{job.name}.log"
        argv = [sys.executable, "-m", "lossy_ring_sfwm.cli",
                *_cli_argv(job, configs[job.name], outdir)]
        code, rss = timed(job.name, argv, log)
        ops.record(f"{job.name}:exit", code == 0, f"exit {code}: {_log_tail(log)}")
        peak_rss = max(peak_rss, rss)
        digest = _digest(outdir)
        if job.name in first_outputs:
            # outputs are byte-stable, so a repeat must match the checked run
            ops.record(f"{job.name}:repeat", digest == first_outputs[job.name],
                       "outputs differ from the first run")
        else:
            first_outputs[job.name] = digest
            for check, ok, detail in _check(job, configs[job.name], outdir):
                ops.record(check, ok, detail)

    medians = {name: statistics.median(t) for name, t in scaled.items()}
    print("  median seconds, scaled and as measured, and runs:")
    for name, t in medians.items():
        print(f"  {name:34s} {t:14.6g} {statistics.median(raw[name]):10.4f} "
              f"{len(raw[name]):4d}")
    job_medians = [medians[job.name] for job in jobs]
    return {"setup_s": medians["setup"],
            "wall_s": sum(job_medians),
            "job_max_s": max(job_medians),
            "peak_rss_mb": peak_rss}


def _run_in_process(cli, jobs: list[Job], configs: dict[str, Path], work: Path,
                    ops: Operations, tracer=None) -> tuple[float, int]:
    """Every job through cli.main in this process: (seconds in cli.main,
    bytes written)."""
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    compute = 0.0
    written = 0
    for i, job in enumerate(jobs):
        outdir = _fresh_dir(work / "out" / job.name)
        if tracer is not None:
            tracer.job = i
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            code = main(_cli_argv(job, configs[job.name], outdir))
            compute += time.perf_counter() - start
        ops.record(f"{job.name}:exit", code == 0, f"exit {code}: {captured.getvalue()}")
        written += sum(p.stat().st_size for p in outdir.iterdir())
    return compute, written


def trace_layers(workload: str, seed: int, ops: Operations,
                 work: Path) -> dict[str, float]:
    """Per-layer metrics of one workload from an in-process traced run."""
    jobs = make_jobs(workload, seed)
    texts = [job.config_text() for job in jobs]
    same = texts == [job.config_text() for job in make_jobs(workload, seed)]
    other = [job.config_text() for job in make_jobs(workload, seed + 1)]
    ops.record("selftest:config-determinism",
               same and all(a != b for a, b in zip(texts, other)),
               "configs do not repeat for one seed or repeat for another")
    configs = _write_configs(jobs, work)

    start = time.perf_counter()
    cli = importlib.import_module("lossy_ring_sfwm.cli")
    import_s = time.perf_counter() - start
    from tracing import Tracer, layer_metrics, lines_of_code, traced

    # untraced passes before and after the traced ones, so that neither a
    # cold first pass nor a drift in host speed reads as tracing overhead
    untraced_s = _run_in_process(cli, jobs, configs, work, ops)[0] / 2.0
    passes = []
    for _ in range(2):
        tracer = Tracer()
        with traced(tracer):
            compute, written = _run_in_process(cli, jobs, configs, work, ops, tracer)
        metrics = layer_metrics(tracer)
        metrics["cli.bytes_written"] = written
        passes.append((tracer, compute, metrics))
    untraced_s += _run_in_process(cli, jobs, configs, work, ops)[0] / 2.0
    for job in jobs:
        for name, ok, detail in _check(job, configs[job.name], work / "out" / job.name):
            ops.record(name, ok, detail)

    tracer, traced_s, metrics = passes[0]
    counts = {k: v for k, v in metrics.items() if k.endswith(_COUNT_SUFFIXES)}
    changed = sorted(k for k, v in counts.items() if passes[1][2][k] != v)
    ops.record("selftest:counts-repeat", not changed, f"counts differ: {changed}")
    if workload == "strategy1_sweeps":
        evals, overlaps = metrics["numerics.quad_evals"], metrics["attenuation.overlap_calls"]
        ops.record("selftest:tracer-complete", evals == overlaps > 0,
                   f"{evals} quadrature evaluations vs {overlaps} overlap calls")
    tracer.write(OUT / f"spans-{workload}-seed{seed}.json")
    metrics.update({"cli.import_s": import_s,
                    "trace.untraced_compute_s": untraced_s,
                    "trace.traced_compute_s": traced_s,
                    "trace.overhead_frac": traced_s / untraced_s - 1.0})
    metrics.update(lines_of_code(SRC))
    return dict(sorted(metrics.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lossy_ring_sfwm" / "cli.py").is_file():
        print(f"benchmark: no program source at {SRC / 'lossy_ring_sfwm'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # jobs stay single-threaded, like this process

    ops = Operations()
    results = {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S * len(workloads))
    try:
        for workload in workloads:
            print(f"workload {workload}, seed {args.seed}, trace {args.trace}")
            work = _fresh_dir(OUT / f"{workload}-seed{args.seed}-pid{os.getpid()}")
            try:
                if args.trace:
                    metrics = trace_layers(workload, args.seed, ops, work)
                else:
                    metrics = measure(workload, args.seed, args.seconds, ops, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            for name, value in metrics.items():
                print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
            results[workload] = metrics
    except DeadlineExceeded as e:
        ops.record("deadline", False, str(e))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    failed = len(ops.failures)
    for failure in ops.failures:
        print(f"FAILED {failure}")
    print(f"  {'failed_frac':34s} {failed / max(ops.attempted, 1):14.6g} "
          f"({failed} of {ops.attempted} operations)")
    if args.workload != "all":
        metrics = results.get(args.workload, {})
    else:
        metrics = {f"{w}.{k}": v for w, m in results.items() for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": max(ops.attempted, 1),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
