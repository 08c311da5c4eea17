"""perifront benchmark.

    python3 bench/run.py --workload {spectral,front,simulate_cli} --seed N
                         --seconds S --trace {0,1}

Runs one workload in this process as a closed loop with a single client:
each iteration starts when the previous one has ended, and iterations are
started while the next one is expected to end within S seconds (at least
one runs).  Every iteration's outputs are checked; an exception or a failed
check counts as a failed operation.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb)
with their sample counts, and error_rate, which the JSON result carries as
failed/attempted; --trace 1 runs one untraced and one traced iteration,
then the one-off calibration calls and the CLI default-config probe, and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

The program under test is the perifront package in src/ next to this
directory; the benchmark exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4

# ROADMAP item-1 baseline sizes and figures: (metric, ROADMAP value, unit).
CALIBRATION = (
    ("calib.step_ms", 4.9, "ms"),
    ("calib.F_ms", 2.5, "ms"),
    ("calib.critical_speed_constant2_s", 0.05, "s"),
    ("calib.critical_speed_periodic2_s", 0.27, "s"),
)
CLI_COMMANDS = ("dispersion", "simulate", "front", "certify", "competition",
                "hypotheses")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up probe builds the workload, prints the clock, exits
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in CAP_VARS:
        os.environ[var] = str(NPROC)
    if not (ROOT / "src" / "perifront" / "__init__.py").is_file():
        print(f"benchmark: no perifront package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    outroot = ROOT / ".bench_out"
    outroot.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=outroot))
    try:
        wl = WORKLOADS[args.workload](args.seed, tmpdir)
        if args.setup_probe:
            print(repr(time.perf_counter()))
            return 0
        if args.trace:
            spans = outroot / f"spans-{args.workload}-seed{args.seed}.json"
            result = traced_run(wl, tmpdir, spans)
        else:
            result = timed_run(wl, args)
        print_provenance(wl, args)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_iteration(wl, tracer=None):
    """One iteration and its checks; returns (wall seconds, failures).
    An exception counts as a failed operation, timed up to the raise.
    With a tracer, its wrappers are in place for the iteration only."""
    failures = ["exception"]
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.iterate()
            else:
                with tracer.iteration():
                    out = wl.iterate()
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        failures = wl.check(out)
    except Exception:
        traceback.print_exc()
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    return wall, failures


def setup_times(args, count) -> list:
    """Wall time from spawning a fresh interpreter to the end of the
    workload's set-up, measured on CLOCK_MONOTONIC across processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def timed_run(wl, args) -> dict:
    # set-ups are sampled before and after the iterations, so that a slow
    # spell of the host at either end weighs on only half of them
    setups = setup_times(args, SETUP_PROBES // 2)
    walls, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        wall, failures = run_iteration(wl)
        if not walls:
            # later iterations only add allocator fragmentation, so the
            # peak is taken over set-up and the first iteration
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += 1
        failed += bool(failures)
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    setups += setup_times(args, SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups"),
        "wall_s": (statistics.median(walls), "s",
                   f"median of {len(walls)} iterations"),
        "peak_rss_mb": (rss, "MB", "peak through the first iteration"),
        "error_rate": (failed / attempted, "ratio",
                       f"{failed} failed of {attempted} attempted"),
    }
    print(f"workload {wl.name}: closed loop, 1 client, {attempted} "
          f"iterations in {sum(walls):.1f} s")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<12} = {value:.6g} {unit}  ({note})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()
                        if name != "error_rate"}}


def traced_run(wl, tmpdir, spans_path) -> dict:
    from spans import METRICS

    values, failed = trace_iterations(wl, spans_path)
    values.update(calibrate())
    values.update(probe_cli_defaults(tmpdir))
    for name, (unit, _) in METRICS.items():
        print(f"  {name:<44} = {values[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, (unit, _) in METRICS.items()}}


def trace_iterations(wl, spans_path=None):
    """One untraced then one traced iteration; returns the per-layer
    metrics of the traced one (zero where a layer did no work) and the
    number of failed iterations.  The spans go to spans_path if given."""
    from spans import METRICS, Tracer

    base, fail_a = run_iteration(wl)
    tracer = Tracer()
    traced, fail_b = run_iteration(wl, tracer)
    values = dict.fromkeys(METRICS, 0.0)
    values.update(tracer.metrics())
    values["trace.overhead_s"] = traced - base
    print(f"workload {wl.name}: untraced {base:.4f} s, traced {traced:.4f} s")
    if spans_path is not None:
        tracer.dump(spans_path)
        print(f"spans written to {spans_path}")
    return values, bool(fail_a) + bool(fail_b)


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrate() -> dict:
    """One-off calls at the ROADMAP item-1 sizes, outside every iteration:
    one step and one reaction evaluation on the 420-cell (26,881-node)
    constant2 window, and critical_speed for constant2 and periodic2."""
    import perifront as pf

    model = pf.make_model("constant2")
    window = pf.WindowGrid(model.cell, 420)
    stepper = pf.Stepper(model, window, pf.StepperConfig(dt=0.01))
    state = pf.build_initial_front_like(model, window, 2.5)
    out = {
        "calib.step_ms": 1e3 * _median_time(lambda: stepper.step(state), 30),
        "calib.F_ms": 1e3 * _median_time(
            lambda: model.F(state.u, window.xidx), 30),
    }
    for name in ("constant2", "periodic2"):
        med = pf.make_model(name)
        out[f"calib.critical_speed_{name}_s"] = _median_time(
            lambda: pf.Dispersion(med).critical_speed(), 3)
    for metric, roadmap, unit in CALIBRATION:
        gap = out[metric] / roadmap - 1.0
        flag = "  GAP > 25%" if abs(gap) > 0.25 else ""
        print(f"calibration {metric}: {out[metric]:.4g} {unit} "
              f"(ROADMAP {roadmap} {unit}, {gap:+.0%}){flag}")
    return out


def probe_cli_defaults(tmpdir) -> dict:
    """Each CLI subcommand once at its default config, untimed; a nonzero
    exit code counts as a failure of the defaults, not of the workload."""
    import perifront.cli

    failed = 0
    for cmd in CLI_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = perifront.cli.main([cmd, "--out",
                                         str(tmpdir / f"defaults-{cmd}")])
            except Exception as exc:   # report it like a crash exit
                rc, err = "exception", io.StringIO(repr(exc))
        failed += rc != 0
        note = err.getvalue().strip().splitlines()
        print(f"cli default {cmd}: exit {rc}"
              + (f" ({note[-1]})" if note else ""))
    return {"cli.defaults_attempted": len(CLI_COMMANDS),
            "cli.defaults_failed": failed}


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_provenance(wl, args) -> None:
    import numpy
    import scipy
    import perifront

    prov = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": wl.size,
        "git_commit": _git_commit(), "perifront": perifront.__version__,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC,
        "thread_caps": {var: os.environ.get(var) for var in CAP_VARS},
    }
    print("provenance " + json.dumps(prov, sort_keys=True, default=str))


if __name__ == "__main__":
    sys.exit(main())
