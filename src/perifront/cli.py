"""Batch entry points: reproducible experiments driven by a JSON config or
command-line flags.

Every run writes resolved-config.json (all defaults made explicit),
results.json (machine-readable outcomes, including the tolerance set in
force) and per-experiment CSV bundles with '#'-prefixed header lines and
17-significant-digit numerics.  Exit codes: 0 all requested checks passed,
1 a check failed, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import PerifrontError
from .grid import make_cell_grid
from .dispersion import Dispersion
from .models import (check_competition_assumptions, check_hypotheses,
                     competition_to_cooperative, make_competition_spec,
                     make_model)
from .sim import (StepperConfig, WindowGrid, _write_rows,
                  build_initial_front_like, run)
from .fronts import (extract_profile, fit_decay, front_position,
                     measure_speed)
from .certify import (build_sub_supercritical, build_super_linearized,
                      residual_sign_check)

TOLERANCES = {
    "eigen_scalar": 1e-10,
    "eigen_coupled": 1e-8,
    "cascade_residual": 1e-8,
    "speed_rel": 0.02,
    "decay_rel_supercritical": 0.05,
    "decay_rel_critical": 0.10,
    "convergence_sup": 0.02,
    "cert_allowance_factor": 10.0,
}

DEFAULTS = {
    "model": "constant2",
    "L": 1.0,
    "n": 64,
    "window_cells": 120,
    "dt": 0.01,
    "snapshot_dt": 0.25,
    "T": 30.0,
    "c": 2.5,
    "k": 1.0,
    "eps0": 0.1,
    "delta": 0.1,
    "level": 0.5,
    "out": "perifront-out",
}

# Profile binning needs many snapshots per cell passage: at the default
# snapshot_dt the front travels 0.625 cells between snapshots, which
# leaves most s-bins of every cell row empty.
FRONT_DEFAULTS = {"snapshot_dt": 0.03}

SIMULATE_OUTPUTS = ("snapshots.csv", "fronts.csv", "results.json",
                    "resolved-config.json")

COMPETITION_NAMES = ("competition-const", "competition-strong",
                     "competition-periodic")


def _write_csv(path: Path, header: str, rows) -> None:
    """rows: a 2-D array, or a sequence of equal-length numeric rows."""
    with open(path, "w") as fh:
        fh.write("# " + header + "\n")
        if len(rows):
            _write_rows(fh, rows)


def _resolve_config(args, defaults=DEFAULTS) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key in DEFAULTS:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _build_model(cfg):
    cell = make_cell_grid(cfg["L"], cfg["n"])
    name = cfg["model"]
    if isinstance(name, dict):
        # config-driven model: {"name": "custom2", "zeta1": {...}, ...}
        params = dict(name)
        family = params.pop("name", "custom2")
        return make_model(family, cell, **params), None
    if name in COMPETITION_NAMES:
        spec = make_competition_spec(name, cell)
        tc = competition_to_cooperative(spec)
        return tc.model, tc
    return make_model(name, cell), None


def _emit(outdir: Path, cfg: dict, results: dict, ok: bool) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "resolved-config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    results["tolerances"] = TOLERANCES
    results["ok"] = bool(ok)
    with open(outdir / "results.json", "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    return 0 if ok else 1


def cmd_dispersion(args) -> int:
    cfg = _resolve_config(args)
    outdir = Path(cfg["out"])
    model, _ = _build_model(cfg)
    disp = Dispersion(model)
    c0, lam0 = disp.critical_speed()
    lams = np.linspace(0.0, 2.0 * lam0, 41)
    tab = disp.table(lams)
    outdir.mkdir(parents=True, exist_ok=True)
    cols = ", ".join(f"kappa_{i + 1}" for i in range(model.m))
    ratio = np.divide(tab["kappa"][0], lams, out=np.full_like(lams, np.inf),
                      where=lams > 0)
    _write_csv(outdir / "dispersion.csv",
               f"lambda, {cols}, kappa1_over_lambda",
               np.column_stack([lams, tab["kappa"].T, ratio]))
    h6_gap = disp.spectral_gap(lam0)
    results = {
        "c_plus0": c0,
        "lambda_plus0": lam0,
        "lambda_c": {str(c): disp.lambda_c(float(c)) for c in
                     ([cfg["c"]] if np.isscalar(cfg["c"]) else cfg["c"])
                     if float(c) >= c0 - 1e-12},
        "H6_ok": bool(h6_gap > 0.0),
        "H6_gap": h6_gap,
    }
    return _emit(outdir, cfg, results, ok=True)


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    outdir = Path(cfg["out"])
    try:
        model, _ = _build_model(cfg)
        disp = Dispersion(model)
        window = WindowGrid(model.cell, int(cfg["window_cells"]))
        stepcfg = StepperConfig(dt=cfg["dt"], snapshot_dt=cfg["snapshot_dt"])
        state = build_initial_front_like(model, window, cfg["c"], cfg["k"],
                                         cfg["eps0"], disp=disp)
        outdir.mkdir(parents=True, exist_ok=True)
        traj = run(model, state, window, stepcfg, cfg["T"],
                   csv_path=outdir / "snapshots.csv")
        c_est, stderr = measure_speed(traj, 0, cfg["level"],
                                      (0.3 * cfg["T"], cfg["T"]))
        rows = []
        prev = None
        skipped = 0
        for t, u in zip(traj.times, traj.snapshots):
            try:
                pos = front_position(u[0], window.x, cfg["level"])
            except PerifrontError:
                skipped += 1         # no level crossing: no fronts.csv row
                continue
            c_run = (pos - prev[1]) / (t - prev[0]) if prev else float("nan")
            rows.append((t, pos, c_run))
            prev = (t, pos)
        _write_csv(outdir / "fronts.csv", "t, position, c_running", rows)
        c0, _ = disp.critical_speed()
        target = max(cfg["c"], c0)
        ok = abs(c_est - target) <= TOLERANCES["speed_rel"] * target
        results = {"c_est": c_est, "c_stderr": stderr, "c_expected": target,
                   "fronts_skipped": skipped}
        return _emit(outdir, cfg, results, ok)
    except BaseException:
        # a failed run leaves no outputs in outdir, neither its own
        # nor an earlier run's
        for name in SIMULATE_OUTPUTS:
            if (outdir / name).is_file():
                (outdir / name).unlink()
        raise


def cmd_front(args) -> int:
    cfg = _resolve_config(args, {**DEFAULTS, **FRONT_DEFAULTS})
    outdir = Path(cfg["out"])
    model, _ = _build_model(cfg)
    disp = Dispersion(model)
    window = WindowGrid(model.cell, int(cfg["window_cells"]))
    stepcfg = StepperConfig(dt=cfg["dt"], snapshot_dt=cfg["snapshot_dt"])
    state = build_initial_front_like(model, window, cfg["c"], cfg["k"],
                                     cfg["eps0"], disp=disp)
    # only t >= 0.3 T enters the speed fit and the profile
    traj = run(model, state, window, stepcfg, cfg["T"],
               store_from=0.3 * cfg["T"])
    c_est, _ = measure_speed(traj, 0, cfg["level"], (0.3 * cfg["T"], cfg["T"]))
    prof = extract_profile(traj, c_est, t_window=(0.5 * cfg["T"], cfg["T"]),
                           min_count=3)
    c0, lam0 = disp.critical_speed()
    tau = 1 if abs(cfg["c"] - c0) <= 1e-10 else 0
    lam = disp.lambda_c(cfg["c"])
    fits = fit_decay(prof, disp.cascade(lam), lam, tau)
    outdir.mkdir(parents=True, exist_ok=True)
    n, ns = model.cell.n, len(prof.s)
    cols = ", ".join(f"U_{i + 1}" for i in range(model.m))
    _write_csv(outdir / "profile.csv", f"x, s, {cols}",
               np.column_stack([np.repeat(model.cell.x, ns),
                                np.tile(prof.s, n),
                                prof.U.transpose(1, 2, 0).reshape(n * ns, -1)]))
    _write_csv(outdir / "fits.csv",
               "component, lambda_est, rho_est, tau, goodness",
               [(f.component + 1, f.lambda_est, f.rho_est, f.tau_mode,
                 f.goodness) for f in fits])
    tol = (TOLERANCES["decay_rel_critical"] if tau
           else TOLERANCES["decay_rel_supercritical"])
    ok = abs(fits[0].lambda_est - lam) <= tol * lam
    results = {"c_est": c_est, "lambda_expected": lam, "tau": tau,
               "fits": [{"component": f.component + 1,
                         "lambda_est": f.lambda_est, "rho_est": f.rho_est,
                         "goodness": f.goodness} for f in fits]}
    return _emit(outdir, cfg, results, ok)


def cmd_certify(args) -> int:
    cfg = _resolve_config(args)
    outdir = Path(cfg["out"])
    model, _ = _build_model(cfg)
    disp = Dispersion(model)
    reports = []
    sub = build_sub_supercritical(model, disp, cfg["c"], cfg["delta"],
                                  cfg["delta"])
    reports.append(residual_sign_check(model, sub))
    sup = build_super_linearized(model, disp, cfg["c"], cfg["k"])
    reports.append(residual_sign_check(model, sup))
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for rep in reports:
        for i, mg in enumerate(rep.margins):
            rows.append((i + 1, rep.params["s0"] if "s0" in rep.params else 0.0,
                         0.0, mg))
    _write_csv(outdir / "margins.csv", "component, s, t, margin", rows)
    ok = all(rep.verdict for rep in reports)
    results = {"reports": [rep.as_dict() for rep in reports]}
    return _emit(outdir, cfg, results, ok)


def cmd_hypotheses(args) -> int:
    cfg = _resolve_config(args)
    outdir = Path(cfg["out"])
    model, tc = _build_model(cfg)
    rep = check_hypotheses(model)
    results = {"hypotheses": rep.as_dict()}
    ok = rep.ok()
    if tc is not None:
        arep = check_competition_assumptions(tc)
        results["assumptions"] = arep.as_dict()
        ok = ok and arep.ok()
    return _emit(outdir, cfg, results, ok)


def cmd_competition(args) -> int:
    cfg = _resolve_config(args)
    if cfg["model"] not in COMPETITION_NAMES:
        cfg["model"] = "competition-strong"
    outdir = Path(cfg["out"])
    spec = make_competition_spec(cfg["model"], make_cell_grid(cfg["L"], cfg["n"]))
    tc = competition_to_cooperative(spec)
    arep = check_competition_assumptions(tc)
    disp = Dispersion(tc.model)
    c0, lam0 = disp.critical_speed()
    results = {
        "u1_star_minmax": [tc.u1_star.min(), tc.u1_star.max()],
        "u2_star_minmax": [tc.u2_star.min(), tc.u2_star.max()],
        "c_plus0": c0,
        "lambda_plus0": lam0,
        "assumptions": arep.as_dict(),
    }
    return _emit(outdir, cfg, results, arep.ok("A1", "A4", "A5", "A6"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perifront",
        description="periodic-media front toolkit: spectral quantities, "
                    "Cauchy runs, front fits and certification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("dispersion", cmd_dispersion),
                     ("simulate", cmd_simulate),
                     ("front", cmd_front),
                     ("certify", cmd_certify),
                     ("competition", cmd_competition),
                     ("hypotheses", cmd_hypotheses)]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--model", type=str, default=None)
        p.add_argument("--L", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--window-cells", dest="window_cells", type=int,
                       default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--snapshot-dt", dest="snapshot_dt", type=float,
                       default=None)
        p.add_argument("--T", type=float, default=None)
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--k", type=float, default=None)
        p.add_argument("--eps0", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--level", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(func=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PerifrontError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
