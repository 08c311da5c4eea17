"""Batch entry points: reproducible experiments driven by a JSON config or
command-line flags.

Every run writes resolved-config.json (all defaults made explicit),
results.json (machine-readable outcomes, including the tolerance set in
force) and per-experiment CSV bundles with '#'-prefixed header lines and
17-significant-digit numerics; a failed run leaves none of these behind.
Exit codes: 0 all requested checks passed, 1 a check failed, 2 a
configuration error (a ConfigError from a config file, flag or model-dict
value, or an output file that cannot be written), 3 a numerical failure
(any other PerifrontError, the library's own argument checks such as
n < 16 included), 4 any other exception, named in one stderr line.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, PerifrontError
from .grid import make_cell_grid
from .eigen import COUPLED_TOL, SCALAR_TOL
from .dispersion import CASCADE_RESID_TOL, Dispersion
from .models import (COMPETITION_NAMES, _is_number, check_hypotheses,
                     check_competition_assumptions, competition_to_cooperative,
                     make_competition_spec, make_model)
from .sim import (StepperConfig, WindowGrid, _write_rows,
                  build_initial_front_like, run)
from .fronts import (extract_profile, fit_decay, front_position,
                     measure_speed)
from .certify import (C_ALLOW, build_sub_supercritical,
                      build_super_linearized, residual_sign_check)

TOLERANCES = {
    "eigen_scalar": SCALAR_TOL,
    "eigen_coupled": COUPLED_TOL,
    "cascade_residual": CASCADE_RESID_TOL,
    "speed_rel": 0.02,
    "decay_rel_supercritical": 0.05,
    "decay_rel_critical": 0.10,
    "cert_allowance_factor": C_ALLOW,
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

# Each subcommand's defaults over DEFAULTS.
COMMAND_DEFAULTS = {
    "dispersion": {},
    "simulate": {},
    # profile binning needs many snapshots per cell passage: at the default
    # snapshot_dt the front travels 0.625 cells between snapshots, which
    # leaves most s-bins of every cell row empty
    "front": {"snapshot_dt": 0.03},
    "certify": {},
    "competition": {"model": "competition-strong"},
    "hypotheses": {},
}

# The files each subcommand writes into its output directory: its CSV
# tables, then the JSON files that main writes for all of them.
JSON_OUTPUTS = ("resolved-config.json", "results.json")
OUTPUTS = {
    "dispersion": ("dispersion.csv",),
    "simulate": ("snapshots.csv", "fronts.csv"),
    "front": ("profile.csv", "fits.csv"),
    "certify": ("margins.csv",),
    "competition": (),
    "hypotheses": (),
}


def _write_csv(path: Path, header: str, rows) -> None:
    """rows: a 2-D array, or a sequence of equal-length numeric rows."""
    with open(path, "w") as fh:
        fh.write("# " + header + "\n")
        if len(rows):
            _write_rows(fh, rows)


def _check_types(cfg: dict, command: str) -> None:
    """Every DEFAULTS key holds its default's type; an int stands for a
    float, a float is finite, model is a name or a dict, and dispersion
    takes a list of speeds as c."""
    for key, default in DEFAULTS.items():
        val = cfg[key]
        if key == "model":
            ok, want = isinstance(val, (str, dict)), "a model name or a dict"
        elif key == "out":
            ok, want = isinstance(val, str), "a directory path"
        elif key == "c" and command == "dispersion" and isinstance(val, list):
            ok, want = all(map(_is_number, val)), "a list of numbers"
        elif isinstance(default, int):
            ok = isinstance(val, int) and not isinstance(val, bool)
            want = "an integer"
        else:
            ok, want = _is_number(val), "a number"
        if not ok:
            raise ConfigError(f"{key} must be {want}, got {val!r}")


def _resolve_config(args) -> dict:
    """DEFAULTS and the subcommand's defaults, then the --config file
    (whose keys must all be DEFAULTS keys), then the flags."""
    cfg = {**DEFAULTS, **COMMAND_DEFAULTS[args.command]}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config} must hold a JSON object, got "
                              f"{type(data).__name__}")
        for key in data:
            if key not in DEFAULTS:
                near = difflib.get_close_matches(key, DEFAULTS, n=1)
                raise ConfigError(f"unknown config key {key!r}" + (
                    f"; did you mean {near[0]!r}?" if near else ""))
        cfg.update(data)
    for key in DEFAULTS:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    _check_types(cfg, args.command)
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


def _front_run(cfg, model, disp, **run_kw):
    """The Cauchy run from front-like data at speed c, and the speed
    (with its standard error) fitted over t in [0.3 T, T]."""
    window = WindowGrid(model.cell, int(cfg["window_cells"]))
    stepcfg = StepperConfig(dt=cfg["dt"], snapshot_dt=cfg["snapshot_dt"])
    state = build_initial_front_like(model, window, cfg["c"], cfg["k"],
                                     cfg["eps0"], disp=disp)
    traj = run(model, state, window, stepcfg, cfg["T"], **run_kw)
    c_est, stderr = measure_speed(traj, 0, cfg["level"],
                                  (0.3 * cfg["T"], cfg["T"]))
    return traj, c_est, stderr


def cmd_dispersion(cfg, outdir, model, tc):
    disp = Dispersion(model)
    c0, lam0 = disp.critical_speed()
    lams = np.linspace(0.0, 2.0 * lam0, 41)
    tab = disp.table(lams)
    cols = ", ".join(f"kappa_{i + 1}" for i in range(model.m))
    ratio = np.divide(tab["kappa"][0], lams, out=np.full_like(lams, np.inf),
                      where=lams > 0)
    _write_csv(outdir / "dispersion.csv",
               f"lambda, {cols}, kappa1_over_lambda",
               np.column_stack([lams, tab["kappa"].T, ratio]))
    h6_gap = disp.spectral_gap(lam0)
    lambda_c = {}
    for c in [cfg["c"]] if np.isscalar(cfg["c"]) else cfg["c"]:
        try:
            disp.tau(float(c))
        except PerifrontError:
            continue             # below c_+0: no decay exponent
        lambda_c[str(c)] = disp.lambda_c(float(c))
    results = {
        "c_plus0": c0,
        "lambda_plus0": lam0,
        "lambda_c": lambda_c,
        "H6_ok": bool(h6_gap > 0.0),
        "H6_gap": h6_gap,
    }
    return results, True


def cmd_simulate(cfg, outdir, model, tc):
    disp = Dispersion(model)
    traj, c_est, stderr = _front_run(cfg, model, disp,
                                     csv_path=outdir / "snapshots.csv")
    rows = []
    prev = None
    skipped = 0
    for t, u in zip(traj.times, traj.snapshots):
        try:
            pos = front_position(u[0], traj.window.x, cfg["level"])
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
    return results, ok


def cmd_front(cfg, outdir, model, tc):
    disp = Dispersion(model)
    # only t >= 0.3 T enters the speed fit and the profile
    traj, c_est, _ = _front_run(cfg, model, disp,
                                store_from=0.3 * cfg["T"])
    prof = extract_profile(traj, c_est, t_window=(0.5 * cfg["T"], cfg["T"]),
                           min_count=3)
    tau = disp.tau(cfg["c"])
    lam = disp.lambda_c(cfg["c"])
    fits = fit_decay(prof, disp.cascade(lam), lam, tau)
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
    return results, ok


def cmd_certify(cfg, outdir, model, tc):
    disp = Dispersion(model)
    reports = []
    sub = build_sub_supercritical(model, disp, cfg["c"], cfg["delta"],
                                  cfg["delta"])
    reports.append(residual_sign_check(model, sub))
    sup = build_super_linearized(model, disp, cfg["c"], cfg["k"])
    reports.append(residual_sign_check(model, sup))
    rows = []
    for rep in reports:
        for i, mg in enumerate(rep.margins):
            rows.append((i + 1, rep.params["s0"] if "s0" in rep.params else 0.0,
                         0.0, mg))
    _write_csv(outdir / "margins.csv", "component, s, t, margin", rows)
    ok = all(rep.verdict for rep in reports)
    return {"reports": [rep.as_dict() for rep in reports]}, ok


def cmd_hypotheses(cfg, outdir, model, tc):
    rep = check_hypotheses(model)
    results = {"hypotheses": rep.as_dict()}
    ok = rep.ok()
    if tc is not None:
        arep = check_competition_assumptions(tc)
        results["assumptions"] = arep.as_dict()
        ok = ok and arep.ok()
    return results, ok


def cmd_competition(cfg, outdir, model, tc):
    if tc is None:
        raise ConfigError(f"model {cfg['model']!r} is not a competition "
                          f"model: use one of {', '.join(COMPETITION_NAMES)}")
    arep = check_competition_assumptions(tc)
    disp = Dispersion(model)
    c0, lam0 = disp.critical_speed()
    results = {
        "u1_star_minmax": [tc.u1_star.min(), tc.u1_star.max()],
        "u2_star_minmax": [tc.u2_star.min(), tc.u2_star.max()],
        "c_plus0": c0,
        "lambda_plus0": lam0,
        "assumptions": arep.as_dict(),
    }
    return results, arep.ok("A1", "A4", "A5", "A6")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perifront",
        description="periodic-media front toolkit: spectral quantities, "
                    "Cauchy runs, front fits and certification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_DEFAULTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        for key, value in DEFAULTS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=type(value), default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # the flag or the default names outdir until the config is read,
        # so that a config that cannot be read also clears earlier outputs
        outdir = Path(args.out if args.out is not None else DEFAULTS["out"])
        try:
            cfg = _resolve_config(args)
            outdir = Path(cfg["out"])
            model, tc = _build_model(cfg)
            outdir.mkdir(parents=True, exist_ok=True)
            # cmd_<name> is looked up per call, so that a wrapper bound
            # to the module attribute sees the call
            command = globals()["cmd_" + args.command]
            results, ok = command(cfg, outdir, model, tc)
            results["tolerances"] = TOLERANCES
            results["ok"] = bool(ok)
            for name, data in zip(JSON_OUTPUTS, (cfg, results)):
                with open(outdir / name, "w") as fh:
                    json.dump(data, fh, indent=2, sort_keys=True)
        except BaseException:
            # a failed run leaves no outputs in outdir, neither its own
            # nor an earlier run's
            for name in OUTPUTS[args.command] + JSON_OUTPUTS:
                if (outdir / name).is_file():
                    (outdir / name).unlink()
            raise
        return 0 if ok else 1
    except (ConfigError, OSError) as exc:      # OSError: the output path
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PerifrontError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
