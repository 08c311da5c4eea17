"""The three benchmark workloads.

Each workload builds its seeded inputs in the constructor (that is set-up
time), runs one closed-loop iteration per ``iterate()`` call, and checks the
outputs of an iteration in ``check()``, which returns the list of failed
checks (empty when the iteration is correct).

Every perifront call goes through a module attribute (``pf.run``,
``pf.cli.main``) looked up at call time, so that the traced run sees the
wrappers that ``bench/spans.py`` installs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import perifront as pf
import perifront.cli  # noqa: F401  (makes pf.cli available)

DEFAULT_SEED = 0

# Reference outputs recorded at the commit that introduced this benchmark,
# with DEFAULT_SEED and the full sizes.  Spectral values come from
# deterministic banded solves; the front values also pass through two
# golden-section searches whose comparisons can flip on roundoff, hence the
# looser tolerance there.
REF_RTOL = {"spectral": 1e-7, "front": 1e-4}
REFERENCE = {
    "spectral": {
        "periodic2.c0": 1.9657182270111948,
        "periodic2.lam0": 1.016439278965436,
        "periodic2.lam_c@1.1": 0.6526541061936537,
        "periodic2.lam_c@1.25": 0.5085851750770578,
        "periodic2.lam_c@1.5": 0.38856670940501026,
        "chain-m.c0": 1.9999999999999014,
        "chain-m.lam0": 1.0000000001634626,
        "chain-m.lam_c@1.1": 0.6417424305049757,
        "chain-m.lam_c@1.25": 0.5000000000010305,
        "chain-m.lam_c@1.5": 0.3819660112501867,
        "custom2-a.c0": 1.7559192496581273,
        "custom2-a.lam0": 0.9115193616733344,
        "custom2-a.lam_c@1.1": 0.5882626740434085,
        "custom2-a.lam_c@1.25": 0.4596936318758059,
        "custom2-a.lam_c@1.5": 0.3522069230753493,
        "custom2-b.c0": 1.6703334004646815,
        "custom2-b.lam0": 0.8883146492943883,
        "custom2-b.lam_c@1.1": 0.5650068234861323,
        "custom2-b.lam_c@1.25": 0.43814562511803257,
        "custom2-b.lam_c@1.5": 0.3331605671947496,
        "hypotheses.H1": "pass",
        "hypotheses.H2": "pass",
        "hypotheses.H3": "pass",
        "hypotheses.H4": "pass",
        "hypotheses.H6": "pass",
        "hypotheses.H7": "pass",
        "hypotheses.H8": "pass",
        "hypotheses.H5": "not-checkable",
    },
    "front": {
        "c_est": 2.4907024024436057,
        "lambda_est": 0.5000222705279926,
        "z0": 2.7118467802852324,
        "sup_dist": 0.009409763361903578,
        "conv_final": 0.026584893850424063,
    },
}

SPEED_FACTORS = (1.1, 1.25, 1.5)


def _cosine(rng, lo, hi, amp, sign=1.0):
    """A seeded cosine field spec in the style of acceptance criterion 9."""
    return {"cosine": {"mean": sign * float(rng.uniform(lo, hi)),
                       "amp": float(amp * rng.uniform(0.3, 1.0)),
                       "harmonics": int(rng.integers(1, 3)),
                       "phase": float(rng.uniform(0.0, 2.0 * np.pi))}}


def custom2_params(rng) -> dict:
    """Seeded custom2 medium.  The coupling a21 dominates |zeta2| and the
    ranges keep c_+0 well below 2.5, so every seed gives a medium on which
    the simulate_cli speed c = 2.5 is supercritical."""
    return {"d1": _cosine(rng, 0.8, 1.1, 0.15),
            "d2": _cosine(rng, 0.8, 1.3, 0.2),
            "q1": _cosine(rng, -0.1, 0.1, 0.1),
            "q2": _cosine(rng, -0.2, 0.2, 0.1),
            "zeta1": _cosine(rng, 0.6, 0.9, 0.15),
            "zeta2": _cosine(rng, 0.8, 1.0, 0.1, sign=-1.0),
            "a21": _cosine(rng, 1.3, 1.5, 0.1)}


def _rel_close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _compare_reference(name, values: dict, failures: list) -> None:
    for key, want in REFERENCE[name].items():
        got = values.get(key)
        if isinstance(want, float):
            if got is None or not _rel_close(got, want, REF_RTOL[name]):
                failures.append(f"reference {key}: {got!r} != {want!r}")
        elif got != want:
            failures.append(f"reference {key}: {got!r} != {want!r}")


class Spectral:
    """Dispersion curves, speeds, cascades and hypothesis checks on four
    media; the only workload where grid, eigen, dispersion and models do
    the work (no window, no trajectory)."""

    name = "spectral"
    FULL = {"table_points": 41, "chain_m": 4, "relax": True}
    TINY = {"table_points": 5, "chain_m": 3, "relax": False}

    def __init__(self, seed: int, tmpdir: Path, tiny: bool = False):
        self.size = dict(self.TINY if tiny else self.FULL)
        self.reference = seed == DEFAULT_SEED and not tiny
        rng = np.random.default_rng(seed)
        self.media = [
            ("periodic2", pf.make_model("periodic2")),
            ("chain-m", pf.make_model("chain-m", m=self.size["chain_m"])),
            ("custom2-a", pf.make_model("custom2", **custom2_params(rng))),
            ("custom2-b", pf.make_model("custom2", **custom2_params(rng))),
        ]
        self.hyp_model = self.media[3][1]
        self.size["media"] = [label for label, _ in self.media]

    def iterate(self) -> dict:
        media = []
        for label, model in self.media:
            disp = pf.Dispersion(model)
            c0, lam0 = disp.critical_speed()
            lam_cs = [disp.lambda_c(f * c0) for f in SPEED_FACTORS]
            table = disp.table(np.linspace(0.0, 2.0 * lam0,
                                           self.size["table_points"]))
            cascades = [disp.cascade(lam) for lam in lam_cs]
            derivative = disp.cascade_derivative(lam_cs[1])
            coupled = pf.principal_eig_coupled(model, at="one")
            media.append(dict(label=label, model=model, c0=c0, lam0=lam0,
                              lam_c=lam_cs, table=table, cascades=cascades,
                              derivative=derivative, coupled=coupled))
        rep = pf.check_hypotheses(self.hyp_model,
                                  run_h5_heuristic=self.size["relax"])
        return {"media": media,
                "verdicts": {k: v.verdict for k, v in rep.entries.items()}}

    def check(self, out: dict) -> list:
        failures = []
        values = {}
        for med in out["media"]:
            label, model = med["label"], med["model"]
            for lam, casc in zip(med["lam_c"], med["cascades"]):
                resid = _scalar_residual(model, lam, casc)
                if not resid <= 1e-10 * max(1.0, abs(casc.kappa)):
                    failures.append(f"{label}: scalar residual {resid:.3e}")
                if not casc.min_component() > 0.0:
                    failures.append(f"{label}: cascade not positive at {lam}")
            cp = med["coupled"]
            if not cp.residual <= 1e-8 * max(1.0, abs(cp.value)):
                failures.append(f"{label}: coupled residual {cp.residual:.3e}")
            if not np.all(np.isfinite(med["table"]["kappa"])):
                failures.append(f"{label}: non-finite dispersion table")
            if label == "chain-m" and not (abs(med["c0"] - 2.0) <= 1e-6
                                           and abs(med["lam0"] - 1.0) <= 1e-6):
                failures.append(f"chain-m: c0={med['c0']!r}, "
                                f"lam0={med['lam0']!r}, want 2 and 1")
            values[f"{label}.c0"] = med["c0"]
            values[f"{label}.lam0"] = med["lam0"]
            for f, lam in zip(SPEED_FACTORS, med["lam_c"]):
                values[f"{label}.lam_c@{f}"] = lam
        for key, verdict in out["verdicts"].items():
            values[f"hypotheses.{key}"] = verdict
        if self.reference:
            _compare_reference(self.name, values, failures)
        return failures


def _scalar_residual(model, lam, casc) -> float:
    """||A phi_1 - kappa phi_1||_inf recomputed from a freshly assembled
    component-1 operator, independently of the solver's own report."""
    cell = model.cell
    A = pf.assemble_tilted_operator(pf.OperatorSpec(
        d=pf.PeriodicField(cell, model.d[0]),
        q=pf.PeriodicField(cell, model.q[0]),
        eta=pf.PeriodicField(cell, model.zeta(0)), lam=lam, e=1))
    phi = casc.components[0].values
    return float(np.max(np.abs(A.matvec(phi) - casc.kappa * phi)))


class Front:
    """The paper's whole pipeline on constant2 (closed forms check it):
    two Cauchy runs, speed, profiles, decay fits, the shift law, the
    convergence metric and the six criterion-8 certificates."""

    name = "front"
    C = 2.5
    LAM_C = 0.5            # closed form for constant2 at c = 2.5
    FULL = {"cell_n": 32, "window_cells": 150, "dt": 0.01, "T": 50.0,
            "snapshot_dt": 0.03, "store_from": 25.0, "speed_from": 30.0,
            "conv_every": 10}
    TINY = {"cell_n": 32, "window_cells": 90, "dt": 0.01, "T": 20.0,
            "snapshot_dt": 0.03, "store_from": 10.0, "speed_from": 12.0,
            "conv_every": 20}

    def __init__(self, seed: int, tmpdir: Path, tiny: bool = False):
        self.size = dict(self.TINY if tiny else self.FULL)
        self.reference = seed == DEFAULT_SEED and not tiny
        rng = np.random.default_rng(seed)
        # At T = 50 on the 32-node cell the shift-law estimate misses
        # ln(k2)/lam_c by more than 0.1, or the sup distance exceeds 1e-2,
        # for some non-integer k2 in [2, 6] (3.5, 4.55, 5, 6); the integer
        # amplitudes 2, 3 and 4 meet both tolerances.
        self.k2 = float(rng.integers(2, 5))
        self.size["k"] = [1.0, self.k2]
        self.model = pf.make_model(
            "constant2", pf.make_cell_grid(1.0, self.size["cell_n"]))

    def _run(self, disp, window, cfg, k):
        sz = self.size
        st = pf.build_initial_front_like(self.model, window, self.C, k=k,
                                         eps0=0.1, disp=disp)
        return pf.run(self.model, st, window, cfg, sz["T"],
                      store_from=sz["store_from"])

    def iterate(self) -> dict:
        sz, model = self.size, self.model
        disp = pf.Dispersion(model)
        window = pf.WindowGrid(model.cell, sz["window_cells"])
        cfg = pf.StepperConfig(dt=sz["dt"], snapshot_dt=sz["snapshot_dt"])
        t_win = (sz["store_from"], sz["T"])
        lam_c = disp.lambda_c(self.C)
        phi = disp.cascade(lam_c)

        traj = self._run(disp, window, cfg, 1.0)
        c_est, _ = pf.measure_speed(traj, 0, 0.5, (sz["speed_from"], sz["T"]))
        raw1 = pf.extract_profile(traj, c_est, t_window=t_win, anchor=False)
        anchored = pf.extract_profile(traj, c_est, t_window=t_win,
                                      anchor=True)
        fits1 = pf.fit_decay(raw1, phi, lam_c, 0)
        del traj

        traj = self._run(disp, window, cfg, self.k2)
        raw2 = pf.extract_profile(traj, c_est, t_window=t_win, anchor=False)
        fits2 = pf.fit_decay(raw2, phi, lam_c, 0)
        shift = pf.shift_distance(raw1, raw2, lam_c=lam_c,
                                  rho_U=fits1[0].rho_est,
                                  rho_V=fits2[0].rho_est)
        every = sz["conv_every"]
        sparse = pf.Trajectory(window, traj.times[::every],
                               traj.snapshots[::every])
        _, _, dists = pf.convergence_metric(sparse, anchored)
        del traj, sparse

        reports = {
            "sub": pf.residual_sign_check(model, pf.build_sub_supercritical(
                model, disp, self.C, 0.1, 0.1)),
            "sub_star": pf.residual_sign_check(model, pf.build_sub_critical(
                model, disp, 0.1, 0.1)),
            "super": pf.residual_sign_check(model, pf.build_super_linearized(
                model, disp, self.C, 1.0)),
            "super_star": pf.residual_sign_check(
                model, pf.build_super_linearized_critical(model, disp,
                                                          1.0, 2.0)),
        }
        psi = pf.principal_eig_coupled(model, at="one")
        for sign in ("lower", "upper"):
            cand = pf.build_stability_sandwich(model, disp, anchored, sign,
                                               delta=0.01, psi_pair=psi)
            reports[f"sandwich_{sign}"] = pf.residual_sign_check(model, cand)
        return {"c_est": c_est, "lambda_est": fits1[0].lambda_est,
                "z0": shift.z0_est, "sup_dist": shift.sup_dist,
                "conv_final": float(dists[-1]),
                "verdicts": {k: r.verdict for k, r in reports.items()}}

    def check(self, out: dict) -> list:
        failures = []
        z_target = math.log(self.k2) / self.LAM_C
        if not abs(out["c_est"] - self.C) <= 0.02 * self.C:
            failures.append(f"c_est {out['c_est']!r} not within 2% of 2.5")
        if not abs(out["lambda_est"] - self.LAM_C) <= 0.05 * self.LAM_C:
            failures.append(
                f"lambda_est {out['lambda_est']!r} not within 5% of 0.5")
        if not abs(out["z0"] - z_target) <= 0.1:
            failures.append(f"z0 {out['z0']!r} vs ln(k2)/0.5 = {z_target!r}")
        if not out["sup_dist"] <= 1e-2:
            failures.append(f"sup distance {out['sup_dist']!r} > 1e-2")
        for kind, verdict in out["verdicts"].items():
            if not verdict:
                failures.append(f"certificate {kind} failed")
        if self.reference:
            values = {k: out[k] for k in ("c_est", "lambda_est", "z0",
                                          "sup_dist", "conv_final")}
            _compare_reference(self.name, values, failures)
        return failures


class SimulateCli:
    """The batch path users run: two in-process ``perifront simulate``
    calls, whose CSV writing no library workload touches."""

    name = "simulate_cli"
    C = 2.5
    FULL = {"T": 30.0, "window_cells": 100, "snapshot_dt": 0.5,
            "chain_m": 5}
    TINY = {"T": 16.0, "window_cells": 60, "snapshot_dt": 0.2, "chain_m": 3}

    def __init__(self, seed: int, tmpdir: Path, tiny: bool = False):
        self.size = dict(self.TINY if tiny else self.FULL)
        rng = np.random.default_rng(seed)
        models = {"chain-m": {"name": "chain-m", "m": self.size["chain_m"]},
                  "custom2": {"name": "custom2", **custom2_params(rng)}}
        self.runs = []
        for label, model in models.items():
            cfg = {"model": model, "c": self.C, "T": self.size["T"],
                   "window_cells": self.size["window_cells"],
                   "snapshot_dt": self.size["snapshot_dt"]}
            path = tmpdir / f"{label}.json"
            path.write_text(json.dumps(cfg))
            out = tmpdir / f"{label}-out"
            self.runs.append((label, path, out))
            params = dict(model)
            family = params.pop("name")
            c0, _ = pf.Dispersion(pf.make_model(family, **params)) \
                .critical_speed()
            if not c0 < self.C:
                raise ValueError(f"{label}: c = {self.C} is not above "
                                 f"c_+0 = {c0:.6g}")
        self.size["models"] = list(models)

    def iterate(self) -> dict:
        return {label: pf.cli.main(["simulate", "--config", str(path),
                                    "--out", str(out)])
                for label, path, out in self.runs}

    def check(self, out: dict) -> list:
        failures = []
        snaps = int(round(self.size["T"] / self.size["snapshot_dt"])) + 1
        for label, _, outdir in self.runs:
            if out[label] != 0:
                failures.append(f"{label}: exit code {out[label]}")
                continue
            res = json.loads((outdir / "results.json").read_text())
            if res.get("ok") is not True:
                failures.append(f"{label}: results.json ok = {res.get('ok')}")
            cfg = json.loads((outdir / "resolved-config.json").read_text())
            nodes = int(cfg["window_cells"]) * int(cfg["n"]) + 1
            with open(outdir / "snapshots.csv", "rb") as fh:
                data = fh.read()
            headers = data.count(b"\n#") + data.startswith(b"#")
            rows = data.count(b"\n") - headers
            if rows != snaps * nodes:
                failures.append(f"{label}: {rows} CSV rows, want "
                                f"{snaps} x {nodes}")
        return failures


WORKLOADS = {cls.name: cls for cls in (Spectral, Front, SimulateCli)}
