"""Spans around perifront's public functions, installed from outside the
package, and the per-layer metrics computed from them.

A wrapper replaces each traced function wherever it is looked up: every
module attribute (in the package and its submodules) that holds the
original function object, or the method on its class.  Each call records a
span (name, start, end, parent) in memory; ``Tracer.metrics()`` turns the
spans and the counts recorded beside them into named per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("grid", "eigen", "dispersion", "models", "sim", "fronts",
           "certify", "cli")
LAYERS = MODULES + ("bench",)
ROOT_SPAN = "bench.iteration"

# Coverage groups: the share of the traced iteration spent inside any span
# of the group (nested spans counted once); each names the layers one
# workload is meant to stress.
COVER = {
    "cover.sim_fronts": ("sim", "fronts"),
    "cover.spectral_layers": ("grid", "eigen", "dispersion", "models"),
    "cover.sim_save_csv": ("sim", "cli.save_csv"),
}


def _nodes(args, kwargs, result):
    return {"nodes": args[1].shape[1]}             # F(self, u, xidx)


def _step_nodes(args, kwargs, result):
    return {"nodes": args[1].u.shape[1]}           # step(self, state)


def _iterations(args, kwargs, result):
    return {"iters": result.iterations}


def _snapshots(args, kwargs, result):
    return {"snapshots": len(result.snapshots),
            "bytes": sum(u.nbytes for u in result.snapshots)}


def _eval_points(args, kwargs, result):
    return {"points": len(np.atleast_1d(args[2]))}  # eval(self, xidx, s)


def _conv_snapshots(args, kwargs, result):
    return {"snapshots": len(result[0])}


def _extract_samples(args, kwargs, result):
    """(t, x) samples binned: snapshots in the time window times the nodes
    left after trimming the boundary layers."""
    import perifront.fronts as fronts
    bound = inspect.signature(fronts.extract_profile).bind(*args, **kwargs)
    bound.apply_defaults()
    traj = bound.arguments["traj"]
    t0, t1 = bound.arguments["t_window"] or (traj.times[0], traj.times[-1])
    nsnap = sum(1 for t in traj.times if t0 <= t <= t1)
    margin = bound.arguments["margin_cells"] * traj.window.cell.n
    return {"samples": nsnap * (traj.window.npts - 2 * margin)}


def _margin_ratio(args, kwargs, result):
    return {"min_margin_ratio": float(result.margins.min()) / result.allowance}


def _file_size(pos):
    """Count the size of the file whose path is positional argument pos."""
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[pos])}
    return count


# (module, attribute, span name, count function); "Class.method" patches
# the method on its class, a plain name patches every module attribute
# bound to the function.
TARGETS = [
    ("grid", "solve_cyclic_banded", "grid.solve_cyclic_banded", None),
    ("grid", "assemble_tilted_operator", "grid.assemble_tilted_operator", None),
    ("eigen", "principal_eig_scalar", "eigen.scalar", _iterations),
    ("eigen", "coupled_perron", "eigen.coupled", _iterations),
    ("dispersion", "Dispersion.kappa", "dispersion.kappa", None),
    ("dispersion", "Dispersion.critical_speed", "dispersion.critical_speed", None),
    ("dispersion", "Dispersion.lambda_c", "dispersion.lambda_c", None),
    ("dispersion", "Dispersion.table", "dispersion.table", None),
    ("dispersion", "Dispersion.cascade", "dispersion.cascade", None),
    ("dispersion", "Dispersion.cascade_derivative",
     "dispersion.cascade_derivative", None),
    ("models", "ReactionModel.F", "models.F", _nodes),
    ("models", "ReactionModel.jacobian", "models.jacobian", None),
    ("models", "ReactionModel.reaction_lipschitz",
     "models.reaction_lipschitz", None),
    ("models", "check_hypotheses", "models.check_hypotheses", None),
    ("models", "make_model", "models.make_model", None),
    ("sim", "Stepper.__init__", "sim.stepper_init", None),
    ("sim", "Stepper.step", "sim.step", _step_nodes),
    ("sim", "run", "sim.run", _snapshots),
    ("sim", "build_initial_front_like", "sim.build_initial_front_like", None),
    ("sim", "Trajectory.save_csv", "cli.save_csv", _file_size(1)),
    ("fronts", "front_position", "fronts.front_position", None),
    ("fronts", "measure_speed", "fronts.measure_speed", None),
    ("fronts", "extract_profile", "fronts.extract_profile", _extract_samples),
    ("fronts", "FrontProfile.eval", "fronts.profile_eval", _eval_points),
    ("fronts", "fit_decay", "fronts.fit_decay", None),
    ("fronts", "shift_distance", "fronts.shift_distance", None),
    ("fronts", "convergence_metric", "fronts.convergence_metric",
     _conv_snapshots),
    ("certify", "build_sub_supercritical", "certify.build", None),
    ("certify", "build_sub_critical", "certify.build", None),
    ("certify", "build_super_linearized", "certify.build", None),
    ("certify", "build_super_linearized_critical", "certify.build", None),
    ("certify", "build_stability_sandwich", "certify.build", None),
    ("certify", "residual_sign_check", "certify.residual_sign_check",
     _margin_ratio),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "_write_csv", "cli.write_csv", _file_size(0)),
]

# Per-layer metrics emitted by the traced run: name -> (unit, better).
METRICS = {
    "grid.solve_cyclic_banded.calls": ("count", "lower"),
    "grid.solve_cyclic_banded.self_s": ("s", "lower"),
    "grid.solve_cyclic_banded.us_per_call": ("us", "lower"),
    "grid.assemble_tilted_operator.calls": ("count", "lower"),
    "eigen.scalar.calls": ("count", "lower"),
    "eigen.scalar.iters": ("count", "lower"),
    "eigen.scalar.self_s": ("s", "lower"),
    "eigen.coupled.calls": ("count", "lower"),
    "eigen.coupled.iters": ("count", "lower"),
    "eigen.coupled.self_s": ("s", "lower"),
    "dispersion.kappa.calls": ("count", "lower"),
    "dispersion.kappa.solves": ("count", "lower"),
    "dispersion.memo_hit_ratio": ("ratio", "higher"),
    "dispersion.critical_speed.s": ("s", "lower"),
    "dispersion.lambda_c.s": ("s", "lower"),
    "dispersion.table.s": ("s", "lower"),
    "dispersion.cascade.s": ("s", "lower"),
    "models.F.calls": ("count", "lower"),
    "models.F.self_s": ("s", "lower"),
    "models.F.ns_per_node": ("ns", "lower"),
    "models.jacobian.calls": ("count", "lower"),
    "models.jacobian.self_s": ("s", "lower"),
    "models.reaction_lipschitz.s": ("s", "lower"),
    "models.check_hypotheses.self_s": ("s", "lower"),
    "sim.stepper_init.s": ("s", "lower"),
    "sim.steps": ("count", "lower"),
    "sim.step.self_s": ("s", "lower"),
    "sim.step.p50_ms": ("ms", "lower"),
    "sim.step.p99_ms": ("ms", "lower"),
    "sim.node_steps_per_s": ("1/s", "higher"),
    "sim.snapshots": ("count", "lower"),
    "sim.snapshot_mb": ("MB", "lower"),
    "fronts.shift_distance.s": ("s", "lower"),
    "fronts.convergence_metric.s": ("s", "lower"),
    "fronts.convergence_metric.s_per_snapshot": ("s", "lower"),
    "fronts.extract_profile.s": ("s", "lower"),
    "fronts.extract_profile.samples": ("count", "lower"),
    "fronts.profile_eval.calls": ("count", "lower"),
    "fronts.profile_eval.points": ("count", "lower"),
    "fronts.fit_decay.s": ("s", "lower"),
    "fronts.measure_speed.s": ("s", "lower"),
    "fronts.front_position.calls": ("count", "lower"),
    "certify.build.s": ("s", "lower"),
    "certify.residual_sign_check.calls": ("count", "lower"),
    "certify.residual_sign_check.s": ("s", "lower"),
    "certify.min_margin_ratio": ("ratio", "higher"),
    "cli.simulate.s": ("s", "lower"),
    "cli.save_csv.s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.write_mb_per_s": ("MB/s", "higher"),
    "cli.defaults_attempted": ("count", "higher"),
    "cli.defaults_failed": ("count", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{name: ("ratio", "higher") for name in COVER},
    "trace.wall_s": ("s", "lower"),
    "trace.self_sum_ratio": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "calib.step_ms": ("ms", "lower"),
    "calib.F_ms": ("ms", "lower"),
    "calib.critical_speed_constant2_s": ("s", "lower"),
    "calib.critical_speed_periodic2_s": ("s", "lower"),
}


class Tracer:
    """In-memory span recorder with patch/unpatch of the traced targets."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.outer = []          # no enclosing span of the same name
        self.counts = []         # per-span dict from the count function
        self._stack = []
        self._depth = {}
        self._patches = []

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._depth.get(name, 0)
        self.outer.append(depth == 0)
        self._depth[name] = depth + 1
        self.counts.append(None)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[idx]] -= 1

    @contextlib.contextmanager
    def iteration(self):
        """The root span around one benchmark iteration."""
        idx = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if count is not None:
                tracer.counts[idx] = count(args, kwargs, result)
            return result
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("perifront")
        mods = [pkg] + [importlib.import_module(f"perifront.{m}")
                        for m in MODULES]
        for modname, attr, name, count in TARGETS:
            home = importlib.import_module(f"perifront.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, name, count))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(orig, name, count)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write every span (name, start and end relative to the first
        span, parent index) as one JSON object."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump({"name": self.names,
                       "start": [t - t0 for t in self.start],
                       "end": [t - t0 for t in self.end],
                       "parent": self.parent}, fh)

    # -- analysis ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over the spans inside the (first) root span."""
        root = self.names.index(ROOT_SPAN)
        n = len(self.names)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(n)
        inside = np.zeros(n, dtype=bool)
        inside[root] = True
        for i in range(root + 1, n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                inside[i] = inside[p]
        self_t = dur - child
        by_name = {}
        for i in np.nonzero(inside)[0]:
            by_name.setdefault(self.names[i], []).append(i)

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(name):
            return float(sum(self_t[i] for i in by_name.get(name, ())))

        def incl_s(name):
            return float(sum(dur[i] for i in by_name.get(name, ())
                             if self.outer[i]))

        def total(name, key, agg=sum):
            vals = [self.counts[i][key] for i in by_name.get(name, ())
                    if self.counts[i] is not None]
            return float(agg(vals)) if vals else 0.0

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        wall = float(dur[root])
        out = {}
        solve_calls = calls("grid.solve_cyclic_banded")
        out["grid.solve_cyclic_banded.calls"] = solve_calls
        out["grid.solve_cyclic_banded.self_s"] = self_s("grid.solve_cyclic_banded")
        out["grid.solve_cyclic_banded.us_per_call"] = 1e6 * ratio(
            self_s("grid.solve_cyclic_banded"), solve_calls)
        out["grid.assemble_tilted_operator.calls"] = calls(
            "grid.assemble_tilted_operator")
        for short in ("scalar", "coupled"):
            name = f"eigen.{short}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.iters"] = total(name, "iters")
            out[f"{name}.self_s"] = self_s(name)

        kappa_calls = calls("dispersion.kappa")
        solves = sum(1 for i in by_name.get("eigen.scalar", ())
                     if self.names[self.parent[i]] == "dispersion.kappa")
        out["dispersion.kappa.calls"] = kappa_calls
        out["dispersion.kappa.solves"] = solves
        out["dispersion.memo_hit_ratio"] = ratio(kappa_calls - solves,
                                                 kappa_calls)
        for short in ("critical_speed", "lambda_c", "table", "cascade"):
            out[f"dispersion.{short}.s"] = incl_s(f"dispersion.{short}")

        f_nodes = total("models.F", "nodes")
        out["models.F.calls"] = calls("models.F")
        out["models.F.self_s"] = self_s("models.F")
        out["models.F.ns_per_node"] = 1e9 * ratio(self_s("models.F"), f_nodes)
        out["models.jacobian.calls"] = calls("models.jacobian")
        out["models.jacobian.self_s"] = self_s("models.jacobian")
        out["models.reaction_lipschitz.s"] = incl_s("models.reaction_lipschitz")
        out["models.check_hypotheses.self_s"] = self_s("models.check_hypotheses")

        steps = by_name.get("sim.step", [])
        step_ms = 1e3 * dur[steps] if steps else np.zeros(1)
        out["sim.stepper_init.s"] = incl_s("sim.stepper_init")
        out["sim.steps"] = len(steps)
        out["sim.step.self_s"] = self_s("sim.step")
        out["sim.step.p50_ms"] = float(np.percentile(step_ms, 50))
        out["sim.step.p99_ms"] = float(np.percentile(step_ms, 99))
        out["sim.node_steps_per_s"] = ratio(total("sim.step", "nodes"),
                                            incl_s("sim.step"))
        out["sim.snapshots"] = total("sim.run", "snapshots")
        out["sim.snapshot_mb"] = total("sim.run", "bytes") / 1e6

        conv_s = incl_s("fronts.convergence_metric")
        out["fronts.shift_distance.s"] = incl_s("fronts.shift_distance")
        out["fronts.convergence_metric.s"] = conv_s
        out["fronts.convergence_metric.s_per_snapshot"] = ratio(
            conv_s, total("fronts.convergence_metric", "snapshots"))
        out["fronts.extract_profile.s"] = incl_s("fronts.extract_profile")
        out["fronts.extract_profile.samples"] = total(
            "fronts.extract_profile", "samples")
        out["fronts.profile_eval.calls"] = calls("fronts.profile_eval")
        out["fronts.profile_eval.points"] = total("fronts.profile_eval",
                                                  "points")
        out["fronts.fit_decay.s"] = incl_s("fronts.fit_decay")
        out["fronts.measure_speed.s"] = incl_s("fronts.measure_speed")
        out["fronts.front_position.calls"] = calls("fronts.front_position")

        out["certify.build.s"] = incl_s("certify.build")
        out["certify.residual_sign_check.calls"] = calls(
            "certify.residual_sign_check")
        out["certify.residual_sign_check.s"] = incl_s(
            "certify.residual_sign_check")
        out["certify.min_margin_ratio"] = total(
            "certify.residual_sign_check", "min_margin_ratio", min)

        written = (total("cli.save_csv", "bytes")
                   + total("cli.write_csv", "bytes"))
        out["cli.simulate.s"] = incl_s("cli.simulate")
        out["cli.save_csv.s"] = incl_s("cli.save_csv")
        out["cli.bytes_written"] = written
        out["cli.write_mb_per_s"] = ratio(
            written / 1e6, incl_s("cli.save_csv") + incl_s("cli.write_csv"))

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, idxs in by_name.items():
            layer_self[name.split(".")[0]] += float(self_t[idxs].sum())
        for layer, val in layer_self.items():
            out[f"layer.{layer}.self_s"] = val
        for metric, group in COVER.items():
            out[metric] = ratio(self._covered(root, inside, dur, group), wall)
        out["trace.wall_s"] = wall
        out["trace.self_sum_ratio"] = ratio(float(self_t[inside].sum()), wall)
        out["trace.spans"] = int(inside.sum())
        return out

    def _covered(self, root, inside, dur, group) -> float:
        """Time inside spans of the group (a layer or a span name), nested
        spans of the group counted once."""
        def member(name):
            return name in group or name.split(".")[0] in group

        n = len(self.names)
        in_group = np.zeros(n, dtype=bool)   # span or an ancestor in group
        covered = 0.0
        for i in range(root + 1, n):
            if not inside[i]:
                continue
            p = self.parent[i]
            if member(self.names[i]) and not in_group[p]:
                covered += dur[i]
            in_group[i] = in_group[p] or member(self.names[i])
        return covered
