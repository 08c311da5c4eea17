"""The library cases that tests/golden.json pins, and their fixed inputs.

CASES maps a case id to a function of no arguments that returns what the
case computes: arrays, bytes, or JSON-native values, alone or in lists
(golden.digest hashes them).  A case id is the id of the test in
tests/test_fast_paths.py that checks it, "test_name[param]", or the bare
name of a test that checks its own computed value.  Every input is a
literal or seeded; runs and profiles shared by several cases are built
once per process.
"""

import contextlib
import dataclasses
import functools
import tempfile
from pathlib import Path

import numpy as np

import perifront.certify as certify
import perifront.models as models
import perifront.sim as sim
from perifront import (Dispersion, SimState, Stepper, StepperConfig,
                       Trajectory, WindowGrid, convergence_metric,
                       extract_profile, make_cell_grid, make_model,
                       principal_eig_coupled)
from perifront.cli import _write_csv
from perifront.dispersion import boundary_speeds_A6
from perifront.eigen import principal_eig_scalar
from perifront.errors import ReducibleCouplingError, SingularSystemError
from perifront.fronts import FrontProfile
from perifront.grid import (BandedMatrix, assemble_tilted_operator,
                            solve_cyclic_banded)
from perifront.models import (PolyH, ReactionModel, competition_to_cooperative,
                              json_native, make_competition_spec)

CASES = {}


def register(test, fn, params):
    """CASES[test[id]] = fn(*args) for each (id, args) in params."""
    for pid, args in params:
        CASES[f"{test}[{pid}]"] = functools.partial(fn, *args)


def by_name(models_):
    """(id, (model,)) pairs with pytest's ids: the model's name, numbered
    in order where several models share it."""
    names = [m.name for m in models_]
    seen = {}
    out = []
    for m in models_:
        pid = m.name
        if names.count(m.name) > 1:
            pid += str(seen.setdefault(m.name, 0))
            seen[m.name] += 1
        out.append((pid, (m,)))
    return out


# ---------------------------------------------------------------------------
# fixed inputs


def seeded_dense_model(m=3, n=16, seed=7):
    rng = np.random.default_rng(seed)
    cell = make_cell_grid(1.0, n)
    hs = [PolyH(c=rng.standard_normal(n), b=rng.standard_normal((m, n)),
                Q=rng.standard_normal((m, m, n))) for _ in range(m)]
    couplings = {(i, j): rng.random(n) for i in range(m) for j in range(i)}
    return ReactionModel(cell, np.ones((m, n)), np.zeros((m, n)),
                         couplings, hs, name="dense")


MODELS = [
    ("constant2", {}),
    ("periodic2", {}),
    ("custom2", {"zeta1": {"cosine": {"mean": 0.8, "amp": 0.2}},
                 "d2": {"cosine": {"mean": 1.1, "amp": 0.3}},
                 "a21": {"cosine": {"mean": 1.4, "amp": 0.1}}}),
    ("chain-m", {"m": 3}),
    ("chain-m", {"m": 5}),
]


@functools.cache
def all_models():
    cell = make_cell_grid(1.0, 32)
    return [make_model(name, cell, **kw) for name, kw in MODELS] \
        + [seeded_dense_model()]


def builtin_models(cell):
    """The models above, the competition models in cooperative form and
    chain-m at m = 6."""
    return all_models() + [
        dataclasses.replace(competition_to_cooperative(
            make_competition_spec(name, cell)).model, name=name)
        for name in ("competition-const", "competition-strong",
                     "competition-periodic")] \
        + [make_model("chain-m", cell, m=6)]


@functools.cache
def cell_models():
    """The built-in models at the cell size their eigensolves use."""
    return builtin_models(make_cell_grid(1.0, 64))


def spectral_models():
    """The built-in models that have a critical speed (the seeded dense
    model has kappa_1(0) <= 0)."""
    return [m for m in cell_models() if m.name != "dense"]


CELL = make_cell_grid(1.0, 32)
C = 2.5


def front_values(s, x):
    """Two-component pulsating shape with x-dependent rows."""
    width = 1.0 + 0.25 * np.cos(2 * np.pi * x)
    v1 = 1.0 / (1.0 + np.exp(-0.9 * s * width))
    return np.stack([v1, v1 ** 1.3])


def synthetic_traj(offset, cells=40, t_end=8.0, dt=0.021):
    window = WindowGrid(CELL, cells)
    traj = Trajectory(window)
    for t in np.arange(0.0, t_end, dt):
        traj.append(SimState(t, front_values(C * t - window.x + offset,
                                             window.x)))
    return traj


@functools.cache
def synthetic_profiles():
    """The raw and anchored profiles of two synthetic runs whose fronts
    are 1.3 apart: keys raw_a, anchored_a, raw_b, anchored_b."""
    out = {}
    for tag, offset in (("a", 15.0), ("b", 16.3)):
        raw = extract_profile(synthetic_traj(offset), C, anchor=False,
                              min_count=3)
        out[f"raw_{tag}"], out[f"anchored_{tag}"] = raw, raw.anchored()
    return out


@functools.cache
def cauchy_run(index, snapshot_dt):
    """A Cauchy run of MODELS[index] on the 16-node cell; at snapshot_dt
    = 0.025 the front moves c snapshot_dt / h = 1 bin between snapshots,
    at 0.03 1.2 bins."""
    name, kw = MODELS[index]
    model = make_model(name, make_cell_grid(1.0, 16), **kw)
    window = WindowGrid(model.cell, 80)
    st = sim.build_initial_front_like(model, window, C, k=1.0, eps0=0.1,
                                      disp=Dispersion(model))
    cfg = StepperConfig(dt=0.005, snapshot_dt=snapshot_dt)
    return sim.run(model, st, window, cfg, 8.0, store_from=3.0)


def profile_parts(p):
    return [p.s, p.U, p.occupancy, list(p.s_solid), p.monotonicity_defect]


@contextlib.contextmanager
def csv_block_rows(rows):
    saved = sim.CSV_BLOCK_ROWS
    sim.CSV_BLOCK_ROWS = rows
    try:
        yield
    finally:
        sim.CSV_BLOCK_ROWS = saved


SPECIAL = [0.0, -0.0, 1.0, 5e-324, 1e-300, -1e-300, 1.0 / 3.0, 2.0 ** 60,
           np.inf, -np.inf, np.nan]


# ---------------------------------------------------------------------------
# CSV writers: the bytes written


def save_csv_bytes(nsnap, block):
    window = WindowGrid(make_cell_grid(1.0, 128), 20, x_lo=-7.0)
    rng = np.random.default_rng(4)
    traj = Trajectory(window)
    for k in range(nsnap):
        u = rng.random((3, window.npts))
        u[:, :len(SPECIAL)] = SPECIAL
        u[1, -len(SPECIAL):] = SPECIAL
        traj.append(SimState([0.0, -0.0, 0.1 * np.pi][k], u))
    with csv_block_rows(block), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshots.csv"
        traj.save_csv(path)
        return path.read_bytes()


def write_csv_bytes(block):
    rng = np.random.default_rng(6)
    table = rng.standard_normal((4099, 4))   # two full default blocks + 3
    table[:len(SPECIAL), 1] = SPECIAL
    tables = [
        # fits.csv: int component and tau columns, nan/inf fits
        [(1, 0.5, 0.25, 0, 0.01), (2, np.nan, np.inf, 1, -np.inf),
         (3, 5e-324, -0.0, 1, 1e-300)],
        [(0.5, 12.0, float("nan")), (1.0, 13.25, 2.5)],
        [],
        table,
    ]
    out = []
    with csv_block_rows(block), tempfile.TemporaryDirectory() as tmp:
        for k, rows in enumerate(tables):
            path = Path(tmp) / f"{k}.csv"
            _write_csv(path, "a, b", rows)
            out.append(path.read_bytes())
    return out


for nsnap in (1, 3):
    register("test_save_csv_bytes_match", save_csv_bytes,
             [(f"{nsnap}-{block}", (nsnap, block))
              for block in (7, sim.CSV_BLOCK_ROWS)])
register("test_write_csv_bytes_match", write_csv_bytes,
         [(str(block), (block,)) for block in (7, sim.CSV_BLOCK_ROWS)])


# ---------------------------------------------------------------------------
# grouped implicit solves: three steps from seeded data


def shared_operator_model(n=32, seed=2):
    """m = 3: components 0 and 2 share (d, q), component 1 does not."""
    rng = np.random.default_rng(seed)
    cell = make_cell_grid(1.0, n)
    d0 = 1.0 + 0.3 * rng.random(n)
    q0 = 0.2 * rng.standard_normal(n)
    d = np.stack([d0, 1.0 + 0.3 * rng.random(n), d0])
    q = np.stack([q0, 0.2 * rng.standard_normal(n), q0])
    hs = []
    for i in range(3):
        b = np.zeros((3, n))
        b[i] = -1.0
        hs.append(PolyH(c=np.full(n, 1.0 if i == 0 else -1.0), b=b))
    return ReactionModel(cell, d, q, {(1, 0): np.full(n, 1.2),
                                      (2, 1): np.full(n, 1.2)},
                         hs, name="shared02")


def heat_model(cell, m=2):
    n = cell.n
    hs = [PolyH(c=np.zeros(n), b=np.zeros((m, n))) for _ in range(m)]
    return ReactionModel(cell, np.ones((m, n)), np.zeros((m, n)), {}, hs,
                         name="heat")


def steps(model):
    """The solve groups (components sharing one factor) and three steps."""
    window = WindowGrid(model.cell, 20)
    stepper = Stepper(model, window,
                      StepperConfig(dt=2e-3, left_value=1.0, right_value=0.0))
    rng = np.random.default_rng(9)
    state = SimState(0.0, rng.random((model.m, window.npts)))
    out = [str([comps for comps, _ in stepper._solves])]
    for _ in range(3):
        state = stepper.step(state)
        out.append(state.u)
    return out


_cell32 = make_cell_grid(1.0, 32)
register("test_grouped_solves_are_bitwise_equal", steps, by_name(
    [make_model("chain-m", _cell32, m=5),
     make_model("custom2", _cell32, **MODELS[2][1]),
     shared_operator_model(), heat_model(_cell32)]))


# ---------------------------------------------------------------------------
# profile extraction and the convergence series


def extracted_profile(index, snapshot_dt, anchor, t_window):
    return profile_parts(extract_profile(
        cauchy_run(index, snapshot_dt), C, t_window=t_window, anchor=anchor,
        min_count=3))


def run_convergence(index, snapshot_dt):
    """Every tenth snapshot against the run's own profile, and against the
    3-cell slices of it that end and start at U_1 = 1/2, so that the sup
    distance sits where the window's nodes leave a slice between the
    lattice nodes (the clamps to 1 and 0)."""
    run_ = cauchy_run(index, snapshot_dt)
    prof = extract_profile(run_, C, t_window=(4.0, 7.0), min_count=3)
    sparse = Trajectory(run_.window, run_.times[::10], run_.snapshots[::10])
    half = int(np.argmin(np.abs(prof.s)))
    cases = [(prof, 6.0)]
    for cut in (slice(half - 48, half), slice(half, half + 48)):
        cases.append((FrontProfile(
            prof.c, prof.cell, prof.s[cut], prof.U[:, :, cut].copy(),
            prof.occupancy[:, cut], 0.0), 12.0))
    return [list(convergence_metric(sparse, p, shift_bracket=bracket))
            for p, bracket in cases]


def synthetic_convergence(kind):
    traj = synthetic_traj(17.0, cells=30, t_end=2.0, dt=0.2)
    return list(convergence_metric(traj, synthetic_profiles()[f"{kind}_a"]))


def clamped_convergence():
    """The series of a profile far narrower than the scanned window, so
    that nodes fall off both ends of its s-range (clamped to 0 and 1),
    evaluated on and between the lattice nodes: [(start, series)]."""
    s = np.arange(-4.0, 4.0, CELL.h)
    U = front_values(s[None, :], CELL.x[:, None]).astype(float)
    prof = FrontProfile(C, CELL, s, U, np.ones((CELL.n, len(s))), 0.0)
    out = []
    for start in (0.0, 0.3 * np.pi):
        traj = synthetic_traj(8.0, cells=30, t_end=2.0, dt=0.4)
        traj.times = [t + start for t in traj.times]
        out.append((start, list(convergence_metric(traj, prof,
                                                   shift_bracket=12.0))))
    return out


_runs = [(f"{MODELS[i][0]}-dt{dt}", (i, dt))
         for i in range(3) for dt in (0.025, 0.03)]
_t_windows = [("None", None), ("t_window1", (4.0, 7.0))]
register("test_extract_profile_is_bitwise_equal", extracted_profile,
         [(f"{pid}-{anchor}-{tid}", args + (anchor, tw))
          for pid, args in _runs for anchor in (False, True)
          for tid, tw in _t_windows])
register("test_convergence_metric_is_bitwise_equal", run_convergence, _runs)
register("test_convergence_metric_matches_reference", synthetic_convergence,
         [(kind, (kind,)) for kind in ("anchored", "raw")])
CASES["test_convergence_metric_clamps_at_both_ends"] = clamped_convergence


# ---------------------------------------------------------------------------
# factored cell operators and eigensolves


def factored_solves(model):
    """sigma I - A of every component and tilt, with the ones start and a
    random right-hand side, each solved twice from one factor."""
    disp = Dispersion(model)
    rhs = np.random.default_rng(4).random(model.cell.n)
    out = []
    for i in range(model.m):
        for lam in (0.0, 0.35, 1.0, 2.5):
            for e in (1, -1):
                disp.e = e
                A = assemble_tilted_operator(disp._component_spec(i, lam))
                F = A.shifted_from(1.0 + A.gershgorin_max()).factor()
                out += [F.solve(np.ones(A.n)), F.solve(rhs)]
    return out


def scalar_eigenpairs(model):
    disp = Dispersion(model)
    out = []
    for i in range(model.m):
        for lam in (0.0, 0.7):
            pair = principal_eig_scalar(disp._component_spec(i, lam))
            out += [pair.value, pair.iterations, pair.vector.values]
    return out


def cascade_solves(model):
    disp = Dispersion(model)
    out = []
    for lam in (0.3, 1.0):
        kappa1 = disp.kappa(0, lam)
        comps = [disp._pair(0, lam).vector.values]
        for j in range(1, model.m):
            S = assemble_tilted_operator(disp._component_spec(j, lam)).shifted_from(kappa1)
            rhs = np.zeros(model.cell.n)
            for k in range(j):
                a_jk = model.coupling(j, k)
                if a_jk is not None:
                    rhs += a_jk * comps[k]
            comps.append(solve_cyclic_banded(S, rhs))
        out += comps[1:]
    return out


def relaxed(model):
    dist, u = models._relax_on_cell(model, u0=0.5, T=2.0)
    return [dist, u]


def steady_states(name):
    spec = make_competition_spec(name, make_cell_grid(1.0, 64))
    return [u.values for u in models.competition_steady_states(spec)]


def random_pivoting(corners):
    """200 seeded cyclic tridiagonal systems with entries of both signs
    and no diagonal dominance, so gttrf pivots; with corners=False the
    corner entries are zero.  A singular one reads "singular"."""
    rng = np.random.default_rng(21)
    out = []
    pivoted = 0
    for trial in range(200):
        n = int(rng.integers(3, 80))
        A = BandedMatrix(rng.standard_normal(n), rng.standard_normal(n),
                         rng.standard_normal(n))
        if not corners:
            A.sub[0] = A.sup[-1] = 0.0
        pivoted += bool(np.any(np.abs(A.main[:-1]) < np.abs(A.sub[1:])))
        rhs = rng.standard_normal(n)
        try:
            out.append(A.factor().solve(rhs))
        except SingularSystemError:
            out.append("singular")
    return [pivoted] + out


def coupled_perron(model):
    out = []
    for at in ("zero", "one"):
        try:
            pair = principal_eig_coupled(model, at=at)
        except ReducibleCouplingError:
            out.append("reducible")
            continue
        out += [pair.value, pair.residual, pair.iterations,
                np.concatenate([f.values for f in pair.vectors])]
    return out


for name, fn in [("test_factored_eigen_systems_are_bitwise_equal",
                  factored_solves),
                 ("test_scalar_eigenpairs_match_reference_loop",
                  scalar_eigenpairs),
                 ("test_relax_on_cell_is_bitwise_equal", relaxed),
                 ("test_coupled_perron_matches_reference_loop",
                  coupled_perron)]:
    register(name, fn, by_name(cell_models()))
register("test_cascade_systems_are_bitwise_equal", cascade_solves,
         by_name([m for m in cell_models() if m.m > 1]))
register("test_competition_steady_states_are_bitwise_equal", steady_states,
         [(name, (name,)) for name in ("competition-const",
                                       "competition-periodic",
                                       "competition-strong")])
register("test_random_pivoting_matrices_are_bitwise_equal", random_pivoting,
         [(str(corners), (corners,)) for corners in (False, True)])


# ---------------------------------------------------------------------------
# speeds, decay rates and the eps searches


def critical_speeds(model):
    return [list(Dispersion(model, e=e).critical_speed()) for e in (1, -1)]


def boundary_speeds(name):
    cell = make_cell_grid(1.0, 64)
    tc = competition_to_cooperative(make_competition_spec(name, cell))
    spec = tc.spec
    return list(boundary_speeds_A6(cell, spec.d1, tc.model.q[0], tc.a11s,
                                   spec.d2, tc.model.q[1], tc.a22s))


def decay_rates(model):
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    return [disp.lambda_c(c) for c in (1.05 * c0, 1.25 * c0, 2.0 * c0)]


def subsolution_eps(model):
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    sub = certify.build_sub_supercritical(model, disp, 1.25 * c0, 0.1, 0.1)
    crit = certify.build_sub_critical(model, disp, 0.1, 0.1)
    return [sub.params["eps"], sub.params["sigma_eps"],
            crit.params["eps_star"], crit.params["sigma_star"]]


def zero_profile(model, c):
    """A profile that is 0 everywhere: the z0 scan passes at z0 = 0, so
    the sandwich builder runs through to its parameters quickly."""
    s = np.arange(-40, 41) * model.cell.h
    return FrontProfile(c, model.cell, s,
                        np.zeros((model.m, model.cell.n, len(s))),
                        np.ones((model.cell.n, len(s))), 0.0)


def sandwich_eps(model):
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    pair = principal_eig_coupled(model, at="one")
    out = []
    for c in (1.25 * c0, c0):
        cand = certify.build_stability_sandwich(
            model, disp, zero_profile(model, c), "lower", delta=0.01,
            psi_pair=pair)
        out += [cand.params[k] for k in ("eps", "beta", "sigma")]
    return out


def h7_scans(model):
    """The 120-sample scan along the critical mode with its witness,
    check_hypotheses' H7 margin, and the 80-sample scans of certify along
    the critical and a supercritical mode."""
    disp = Dispersion(model)
    c0, lam0 = disp.critical_speed()
    out = [json_native(models._h7_scan(model, disp.cascade(lam0).as_array(),
                                       lam0, 120)),
           models.check_hypotheses(model, run_h5_heuristic=False)["H7"].margin]
    for lam in (lam0, disp.lambda_c(1.25 * c0)):
        out.append(models._h7_scan(model, disp.cascade(lam).as_array(),
                                   lam, 80)[0])
    return out


def h3_margin(model):
    return json_native(models._cooperativity(model))


register("test_critical_speed_is_bitwise_equal", critical_speeds,
         by_name(all_models()[:5]))
register("test_boundary_speeds_are_bitwise_equal", boundary_speeds,
         [(name, (name,)) for name in ("competition-const",
                                       "competition-periodic",
                                       "competition-strong")])
for name, fn in [("test_lambda_c_is_bitwise_equal", decay_rates),
                 ("test_subsolution_eps_is_bitwise_equal", subsolution_eps),
                 ("test_h7_scans_are_bitwise_equal", h7_scans)]:
    register(name, fn, by_name(spectral_models()))
# competition-const's upper state is not linearly stable: no sandwich
register("test_sandwich_eps_is_bitwise_equal", sandwich_eps,
         by_name([m for m in spectral_models()
                  if m.name != "competition-const"]))
register("test_h3_margin_matches_strided_lattice", h3_margin,
         [(f"{m.name}-m{m.m}", (m,)) for m in cell_models()
          + [make_model("chain-m", make_cell_grid(1.0, 64), m=4)]
          if m.name != "dense"])


# ---------------------------------------------------------------------------
# certify: candidates, their fields and their reports


def synthetic_profile(model, c):
    """A smooth front on (node, s) that varies along the cell and between
    components, and sits close enough to 1 at the cutoff that the z0 scan
    needs a few trial shifts."""
    cell = model.cell
    s = np.arange(-1920, 1921) * cell.h
    phase = 0.3 * np.sin(2 * np.pi * cell.x / cell.L)
    arg = (s[None, None, :] + 6.0 + phase[None, :, None]
           + 0.5 * np.arange(model.m)[:, None, None])
    return FrontProfile(c, cell, s, 1.0 / (1.0 + np.exp(-arg)),
                        np.ones((cell.n, len(s))), 0.0, (-20.0, 20.0))


def cert_points(c):
    """(t, x) samples on and off the node lattice, reaching past both ends
    of the profiles' s-range."""
    for t in (0.6, 1.9, 2.8):
        yield t, c * t - np.linspace(-130.0, 130.0, 2001) + 0.003


def candidate_parts(model, cand):
    """A candidate's fields, its evaluators at cert_points (the profile
    ones too) and its residual report."""
    out = [cand.kind, cand.sense, json_native(cand.params),
           json_native(cand.s_region),
           [[b.name, b.margin, json_native(b.witness)]
            for b in cand.constraints]]
    evaluators = [cand.evaluator]
    if cand.bare is not None:
        out += [json_native(cand.bare.s_region), cand.bare.sense]
        evaluators += [cand.dudt_evaluator, cand.bare.evaluator,
                       cand.bare.dudt_evaluator]
    for t, x in cert_points(cand.params["c"]):
        out += [f(t, x) for f in evaluators]
    out.append(certify.residual_sign_check(model, cand).as_dict())
    return out


def closed_form_candidates(name, c):
    # on constant2 these are criterion 8's four closed-form candidates
    model = make_model(name)
    disp = Dispersion(model)
    c = c or 1.25 * disp.critical_speed()[0]
    return [candidate_parts(model, cand) for cand in (
        certify.build_sub_supercritical(model, disp, c, 0.1, 0.1),
        certify.build_sub_critical(model, disp, 0.1, 0.1),
        certify.build_super_linearized(model, disp, c, 1.0),
        certify.build_super_linearized_critical(model, disp, 1.0, 2.0))]


def sub_supercritical_boundary(model):
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    return [[[b.name, b.margin]
             for b in certify.build_sub_supercritical(
                 model, disp, c, *delta).constraints]
            for c in (1.05 * c0, 1.25 * c0, 2.0 * c0)
            for delta in ((0.1, 0.1), (0.2, 0.05))]


def sandwiches(name, critical):
    """Both signs at the default sigma and s0, and at three times that
    sigma with s0 = 0.7."""
    model = make_model(name)
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    profile = synthetic_profile(model, c0 if critical else 1.25 * c0)
    pair = principal_eig_coupled(model, at="one")
    out = []
    for sign in ("lower", "upper"):
        default = certify.build_stability_sandwich(
            model, disp, profile, sign, delta=0.01, psi_pair=pair)
        other = certify.build_stability_sandwich(
            model, disp, profile, sign, delta=0.01, psi_pair=pair,
            sigma=3.0 * default.params["sigma"], s0=0.7)
        out += [candidate_parts(model, default),
                candidate_parts(model, other)]
    return out


register("test_closed_form_candidates_match_reference_builders",
         closed_form_candidates,
         [("constant2-2.5", ("constant2", 2.5)),
          ("periodic2-None", ("periodic2", None))])
register("test_sub_supercritical_boundary_values_match_reference",
         sub_supercritical_boundary, by_name(spectral_models()))
register("test_sandwich_matches_reference_builder", sandwiches,
         [(f"{name}-{kind}", (name, kind == "critical"))
          for name in ("constant2", "periodic2")
          for kind in ("critical", "supercritical")])
