"""The fast paths against the loop versions they replaced.

The reaction on window-gathered coefficients with the sparse linear and
quadratic terms keeps the arithmetic of the gather-per-call dense einsum,
so F must be bit-for-bit equal.  The grouped multi-right-hand-side solves
run the per-component solves' arithmetic, so a step must be bit-for-bit
equal too, and the block-formatted CSV writers (run's writer process
among them) must write the same bytes as the per-value f-strings.  The
one-stencil profile shifts take one interpolation weight per shift where
the loops recomputed it per column, so shift_distance and
convergence_metric may differ by roundoff only.
The factored cell operators (gttrf once, gttrs per solve) run the
operations of the two-gtsv bordered solve in the same order, so every
solve, eigenpair and relaxation must be bit-for-bit equal.  The
dependency lattices sample each Jacobian row over the components it
reads, so they must give the full lattice's extrema exactly (and, for
H3, the strided lattice's margin on the built-in models).
The coupled eigensolve, the lambda_c bisection, the four eps searches
and both H7 scans now share one loop each with their former twins, so
each must give its loop's numbers bit for bit.
"""

import dataclasses
import itertools
import math
import multiprocessing
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import perifront.dispersion as dispersion
import perifront.eigen as eigen
import perifront.fronts as fronts
import perifront.models as models
import perifront.sim as sim
from scipy.linalg import solve_banded
from perifront import (Dispersion, SimState, Stepper, StepperConfig,
                       Trajectory, WindowGrid, convergence_metric,
                       extract_profile, make_cell_grid, make_model,
                       principal_eig_coupled, shift_distance)
import perifront.certify as certify
from perifront.certify import _gamma0, compute_varrho
from perifront.cli import _write_csv
from perifront.dispersion import golden_section_min
from perifront.eigen import MAX_ITER, principal_eig_scalar
from perifront.errors import ReducibleCouplingError, SingularSystemError
from perifront.grid import (BandedMatrix, OperatorSpec, PeriodicField,
                            assemble_tilted_operator, solve_cyclic_banded)
from perifront.models import (PolyH, ReactionModel,
                              competition_to_cooperative,
                              make_competition_spec)


# ---------------------------------------------------------------------------
# reference implementations (the replaced loops)


def ref_polyh(h, u, xidx):
    """PolyH evaluation gathering c, b and Q on every call, dense einsums."""
    out = h.c[xidx] + np.einsum("kp,kp->p", h.b[:, xidx], u)
    if h.Q is not None:
        out += np.einsum("kp,klp,lp->p", u, h.Q[:, :, xidx], u)
    return out


def ref_F(model, u, xidx):
    out = np.empty_like(u)
    for i in range(model.m):
        out[i] = u[i] * ref_polyh(model.h[i], u, xidx)
        for j in range(i):
            a = model.coupling(i, j)
            if a is not None:
                out[i] += a[xidx] * u[j]
    return out


def ref_max_abs_du(h, box_lo, box_hi, samples=3):
    """max |dh/du_k| over the full samples**m lattice."""
    m, n = h.b.shape
    pts = np.linspace(box_lo, box_hi, samples)
    best = 0.0
    for corner in itertools.product(pts, repeat=m):
        u = np.repeat(np.asarray(corner)[:, None], n, axis=1)
        for k in range(m):
            best = max(best, float(np.max(np.abs(h.du(k, u, np.arange(n))))))
    return best


def ref_step(stepper, state):
    """One splu factorisation and one solve per component."""
    cfg = stepper.cfg
    u = state.u
    Fu = stepper._reaction.F(u, slice(None))
    new = np.empty_like(u)
    for i in range(stepper.model.m):
        rhs = u[i] + cfg.dt * Fu[i]
        rhs[0] = cfg.left_value
        rhs[-1] = cfg.right_value
        new[i] = stepper._factor(i).solve(rhs)
    return new


def ref_save_csv(traj, path):
    """One f-string per value."""
    m = traj.m
    cols = ", ".join(f"u_{i + 1}" for i in range(m))
    with open(path, "w") as fh:
        fh.write(f"# t, x, {cols}\n")
        for t, u in zip(traj.times, traj.snapshots):
            for j, xj in enumerate(traj.window.x):
                vals = ", ".join(f"{u[i, j]:.17g}" for i in range(m))
                fh.write(f"{t:.17g}, {xj:.17g}, {vals}\n")


def ref_write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write("# " + header + "\n")
        for row in rows:
            fh.write(", ".join(f"{v:.17g}" for v in row) + "\n")


def ref_reaction_lipschitz(model, samples=5):
    """max |dF_i/du_i| over the full samples**m lattice."""
    pts = np.linspace(0.0, 1.0, samples)
    xidx = np.arange(model.cell.n)
    best = 0.0
    for corner in itertools.product(pts, repeat=model.m):
        u = np.repeat(np.asarray(corner)[:, None], model.cell.n, axis=1)
        J = model.jacobian(u, xidx)
        for i in range(model.m):
            best = max(best, float(np.max(np.abs(J[i, i]))))
    return best


def ref_thomas(sub, main, sup, rhs):
    """One plain tridiagonal solve, LAPACK gtsv through solve_banded."""
    n = len(main)
    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = main
    ab[2, :-1] = sub[1:]
    return solve_banded((1, 1), ab, rhs)


def ref_solve_cyclic_banded(A, rhs):
    """The bordered solve factoring B twice per pass: gtsv on rhs and on
    the border u, recombined by Sherman-Morrison, then one refinement."""
    rhs = np.asarray(rhs, dtype=float)
    n = A.n

    def raw_solve(r):
        alpha = A.sub[0]
        beta = A.sup[n - 1]
        gamma = -A.main[0] if A.main[0] != 0.0 else 1.0
        main = A.main.copy()
        main[0] -= gamma
        main[-1] -= alpha * beta / gamma
        u = np.zeros(n)
        u[0] = gamma
        u[-1] = beta
        y = ref_thomas(A.sub, main, A.sup, r)
        z = ref_thomas(A.sub, main, A.sup, u)
        vy = y[0] + alpha / gamma * y[-1]
        vz = z[0] + alpha / gamma * z[-1]
        denom = 1.0 + vz
        if abs(denom) < 1e-14:
            raise SingularSystemError("bordered correction became singular")
        return y - z * (vy / denom)

    try:
        x = raw_solve(rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solve produced non-finite values")
    r = rhs - A.matvec(x)
    x = x + raw_solve(r)
    scale = max(float(np.max(np.abs(rhs))),
                float(np.max(np.abs(x))) * A.norm_inf())
    resid = float(np.max(np.abs(rhs - A.matvec(x))))
    if scale > 0 and resid > 1e-10 * scale:
        raise SingularSystemError("residual exceeds contract")
    return x


def ref_principal_eig_scalar(spec, tol=1e-10):
    """Inverse power iteration re-solving sigma I - A from scratch each
    iteration; returns (value, vector, iterations)."""
    A = assemble_tilted_operator(spec)
    sigma = 1.0 + A.gershgorin_max()
    S = A.shifted_from(sigma)
    phi = np.ones(A.n)
    kappa = float(A.matvec(phi).mean())
    for it in range(1, MAX_ITER + 1):
        w = ref_solve_cyclic_banded(S, phi)
        nu = w.mean()
        w = w / nu
        kappa_new = sigma - 1.0 / nu
        resid = float(np.max(np.abs(A.matvec(w) - kappa_new * w)))
        done = (abs(kappa_new - kappa) <= tol * max(1.0, abs(kappa_new))
                and resid <= tol * max(1.0, abs(kappa_new)))
        phi, kappa = w, kappa_new
        if done:
            return kappa, phi, it
    raise AssertionError("reference iteration did not converge")


def ref_sup_dist_shifted(U, V, z):
    """One FrontProfile.eval gather per cell row."""
    s = V.s
    inside = (s + z >= U.s[0]) & (s + z <= U.s[-1])
    if inside.sum() < 4:
        return np.inf
    ssub = s[inside]
    worst = 0.0
    for r in range(V.cell.n):
        xi = np.full(len(ssub), r)
        diff = U.eval(xi, ssub + z, clamp=True) - V.U[:, r, :][:, inside]
        worst = max(worst, float(np.nanmax(np.abs(diff))))
    return worst


def ref_convergence_metric(traj, profile, margin_cells=5, shift_bracket=6.0):
    """One FrontProfile.eval over the window per trial shift."""
    window = traj.window
    margin = margin_cells * window.cell.n
    xw = window.x[margin:-margin]
    xidx = window.xidx[margin:-margin]
    c = profile.c
    times, shifts, dists = [], [], []
    shift_prev = 0.0
    for t, u in zip(traj.times, traj.snapshots):
        usub = u[:, margin:-margin]

        def dist_of(shift):
            pred = profile.eval(xidx, c * t - xw + shift, clamp=True)
            return float(np.max(np.abs(usub - pred)))

        zs = shift_prev + np.linspace(-shift_bracket, shift_bracket, 25)
        vals = [dist_of(z) for z in zs]
        zbest = zs[int(np.argmin(vals))]
        z0, d0 = golden_section_min(dist_of, zbest - 0.5, zbest + 0.5,
                                    tol=1e-6)
        times.append(t)
        shifts.append(float(z0))
        dists.append(float(d0))
        shift_prev = float(z0)
    return np.asarray(times), np.asarray(shifts), np.asarray(dists)


# ---------------------------------------------------------------------------
# reaction


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


def all_models():
    cell = make_cell_grid(1.0, 32)
    return [make_model(name, cell, **kw) for name, kw in MODELS] \
        + [seeded_dense_model()]


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_gathered_F_is_bitwise_equal(model):
    window = WindowGrid(model.cell, 20)
    rng = np.random.default_rng(3)
    u = rng.random((model.m, window.npts))
    ref = ref_F(model, u, window.xidx)
    assert np.array_equal(model.F(u, window.xidx), ref)
    stepper = Stepper(model, window, StepperConfig(dt=1e-4))
    assert np.array_equal(stepper._reaction.F(u, slice(None)), ref)


def test_sparse_quadratic_skips_zero_pairs():
    Q = np.zeros((3, 3, 8))
    Q[0, 2] = 1.5
    Q[2, 1, 3] = -0.5
    h = PolyH(c=np.zeros(8), b=np.zeros((3, 8)), Q=Q)
    assert h._pairs == ((0, 2), (2, 1))
    u = np.random.default_rng(0).random((3, 8))
    assert np.array_equal(h(u, np.arange(8)), ref_polyh(h, u, np.arange(8)))


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_reaction_lipschitz_matches_full_lattice(model):
    assert model.reaction_lipschitz() == ref_reaction_lipschitz(model)


def test_reaction_lipschitz_chain_m8_within_budget():
    import time
    model = make_model("chain-m", m=8)
    t0 = time.perf_counter()
    lip = model.reaction_lipschitz()
    assert time.perf_counter() - t0 < 1.0
    assert lip == pytest.approx(1.4, rel=1e-12)   # |1 - 2 (1 - a)| at u = 1


def rates(models):
    return [pytest.param(h, id=f"{model.name}-m{model.m}-h{i + 1}")
            for model in models for i, h in enumerate(model.h)]


def builtin_models(cell):
    """The models above, the competition models in cooperative form and
    chain-m at m = 6."""
    return all_models() + [
        dataclasses.replace(competition_to_cooperative(
            make_competition_spec(name, cell)).model, name=name)
        for name in ("competition-const", "competition-strong",
                     "competition-periodic")] \
        + [make_model("chain-m", cell, m=6)]


def polyh_cases():
    """Every rate of the built-in models, plus the edge cases of the
    sparse linear term."""
    rng = np.random.default_rng(11)
    m, n = 4, 32
    Q = np.zeros((m, m, n))
    Q[1, 3] = rng.standard_normal(n)
    Q[2, 2] = rng.standard_normal(n)
    return rates(builtin_models(make_cell_grid(1.0, n))) + [
        pytest.param(PolyH(c=rng.standard_normal(n),
                           b=rng.standard_normal((m, n))), id="dense-b"),
        pytest.param(PolyH(c=rng.standard_normal(n), b=np.zeros((m, n))),
                     id="zero-b"),
        pytest.param(PolyH(c=rng.standard_normal(n), b=np.zeros((m, n)),
                           Q=Q), id="Q-only")]


@pytest.mark.parametrize("h", polyh_cases())
def test_sparse_polyh_is_bitwise_equal(h):
    m, n = h.b.shape
    rng = np.random.default_rng(5)
    window = WindowGrid(make_cell_grid(1.0, n), 20)
    u = rng.random((m, window.npts)) * 2.0 - 0.5
    xidx = window.xidx
    ref = ref_polyh(h, u, xidx)
    assert np.array_equal(h(u, xidx), ref)
    gathered = PolyH(h.c[xidx], h.b[:, xidx],
                     None if h.Q is None else h.Q[:, :, xidx])
    assert np.array_equal(gathered(u, slice(None)), ref)
    # the result is a fresh array, never a view of c
    out = gathered(u, slice(None))
    out += 1.0
    assert np.array_equal(gathered.c, h.c[xidx])


def test_sparse_linear_skips_zero_rows():
    b = np.zeros((4, 8))
    b[1, 2] = 0.5
    b[3] = -1.0
    assert PolyH(c=np.zeros(8), b=b)._rows == (1, 3)
    assert PolyH(c=np.zeros(8), b=np.zeros((4, 8)))._rows == ()


@pytest.mark.parametrize("h", rates(builtin_models(make_cell_grid(1.0, 16))))
def test_max_abs_du_matches_full_lattice(h):
    for box in (1.0, 4.0 / 3.0, 2.5):
        assert h.max_abs_du(-box, box) == ref_max_abs_du(h, -box, box)


def test_gamma0_chain_m8_within_budget():
    model = make_model("chain-m", m=8)
    t0 = time.perf_counter()
    gamma0 = _gamma0(model, 4.0 / 3.0)
    assert time.perf_counter() - t0 < 1.0
    assert gamma0 == 1.0     # |b_00| = 1 beats |b_ii| = |1 - a| = 0.2


def test_kappa_solves_once_per_key(monkeypatch):
    solves = []
    real = dispersion.principal_eig_scalar

    def counting(spec, **kw):
        solves.append(spec.lam)
        return real(spec, **kw)

    monkeypatch.setattr(dispersion, "principal_eig_scalar", counting)
    disp = Dispersion(make_model("periodic2"))
    first = [disp.kappa(i, lam) for i in (0, 1) for lam in (0.5, 0.7)]
    again = [disp.kappa(i, lam + 1e-14) for i in (0, 1) for lam in (0.5, 0.7)]
    assert first == again and len(solves) == 4
    assert disp.kappa(0, 0.5) == disp._pair(0, 0.5).value


# ---------------------------------------------------------------------------
# grouped implicit solves


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


def solve_cases():
    cell = make_cell_grid(1.0, 32)
    cases = [(make_model("chain-m", cell, m=5), [slice(0, 5)]),
             (make_model("custom2", cell, **MODELS[2][1]),
              [slice(0, 1), slice(1, 2)]),
             (shared_operator_model(), [[0, 2], slice(1, 2)]),
             (heat_model(cell), [slice(0, 2)])]
    return [pytest.param(model, groups, id=model.name)
            for model, groups in cases]


@pytest.mark.parametrize("model,groups", solve_cases())
def test_grouped_solves_are_bitwise_equal(model, groups):
    window = WindowGrid(model.cell, 20)
    cfg = StepperConfig(dt=2e-3, left_value=1.0, right_value=0.0)
    stepper = Stepper(model, window, cfg)
    assert [comps for comps, _ in stepper._solves] == groups
    rng = np.random.default_rng(9)
    state = SimState(0.0, rng.random((model.m, window.npts)))
    for _ in range(3):
        ref = ref_step(stepper, state)
        state = stepper.step(state)
        assert np.array_equal(state.u, ref)


def test_constant2_and_periodic2_share_their_operator():
    for name in ("constant2", "periodic2"):
        model = make_model(name)
        stepper = Stepper(model, WindowGrid(model.cell, 20),
                          StepperConfig(dt=0.01))
        assert len(stepper._solves) == 1


# ---------------------------------------------------------------------------
# CSV writers


SPECIAL = [0.0, -0.0, 1.0, 5e-324, 1e-300, -1e-300, 1.0 / 3.0, 2.0 ** 60,
           np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("block", [7, sim.CSV_BLOCK_ROWS])
@pytest.mark.parametrize("nsnap", [1, 3])
def test_save_csv_bytes_match(tmp_path, monkeypatch, block, nsnap):
    monkeypatch.setattr(sim, "CSV_BLOCK_ROWS", block)
    window = WindowGrid(make_cell_grid(1.0, 128), 20, x_lo=-7.0)
    assert window.npts > block and window.npts % block != 0
    rng = np.random.default_rng(4)
    traj = Trajectory(window)
    for k in range(nsnap):
        u = rng.random((3, window.npts))
        u[:, :len(SPECIAL)] = SPECIAL
        u[1, -len(SPECIAL):] = SPECIAL
        traj.append(SimState([0.0, -0.0, 0.1 * np.pi][k], u))
    traj.save_csv(tmp_path / "new.csv")
    ref_save_csv(traj, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("writer", [True, False],
                         ids=["writer-process", "in-process"])
@pytest.mark.parametrize("T, store_from", [(1.0, 0.0), (1.05, 0.5)])
def test_run_csv_bytes_match(tmp_path, monkeypatch, writer, T, store_from):
    """run(csv_path=) writes save_csv's bytes, through the writer process
    and through the in-process fallback; T = 1.05 ends off the 0.2
    cadence, so the last step is stored too."""
    monkeypatch.setattr(sim, "CSV_BLOCK_ROWS", 7)
    if not writer:
        monkeypatch.setattr(sim.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
    model = make_model("chain-m", make_cell_grid(1.0, 16), m=3)
    window = WindowGrid(model.cell, 20, x_lo=-4.0)
    u0 = 0.5 * (1.0 - np.tanh(window.x - 2.0))
    state = SimState(0.0, np.stack([u0, 0.9 * u0, 0.8 * u0]))
    path = tmp_path / "snapshots.csv"
    traj = sim.run(model, state, window,
                   StepperConfig(dt=0.01, snapshot_dt=0.2), T,
                   store_from=store_from, csv_path=path)
    want = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.05]
    want = [t for t in want if t <= T and t >= store_from]
    assert np.allclose(traj.times, want, rtol=0.0, atol=1e-9)
    ref_save_csv(traj, tmp_path / "ref.csv")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("block", [7, sim.CSV_BLOCK_ROWS])
def test_write_csv_bytes_match(tmp_path, monkeypatch, block):
    monkeypatch.setattr(sim, "CSV_BLOCK_ROWS", block)
    rng = np.random.default_rng(6)
    table = rng.standard_normal((4099, 4))   # two full default blocks + 3
    table[:len(SPECIAL), 1] = SPECIAL
    cases = {
        # fits.csv: int component and tau columns, nan/inf fits
        "fits": [(1, 0.5, 0.25, 0, 0.01), (2, np.nan, np.inf, 1, -np.inf),
                 (3, 5e-324, -0.0, 1, 1e-300)],
        "fronts": [(0.5, 12.0, float("nan")), (1.0, 13.25, 2.5)],
        "empty": [],
        "array": table,
    }
    for name, rows in cases.items():
        _write_csv(tmp_path / f"{name}.csv", "a, b", rows)
        ref_write_csv(tmp_path / f"{name}-ref.csv", "a, b", rows)
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}-ref.csv").read_bytes(), name


# ---------------------------------------------------------------------------
# profile shifts


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


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for tag, offset in (("a", 15.0), ("b", 16.3)):
        traj = synthetic_traj(offset)
        out[f"raw_{tag}"] = extract_profile(traj, C, anchor=False,
                                            min_count=3)
        out[f"anchored_{tag}"] = extract_profile(traj, C, anchor=True,
                                                 min_count=3)
    return out


@pytest.mark.parametrize("kind", ["raw", "anchored"])
def test_sup_dist_matches_per_row_loop(profiles, kind):
    U, V = profiles[f"{kind}_a"], profiles[f"{kind}_b"]
    if kind == "raw":    # raw profiles sit on the h-lattice
        assert np.array_equal(U.s / U.h_s, np.round(U.s / U.h_s))
    # every shift at which the ranges overlap, reaching both ends of U,
    # on the lattice and between its nodes
    lo, hi = V.s[0] - U.s[-1], V.s[-1] - U.s[0]
    zs = np.concatenate([np.arange(lo - 1.0, hi + 1.0, 4.0 * U.h_s),
                         np.linspace(lo - 0.3, hi + 0.3, 201)])
    got = np.array([fronts._sup_dist_shifted(U, V, z) for z in zs])
    want = np.array([ref_sup_dist_shifted(U, V, z) for z in zs])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert fin.sum() > 100 and (~fin).sum() > 10
    assert np.max(np.abs(got[fin] - want[fin])) <= 1e-12


@pytest.mark.parametrize("kind", ["raw", "anchored"])
@pytest.mark.parametrize("bracket", [20.0, 70.0])
def test_shift_distance_matches_reference(profiles, kind, bracket,
                                          monkeypatch):
    U, V = profiles[f"{kind}_a"], profiles[f"{kind}_b"]
    got = shift_distance(U, V, bracket=bracket)
    monkeypatch.setattr(fronts, "_sup_dist_shifted", ref_sup_dist_shifted)
    want = shift_distance(U, V, bracket=bracket)
    assert abs(got.z0_est - want.z0_est) <= 1e-12
    assert abs(got.sup_dist - want.sup_dist) <= 1e-12
    # the raw profiles keep the runs' offsets, the anchored ones align them
    want_z = 1.3 if kind == "raw" else 0.0
    assert got.z0_est == pytest.approx(want_z, abs=CELL.h)


def test_shift_distance_rejects_other_lattice(profiles):
    U = profiles["raw_a"]
    V = fronts.FrontProfile(U.c, U.cell, U.s * 1.01, U.U, U.occupancy,
                            0.0, False)
    with pytest.raises(fronts.FrontError, match="spacings"):
        shift_distance(U, V)


@pytest.mark.parametrize("kind", ["raw", "anchored"])
def test_convergence_metric_matches_reference(profiles, kind):
    traj = synthetic_traj(17.0, cells=30, t_end=2.0, dt=0.2)
    prof = profiles[f"{kind}_a"]
    got = convergence_metric(traj, prof)
    want = ref_convergence_metric(traj, prof)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12


def test_convergence_metric_clamps_at_both_ends():
    # a profile far narrower than the scanned window, so that nodes fall
    # off both ends of its s-range (clamped to 0 and 1), evaluated on and
    # between the lattice nodes
    s = np.arange(-4.0, 4.0, CELL.h)
    U = front_values(s[None, :], CELL.x[:, None]).astype(float)
    prof = fronts.FrontProfile(C, CELL, s, U, np.ones((CELL.n, len(s))),
                               0.0, True)
    for start in (0.0, 0.3 * math.pi):
        traj = synthetic_traj(8.0, cells=30, t_end=2.0, dt=0.4)
        traj.times = [t + start for t in traj.times]
        got = convergence_metric(traj, prof, shift_bracket=12.0)
        want = ref_convergence_metric(traj, prof, shift_bracket=12.0)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12
        # the clamps cost a few percent of fit, the front is still found
        assert np.allclose(got[1], 8.0 - C * start, atol=0.5)
        assert np.max(got[2]) <= 0.1


# ---------------------------------------------------------------------------
# factored cell operators


def cell_models():
    """The built-in models at the cell size their eigensolves use."""
    return builtin_models(make_cell_grid(1.0, 64))


def imex_matrix(A, dt):
    return BandedMatrix(-dt * A.sub, 1.0 - dt * A.main, -dt * A.sup)


def untilted(model, i):
    n = model.cell.n
    return assemble_tilted_operator(OperatorSpec(
        d=PeriodicField(model.cell, model.d[i]),
        q=PeriodicField(model.cell, model.q[i]),
        eta=PeriodicField(model.cell, np.zeros(n)), lam=0.0, e=1))


@pytest.mark.parametrize("model", cell_models(), ids=lambda m: m.name)
def test_factored_eigen_systems_are_bitwise_equal(model):
    """sigma I - A of every component and tilt, with the ones start and a
    random right-hand side, each solved twice from one factor."""
    disp = Dispersion(model)
    rhs = np.random.default_rng(4).random(model.cell.n)
    for i in range(model.m):
        for lam in (0.0, 0.35, 1.0, 2.5):
            for e in (1, -1):
                disp.e = e
                A = assemble_tilted_operator(disp._component_spec(i, lam))
                S = A.shifted_from(1.0 + A.gershgorin_max())
                F = S.factor()
                for r in (np.ones(A.n), rhs):
                    assert np.array_equal(F.solve(r),
                                          ref_solve_cyclic_banded(S, r))


@pytest.mark.parametrize("model", cell_models(), ids=lambda m: m.name)
def test_scalar_eigenpairs_match_reference_loop(model):
    disp = Dispersion(model)
    for i in range(model.m):
        for lam in (0.0, 0.7):
            spec = disp._component_spec(i, lam)
            pair = principal_eig_scalar(spec)
            value, vector, iterations = ref_principal_eig_scalar(spec)
            assert pair.value == value
            assert pair.iterations == iterations
            assert np.array_equal(pair.vector.values, vector)


@pytest.mark.parametrize("model", [m for m in cell_models() if m.m > 1],
                         ids=lambda m: m.name)
def test_cascade_systems_are_bitwise_equal(model):
    disp = Dispersion(model)
    for lam in (0.3, 1.0):
        kappa1 = disp.kappa(0, lam)
        comps = [disp._pair(0, lam).vector.values]
        for j in range(1, model.m):
            A_j = assemble_tilted_operator(disp._component_spec(j, lam))
            S = A_j.shifted_from(kappa1)
            rhs = np.zeros(model.cell.n)
            for k in range(j):
                a_jk = model.coupling(j, k)
                if a_jk is not None:
                    rhs += a_jk * comps[k]
            x = solve_cyclic_banded(S, rhs)
            assert np.array_equal(x, ref_solve_cyclic_banded(S, rhs))
            comps.append(x)


def ref_relax_on_cell(model, u0, T, dt=0.02):
    n = model.cell.n
    xidx = np.arange(n)
    u = np.full((model.m, n), float(u0))
    S = [imex_matrix(untilted(model, i), dt) for i in range(model.m)]
    for _ in range(int(round(T / dt))):
        Fu = model.F(u, xidx)
        for i in range(model.m):
            u[i] = ref_solve_cyclic_banded(S[i], u[i] + dt * Fu[i])
    return u


@pytest.mark.parametrize("model", cell_models(), ids=lambda m: m.name)
def test_relax_on_cell_is_bitwise_equal(model):
    dist, u = models._relax_on_cell(model, u0=0.5, T=2.0, also_state=True)
    ref = ref_relax_on_cell(model, 0.5, T=2.0)
    assert np.array_equal(u, ref)
    assert dist == float(np.max(np.abs(ref - 1.0)))


def ref_scalar_logistic_steady_state(cell, d, a, b, aii, tol):
    dt = min(0.2, 0.2 / max(1.0, float(np.max(np.abs(b)))))
    A = assemble_tilted_operator(OperatorSpec(
        d=PeriodicField(cell, d), q=PeriodicField(cell, a),
        eta=PeriodicField(cell, np.zeros(cell.n)), lam=0.0, e=1))
    S = imex_matrix(A, dt)
    u = np.full(cell.n, float(np.max(b) / np.min(aii)))
    for _ in range(int(2e5)):
        f = u * (b - aii * u)
        u_new = ref_solve_cyclic_banded(S, u + dt * f)
        rate = float(np.max(np.abs(u_new - u))) / dt
        u = u_new
        if rate <= tol:
            return u
    raise AssertionError("reference steady state did not settle")


@pytest.mark.parametrize("name", ["competition-const", "competition-strong",
                                  "competition-periodic"])
def test_competition_steady_states_are_bitwise_equal(name):
    spec = make_competition_spec(name, make_cell_grid(1.0, 64))
    u1, u2 = models.competition_steady_states(spec)
    for u, args in ((u1, (spec.d1, spec.a1, spec.b1, spec.a11)),
                    (u2, (spec.d2, spec.a2, spec.b2, spec.a22))):
        ref = ref_scalar_logistic_steady_state(spec.cell, *args, 1e-10)
        assert np.array_equal(u.values, ref)


def random_tridiagonal(rng, n, corners):
    """Entries of both signs and no diagonal dominance, so gttrf pivots;
    with corners=False the corner entries are zero (a plain tridiagonal
    matrix through the cyclic path)."""
    A = BandedMatrix(rng.standard_normal(n), rng.standard_normal(n),
                     rng.standard_normal(n))
    if not corners:
        A.sub[0] = A.sup[-1] = 0.0
    return A


@pytest.mark.parametrize("corners", [True, False])
def test_random_pivoting_matrices_are_bitwise_equal(corners):
    rng = np.random.default_rng(21)
    pivoted = 0
    for trial in range(200):
        n = int(rng.integers(3, 80))
        A = random_tridiagonal(rng, n, corners)
        pivoted += bool(np.any(np.abs(A.main[:-1]) < np.abs(A.sub[1:])))
        rhs = rng.standard_normal(n)
        try:
            ref = ref_solve_cyclic_banded(A, rhs)
        except SingularSystemError:
            with pytest.raises(SingularSystemError):
                A.factor().solve(rhs)
            continue
        assert np.array_equal(A.factor().solve(rhs), ref)
    assert pivoted > 150


def test_zero_matrix_still_raises():
    n = 32
    A = BandedMatrix(np.zeros(n), np.zeros(n), np.zeros(n))
    with pytest.raises(SingularSystemError):
        A.factor()
    with pytest.raises(SingularSystemError):
        solve_cyclic_banded(A, np.ones(n))


# ---------------------------------------------------------------------------
# one bracket-then-minimise routine


def ref_bracket_golden(ratio, tol, message):
    """The bracket loop each caller carried inline."""
    hi = 1.0
    while ratio(hi * 2.0) < ratio(hi):
        hi *= 2.0
        if hi > dispersion.LAMBDA_MAX:
            raise dispersion.PerifrontError(message)
    return golden_section_min(ratio, 1e-4, 2.0 * hi, tol=tol)


def ref_critical_speed(disp):
    ratio = lambda lam: disp.kappa(0, lam) / lam
    lam0, _ = ref_bracket_golden(ratio, 1e-8, "no ratio minimum")
    g = lambda lam: lam * disp.kappa1_prime(lam, 1e-3) - disp.kappa(0, lam)
    a, b = max(1e-4, lam0 - 1e-2), lam0 + 1e-2
    if g(a) < 0.0 < g(b):
        for _ in range(80):
            mid = 0.5 * (a + b)
            if g(mid) < 0.0:
                a = mid
            else:
                b = mid
            if b - a <= 1e-12 * max(1.0, b):
                break
        lam0 = 0.5 * (a + b)
    return ratio(lam0), lam0


@pytest.mark.parametrize("model", all_models()[:5], ids=lambda m: m.name)
def test_critical_speed_is_bitwise_equal(model):
    for e in (1, -1):
        assert Dispersion(model, e=e).critical_speed() == \
            ref_critical_speed(Dispersion(model, e=e))


@pytest.mark.parametrize("name", ["competition-const", "competition-strong",
                                  "competition-periodic"])
def test_boundary_speeds_are_bitwise_equal(name):
    cell = make_cell_grid(1.0, 64)
    tc = competition_to_cooperative(make_competition_spec(name, cell))
    spec = tc.spec
    args = (cell, spec.d1, tc.model.q[0], tc.a11s,
            spec.d2, tc.model.q[1], tc.a22s)

    def ref(dv, qv, ev, sign):
        ratio = lambda lam: principal_eig_scalar(OperatorSpec(
            d=PeriodicField(cell, dv), q=PeriodicField(cell, qv),
            eta=PeriodicField(cell, ev), lam=sign * lam)).value / lam
        return ref_bracket_golden(ratio, 1e-11, "no bracket")[1]

    expected = (ref(*args[1:4], +1.0), ref(*args[4:7], -1.0))
    assert dispersion.boundary_speeds_A6(*args) == expected


def test_bracket_keeps_each_callers_guard_message():
    falling = lambda lam: -lam
    for tol, message in ((1e-8, "no ratio minimum found below lam = 64.0"),
                         (1e-11, "no bracket for boundary speed")):
        with pytest.raises(dispersion.PerifrontError, match=message):
            dispersion.bracket_and_minimize(falling, tol, message)
    lam, val = dispersion.bracket_and_minimize(
        lambda lam: (lam - 3.0) ** 2 + 1.0, 1e-11, "unused")
    assert lam == pytest.approx(3.0, abs=1e-5) and val == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# near-one Jacobian variation radius


def ref_variation(model, J1, i, rho, samples=3):
    """max of sum_k |J_ik(u) - J1_ik| over the full samples**m lattice."""
    n = model.cell.n
    pts = np.linspace(1.0 - rho, 1.0 + rho, samples)
    worst = 0.0
    for corner in itertools.product(pts, repeat=model.m):
        u = np.repeat(np.asarray(corner)[:, None], n, axis=1)
        J = model.jacobian(u, np.arange(n))
        worst = max(worst, float(np.abs(J[i] - J1[i]).sum(axis=0).max()))
    return worst


def ref_compute_varrho(model, mu_minus, psi, samples=3):
    bound = float(psi.min() / psi.max()) * abs(mu_minus) / 2.0
    n = model.cell.n
    J1 = model.jacobian(np.ones((model.m, n)), np.arange(n))
    rhos = []
    for i in range(model.m):
        if ref_variation(model, J1, i, 1.0, samples) <= bound:
            rhos.append(1.0)
            continue
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ref_variation(model, J1, i, mid, samples) <= bound:
                lo = mid
            else:
                hi = mid
        rhos.append(lo)
    return rhos, min(1.0, min(rhos))


def seeded_sparse_q_model(m=3, n=16, seed=13):
    """h_i reads u_i through b and u_{i+1} only through a Q pair, so the
    lattice of row i must span the Q components as well as the b rows."""
    rng = np.random.default_rng(seed)
    cell = make_cell_grid(1.0, n)
    hs = []
    for i in range(m):
        b = np.zeros((m, n))
        b[i] = -1.0
        Q = np.zeros((m, m, n))
        Q[(i + 1) % m, (i + 1) % m] = rng.standard_normal(n)
        hs.append(PolyH(c=np.ones(n), b=b, Q=Q))
    couplings = {(i, i - 1): rng.random(n) for i in range(1, m)}
    return ReactionModel(cell, np.ones((m, n)), np.zeros((m, n)),
                         couplings, hs, name="sparse-Q")


@pytest.mark.parametrize("model",
                         builtin_models(make_cell_grid(1.0, 16))
                         + [seeded_dense_model(m=4, seed=9),
                            seeded_sparse_q_model()],
                         ids=lambda m: f"{m.name}-m{m.m}")
def test_row_variation_matches_full_lattice(model):
    n = model.cell.n
    J1 = model.jacobian(np.ones((model.m, n)), np.arange(n))
    for rho in (0.0, 0.3, 1.0):
        ref = [0.0] * model.m
        for corner in itertools.product(np.linspace(1.0 - rho, 1.0 + rho, 3),
                                        repeat=model.m):
            u = np.repeat(np.asarray(corner)[:, None], n, axis=1)
            Ju = model.jacobian(u, np.arange(n))
            for i in range(model.m):
                ref[i] = max(ref[i], float(
                    np.abs(Ju[i] - J1[i]).sum(axis=0).max()))
        assert [certify._row_variation(model, J1, i, rho)
                for i in range(model.m)] == ref


@pytest.mark.parametrize("model", [m for m in all_models() if m.m <= 3]
                         + [seeded_sparse_q_model()],
                         ids=lambda m: f"{m.name}-m{m.m}")
def test_compute_varrho_matches_full_lattice(model):
    psi = np.ones((model.m, model.cell.n))
    for mu in (-0.5, -20.0):
        assert compute_varrho(model, mu, psi) == \
            ref_compute_varrho(model, mu, psi)


def test_compute_varrho_chain_m8_within_budget():
    model = make_model("chain-m", m=8)
    psi = np.ones((model.m, model.cell.n))
    t0 = time.perf_counter()
    rhos, rho_star = compute_varrho(model, -0.4, psi)
    assert time.perf_counter() - t0 < 1.0
    # bound 0.2: row 0 varies by |dF_0/du_0 - (-1)| = 2 r, rows i >= 1
    # by 2 |1 - a| r = 0.4 r
    assert rho_star == rhos[0] == pytest.approx(0.1, rel=1e-12)
    assert rhos[1:] == pytest.approx([0.5] * 7, rel=1e-12)


# ---------------------------------------------------------------------------
# H3 cooperativity lattice


def ref_cooperativity_strided(model, samples=5, cap=625):
    """The replaced H3 loop: the full samples**m lattice, every k-th point
    kept to stay under cap columns, one jacobian per column."""
    n = model.cell.n
    lattice = list(itertools.product(np.linspace(0.0, 1.0, samples),
                                     repeat=model.m))
    if len(lattice) > cap:
        lattice = lattice[:: len(lattice) // cap + 1]
    worst = np.inf
    for point in lattice:
        u = np.repeat(np.asarray(point)[:, None], n, axis=1)
        J = model.jacobian(u, np.arange(n))
        for i in range(model.m):
            for k in range(model.m):
                if i != k:
                    worst = min(worst, float(J[i, k].min()))
    return worst


def ref_cooperativity_full(model, samples=5):
    """min of the off-diagonal Jacobian over the full, unstrided lattice,
    with the witness (i, k, lattice point, node)."""
    n = model.cell.n
    corners = np.array(list(itertools.product(np.linspace(0.0, 1.0, samples),
                                              repeat=model.m)))
    u = np.repeat(corners.T, n, axis=1)
    xidx = np.tile(np.arange(n), len(corners))
    J = model.jacobian(u, xidx)
    off = ~np.eye(model.m, dtype=bool)
    i, k = np.argwhere(off)[np.argmin(J[off].min(axis=1))]
    col = int(np.argmin(J[i, k]))
    return float(J[i, k, col]), (int(i) + 1, int(k) + 1,
                                 tuple(np.round(u[:, col], 3)),
                                 int(xidx[col]))


def h3_builtin_models():
    """constant2, periodic2, custom2, the three competition models in
    cooperative form and chain-m at m = 3 to 6, on the 64-node cell."""
    cell = make_cell_grid(1.0, 64)
    return [m for m in builtin_models(cell) if m.name != "dense"] \
        + [make_model("chain-m", cell, m=4)]


@pytest.mark.parametrize("model", h3_builtin_models(),
                         ids=lambda m: f"{m.name}-m{m.m}")
def test_h3_margin_matches_strided_lattice(model):
    assert models._cooperativity(model)[0] == \
        ref_cooperativity_strided(model)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_h3_matches_full_lattice_on_dense_models(m):
    model = seeded_dense_model(m=m, seed=21)
    assert models._cooperativity(model) == ref_cooperativity_full(model)


def test_h3_chain_m10_within_budget():
    model = make_model("chain-m", m=10)
    t0 = time.perf_counter()
    worst, _ = models._cooperativity(model)
    assert time.perf_counter() - t0 < 1.0
    assert worst == 0.0      # J_{i,i-1} = a, every other off-diagonal 0


# ---------------------------------------------------------------------------
# one inverse-power loop, one bisection, one eps-halving, one H7 scan


def ref_coupled_perron(model, at, tol=1e-8):
    """The coupled loop as it stood beside the scalar one (splu solve, max
    normalisation, start estimate 0); returns (value, vector, residual,
    iterations), the vector before the reducibility check."""
    n = model.cell.n
    u = np.zeros((model.m, n)) if at == "zero" else np.ones((model.m, n))
    M = eigen._assemble_coupled(model.cell, model.d, model.q,
                                model.jacobian(u, np.arange(n)))
    row_abs = np.asarray(abs(M).sum(axis=1)).ravel()
    diag = M.diagonal()
    sigma = 1.0 + float(np.max(diag + row_abs - np.abs(diag)))
    lu = spla.splu((sigma * sp.identity(model.m * n, format="csc")
                    - M).tocsc())
    v = np.ones(model.m * n)
    mu = 0.0
    for it in range(1, MAX_ITER + 1):
        w = lu.solve(v)
        nu = float(np.max(w))
        w = w / nu
        mu_new = sigma - 1.0 / nu
        resid = float(np.max(np.abs(M @ w - mu_new * w)))
        done = (abs(mu_new - mu) <= tol * max(1.0, abs(mu_new))
                and resid <= tol * max(1.0, abs(mu_new)))
        v, mu = w, mu_new
        if done:
            return mu, v, resid, it
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("model", cell_models(), ids=lambda m: m.name)
def test_coupled_perron_matches_reference_loop(model):
    for at in ("zero", "one"):
        mu, v, resid, it = ref_coupled_perron(model, at)
        comps = v.reshape(model.m, model.cell.n)
        if comps.min() <= 1e-6 * comps.max():
            with pytest.raises(ReducibleCouplingError):
                principal_eig_coupled(model, at=at)
            continue
        pair = principal_eig_coupled(model, at=at)
        assert (pair.value, pair.residual, pair.iterations) == (mu, resid, it)
        assert type(pair.value) is type(mu)
        assert np.array_equal(
            np.concatenate([f.values for f in pair.vectors]), v)


def spectral_models():
    """The built-in models that have a critical speed (the seeded dense
    model has kappa_1(0) <= 0)."""
    return [m for m in cell_models() if m.name != "dense"]


def ref_lambda_c(disp, c):
    c0, lam0 = disp.critical_speed()
    g = lambda lam: disp.kappa(0, lam) - c * lam
    lo, hi = 1e-12, lam0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("model", spectral_models(), ids=lambda m: m.name)
def test_lambda_c_is_bitwise_equal(model):
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    for c in (1.05 * c0, 1.25 * c0, 2.0 * c0):
        assert disp.lambda_c(c) == ref_lambda_c(disp, c)


def ref_eps_supercritical(disp, c):
    """build_sub_supercritical's loop: 20 halvings of the epsilon rule
    until sigma_eps < 0."""
    lam_c = disp.lambda_c(c)
    eps = disp.epsilon_rule(c)
    for _ in range(20):
        sigma_eps = disp.kappa(0, lam_c + eps) - c * (lam_c + eps)
        if sigma_eps < 0.0:
            return eps, sigma_eps
        eps *= 0.5
    raise AssertionError("no eps with sigma_eps < 0")


def ref_eps_star(disp):
    """_pick_eps_star's loop: 30 halvings of lam*/4 until the curve gap is
    positive and sigma* < 0."""
    c0, lam0 = disp.critical_speed()
    eps = lam0 / 4.0
    for _ in range(30):
        try:
            gap_ok = disp.spectral_gap(lam0 + eps) > 0.0
        except dispersion.PerifrontError:
            gap_ok = False
        sigma = c0 * (lam0 + eps) - disp.kappa(0, lam0 + eps)
        if gap_ok and sigma < 0.0:
            return eps, sigma
        eps *= 0.5
    raise AssertionError("no admissible eps*")


def ref_sandwich_eps(disp, c, mu):
    """build_stability_sandwich's two loops, falling through after 30
    halvings as they did; returns (eps, beta)."""
    c0, lam0 = disp.critical_speed()
    if abs(c - c0) <= 1e-10:
        eps, sig = ref_eps_star(disp)
        for _ in range(30):
            if abs(sig) <= abs(mu) / 2.0:
                break
            eps *= 0.5
            sig = c0 * (lam0 + eps) - disp.kappa(0, lam0 + eps)
        return eps, abs(sig)
    lam_c = disp.lambda_c(c)
    eps = disp.epsilon_rule(c)
    for _ in range(30):
        sig = disp.kappa(0, lam_c + eps) - c * (lam_c + eps)
        if sig < 0.0 and abs(sig) <= abs(mu):
            break
        eps *= 0.5
    return eps, abs(sig) / 2.0


@pytest.mark.parametrize("model", spectral_models(), ids=lambda m: m.name)
def test_subsolution_eps_is_bitwise_equal(model):
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    sub = certify.build_sub_supercritical(model, disp, 1.25 * c0, 0.1, 0.1)
    assert (sub.params["eps"], sub.params["sigma_eps"]) == \
        ref_eps_supercritical(disp, 1.25 * c0)
    crit = certify.build_sub_critical(model, disp, 0.1, 0.1)
    assert (crit.params["eps_star"], crit.params["sigma_star"]) == \
        ref_eps_star(disp)


def zero_profile(model, c):
    """A profile that is 0 everywhere: the z0 scan passes at z0 = 0, so
    the sandwich builder runs through to its parameters quickly."""
    s = np.arange(-40, 41) * model.cell.h
    return fronts.FrontProfile(c, model.cell, s,
                               np.zeros((model.m, model.cell.n, len(s))),
                               np.ones((model.cell.n, len(s))), 0.0, True)


# competition-const's upper state is not linearly stable: no sandwich
@pytest.mark.parametrize("model", [m for m in spectral_models()
                                   if m.name != "competition-const"],
                         ids=lambda m: m.name)
def test_sandwich_eps_is_bitwise_equal(model):
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    pair = principal_eig_coupled(model, at="one")
    for c in (1.25 * c0, c0):
        cand = certify.build_stability_sandwich(
            model, disp, zero_profile(model, c), "lower", delta=0.01,
            psi_pair=pair)
        eps, beta = ref_sandwich_eps(disp, c, pair.value)
        assert (cand.params["eps"], cand.params["beta"],
                cand.params["sigma"]) == (eps, beta, 1.0 / beta)


def ref_h7_hypotheses(model, disp):
    """check_hypotheses' H7 loop: s_hi by np.log, h(x, 0) recomputed per
    sample, samples above unit norm skipped; returns (worst, witness)."""
    m, n = model.m, model.cell.n
    xidx = np.arange(n)
    c0, lam0 = disp.critical_speed()
    front = disp.linearized_front(c0, k=1.0)
    phi = front.phi.as_array()
    s_hi = -np.log(front.phi.norm_p()) / lam0
    worst, wit = np.inf, None
    for s in np.linspace(s_hi - 20.0, s_hi, 120):
        w = np.exp(lam0 * s) * phi
        if w.sum(axis=0).max() > 1.0 + 1e-12:
            continue
        h0 = np.stack([model.h[i](np.zeros((m, n)), xidx) for i in range(m)])
        hw = np.stack([model.h[i](w, xidx) for i in range(m)])
        val = float((h0 - hw).min())
        if val < worst:
            worst = val
            ij = np.unravel_index(np.argmin(h0 - hw), h0.shape)
            wit = (int(ij[0]) + 1, float(s), int(ij[1]))
    return worst, wit


def ref_h7_margin_along(model, arr, lam):
    """certify's copy of the scan: 80 samples, s_hi by math.log, no
    witness."""
    n = model.cell.n
    xidx = np.arange(n)
    h0 = np.stack([model.h[i](np.zeros((model.m, n)), xidx)
                   for i in range(model.m)])
    worst = np.inf
    s_hi = -math.log(float(arr.sum(axis=0).max())) / lam
    for s in np.linspace(s_hi - 20.0, s_hi, 80):
        w = np.exp(lam * s) * arr
        hw = np.stack([model.h[i](w, xidx) for i in range(model.m)])
        worst = min(worst, float((h0 - hw).min()))
    return worst


@pytest.mark.parametrize("model", spectral_models(), ids=lambda m: m.name)
def test_h7_scans_are_bitwise_equal(model):
    disp = Dispersion(model)
    c0, lam0 = disp.critical_speed()
    ref = ref_h7_hypotheses(model, disp)
    assert models._h7_scan(model, disp.cascade(lam0).as_array(), lam0,
                           120) == ref
    rep = models.check_hypotheses(model, run_h5_heuristic=False)
    assert rep["H7"].margin == ref[0]
    for lam in (lam0, disp.lambda_c(1.25 * c0)):
        arr = disp.cascade(lam).as_array()
        assert models._h7_scan(model, arr, lam, 80)[0] == \
            ref_h7_margin_along(model, arr, lam)


@pytest.mark.parametrize("n", [32, 64])
def test_h7_s_hi_log_is_pinned(n):
    """The H7 scan takes s_hi with math.log where check_hypotheses used
    np.log.  The two can differ in the last bit on some inputs, but not
    on the built-in models' critical-mode norms."""
    cell = make_cell_grid(1.0, n)
    for model in ([make_model(name, cell, **kw) for name, kw in MODELS]
                  + builtin_models(cell)[len(all_models()):]):
        disp = Dispersion(model)
        norm = disp.cascade(disp.critical_speed()[1]).norm_p()
        assert math.log(norm) == np.log(norm), model.name
