"""The fast paths: checked against the definitions they compute, and
against the bits they were checked to keep.

The reaction on window-gathered coefficients with the sparse linear and
quadratic terms keeps the arithmetic of the gather-per-call dense einsum,
so F must be bit-for-bit equal to it.  The dependency lattices sample each
Jacobian row over the components it reads, so they must give the full
lattice's extrema exactly (the H3 witness included).  The one-stencil
profile shifts take one interpolation weight per shift where the per-row
loop recomputed it per column, so shift_distance may differ from it by
roundoff only.  The pruned shift grid skips shifts whose lower bound
cannot win, so shift_distance must return the full scan's ShiftResult
bit for bit.

Where a fast path replaced an earlier version of itself (the factored cell
solves, the grouped implicit steps, the block CSV writers, the shared
eigensolve, bisection, eps-halving and H7 loops, the profile binned
without stored s arrays and anchored as a translation of one binning,
the one-table convergence series, the co-moving
certify candidates), it was checked bit for bit against that version when
it landed.  Those bits are recorded in tests/golden.json, and each such
test checks its cases of tests/golden_cases.py against the manifest under
the ids it had.  The budget, iteration, memory and no-roll tests pin the
costs.
"""

import itertools
import math
import multiprocessing
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import golden
import golden_cases
import perifront.certify as certify
import perifront.dispersion as dispersion
import perifront.eigen as eigen
import perifront.fronts as fronts
import perifront.models as models
import perifront.sim as sim
from golden_cases import (C, CASES, CELL, MODELS, all_models, builtin_models,
                          clamped_convergence, seeded_dense_model,
                          synthetic_profiles, synthetic_traj)
from perifront import (Dispersion, SimState, Stepper, StepperConfig,
                       WindowGrid, convergence_metric, extract_profile,
                       make_cell_grid, make_model, shift_distance)
from perifront.certify import _gamma0, compute_varrho
from perifront.eigen import principal_eig_scalar, with_left
from perifront.errors import SingularSystemError
from perifront.grid import BandedMatrix, solve_cyclic_banded
from perifront.models import PolyH, ReactionModel


# ---------------------------------------------------------------------------
# the recorded bits: one test per former comparison, one id per case


def recorded(test):
    """A test that checks each case test[param] of CASES against the
    manifest, under the id param."""
    params = [case[len(test) + 1:-1] for case in CASES
              if case.startswith(test + "[")]

    @pytest.mark.parametrize("param", params)
    def check(param):
        golden.check_case(f"{test}[{param}]")
    return check


# pytest collects each one under the module attribute's name
for _test in dict.fromkeys(case.split("[")[0] for case in CASES
                           if "[" in case):
    globals()[_test] = recorded(_test)


@pytest.mark.parametrize("pid, args", golden_cases._runs,
                         ids=[pid for pid, _ in golden_cases._runs])
@pytest.mark.parametrize("tid, t_window", golden_cases._t_windows,
                         ids=[tid for tid, _ in golden_cases._t_windows])
def test_anchored_keeps_the_recorded_anchor_true_bits(pid, args, tid,
                                                      t_window):
    # the anchored profile of one binning: the bits that anchor=True
    # recorded when it binned the trajectory a second time
    raw = extract_profile(golden_cases.cauchy_run(*args), C,
                          t_window=t_window, anchor=False, min_count=3)
    anchored = raw.anchored()
    assert [type(v) for v in anchored.s_solid] == [float, float]
    golden.check_case(f"test_extract_profile_is_bitwise_equal[{pid}-True-"
                      f"{tid}]", golden_cases.profile_parts(anchored))


# ---------------------------------------------------------------------------
# reference implementations (the definitions)


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
        diff = U.eval(xi, ssub + z) - V.U[:, r, :][:, inside]
        worst = max(worst, float(np.nanmax(np.abs(diff))))
    return worst


# ---------------------------------------------------------------------------
# reaction


def mixed_custom2():
    """custom2 with field-valued h_2 and constant h_1 and a_21, so that
    the Stepper keeps some coefficients length-1 and gathers others."""
    rng = np.random.default_rng(13)
    mean, amp = -1.0 + 0.2 * rng.random(), 0.1 * rng.random()
    return make_model("custom2", CELL, zeta2={"cosine": {"mean": mean,
                                                          "amp": amp}},
                      q1={"cosine": {"mean": 0.0, "amp": 0.3}})


@pytest.mark.parametrize("model", [
    *(pytest.param(m, id=m.name) for m in all_models()),
    pytest.param(mixed_custom2(), id="custom2-mixed")])
def test_gathered_F_is_bitwise_equal(model):
    window = WindowGrid(model.cell, 20)
    rng = np.random.default_rng(3)
    u = rng.random((model.m, window.npts))
    ref = ref_F(model, u, window.xidx)
    assert np.array_equal(model.F(u, window.xidx), ref)
    stepper = Stepper(model, window, StepperConfig(dt=1e-4))
    assert np.array_equal(stepper._reaction.F(u, slice(None)), ref)


def test_constant_fields_stay_length_1():
    model = mixed_custom2()
    window = WindowGrid(model.cell, 20)
    h1, h2 = Stepper(model, window, StepperConfig(dt=1e-4))._reaction.h
    assert h1.c.shape == (1,) and h1.b.shape == (2, 1)
    assert h2.c.shape == h2.b.shape[1:] == (window.npts,)
    for name in ("constant2", "periodic2", "chain-m"):
        model = make_model(name, CELL)
        reaction = Stepper(model, window, StepperConfig(dt=1e-4))._reaction
        assert {h.c.shape for h in reaction.h} == {(1,)}
        assert {a.shape for a in reaction.couplings.values()} == {(1,)}


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
    model = make_model("chain-m", m=8)
    t0 = time.perf_counter()
    lip = model.reaction_lipschitz()
    assert time.perf_counter() - t0 < 1.0
    assert lip == pytest.approx(1.4, rel=1e-12)   # |1 - 2 (1 - a)| at u = 1


def rates(models_):
    return [pytest.param(h, id=f"{model.name}-m{model.m}-h{i + 1}")
            for model in models_ for i, h in enumerate(model.h)]


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
        pytest.param(PolyH(c=np.full(n, 0.7), b=np.zeros((m, n))),
                     id="constant-c-zero-b"),
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
    # each constant field on a length-1 axis, as the Stepper keeps it
    windowed = PolyH(*(None if f is None else f[..., :1]
                       if np.all(f == f[..., :1]) else f[..., xidx]
                       for f in (h.c, h.b, h.Q)))
    assert np.array_equal(windowed(u, slice(None)), ref)
    # the result is a fresh array, never a view of c
    for p in (gathered, windowed):
        c = p.c.copy()
        out = p(u, slice(None))
        out += 1.0
        assert out.shape == (window.npts,)
        assert np.array_equal(p.c, c)


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


def test_left_pair_reuses_the_memoized_right_pair(monkeypatch):
    # cascade memoizes right pairs of components 1 and 2; kappa1_prime
    # then adds psi to component 1's pair instead of solving it again
    model = make_model("periodic2")
    probe = Dispersion(model)
    lam = probe.lambda_c(1.25 * probe.critical_speed()[0])
    loops = []
    real = eigen._inverse_power

    def counting(*args):
        loops.append(1)
        return real(*args)

    monkeypatch.setattr(eigen, "_inverse_power", counting)
    disp = Dispersion(model)
    disp.cascade(lam)
    disp.kappa1_prime(lam)
    assert len(loops) == 3
    monkeypatch.undo()
    got = disp._pair(0, lam)
    spec = disp._component_spec(0, lam)
    want = with_left(spec, principal_eig_scalar(spec))
    assert got.value == want.value and got.slope == want.slope
    assert np.array_equal(got.vector.values, want.vector.values)
    assert np.array_equal(got.left.values, want.left.values)
    assert (got.residual, got.iterations) == (want.residual, want.iterations)


def test_min_ratio_calls_curve_once_per_step(monkeypatch):
    # kappa = lam^2 + 2: g(1) = -1 and g(2) = 2 bracket the root sqrt(2);
    # kappa at the root comes from the root step's own call
    lams, steps = [], []

    def curve(lam):
        lams.append(lam)
        return lam * lam + 2.0, 2.0 * lam

    real = dispersion.bracketed_root

    def counted_root(f, *args):
        def counted(x):
            steps.append(x)
            return f(x)
        return real(counted, *args)

    monkeypatch.setattr(dispersion, "bracketed_root", counted_root)
    ratio, lam0 = dispersion.min_ratio(curve, 2.0, "no bracket")
    assert lams == [1.0, 2.0] + steps and steps[-1] == lam0
    assert ratio == (lam0 * lam0 + 2.0) / lam0
    assert lam0 == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_boundary_speeds_run_26_eigensolves(monkeypatch):
    # per speed: a right-only solve at lam = 0, then a right and a left
    # solve per doubling and root step; the hex speeds are those of the
    # 32-solve path that solved kappa(0)'s left pair and the root again
    loops = []
    real = eigen._inverse_power

    def counting(*args):
        loops.append(1)
        return real(*args)

    monkeypatch.setattr(eigen, "_inverse_power", counting)
    cell = make_cell_grid(1.0, 64)
    a11 = 1 + 0.4 * np.cos(2 * np.pi * cell.x)
    one, zero = np.ones(64), np.zeros(64)
    speeds = dispersion.boundary_speeds_A6(cell, one, zero, a11,
                                           one, zero, one)
    assert len(loops) == 26
    assert [c.hex() for c in speeds] == ["0x1.003c4f31935fep+1",
                                         "0x1.0000000000022p+1"]


# ---------------------------------------------------------------------------
# grouped implicit solves


def test_constant2_and_periodic2_share_their_operator():
    for name in ("constant2", "periodic2"):
        model = make_model(name)
        stepper = Stepper(model, WindowGrid(model.cell, 20),
                          StepperConfig(dt=0.01))
        assert len(stepper._solves) == 1


@pytest.mark.parametrize("name, kw, cells", [("constant2", {}, 150),
                                             ("chain-m", {"m": 5}, 200)],
                         ids=["constant2", "chain-m5"])
def test_step_peak_memory(name, kw, cells):
    # u + dt F(u) is built in F's output, and the one solve's result is
    # the new state: at most rhs, the new state and F's row temporaries
    # (an out-of-place right-hand side and a copied solve result peak at
    # 3.5 and 3.0 state sizes)
    model = make_model(name, CELL, **kw)
    window = WindowGrid(model.cell, cells)
    stepper = Stepper(model, window, StepperConfig(dt=0.01))
    state = SimState(0.0, np.random.default_rng(0).random((model.m,
                                                            window.npts)))
    stepper.step(state)
    _, peak = traced_peak(stepper.step, state)
    assert peak <= 2.6 * state.u.nbytes


# ---------------------------------------------------------------------------
# CSV writers


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
    traj.save_csv(tmp_path / "saved.csv")
    assert path.read_bytes() == (tmp_path / "saved.csv").read_bytes()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# profile shifts


@pytest.fixture(scope="module")
def profiles():
    return synthetic_profiles()


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


def ref_shift_distance(U, V, bracket=20.0):
    """shift_distance with the grid scanned in full: the argmin of every
    grid shift's sup distance, then the golden-section polish."""
    zs = np.arange(-bracket, bracket + 1e-9, 4.0 * U.h_s)
    vals = [fronts._sup_dist_shifted(U, V, z) for z in zs]
    zbest = zs[int(np.argmin(vals))]
    z0, dist = fronts.golden_section_min(
        lambda z: fronts._sup_dist_shifted(U, V, z),
        zbest - 8.0 * U.h_s, zbest + 8.0 * U.h_s, tol=1e-6)
    return fronts.ShiftResult(float(z0), float(dist))


def profile_of(U, s):
    """A FrontProfile on CELL with values U (m, n, len(s)) on the s-grid."""
    return fronts.FrontProfile(C, CELL, s, U, np.ones(U.shape[1:]), 0.0)


def assert_pruned_scan_is_exact(U, V, bracket=20.0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = shift_distance(U, V, bracket=bracket)
        want = ref_shift_distance(U, V, bracket)
    # bit for bit: the same floats, inf included
    assert np.array_equal([got.z0_est, got.sup_dist],
                          [want.z0_est, want.sup_dist])
    assert got.z_pred is None
    return got


@pytest.mark.parametrize("kind", ["raw", "anchored"])
@pytest.mark.parametrize("bracket", [20.0, 70.0])
def test_pruned_shift_grid_matches_full_scan(profiles, kind, bracket):
    U, V = profiles[f"{kind}_a"], profiles[f"{kind}_b"]
    assert_pruned_scan_is_exact(U, V, bracket)
    assert_pruned_scan_is_exact(U, U, bracket)


def test_pruned_shift_grid_keeps_the_first_of_a_tie():
    # V = 0, so a shift's distance is the max of U over the columns it
    # covers; U is low on exactly the windows of grid shifts i1 and i1 + 1
    # (4 columns apart), and both reach D, i1 at a column its bound
    # samples, i1 + 1 only between them.  The bound ranks i1 + 1 first;
    # the scan must still evaluate i1 and keep it
    h, nv, D = CELL.h, 600, 0.25
    V = profile_of(np.zeros((1, 2, nv)), np.arange(nv) * h)
    nu = nv + 1000
    U_vals = np.ones((1, 2, nu))
    a = 640                                  # shift a h = 20: grid index 400
    U_vals[:, :, a:a + nv + 4] = 0.0
    U_vals[:, 1, a] = D                      # i1's first column
    U_vals[:, 0, a + 5] = D                  # off i1 + 1's sampled columns
    U = profile_of(U_vals, np.arange(nu) * h)
    zs = np.arange(-30.0, 30.0 + 1e-9, 4.0 * h)
    i1 = int(np.flatnonzero(zs == a * h)[0])
    full = [fronts._sup_dist_shifted(U, V, z) for z in zs]
    bounds = [fronts._sup_dist_columns(U, V, z, fronts.BOUND_EVERY)
              for z in zs]
    assert full[i1] == full[i1 + 1] == min(full) == D
    assert sorted(np.flatnonzero(np.asarray(full) == D)) == [i1, i1 + 1]
    assert bounds[i1] == D and bounds[i1 + 1] == 0.0
    assert fronts._grid_argmin(U, V, zs) == i1
    assert_pruned_scan_is_exact(U, V, bracket=30.0)


def test_profile_with_non_finite_columns_is_rejected(profiles):
    """A profile holds finite values only, so the shift scans never meet
    a NaN column."""
    U = profiles["raw_a"]
    for bad in (np.nan, np.inf):
        U_bad = U.U.copy()
        U_bad[:, 3, 300:340] = bad
        with pytest.raises(fronts.FrontError, match="non-finite"):
            fronts.FrontProfile(U.c, U.cell, U.s, U_bad, U.occupancy, 0.0)


def test_pruned_shift_grid_without_overlap(profiles):
    # V lies 1000 past U: no shift of the bracket overlaps 4 columns
    U = profiles["raw_a"]
    V = fronts.FrontProfile(U.c, U.cell, U.s + 1000.0, U.U, U.occupancy,
                            0.0)
    got = assert_pruned_scan_is_exact(U, V)
    assert got.sup_dist == np.inf


def test_shift_distance_rejects_other_lattice(profiles):
    U = profiles["raw_a"]
    V = fronts.FrontProfile(U.c, U.cell, U.s * 1.01, U.U, U.occupancy,
                            0.0)
    with pytest.raises(fronts.FrontError, match="spacings"):
        shift_distance(U, V)


def test_convergence_metric_clamps_at_both_ends():
    # the clamps cost a few percent of fit, the front is still found;
    # the series are the recorded bits
    series = clamped_convergence()
    for start, (_, shifts, dists) in series:
        assert np.allclose(shifts, 8.0 - C * start, atol=0.5)
        assert np.max(dists) <= 0.1
    golden.check_case("test_convergence_metric_clamps_at_both_ends", series)


# ---------------------------------------------------------------------------
# profile analyses sized by the profile


def traced_peak(fn, *args, **kw):
    """fn's result and the peak bytes it allocated beyond those live at
    the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kw)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_extract_profile_memory_follows_the_bins():
    # 762 and 1143 snapshots of one time span: the stored s arrays took
    # half the bytes of the snapshots read, the histogram's bytes follow
    # the profile's bins at either cadence
    per_byte = []
    for dt in (0.0105, 0.007):
        traj = synthetic_traj(15.0, dt=dt)
        read = sum(u.nbytes for u in traj.snapshots)
        prof, peak = traced_peak(extract_profile, traj, C, min_count=3)
        assert peak < 0.2 * read
        per_byte.append(peak / prof.U.nbytes)
    assert per_byte[1] < 1.05 * per_byte[0]


def test_convergence_metric_memory_follows_the_profile(profiles):
    # three tables took three copies of U; one table takes one, and the
    # 25-shift scan of this 15-cell stretch takes less than another
    traj = synthetic_traj(17.0, cells=25, t_end=2.0, dt=0.2)
    prof = profiles["anchored_a"]
    _, peak = traced_peak(convergence_metric, traj, prof)
    assert peak < 2 * prof.U.nbytes


# ---------------------------------------------------------------------------
# factored cell operators


def test_spectral_paths_do_not_roll(monkeypatch):
    """critical_speed, lambda_c, cascade, table and the hypothesis report,
    H5's cell relaxation included, with numpy.roll raising."""
    def no_roll(*args, **kwargs):
        raise AssertionError("numpy.roll called on a cell-kernel path")

    model = make_model("periodic2")
    monkeypatch.setattr(np, "roll", no_roll)
    disp = Dispersion(model)
    c0, lam0 = disp.critical_speed()
    lam_c = disp.lambda_c(1.2 * c0)
    assert disp.cascade(lam_c).min_component() > 0.0
    table = disp.table(np.linspace(0.0, 2.0 * lam0, 5))
    assert np.isfinite(table["kappa"]).all()
    rep = models.check_hypotheses(model, run_h5_heuristic=True)
    assert rep.ok()
    assert rep["H5"].margin < 1e-10


def test_scalar_eigensolve_iterations_are_pinned():
    """The roll-free matvec makes each iteration cheaper, not the
    iteration shorter: periodic2's first curve at lam = 0.7 converges in
    the 7 iterations it took with np.roll."""
    spec = Dispersion(make_model("periodic2"))._component_spec(0, 0.7)
    assert principal_eig_scalar(spec).iterations == 7


def test_zero_matrix_still_raises():
    n = 32
    A = BandedMatrix(np.zeros(n), np.zeros(n), np.zeros(n))
    with pytest.raises(SingularSystemError):
        A.factor()
    with pytest.raises(SingularSystemError):
        solve_cyclic_banded(A, np.ones(n))


# ---------------------------------------------------------------------------
# one tangency root routine


def test_bracket_keeps_each_callers_guard_message():
    # kappa = 1 + lam: lam kappa' - kappa = -1 never changes sign
    line = lambda lam: (1.0 + lam, 1.0)
    for message in ("no ratio minimum found below lam = 64.0",
                    "no bracket for boundary speed"):
        with pytest.raises(dispersion.PerifrontError, match=message):
            dispersion.min_ratio(line, 1.0, message)
    # kappa = lam^2 + 9: kappa/lam is least, 6, at lam = 3
    val, lam = dispersion.min_ratio(
        lambda lam: (lam ** 2 + 9.0, 2.0 * lam), 9.0, "unused")
    assert abs(lam - 3.0) <= 1e-13 and abs(val - 6.0) <= 1e-13


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
# one H7 scan


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
