"""The fast paths against the loop versions they replaced.

The reaction on window-gathered coefficients with the sparse quadratic
term keeps the arithmetic of the gather-per-call dense einsum, so F must
be bit-for-bit equal.  The one-stencil profile shifts take one
interpolation weight per shift where the loops recomputed it per column,
so shift_distance and convergence_metric may differ by roundoff only.
"""

import itertools
import math

import numpy as np
import pytest

import perifront.fronts as fronts
from perifront import (SimState, Stepper, StepperConfig, Trajectory,
                       WindowGrid, convergence_metric, extract_profile,
                       make_cell_grid, make_model, shift_distance)
from perifront.dispersion import golden_section_min
from perifront.models import PolyH, ReactionModel


# ---------------------------------------------------------------------------
# reference implementations (the replaced loops)


def ref_polyh(h, u, xidx):
    """PolyH evaluation gathering c, b and Q on every call, dense einsum."""
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
