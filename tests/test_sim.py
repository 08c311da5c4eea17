import multiprocessing

import numpy as np
import pytest

from perifront import (Dispersion, SimState, Stepper, StepperConfig,
                       Trajectory, WindowGrid, build_initial_front_like,
                       make_cell_grid, make_model, run)
from perifront.errors import FrontError, PerifrontError
from perifront.models import PolyH, ReactionModel


@pytest.fixture(scope="module")
def constant2():
    return make_model("constant2")


def cut_front(model, win, c, **kw):
    """build_initial_front_like on a window too short for the datum's
    tail: the datum is cut on purpose, and the warning must say so."""
    with pytest.warns(UserWarning, match="window may be too short"):
        return build_initial_front_like(model, win, c, **kw)


def heat_model(cell, m=2):
    """Decoupled components with zero reaction."""
    n = cell.n
    b = np.zeros((m, n))
    hs = [PolyH(c=np.zeros(n), b=b.copy()) for _ in range(m)]
    return ReactionModel(cell, np.ones((m, n)), np.zeros((m, n)), {}, hs,
                         name="heat")


class TestWindow:
    def test_requires_20_cells(self):
        with pytest.raises(PerifrontError):
            WindowGrid(make_cell_grid(1.0, 64), 10)

    def test_xidx_wraps(self):
        w = WindowGrid(make_cell_grid(1.0, 32), 20)
        assert w.npts == 20 * 32 + 1
        assert w.xidx[0] == 0 and w.xidx[32] == 0 and w.xidx[33] == 1


class TestStep:
    def test_constant_in_kernel(self, constant2):
        win = WindowGrid(constant2.cell, 20)
        model = heat_model(constant2.cell)
        cfg = StepperConfig(dt=0.01, left_value=0.4, right_value=0.4)
        st = SimState(0.0, np.full((2, win.npts), 0.4))
        out = Stepper(model, win, cfg).step(st)
        assert np.max(np.abs(out.u - 0.4)) <= 1e-12

    def test_one_is_equilibrium(self, constant2):
        win = WindowGrid(constant2.cell, 20)
        cfg = StepperConfig(dt=0.01, left_value=1.0, right_value=1.0)
        st = SimState(0.0, np.ones((2, win.npts)))
        traj = run(constant2, st, win, cfg, 1.0)
        assert np.max(np.abs(traj.snapshots[-1] - 1.0)) <= 1e-12

    def test_heat_kernel(self):
        cell = make_cell_grid(1.0, 64)
        model = heat_model(cell)
        win = WindowGrid(cell, 40)
        cfg = StepperConfig(dt=0.0005, left_value=0.0, right_value=0.0,
                            snapshot_dt=0.5)
        x = win.x
        x0, s0 = 20.0, 0.5
        u0 = np.exp(-(x - x0) ** 2 / (2 * s0**2))
        st = SimState(0.0, np.stack([u0, u0]))
        traj = run(model, st, win, cfg, 1.0)
        t = 1.0
        var = s0**2 + 2 * t
        exact = s0 / np.sqrt(var) * np.exp(-(x - x0) ** 2 / (2 * var))
        interior = slice(5 * 64, -5 * 64)
        err = np.max(np.abs(traj.snapshots[-1][0][interior] - exact[interior]))
        assert err <= 1e-4

    def test_dt_bound_enforced(self, constant2):
        win = WindowGrid(constant2.cell, 20)
        cfg = StepperConfig(dt=1.0)
        st = SimState(0.0, np.zeros((2, win.npts)))
        with pytest.raises(PerifrontError, match="explicit-reaction bound"):
            run(constant2, st, win, cfg, 1.0)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
    def test_nonpositive_dt_rejected(self, constant2, dt):
        win = WindowGrid(constant2.cell, 20)
        st = SimState(0.0, np.zeros((2, win.npts)))
        with pytest.raises(PerifrontError, match="must be positive"):
            run(constant2, st, win, StepperConfig(dt=dt), 1.0)

    @pytest.mark.parametrize("snapshot_dt", [0.0, -0.1, float("nan")])
    def test_nonpositive_snapshot_dt_rejected(self, constant2, snapshot_dt):
        # snapshot_dt 0 stored every step
        win = WindowGrid(constant2.cell, 20)
        st = SimState(0.0, np.zeros((2, win.npts)))
        with pytest.raises(PerifrontError,
                           match="snapshot_dt = .* must be positive"):
            run(constant2, st, win, StepperConfig(snapshot_dt=snapshot_dt),
                1.0)

    @pytest.mark.parametrize("field, value", [
        ("left_value", 1.5), ("left_value", float("nan")),
        ("right_value", -0.1), ("right_value", float("inf"))])
    def test_edge_value_outside_box_rejected(self, constant2, field, value):
        # named before the first step: unchecked, 1.5 fails a step later
        # as "dt too large", and NaN runs without error
        win = WindowGrid(constant2.cell, 20)
        st = SimState(0.0, np.zeros((2, win.npts)))
        with pytest.raises(PerifrontError,
                           match=f"{field} = .* must be a finite number in "
                                 r"the box \[0, 1\]"):
            run(constant2, st, win, StepperConfig(**{field: value}), 1.0)

    def test_nan_state_fails_the_box_check(self, constant2):
        win = WindowGrid(constant2.cell, 20)
        u = np.zeros((2, win.npts))
        u[1, win.npts // 2] = np.nan
        stepper = Stepper(constant2, win, StepperConfig(dt=0.01))
        with pytest.raises(PerifrontError, match="box invariance violated "
                           r"\(min nan, max nan\): the state holds a NaN"):
            stepper.step(SimState(0.0, u))


class TestRun:
    def test_T_zero(self, constant2):
        win = WindowGrid(constant2.cell, 20)
        st = SimState(0.0, np.zeros((2, win.npts)))
        traj = run(constant2, st, win, StepperConfig(), 0.0)
        assert len(traj.times) == 1

    def test_guard_aborts(self, constant2, tmp_path):
        win = WindowGrid(constant2.cell, 20)
        disp = Dispersion(constant2)
        st = cut_front(constant2, win, 2.5, disp=disp)
        path = tmp_path / "snapshots.csv"
        with pytest.raises(FrontError, match="guard") as err:
            run(constant2, st, win, StepperConfig(dt=0.01), 12.0,
                csv_path=path)
        assert not path.exists()
        assert multiprocessing.active_children() == []
        # the error names a window that holds the run
        cells = err.value.window_cells
        assert f"window_cells >= {cells}" in str(err.value)
        win = WindowGrid(constant2.cell, cells)
        st = cut_front(constant2, win, 2.5, disp=disp)
        traj = run(constant2, st, win, StepperConfig(dt=0.01), 12.0,
                   csv_path=path)
        assert traj.times[-1] == pytest.approx(12.0)
        assert path.exists()

    def test_self_convergence_first_order(self, constant2):
        win = WindowGrid(constant2.cell, 30)
        disp = Dispersion(constant2)
        st = cut_front(constant2, win, 2.5, disp=disp)
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            cfg = StepperConfig(dt=dt, snapshot_dt=1.0)
            finals[dt] = run(constant2, st.copy(), win, cfg, 1.0).snapshots[-1]
        e1 = np.max(np.abs(finals[0.02] - finals[0.01]))
        e2 = np.max(np.abs(finals[0.01] - finals[0.005]))
        assert 1.7 <= e1 / e2 <= 2.3   # halving steps halves the error

    def test_periodic_equivariance(self, constant2):
        # shifting initial data by one cell shifts the solution by one cell
        win = WindowGrid(constant2.cell, 40)
        n = constant2.cell.n
        disp = Dispersion(constant2)
        st = cut_front(constant2, win, 2.5, disp=disp)
        cfg = StepperConfig(dt=0.01, snapshot_dt=1.0)
        a = run(constant2, st.copy(), win, cfg, 2.0).snapshots[-1]
        shifted = SimState(0.0, np.roll(st.u, n, axis=1))
        shifted.u[:, :n] = st.u[:, :1]     # refill the inflow side
        b = run(constant2, shifted, win, cfg, 2.0).snapshots[-1]
        # the clamp layers sit one cell apart; leave them room to diffuse
        j = np.arange(16 * n, win.npts - 13 * n)
        assert np.max(np.abs(a[:, j] - b[:, j + n])) <= 1e-10


def smooth_step(win):
    u0 = 0.5 * (1.0 - np.tanh(win.x - 3.0))
    return SimState(0.0, np.stack([u0, u0]))


class TestCsvStream:
    def test_failed_step_leaves_no_file(self, constant2, tmp_path,
                                        monkeypatch):
        # a box-invariance failure part way through the run
        step = Stepper.step

        def failing(self, state):
            if state.t > 0.295:
                raise PerifrontError("box invariance violated")
            return step(self, state)

        monkeypatch.setattr(Stepper, "step", failing)
        win = WindowGrid(constant2.cell, 20)
        path = tmp_path / "snapshots.csv"
        with pytest.raises(PerifrontError, match="box invariance"):
            run(constant2, smooth_step(win), win,
                StepperConfig(dt=0.01, snapshot_dt=0.1), 1.0, csv_path=path)
        assert not path.exists()
        assert multiprocessing.active_children() == []

    def test_directory_raises_oserror(self, constant2, tmp_path):
        win = WindowGrid(constant2.cell, 20)
        path = tmp_path / "snapshots.csv"
        path.mkdir()
        with pytest.raises(OSError, match="snapshot writer"):
            run(constant2, smooth_step(win), win,
                StepperConfig(dt=0.01, snapshot_dt=0.1), 1.0, csv_path=path)
        assert path.is_dir()
        assert multiprocessing.active_children() == []

    def test_empty_trajectory_raises_on_both_paths(self, constant2,
                                                   tmp_path, monkeypatch):
        # store_from > T stores no snapshot: the forked writer and the
        # in-process fallback both raise Trajectory.save_csv's error and
        # leave no file
        win = WindowGrid(constant2.cell, 20)
        cfg = StepperConfig(dt=0.01, snapshot_dt=0.1)
        for name in ("stream.csv", "fallback.csv"):
            path = tmp_path / name
            with pytest.raises(PerifrontError, match="holds no snapshots"):
                run(constant2, smooth_step(win), win, cfg, 0.3,
                    store_from=1.0, csv_path=path)
            assert not path.exists()
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])


class TestComparisonAndBox:
    def test_order_preservation(self, constant2):
        rng = np.random.default_rng(11)
        win = WindowGrid(constant2.cell, 20)
        disp = Dispersion(constant2)
        lo = cut_front(constant2, win, 2.5, k=0.5, disp=disp)
        hi = SimState(0.0, np.minimum(1.0, lo.u + 0.05
                                      * rng.uniform(0, 1, lo.u.shape)))
        hi.u[:, 0] = 1.0; hi.u[:, -1] = 0.0
        lo.u[:, 0] = 1.0; lo.u[:, -1] = 0.0
        cfg = StepperConfig(dt=0.01, snapshot_dt=0.5)
        ta = run(constant2, lo, win, cfg, 2.0)
        tb = run(constant2, hi, win, cfg, 2.0)
        for ua, ub in zip(ta.snapshots, tb.snapshots):
            assert float((ua - ub).max()) <= 1e-8

    def test_box_invariance(self, constant2):
        win = WindowGrid(constant2.cell, 20)
        disp = Dispersion(constant2)
        st = cut_front(constant2, win, 2.5, disp=disp)
        traj = run(constant2, st, win, StepperConfig(dt=0.01), 2.0)
        for u in traj.snapshots:
            assert u.min() >= -1e-8 and u.max() <= 1 + 1e-8


class TestInitialData:
    def test_plateau_value(self, constant2):
        # a window reaching into x < 0 exposes the (1 - eps0) plateau
        win = WindowGrid(constant2.cell, 40, x_lo=-10.0)
        disp = Dispersion(constant2)
        st = cut_front(constant2, win, 2.5, eps0=0.1, disp=disp)
        assert st.u[:, 0] == pytest.approx(0.9, abs=1e-12)

    def test_exponential_tail(self, constant2):
        win = WindowGrid(constant2.cell, 40)
        disp = Dispersion(constant2)
        st = cut_front(constant2, win, 2.5, k=1.0, disp=disp)
        lam_c = disp.lambda_c(2.5)
        phi = disp.cascade(lam_c).as_array()
        j = np.argmin(np.abs(win.x - 20.0))
        expected = np.exp(-lam_c * win.x[j]) * phi[0, win.xidx[j]]
        assert st.u[0, j] == pytest.approx(expected, rel=1e-12)

    def test_critical_tail_has_linear_factor(self, constant2):
        win = WindowGrid(constant2.cell, 40)
        disp = Dispersion(constant2)
        st = build_initial_front_like(constant2, win, 2.0, k=1.0, disp=disp)
        lam = disp.lambda_c(2.0)
        phi = disp.cascade(lam).as_array()
        j1 = np.argmin(np.abs(win.x - 10.0))
        j2 = np.argmin(np.abs(win.x - 20.0))
        x1, x2 = win.x[j1], win.x[j2]
        ratio = st.u[0, j1] / st.u[0, j2]
        expected = (x1 * np.exp(-lam * x1) * phi[0, win.xidx[j1]]) / \
                   (x2 * np.exp(-lam * x2) * phi[0, win.xidx[j2]])
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_below_critical_raises(self, constant2):
        win = WindowGrid(constant2.cell, 40)
        with pytest.raises(PerifrontError, match="below the critical"):
            build_initial_front_like(constant2, win, 1.5,
                                     disp=Dispersion(constant2))


class TestSerialization:
    def test_csv_header(self, constant2, tmp_path):
        win = WindowGrid(constant2.cell, 20)
        st = SimState(0.0, np.zeros((2, win.npts)))
        traj = run(constant2, st, win, StepperConfig(dt=0.01,
                                                     snapshot_dt=0.5,
                                                     left_value=0.0), 0.02)
        path = tmp_path / "snap.csv"
        traj.save_csv(path)
        with open(path) as fh:
            header = fh.readline()
        assert header.startswith("# t, x, u_1, u_2")

    def test_empty_trajectory_raises(self, constant2, tmp_path):
        # a trajectory without snapshots does not know m: no file
        path = tmp_path / "snap.csv"
        traj = Trajectory(WindowGrid(constant2.cell, 20))
        with pytest.raises(PerifrontError, match="store_from"):
            traj.save_csv(path)
        assert not path.exists()
