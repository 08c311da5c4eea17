import warnings

import numpy as np
import pytest

from perifront import (Dispersion, FrontProfile, SimState, Trajectory,
                       WindowGrid, component_ratio_bound, convergence_metric,
                       extract_profile, fit_decay, front_position,
                       log_derivative_diagnostics, make_cell_grid, make_model,
                       measure_speed, shift_distance)
from perifront.errors import FrontError
from perifront.fronts import _first_longest_run


CELL = make_cell_grid(1.0, 64)


def synthetic_profile(f1, f2=None, s_lo=-30.0, s_hi=10.0, c=2.5):
    """Profile with x-independent rows built from closed forms of s."""
    s = np.arange(s_lo, s_hi, CELL.h)
    rows = [np.tile(f1(s), (CELL.n, 1))]
    if f2 is not None:
        rows.append(np.tile(f2(s), (CELL.n, 1)))
    U = np.stack(rows)
    occ = np.full((CELL.n, len(s)), 10.0)
    return FrontProfile(c=c, cell=CELL, s=s, U=U, occupancy=occ,
                        monotonicity_defect=0.0)


class TestFrontPosition:
    def test_step(self):
        x = np.linspace(0.0, 20.0, 401)
        u = np.where(x < 10.0, 1.0, 0.0)
        assert abs(front_position(u, x, 0.5) - 10.0) <= x[1] - x[0]

    def test_translation_equivariance(self):
        x = np.arange(0, 30, CELL.h)
        u = 1.0 / (1.0 + np.exp(2 * (x - 10.0)))
        p1 = front_position(u, x, 0.5)
        u2 = 1.0 / (1.0 + np.exp(2 * (x - 10.0 - 3.5 * CELL.h)))
        p2 = front_position(u2, x, 0.5)
        assert p2 - p1 == pytest.approx(3.5 * CELL.h, abs=1e-9)

    def test_no_crossing(self):
        x = np.linspace(0, 1, 50)
        with pytest.raises(FrontError, match="crossing"):
            front_position(np.full(50, 0.2), x, 0.5)


class FakeWindowTraj:
    """Minimal trajectory stand-in with positions following a given path."""

    def __init__(self, path, t):
        self.window = WindowGrid(CELL, 30)
        x = self.window.x
        self.times = list(t)
        self.snapshots = [
            np.stack([np.clip(1.0 / (1.0 + np.exp(4 * (x - path(tt)))), 0, 1)]
                     * 2)
            for tt in t]


class TestMeasureSpeed:
    def test_exact_line(self):
        traj = FakeWindowTraj(lambda t: 2.0 * t + 5.0, np.linspace(0, 5, 40))
        c, err = measure_speed(traj, 0, 0.5, (0.0, 5.0))
        assert c == pytest.approx(2.0, abs=1e-6)
        assert err <= 1e-6

    def test_pulsation_wobble_averages_out(self):
        path = lambda t: 2.0 * t + 5.0 + 0.1 * np.sin(2 * np.pi * t / 0.5)
        traj = FakeWindowTraj(path, np.linspace(0.0, 5.0, 201))
        c, _ = measure_speed(traj, 0, 0.5, (0.0, 5.0))
        assert c == pytest.approx(2.0, abs=0.01)

    def test_too_few_snapshots(self):
        traj = FakeWindowTraj(lambda t: 2 * t + 5, np.linspace(0, 5, 10))
        with pytest.raises(FrontError):
            measure_speed(traj, 0, 0.5, (0.0, 5.0))


class TestExtractProfile:
    def test_round_trip_from_closed_form(self):
        # synthesize u(t, x) = V(ct - x) with a known smooth V, recover it
        c = 2.5
        V = lambda s: 1.0 / (1.0 + np.exp(-1.2 * s))
        window = WindowGrid(CELL, 40)
        x = window.x
        times = np.arange(0.0, 8.0, 0.021)
        traj = Trajectory(window)
        for t in times:
            row = V(c * t - x + 20.0)
            traj.append(SimState(t, np.stack([row, row])))
        prof = extract_profile(traj, c, anchor=False, min_count=3)
        mid = (prof.s > prof.s_solid[0] + 1) & (prof.s < prof.s_solid[1] - 1)
        # the hat-kernel binning carries an O(h**2) smoothing bias
        err = np.max(np.abs(prof.U[0][:, mid]
                            - V(prof.s[mid] + 20.0)[None, :]))
        assert err <= 1e-5

    def test_homogeneous_rows_collapse(self):
        c = 2.5
        V = lambda s: 1.0 / (1.0 + np.exp(-s))
        window = WindowGrid(CELL, 40)
        traj = Trajectory(window)
        for t in np.arange(0.0, 8.0, 0.021):
            row = V(c * t - window.x + 15.0)
            traj.append(SimState(t, np.stack([row, row])))
        prof = extract_profile(traj, c, anchor=False, min_count=3)
        spread = np.nanmax(np.nanstd(prof.U[0], axis=0))
        assert spread <= 1e-3

    def test_anchor_sets_half_crossing(self):
        c = 2.5
        V = lambda s: 1.0 / (1.0 + np.exp(-s))
        window = WindowGrid(CELL, 40)
        traj = Trajectory(window)
        for t in np.arange(0.0, 8.0, 0.021):
            row = V(c * t - window.x + 15.0)
            traj.append(SimState(t, np.stack([row, row])))
        prof = extract_profile(traj, c, anchor=True, min_count=3)
        val = prof.eval(np.array([0]), np.array([0.0]))
        assert val[0, 0] == pytest.approx(0.5, abs=1e-6)


def ref_first_longest_run(flags):
    """The scan that extract_profile ran before the vectorised search:
    [start, stop) of the first longest run of True, None if there is none."""
    best_len, best_lo, cur_lo = 0, 0, None
    for k, flag in enumerate(list(flags) + [False]):
        if flag and cur_lo is None:
            cur_lo = k
        elif not flag and cur_lo is not None:
            if k - cur_lo > best_len:
                best_len, best_lo = k - cur_lo, cur_lo
            cur_lo = None
    return (best_lo, best_lo + best_len) if best_len else None


def test_first_longest_run_matches_the_scan():
    # runs at both ends, ties (the first one wins), one long run, none
    rng = np.random.default_rng(5)
    cases = [rng.random(n) < p for n in (1, 2, 7, 40, 300)
             for p in (0.0, 0.3, 0.5, 0.8, 1.0) for _ in range(20)]
    cases += [np.array([True, False, True]),
              np.array([False, True, True, False, True, True])]
    for flags in cases:
        want = ref_first_longest_run(flags)
        if want is None:
            with pytest.raises(FrontError, match="no s-column"):
                _first_longest_run(flags)
        else:
            assert tuple(_first_longest_run(flags)) == want


class TestFitDecay:
    def test_exact_supercritical_form(self):
        disp = Dispersion(make_model("constant2", CELL))
        phi = disp.cascade(0.5)
        arr = phi.as_array()
        prof = synthetic_profile(lambda s: 3.0 * np.exp(0.5 * s))
        prof.U[0] = 3.0 * np.exp(0.5 * prof.s)[None, :] * arr[0][:, None]
        fits = fit_decay(prof, phi, 0.5, 0, tail_level=1e-3)
        f = fits[0]
        assert f.rho_est == pytest.approx(3.0, rel=1e-9)
        assert f.lambda_est == pytest.approx(0.5, abs=1e-9)
        assert f.goodness <= 1e-9

    def test_exact_critical_form(self):
        disp = Dispersion(make_model("constant2", CELL))
        phi = disp.cascade(1.0)
        arr = phi.as_array()
        prof = synthetic_profile(lambda s: np.abs(s) * np.exp(s))
        prof.U[0] = 2.0 * (np.abs(prof.s) * np.exp(prof.s))[None, :] \
            * arr[0][:, None]
        fits = fit_decay(prof, phi, 1.0, 1, tail_level=1e-3)
        assert fits[0].rho_est == pytest.approx(2.0, rel=1e-9)
        assert fits[0].lambda_est == pytest.approx(1.0, abs=1e-9)

    def test_window_spans_three_decades(self):
        disp = Dispersion(make_model("constant2", CELL))
        phi = disp.cascade(0.5)
        prof = synthetic_profile(lambda s: np.exp(0.5 * s), s_lo=-20.0)
        with pytest.raises(FrontError, match="decades"):
            fit_decay(prof, phi, 0.5, 0, tail_level=1e-3)


class TestShiftDistance:
    def test_constructed_shift(self):
        f = lambda s: 1.0 / (1.0 + np.exp(-0.8 * s))
        U = synthetic_profile(f)
        V = synthetic_profile(lambda s: f(s + 1.75))
        res = shift_distance(U, V)
        assert res.z0_est == pytest.approx(1.75, abs=CELL.h)
        assert res.sup_dist <= 5e-4

    def test_identity(self):
        U = synthetic_profile(lambda s: 1.0 / (1.0 + np.exp(-s)))
        res = shift_distance(U, U)
        assert abs(res.z0_est) <= 1e-5
        assert res.sup_dist <= 1e-6

    def test_z_pred_from_amplitudes(self):
        U = synthetic_profile(lambda s: np.exp(0.5 * s))
        res = shift_distance(U, U, lam_c=0.5, rho_U=1.0, rho_V=4.0)
        assert res.z_pred == pytest.approx(np.log(4.0) / 0.5, rel=1e-12)

    def test_speed_mismatch_raises(self):
        U = synthetic_profile(lambda s: np.exp(0.5 * s), c=2.5)
        V = synthetic_profile(lambda s: np.exp(0.5 * s), c=2.0)
        with pytest.raises(FrontError):
            shift_distance(U, V)


class TestLogDerivative:
    def test_pure_exponential(self):
        prof = synthetic_profile(lambda s: np.exp(0.5 * s),
                                 lambda s: 0.5 * np.exp(0.5 * s))
        out = log_derivative_diagnostics(prof)
        for lo, hi in out:
            assert lo == pytest.approx(0.5, abs=1e-3)
            assert hi == pytest.approx(0.5, abs=1e-3)

    def test_critical_shape_brackets_one(self):
        prof = synthetic_profile(lambda s: np.abs(s) * np.exp(s), s_lo=-40.0)
        (lo, hi), = log_derivative_diagnostics(prof)[0:1]
        # log-derivative of |s| e^s is 1 + 1/s < 1 for s < 0
        assert lo < 1.0 <= hi + 0.05
        assert lo > 0.8

    def test_zero_bins_are_masked_without_warning(self):
        # |s| e^s vanishes at the s = 0 bin, inside the level set
        prof = synthetic_profile(lambda s: np.abs(s) * np.exp(s), s_lo=-40.0)
        assert (prof.U[0] == 0.0).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (lo, hi), = log_derivative_diagnostics(prof)
        assert np.isfinite(lo) and np.isfinite(hi)
        assert hi < 1.0

    def test_too_few_positive_columns_raise(self):
        prof = synthetic_profile(lambda s: np.where(s < 0.0, 0.0, 1.0))
        with pytest.raises(FrontError, match="left tail"):
            log_derivative_diagnostics(prof)


class TestComponentRatio:
    def test_constructed_ratio(self):
        prof = synthetic_profile(lambda s: 1.0 / (1.0 + np.exp(-s)),
                                 lambda s: 0.5 / (1.0 + np.exp(-s)))
        assert component_ratio_bound(prof) == pytest.approx(2.0, rel=1e-9)

    def test_vanishing_component_raises(self):
        prof = synthetic_profile(lambda s: 1.0 / (1.0 + np.exp(-s)),
                                 lambda s: np.zeros_like(s))
        with pytest.raises(FrontError):
            component_ratio_bound(prof)


class TestConvergenceMetric:
    def test_self_distance_is_interpolation_error(self):
        c = 2.5
        V1 = lambda s: 1.0 / (1.0 + np.exp(-s))
        prof = synthetic_profile(V1, V1, s_lo=-40.0, s_hi=40.0, c=c)
        window = WindowGrid(CELL, 30)
        traj = Trajectory(window)
        for t in np.linspace(0.0, 2.0, 11):
            row = V1(c * t - window.x + 3.0)
            traj.append(SimState(t, np.stack([row, row])))
        ts, shifts, dists = convergence_metric(traj, prof)
        assert np.max(dists) <= 1e-4
        assert np.allclose(shifts, 3.0, atol=1e-3)
