import dataclasses
import json

import numpy as np
import pytest

from perifront import (Dispersion, SimState, StepperConfig, WindowGrid,
                       build_stability_sandwich, build_sub_critical,
                       build_sub_supercritical, build_super_linearized,
                       build_super_linearized_critical, compute_varrho,
                       make_model, principal_eig_coupled, residual_sign_check,
                       run, smoothstep_cutoff)
from perifront.errors import CertificationError
import perifront


@pytest.fixture(scope="module")
def model():
    return make_model("constant2")


@pytest.fixture(scope="module")
def disp(model):
    return Dispersion(model)


class TestSmoothstep:
    def test_derivative_bound(self):
        chi, _ = smoothstep_cutoff(-2.0, 2.0)
        s = np.linspace(-3, 3, 101)
        v = chi(s)
        assert v[0] == 1.0 and v[-1] == 0.0
        assert np.all(np.diff(v) <= 1e-12)

    def test_too_narrow_raises(self):
        with pytest.raises(CertificationError):
            smoothstep_cutoff(0.0, 1.0)


class TestSubSupercritical:
    def test_parameter_recipe_constants(self, model, disp):
        cand = build_sub_supercritical(model, disp, 2.5, 0.1, 0.1)
        assert cand.params["eps"] == pytest.approx(0.125, abs=1e-9)
        assert cand.params["sigma_eps"] == pytest.approx(-0.171875, abs=1e-8)
        assert cand.params["n0"] >= cand.params["delta1"]

    def test_boundary_value_nonpositive(self, model, disp):
        cand = build_sub_supercritical(model, disp, 2.5, 0.1, 0.1)
        s0 = cand.params["s0"]
        x = np.arange(256) * model.cell.h
        t = (s0 + x) / 2.5          # points with c t - x = s0
        vals = np.stack([cand.evaluator(tt, np.asarray([xx]))[:, 0]
                         for tt, xx in zip(t, x)], axis=1)
        assert vals.max() <= 1e-12

    def test_residual_check_passes(self, model, disp):
        cand = build_sub_supercritical(model, disp, 2.5, 0.1, 0.1)
        rep = residual_sign_check(model, cand)
        assert rep.verdict
        assert np.all(rep.margins >= -rep.allowance)

    def test_corrupted_candidate_fails_with_witness(self, model, disp):
        cand = build_sub_supercritical(model, disp, 2.5, 0.1, 0.1)
        # the built n0 carries cross-component slack on the constant
        # benchmark (phi_c and phi_eps have identical component ratios),
        # so push well below the pointwise bound to force the violation
        n0_bad = cand.params["n0"] / 20.0
        lam_c = cand.params["lam_c"]
        eps = cand.params["eps"]
        s0 = cand.params["s0"]
        phi_c = disp.cascade(lam_c).as_array()
        phi_e = disp.cascade(lam_c + eps).as_array()
        cell = model.cell

        def bad_eval(t, x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            idx = np.rint(x / cell.h).astype(int) % cell.n
            s = 2.5 * t - x
            grow = 0.1 * np.exp(lam_c * s)
            pert = n0_bad * np.exp(eps * s)
            return grow[None, :] * (phi_c[:, idx] - pert[None, :] * phi_e[:, idx])

        bad = perifront.CandidateSolution(
            kind="sub_supercritical", sense="sub",
            params=dict(cand.params, n0=n0_bad),
            s_region=cand.s_region, evaluator=bad_eval, scale=cand.scale,
            constraints=[])
        # rebuild the boundary check exactly as the builder does
        pert0 = n0_bad * np.exp(eps * s0)
        worst = max(
            (0.1 * np.exp(lam_c * s0)
             * (phi_c[i] - pert0 * phi_e[i])).max() for i in range(2))
        bad.constraints = [perifront.BoundaryCheck(
            "value_at_s0_nonpositive",
            -worst / (0.1 * np.exp(lam_c * s0)))]
        rep = residual_sign_check(model, bad)
        assert not rep.verdict
        assert rep.witness is not None
        # the witness (component, t, x, residual) is plain JSON
        text = json.dumps(rep.as_dict())
        assert "np." not in text
        assert json.loads(text)["witness"] == list(rep.witness)

    def test_monotone_in_s0(self, model, disp):
        # pushing s0 further left never flips a passing verdict
        base = build_sub_supercritical(model, disp, 2.5, 0.1, 0.1)
        for extra in (5.0, 15.0):
            shifted = build_sub_supercritical(model, disp, 2.5,
                                              0.1 * np.exp(-0.5 * extra), 0.1
                                              * np.exp(-0.5 * extra))
            rep = residual_sign_check(model, shifted)
            assert rep.verdict

    def test_needs_supercritical_speed(self, model, disp):
        with pytest.raises(CertificationError):
            build_sub_supercritical(model, disp, 2.0, 0.1, 0.1)

    def test_critical_band_is_dispersion_tau(self, model, disp):
        # within 1e-10 of c_+0 Dispersion.tau calls c critical, lambda_c is
        # lambda_+0 and epsilon_rule gives eps = 0: not supercritical
        c0, _ = disp.critical_speed()
        assert disp.tau(c0 + 5e-11) == 1
        with pytest.raises(CertificationError,
                           match="needs c > c_\\+0"):
            build_sub_supercritical(model, disp, c0 + 5e-11, 0.1, 0.1)


class TestSubCritical:
    def test_boundary_and_smallness(self, model, disp):
        cand = build_sub_critical(model, disp, 0.1, 0.1)
        s0 = cand.params["s0"]
        assert cand.params["m0"] == pytest.approx(3.0 * abs(s0))
        x = np.arange(128) * model.cell.h
        t = (s0 + x) / cand.params["c"]
        vals = np.stack([cand.evaluator(tt, np.asarray([xx]))[:, 0]
                         for tt, xx in zip(t, x)], axis=1)
        assert vals.max() <= 1e-12
        # sup over the region stays below one
        smp = np.linspace(s0 - 20, s0, 30)
        top = max(float(cand.evaluator((s + 0.0) / cand.params["c"],
                                       np.asarray([0.0])).max()) for s in smp)
        assert top < 1.0

    def test_residual_check_passes(self, model, disp):
        rep = residual_sign_check(model, build_sub_critical(model, disp,
                                                            0.1, 0.1))
        assert rep.verdict


class TestSuperLinearized:
    def test_exact_linear_solution(self, model, disp):
        cand = build_super_linearized(model, disp, 2.5, 1.0)
        rep = residual_sign_check(model, cand)
        assert rep.verdict
        assert np.all(rep.margins >= -rep.allowance)

    def test_critical_variant(self, model, disp):
        cand = build_super_linearized_critical(model, disp, 1.0, 2.0)
        assert cand.params["s_star"] <= -1.0
        assert cand.params["k_star"] > 0.0
        rep = residual_sign_check(model, cand)
        assert rep.verdict
        # positivity on the region was verified at build time
        names = [b.name for b in cand.constraints]
        assert "positive_on_region" in names


class TestEquilibriumResidual:
    def test_one_is_exact_solution(self, model):
        cand = perifront.CandidateSolution(
            kind="equilibrium", sense="super", params=dict(c=1.0),
            s_region=(-5.0, 5.0),
            evaluator=lambda t, x: np.ones((2, len(np.atleast_1d(x)))),
            scale=lambda s: np.ones_like(np.asarray(s, dtype=float)))
        rep = residual_sign_check(model, cand)
        assert np.max(np.abs(rep.margins)) <= 1e-10
        cand.sense = "sub"
        rep2 = residual_sign_check(model, cand)
        assert np.max(np.abs(rep2.margins)) <= 1e-10


class TestWitness:
    def test_witness_is_the_worst_point(self, model):
        """u = 0 and a given du/dt: the normalized residual of component 1
        is 50 e^{-5t}, worst at the first lattice time, and component 2's
        0.5 t lowers its own minimum at every later time.  The witness is
        component 1's point, not the last point that lowered a minimum."""
        amp = lambda s: 1e-3 * np.exp(np.minimum(s, 0.0))

        def dudt(t, x):
            g = amp(t - x)
            return np.stack([g * 50.0 * np.exp(-5.0 * t), g * 0.5 * t])

        cand = perifront.CandidateSolution(
            kind="given_dudt", sense="sub", params=dict(c=1.0),
            s_region=(-10.0, -1.0),
            evaluator=lambda t, x: np.zeros((2, len(x))), scale=amp,
            dudt_evaluator=dudt)
        rep = residual_sign_check(model, cand)
        assert rep.margins == pytest.approx([-50.0 * np.exp(-2.5), -1.5])
        comp, t, _, resid = rep.witness
        assert (comp, t) == (1, 0.5)
        assert -resid == rep.margins.min()

    def test_boundary_failure_names_only_its_checks(self, model, disp):
        cand = build_sub_supercritical(model, disp, 2.5, 0.1, 0.1)
        cand.constraints[0] = dataclasses.replace(cand.constraints[0],
                                                  margin=-1.0)
        rep = residual_sign_check(model, cand)
        assert rep.margins.min() >= -rep.allowance
        assert not rep.verdict
        assert rep.witness == [cand.constraints[0].name]
        assert rep.as_dict()["witness"] == [cand.constraints[0].name]


class TestOrderingCrossCheck:
    def test_subsolution_stays_below(self, model, disp):
        # seed the simulation at max(subsolution, 0); the comparison
        # principle keeps it below the evolved solution
        cand = build_sub_supercritical(model, disp, 2.5, 0.1, 0.1)
        win = WindowGrid(model.cell, 60)
        st = perifront.build_initial_front_like(model, win, 2.5, disp=disp)
        cfg = StepperConfig(dt=0.005, snapshot_dt=0.25)
        traj = run(model, st, win, cfg, 1.5)
        checked = 0
        for t, u in zip(traj.times, traj.snapshots):
            low = np.maximum(cand.evaluator(t, win.x), 0.0)
            mask = (2.5 * t - win.x) <= cand.params["s0"]
            if mask.any():
                checked += 1
                assert float((low[:, mask] - u[:, mask]).max()) <= 1e-6
        assert checked > 0


class TestVarrho:
    def test_linear_reaction_caps_at_one(self):
        from perifront.models import PolyH, ReactionModel
        from perifront import make_cell_grid
        cell = make_cell_grid(1.0, 32)
        n = cell.n
        # F linear in u: constant Jacobian, zero variation
        hs = [PolyH(c=np.full(n, -0.5), b=np.zeros((2, n))) for _ in range(2)]
        lin = ReactionModel(cell, np.ones((2, n)), np.zeros((2, n)),
                            {(1, 0): np.full(n, 0.3)}, hs)
        rhos, rho_star = compute_varrho(lin, -0.5, np.ones((2, n)))
        assert rhos == [1.0, 1.0]
        assert rho_star == 1.0

    def test_quadratic_closed_form(self, model):
        pair = principal_eig_coupled(model, at="one")
        psi = np.stack([v.values for v in pair.vectors])
        rhos, rho_star = compute_varrho(model, pair.value, psi)
        alpha = psi.min() / psi.max()
        bound = alpha * abs(pair.value) / 2.0
        # component 1: sum_k |dF_1/du_k(u) - dF_1/du_k(1)| over the box
        # [(1-r), (1+r)]^2 is (2*1.3 + 2*0.3) r = 3.2 r for h_1 affine
        assert rhos[0] == pytest.approx(bound / 3.2, rel=1e-3)
        assert 0.0 < rho_star <= 1.0

    def test_monotone_in_mu(self, model):
        pair = principal_eig_coupled(model, at="one")
        psi = np.stack([v.values for v in pair.vectors])
        r1, _ = compute_varrho(model, pair.value, psi)
        r2, _ = compute_varrho(model, 2.0 * pair.value, psi)
        assert all(b >= a - 1e-12 for a, b in zip(r1, r2))


@pytest.fixture(scope="module")
def profile(model, disp):
    # long enough that the slow back-fill of component 2 has settled
    # over the extraction window; shorter runs leave a non-monotone
    # patch that genuinely breaks the sandwich inequality
    win = WindowGrid(model.cell, 130)
    cfg = StepperConfig(dt=0.01, snapshot_dt=0.03)
    st = perifront.build_initial_front_like(model, win, 2.5, disp=disp)
    traj = run(model, st, win, cfg, 40.0, store_from=20.0)
    c_est, _ = perifront.measure_speed(traj, 0, 0.5, (20.0, 40.0))
    return perifront.extract_profile(traj, c_est,
                                     t_window=(20.0, 40.0))


@pytest.fixture(scope="module")
def seed_traj(model, disp):
    win = WindowGrid(model.cell, 70)
    cfg = StepperConfig(dt=0.01, snapshot_dt=1.0)
    st = perifront.build_initial_front_like(model, win, 2.5, disp=disp)
    return run(model, st, win, cfg, 12.0)


def ref_sandwich_seed(model, disp, profile, traj, delta):
    """find_sandwich_seed with its beta probe rebuilt at every t_c."""
    window = traj.window
    n = model.cell.n
    inner = slice(4 * n, window.npts - 4 * n)
    x_in = window.x[inner]
    psi = principal_eig_coupled(model, at="one")
    snap = {round(t, 9): u for t, u in zip(traj.times, traj.snapshots)}
    for t_c in perifront.certify.SEED_TIMES:
        u_tc = snap.get(round(t_c, 9))
        if u_tc is None:
            continue
        pos = perifront.front_position(u_tc[0], window.x, 0.5)
        s0 = -(profile.c * t_c - pos)
        beta = build_stability_sandwich(model, disp, profile, "lower",
                                        delta=delta, psi_pair=psi,
                                        s0=s0).params["beta"]
        for fac in perifront.certify.SEED_SIGMA_FACTORS:
            lower, upper = (build_stability_sandwich(
                model, disp, profile, sign, delta=delta, psi_pair=psi,
                s0=s0, sigma=fac / beta) for sign in ("lower", "upper"))
            u_in = u_tc[:, inner]
            if float((lower.evaluator(t_c, x_in) - u_in).max()) <= 0.0 \
                    and float((u_in - upper.evaluator(t_c, x_in)).max()) <= 0.0:
                return t_c, fac / beta, s0, lower, upper
    raise CertificationError("no bracketing pair")


class TestSandwich:
    def test_both_signs_pass(self, model, disp, profile):
        psi = principal_eig_coupled(model, at="one")
        for sign in ("lower", "upper"):
            cand = build_stability_sandwich(model, disp, profile, sign,
                                            delta=0.01, psi_pair=psi)
            rep = residual_sign_check(model, cand)
            assert rep.verdict, (sign, rep.margins, rep.allowance)

    def test_correction_vanishes_at_large_t(self, model, disp, profile):
        psi = principal_eig_coupled(model, at="one")
        cand = build_stability_sandwich(model, disp, profile, "upper",
                                        delta=0.01, psi_pair=psi)
        beta = cand.params["beta"]
        sigma = cand.params["sigma"]
        x = np.array([40.0])
        for t in (20.0, 40.0):
            u = cand.evaluator(t, x)
            sh = cand.params["c"] * t - x + sigma * (1 - np.exp(-beta * t))
            idx = np.rint(x / model.cell.h).astype(int) % model.cell.n
            base = profile.smoothed().eval(idx, sh)
            gap = np.max(np.abs(u - base))
            assert gap <= 0.01 * 3.1 * np.exp(-beta * t) + 1e-12

    def test_z0_scan_delivers_margin(self, model, disp, profile):
        psi = principal_eig_coupled(model, at="one")
        cand = build_stability_sandwich(model, disp, profile, "lower",
                                        delta=0.02, psi_pair=psi)
        assert cand.params["z0"] >= 0.0
        assert cand.params["z0"] <= 40.0

    def test_needs_stable_state(self, disp, profile):
        weak = perifront.competition_to_cooperative(
            perifront.make_competition_spec("competition-const"))
        wdisp = Dispersion(weak.model)
        with pytest.raises(CertificationError, match="stable"):
            build_stability_sandwich(weak.model, wdisp, profile, "lower",
                                     delta=0.01)

    @pytest.mark.parametrize("critical", [False, True])
    def test_eps_search_exhausted_raises(self, model, disp, critical):
        # no eps passes |sigma| <= |mu-| (or |mu-|/2 at c = c_+0) when mu-
        # is -1e-300: the search raises instead of keeping the last eps
        c0, _ = disp.critical_speed()
        s = np.arange(-40, 41) * model.cell.h
        flat = perifront.fronts.FrontProfile(
            c0 if critical else 2.5, model.cell, s,
            np.ones((model.m, model.cell.n, len(s))),
            np.ones((model.cell.n, len(s))), 0.0)
        pair = principal_eig_coupled(model, at="one")
        tiny = dataclasses.replace(pair, value=-1e-300)
        with pytest.raises(CertificationError, match="no eps"):
            build_stability_sandwich(model, disp, flat, "lower", delta=0.01,
                                     psi_pair=tiny)

    def test_bracket_search_and_persistence(self, model, disp, profile,
                                            seed_traj):
        # the seeded pair brackets the simulated solution at t_c and stays
        # a bracket afterwards (the comparison-principle content)
        traj, win = seed_traj, seed_traj.window
        t_c, sigma, s0, lower, upper = perifront.find_sandwich_seed(
            model, disp, profile, traj, delta=0.01)
        n = model.cell.n
        inner = slice(4 * n, win.npts - 4 * n)
        tol = 1e-9
        checked = 0
        for t, u in zip(traj.times, traj.snapshots):
            if t < t_c:
                continue
            lo = lower.evaluator(t, win.x[inner])
            hi = upper.evaluator(t, win.x[inner])
            assert float((lo - u[:, inner]).max()) <= tol
            assert float((u[:, inner] - hi).max()) <= tol
            checked += 1
        assert checked >= 3

    def test_seed_search_builds_one_corrector(self, model, disp, profile,
                                              seed_traj, monkeypatch):
        # the corrector depends on neither t_c, sigma, s0 nor the sign: one
        # build serves the whole search, which returns what a full sandwich
        # build per pair returns
        want = ref_sandwich_seed(model, disp, profile, seed_traj, 0.01)
        builds = []
        corrector = perifront.certify._sandwich_corrector

        def counting(*args, **kw):
            builds.append(args)
            return corrector(*args, **kw)

        monkeypatch.setattr(perifront.certify, "_sandwich_corrector",
                            counting)
        got = perifront.find_sandwich_seed(model, disp, profile, seed_traj,
                                           delta=0.01)
        assert len(builds) == 1
        assert got[:3] == want[:3]
        win = seed_traj.window
        for t in (got[0], seed_traj.times[-1]):
            for g, w in zip(got[3:], want[3:]):
                assert np.array_equal(g.evaluator(t, win.x),
                                      w.evaluator(t, win.x))
