"""Acceptance suite: each test enforces one numbered exit criterion at its
stated tolerance and prints one pass/fail line.

Heavy Cauchy runs are shared through module-scoped fixtures; every
tolerance below is pinned, nothing is calibrated at run time.  Each
criterion's detail string is also checked against the one recorded in
tests/golden.json, so the printed digits cannot move unnoticed.
"""

import numpy as np
import pytest

import golden
import perifront as pf
from perifront import (Dispersion, OperatorSpec, PeriodicField, SimState,
                       StepperConfig, WindowGrid, build_initial_front_like,
                       extract_profile, fit_decay, make_cell_grid, make_model,
                       measure_speed, principal_eig_scalar, run)
from perifront.models import PolyH, ReactionModel


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"
    golden.assert_recorded("acceptance", str(criterion), detail)


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def constant2():
    return make_model("constant2")


@pytest.fixture(scope="module")
def disp2(constant2):
    return Dispersion(constant2)


@pytest.fixture(scope="module")
def bench_a(constant2, disp2):
    """k = 1 supercritical benchmark run at c = 2.5 (criteria 5, 6, 8)."""
    win = WindowGrid(constant2.cell, 230)
    cfg = StepperConfig(dt=0.01, snapshot_dt=0.06)
    st = build_initial_front_like(constant2, win, 2.5, k=1.0, eps0=0.1,
                                  disp=disp2)
    traj = run(constant2, st, win, cfg, 80.0, store_from=40.0)
    c_est, c_err = measure_speed(traj, 0, 0.5, (45.0, 80.0))
    prof_raw = extract_profile(traj, c_est, t_window=(40.0, 80.0),
                               anchor=False)
    prof_anchored = extract_profile(traj, c_est, t_window=(40.0, 80.0),
                                    anchor=True)
    lam_c = disp2.lambda_c(2.5)
    fits = fit_decay(prof_raw, disp2.cascade(lam_c), lam_c, 0)
    del traj
    return dict(c_est=c_est, c_err=c_err, prof_raw=prof_raw,
                prof_anchored=prof_anchored, fits=fits, lam_c=lam_c)


@pytest.fixture(scope="module")
def bench_b(constant2, disp2, bench_a):
    """k = 4 companion run for the uniqueness shift law (criterion 6)."""
    win = WindowGrid(constant2.cell, 230)
    cfg = StepperConfig(dt=0.01, snapshot_dt=0.06)
    st = build_initial_front_like(constant2, win, 2.5, k=4.0, eps0=0.1,
                                  disp=disp2)
    traj = run(constant2, st, win, cfg, 80.0, store_from=40.0)
    prof_raw = extract_profile(traj, bench_a["c_est"],
                               t_window=(40.0, 80.0), anchor=False)
    lam_c = bench_a["lam_c"]
    fits = fit_decay(prof_raw, disp2.cascade(lam_c), lam_c, 0)
    del traj
    return dict(prof_raw=prof_raw, fits=fits)


# ---------------------------------------------------------------------------
# criterion 1: constant-coefficient dispersion closed form


def test_criterion_1_constant_dispersion():
    cell = make_cell_grid(1.0, 64)
    worst_kappa = 0.0
    for q0, r, e in ((0.0, 1.0, 1), (0.5, 1.0, 1), (0.0, 0.7, 1),
                     (0.3, 0.5, -1)):
        for lam in (0.0, 0.25, 0.5, 1.0, 1.7):
            pair = principal_eig_scalar(OperatorSpec(
                PeriodicField.constant(cell, 1.0),
                PeriodicField.constant(cell, q0),
                PeriodicField.constant(cell, r), lam=lam, e=e))
            worst_kappa = max(worst_kappa,
                              abs(pair.value - (lam**2 - q0 * lam * e + r)))
    ok = worst_kappa <= 1e-8

    worst_speed = 0.0
    for q0, r, e in ((0.0, 1.0, 1), (0.5, 1.0, 1), (0.0, 0.7, 1)):
        n = cell.n
        b = np.zeros((2, n))
        model = ReactionModel(
            cell, np.ones((2, n)), np.full((2, n), q0),
            {(1, 0): np.full(n, 0.3)},
            [PolyH(c=np.full(n, r), b=b.copy()),
             PolyH(c=np.full(n, -1.0), b=b.copy())])
        c0, lam0 = Dispersion(model, e=e).critical_speed()
        worst_speed = max(worst_speed,
                          abs(c0 - (2 * np.sqrt(r) - q0 * e)),
                          abs(lam0 - np.sqrt(r)))
    ok = ok and worst_speed <= 1e-6
    report(1, ok, f"kappa err {worst_kappa:.2e} (tol 1e-8), "
                  f"speed err {worst_speed:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# criterion 2: periodic-medium eigen cross-check against dense solves


def test_criterion_2_dense_cross_check():
    from perifront import assemble_tilted_operator
    worst = 0.0
    for n in (32, 64, 128):
        cell = make_cell_grid(1.0, n)
        spec = OperatorSpec(
            PeriodicField.from_callable(cell,
                                        lambda x: 1 + 0.3 * np.sin(2 * np.pi * x)),
            PeriodicField.constant(cell, 0.2),
            PeriodicField.from_callable(cell,
                                        lambda x: 1 + 0.5 * np.cos(2 * np.pi * x)),
            lam=0.4)
        pair = principal_eig_scalar(spec)
        dense = np.max(np.linalg.eigvals(
            assemble_tilted_operator(spec).to_dense()).real)
        worst = max(worst, abs(pair.value - dense))
    report(2, worst <= 1e-8, f"max |power - dense| = {worst:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# criterion 3: triangular cascade contract


def test_criterion_3_cascade(constant2, disp2):
    casc = disp2.cascade(1.0)
    ratio = casc.components[1].values / casc.components[0].values
    err = np.max(np.abs(ratio - 0.15))
    ok = err <= 1e-8

    pdisp = Dispersion(make_model("periodic2"))
    pc = pdisp.cascade(0.9)
    ok = ok and max(pc.residuals) <= 1e-8 and pc.min_component() > 0.0
    report(3, ok, f"phi2/phi1 err {err:.2e} (tol 1e-8), periodic residual "
                  f"{max(pc.residuals):.2e}, positive {pc.min_component() > 0}")


# ---------------------------------------------------------------------------
# criterion 4: linear determinacy of the spreading speed


def test_criterion_4_linear_determinacy():
    results = []
    for name in ("constant2", "periodic2"):
        model = make_model(name)
        c0, _ = Dispersion(model).critical_speed()
        win = WindowGrid(model.cell, 230)
        cfg = StepperConfig(dt=0.01, snapshot_dt=0.5)
        x = win.x
        u0 = np.minimum(0.9, np.exp(-3.0 * (x - 2.0)))[None, :].repeat(2, 0)
        traj = run(model, SimState(0.0, u0), win, cfg, 100.0)
        c_est, _ = measure_speed(traj, 0, 0.5, (30.0, 100.0))
        results.append((name, c_est, c0, abs(c_est - c0) / c0))
        del traj
    ok = all(rel <= 0.02 for _, _, _, rel in results)
    detail = "; ".join(f"{n}: c_est={c:.4f} vs {c0:.4f} ({rel:.2%})"
                       for n, c, c0, rel in results)
    report(4, ok, detail + " (tol 2%)")


# ---------------------------------------------------------------------------
# criterion 5: exponential and critical |s|-weighted front asymptotics


def test_criterion_5_supercritical_asymptotics(bench_a, disp2):
    f = bench_a["fits"][0]
    lam_ok = abs(f.lambda_est - 0.5) <= 0.05 * 0.5
    good_ok = f.goodness <= 0.1 and f.decades >= 3.0

    # ratio flatness improves as the fit window moves left (saturating at
    # the binning noise floor, hence the 5% jitter allowance)
    phi = disp2.cascade(bench_a["lam_c"])
    trend = [fit_decay(bench_a["prof_raw"], phi, bench_a["lam_c"], 0,
                       tail_level=lvl)[0].goodness
             for lvl in (1e-2, 1e-3, 1e-4)]
    trend_ok = all(b <= 1.05 * a + 1e-6 for a, b in zip(trend, trend[1:]))
    report("5a", lam_ok and good_ok and trend_ok,
           f"lambda_est={f.lambda_est:.4f} (0.5 +- 5%), goodness="
           f"{f.goodness:.3f} (tol 0.1) over {f.decades:.1f} decades, "
           f"flatness trend {np.round(trend, 4).tolist()}")


def test_criterion_5_critical_asymptotics(constant2, disp2):
    c0, lam0 = disp2.critical_speed()
    win = WindowGrid(constant2.cell, 190)
    cfg = StepperConfig(dt=0.01, snapshot_dt=0.06)
    st = build_initial_front_like(constant2, win, c0, k=1.0, eps0=0.1,
                                  disp=disp2)
    traj = run(constant2, st, win, cfg, 80.0, store_from=40.0)
    c_est, _ = measure_speed(traj, 0, 0.5, (45.0, 80.0))
    prof = extract_profile(traj, c_est, t_window=(40.0, 80.0), anchor=False)
    fits = fit_decay(prof, disp2.cascade(lam0), lam0, 1)
    del traj
    f = fits[0]
    ok = abs(f.lambda_est - lam0) <= 0.10 * lam0
    report("5b", ok, f"critical lambda_est={f.lambda_est:.4f} vs "
                     f"{lam0:.4f} (tol 10%), tau=1 fit over "
                     f"{f.decades:.1f} decades")


# ---------------------------------------------------------------------------
# criterion 6: uniqueness shift law between amplitudes k and 4k


def test_criterion_6_shift_law(bench_a, bench_b):
    lam_c = bench_a["lam_c"]
    rho1 = bench_a["fits"][0].rho_est
    rho4 = bench_b["fits"][0].rho_est
    res = pf.shift_distance(bench_a["prof_raw"], bench_b["prof_raw"],
                            lam_c=lam_c, rho_U=rho1, rho_V=rho4)
    z_target = np.log(4.0) / 0.5
    ok = (abs(res.z0_est - z_target) <= 0.1 and res.sup_dist <= 1e-2)
    h = bench_a["prof_raw"].h_s
    law_ok = abs(res.z0_est - res.z_pred) <= 0.1 + 2 * h
    report(6, ok and law_ok,
           f"z0_est={res.z0_est:.4f} vs ln4/lam_c={z_target:.4f} (tol 0.1), "
           f"sup_dist={res.sup_dist:.4f} (tol 1e-2), "
           f"z_pred={res.z_pred:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: global stability of the front under front-like data


@pytest.fixture(scope="module")
def stability_runs(constant2, disp2, bench_a):
    """The (times, shifts, dists) series of each run against the anchored
    profile, computed as soon as the run ends; its 129 MB of snapshots
    are dropped before the next run starts."""
    win = WindowGrid(constant2.cell, 420)
    cfg = StepperConfig(dt=0.01, snapshot_dt=0.5)
    out = {}
    for tag in ("plain", "bump"):
        st = build_initial_front_like(constant2, win, 2.5, k=1.0, eps0=0.1,
                                      disp=disp2)
        if tag == "bump":
            # localized perturbation keeping the data strictly inside (0, 1);
            # no global floor, or the lifted tail would outrun the front
            bump = 0.1 * np.exp(-0.5 * (win.x - 12.0) ** 2)
            st.u = np.minimum(st.u + bump[None, :], 1.0 - 1e-6)
            st.u[:, 0] = 1.0
            st.u[:, -1] = 0.0
        traj = run(constant2, st, win, cfg, 150.0)
        out[tag] = pf.convergence_metric(traj, bench_a["prof_anchored"])
        del traj
    return out


def test_criterion_7_stability(stability_runs):
    details = []
    ok = True
    for tag, (ts, shifts, dists) in stability_runs.items():
        final = dists[ts >= 140.0].max()
        ok = ok and final <= 0.02
        late = dists[ts >= 75.0]
        jitter = float(np.max(np.diff(late))) if len(late) > 1 else 0.0
        ok = ok and jitter <= 1e-3
        details.append(f"{tag}: dist(T=150)={final:.4f} (tol 0.02), "
                       f"late-half jitter {jitter:.1e} (tol 1e-3)")
    report(7, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: certification of the explicit sub/supersolutions


def test_criterion_8_certification(constant2, disp2, bench_a):
    reports = {}
    reports["sub"] = pf.residual_sign_check(
        constant2, pf.build_sub_supercritical(constant2, disp2, 2.5, 0.1, 0.1))
    reports["sub_star"] = pf.residual_sign_check(
        constant2, pf.build_sub_critical(constant2, disp2, 0.1, 0.1))
    reports["super"] = pf.residual_sign_check(
        constant2, pf.build_super_linearized(constant2, disp2, 2.5, 1.0))
    reports["super_star"] = pf.residual_sign_check(
        constant2, pf.build_super_linearized_critical(constant2, disp2,
                                                      1.0, 2.0))
    psi = pf.principal_eig_coupled(constant2, at="one")
    for sign in ("lower", "upper"):
        cand = pf.build_stability_sandwich(
            constant2, disp2, bench_a["prof_anchored"], sign, delta=0.01,
            psi_pair=psi)
        reports[f"sandwich_{sign}"] = pf.residual_sign_check(constant2, cand)
    ok = all(r.verdict for r in reports.values())

    # a corrupted candidate must fail with a witness
    base = pf.build_sub_supercritical(constant2, disp2, 2.5, 0.1, 0.1)
    lam_c, eps, s0 = (base.params[k] for k in ("lam_c", "eps", "s0"))
    n0_bad = base.params["n0"] / 20.0
    phi_c = disp2.cascade(lam_c).as_array()
    phi_e = disp2.cascade(lam_c + eps).as_array()
    cell = constant2.cell

    def bad_eval(t, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.rint(x / cell.h).astype(int) % cell.n
        s = 2.5 * t - x
        return (0.1 * np.exp(lam_c * s))[None, :] * (
            phi_c[:, idx] - (n0_bad * np.exp(eps * s))[None, :] * phi_e[:, idx])

    pert0 = n0_bad * np.exp(eps * s0)
    worst = max(float((phi_c[i] - pert0 * phi_e[i]).max()) for i in range(2))
    bad = pf.CandidateSolution(
        kind="sub_supercritical", sense="sub",
        params=dict(base.params, n0=n0_bad),
        s_region=base.s_region, evaluator=bad_eval, scale=base.scale,
        constraints=[pf.BoundaryCheck("value_at_s0_nonpositive", -worst)])
    bad_rep = pf.residual_sign_check(constant2, bad)
    ok = ok and (not bad_rep.verdict) and bad_rep.witness is not None

    detail = ", ".join(f"{k}={'pass' if r.verdict else 'FAIL'}"
                       for k, r in reports.items())
    report(8, ok, detail + f"; corrupted detected={not bad_rep.verdict}")


# ---------------------------------------------------------------------------
# criterion 9: comparison principle and box invariance on random media


def random_cooperative_model(rng, cell):
    n = cell.n
    x = cell.x

    def field(lo, hi, amp):
        base = rng.uniform(lo, hi)
        k = int(rng.integers(1, 3))
        phase = rng.uniform(0, 2 * np.pi)
        return base + amp * rng.uniform(0.3, 1.0) * np.cos(
            2 * np.pi * k * x / cell.L + phase)

    d = np.stack([field(0.8, 1.4, 0.2), field(0.8, 1.4, 0.2)])
    q = np.stack([field(-0.2, 0.2, 0.1), field(-0.2, 0.2, 0.1)])
    zeta1 = field(0.7, 1.3, 0.2)
    a21 = field(0.2, 0.6, 0.1)
    zeta2 = -field(0.8, 1.2, 0.15)
    b1 = np.zeros((2, n)); b1[0] = -zeta1
    # h2 = zeta2 + (-zeta2 - a21) u2 vanishes against the coupling at 1
    b2 = np.zeros((2, n)); b2[1] = -zeta2 - a21
    return ReactionModel(cell, d, q, {(1, 0): a21},
                         [PolyH(c=zeta1, b=b1), PolyH(c=zeta2, b=b2)])


def test_criterion_9_comparison_and_box():
    rng = np.random.default_rng(2024)
    cell = make_cell_grid(1.0, 32)
    worst_order = 0.0
    worst_box = 0.0
    for trial in range(10):
        model = random_cooperative_model(rng, cell)
        win = WindowGrid(cell, 20)
        dt = min(0.01, 0.4 / model.reaction_lipschitz())
        cfg = StepperConfig(dt=dt, snapshot_dt=0.25)
        x = win.x
        lo0 = np.clip(np.exp(-1.0 * (x - 3.0)), 0.0, 0.8)[None, :].repeat(2, 0)
        hi0 = np.clip(lo0 + 0.15 * rng.uniform(0, 1, lo0.shape), 0.0, 1.0)
        for u in (lo0, hi0):
            u[:, 0] = 1.0
            u[:, -1] = 0.0
        ta = run(model, SimState(0.0, lo0.copy()), win, cfg, 2.0)
        tb = run(model, SimState(0.0, hi0.copy()), win, cfg, 2.0)
        for ua, ub in zip(ta.snapshots, tb.snapshots):
            worst_order = max(worst_order, float((ua - ub).max()))
            worst_box = max(worst_box, float(ua.max()) - 1.0, -float(ua.min()),
                            float(ub.max()) - 1.0, -float(ub.min()))
    ok = worst_order <= 1e-8 and worst_box <= 1e-8
    report(9, ok, f"order violation {worst_order:.2e}, box overshoot "
                  f"{worst_box:.2e} (tol 1e-8) over 10 random media")


# ---------------------------------------------------------------------------
# criterion 10: competition pipeline


def test_criterion_10_competition_margins():
    tc = pf.competition_to_cooperative(
        pf.make_competition_spec("competition-const"))
    rep = pf.check_competition_assumptions(tc, run_a2_heuristic=False)
    checks = {
        "A1": (rep["A1"].verdict == "pass"
               and abs(rep["A1"].margin - 0.7) <= 1e-6),
        "A3": (rep["A3"].verdict == "pass"
               and abs(rep["A3"].margin - 0.7) <= 1e-6),
        "A4": (rep["A4"].verdict == "pass"
               and abs(rep["A4"].margin - 1.7) <= 1e-6),
        "A5": (rep["A5"].verdict == "pass"
               and abs(rep["A5"].margin - (1.7 / 0.3 - 1.0 / 0.3)) <= 1e-5),
        "A6": (rep["A6"].verdict == "pass"
               and abs(rep["A6"].margin - 4.0) <= 1e-5),
    }
    ok = all(checks.values())
    report("10a", ok, "weak constant spec margins: "
           + ", ".join(f"{k}={'ok' if v else 'BAD'}"
                       for k, v in checks.items()))


def test_criterion_10_front_endpoints():
    # dynamical half on the strong constant instance, the only constant
    # medium whose transformed upper state is linearly stable (see ledger:
    # the printed (A3) contradicts H8 for every constant medium)
    tc = pf.competition_to_cooperative(
        pf.make_competition_spec("competition-strong"))
    model = tc.model
    disp = Dispersion(model)
    c0, _ = disp.critical_speed()
    c = 1.25 * c0
    win = WindowGrid(model.cell, 150)
    cfg = StepperConfig(dt=0.01, snapshot_dt=0.05)
    st = build_initial_front_like(model, win, c, k=1.0, eps0=0.1, disp=disp)
    traj = run(model, st, win, cfg, 60.0, store_from=30.0)
    c_est, _ = measure_speed(traj, 0, 0.5, (35.0, 60.0))
    prof = extract_profile(traj, c_est, t_window=(30.0, 60.0), anchor=False)
    del traj

    lo, hi = prof.s_solid
    sL = np.array([lo + 1.0])
    sR = np.array([hi - 1.0])
    worst = 0.0
    for r in range(model.cell.n):
        left = prof.eval(np.array([r]), sL)[:, 0]
        right = prof.eval(np.array([r]), sR)[:, 0]
        comp_left = pf.inverse_transform(tc, left[:, None],
                                         np.array([r]))[:, 0]
        comp_right = pf.inverse_transform(tc, right[:, None],
                                          np.array([r]))[:, 0]
        worst = max(
            worst,
            abs(comp_left[0] - 0.0),
            abs(comp_left[1] - tc.u2_star.values[r]),
            abs(comp_right[0] - tc.u1_star.values[r]),
            abs(comp_right[1] - 0.0))
    ok = worst <= 1e-2
    report("10b", ok, f"inverse-transformed endpoints off by {worst:.4f} "
                      f"(tol 1e-2): (0, u2*) <- front -> (u1*, 0)")
