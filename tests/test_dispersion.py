import dataclasses
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from golden_cases import models_at_64
import perifront.eigen as eigen
from perifront import (Dispersion, assemble_tilted_operator,
                       boundary_speeds_A6, make_cell_grid, make_model,
                       principal_eig_scalar)
from perifront.errors import PerifrontError, SpectralGapError
from perifront.models import PolyH, ReactionModel

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def two_component(cell, zeta1=1.0, zeta2=-1.0, a21=1.0):
    n = cell.n
    b = np.zeros((2, n))
    h1 = PolyH(c=np.full(n, zeta1), b=b.copy())
    h2 = PolyH(c=np.full(n, zeta2), b=b.copy())
    return ReactionModel(cell, np.ones((2, n)), np.zeros((2, n)),
                         {(1, 0): np.full(n, a21)}, [h1, h2], name="bare")


class TestKappa:
    def test_closed_forms(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64)))
        assert disp.kappa(0, 0.5) == pytest.approx(1.25, abs=1e-9)
        assert disp.kappa(1, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_periodic_zeta_matches_dense(self):
        from perifront import (OperatorSpec, PeriodicField,
                               assemble_tilted_operator,
                               principal_eig_scalar)
        g = make_cell_grid(1.0, 64)
        spec = OperatorSpec(
            PeriodicField.constant(g, 1.0), PeriodicField.constant(g, 0.0),
            PeriodicField.from_callable(g, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x)))
        pair = principal_eig_scalar(spec)
        dense = np.max(np.linalg.eigvals(
            assemble_tilted_operator(spec).to_dense()).real)
        assert abs(pair.value - dense) < 1e-8


class TestCriticalSpeed:
    def test_kpp(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64)))
        c0, lam0 = disp.critical_speed()
        assert c0 == pytest.approx(2.0, abs=1e-6)
        assert lam0 == pytest.approx(1.0, abs=1e-6)

    def test_drift_shift(self):
        cell = make_cell_grid(1.0, 64)
        model = two_component(cell)
        model.q[:] = 0.5
        disp = Dispersion(model, e=1)
        c0, lam0 = disp.critical_speed()
        assert c0 == pytest.approx(1.5, abs=1e-6)
        assert lam0 == pytest.approx(1.0, abs=1e-6)

    def test_competition_constants(self):
        cell = make_cell_grid(1.0, 64)
        disp = Dispersion(two_component(cell, zeta1=0.7))
        c0, lam0 = disp.critical_speed()
        assert c0 == pytest.approx(2 * np.sqrt(0.7), abs=1e-6)
        assert lam0 == pytest.approx(np.sqrt(0.7), abs=1e-6)

    def test_tangency_identities(self):
        disp = Dispersion(make_model("periodic2"))
        c0, lam0 = disp.critical_speed()
        assert abs(disp.kappa(0, lam0) - c0 * lam0) <= 1e-12
        assert abs(disp.kappa1_prime(lam0) - c0) <= 1e-11

    @pytest.mark.parametrize("name", ["constant2", "chain-m"])
    def test_closed_form(self, name):
        # kappa_1 = lam^2 + 1 exactly on the grid: c_+0 = 2 at lam_+0 = 1
        c0, lam0 = Dispersion(make_model(name)).critical_speed()
        assert abs(lam0 - 1.0) <= 1e-11
        assert abs(c0 - 2.0) <= 1e-12

    def test_h4_failure(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64), zeta1=-0.1))
        with pytest.raises(PerifrontError):
            disp.critical_speed()


class TestLambdaC:
    def test_quadratic_root(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64)))
        assert disp.lambda_c(2.5) == pytest.approx(0.5, abs=1e-9)

    def test_tangency(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64)))
        assert disp.lambda_c(2.0) == pytest.approx(1.0, abs=1e-6)

    def test_residual_is_root(self):
        model = make_model("periodic2")
        disp = Dispersion(model)
        c0, _ = disp.critical_speed()
        c = 1.05 * c0
        lam = disp.lambda_c(c)
        assert abs(disp.kappa(0, lam) - c * lam) <= 1e-9

    def test_below_critical_raises(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64)))
        with pytest.raises(PerifrontError):
            disp.lambda_c(1.5)

    def test_tau_decides_criticality(self):
        # critical on [c0 - 1e-12, c0 + 1e-10], supercritical above it,
        # no front below it
        disp = Dispersion(two_component(make_cell_grid(1.0, 64)))
        c0, _ = disp.critical_speed()
        for c in (c0, c0 - 5e-13, c0 + 5e-11):
            assert disp.tau(c) == 1
        for c in (c0 + 2e-10, 2.5):
            assert disp.tau(c) == 0
        for c in (c0 - 2e-12, 1.5):
            with pytest.raises(PerifrontError, match="below the critical"):
                disp.tau(c)

    def test_root_ordering(self):
        disp = Dispersion(make_model("periodic2"))
        c0, lam0 = disp.critical_speed()
        lams = [disp.lambda_c(c) for c in np.linspace(c0, 2.5 * c0, 8)]
        assert all(0 < l <= lam0 + 1e-9 for l in lams)
        assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


class TestCascade:
    def test_constant_ratio(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64), a21=1.0))
        casc = disp.cascade(1.0)
        assert np.allclose(casc.components[1].values, 0.5, atol=1e-9)

    def test_linearity_in_coupling(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64), a21=0.3))
        casc = disp.cascade(1.0)
        assert np.allclose(casc.components[1].values, 0.15, atol=1e-9)

    def test_three_chain_positivity_and_residual(self):
        model = make_model("chain-m")
        # periodic coupling field, still strictly positive
        model.couplings[(1, 0)] = 1.2 + 0.3 * np.cos(2 * np.pi * model.cell.x)
        model.couplings[(2, 1)] = 1.2 + 0.3 * np.sin(2 * np.pi * model.cell.x)
        disp = Dispersion(model)
        casc = disp.cascade(0.8)
        assert all(c.min() > 0 for c in casc.components)
        assert max(casc.residuals) <= 1e-8

    def test_coupling_sums_keep_the_hand_loop_order(self, monkeypatch):
        """Row 3 of chain-m (m = 3) with an added a_31 has two couplings;
        the cascade and its derivative equal, bit for bit, a reference
        whose coupling sums are the hand loop rhs += a_jk v_k over
        ascending k."""
        model = make_model("chain-m", m=3)
        x = model.cell.x
        model.couplings[(1, 0)] = 1.2 + 0.3 * np.cos(2 * np.pi * x)
        model.couplings[(2, 0)] = 0.4 + 0.1 * np.sin(4 * np.pi * x)
        disp = Dispersion(model)
        phi = disp.cascade(0.8).as_array()
        der = disp.cascade_derivative(0.8).as_array()

        def hand_loop(j, rhs, comps):
            for k in range(j):
                a_jk = model.coupling(j, k)
                if a_jk is not None:
                    rhs += a_jk * comps[k]

        monkeypatch.setattr(model, "add_couplings", hand_loop)
        ref = Dispersion(model)
        assert np.array_equal(ref.cascade(0.8).as_array(), phi)
        assert np.array_equal(ref.cascade_derivative(0.8).as_array(), der)

    def test_recompute_runs_no_eigensolve(self, monkeypatch):
        """critical_speed and cascade recompute from the memoized Perron
        pairs: a second call runs no inverse-power loop and returns the
        same bits."""
        disp = Dispersion(make_model("periodic2"))
        crit = disp.critical_speed()
        lam = disp.lambda_c(1.25 * crit[0])
        phi = disp.cascade(lam)
        loops = []
        real = eigen._inverse_power

        def counting(*args):
            loops.append(1)
            return real(*args)

        monkeypatch.setattr(eigen, "_inverse_power", counting)
        assert disp.critical_speed() == crit
        again = disp.cascade(lam)
        assert loops == []
        assert again.kappa == phi.kappa and again.residuals == phi.residuals
        assert np.array_equal(again.as_array(), phi.as_array())

    def test_gap_violation_raises(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64), zeta2=1.0))
        with pytest.raises(SpectralGapError):
            disp.cascade(1.0)   # curves coincide, no gap

    def test_convexity_on_grid(self):
        disp = Dispersion(make_model("periodic2"))
        _, lam0 = disp.critical_speed()
        k = np.array([disp.kappa(0, lam)
                      for lam in np.linspace(0.0, 2 * lam0, 33)])
        defect = float((k[2:] - 2 * k[1:-1] + k[:-2]).min())
        scale = abs(disp.kappa(0, 2 * lam0))
        assert defect >= -1e-6 * scale

    def test_ordering_below_lam0(self):
        disp = Dispersion(make_model("periodic2"))
        _, lam0 = disp.critical_speed()
        for lam in np.linspace(0.0, lam0, 9):
            assert disp.spectral_gap(lam) > 0


def spectral_media():
    """(id, model) of the six media the derivative is checked on: the
    closed-form constant2 and chain-m (m = 4), periodic2 at its defaults
    and on a longer, finer, stronger cell, and the two seeded custom2
    media of the benchmark's spectral workload (bench/workloads.py, seed
    0, read from its source text so nothing is written next to it)."""
    src = BENCH_WORKLOADS.read_text()
    bench = types.ModuleType("bench_workloads")
    exec(compile(src, str(BENCH_WORKLOADS), "exec"), bench.__dict__)
    rng = np.random.default_rng(bench.DEFAULT_SEED)
    return [("constant2", make_model("constant2")),
            ("periodic2", make_model("periodic2")),
            ("periodic2-L4", make_model("periodic2", make_cell_grid(4.0, 128),
                                        amp=0.8, qamp=0.5)),
            ("chain-m", make_model("chain-m", m=4)),
            ("custom2-a", make_model("custom2", **bench.custom2_params(rng))),
            ("custom2-b", make_model("custom2", **bench.custom2_params(rng)))]


def central_difference(model, lam):
    """The cascade's central difference over dlam = 1e-4 max(1, |lam|),
    each side from a fresh Dispersion: a reference that shares no step
    with the exact solve."""
    dlam = 1e-4 * max(1.0, abs(lam))
    side = lambda l: Dispersion(model).cascade(l).as_array()
    return (side(lam + dlam) - side(lam - dlam)) / (2.0 * dlam)


@pytest.fixture(scope="module", params=spectral_media(), ids=lambda p: p[0])
def medium(request):
    """(id, model, lam_+0, lam_c(1.25 c_+0))."""
    label, model = request.param
    c0, lam0 = Dispersion(model).critical_speed()
    return label, model, lam0, Dispersion(model).lambda_c(1.25 * c0)


class TestDerivative:
    def test_constant_model(self):
        disp = Dispersion(two_component(make_cell_grid(1.0, 64)))
        der = disp.cascade_derivative(1.0)
        assert der.kappa1_prime == pytest.approx(2.0, abs=1e-11)
        assert np.max(np.abs(der.as_array())) < 1e-7

    def test_tangency_slope(self):
        disp = Dispersion(make_model("periodic2"))
        c0, lam0 = disp.critical_speed()
        der = disp.cascade_derivative(lam0)
        assert abs(der.kappa1_prime - c0) <= 1e-11

    @pytest.mark.parametrize("at", ["lam0", "lam_c"])
    def test_matches_central_difference(self, medium, at):
        label, model, lam0, lam_c = medium
        lam = lam0 if at == "lam0" else lam_c
        der = Dispersion(model).cascade_derivative(lam).as_array()
        ref = central_difference(model, lam)
        assert np.abs(der - ref).max() <= 1e-7 * max(1.0, np.abs(ref).max())
        # mean(phi_1) = 1 at every lam
        assert abs(der[0].mean()) <= 1e-12
        if label in ("constant2", "chain-m"):   # Phi_lam = const in x
            assert np.abs(der).max() <= 1e-12

    def test_solves_no_dense_system(self, monkeypatch):
        """Every component, the singular first one included, is one
        banded solve: no dense numpy.linalg.solve on the 128-node cell."""
        model = make_model("periodic2", make_cell_grid(4.0, 128), amp=0.8,
                           qamp=0.5)
        disp = Dispersion(model)
        lam0 = disp.critical_speed()[1]

        def dense(*args):
            raise AssertionError("dense solve")

        monkeypatch.setattr(np.linalg, "solve", dense)
        der = disp.cascade_derivative(lam0).as_array()
        assert np.isfinite(der).all() and abs(der[0].mean()) <= 1e-12

    def test_solves_no_eigenpair(self, monkeypatch):
        """With cascade(lam) and kappa1_prime(lam) memoized, the
        derivative runs no inverse-power loop (a central difference of
        the cascade runs m per side)."""
        model = make_model("chain-m", m=4)
        disp = Dispersion(model)
        lam = disp.lambda_c(1.25 * disp.critical_speed()[0])
        disp.cascade(lam)
        disp.kappa1_prime(lam)
        loops = []
        real = eigen._inverse_power

        def counting(*args):
            loops.append(1)
            return real(*args)

        monkeypatch.setattr(eigen, "_inverse_power", counting)
        disp.cascade_derivative(lam)
        assert loops == []


class TestExactSlope:
    @pytest.mark.parametrize("model", models_at_64(),
                             ids=lambda m: f"{m.name}-m{m.m}")
    def test_left_vector_and_slope_match_dense_eig(self, model):
        """psi, phi and kappa' against scipy.linalg.eig's left and right
        vectors and a dA/dlam that does not use the slope's formula: the
        entries are at most quadratic in lam, so a central difference of
        step 1/2 is exact up to roundoff."""
        disp = Dispersion(model)
        for i in range(model.m):
            for lam in (0.0, 0.6, 1.3):
                spec = disp._component_spec(i, lam)
                pair = eigen.with_left(spec, principal_eig_scalar(spec))
                dense = lambda l: assemble_tilted_operator(
                    dataclasses.replace(spec, lam=l)).to_dense()
                A = dense(lam)
                w, vl, vr = scipy.linalg.eig(A, left=True, right=True)
                k = np.argmax(w.real)
                phi = vr[:, k].real / vr[:, k].real.mean()
                psi = vl[:, k].real / vl[:, k].real.mean()
                dA = dense(lam + 0.5) - dense(lam - 0.5)
                slope = psi @ dA @ phi / (psi @ phi)
                scale = max(1.0, abs(pair.value))
                assert np.abs(pair.vector.values - phi).max() <= 1e-10
                assert np.abs(pair.left.values - psi).max() <= 1e-10
                assert pair.left.min() > 0.0
                assert np.abs(A.T @ pair.left.values - pair.value
                              * pair.left.values).max() <= 1e-10 * scale
                assert abs(pair.slope - slope) <= 1e-10 * max(1.0, abs(slope))


class TestLinearizedFront:
    def test_discrete_linearized_residual(self):
        # w = k e^{lam_c (c t - x)} Phi_{lam_c}(x) solves the discrete
        # linearization up to O(h^2) + O(dt_fd^2)
        model = make_model("periodic2")
        disp = Dispersion(model)
        c = 1.2 * disp.critical_speed()[0]
        lam_c = disp.lambda_c(c)
        h = model.cell.h
        x = np.arange(-256, 257) * h
        idx = np.rint(x / h).astype(int) % model.cell.n
        phi = disp.cascade(lam_c).as_array()[:, idx]
        k = 1.0
        w = lambda t: k * np.exp(lam_c * (c * t - x))[None, :] * phi
        dt = 1e-4
        u = w(1.0)
        dudt = (w(1.0 + dt) - w(1.0 - dt)) / (2 * dt)
        lap = (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / h**2
        grad = (u[:, 2:] - u[:, :-2]) / (2 * h)
        zeta = np.stack([model.zeta(i)[idx[1:-1]] for i in range(model.m)])
        lin = zeta * u[:, 1:-1]
        lin[1] += model.coupling(1, 0)[idx[1:-1]] * u[0, 1:-1]
        resid = (dudt[:, 1:-1] - model.d[:, idx[1:-1]] * lap
                 - model.q[:, idx[1:-1]] * grad - lin)
        scale = np.abs(u[:, 1:-1]).max()
        assert np.max(np.abs(resid)) <= 50 * (h**2 + dt**2) * scale


class TestBoundarySpeeds:
    def test_constant(self):
        cell = make_cell_grid(1.0, 64)
        one = np.ones(64)
        zero = np.zeros(64)
        cm, cp = boundary_speeds_A6(cell, one, zero, one, one, zero, one)
        assert cm == pytest.approx(2.0, abs=1e-6)
        assert cp == pytest.approx(2.0, abs=1e-6)

    def test_drift_shift(self):
        cell = make_cell_grid(1.0, 64)
        one = np.ones(64)
        cm, cp = boundary_speeds_A6(cell, one, 0.5 * one, one,
                                    one, np.zeros(64), one)
        assert cm == pytest.approx(1.5, abs=1e-6)

    def test_periodic_vs_scan(self):
        from perifront import OperatorSpec, PeriodicField, principal_eig_scalar
        cell = make_cell_grid(1.0, 64)
        a11 = 1 + 0.4 * np.cos(2 * np.pi * cell.x)
        one = np.ones(64)
        zero = np.zeros(64)
        cm, _ = boundary_speeds_A6(cell, one, zero, a11, one, zero, one)
        lams = np.linspace(0.05, 4.0, 400)
        vals = []
        for lam in lams:
            k = principal_eig_scalar(OperatorSpec(
                PeriodicField.constant(cell, 1.0),
                PeriodicField.constant(cell, 0.0),
                PeriodicField(cell, a11), lam=lam)).value
            vals.append(k / lam)
        assert cm <= min(vals) + 1e-6
        assert abs(cm - min(vals)) < 1e-3   # scan grid is coarse
