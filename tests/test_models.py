import json

import numpy as np
import pytest

from perifront import (check_competition_assumptions, check_hypotheses,
                       competition_steady_states, competition_to_cooperative,
                       inverse_transform, make_cell_grid,
                       make_competition_spec, make_model,
                       principal_eig_coupled)
from perifront.errors import PerifrontError
from perifront.models import HypothesisReport, PolyH, ReactionModel


@pytest.fixture(scope="module")
def constant2():
    return make_model("constant2")


def node_F(model, x, u):
    """F at the single node x, through model.F on a one-column array."""
    return model.F(np.asarray(u, dtype=float)[:, None], np.array([x]))[:, 0]


class TestEvaluate:
    def test_zero_state(self, constant2):
        assert np.allclose(node_F(constant2, 0, [0.0, 0.0]), 0.0)

    def test_one_state(self, constant2):
        assert np.max(np.abs(node_F(constant2, 3, [1.0, 1.0]))) <= 1e-12

    def test_structural_identity(self, constant2):
        # f_1 = u_1 h_1 and f_2 = a_21 u_1 + u_2 h_2 exactly
        rng = np.random.default_rng(5)
        xidx = np.arange(constant2.cell.n)
        for _ in range(5):
            u = rng.uniform(0, 1, (2, constant2.cell.n))
            F = constant2.F(u, xidx)
            h1 = constant2.h[0](u, xidx)
            h2 = constant2.h[1](u, xidx)
            assert np.allclose(F[0], u[0] * h1, atol=1e-14)
            assert np.allclose(F[1], 0.3 * u[0] + u[1] * h2, atol=1e-14)

    def test_jacobian_vs_finite_differences(self, constant2):
        rng = np.random.default_rng(6)
        for _ in range(10):
            u = rng.uniform(0, 1, 2)
            x = int(rng.integers(0, constant2.cell.n))
            J = constant2.jacobian(u[:, None], np.array([x]))[:, :, 0]
            eps = 1e-6
            for k in range(2):
                up = u.copy(); up[k] += eps
                um = u.copy(); um[k] -= eps
                fd = (node_F(constant2, x, up)
                      - node_F(constant2, x, um)) / (2 * eps)
                assert np.max(np.abs(J[:, k] - fd)) <= 1e-6


class TestMakeModel:
    def test_every_value_kind_is_accepted(self, tmp_path):
        # the forms the benchmark's seeded media and the CLI configs use:
        # chain-m at m = 4 and 5 (a numpy integer too), custom2 fields as
        # numbers and as const, cosine (with harmonics and phase) and csv
        # specs
        for m in (4, 5, np.int64(5)):
            assert make_model("chain-m", m=m, a=1.2).m == m
        csv = tmp_path / "d1.csv"
        csv.write_text("0.0, 1.0\n0.5, 1.2\n")
        model = make_model(
            "custom2", d1={"csv": str(csv)}, d2={"const": 1.1}, q1=0,
            q2=-0.05,
            zeta1={"cosine": {"mean": 0.8, "amp": 0.1, "harmonics": 2,
                              "phase": 1.3}},
            zeta2={"cosine": {"mean": -0.9, "amp": 0.05}}, a21=1.4)
        assert model.d[1].tolist() == [1.1] * model.cell.n
        assert make_model("periodic2", amp=0.1, qamp=0, g=0.3).m == 2


class TestHypotheses:
    def test_constant2_all_pass(self, constant2):
        rep = check_hypotheses(constant2, run_h5_heuristic=False)
        for name in ("H1", "H2", "H3", "H4", "H6", "H7", "H8"):
            assert rep[name].verdict == "pass", f"{name}: {rep[name]}"
        assert rep["H5"].verdict == "not-checkable"

    def test_h3_violation_witnessed(self):
        cell = make_cell_grid(1.0, 64)
        n = cell.n
        b1 = np.zeros((2, n)); b1[0] = -1.0
        h1 = PolyH(c=np.ones(n), b=b1)
        # strong negative cross slope makes df_2/du_1 < 0 inside the box
        b2 = np.zeros((2, n)); b2[0] = -0.9; b2[1] = 1.6
        h2 = PolyH(c=-np.ones(n), b=b2)
        bad = ReactionModel(cell, np.ones((2, n)), np.zeros((2, n)),
                            {(1, 0): np.full(n, 0.3)}, [h1, h2])
        rep = check_hypotheses(bad, run_h5_heuristic=False)
        assert rep["H3"].verdict == "fail"
        assert rep["H3"].witness is not None
        # the witness (i, k, lattice point, node) is plain JSON
        text = json.dumps(rep.as_dict())
        assert "np." not in text
        h3 = json.loads(text)["H3"]["witness"]
        assert h3 == rep.as_dict()["H3"]["witness"]
        i, k, u, node = h3
        assert isinstance(u, list) and all(type(v) is float for v in u)
        assert (type(i), type(k), type(node)) == (int, int, int)

    def test_h4_failure_margin(self):
        cell = make_cell_grid(1.0, 64)
        n = cell.n
        b = np.zeros((2, n))
        h1 = PolyH(c=np.full(n, -0.1), b=b.copy())
        h2 = PolyH(c=np.full(n, -1.0), b=b.copy())
        model = ReactionModel(cell, np.ones((2, n)), np.zeros((2, n)),
                              {(1, 0): np.full(n, 0.3)}, [h1, h2])
        rep = check_hypotheses(model, run_h5_heuristic=False)
        assert rep["H4"].verdict == "fail"
        assert rep["H4"].margin == pytest.approx(-0.1, abs=1e-8)

    def test_check_drops_a_passing_witness_and_needs_a_failing_one(self):
        rep = HypothesisReport()
        rep.check("H2", True, 0.0, ("node", 3), "F(x, 1) = 0")
        assert (rep["H2"].verdict, rep["H2"].witness) == ("pass", None)
        rep.check("H3", False, -0.5, ("node", 3), "cooperativity")
        assert (rep["H3"].verdict, rep["H3"].witness) == ("fail", ("node", 3))
        assert rep["H3"].margin == -0.5 and rep["H3"].note == "cooperativity"
        with pytest.raises(PerifrontError, match="H4 requires a witness"):
            rep.check("H4", False, -1.0, None, "kappa_1(0) > 0")
        assert "H4" not in rep.entries


class TestSteadyStates:
    def test_logistic_fixed_point(self):
        spec = make_competition_spec("competition-const")
        u1, u2 = competition_steady_states(spec)
        assert np.allclose(u1.values, 1.0, atol=1e-8)
        assert np.allclose(u2.values, 1.0, atol=1e-8)

    def test_b_over_a(self):
        spec = make_competition_spec("competition-const")
        spec.b1 = np.full(spec.cell.n, 2.0)
        spec.a11 = np.full(spec.cell.n, 0.5)
        u1, _ = competition_steady_states(spec)
        assert np.allclose(u1.values, 4.0, atol=1e-7)

    def test_periodic_residual(self):
        from perifront import (OperatorSpec, PeriodicField,
                               assemble_tilted_operator)
        spec = make_competition_spec("competition-periodic")
        u1, _ = competition_steady_states(spec)
        cell = spec.cell
        A = assemble_tilted_operator(OperatorSpec(
            PeriodicField(cell, spec.d1), PeriodicField(cell, spec.a1),
            PeriodicField.constant(cell, 0.0)))
        resid = A.matvec(u1.values) + u1.values * (spec.b1 - spec.a11 * u1.values)
        assert np.max(np.abs(resid)) <= 1e-6  # O(h^2) discretization floor


class TestTransformation:
    def test_constant_closed_form(self):
        tc = competition_to_cooperative(make_competition_spec("competition-const"))
        assert np.allclose(tc.model.q, 0.0, atol=1e-7)
        assert np.allclose(tc.a11s, 1.0, atol=1e-8)
        assert np.allclose(tc.model.h[0].b[1], 0.3, atol=1e-8)
        assert np.allclose(tc.model.zeta(0), 0.7, atol=1e-8)
        assert np.allclose(tc.model.zeta(1), -1.0, atol=1e-8)

    def test_F_at_one_vanishes(self):
        tc = competition_to_cooperative(make_competition_spec("competition-periodic"))
        n = tc.spec.cell.n
        F = tc.model.F(np.ones((2, n)), np.arange(n))
        assert np.max(np.abs(F)) <= 1e-10

    def test_round_trip(self):
        tc = competition_to_cooperative(make_competition_spec("competition-periodic"))
        rng = np.random.default_rng(8)
        state = rng.uniform(0, 1, (2, tc.spec.cell.n))
        v1, v2 = tc.forward(state[0], state[1])
        back = inverse_transform(tc, np.stack([v1, v2]))
        assert np.max(np.abs(back - state)) <= 1e-12

    def test_corner_mapping(self):
        tc = competition_to_cooperative(make_competition_spec("competition-const"))
        n = tc.spec.cell.n
        low = inverse_transform(tc, np.zeros((2, n)))
        assert np.allclose(low[0], 0.0, atol=1e-9)
        assert np.allclose(low[1], tc.u2_star.values, atol=1e-9)
        high = inverse_transform(tc, np.ones((2, n)))
        assert np.allclose(high[0], tc.u1_star.values, atol=1e-9)
        assert np.allclose(high[1], 0.0, atol=1e-9)

    def test_trajectory_conjugacy(self):
        # a competition trajectory maps onto a transformed-model trajectory
        from perifront.models import _relax_on_cell
        spec = make_competition_spec("competition-strong")
        tc = competition_to_cooperative(spec)
        n = spec.cell.n

        # competition dynamics on the cell, plain IMEX with the same steps
        comp = ReactionModel(
            spec.cell, np.stack([spec.d1, spec.d2]),
            np.stack([spec.a1, spec.a2]),
            couplings={(1, 0): np.zeros(n)},
            h=[PolyH(c=spec.b1, b=np.stack([-spec.a11, -spec.a12])),
               PolyH(c=spec.b2, b=np.stack([-spec.a21, -spec.a22]))])
        u0 = np.stack([0.4 * np.ones(n), 0.5 * np.ones(n)])
        _, u_comp = _relax_on_cell(comp, u0, T=2.0, dt=0.005)

        v0 = np.stack(tc.forward(u0[0], u0[1]))
        _, v_coop = _relax_on_cell(tc.model, v0, T=2.0, dt=0.005)
        mapped = np.stack(tc.forward(u_comp[0], u_comp[1]))
        h = spec.cell.h
        assert np.max(np.abs(mapped - v_coop)) <= 10 * (h**2 + 0.005)


class TestAssumptions:
    def test_weak_spec_margins(self):
        tc = competition_to_cooperative(make_competition_spec("competition-const"))
        rep = check_competition_assumptions(tc, run_a2_heuristic=False)
        assert rep["A1"].verdict == "pass"
        assert rep["A3"].verdict == "pass"
        assert rep["A3"].margin == pytest.approx(0.7, abs=1e-7)
        assert rep["A4"].verdict == "pass"
        assert rep["A5"].verdict == "pass"
        # ratio 1.7/0.3 over bound 1/0.3
        assert rep["A5"].margin == pytest.approx(1.7 / 0.3 - 1.0 / 0.3, abs=1e-5)
        assert rep["A6"].verdict == "pass"
        assert rep["A6"].margin == pytest.approx(4.0, abs=1e-5)

    def test_weak_spec_H8_fails_closed_form(self):
        # the stable-state eigenvalue of the weak symmetric transform is
        # a22* - a21* = +0.7: the upper state is not linearly stable
        tc = competition_to_cooperative(make_competition_spec("competition-const"))
        pair = principal_eig_coupled(tc.model, at="one")
        assert pair.value == pytest.approx(0.7, abs=1e-6)

    def test_strong_spec_full_hypotheses(self):
        tc = competition_to_cooperative(make_competition_spec("competition-strong"))
        rep = check_hypotheses(tc.model, run_h5_heuristic=False)
        for name in ("H1", "H2", "H3", "H4", "H6", "H7", "H8"):
            assert rep[name].verdict == "pass", f"{name}: {rep[name]}"
        arep = check_competition_assumptions(tc, run_a2_heuristic=False)
        assert arep["A3"].verdict == "fail"   # as printed, (A3) contradicts H8
        for name in ("A1", "A4", "A5", "A6"):
            assert arep[name].verdict == "pass"
