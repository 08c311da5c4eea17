import numpy as np
import pytest

from perifront import (OperatorSpec, PeriodicField, coupled_perron,
                       make_cell_grid, make_model, principal_eig_coupled,
                       principal_eig_scalar)
from perifront.errors import ReducibleCouplingError


def spec_of(grid, d, q, eta, lam=0.0, e=1):
    mk = lambda v: (PeriodicField.from_callable(grid, v) if callable(v)
                    else PeriodicField.constant(grid, v))
    return OperatorSpec(mk(d), mk(q), mk(eta), lam=lam, e=e)


class TestScalar:
    def test_constant_closed_form(self):
        g = make_cell_grid(1.0, 64)
        pair = principal_eig_scalar(spec_of(g, 1.0, 0.0, 1.0, lam=1.0))
        assert pair.value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(pair.vector.values, 1.0, atol=1e-9)

    def test_constant_with_drift(self):
        g = make_cell_grid(1.0, 64)
        pair = principal_eig_scalar(spec_of(g, 1.0, 0.5, 1.0, lam=1.0, e=1))
        assert pair.value == pytest.approx(1.5, abs=1e-9)

    def test_periodic_matches_dense(self):
        from perifront import assemble_tilted_operator
        g = make_cell_grid(1.0, 256)
        spec = spec_of(g, 1.0, 0.0, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x))
        pair = principal_eig_scalar(spec)
        dense = assemble_tilted_operator(spec).to_dense()
        target = np.max(np.linalg.eigvals(dense).real)
        assert abs(pair.value - target) <= 1e-8

    def test_positivity_and_normalization(self):
        g = make_cell_grid(1.0, 64)
        spec = spec_of(g, lambda x: 1 + 0.3 * np.sin(2 * np.pi * x),
                       0.2, lambda x: np.cos(2 * np.pi * x), lam=0.4)
        pair = principal_eig_scalar(spec)
        assert pair.vector.min() > 0.0
        assert np.mean(pair.vector.values) == pytest.approx(1.0, abs=1e-12)

    def test_residual_contract(self):
        from perifront import assemble_tilted_operator
        g = make_cell_grid(1.0, 64)
        spec = spec_of(g, 1.0, 0.3, lambda x: np.sin(2 * np.pi * x), lam=0.7)
        pair = principal_eig_scalar(spec)
        A = assemble_tilted_operator(spec)
        resid = np.max(np.abs(A.matvec(pair.vector.values)
                              - pair.value * pair.vector.values))
        assert resid <= 1e-10 * max(1.0, abs(pair.value))

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(7)
        g = make_cell_grid(1.0, 64)
        one = PeriodicField.constant(g, 1.0)
        zero = PeriodicField.constant(g, 0.0)
        for _ in range(5):
            base = rng.uniform(-1, 1, 64)
            bump = rng.uniform(0.0, 1.0, 64)
            k1 = principal_eig_scalar(
                OperatorSpec(one, zero, PeriodicField(g, base))).value
            k2 = principal_eig_scalar(
                OperatorSpec(one, zero, PeriodicField(g, base + bump))).value
            assert k2 >= k1 - 1e-9

    def test_shift_covariance(self):
        g = make_cell_grid(1.0, 64)
        eta = lambda x: np.cos(2 * np.pi * x)
        k0 = principal_eig_scalar(spec_of(g, 1.0, 0.1, eta, lam=0.3)).value
        k1 = principal_eig_scalar(spec_of(
            g, 1.0, 0.1, lambda x: eta(x) + 0.7, lam=0.3)).value
        assert k1 - k0 == pytest.approx(0.7, abs=1e-9)

    def test_grid_convergence(self):
        vals = {}
        for n in (32, 64, 128):
            g = make_cell_grid(1.0, n)
            vals[n] = principal_eig_scalar(spec_of(
                g, 1.0, 0.0, lambda x: 1 + 0.5 * np.cos(2 * np.pi * x),
                lam=0.5)).value
        r = abs(vals[32] - vals[64]) / abs(vals[64] - vals[128])
        assert 3.0 <= r <= 5.0


class TestCoupled:
    def test_symmetric_2x2(self):
        g = make_cell_grid(1.0, 32)
        J = np.zeros((2, 2, 32))
        J[0, 0] = -1.0; J[1, 1] = -1.0
        J[0, 1] = 0.3; J[1, 0] = 0.3
        pair = coupled_perron(g, np.ones((2, 32)), np.zeros((2, 32)), J)
        assert pair.value == pytest.approx(-0.7, abs=1e-8)
        for v in pair.vectors:
            assert np.allclose(v.values, v.values[0], atol=1e-7)

    def test_reducible_raises(self):
        g = make_cell_grid(1.0, 32)
        J = np.zeros((2, 2, 32))
        J[0, 0] = -2.0; J[1, 1] = -1.0
        J[1, 0] = 1.0                     # coupling only downward
        with pytest.raises(ReducibleCouplingError):
            coupled_perron(g, np.ones((2, 32)), np.zeros((2, 32)), J)

    def test_model_at_one_matches_dense(self):
        from perifront.eigen import _assemble_coupled
        model = make_model("periodic2", make_cell_grid(1.0, 64))
        pair = principal_eig_coupled(model, at="one")
        J = model.jacobian(np.ones((2, 64)), np.arange(64))
        M = _assemble_coupled(model.cell, model.d, model.q, J)
        target = np.max(np.linalg.eigvals(M.toarray()).real)
        assert abs(pair.value - target) <= 1e-6
        assert pair.value < 0.0

    def test_positivity(self):
        model = make_model("chain-m")
        pair = principal_eig_coupled(model, at="one")
        for v in pair.vectors:
            assert v.min() > 0.0
