import dataclasses
import re

import numpy as np
import pytest

from perifront import (BandedMatrix, OperatorSpec, PeriodicField,
                       assemble_tilted_operator, first_derivative,
                       make_cell_grid, solve_cyclic_banded)
from perifront.errors import GridError, MetzlerError, SingularSystemError
from perifront.grid import tilted_operator_derivative


def constant_spec(grid, d=1.0, q=0.0, eta=0.0, lam=0.0, e=1):
    return OperatorSpec(
        PeriodicField.constant(grid, d),
        PeriodicField.constant(grid, q),
        PeriodicField.constant(grid, eta), lam=lam, e=e)


class TestCellGrid:
    def test_spacing(self):
        assert make_cell_grid(1.0, 64).h == 1.0 / 64
        assert make_cell_grid(2 * np.pi, 128).h == 2 * np.pi / 128

    def test_too_coarse(self):
        with pytest.raises(GridError, match="coarse"):
            make_cell_grid(1.0, 4)

    def test_bad_length(self):
        with pytest.raises(GridError):
            make_cell_grid(-1.0, 64)


class TestAssemble:
    def test_constant_annihilated(self):
        g = make_cell_grid(1.0, 64)
        A = assemble_tilted_operator(constant_spec(g))
        assert np.allclose(A.matvec(np.ones(64)), 0.0, atol=1e-12)

    def test_tilt_constant(self):
        # d lam^2 term survives on constants
        g = make_cell_grid(1.0, 64)
        A = assemble_tilted_operator(constant_spec(g, lam=1.0))
        assert np.allclose(A.matvec(np.ones(64)), 1.0, atol=1e-12)

    def test_second_derivative_accuracy(self):
        g = make_cell_grid(1.0, 64)
        A = assemble_tilted_operator(constant_spec(g))
        v = np.sin(2 * np.pi * g.x)
        target = -(2 * np.pi) ** 2 * v
        err = np.max(np.abs(A.matvec(v) - target))
        assert err <= 5.0 * g.h**2 * (2 * np.pi) ** 3

    def test_second_order_convergence(self):
        errs = []
        for n in (64, 128):
            g = make_cell_grid(1.0, n)
            A = assemble_tilted_operator(constant_spec(g, q=0.3, eta=0.5,
                                                       lam=0.7))
            v = np.sin(2 * np.pi * g.x) + 0.3 * np.cos(4 * np.pi * g.x)
            b = 0.3 - 2 * 0.7
            exact = (-(2 * np.pi) ** 2 * np.sin(2 * np.pi * g.x)
                     - 0.3 * (4 * np.pi) ** 2 * np.cos(4 * np.pi * g.x)
                     + b * (2 * np.pi * np.cos(2 * np.pi * g.x)
                            - 0.3 * 4 * np.pi * np.sin(4 * np.pi * g.x))
                     + (0.7**2 - 0.7 * 0.3 + 0.5) * v)
            errs.append(np.max(np.abs(A.matvec(v) - exact)))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_metzler_structure(self):
        g = make_cell_grid(1.0, 64)
        A = assemble_tilted_operator(constant_spec(g, q=0.5, lam=1.0))
        assert A.sub.min() >= 0.0 and A.sup.min() >= 0.0

    @pytest.mark.parametrize("e", [1, -1])
    def test_derivative_is_the_exact_difference(self, e):
        """The entries are at most quadratic in lam, so the central
        difference of step 1/2 is the lam-derivative up to roundoff."""
        g = make_cell_grid(2.0, 64)
        x = g.x
        spec = OperatorSpec(
            PeriodicField(g, 1.0 + 0.3 * np.cos(np.pi * x)),
            PeriodicField(g, 0.4 * np.sin(np.pi * x)),
            PeriodicField(g, np.cos(np.pi * x)), lam=0.7, e=e)
        dense = lambda lam: assemble_tilted_operator(
            dataclasses.replace(spec, lam=lam)).to_dense()
        want = dense(1.2) - dense(0.2)
        got = tilted_operator_derivative(spec).to_dense()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_metzler_violation_names_n(self):
        g = make_cell_grid(1.0, 16)
        spec = constant_spec(g, d=0.01, q=10.0)
        with pytest.raises(MetzlerError) as exc:
            assemble_tilted_operator(spec)
        assert exc.value.n_required > 16


class TestCyclicSolve:
    def test_identity(self):
        rng = np.random.default_rng(0)
        n = 64
        A = BandedMatrix(np.zeros(n), np.ones(n), np.zeros(n))
        rhs = rng.standard_normal(n)
        assert np.allclose(solve_cyclic_banded(A, rhs), rhs, atol=1e-12)

    def test_minus_laplacian_plus_identity(self):
        g = make_cell_grid(1.0, 64)
        L = assemble_tilted_operator(constant_spec(g))
        A = BandedMatrix(-L.sub, 1.0 - L.main, -L.sup)
        x = solve_cyclic_banded(A, np.ones(64))
        assert np.allclose(x, 1.0, atol=1e-12)

    def test_manufactured_solution(self):
        rng = np.random.default_rng(1)
        n = 80
        sub = rng.uniform(0.1, 1.0, n)
        sup = rng.uniform(0.1, 1.0, n)
        main = sub + sup + rng.uniform(0.5, 1.0, n)   # diagonally dominant
        A = BandedMatrix(sub, main, sup)
        v = rng.standard_normal(n)
        x = solve_cyclic_banded(A, A.matvec(v))
        assert np.max(np.abs(x - v)) <= 1e-10

    def test_residual_contract(self):
        rng = np.random.default_rng(2)
        g = make_cell_grid(1.0, 128)
        L = assemble_tilted_operator(constant_spec(g, q=0.2, eta=0.0))
        A = BandedMatrix(-L.sub, 1.0 - L.main, -L.sup)
        rhs = rng.standard_normal(128)
        x = solve_cyclic_banded(A, rhs)
        assert np.max(np.abs(A.matvec(x) - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_singular_raises(self):
        n = 32
        A = BandedMatrix(np.zeros(n), np.zeros(n), np.zeros(n))
        with pytest.raises(SingularSystemError):
            solve_cyclic_banded(A, np.ones(n))

    def test_dense_agreement(self):
        rng = np.random.default_rng(3)
        n = 48
        sub = rng.uniform(0.1, 1.0, n)
        sup = rng.uniform(0.1, 1.0, n)
        main = -(sub + sup) - rng.uniform(1.0, 2.0, n)
        A = BandedMatrix(sub, main, sup)
        rhs = rng.standard_normal(n)
        x = solve_cyclic_banded(A, rhs)
        assert np.allclose(np.linalg.solve(A.to_dense(), rhs), x, atol=1e-9)


class TestFields:
    def test_from_csv_resamples(self, tmp_path):
        g = make_cell_grid(1.0, 64)
        path = tmp_path / "field.csv"
        xs = np.linspace(0.0, 1.0, 21)
        with open(path, "w") as fh:
            for x in xs:
                fh.write(f"{x},{np.cos(2 * np.pi * x)}\n")
        f = PeriodicField.from_csv(g, path)
        exact = np.cos(2 * np.pi * g.x)
        assert np.max(np.abs(f.values - exact)) < 2e-2  # linear interp error

    @pytest.mark.parametrize("text", ["", "# x, value\n"],
                             ids=["empty", "comment-only"])
    def test_from_csv_rejects_a_file_without_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(GridError, match=re.escape(
                f"{path} holds no x, value rows")):
            PeriodicField.from_csv(make_cell_grid(1.0, 64), path)

    def test_from_csv_rejects_two_values_at_one_x(self, tmp_path):
        """x = 1.25 is x = 0.25 mod L = 1: a jump the field cannot hold."""
        path = tmp_path / "clash.csv"
        path.write_text("0,1\n0.25,2\n0.5,1\n1.25,3\n")
        with pytest.raises(GridError, match=re.escape(
                f"{path} holds different values at x = 0.25 (mod L = 1.0)")):
            PeriodicField.from_csv(make_cell_grid(1.0, 64), path)

    @pytest.mark.parametrize("text, row, msg", [
        ("# x, value\n0,1\nnan,1\n0.5,2\n", 2, "[nan, 1.0]"),
        ("0,1\n0.25,2\n0.5,inf\n", 3, "[0.5, inf]")],
        ids=["nan-x", "inf-value"])
    def test_from_csv_rejects_a_non_finite_number(self, tmp_path, text, row,
                                                  msg):
        """Rows count from 1 among the data rows, comments left out."""
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(GridError, match=re.escape(
                f"{path} data row {row} holds a non-finite number: {msg}")):
            PeriodicField.from_csv(make_cell_grid(1.0, 16), path)

    def test_from_csv_accepts_equal_values_at_one_x(self, tmp_path):
        """Writing both ends, x = 0 and x = L, with one value is allowed
        and resamples as the file without the x = L row."""
        g = make_cell_grid(1.0, 64)
        both, one = tmp_path / "both.csv", tmp_path / "one.csv"
        one.write_text("0,1\n0.5,2\n")
        both.write_text("0,1\n0.5,2\n1,1\n")
        assert np.array_equal(PeriodicField.from_csv(g, both).values,
                              PeriodicField.from_csv(g, one).values)

    def test_from_spec_cosine(self):
        g = make_cell_grid(1.0, 64)
        f = PeriodicField.from_spec(g, {"cosine": {"mean": 1.0, "amp": 0.5,
                                                   "harmonics": 2}})
        assert np.allclose(f.values, 1 + 0.5 * np.cos(4 * np.pi * g.x))

    @pytest.mark.parametrize("spec", [
        {"cosine": {"mean": 1.0, "amp": 0.5, "harmonics": 1.5}},
        True,
        {"const": 1.0, "cosine": {"mean": 1.0, "amp": 0.5}},
        {"cosine": {"mean": 1.0, "amp": 0.5, "phse": 0.3}},
        {"cosine": {"mean": 1.0}},
        {"csv": 5},
    ], ids=["fractional-harmonics", "bool", "two-forms",
            "unknown-cosine-key", "missing-amp", "csv-not-a-path"])
    def test_from_spec_rejects(self, spec):
        """Each spec that is none of the accepted forms raises GridError
        naming the forms and the spec, before any field is built."""
        with pytest.raises(GridError, match="must be a number or a const, "
                           "cosine or csv field spec, got "):
            PeriodicField.from_spec(make_cell_grid(1.0, 64), spec)

    def test_from_spec_accepts_numpy_scalars(self):
        g = make_cell_grid(1.0, 64)
        f = PeriodicField.from_spec(g, np.int64(2))
        assert np.array_equal(f.values, np.full(64, 2.0))
        f = PeriodicField.from_spec(g, {"cosine": {
            "mean": np.float64(1.0), "amp": np.int64(1),
            "harmonics": np.int64(2)}})
        assert np.array_equal(f.values, PeriodicField.from_spec(g, {
            "cosine": {"mean": 1.0, "amp": 1, "harmonics": 2}}).values)

    def test_first_derivative(self):
        g = make_cell_grid(1.0, 256)
        f = PeriodicField.from_callable(g, lambda x: np.sin(2 * np.pi * x))
        df = first_derivative(f)
        exact = 2 * np.pi * np.cos(2 * np.pi * g.x)
        assert np.max(np.abs(df.values - exact)) < 1e-2
