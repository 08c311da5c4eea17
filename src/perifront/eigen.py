"""Principal (Perron) eigenpairs of tilted scalar operators and of the
coupled linearization at a steady state.

Both solvers run shifted inverse power iteration on (sigma*I - A)**-1 with
sigma = 1 + Gershgorin upper bound.  For a Metzler A that shift makes a
nonsingular M-matrix whose inverse is entrywise nonnegative, so the
iteration converges to the eigenvalue of maximal real part together with a
positive eigenvector.  Deterministic start vector of ones; no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, ReducibleCouplingError
from .grid import (BandedMatrix, CellGrid, OperatorSpec, PeriodicField,
                   assemble_tilted_operator, tilted_operator_derivative)

__all__ = [
    "EigenPair",
    "CoupledEigenPair",
    "principal_eig_scalar",
    "with_left",
    "principal_eig_coupled",
    "coupled_perron",
]

MAX_ITER = 100_000
SCALAR_TOL = 1e-10     # residual contracts: ||A v - value v||_inf and
COUPLED_TOL = 1e-8     # the last value change <= TOL * max(1, |value|)


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: PeriodicField
    residual: float
    iterations: int
    left: PeriodicField | None = None    # psi, added by with_left
    slope: float | None = None           # d value / d lam, likewise

    def __post_init__(self):
        for v in (self.vector, self.left):
            if v is not None and v.min() <= 0.0:
                raise ConvergenceError("principal eigenvector is not positive")


@dataclass(frozen=True)
class CoupledEigenPair:
    value: float
    vectors: tuple
    residual: float
    iterations: int


def _inverse_power(solve, matvec, norm, sigma, v, est, tol):
    """Shifted inverse power iteration with solve = (sigma I - A)^-1 and
    matvec = A, from the start vector v and value estimate est; each
    iterate is divided by norm(iterate).  Returns (value, vector,
    residual, iterations) once the value moves by at most
    tol * max(1, |value|) and ||A v - value v||_inf is within the same."""
    for it in range(1, MAX_ITER + 1):
        w = solve(v)
        nu = norm(w)           # Perron value of (sigma*I - A)^-1 at convergence
        w = w / nu
        value = sigma - 1.0 / nu
        resid = float(np.abs(matvec(w) - value * w).max())
        bound = tol * max(1.0, abs(value))
        done = abs(value - est) <= bound and resid <= bound
        v, est = w, value
        if done:
            return value, v, resid, it
    raise ConvergenceError(
        f"inverse power iteration did not converge in {MAX_ITER} steps "
        f"(last residual {resid:.3e})")


def _perron(B: BandedMatrix, sigma: float):
    """_inverse_power on B with shift sigma, from the ones vector."""
    ones = np.ones(B.n)
    return _inverse_power(
        B.shifted_from(sigma).factor().solve, B.matvec, np.ndarray.mean,
        sigma, ones, float(B.matvec(ones).mean()), SCALAR_TOL)


def principal_eig_scalar(spec: OperatorSpec) -> EigenPair:
    """Perron eigenpair of the assembled tilted operator.

    Returns (kappa, phi) with ||A phi - kappa phi||_inf <= SCALAR_TOL *
    max(1, |kappa|) and phi > 0 normalized to mean(phi) = 1 (a smooth
    normalization in lam, which the dispersion module differentiates
    through).  with_left adds psi and the slope.
    """
    A = assemble_tilted_operator(spec)
    kappa, phi, resid, it = _perron(A, 1.0 + A.gershgorin_max())
    return EigenPair(kappa, PeriodicField(spec.d.grid, phi), resid, it)


def with_left(spec: OperatorSpec, pair: EigenPair) -> EigenPair:
    """pair, the right Perron pair of spec's operator A, with psi > 0, the
    same iteration on A^T, and the exact slope d kappa/d lam = psi^T A'
    phi / psi^T phi added, A' = tilted_operator_derivative(spec) (Kato,
    ch. II).  psi does not depend on phi, so the right pair is not
    solved again."""
    A = assemble_tilted_operator(spec)
    psi = _perron(A.transposed(), 1.0 + A.gershgorin_max())[1]
    phi = pair.vector.values
    slope = psi @ tilted_operator_derivative(spec).matvec(phi) / (psi @ phi)
    return replace(pair, left=PeriodicField(spec.d.grid, psi), slope=slope)


def _assemble_coupled(cell: CellGrid, ds, qs, J) -> sp.csr_matrix:
    """Sparse (m*n) x (m*n) matrix of the coupled periodic operator.

    Diagonal blocks are the untilted scalar operators with zeroth-order
    coefficient J[i, i, :]; off-diagonal blocks are diag(J[i, j, :]).
    """
    m = len(ds)
    blocks = [[None] * m for _ in range(m)]
    for i in range(m):
        blocks[i][i] = assemble_tilted_operator(OperatorSpec.of(
            cell, ds[i], qs[i], J[i, i])).to_sparse()
        for j in range(m):
            if j != i and np.any(J[i, j] != 0.0):
                blocks[i][j] = sp.diags(J[i, j])
    return sp.bmat(blocks, format="csc")


def coupled_perron(cell: CellGrid, ds, qs, J) -> CoupledEigenPair:
    """Perron eigenpair of the coupled operator with Jacobian field J (m,m,n).

    Off-diagonal entries of J must be >= 0 (cooperative coupling) so the
    assembled matrix is Metzler.  Raises ReducibleCouplingError when the
    converged vector is not strictly positive, which is how a reducible
    coupling graph shows up at the discrete level.
    """
    J = np.asarray(J, dtype=float)
    m, n = J.shape[0], cell.n
    for i in range(m):
        for j in range(m):
            if i != j and J[i, j].min() < 0.0:
                raise ReducibleCouplingError(
                    f"off-diagonal Jacobian entry ({i},{j}) is negative: "
                    "coupled operator is not Metzler")
    M = _assemble_coupled(cell, ds, qs, J)
    row_abs = np.asarray(abs(M).sum(axis=1)).ravel()
    diag = M.diagonal()
    sigma = 1.0 + float(np.max(diag + row_abs - np.abs(diag)))
    lu = spla.splu((sigma * sp.identity(m * n, format="csc") - M).tocsc())

    mu, v, resid, it = _inverse_power(
        lu.solve, lambda w: M @ w, lambda w: float(np.max(w)), sigma,
        np.ones(m * n), 0.0, COUPLED_TOL)

    comps = v.reshape(m, n)
    if comps.min() <= 1e-6 * comps.max():
        raise ReducibleCouplingError(
            "reducible coupling: principal eigenvector has a (numerically) "
            "vanishing component")
    vectors = tuple(PeriodicField(cell, comps[i]) for i in range(m))
    return CoupledEigenPair(mu, vectors, resid, it)


def principal_eig_coupled(model, at: str = "one") -> CoupledEigenPair:
    """Perron pair of the linearization of a reaction model at 'zero' or 'one'.

    For at='one' this is the (mu-, Psi) pair whose negativity certifies
    linear stability of the upper steady state.
    """
    if at not in ("zero", "one"):
        raise ValueError("state must be 'zero' or 'one'")
    cell = model.cell
    u = (np.zeros((model.m, cell.n)) if at == "zero"
         else np.ones((model.m, cell.n)))
    J = model.jacobian(u, np.arange(cell.n))
    return coupled_perron(cell, model.d, model.q, J)
