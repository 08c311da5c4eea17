"""Periodicity-cell discretization, tilted operators and cyclic banded solves.

The cell [0, L) carries n uniformly spaced nodes x_j = j*h, h = L/n, with
periodic wrap-around.  Scalar operators of the form

    d(x) v'' + (q(x) - 2*lam*d(x)*e) v' + (d(x)*lam**2 - lam*q(x)*e + eta(x)) v

are discretized with central differences, which keeps O(h**2) accuracy and,
under the step restriction h <= 2*min(d)/max|q - 2*lam*d*e|, nonnegative
off-diagonal entries (a Metzler matrix, so Perron-Frobenius structure
survives discretization).

Cell operators are factored once, gttrf/gttrs + precomputed border:
BandedMatrix.factor() runs one LAPACK gttrf of the tridiagonal part and
solves the rank-1 periodic border once, so each solve is one gttrs plus a
rank-1 update, bit-for-bit the same as factoring anew with gtsv.

BandedMatrix.matvec and first_derivative reach each node's neighbours by
gathering through wrap indices, (j + 1) % n and (j - 1) % n, built once per
n; they give the values of np.roll(v, -1) and np.roll(v, 1) without its
per-call slicing and copying.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (FieldSpecError, GridError, MetzlerError,
                     SingularSystemError)

_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.float64)

__all__ = [
    "CellGrid",
    "PeriodicField",
    "OperatorSpec",
    "BandedMatrix",
    "BandedFactor",
    "make_cell_grid",
    "assemble_tilted_operator",
    "tilted_operator_derivative",
    "solve_cyclic_banded",
    "first_derivative",
]

MIN_CELL_NODES = 16    # the coarsest cell grid CellGrid accepts


def _is_number(val) -> bool:
    return (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and math.isfinite(val))


def _is_integer(val) -> bool:
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


@dataclass(frozen=True)
class CellGrid:
    """Uniform periodic grid on the cell [0, L)."""

    L: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.L) or self.L <= 0:
            raise GridError(f"cell length must be positive, got {self.L}")
        if self.n < MIN_CELL_NODES:
            raise GridError(
                f"grid too coarse: n = {self.n} < {MIN_CELL_NODES}")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.h


@dataclass(frozen=True)
class PeriodicField:
    """Real samples of an L-periodic function at the cell nodes."""

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise GridError(
                f"field has {v.shape} values, grid has {self.grid.n} nodes")
        if not np.isfinite(v).all():
            raise GridError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: CellGrid, value: float) -> "PeriodicField":
        return cls(grid, np.full(grid.n, float(value)))

    @classmethod
    def from_callable(cls, grid: CellGrid, f) -> "PeriodicField":
        return cls(grid, np.asarray(f(grid.x), dtype=float))

    @classmethod
    def from_csv(cls, grid: CellGrid, path) -> "PeriodicField":
        """Load (x, value) rows and resample at the nodes by linear interpolation.

        Sample abscissae are reduced mod L; the interpolation wraps around.
        Rows at one x (mod L), such as x = 0 and x = L, must hold one value,
        and every x and value must be finite.
        """
        with warnings.catch_warnings():     # an empty file raises below
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        if not len(data):
            raise GridError(f"{path} holds no x, value rows")
        if data.shape[1] != 2:
            raise GridError(f"{path} must hold two columns x, value; "
                            f"it holds {data.shape[1]}")
        bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
        if len(bad):
            raise GridError(f"{path} data row {bad[0] + 1} holds a "
                            f"non-finite number: {data[bad[0]].tolist()}")
        xs = np.mod(data[:, 0], grid.L)
        order = np.argsort(xs)
        xs, vs = xs[order], data[order, 1]
        clash = np.flatnonzero((np.diff(xs) == 0.0) & (np.diff(vs) != 0.0))
        if len(clash):
            raise GridError(f"{path} holds different values at x = "
                            f"{float(xs[clash[0]])!r} (mod L = {grid.L!r})")
        xpad = np.concatenate([xs, [xs[0] + grid.L]])
        vpad = np.concatenate([vs, [vs[0]]])
        return cls(grid, np.interp(grid.x, xpad, vpad, period=grid.L))

    @classmethod
    def from_spec(cls, grid: CellGrid, spec) -> "PeriodicField":
        """Build a field from a config fragment.

        Accepted forms: a finite real number v (not a bool), {"const": v},
        {"cosine": {"mean": m, "amp": a, "harmonics": k, "phase": p}} with
        k an integer, {"csv": path}; anything else raises FieldSpecError.
        """
        form, c = (next(iter(spec.items())) if isinstance(spec, dict)
                   and len(spec) == 1 else ("const", spec))
        if form == "const" and _is_number(c):
            return cls.constant(grid, c)
        if form == "csv" and isinstance(c, str):
            return cls.from_csv(grid, c)
        if (form == "cosine" and isinstance(c, dict) and {"mean", "amp"}
                <= c.keys() <= {"mean", "amp", "harmonics", "phase"}
                and all(map(_is_number, c.values()))
                and _is_integer(c.get("harmonics", 1))):
            k = int(c.get("harmonics", 1))
            phase = float(c.get("phase", 0.0))
            vals = c["mean"] + c["amp"] * np.cos(
                2.0 * np.pi * k * grid.x / grid.L + phase)
            return cls(grid, vals)
        raise FieldSpecError("must be a number or a const, cosine or csv "
                             f"field spec, got {spec!r}")

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients of the exponentially tilted scalar operator."""

    d: PeriodicField
    q: PeriodicField
    eta: PeriodicField
    lam: float = 0.0
    e: int = 1

    def __post_init__(self):
        if self.e not in (+1, -1):
            raise GridError(f"direction must be +1 or -1, got {self.e}")
        if self.d.min() <= 0.0:
            raise GridError("diffusion coefficient must be strictly positive")

    @classmethod
    def of(cls, grid: CellGrid, d, q, eta=None, lam: float = 0.0,
           e: int = 1) -> "OperatorSpec":
        """The spec of node arrays d, q and eta on grid (eta = 0 if None)."""
        return cls(PeriodicField(grid, d), PeriodicField(grid, q),
                   PeriodicField(grid, np.zeros(grid.n) if eta is None
                                 else eta), lam, e)


@dataclass
class BandedMatrix:
    """Cyclic tridiagonal matrix.

    sub[j] multiplies v[j-1], main[j] multiplies v[j], sup[j] multiplies
    v[j+1], with the index arithmetic wrapping: sub[0] is the (0, n-1)
    corner and sup[n-1] the (n-1, 0) corner.
    """

    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray

    @property
    def n(self) -> int:
        return len(self.main)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        nxt, prv = _wrap(self.n)
        return self.main * v + self.sup * v[nxt] + self.sub * v[prv]

    def to_dense(self) -> np.ndarray:
        n = self.n
        A = np.diag(self.main)
        A[np.arange(n - 1), np.arange(1, n)] = self.sup[:-1]
        A[np.arange(1, n), np.arange(n - 1)] = self.sub[1:]
        A[0, n - 1] += self.sub[0]
        A[n - 1, 0] += self.sup[n - 1]
        return A

    def transposed(self) -> "BandedMatrix":
        """Return A^T: row j holds sup[j-1] and sub[j+1], gathered."""
        nxt, prv = _wrap(self.n)
        return BandedMatrix(self.sup[prv], self.main, self.sub[nxt])

    def shifted_from(self, sigma: float) -> "BandedMatrix":
        """Return sigma*I - A."""
        return BandedMatrix(-self.sub, sigma - self.main, -self.sup)

    def implicit(self, dt: float) -> "BandedMatrix":
        """Return I - dt*A, the matrix of an implicit step dt."""
        return BandedMatrix(-dt * self.sub, 1.0 - dt * self.main,
                            -dt * self.sup)

    def gershgorin_max(self) -> float:
        """Upper bound of the spectrum's real part via row sums."""
        return float(np.max(self.main + np.abs(self.sub) + np.abs(self.sup)))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.main) + np.abs(self.sub)
                            + np.abs(self.sup)))

    def factor(self) -> "BandedFactor":
        """Factor once for repeated solves with this matrix."""
        return BandedFactor(self)


@functools.cache
def _wrap(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices (j + 1) % n and (j - 1) % n of each node's right
    and left neighbour on an n-node periodic cell."""
    j = np.arange(n)
    nxt, prv = (j + 1) % n, (j - 1) % n
    nxt.flags.writeable = prv.flags.writeable = False
    return nxt, prv


def make_cell_grid(L: float, n: int) -> CellGrid:
    return CellGrid(float(L), int(n))


def assemble_tilted_operator(spec: OperatorSpec) -> BandedMatrix:
    """Central-difference matrix of the tilted operator on the cell.

    Raises MetzlerError (naming the point count that would fix it) when the
    drift is too strong for the grid to keep off-diagonals nonnegative.
    """
    grid = spec.d.grid
    h = grid.h
    d = spec.d.values
    b = spec.q.values - 2.0 * spec.lam * d * spec.e
    c = d * spec.lam**2 - spec.lam * spec.q.values * spec.e + spec.eta.values

    sub = d / h**2 - b / (2.0 * h)
    sup = d / h**2 + b / (2.0 * h)
    if sub.min() < 0.0 or sup.min() < 0.0:
        bmax = float(np.max(np.abs(b)))
        n_req = int(np.ceil(grid.L * bmax / (2.0 * d.min()))) + 1
        raise MetzlerError(
            f"off-diagonal sign lost: h = {h:.4g} exceeds "
            f"2*min(d)/max|q - 2*lam*d*e| = {2.0 * d.min() / bmax:.4g}; "
            f"need n >= {n_req}",
            n_required=n_req,
        )
    main = -2.0 * d / h**2 + c
    return BandedMatrix(sub, main, sup)


def tilted_operator_derivative(spec: OperatorSpec) -> BandedMatrix:
    """Entrywise lam-derivative A' of assemble_tilted_operator(spec)."""
    de = spec.d.values * spec.e / spec.d.grid.h
    return BandedMatrix(de, 2.0 * spec.lam * spec.d.values
                        - spec.q.values * spec.e, -de)


class BandedFactor:
    """LU factors of a cyclic tridiagonal matrix, computed once.

    Periodic corners are removed by a rank-1 bordering: A = B + u v^T with
    B tridiagonal, u = (gamma, 0, ..., 0, beta) and
    v = (1, 0, ..., 0, alpha/gamma).  B is factored by LAPACK gttrf, and the
    border z = B^-1 u and 1 + v.z are precomputed, so a solve is one gttrs
    plus a rank-1 (Sherman-Morrison) update.  gttrf + gttrs do the
    operations of gtsv in the same order, pivoted rows included.

    The factor is of A as it is when factor() is called; solve() keeps one
    refinement pass and the 1e-10 * scale residual contract on every call.
    """

    def __init__(self, A: BandedMatrix):
        n = A.n
        if n < 3:
            raise SingularSystemError("system too small for banded solve")
        self.A = A
        self._norm = A.norm_inf()
        alpha = A.sub[0]      # (0, n-1) corner
        beta = A.sup[n - 1]   # (n-1, 0) corner
        gamma = -A.main[0] if A.main[0] != 0.0 else 1.0
        main = A.main.copy()
        main[0] -= gamma
        main[-1] -= alpha * beta / gamma
        *self._lu, info = _gttrf(A.sub[1:], main, A.sup[:-1])
        if info != 0:
            raise SingularSystemError(
                f"tridiagonal factor has a zero pivot at row {info}")
        u = np.zeros(n)
        u[0] = gamma
        u[-1] = beta
        self._z = self._gttrs(u)
        self._ratio = alpha / gamma
        self._denom = 1.0 + (self._z[0] + self._ratio * self._z[-1])
        if abs(self._denom) < 1e-14:
            raise SingularSystemError("bordered correction became singular")

    def _gttrs(self, r: np.ndarray) -> np.ndarray:
        return _gttrs(*self._lu, r)[0]

    def _raw_solve(self, r: np.ndarray) -> np.ndarray:
        y = self._gttrs(r)
        vy = y[0] + self._ratio * y[-1]
        return y - self._z * (vy / self._denom)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs; raises SingularSystemError on a non-finite
        solution or a residual above 1e-10 * max(||rhs||, ||x|| ||A||)."""
        rhs = np.asarray(rhs, dtype=float)
        x = self._raw_solve(rhs)
        if not np.isfinite(x).all():
            raise SingularSystemError("solve produced non-finite values")

        # one refinement pass, then enforce the residual contract
        A = self.A
        r = rhs - A.matvec(x)
        x = x + self._raw_solve(r)
        scale = max(float(np.abs(rhs).max()),
                    float(np.abs(x).max()) * self._norm)
        resid = float(np.abs(rhs - A.matvec(x)).max())
        if scale > 0 and resid > 1e-10 * scale:
            raise SingularSystemError(
                f"residual {resid:.3e} exceeds contract (system near-singular)")
        return x


def solve_cyclic_banded(A: BandedMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs once for a cyclic tridiagonal A; callers solving
    with the same A repeatedly should keep A.factor() instead."""
    return A.factor().solve(rhs)


def first_derivative(f: PeriodicField) -> PeriodicField:
    """Periodic central first difference, O(h**2)."""
    v = f.values
    nxt, prv = _wrap(len(v))
    return PeriodicField(f.grid, (v[nxt] - v[prv]) / (2.0 * f.grid.h))
