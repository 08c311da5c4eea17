"""Dispersion curves, critical speed, decay exponents and the vector
eigenfunctions built through the triangular cascade.

For component i the curve kappa_i(lam) is the principal eigenvalue of the
tilted operator with zeroth-order coefficient zeta_i(x) = h_i(x, 0).  The
critical speed is the minimum of kappa_1(lam)/lam over lam > 0, attained at
lam_+0; for c above the critical speed, lam_c is the smaller root of
kappa_1(lam) = c*lam and controls the exponential decay of front tails.

The vector eigenfunction Phi_lam is assembled component by component: phi_1
is the scalar Perron vector, and each phi_j (j >= 2) solves the shifted
system (kappa_1(lam) I - A_j) phi_j = sum_{k<j} a_jk phi_k, which has a
positive solution exactly because kappa_1 dominates kappa_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PerifrontError, SpectralGapError
from .grid import (OperatorSpec, PeriodicField, assemble_tilted_operator,
                   solve_cyclic_banded)
from .eigen import principal_eig_scalar

__all__ = [
    "VectorEigenfunction",
    "EigenfunctionDerivative",
    "LinearizedFront",
    "Dispersion",
    "golden_section_min",
    "bracket_and_minimize",
    "bisect",
    "boundary_speeds_A6",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
LAMBDA_MIN = 1e-4
LAMBDA_MAX = 64.0
GAP_FLOOR = 1e-8           # least curve gap the cascade accepts
CASCADE_RESID_TOL = 1e-8   # cascade residual bound, times max(1, max phi_j)
RICHARDSON_TOL = 1e-4      # step-halving defect bound of dPhi/dlam


def golden_section_min(f, a: float, b: float, tol: float = 1e-11):
    """Golden-section search for the minimizer of a unimodal f on [a, b]."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def bracket_and_minimize(ratio, tol: float, error: str):
    """Minimizer and minimum of a unimodal ratio over lam > 0.

    The bracket [LAMBDA_MIN, 2 hi] is grown by doubling hi from 1 while
    the ratio still decreases (PerifrontError(error) once hi passes
    LAMBDA_MAX), then golden-section search to tol localizes the minimum.
    """
    hi = 1.0
    while ratio(2.0 * hi) < ratio(hi):
        hi *= 2.0
        if hi > LAMBDA_MAX:
            raise PerifrontError(error)
    return golden_section_min(ratio, LAMBDA_MIN, 2.0 * hi, tol=tol)


def bisect(below, lo: float, hi: float, steps: int, rtol: float = 0.0):
    """Bisection of [lo, hi] for the point where the predicate below turns
    false: the midpoint replaces lo where below(mid) holds and hi
    otherwise, for at most steps halvings and until hi - lo <=
    rtol * max(1, hi).  Returns the final (lo, hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * max(1.0, hi):
            break
    return lo, hi


@dataclass(frozen=True)
class VectorEigenfunction:
    lam: float
    kappa: float
    components: tuple          # m strictly positive PeriodicFields
    residuals: tuple

    @property
    def m(self) -> int:
        return len(self.components)

    def as_array(self) -> np.ndarray:
        return np.stack([c.values for c in self.components])

    def norm_p(self) -> float:
        """max over x of sum_i phi_i(x) (the vector sup norm used in the
        subsolution parameter recipes)."""
        return float(np.max(self.as_array().sum(axis=0)))

    def min_component(self) -> float:
        return float(self.as_array().min())


@dataclass(frozen=True)
class EigenfunctionDerivative:
    lam: float
    components: tuple          # m PeriodicFields, unconstrained sign
    dlam: float
    kappa1_prime: float
    richardson_defect: float

    def as_array(self) -> np.ndarray:
        return np.stack([c.values for c in self.components])


@dataclass(frozen=True)
class LinearizedFront:
    """Closed-form front-like solution of the linearized system:
    w(t, x) = k * exp(lam_c (c t - x e)) * Phi_{lam_c}(x)."""

    c: float
    k: float
    lam_c: float
    phi: VectorEigenfunction
    e: int = 1

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s = self.c * t - x * self.e
        vals = _periodic_eval_stack(self.phi, x)
        return self.k * np.exp(self.lam_c * s)[None, :] * vals


def _periodic_eval_stack(phi: VectorEigenfunction, x: np.ndarray) -> np.ndarray:
    grid = phi.components[0].grid
    pos = np.mod(x, grid.L) / grid.h
    j0 = np.floor(pos).astype(int) % grid.n
    frac = pos - np.floor(pos)
    j1 = (j0 + 1) % grid.n
    arr = phi.as_array()
    return arr[:, j0] * (1.0 - frac) + arr[:, j1] * frac


class Dispersion:
    """Dispersion data of a reaction model in direction e, memoized per
    (component, lam) on a fixed grid."""

    def __init__(self, model, e: int = 1):
        self.model = model
        self.e = int(e)
        self._pair_memo = {}
        self._cascade_memo = {}
        self._crit = None

    # -- scalar curves ----------------------------------------------------

    def _component_spec(self, i: int, lam: float) -> OperatorSpec:
        cell = self.model.cell
        return OperatorSpec(
            d=PeriodicField(cell, self.model.d[i]),
            q=PeriodicField(cell, self.model.q[i]),
            eta=PeriodicField(cell, self.model.zeta(i)),
            lam=lam, e=self.e)

    def _pair(self, i: int, lam: float):
        key = (i, round(lam, 12))
        if key not in self._pair_memo:
            self._pair_memo[key] = principal_eig_scalar(
                self._component_spec(i, lam))
        return self._pair_memo[key]

    def kappa(self, i: int, lam: float) -> float:
        """kappa_i(lam): principal eigenvalue of the tilted component-i
        operator."""
        return self._pair(i, lam).value

    def critical_speed(self):
        """(c_plus0, lambda_plus0): minimal value and minimizer of
        kappa_1(lam)/lam over lam > 0.

        The bracket is grown geometrically until the ratio increases, then
        golden-section search localizes the minimum of the (strictly
        unimodal) ratio.
        """
        if self._crit is not None:
            return self._crit
        k0 = self.kappa(0, 0.0)
        if k0 <= 0.0:
            raise PerifrontError(
                f"kappa_1(0) = {k0:.6g} <= 0: the zero state is not "
                "linearly unstable, no finite spreading speed")
        ratio = lambda lam: self.kappa(0, lam) / lam
        lam0, _ = bracket_and_minimize(
            ratio, 1e-8, f"no ratio minimum found below lam = {LAMBDA_MAX}")
        # polish with the tangency condition lam*kappa' = kappa, whose root
        # is far better conditioned than the flat ratio minimum
        g = lambda lam: lam * self.kappa1_prime(lam, 1e-3) - self.kappa(0, lam)
        a, b = max(LAMBDA_MIN, lam0 - 1e-2), lam0 + 1e-2
        if g(a) < 0.0 < g(b):
            a, b = bisect(lambda lam: g(lam) < 0.0, a, b, 80, 1e-12)
            lam0 = 0.5 * (a + b)
        self._crit = (ratio(lam0), lam0)
        return self._crit

    def lambda_c(self, c: float) -> float:
        """Smallest positive root of kappa_1(lam) - c*lam for c >= c_plus0."""
        c0, lam0 = self.critical_speed()
        if c < c0 - 1e-12:
            raise PerifrontError(
                f"c = {c:.6g} below the critical speed {c0:.6g}: "
                "no decay exponent (no front exists)")
        if abs(c - c0) <= 1e-10:
            return lam0
        g = lambda lam: self.kappa(0, lam) - c * lam
        # g(0+) = kappa_1(0) > 0, g(lam0) = lam0 (c0 - c) < 0
        lo, hi = bisect(lambda lam: g(lam) > 0.0, 1e-12, lam0, 200, 1e-13)
        return 0.5 * (lo + hi)

    def kappa1_prime(self, lam: float, dlam: float | None = None) -> float:
        if dlam is None:
            dlam = 1e-4 * max(1.0, abs(lam))
        return (self.kappa(0, lam + dlam) - self.kappa(0, lam - dlam)) / (2 * dlam)

    # -- vector eigenfunctions --------------------------------------------

    def spectral_gap(self, lam: float) -> float:
        """kappa_1(lam) - max_{j>=2} kappa_j(lam); positive under (H6)."""
        if self.model.m < 2:
            return np.inf
        return self.kappa(0, lam) - max(
            self.kappa(j, lam) for j in range(1, self.model.m))

    def cascade(self, lam: float) -> VectorEigenfunction:
        """Positive vector eigenfunction Phi_lam via the triangular cascade."""
        key = round(lam, 12)
        if key in self._cascade_memo:
            return self._cascade_memo[key]
        model = self.model
        cell = model.cell
        gap = self.spectral_gap(lam)
        if gap < GAP_FLOOR:
            raise SpectralGapError(
                f"spectral gap {gap:.3e} below floor at lam = {lam:.6g}: "
                "first curve does not dominate")
        pair1 = self._pair(0, lam)
        kappa1 = pair1.value
        comps = [pair1.vector.values]
        resids = [pair1.residual]
        for j in range(1, model.m):
            A_j = assemble_tilted_operator(self._component_spec(j, lam))
            S = A_j.shifted_from(kappa1)
            rhs = np.zeros(cell.n)
            for k in range(j):
                a_jk = model.coupling(j, k)
                if a_jk is not None:
                    rhs += a_jk * comps[k]
            phi_j = solve_cyclic_banded(S, rhs)
            if phi_j.min() <= 0.0:
                raise SpectralGapError(
                    f"cascade component {j + 1} lost positivity at "
                    f"lam = {lam:.6g} (grid too coarse?)")
            resid = float(np.max(np.abs(kappa1 * phi_j - A_j.matvec(phi_j)
                                        - rhs)))
            if resid > CASCADE_RESID_TOL * max(1.0, float(np.max(phi_j))):
                raise SpectralGapError(
                    f"cascade residual {resid:.3e} out of tolerance")
            comps.append(phi_j)
            resids.append(resid)
        out = VectorEigenfunction(
            lam, kappa1,
            tuple(PeriodicField(cell, v) for v in comps),
            tuple(resids))
        self._cascade_memo[key] = out
        return out

    def cascade_derivative(self, lam: float) -> EigenfunctionDerivative:
        """d/dlam of Phi_lam by central differences, with a step-halving
        consistency check instead of solving the rank-deficient identity."""
        dlam = 1e-4 * max(1.0, abs(lam))
        cell = self.model.cell

        def stack(l):
            return self.cascade(l).as_array()

        der = (stack(lam + dlam) - stack(lam - dlam)) / (2.0 * dlam)
        der_half = (stack(lam + dlam / 2) - stack(lam - dlam / 2)) / dlam
        scale = max(1.0, float(np.max(np.abs(der))))
        defect = float(np.max(np.abs(der - der_half))) / scale
        if defect > RICHARDSON_TOL:
            raise PerifrontError(
                f"lambda-derivative not Richardson-consistent "
                f"(defect {defect:.3e} at dlam = {dlam:.3g})")
        kprime = self.kappa1_prime(lam, dlam)
        return EigenfunctionDerivative(
            lam, tuple(PeriodicField(cell, der[i]) for i in range(len(der))),
            dlam, kprime, defect)

    # -- closed-form linearized fronts ------------------------------------

    def linearized_front(self, c: float, k: float = 1.0) -> LinearizedFront:
        if k <= 0.0:
            raise PerifrontError("amplitude k must be positive")
        lam_c = self.lambda_c(c)
        return LinearizedFront(c, k, lam_c, self.cascade(lam_c), self.e)

    def epsilon_rule(self, c: float) -> float:
        """Tail-perturbation exponent for the supercritical subsolution:
        half of min{(lam_+0 - lam_c)/2, lam_c/2}, the safety factor keeping
        the exponential gap strictly negative after discretization."""
        _, lam0 = self.critical_speed()
        lam_c = self.lambda_c(c)
        return 0.5 * min((lam0 - lam_c) / 2.0, lam_c / 2.0)

    # -- table / summary ---------------------------------------------------

    def table(self, lams) -> dict:
        lams = np.asarray(lams, dtype=float)
        kap = np.array([[self.kappa(i, l) for l in lams]
                        for i in range(self.model.m)])
        return {"lambda": lams, "kappa": kap}


def boundary_speeds_A6(cell, d1, q1, a11s, d2, q2, a22s):
    """Rightward and leftward invasion speeds of the intermediate boundary
    state of the two-species competition application.

    c_minus = inf_{lam>0} kappa_e(d1, q1, a11*, lam)/lam and
    c_plus uses the opposite exponential tilt (-lam) with (d2, q2, a22*).
    """
    def make(dv, qv, ev, lam, tilt_sign):
        return principal_eig_scalar(OperatorSpec(
            d=PeriodicField(cell, dv), q=PeriodicField(cell, qv),
            eta=PeriodicField(cell, ev), lam=tilt_sign * lam)).value

    def minimize(ratio):
        return bracket_and_minimize(
            ratio, 1e-11, "no bracket for boundary speed")[1]

    c_minus = minimize(lambda lam: make(d1, q1, a11s, lam, +1.0) / lam)
    c_plus = minimize(lambda lam: make(d2, q2, a22s, lam, -1.0) / lam)
    return c_minus, c_plus
