"""Dispersion curves, critical speed, decay exponents and the vector
eigenfunctions built through the triangular cascade.

For component i the curve kappa_i(lam) is the principal eigenvalue of the
tilted operator with zeroth-order coefficient zeta_i(x) = h_i(x, 0).  The
critical speed is the minimum of kappa_1(lam)/lam over lam > 0, attained at
lam_+0; for c above the critical speed, lam_c is the smaller root of
kappa_1(lam) = c*lam and controls the exponential decay of front tails.

Both are roots found by one bracketing routine: lam_+0 of the tangency
lam kappa_1' = kappa_1, with kappa_1' exact from the left and right Perron
vectors; kappa_1 is convex in lam, so each bracket holds one root.

The vector eigenfunction Phi_lam is assembled component by component: phi_1
is the scalar Perron vector, and each phi_j (j >= 2) solves the shifted
system (kappa_1(lam) I - A_j) phi_j = sum_{k<j} a_jk phi_k, which has a
positive solution exactly because kappa_1 dominates kappa_j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PerifrontError, SpectralGapError
from .grid import (OperatorSpec, PeriodicField, assemble_tilted_operator,
                   solve_cyclic_banded)
from .eigen import principal_eig_scalar, with_left

__all__ = [
    "VectorEigenfunction",
    "EigenfunctionDerivative",
    "Dispersion",
    "golden_section_min",
    "bracketed_root",
    "min_ratio",
    "bisect",
    "boundary_speeds_A6",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
LAMBDA_MAX = 64.0
ROOT_RTOL = 1e-13          # bracketed_root's step tolerance, times max(1, |x|)
ROOT_MAX_STEPS = 200
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


def bracketed_root(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Root of f in [lo, hi], where flo = f(lo) and fhi = f(hi) differ in
    sign, by Illinois regula falsi (the secant point replaces the end of
    its sign; an end kept twice running has its value halved).  Returns
    the first point where f is 0 or within ROOT_RTOL * max(1, |x|) of the
    one before."""
    x, side = math.inf, 0
    for _ in range(ROOT_MAX_STEPS):
        x, last = float(hi - fhi * (hi - lo) / (fhi - flo)), x
        fx = f(x)
        if fx == 0.0 or abs(x - last) <= ROOT_RTOL * max(1.0, abs(x)):
            return x
        if (fx > 0.0) == (fhi > 0.0):
            if side == 1:
                flo /= 2.0
            hi, fhi, side = x, fx, 1
        else:
            if side == -1:
                fhi /= 2.0
            lo, flo, side = x, fx, -1
    raise PerifrontError(
        f"root not converged in {ROOT_MAX_STEPS} steps on [{lo}, {hi}]")


def min_ratio(curve, k0: float, error: str):
    """(min over lam > 0 of kappa(lam)/lam, its minimiser) for a convex
    kappa with kappa(0) = k0 > 0, where curve(lam) = (kappa, kappa'): the
    root of g = lam kappa' - kappa, increasing from g(0) = -k0, bracketed
    by doubling hi from 1 until g(hi) > 0 (PerifrontError(error) once hi
    passes LAMBDA_MAX)."""
    def g(lam):
        kappa, slope = curve(lam)
        return lam * slope - kappa

    lo, glo, hi = 0.0, -k0, 1.0
    while (ghi := g(hi)) <= 0.0:
        lo, glo, hi = hi, ghi, 2.0 * hi
        if hi > LAMBDA_MAX:
            raise PerifrontError(error)
    lam0 = bracketed_root(g, lo, hi, glo, ghi)
    return curve(lam0)[0] / lam0, lam0


def bisect(below, lo: float, hi: float, steps: int):
    """Bisection of [lo, hi] for the point where the predicate below turns
    false: the midpoint replaces lo where below(mid) holds and hi
    otherwise, for steps halvings.  Returns the final (lo, hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
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
    kappa1_prime: float
    richardson_defect: float

    def as_array(self) -> np.ndarray:
        return np.stack([c.values for c in self.components])


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

    def _pair(self, i: int, lam: float, left: bool = False):
        """Memoized Perron pair; left=True wants psi and the slope (added
        to the memo's pair if it lacks them, keeping its kappa and phi)."""
        key = (i, round(lam, 12))
        pair = self._pair_memo.get(key)
        if pair is None:
            pair = principal_eig_scalar(self._component_spec(i, lam),
                                        left=left)
        elif left and pair.left is None:
            pair = with_left(self._component_spec(i, lam), pair)
        else:
            return pair
        self._pair_memo[key] = pair
        return pair

    def kappa(self, i: int, lam: float) -> float:
        """kappa_i(lam): principal eigenvalue of the tilted component-i
        operator."""
        return self._pair(i, lam).value

    def critical_speed(self):
        """(c_plus0, lambda_plus0): minimal value and minimizer of
        kappa_1(lam)/lam over lam > 0.

        min_ratio finds lambda_plus0 as the root of the tangency condition
        lam kappa_1'(lam) = kappa_1(lam), with the exact kappa1_prime.
        """
        if self._crit is not None:
            return self._crit
        k0 = self.kappa(0, 0.0)
        if k0 <= 0.0:
            raise PerifrontError(
                f"kappa_1(0) = {k0:.6g} <= 0: the zero state is not "
                "linearly unstable, no finite spreading speed")

        def curve(lam):
            slope = self.kappa1_prime(lam)     # first: solves psi too
            return self.kappa(0, lam), slope

        self._crit = min_ratio(
            curve, k0, f"no ratio minimum found below lam = {LAMBDA_MAX}")
        return self._crit

    def tau(self, c: float) -> int:
        """1 at the critical speed (|c - c_plus0| <= 1e-10), 0 above it;
        raises below it (c < c_plus0 - 1e-12), where no front exists."""
        c0, _ = self.critical_speed()
        if c < c0 - 1e-12:
            raise PerifrontError(
                f"c = {c:.6g} below the critical speed {c0:.6g}: "
                "no decay exponent (no front exists)")
        return 1 if abs(c - c0) <= 1e-10 else 0

    def lambda_c(self, c: float) -> float:
        """Smallest positive root of kappa_1(lam) - c*lam for c >= c_plus0."""
        _, lam0 = self.critical_speed()
        if self.tau(c):
            return lam0
        g = lambda lam: self.kappa(0, lam) - c * lam
        # g(0) = kappa_1(0) > 0, g(lam0) = lam0 (c0 - c) < 0
        return bracketed_root(g, 0.0, lam0, g(0.0), g(lam0))

    def kappa1_prime(self, lam: float) -> float:
        """kappa_1'(lam), exact for the assembled matrix."""
        return self._pair(0, lam, left=True).slope

    # -- vector eigenfunctions --------------------------------------------

    def spectral_gap(self, lam: float) -> float:
        """kappa_1(lam) - max_{j>=2} kappa_j(lam); positive under (H6)."""
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
            resid = float(np.abs(kappa1 * phi_j - A_j.matvec(phi_j)
                                 - rhs).max())
            if resid > CASCADE_RESID_TOL * max(1.0, float(phi_j.max())):
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
        kprime = self.kappa1_prime(lam)
        return EigenfunctionDerivative(
            lam, tuple(PeriodicField(cell, der[i]) for i in range(len(der))),
            kprime, defect)

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
    c_plus uses the opposite direction (e = -1) with (d2, q2, a22*); both
    by min_ratio, as c_plus0.
    """
    def speed(dv, qv, ev, e):
        @functools.cache
        def curve(lam):
            spec = OperatorSpec(
                d=PeriodicField(cell, dv), q=PeriodicField(cell, qv),
                eta=PeriodicField(cell, ev), lam=lam, e=e)
            pair = principal_eig_scalar(spec, left=True)
            return pair.value, pair.slope

        return min_ratio(curve, curve(0.0)[0],
                         "no bracket for boundary speed")[0]

    return speed(d1, q1, a11s, 1), speed(d2, q2, a22s, -1)
