"""Closed-form sub/supersolutions with their parameter recipes, and the
numerical verification of their defining differential inequalities.

Each builder assembles the candidate exactly as the comparison argument
prescribes: the supercritical subsolution subtracts a faster-decaying
eigen-mode from the front mode, the critical one carries the extra |s|
factor and the lambda-derivative of the eigenfunction, the supersolutions
clip the linearized front at 1, and the stability sandwich dresses a
numerically extracted profile with an exponentially damped corrector that
blends the tail mode into the stable-state eigenfunction.

residual_sign_check evaluates N_i = du_i/dt - d_i Lap u_i - q_i grad u_i
- f_i(x, u) on a (t, x) lattice by finite differences, normalizes by the
candidate's natural amplitude, and issues a verdict with an explicit
discretization allowance: sign conditions are checked, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, PerifrontError
from .eigen import principal_eig_coupled
from .dispersion import bisect
from .fronts import front_position
from .models import _h7_scan, dependency_lattice, json_native

__all__ = [
    "CandidateSolution",
    "BoundaryCheck",
    "CertReport",
    "build_sub_supercritical",
    "build_sub_critical",
    "build_super_linearized",
    "build_super_linearized_critical",
    "build_stability_sandwich",
    "find_sandwich_seed",
    "residual_sign_check",
    "compute_varrho",
    "smoothstep_cutoff",
]

DT_FD = 1e-3           # time step of the centred residual difference
T_SAMPLES = 5          # residual lattice times per t-region
C_ALLOW = 10.0         # residual allowance C_ALLOW * (h**2 + DT_FD**2)
S_BAR = 2.0            # the sandwich cutoff chi falls from 1 to 0
CHI_WIDTH = 4.0        # on [S_BAR - CHI_WIDTH, S_BAR]
Z_SCAN_MAX = 40.0      # corrector shifts z0 are scanned on [0, Z_SCAN_MAX)
SEED_TIMES = (1.0, 2.0, 4.0, 8.0)          # find_sandwich_seed's t_c grid
SEED_SIGMA_FACTORS = (1.0, 2.0, 4.0, 8.0)  # and its sigma * beta grid
SEED_MARGIN_CELLS = 4  # window edge cells left out of the seed bracket
T_REGION = (0.5, 3.0)  # residual lattice times, and the sandwich's shift range
VARRHO_SAMPLES = 3     # box lattice points per component in compute_varrho


@dataclass(frozen=True)
class BoundaryCheck:
    name: str
    margin: float               # >= 0 means satisfied
    witness: object = None


@dataclass
class CandidateSolution:
    kind: str                   # sub_* must have N <= 0, super_* N >= 0
    sense: str                  # "sub" | "super"
    params: dict
    s_region: tuple             # (s_min, s_max) where the inequality is claimed
    evaluator: object           # callable (t, x array) -> (m, len(x))
    scale: object               # callable s -> amplitude normalization
    constraints: list = field(default_factory=list)
    # profile-backed candidates supply the co-moving time derivative
    # analytically instead of leaving it to a finite difference in t
    dudt_evaluator: object = None
    # the bare profile over the argument range the evaluator reads, with
    # this candidate's sense and scale: its residual is the profile defect
    bare: CandidateSolution | None = None


@dataclass
class CertReport:
    kind: str
    params: dict
    margins: np.ndarray          # per component, normalized
    boundary: list
    allowance: float
    verdict: bool
    witness: object
    profile_defect: float = 0.0

    def as_dict(self):
        return {
            "kind": self.kind,
            "params": {k: (float(v) if np.isscalar(v) else json_native(v))
                       for k, v in self.params.items()},
            "margins": [float(v) for v in self.margins],
            "boundary": [{"name": b.name, "margin": float(b.margin)}
                         for b in self.boundary],
            "allowance": float(self.allowance),
            "profile_defect": float(self.profile_defect),
            "verdict": "pass" if self.verdict else "fail",
            "witness": json_native(self.witness),
        }


# ---------------------------------------------------------------------------
# shared helpers


def _phi_bounds(phi):
    arr = phi.as_array()
    return float(arr.max()), float(arr.min())


def _gamma0(model, box: float) -> float:
    """max |dh_i/du_j| over all components and the symmetric box."""
    return max(h.max_abs_du(-box, box) for h in model.h)


def _nodes(x, cell) -> tuple:
    """x as a 1-D float array, and the cell node index of each entry."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return x, np.rint(x / cell.h).astype(int) % cell.n


def _co_moving(cell, c: float, f):
    """The evaluator (t, x) -> f(t, s, idx) of a field f given in the
    co-moving coordinate s = c t - x at the cell nodes idx of x."""
    def evaluator(t, x):
        x, idx = _nodes(x, cell)
        return f(t, c * t - x, idx)
    return evaluator


def _kpp_margin(model, arr, lam: float, mode: str) -> float:
    """The margin of the KPP-type property h_i(x, w) <= h_i(x, 0) along
    w = e^{lam s} arr; raises when it fails."""
    margin, _ = _h7_scan(model, arr, lam, 80)
    if margin < -1e-10:
        raise CertificationError(
            f"h_i(x, w_c) <= h_i(x, 0) fails along the {mode} "
            f"(margin {margin:.3e})")
    return margin


def _halve_eps(eps: float, sigma, ok, steps: int, message: str) -> tuple:
    """The first of eps, eps/2, ... (steps values) with ok(eps, sigma(eps)),
    as (eps, sigma(eps)); CertificationError(message) when none passes."""
    for _ in range(steps):
        sig = sigma(eps)
        if ok(eps, sig):
            return eps, sig
        eps *= 0.5
    raise CertificationError(message)


def smoothstep_cutoff(s_lo: float, s_hi: float):
    """Quintic cutoff chi: 1 left of s_lo, 0 right of s_hi, with
    |chi'| + |chi''| <= 1 verified numerically for the chosen width;
    returns (chi, chi')."""
    w = s_hi - s_lo

    def chi(s):
        y = np.clip((np.asarray(s, dtype=float) - s_lo) / w, 0.0, 1.0)
        return 1.0 - (6 * y**5 - 15 * y**4 + 10 * y**3)

    def chi_prime(s):
        s = np.asarray(s, dtype=float)
        y = np.clip((s - s_lo) / w, 0.0, 1.0)
        out = -(30 * y**4 - 60 * y**3 + 30 * y**2) / w
        out[(s <= s_lo) | (s >= s_hi)] = 0.0
        return out

    ss = np.linspace(s_lo, s_hi, 2001)
    y = (ss - s_lo) / w
    d1 = np.abs(30 * y**4 - 60 * y**3 + 30 * y**2) / w
    d2 = np.abs(120 * y**3 - 180 * y**2 + 60 * y) / w**2
    bound = float(np.max(d1 + d2))
    if bound > 1.0:
        raise CertificationError(
            f"cutoff width {w} too narrow: |chi'|+|chi''| = {bound:.3f} > 1")
    return chi, chi_prime


# ---------------------------------------------------------------------------
# supercritical subsolution


def build_sub_supercritical(model, disp, c: float, delta1: float,
                            delta2: float) -> CandidateSolution:
    """Subsolution delta * e^{lam_c s} (Phi_c - n0 e^{eps s} Phi_eps) on
    s <= s0, with the recipe for s*, s0, n0 driving all constants."""
    if not (0.0 < delta2 <= delta1):
        raise CertificationError("need 0 < delta2 <= delta1")
    c0, lam0 = disp.critical_speed()
    if c <= c0 + 1e-12:
        raise CertificationError("supercritical construction needs c > c_+0")
    lam_c = disp.lambda_c(c)

    eps, sigma_eps = _halve_eps(
        disp.epsilon_rule(c),
        lambda e: disp.kappa(0, lam_c + e) - c * (lam_c + e),
        lambda e, sig: sig < 0.0, 20, "could not find eps with sigma_eps < 0")

    phi_c = disp.cascade(lam_c)
    phi_e = disp.cascade(lam_c + eps)
    M_c, m_c = _phi_bounds(phi_c)
    M_e, m_e = _phi_bounds(phi_e)
    # enlarged ratio so that theta_eff * phi_eps dominates phi_c pointwise,
    # making the s0-boundary value nonpositive for any normalization
    theta_eff = max(M_e, M_c) / m_e
    gamma0 = _gamma0(model, model.m * theta_eff)
    norm_c = phi_c.norm_p()
    norm_e = phi_e.norm_p()

    s_star = min(
        math.log(abs(sigma_eps) * m_e
                 / (gamma0 * (1 + theta_eff) ** 2 * (M_c + M_e)
                    * (norm_c + norm_e))) / (lam_c - eps),
        -1.0)
    s0 = min(s_star,
             -math.log(delta1 * M_c) / lam_c,
             math.log(theta_eff / delta1) / eps)
    n0 = theta_eff * math.exp(-eps * s0)

    arr_c = phi_c.as_array()
    arr_e = phi_e.as_array()
    cell = model.cell

    def sub(t, s, idx):
        out = np.empty((model.m, len(s)))
        grow = np.exp(lam_c * s)
        pert = n0 * np.exp(eps * s)
        out[0] = delta1 * grow * (arr_c[0, idx] - pert * arr_e[0, idx])
        for i in range(1, model.m):
            out[i] = delta2 * grow * (
                arr_c[i, idx] - (n0 * delta1 / delta2)
                * np.exp(eps * s) * arr_e[i, idx])
        return out

    # boundary conditions of the comparison argument, checked numerically
    bvals = sub(0.0, np.full(cell.n, s0), np.arange(cell.n))
    scale0 = delta1 * math.exp(lam_c * s0)
    constraints = [
        BoundaryCheck("value_at_s0_nonpositive", -bvals.max() / scale0),
        BoundaryCheck("sup_below_one", 1.0 - delta1 * math.exp(lam_c * s0) * M_c),
    ]

    return CandidateSolution(
        kind="sub_supercritical", sense="sub",
        params=dict(c=c, lam_c=lam_c, eps=eps, sigma_eps=sigma_eps,
                    delta1=delta1, delta2=delta2, s_star=s_star, s0=s0,
                    n0=n0, gamma0=gamma0, theta=theta_eff),
        s_region=(s0 - 30.0, s0),
        evaluator=_co_moving(cell, c, sub),
        scale=lambda s: delta1 * np.exp(lam_c * np.asarray(s)),
        constraints=constraints)


# ---------------------------------------------------------------------------
# critical subsolution


def _pick_eps_star(disp) -> tuple:
    """Largest eps* of the form lam*/2**k with a positive curve gap at
    lam* + eps* and a negative sigma* = c*(lam*+eps*) - kappa_1(lam*+eps*)."""
    c0, lam0 = disp.critical_speed()

    def admissible(eps, sigma):
        try:
            gap_ok = disp.spectral_gap(lam0 + eps) > 0.0
        except PerifrontError:
            gap_ok = False
        return gap_ok and sigma < 0.0

    return _halve_eps(
        lam0 / 4.0, lambda e: c0 * (lam0 + e) - disp.kappa(0, lam0 + e),
        admissible, 30, "no admissible eps* found")


def build_sub_critical(model, disp, delta1: float, delta2: float) -> CandidateSolution:
    """Critical subsolution with the |s| factor and the eigenfunction
    lambda-derivative, valid on s <= s0."""
    if not (0.0 < delta2 <= delta1):
        raise CertificationError("need 0 < delta2 <= delta1")
    c0, lam0 = disp.critical_speed()
    eps_s, sigma_s = _pick_eps_star(disp)

    phi_s = disp.cascade(lam0)
    phi_d = disp.cascade_derivative(lam0)
    phi_e = disp.cascade(lam0 + eps_s)
    M_s, m_s = _phi_bounds(phi_s)
    M_e, m_e = _phi_bounds(phi_e)
    M_d = float(np.max(np.abs(phi_d.as_array())))
    gamma0 = _gamma0(model, 4.0 / 3.0)
    norm_s = phi_s.norm_p()

    a = lam0 - eps_s
    # largest s <= -1 with 2 ln|s| + a s / 2 <= 0 for every point to the left
    s_hat = -1.0
    while 2.0 * math.log(abs(s_hat)) + 0.5 * a * s_hat > 0.0:
        s_hat *= 2.0
        if s_hat < -1e8:
            raise CertificationError("log-versus-exponential balance failed")
    s_hat = min(s_hat,
                2.0 / a * math.log(abs(sigma_s) * m_e
                                   / (36.0 * gamma0 * M_s * norm_s)))
    s_star = min(-1.0, -1.0 / lam0, -M_d / m_s, s_hat)

    s0 = s_star
    while delta1 * 3.0 * abs(s0) * M_s * math.exp(lam0 * s0) > 1.0:
        s0 -= 1.0
    s0 = min(s0, math.log(m_s / (delta1 * M_e)) / eps_s)
    m0 = 3.0 * abs(s0)
    n0 = math.exp(-eps_s * s0) * m_s / M_e

    arr_s = phi_s.as_array()
    arr_d = phi_d.as_array()
    arr_e = phi_e.as_array()
    cell = model.cell

    def component(i, s, idx):
        dd = delta1 if i == 0 else delta2
        m0_i = m0 if i == 0 else m0 * delta1 / delta2
        n0_i = n0 if i == 0 else n0 * delta1 / delta2
        return dd * np.exp(lam0 * s) * (
            np.abs(s) * arr_s[i, idx] - m0_i * arr_s[i, idx]
            - arr_d[i, idx] + n0_i * np.exp(eps_s * s) * arr_e[i, idx])

    def sub(t, s, idx):
        return np.stack([component(i, s, idx) for i in range(model.m)])

    bvals = sub(0.0, np.full(cell.n, s0), np.arange(cell.n))
    scale0 = delta1 * (1.0 + abs(s0)) * math.exp(lam0 * s0)
    constraints = [
        BoundaryCheck("value_at_s0_nonpositive", -bvals.max() / scale0),
        BoundaryCheck("sup_below_one",
                      1.0 - 3.0 * delta1 * abs(s0) * math.exp(lam0 * s0) * M_s),
    ]

    return CandidateSolution(
        kind="sub_critical", sense="sub",
        params=dict(c=c0, lam_star=lam0, eps_star=eps_s, sigma_star=sigma_s,
                    delta1=delta1, delta2=delta2, s_hat=s_hat, s_star=s_star,
                    s0=s0, m0=m0, n0=n0, gamma0=gamma0),
        s_region=(s0 - 30.0, s0),
        evaluator=_co_moving(cell, c0, sub),
        scale=lambda s: delta1 * (1.0 + np.abs(np.asarray(s)))
        * np.exp(lam0 * np.asarray(s)),
        constraints=constraints)


# ---------------------------------------------------------------------------
# supersolutions from the linearized system


def build_super_linearized(model, disp, c: float, k: float) -> CandidateSolution:
    """min{k e^{lam_c s} Phi_c, 1}: a supersolution wherever the growth-rate
    comparison h_i(x, w) <= h_i(x, 0) holds along the front mode."""
    if k <= 0.0:
        raise CertificationError("k must be positive")
    lam_c = disp.lambda_c(c)
    phi = disp.cascade(lam_c)
    arr = phi.as_array()
    margin = _kpp_margin(model, arr, lam_c, "mode")
    s_sat = -math.log(k * float(arr.max())) / lam_c

    def sup(t, s, idx):
        return np.minimum(k * np.exp(lam_c * s)[None, :] * arr[:, idx], 1.0)

    return CandidateSolution(
        kind="super_linearized", sense="super",
        params=dict(c=c, lam_c=lam_c, k=k, s_sat=s_sat, h7_margin=margin),
        s_region=(s_sat - 30.0, s_sat),
        evaluator=_co_moving(model.cell, c, sup),
        scale=lambda s: np.minimum(k * np.exp(lam_c * np.asarray(s)), 1.0),
        constraints=[BoundaryCheck("kpp_along_mode", margin)])


def build_super_linearized_critical(model, disp, k: float,
                                    n_param: float) -> CandidateSolution:
    """Critical supersolution k e^{lam* s} ((|s| + n) Phi* - Phi*'), valid
    and positive on s <= s0 <= s* = min{-1, n - 1/lam* - M*(1)/m*}."""
    if k <= 0.0 or n_param <= 0.0:
        raise CertificationError("k and n must be positive")
    c0, lam0 = disp.critical_speed()
    phi_s = disp.cascade(lam0)
    phi_d = disp.cascade_derivative(lam0)
    M_s, m_s = _phi_bounds(phi_s)
    M_d = float(np.max(np.abs(phi_d.as_array())))
    s_star = min(-1.0, n_param - 1.0 / lam0 - M_d / m_s)
    s0 = s_star
    k_star = math.exp(-2.0 * lam0 * s0) / ((2.0 * abs(s0) + n_param) * m_s - M_d)

    arr_s = phi_s.as_array()
    arr_d = phi_d.as_array()
    margin = _kpp_margin(model, arr_s, lam0, "critical mode")

    def sup(t, s, idx):
        core = ((np.abs(s) + n_param)[None, :] * arr_s[:, idx] - arr_d[:, idx])
        return np.minimum(k * np.exp(lam0 * s)[None, :] * core, 1.0)

    # positivity of the unclipped profile over the declared region
    pos_margin = np.inf
    for s in np.linspace(s0 - 30.0, s0, 60):
        core = (abs(s) + n_param) * arr_s - arr_d
        pos_margin = min(pos_margin, float(core.min()))

    return CandidateSolution(
        kind="super_linearized_critical", sense="super",
        params=dict(c=c0, lam_star=lam0, k=k, n=n_param, s_star=s_star,
                    s0=s0, k_star=k_star, h7_margin=margin),
        s_region=(s0 - 30.0, s0),
        evaluator=_co_moving(model.cell, c0, sup),
        scale=lambda s: k * (1.0 + np.abs(np.asarray(s)))
        * np.exp(lam0 * np.asarray(s)),
        constraints=[BoundaryCheck("positive_on_region", pos_margin),
                     BoundaryCheck("kpp_along_mode", margin)])


# ---------------------------------------------------------------------------
# stability sandwich around a numerical profile


def _sandwich_corrector(model, disp, profile, delta: float, psi_pair):
    """The part of the stability sandwich that depends on neither its sign,
    sigma nor s0: the smoothed profile, Psi and mu-, the eps/beta search,
    the corrector xi, its shift z0 and the slope alpha.

    Returns (beta, candidate), where candidate(sign, sigma, s0) assembles
    the signed sandwich U(x, s0 +/- sigma(1-e^{-beta t})) +/- delta
    xi(x, . + z0) e^{-beta t}.
    """
    profile = profile.smoothed()
    c = profile.c
    c0, lam0 = disp.critical_speed()
    critical = disp.tau(c) == 1

    mu = psi_pair.value
    if mu >= 0.0:
        raise CertificationError(
            f"upper state not linearly stable (mu = {mu:.4g}); "
            "the sandwich construction needs a negative coupled eigenvalue")
    psi = np.stack([v.values for v in psi_pair.vectors])
    delta_m = float((1.0 / psi).min(axis=1).min())
    delta_M = float((1.0 / psi).max(axis=1).max())
    if not (0.0 < delta <= delta_m):
        raise CertificationError(f"delta must lie in (0, {delta_m:.4g}]")

    if critical:
        eps, sig = _halve_eps(
            _pick_eps_star(disp)[0],
            lambda e: c0 * (lam0 + e) - disp.kappa(0, lam0 + e),
            lambda e, sig: abs(sig) <= abs(mu) / 2.0, 30,
            f"no eps with |sigma*| <= |mu-|/2 (mu- = {mu:.3g})")
        beta = abs(sig)
        lam_c = lam0
        arr_s = disp.cascade(lam0).as_array()
        arr_e = disp.cascade(lam0 + eps).as_array()
    else:
        lam_c = disp.lambda_c(c)
        eps, sig = _halve_eps(
            disp.epsilon_rule(c),
            lambda e: disp.kappa(0, lam_c + e) - c * (lam_c + e),
            lambda e, sig: sig < 0.0 and abs(sig) <= abs(mu), 30,
            f"no eps with -|mu-| <= sigma_eps < 0 (mu- = {mu:.3g})")
        beta = abs(sig) / 2.0
        arr_e = disp.cascade(lam_c + eps).as_array()
        arr_s = None

    chi, chi_p = smoothstep_cutoff(S_BAR - CHI_WIDTH, S_BAR)
    cell = model.cell

    def tail_and_slope(idx, s):
        if critical:
            ea = np.exp(lam_c * s)[None, :]
            eb = np.exp((lam_c + eps) * s)[None, :]
            T = ea * arr_s[:, idx] - eb * arr_e[:, idx]
            Ts = lam_c * ea * arr_s[:, idx] - (lam_c + eps) * eb * arr_e[:, idx]
        else:
            T = np.exp((lam_c + eps) * s)[None, :] * arr_e[:, idx]
            Ts = (lam_c + eps) * T
        return T, Ts

    def xi(idx, s):
        """Corrector field at cell nodes idx and positions s, which
        broadcast against each other: (m, *shape)."""
        cs = chi(s)
        T, _ = tail_and_slope(idx, s)
        return cs[None, :] * T + (1.0 - cs)[None, :] * psi[:, idx]

    def xi_s(idx, s):
        cs = chi(s)
        cp = chi_p(s)
        T, Ts = tail_and_slope(idx, s)
        return cp[None, :] * (T - psi[:, idx]) + cs[None, :] * Ts

    # z0 scan: U(x, s) - delta xi(x, s + z0) - 1 <= -(delta/2) Psi(x), all
    # cell rows of one trial shift at once as (m, n, len(scan_s)); a row
    # whose maximum is NaN (unobserved bins) does not reject the shift
    scan_s = np.arange(profile.s[0] - 10.0, profile.s[-1] + 10.0, cell.h)
    rows = np.arange(cell.n)[:, None]
    Uv = profile.eval(np.repeat(rows, len(scan_s)), np.tile(scan_s, cell.n))
    Uv = Uv.reshape(model.m, cell.n, len(scan_s))
    for z in np.arange(0.0, Z_SCAN_MAX, cell.h):
        lhs = (Uv - delta * xi(rows, scan_s + z) - 1.0) / psi[:, rows]
        if not (lhs.max(axis=(0, 2)) > -delta / 2.0).any():
            z0 = float(z)
            break
    else:
        raise CertificationError(
            f"no corrector shift z0 found in [0, {Z_SCAN_MAX}]: profile "
            "defects too large or delta too big")

    # informational delta_c estimate from the profile's interior slope
    M_win = max(abs(S_BAR - CHI_WIDTH), abs(S_BAR)) + 2.0
    alpha = profile.min_slope(-M_win, M_win)

    def candidate(sign: str, sigma, s0: float) -> CandidateSolution:
        if sigma is None:
            sigma = 1.0 / beta
        if sigma * beta < 1.0 - 1e-12:
            raise CertificationError("need sigma >= 1/beta")
        sgn = -1.0 if sign == "lower" else +1.0

        def shifted(t, s):
            return s + s0 + sgn * sigma * (1.0 - np.exp(-beta * t))

        def dressed(t, s, idx):
            sh = shifted(t, s)
            base = profile.eval(idx, sh)
            corr = delta * xi(idx, sh + z0) * math.exp(-beta * t)
            return base + sgn * corr

        def dudt(t, s, idx):
            # co-moving identity: the time derivative rides on dU/ds, with
            # the wide-stencil slope so bin roughness does not leak in
            sh = shifted(t, s)
            rate = c + sgn * sigma * beta * math.exp(-beta * t)
            ebt = math.exp(-beta * t)
            out = rate * profile.ds(idx, sh)
            out += sgn * delta * ebt * (rate * xi_s(idx, sh + z0)
                                        - beta * xi(idx, sh + z0))
            return out

        # keep the shifted profile argument strictly inside the solid range
        shift_max = sigma * (1.0 - math.exp(-beta * T_REGION[1]))
        pad = 2.0
        solid_lo, solid_hi = profile.s_solid
        if sign == "lower":
            s_lo = solid_lo - s0 + shift_max + pad
            s_hi = solid_hi - s0 - pad
            bare_region = (s_lo - shift_max, s_hi)
        else:
            s_lo = solid_lo - s0 + pad
            s_hi = solid_hi - s0 - shift_max - pad
            bare_region = (s_lo, s_hi + shift_max)
        params = dict(c=c, critical=critical, lam_c=lam_c, eps=eps, beta=beta,
                      sigma=sigma, s0=s0, z0=z0, delta=delta, mu_minus=mu,
                      delta_m=delta_m, delta_M=delta_M,
                      alpha_min_slope=alpha.tolist())
        sense = "sub" if sign == "lower" else "super"
        scale = lambda s: np.ones_like(np.asarray(s, dtype=float))
        # the static profile, no shift: measures its own PDE defect
        bare = CandidateSolution(
            kind="profile", sense=sense, params=params, s_region=bare_region,
            evaluator=_co_moving(cell, c, lambda t, s, idx:
                                 profile.eval(idx, s + s0)),
            scale=scale,
            dudt_evaluator=_co_moving(cell, c, lambda t, s, idx:
                                      c * profile.ds(idx, s + s0)))
        return CandidateSolution(
            kind="sandwich_" + sign, sense=sense, params=params,
            s_region=(s_lo, s_hi),
            evaluator=_co_moving(cell, c, dressed),
            scale=scale,
            constraints=[BoundaryCheck("z0_margin", delta / 2.0),
                         BoundaryCheck("slope_positive", float(alpha.min()))],
            dudt_evaluator=_co_moving(cell, c, dudt),
            bare=bare)

    return beta, candidate


def build_stability_sandwich(model, disp, profile, sign: str, delta: float,
                             sigma: float | None = None, s0: float = 0.0,
                             psi_pair=None) -> CandidateSolution:
    """Profile-backed sandwich U(x, s0 +/- sigma(1-e^{-beta t})) +/- delta
    xi e^{-beta t}; the shift z0 inside the corrector is found by scanning
    until the near-one comparison inequality holds with margin delta/2.

    The profile is lightly smoothed along s and only its solidly-occupied
    range is used, so the finite-difference residual sees the front rather
    than bin-level roughness.
    """
    if sign not in ("lower", "upper"):
        raise CertificationError("sign must be 'lower' or 'upper'")
    _, candidate = _sandwich_corrector(
        model, disp, profile, delta,
        psi_pair or principal_eig_coupled(model, at="one"))
    return candidate(sign, sigma, s0)


# ---------------------------------------------------------------------------
# seeding the sandwich against a simulated solution


def find_sandwich_seed(model, disp, profile, traj, delta: float):
    """Search a small (t_c, sigma) grid for a pair whose lower and upper
    sandwich evaluators bracket the simulated solution at t_c.

    The anchoring shift s0 is fitted per t_c by matching the half-level
    position of the first component.  Every pair is assembled from one
    corrector.  Returns (t_c, sigma, s0, lower, upper) for the first
    bracketing pair; raises if none brackets, without deciding whether the
    data or the search range is at fault.
    """
    window = traj.window
    n = model.cell.n
    inner = slice(SEED_MARGIN_CELLS * n, window.npts - SEED_MARGIN_CELLS * n)
    x_in = window.x[inner]
    beta, candidate = _sandwich_corrector(
        model, disp, profile, delta, principal_eig_coupled(model, at="one"))

    snap = {round(t, 9): u for t, u in zip(traj.times, traj.snapshots)}
    for t_c in SEED_TIMES:
        u_tc = snap.get(round(t_c, 9))
        if u_tc is None:
            continue
        # phase of the simulated front at t_c, in profile coordinates
        pos = front_position(u_tc[0], window.x, 0.5)
        s0 = -(profile.c * t_c - pos)
        for fac in SEED_SIGMA_FACTORS:
            sigma = fac / beta
            lower = candidate("lower", sigma, s0)
            upper = candidate("upper", sigma, s0)
            lo = lower.evaluator(t_c, x_in)
            hi = upper.evaluator(t_c, x_in)
            if float((lo - u_tc[:, inner]).max()) <= 0.0 \
                    and float((u_tc[:, inner] - hi).max()) <= 0.0:
                return t_c, sigma, s0, lower, upper
    raise CertificationError(
        "no (t_c, sigma) pair bracketed the solution on the search grid; "
        "either the profile is too rough, delta too large, or the grid "
        "too small")


# ---------------------------------------------------------------------------
# residual verification


def _lattice_margins(model, cand: CandidateSolution) -> tuple:
    """Per-component worst normalized residual margin of cand over the
    (t, x) lattice sweeping its s-region (>= 0 means the inequality of its
    sense holds), with the (component, t, x, residual) witness of the
    worst."""
    cell = model.cell
    h = cell.h
    reg_lo, reg_hi = cand.s_region
    c = cand.params["c"]
    # a subsolution's margin is -N, a supersolution's N
    flip = -1.0 if cand.sense == "sub" else 1.0
    worst = np.full(model.m, np.inf)
    wit = None
    for t in np.linspace(max(T_REGION[0], 2 * DT_FD), T_REGION[1],
                         T_SAMPLES):
        # x so that s = c t - x sweeps the region, padded one node
        x_lo = c * t - reg_hi
        x_hi = c * t - reg_lo
        j0 = math.floor(x_lo / h) - 1
        j1 = math.ceil(x_hi / h) + 1
        x = np.arange(j0, j1 + 1) * h
        x, idx = _nodes(x, cell)
        u = cand.evaluator(t, x)
        if cand.dudt_evaluator is not None:
            dudt = cand.dudt_evaluator(t, x)
        else:
            up = cand.evaluator(t + DT_FD, x)
            um = cand.evaluator(t - DT_FD, x)
            dudt = (up - um) / (2.0 * DT_FD)
        lap = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / h**2
        grad = (u[:, 2:] - u[:, :-2]) / (2.0 * h)
        inner = slice(1, -1)
        f = model.F(u[:, inner], idx[inner])
        N = (dudt[:, inner]
             - model.d[:, idx[inner]] * lap
             - model.q[:, idx[inner]] * grad
             - f)
        Nhat = N / cand.scale(c * t - x[inner])[None, :]
        signed = flip * Nhat
        marg = signed.min(axis=1)
        for i in range(model.m):
            if marg[i] < worst[i]:
                worst[i] = marg[i]
                jbad = int(np.argmin(signed[i]))
                wit = (i + 1, float(t), float(x[inner][jbad]),
                       float(Nhat[i, jbad]))
    return worst, wit


def residual_sign_check(model, cand: CandidateSolution) -> CertReport:
    """Finite-difference check of the differential inequality on a (t, x)
    lattice covering the candidate's s-region.

    The residual is normalized by the candidate's amplitude scale; the
    pass/fail allowance is C_ALLOW*(h**2 + DT_FD**2) plus, for
    profile-backed candidates, the measured residual of the bare profile
    over the same lattice.
    """
    s_lo, s_hi = cand.s_region
    if s_hi <= s_lo:
        raise CertificationError("empty region")
    margins, witness = _lattice_margins(model, cand)

    profile_defect = 0.0
    if cand.bare is not None:
        bare_m, _ = _lattice_margins(model, cand.bare)
        profile_defect = float(np.max(np.abs(bare_m)))

    allowance = C_ALLOW * (model.cell.h**2 + DT_FD**2) + profile_defect
    b_ok = all(b.margin >= -allowance for b in cand.constraints)
    verdict = bool(margins.min() >= -allowance and b_ok)
    if not b_ok and witness is None:
        witness = [b.name for b in cand.constraints if b.margin < -allowance]
    return CertReport(kind=cand.kind, params=cand.params, margins=margins,
                      boundary=list(cand.constraints), allowance=allowance,
                      verdict=verdict, witness=witness,
                      profile_defect=profile_defect)


# ---------------------------------------------------------------------------
# near-one Jacobian variation radius


def _row_variation(model, J1: np.ndarray, i: int, rho: float) -> float:
    """max over nodes and the VARRHO_SAMPLES-point lattice of the box
    [(1-rho), (1+rho)] of sum_k |J_ik(u) - J1_ik|.

    The lattice spans row_reads(i) alone, the others held at 1."""
    pts = np.linspace(1.0 - rho, 1.0 + rho, VARRHO_SAMPLES)
    u, xidx = dependency_lattice(model.row_reads(i), pts, model.m,
                                 model.cell.n, fill=1.0)
    tot = np.abs(model.jacobian_row(i, u, xidx) - J1[i][:, xidx]).sum(axis=0)
    return float(tot.max())


def compute_varrho(model, mu_minus: float, psi: np.ndarray) -> tuple:
    """Per-component radius rho_i such that the Jacobian rows vary from
    their value at 1 by at most alpha* |mu-| / 2 over the box
    [(1-rho) 1, (1+rho) 1]; returns (list of rho_i, min capped at 1)."""
    if mu_minus >= 0.0:
        raise CertificationError("needs a negative coupled eigenvalue")
    alpha_star = float(psi.min() / psi.max())
    bound = alpha_star * abs(mu_minus) / 2.0
    n = model.cell.n
    J1 = model.jacobian(np.ones((model.m, n)), np.arange(n))

    rhos = []
    for i in range(model.m):
        if _row_variation(model, J1, i, 0.0) > bound:
            raise CertificationError(
                "Jacobian variation positive already at rho = 0 "
                "(numerical inconsistency)")
        if _row_variation(model, J1, i, 1.0) <= bound:
            rhos.append(1.0)
            continue
        rhos.append(bisect(lambda rho: _row_variation(model, J1, i, rho)
                           <= bound, 0.0, 1.0, 60)[0])
    return rhos, min(1.0, min(rhos))
