"""Front diagnostics: level-set positions and speeds, pulsating-profile
extraction by co-moving binning, tail-decay fits, shift fitting and
convergence metrics.

The co-moving coordinate is s = c t - x e (rightward runs, e = +1).  A
pulsating front is a function U(x, s), periodic in the cell variable and
nondecreasing in s; a trajectory sampled at many (t, x) pairs populates an
(x mod L, s) histogram whose bin averages reconstruct U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrontError
from .dispersion import golden_section_min

__all__ = [
    "FrontProfile",
    "FitResult",
    "ShiftResult",
    "front_position",
    "measure_speed",
    "extract_profile",
    "fit_decay",
    "shift_distance",
    "convergence_metric",
    "log_derivative_diagnostics",
    "component_ratio_bound",
]

SMOOTH_PASSES = 2      # binomial passes of FrontProfile.smoothed
SLOPE_SPAN = 4         # half-width in bins of FrontProfile.ds
ANCHOR_NODE = 0        # extract_profile anchors U_1(x_ANCHOR_NODE, 0) = 1/2
MAX_GAP_CELLS = 1.0    # and fills holes up to this many cells wide
CONVERGENCE_MARGIN_CELLS = 5   # window edge cells convergence_metric skips
DECAY_FLOOR = 1e-12    # fit_decay's smallest fitted tail value
MIN_DECADES = 3.0      # and the decades the fitted tail must span
LOG_DERIVATIVE_LEVEL = 1e-2    # left-tail level of log_derivative_diagnostics


def front_position(u: np.ndarray, x: np.ndarray, level: float) -> float:
    """Rightmost downward crossing of the level, linearly interpolated."""
    above = u >= level
    if not above.any() or above.all():
        raise FrontError(
            f"no crossing of level {level} (range [{u.min():.3g}, {u.max():.3g}])")
    idx = np.nonzero(above[:-1] & ~above[1:])[0]
    if len(idx) == 0:
        raise FrontError(f"no downward crossing of level {level}")
    j = int(idx[-1])
    frac = (u[j] - level) / (u[j] - u[j + 1])
    return float(x[j] + frac * (x[j + 1] - x[j]))


def measure_speed(traj, component: int, level: float, t_window):
    """Least-squares slope of front position versus time.

    Needs at least 20 snapshots inside the window; returns (c_est, stderr)
    where stderr is the standard error of the fitted slope.
    """
    t0, t1 = t_window
    ts, xs = [], []
    for t, u in zip(traj.times, traj.snapshots):
        if t0 <= t <= t1:
            ts.append(t)
            xs.append(front_position(u[component], traj.window.x, level))
    if len(ts) < 20:
        raise FrontError(f"only {len(ts)} snapshots in the fit window")
    ts = np.asarray(ts)
    xs = np.asarray(xs)
    A = np.stack([ts, np.ones_like(ts)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, xs, rcond=None)
    dof = max(len(ts) - 2, 1)
    resid = xs - A @ coef
    s2 = float(resid @ resid) / dof
    var_slope = s2 / float(((ts - ts.mean()) ** 2).sum())
    return float(coef[0]), math.sqrt(max(var_slope, 0.0))


@dataclass
class FrontProfile:
    """Reconstructed pulsating profile U on (cell node, s) bins."""

    c: float
    cell: object
    s: np.ndarray              # (ns,) bin centers, spacing h
    U: np.ndarray              # (m, n_cell, ns); NaN where unobserved
    occupancy: np.ndarray      # (n_cell, ns)
    monotonicity_defect: float
    s_solid: tuple = None      # s-range where every row met the threshold

    def __post_init__(self):
        if self.s_solid is None:
            self.s_solid = (float(self.s[0]), float(self.s[-1]))

    @property
    def m(self) -> int:
        return self.U.shape[0]

    def smoothed(self) -> "FrontProfile":
        """Binomially smoothed copy along s (kills bin-level roughness,
        O(h**2) bias); used by the profile-backed certification."""
        kernel = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
        U = self.U.copy()
        for _ in range(SMOOTH_PASSES):
            padded = np.pad(U, ((0, 0), (0, 0), (2, 2)), mode="edge")
            out = np.zeros_like(U)
            for k, w in enumerate(kernel):
                out += w * padded[:, :, k:k + U.shape[2]]
            U = out
        return FrontProfile(self.c, self.cell, self.s, U, self.occupancy,
                            self.monotonicity_defect, self.s_solid)

    @property
    def h_s(self) -> float:
        return float(self.s[1] - self.s[0])

    def eval(self, xidx: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Interpolate U at cell nodes xidx and co-moving positions s.

        Outside the represented range the profile is clamped to its limit
        states (0 left, 1 right).
        """
        xidx = np.asarray(xidx, dtype=int)
        s = np.asarray(s, dtype=float)
        pos = (s - self.s[0]) / self.h_s
        below = pos < 0.0
        above = pos > len(self.s) - 1
        kc = np.clip(np.floor(pos).astype(int), 0, len(self.s) - 2)
        frac = np.clip(pos - kc, 0.0, 1.0)
        # xidx and s are aligned 1-D arrays; gather per component
        out = np.empty((self.m, len(s)))
        for i in range(self.m):
            v0 = self.U[i, xidx, kc]
            v1 = self.U[i, xidx, kc + 1]
            out[i] = v0 * (1.0 - frac) + v1 * frac
        out[:, below] = 0.0
        out[:, above] = 1.0
        return out

    def ds(self, xidx: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Centered finite-difference slope along s over +-SLOPE_SPAN bins
        (the wide span averages out bin-level roughness)."""
        w = SLOPE_SPAN * self.h_s
        return (self.eval(xidx, s + w) - self.eval(xidx, s - w)) / (2.0 * w)

    def min_slope(self, s_lo: float, s_hi: float) -> np.ndarray:
        """Per-component infimum of the s-slope over [s_lo, s_hi]."""
        mask = (self.s >= s_lo) & (self.s <= s_hi)
        dU = np.gradient(self.U[:, :, mask], self.h_s, axis=2)
        return dU.reshape(self.m, -1).min(axis=1)


def extract_profile(traj, c: float, t_window=None, anchor: bool = True,
                    min_count: float = 5.0,
                    margin_cells: int = 3) -> FrontProfile:
    """Bin every trajectory sample into (x mod L, s = c t - x) cells and
    average.  The s-grid spacing equals the space step h; samples are
    distributed linearly over the two adjacent bins (hat kernel), which
    removes the rounding bias and tolerates snapshot cadences that are
    nearly commensurate with the bin lattice.

    Per cell row, bins below the occupancy threshold are filled by linear
    interpolation from their neighbors as long as the gap does not exceed
    MAX_GAP_CELLS cell lengths; wider holes abort the extraction.  With
    anchor=True the s-origin is shifted so U_1(x_{ANCHOR_NODE}, 0) = 1/2.

    Transient memory is O(bins), the (cell node, s) histogram; s is
    recomputed per snapshot.  The snapshots of t_window are still read
    from traj, so the caller keeps them stored until the call returns.
    """
    window = traj.window
    cell = window.cell
    n = cell.n
    h = cell.h
    # exclude the Dirichlet boundary layers from the statistics
    trim = slice(margin_cells * n, window.npts - margin_cells * n)
    xw = window.x[trim]
    xidx_w = window.xidx[trim]
    m = traj.snapshots[0].shape[0]

    if t_window is None:
        t_window = (traj.times[0], traj.times[-1])
    sel = [(t, u[:, trim]) for t, u in zip(traj.times, traj.snapshots)
           if t_window[0] <= t <= t_window[1]]
    if not sel:
        raise FrontError("no snapshots in the requested time window")

    # fl(c t - x) is monotone in x, so the window's end nodes carry every
    # snapshot's extreme s
    smin = min(c * t - float(xw[-1]) for t, _ in sel)
    smax = max(c * t - float(xw[0]) for t, _ in sel)
    k0 = math.floor(smin / h) - 1
    ns = math.ceil(smax / h) - k0 + 2
    sums = np.zeros((m, n, ns))
    counts = np.zeros((n, ns))
    for t, u in sel:
        pos = (c * t - xw) / h - k0
        kf = np.floor(pos).astype(int)
        wr = pos - kf
        for kk, ww in ((kf, 1.0 - wr), (kf + 1, wr)):
            flat = xidx_w * ns + kk
            np.add.at(counts.ravel(), flat, ww)
            for i in range(m):
                np.add.at(sums[i].ravel(), flat, ww * u[i])

    # a column is trusted when every cell row meets the occupancy threshold
    full = (counts >= min_count).all(axis=0)
    good = np.nonzero(full)[0]
    if len(good) < 8:
        raise FrontError("insufficient occupancy: too few full s-columns")
    lo, hi = int(good[0]), int(good[-1])

    occ = counts[:, lo:hi + 1].copy()
    del counts
    with np.errstate(invalid="ignore"):
        U = sums[:, :, lo:hi + 1] / np.maximum(occ, 1e-300)[None, :, :]
    del sums
    s_axis = (np.arange(lo, hi + 1) + k0) * h

    # trusted columns: no interpolation needed AND uniformly covered in
    # time (bins outside [c t1 - x_max, c t0 - x_min] aggregate partial
    # time windows, which leaves staircase artifacts in the averages)
    t0 = min(t for t, _ in sel)
    t1 = max(t for t, _ in sel)
    cov = (s_axis >= c * t1 - float(xw.max())) & \
          (s_axis <= c * t0 - float(xw.min()))
    solid = full[lo:hi + 1] & cov
    best_len, best_lo, cur_lo = 0, 0, None
    for k, flag in enumerate(np.concatenate([solid, [False]])):
        if flag and cur_lo is None:
            cur_lo = k
        elif not flag and cur_lo is not None:
            if k - cur_lo > best_len:
                best_len, best_lo = k - cur_lo, cur_lo
            cur_lo = None
    if best_len == 0:
        raise FrontError("no s-column is covered by the full time window")
    solid_rng = (best_lo, best_lo + best_len - 1)

    # fill undersampled interior bins per row by interpolation in s
    max_gap = MAX_GAP_CELLS * cell.L
    for r in range(n):
        ok = occ[r] >= min_count
        if ok.all():
            continue
        good_s = s_axis[ok]
        gaps = np.diff(good_s)
        if not ok[0] or not ok[-1] or (len(gaps) and gaps.max() > max_gap):
            raise FrontError(
                "insufficient occupancy: holes inside the s-grid exceed "
                f"{MAX_GAP_CELLS} cell length(s)")
        for i in range(m):
            U[i, r, ~ok] = np.interp(s_axis[~ok], good_s, U[i, r, ok])
        occ[r, ~ok] = 0.0

    incr = np.diff(U, axis=2)
    defect = float(max(0.0, -np.nanmin(incr)))

    if anchor:
        row = U[0, ANCHOR_NODE]
        above = row >= 0.5
        if not above.any() or above.all():
            raise FrontError("cannot anchor: U_1 does not cross 1/2")
        j = int(np.nonzero(~above[:-1] & above[1:])[0][0])
        frac = (0.5 - row[j]) / (row[j + 1] - row[j])
        s_half = s_axis[j] + frac * h
        s_axis = s_axis - s_half

    return FrontProfile(c=c, cell=cell, s=s_axis, U=U, occupancy=occ,
                        monotonicity_defect=defect,
                        s_solid=(float(s_axis[solid_rng[0]]),
                                 float(s_axis[solid_rng[1]])))


@dataclass(frozen=True)
class FitResult:
    component: int
    lambda_est: float
    rho_est: float
    tau_mode: int
    goodness: float
    decades: float


def fit_decay(profile: FrontProfile, phi, lam: float, tau_mode: int,
              tail_level: float = 1e-3):
    """Fit the tail of each component against |s|^tau exp(lam s) phi_i(x).

    Returns one FitResult per component: rho_est is the median of the
    pointwise ratio over the fit window, goodness its worst relative
    spread, and lambda_est an independent free-slope fit of
    log(U_i/phi_i) - tau log|s| versus s.
    """
    U = profile.U
    s = profile.s
    phi_arr = phi.as_array()
    top = np.nanmax(U[0], axis=0)
    mask = ((top <= tail_level) & (np.nanmin(U[0], axis=0) >= DECAY_FLOOR)
            & (s < 0))
    if mask.sum() < 8:
        raise FrontError("tail window too short for a decay fit")
    span = np.nanmax(U[0][:, mask]) / np.nanmin(U[0][:, mask])
    decades = math.log10(span)
    if decades < MIN_DECADES:
        raise FrontError(
            f"tail spans only {decades:.2f} decades (< {MIN_DECADES})")

    results = []
    smask = s[mask]
    weight = np.abs(smask) ** tau_mode * np.exp(lam * smask)
    for i in range(U.shape[0]):
        block = U[i][:, mask]
        r = block / (weight[None, :] * phi_arr[i][:, None])
        rho = float(np.nanmedian(r))
        goodness = float(np.nanmax(np.abs(r / rho - 1.0)))
        # free-slope exponential fit, pooled over cell nodes
        y = np.log(block / phi_arr[i][:, None])
        if tau_mode == 1:
            y = y - np.log(np.abs(smask))[None, :]
        xs = np.broadcast_to(smask, y.shape).ravel()
        ys = y.ravel()
        ok = np.isfinite(ys)
        A = np.stack([xs[ok], np.ones(ok.sum())], axis=1)
        coef, *_ = np.linalg.lstsq(A, ys[ok], rcond=None)
        results.append(FitResult(i, float(coef[0]), rho, tau_mode,
                                 goodness, decades))
    return results


@dataclass(frozen=True)
class ShiftResult:
    z0_est: float
    sup_dist: float
    z_pred: float | None = None


def _check_same_lattice(h_a: float, h_b: float) -> None:
    if abs(h_a - h_b) > 1e-9 * h_b:
        raise FrontError(
            f"s-spacings differ ({h_a:.17g} vs {h_b:.17g}): shifts need "
            "both sides on one lattice")


def _sup_dist_shifted(U: FrontProfile, V: FrontProfile, z: float) -> float:
    """sup |U(x, s + z) - V(x, s)| over V's s-range intersected with the
    shifted range of U.

    V.s and U.s share the spacing h, so every column of V lands at the
    same fractional bin position in U: one integer offset and one
    interpolation weight serve all rows and components (one stencil)."""
    s = V.s
    inside = np.nonzero((s + z >= U.s[0]) & (s + z <= U.s[-1]))[0]
    if len(inside) < 4:
        return np.inf
    ja, cnt = int(inside[0]), len(inside)
    pos = (s[ja] + z - U.s[0]) / U.h_s
    k = math.floor(pos)
    frac = pos - k
    # roundoff may put the first column a hair below U.s[0], or the last
    # a hair above U.s[-1]; those columns sit on the end nodes
    if k < 0:
        k, frac = 0, 0.0
    if frac > 0.0 and k + cnt >= len(U.s):
        frac = 0.0
    diff = U.U[:, :, k:k + cnt] * (1.0 - frac)
    if frac > 0.0:
        diff += U.U[:, :, k + 1:k + cnt + 1] * frac
    diff -= V.U[:, :, ja:ja + cnt]
    return float(np.nanmax(np.abs(diff, out=diff)))


def shift_distance(U: FrontProfile, V: FrontProfile, lam_c: float | None = None,
                   rho_U: float | None = None, rho_V: float | None = None,
                   bracket: float = 20.0) -> ShiftResult:
    """Best translation matching U(., . + z) to V, with the tail-amplitude
    prediction z_pred = log(rho_V/rho_U)/lam_c when the fits are supplied."""
    if abs(U.c - V.c) > 1e-9:
        raise FrontError("profiles extracted at different speeds")
    _check_same_lattice(U.h_s, V.h_s)
    zs = np.arange(-bracket, bracket + 1e-9, 4.0 * U.h_s)
    vals = [_sup_dist_shifted(U, V, z) for z in zs]
    zbest = zs[int(np.argmin(vals))]
    z0, dist = golden_section_min(
        lambda z: _sup_dist_shifted(U, V, z),
        zbest - 8.0 * U.h_s, zbest + 8.0 * U.h_s, tol=1e-6)
    z_pred = None
    if lam_c is not None and rho_U is not None and rho_V is not None:
        z_pred = math.log(rho_V / rho_U) / lam_c
    return ShiftResult(float(z0), float(dist), z_pred)


def _diagonal_table(profile: FrontProfile) -> np.ndarray:
    """Profile values laid out for window scans: entry [:, k + 2, r]
    belongs to cell row r at bin kc = k - r, so the window nodes q n + r of
    one cell read one contiguous row k = K - q n.

    Bins left of the profile hold 0 and bins right of it 1, the clamps of
    FrontProfile.eval.  With two leading rows of zeros and at least two
    trailing rows of ones in every column, a row index clipped to either
    end and the row after it read clamp values only."""
    m, n, ns = profile.U.shape
    tab = np.zeros((m, ns + n + 3, n))
    for r in range(n):
        a = r + 2                              # table index of kc = 0
        tab[:, a:a + ns, r] = profile.U[:, r, :]
        tab[:, a + ns:, r] = 1.0
    return tab


def convergence_metric(traj, profile: FrontProfile,
                       shift_bracket: float = 6.0):
    """Per-snapshot inf over shift of the sup distance to the reference
    profile evaluated in the co-moving frame.

    Returns (times, shifts, dists); the late-time limit of the shift series
    estimates the front's asymptotic phase.  Besides the snapshots it reads
    from traj, its transient memory is O(bins): one padded copy of the
    profile's U and the scan over 25 trial shifts of one snapshot.
    """
    window = traj.window
    n = window.cell.n
    margin = CONVERGENCE_MARGIN_CELLS * n
    c = profile.c
    h = profile.h_s
    ns = len(profile.s)
    _check_same_lattice(h, window.h)
    # window and profile share the h-lattice: node j = q n + r of the
    # scanned range sits at bin position A - j of row r, with A = (c t +
    # shift - x_0 - s_0)/h, so one weight per (snapshot, shift) serves
    # every node, and cell q reads table row floor(A) + 2 - q n
    nw = window.npts - 2 * margin
    q_n = np.arange(0, nw + n - 1, n)
    tab = _diagonal_table(profile)
    top = tab.shape[1] - 2
    x0 = float(window.x[margin])

    def dists(usub, t, zs):
        """sup distance for every shift in zs (one batched evaluation)."""
        A = (c * t - x0 + zs - profile.s[0]) / h
        K = np.floor(A)
        frac = A - K
        kc = K.astype(int)
        rows = np.clip(kc[:, None] + 2 - q_n, 0, top)
        # np.take keeps the (m, shifts, cells, n) result C-ordered
        pred = np.take(tab, rows, axis=1)
        pred *= (1.0 - frac)[:, None, None]
        nxt = np.take(tab, rows + 1, axis=1)
        nxt *= frac[:, None, None]
        pred += nxt
        del nxt
        # node j sits at bin kc - j; between nodes the interpolant leaves
        # the profile as 0 (1 - frac) + 0 frac at bin -1 and enters the
        # right clamp as 1 (1 - frac) + 1 frac at bin ns - 1, where the
        # table's neighbours hold U instead
        flat = pred.reshape(len(usub), len(zs), -1)
        for j, val in ((kc + 1, np.zeros_like(frac)),
                       (kc - ns + 1, (1.0 - frac) + frac)):
            hit = np.nonzero((j >= 0) & (j < nw))[0]
            flat[:, hit, j[hit]] = val[hit]
        on_node = frac == 0.0
        pred[:, on_node] = np.take(tab, rows[on_node], axis=1)
        flat = flat[:, :, :nw]
        flat -= usub[:, None, :]
        return np.abs(flat, out=flat).max(axis=(0, 2))

    times, shifts, dist_out = [], [], []
    shift_prev = 0.0
    for t, u in zip(traj.times, traj.snapshots):
        usub = u[:, margin:-margin]
        zs = shift_prev + np.linspace(-shift_bracket, shift_bracket, 25)
        zbest = zs[int(np.argmin(dists(usub, t, zs)))]
        z0, d0 = golden_section_min(
            lambda z: float(dists(usub, t, np.array([z]))[0]),
            zbest - 0.5, zbest + 0.5, tol=1e-6)
        times.append(t)
        shifts.append(float(z0))
        dist_out.append(float(d0))
        shift_prev = float(z0)
    return np.asarray(times), np.asarray(shifts), np.asarray(dist_out)


def log_derivative_diagnostics(profile: FrontProfile):
    """Min and max of the logarithmic s-derivative of each U_i over the
    left tail, where U_i <= LOG_DERIVATIVE_LEVEL at every node (positivity
    of both bounds is the front-steepness estimate).

    Columns holding a bin with U_i <= 0 have no logarithmic derivative and
    are left out."""
    U = profile.U
    s = profile.s
    h = profile.h_s
    out = []
    for i in range(profile.m):
        mask = np.nanmax(U[i], axis=0) <= LOG_DERIVATIVE_LEVEL
        cols = np.nonzero(mask)[0]
        cols = cols[(cols > 0) & (cols < len(s) - 1)]
        cols = cols[~(U[i][:, cols] <= 0.0).any(axis=0)]
        if len(cols) < 4:
            raise FrontError("left tail not resolved below the level")
        num = U[i][:, cols + 1] - U[i][:, cols - 1]
        logder = num / (2.0 * h * U[i][:, cols])
        out.append((float(np.nanmin(logder)), float(np.nanmax(logder))))
    return out


def component_ratio_bound(profile: FrontProfile) -> float:
    """K_c = sup over the represented range of U_1 / min_{i>=2} U_i."""
    if profile.m < 2:
        raise FrontError("needs at least two components")
    U = profile.U
    denom = np.nanmin(U[1:], axis=0)
    if np.nanmin(denom) <= 0.0:
        raise FrontError("a component vanishes on the represented range")
    return float(np.nanmax(U[0] / denom))
