"""Cauchy-problem integrator on a long window with cell-aligned spacing.

Time stepping is IMEX: transport-diffusion implicit (one banded solve per
distinct transport operator and step, factored once and shared, as one
multi-right-hand-side solve, by the components with equal d_i and q_i),
reaction explicit.  Under the explicit step bound dt <= 0.5/max|dF_i/du_i|
the update map is monotone, so the scheme inherits the comparison
principle and the invariance of the box [0, 1] up to roundoff; both are
exercised by the test suite rather than assumed.

Window edges are Dirichlet-clamped to the limiting states (1 on the
upwind side, 0 downwind); runs abort when the tracked front reaches the
guard band 10 cells from the downwind edge.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FrontError, PerifrontError
from .grid import CellGrid, OperatorSpec, PeriodicField, assemble_tilted_operator
from .models import PolyH

__all__ = [
    "WindowGrid",
    "SimState",
    "StepperConfig",
    "Trajectory",
    "Stepper",
    "build_initial_front_like",
    "run",
    "write_binary",
    "read_binary",
]

TOL_BOX = 1e-8
MAGIC = b"PFRT1"
CSV_BLOCK_ROWS = 2048


def _write_rows(fh, values, prefix="", labels=None) -> None:
    """Write row j of the 2-D array values as prefix, then labels[j] when
    labels are given, then its '%.17g' fields joined by ', ' (the bytes of
    an f"{v:.17g}" per value).  One %-format call per block of
    CSV_BLOCK_ROWS rows keeps the formatted text bounded."""
    values = np.asarray(values, dtype=float)
    fields = ", ".join(["%.17g"] * values.shape[1]) + "\n"
    for j in range(0, len(values), CSV_BLOCK_ROWS):
        block = values[j:j + CSV_BLOCK_ROWS]
        if labels is None:
            template = (prefix + fields) * len(block)
        else:
            template = "".join([prefix + label + fields
                                for label in labels[j:j + CSV_BLOCK_ROWS]])
        fh.write(template % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class WindowGrid:
    """[x_lo, x_hi] with the cell's spacing; both bounds multiples of L."""

    cell: "CellGrid"
    width_cells: int
    x_lo: float = 0.0

    def __post_init__(self):
        if self.width_cells < 20:
            raise PerifrontError(
                f"window must span >= 20 cells, got {self.width_cells}")
        ratio = self.x_lo / self.cell.L
        if abs(ratio - round(ratio)) > 1e-12:
            raise PerifrontError("x_lo must be a multiple of the cell length")

    @property
    def h(self) -> float:
        return self.cell.h

    @property
    def npts(self) -> int:
        return self.width_cells * self.cell.n + 1

    @property
    def x(self) -> np.ndarray:
        return self.x_lo + np.arange(self.npts) * self.h

    @property
    def x_hi(self) -> float:
        return self.x_lo + self.width_cells * self.cell.L

    @property
    def xidx(self) -> np.ndarray:
        """Cell-node index of every window node."""
        return np.arange(self.npts) % self.cell.n


@dataclass
class SimState:
    t: float
    u: np.ndarray              # (m, npts)

    def copy(self) -> "SimState":
        return SimState(self.t, self.u.copy())


@dataclass
class StepperConfig:
    dt: float = 0.01
    snapshot_dt: float = 0.5
    left_value: float = 1.0
    right_value: float = 0.0
    guard_cells: int = 10
    guard_level: float = 0.5     # front-position guard level
    box_tol: float = TOL_BOX

    def validate_against(self, model) -> None:
        lip = model.reaction_lipschitz()
        dt_max = 0.5 / max(lip, 1e-300)
        if self.dt > dt_max:
            raise PerifrontError(
                f"dt = {self.dt:.4g} above the explicit-reaction bound "
                f"0.5/max|dF_i/du_i| = {dt_max:.4g}")


@dataclass
class Trajectory:
    window: WindowGrid
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)

    def append(self, state: SimState) -> None:
        self.times.append(state.t)
        self.snapshots.append(state.u.copy())

    @property
    def m(self) -> int:
        return self.snapshots[0].shape[0]

    def save_csv(self, path) -> None:
        cols = ", ".join(f"u_{i + 1}" for i in range(self.m))
        # x is formatted once per call, t once per snapshot
        xs = ["%.17g, " % x for x in self.window.x.tolist()]
        with open(path, "w") as fh:
            fh.write(f"# t, x, {cols}\n")
            for t, u in zip(self.times, self.snapshots):
                _write_rows(fh, u.T, "%.17g, " % t, xs)


def write_binary(traj: Trajectory, path) -> None:
    """Compact dump: magic 'PFRT1'; little-endian uint32 m, n_window,
    n_snapshots; float64 x_lo, h; the snapshot times; then the snapshot
    payload ordered (snapshot, component, node), all float64."""
    m = traj.m
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", m, traj.window.npts, len(traj.times)))
        fh.write(struct.pack("<dd", traj.window.x_lo, traj.window.h))
        np.asarray(traj.times, dtype="<f8").tofile(fh)
        for u in traj.snapshots:
            u.astype("<f8").tofile(fh)


def read_binary(path):
    with open(path, "rb") as fh:
        if fh.read(5) != MAGIC:
            raise PerifrontError("not a PFRT1 dump")
        m, npts, nsnap = struct.unpack("<III", fh.read(12))
        x_lo, h = struct.unpack("<dd", fh.read(16))
        times = np.fromfile(fh, dtype="<f8", count=nsnap)
        data = np.fromfile(fh, dtype="<f8", count=nsnap * m * npts)
    return times, data.reshape(nsnap, m, npts), x_lo, h


class Stepper:
    """IMEX stepper with one factored implicit solve per distinct transport
    operator (d_i, q_i), shared by every component that has it."""

    def __init__(self, model, window: WindowGrid, cfg: StepperConfig):
        cfg.validate_against(model)
        self.model = model
        self.window = window
        self.cfg = cfg
        self.xidx = window.xidx
        groups = {}
        for i in range(model.m):
            key = (model.d[i].tobytes(), model.q[i].tobytes())
            groups.setdefault(key, []).append(i)
        # (components, factorization); a run of consecutive components is
        # indexed by a slice, so its right-hand sides are not copied
        self._solves = []
        for comps in groups.values():
            lo, hi = comps[0], comps[-1] + 1
            index = slice(lo, hi) if comps == list(range(lo, hi)) else comps
            self._solves.append((index, self._factor(lo)))
        # the reaction coefficients gathered onto the window once, so that
        # each step evaluates F(u, slice(None)) without re-gathering them
        idx = self.xidx
        self._reaction = dataclasses.replace(
            model,
            h=[PolyH(h.c[idx], h.b[:, idx],
                     None if h.Q is None else h.Q[:, :, idx])
               for h in model.h],
            couplings={ij: np.asarray(a)[idx]
                       for ij, a in model.couplings.items()})

    def _factor(self, i: int):
        model, window, dt = self.model, self.window, self.cfg.dt
        cell = model.cell
        A = assemble_tilted_operator(OperatorSpec(
            d=PeriodicField(cell, model.d[i]),
            q=PeriodicField(cell, model.q[i]),
            eta=PeriodicField(cell, np.zeros(cell.n)), lam=0.0, e=1))
        idx = self.xidx
        N = window.npts
        sub = -dt * A.sub[idx]
        main = 1.0 - dt * A.main[idx]
        sup = -dt * A.sup[idx]
        # Dirichlet rows at both edges
        main[0] = 1.0; sup[0] = 0.0
        main[-1] = 1.0; sub[-1] = 0.0
        M = sp.diags([sub[1:], main, sup[:-1]], [-1, 0, 1], format="csc")
        return spla.splu(M)

    def step(self, state: SimState) -> SimState:
        cfg = self.cfg
        u = state.u
        rhs = u + cfg.dt * self._reaction.F(u, slice(None))
        rhs[:, 0] = cfg.left_value
        rhs[:, -1] = cfg.right_value
        new = np.empty_like(u)
        for comps, lu in self._solves:
            new[comps] = lu.solve(rhs[comps].T).T
        lo, hi = float(new.min()), float(new.max())
        if lo < -cfg.box_tol or hi > 1.0 + cfg.box_tol:
            raise PerifrontError(
                f"box invariance violated (min {lo:.3e}, max {hi:.3e}): "
                "dt too large for this reaction")
        return SimState(state.t + cfg.dt, new)

    def guard_triggered(self, state: SimState) -> bool:
        if self.cfg.right_value >= self.cfg.guard_level:
            return False           # not a front-tracking run
        gb = self.window.npts - self.cfg.guard_cells * self.model.cell.n
        return bool(np.any(state.u[0, gb:] > self.cfg.guard_level))


def build_initial_front_like(model, window: WindowGrid, c: float,
                             k: float = 1.0, eps0: float = 0.1,
                             disp=None, e: int = 1) -> SimState:
    """Front-like initial data: componentwise min of the plateau (1 - eps0)
    and the decaying envelope k |x e|^tau exp(-lam_c x e) Phi_{lam_c}(x),
    with tau = 1 exactly at the critical speed (the class of data whose
    Cauchy solutions converge to a translate of the front).  |x e|^tau is
    floored at 1 to avoid the spurious zero at the origin."""
    from .dispersion import Dispersion

    if not (0.0 < eps0 < 0.5):
        raise PerifrontError("eps0 must lie in (0, 1/2)")
    if k <= 0.0:
        raise PerifrontError("k must be positive")
    if e != 1:
        raise PerifrontError(
            "leftward runs are normalized away: flip the direction e in the "
            "spectral modules instead of simulating c < 0")
    disp = disp or Dispersion(model, e=e)
    c0, _ = disp.critical_speed()
    if c < c0 - 1e-12:
        raise PerifrontError(f"c = {c} below critical speed {c0}")
    tau = 1 if abs(c - c0) <= 1e-10 else 0
    lam_c = disp.lambda_c(c)
    phi = disp.cascade(lam_c).as_array()   # (m, n)
    x = window.x
    envelope = k * np.exp(-lam_c * x)[None, :] * phi[:, window.xidx]
    if tau == 1:
        envelope = envelope * np.maximum(1.0, np.abs(x))[None, :]
    u0 = np.minimum((1.0 - eps0), envelope)
    if float(envelope[:, -1].max()) > 1e-12:
        import warnings
        warnings.warn("window may be too short: initial envelope has not "
                      "decayed below 1e-12 at the right edge")
    return SimState(0.0, u0)


def run(model, state: SimState, window: WindowGrid, cfg: StepperConfig,
        T: float, store_from: float = 0.0) -> Trajectory:
    """Integrate for time T, collecting snapshots at the configured cadence.

    Snapshots are stored only for t >= store_from (long runs can keep
    memory bounded).  Deterministic: fixed step count, no adaptivity."""
    if T < 0.0:
        raise PerifrontError("T must be nonnegative")
    stepper = Stepper(model, window, cfg)
    traj = Trajectory(window)
    if state.t >= store_from:
        traj.append(state)
    nsteps = int(round(T / cfg.dt))
    snap_every = max(1, int(round(cfg.snapshot_dt / cfg.dt)))
    for istep in range(1, nsteps + 1):
        state = stepper.step(state)
        if (istep % snap_every == 0 or istep == nsteps) \
                and state.t >= store_from:
            traj.append(state)
        if stepper.guard_triggered(state):
            raise FrontError(
                f"front reached the guard band at t = {state.t:.4g}: "
                "enlarge the window or shorten the run")
    return traj
