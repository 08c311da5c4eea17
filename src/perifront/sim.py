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
guard band 10 cells from the downwind edge, naming the window width that
would fit the run.

A run given a CSV path streams each stored snapshot to a writer process,
which formats the CSV while the run steps (in-process after the run where
the fork start method is missing).  The writer is a process, not a
thread, because the '%' formatting of a block holds the GIL: a writer
thread fed through a queue stalls the stepping instead of overlapping it.
Measured on a shared 2-core Linux host, two in-process `perifront
simulate` calls (the simulate_cli benchmark's iteration) took medians of
7.77, 7.80 and 8.54 s with a thread writer against 5.08, 5.22 and 5.40 s
with the forked writer, over 3 alternating rounds of 3 iterations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import multiprocessing
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import FrontError, PerifrontError
from .grid import CellGrid, OperatorSpec, assemble_tilted_operator
from .dispersion import Dispersion
from .models import PolyH

__all__ = [
    "WindowGrid",
    "SimState",
    "StepperConfig",
    "Trajectory",
    "Stepper",
    "build_initial_front_like",
    "run",
]

TOL_BOX = 1e-8         # roundoff allowed outside the box [0, 1]
GUARD_CELLS = 10       # width of the downwind guard band
GUARD_LEVEL = 0.5      # and the level u_1 may not pass inside it
MIN_WINDOW_CELLS = 20  # the narrowest window WindowGrid accepts
EPS0_MAX = 0.5         # build_initial_front_like takes eps0 in (0, EPS0_MAX)
CSV_BLOCK_ROWS = 2048
NO_SNAPSHOTS = ("trajectory holds no snapshots, so there is no CSV to "
                "write: a run stores none when store_from > T")


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


def _write_snapshot_csv(path, x, m: int, snapshots) -> None:
    """The snapshot CSV of the window nodes x for an iterable of (t, u)
    with u of shape (m, len(x)); x is formatted once, t once per
    snapshot."""
    cols = ", ".join(f"u_{i + 1}" for i in range(m))
    xs = ["%.17g, " % v for v in x.tolist()]
    with open(path, "w") as fh:
        fh.write(f"# t, x, {cols}\n")
        for t, u in snapshots:
            _write_rows(fh, u.T, "%.17g, " % t, xs)


def _csv_writer(inbox, outbox, path, x, m: int) -> None:
    """Writer process: formats the (t, u) received until None."""
    outbox.close()
    with inbox:
        try:
            _write_snapshot_csv(path, x, m, iter(inbox.recv, None))
        except EOFError:        # the run failed and closed the pipe
            sys.exit(1)
        except OSError as exc:  # one stderr line, exit code 1
            sys.exit(f"snapshot writer: {exc}")


@contextlib.contextmanager
def _snapshot_stream(path, x, m: int):
    """Yield send((t, u)), which passes a snapshot to a forked writer
    process that writes the CSV at path.  The writer is joined on exit;
    on any failure the partial file is removed, and a writer that failed
    raises OSError."""
    ctx = multiprocessing.get_context("fork")
    inbox, outbox = ctx.Pipe(duplex=False)
    writer = ctx.Process(target=_csv_writer,
                         args=(inbox, outbox, path, x, m))
    writer.start()
    inbox.close()
    try:
        try:
            yield outbox.send
            outbox.send(None)
        except BrokenPipeError:
            pass                # the writer died: its exit code says so
        finally:
            outbox.close()
            writer.join()
            code = writer.exitcode
            writer.close()
        if code != 0:
            raise OSError(f"snapshot writer exited with code {code}: "
                          f"{path} not written")
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


@dataclass(frozen=True)
class WindowGrid:
    """[x_lo, x_hi] with the cell's spacing; both bounds multiples of L."""

    cell: "CellGrid"
    width_cells: int
    x_lo: float = 0.0

    def __post_init__(self):
        if self.width_cells < MIN_WINDOW_CELLS:
            raise PerifrontError(f"window must span >= {MIN_WINDOW_CELLS} "
                                 f"cells, got {self.width_cells}")
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

    def validate_against(self, model) -> None:
        if not self.snapshot_dt > 0.0:
            raise PerifrontError(
                f"snapshot_dt = {self.snapshot_dt:.4g} must be positive")
        for name in ("left_value", "right_value"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:      # NaN fails it too
                raise PerifrontError(
                    f"{name} = {value:.4g} must be a finite number in the "
                    "box [0, 1]")
        lip = model.reaction_lipschitz()
        dt_max = 0.5 / max(lip, 1e-300)
        if not 0.0 < self.dt <= dt_max:
            raise PerifrontError(
                f"dt = {self.dt:.4g} must be positive and at most the "
                f"explicit-reaction bound 0.5/max|dF_i/du_i| = {dt_max:.4g}")


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
        if not self.snapshots:
            raise PerifrontError(NO_SNAPSHOTS)
        _write_snapshot_csv(path, self.window.x, self.m,
                            zip(self.times, self.snapshots))


def _on_window(field, xidx: np.ndarray):
    """A coefficient field (trailing axis: cell nodes; None passes through)
    on the window nodes with cell-node indices xidx: gathered, or kept on
    a trailing length-1 axis when every node holds node 0's bits, so that
    it broadcasts."""
    if field is None:
        return None
    field = np.asarray(field)
    first = field[..., :1]
    if ((field == first) & (np.signbit(field) == np.signbit(first))).all():
        return first
    return field[..., xidx]


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
        # the reaction coefficients put on the window once, so that each
        # step evaluates F(u, slice(None)) without re-gathering them:
        # constant fields stay length-1 and broadcast, the others are
        # gathered onto the window's nodes
        idx = self.xidx
        self._reaction = dataclasses.replace(
            model,
            h=[PolyH(_on_window(h.c, idx), _on_window(h.b, idx),
                     _on_window(h.Q, idx)) for h in model.h],
            couplings={ij: _on_window(a, idx)
                       for ij, a in model.couplings.items()})

    def _factor(self, i: int):
        model = self.model
        S = assemble_tilted_operator(OperatorSpec.of(
            model.cell, model.d[i], model.q[i])).implicit(self.cfg.dt)
        idx = self.xidx
        sub, main, sup = S.sub[idx], S.main[idx], S.sup[idx]
        # Dirichlet rows at both edges
        main[0] = 1.0; sup[0] = 0.0
        main[-1] = 1.0; sub[-1] = 0.0
        M = sp.diags([sub[1:], main, sup[:-1]], [-1, 0, 1], format="csc")
        return spla.splu(M)

    def step(self, state: SimState) -> SimState:
        cfg = self.cfg
        u = state.u
        # u + dt F(u), built in F's output array
        rhs = self._reaction.F(u, slice(None))
        rhs *= cfg.dt
        rhs += u
        rhs[:, 0] = cfg.left_value
        rhs[:, -1] = cfg.right_value
        if len(self._solves) == 1:     # one solve covers every component
            new = self._solves[0][1].solve(rhs.T).T
        else:
            new = np.empty_like(u)
            for comps, lu in self._solves:
                new[comps] = lu.solve(rhs[comps].T).T
        lo, hi = float(new.min()), float(new.max())
        # written so that a NaN fails it
        if not (lo >= -TOL_BOX and hi <= 1.0 + TOL_BOX):
            cause = ("dt too large for this reaction"
                     if math.isfinite(lo) and math.isfinite(hi)
                     else "the state holds a NaN or an infinity")
            raise PerifrontError(
                f"box invariance violated (min {lo:.3e}, max {hi:.3e}): "
                f"{cause}")
        return SimState(state.t + cfg.dt, new)

    def guard_triggered(self, state: SimState) -> bool:
        if self.cfg.right_value >= GUARD_LEVEL:
            return False           # not a front-tracking run
        gb = self.window.npts - GUARD_CELLS * self.model.cell.n
        return bool(state.u[0, gb:].max() > GUARD_LEVEL)


def build_initial_front_like(model, window: WindowGrid, c: float,
                             k: float = 1.0, eps0: float = 0.1,
                             disp=None) -> SimState:
    """Front-like initial data: componentwise min of the plateau (1 - eps0)
    and the decaying envelope k |x|^tau exp(-lam_c x) Phi_{lam_c}(x), with
    tau = 1 exactly at the critical speed (the class of data whose Cauchy
    solutions converge to a translate of the front).  |x|^tau is floored
    at 1 to avoid the spurious zero at the origin.  Runs are rightward:
    a leftward front is the rightward one of the model with x reflected."""
    if not (0.0 < eps0 < EPS0_MAX):
        raise PerifrontError(f"eps0 must lie in (0, {EPS0_MAX})")
    if k <= 0.0:
        raise PerifrontError("k must be positive")
    disp = disp or Dispersion(model)
    tau = disp.tau(c)
    lam_c = disp.lambda_c(c)
    phi = disp.cascade(lam_c).as_array()   # (m, n)
    x = window.x
    envelope = k * np.exp(-lam_c * x)[None, :] * phi[:, window.xidx]
    if tau == 1:
        envelope = envelope * np.maximum(1.0, np.abs(x))[None, :]
    u0 = np.minimum((1.0 - eps0), envelope)
    if float(envelope[:, -1].max()) > 1e-12:
        warnings.warn("window may be too short: initial envelope has not "
                      "decayed below 1e-12 at the right edge")
    return SimState(0.0, u0)


def run(model, state: SimState, window: WindowGrid, cfg: StepperConfig,
        T: float, store_from: float = 0.0, csv_path=None) -> Trajectory:
    """Integrate for time T, collecting snapshots at the configured cadence.

    Snapshots are stored only for t >= store_from (long runs can keep
    memory bounded).  With csv_path, the stored snapshots are also written
    there as the trajectory CSV (Trajectory.save_csv's bytes); a failed
    run, or one that stores no snapshot, raises and leaves no file.
    Deterministic: fixed step count, no adaptivity."""
    if T < 0.0:
        raise PerifrontError("T must be nonnegative")
    stepper = Stepper(model, window, cfg)
    traj = Trajectory(window)
    stream = (csv_path is not None
              and "fork" in multiprocessing.get_all_start_methods())
    sink = (_snapshot_stream(csv_path, window.x, state.u.shape[0])
            if stream else contextlib.nullcontext())
    nsteps = int(round(T / cfg.dt))
    snap_every = max(1, int(round(cfg.snapshot_dt / cfg.dt)))
    start = state
    with sink as send:
        def store(st):
            traj.append(st)
            if send is not None:
                send((st.t, st.u))

        if state.t >= store_from:
            store(state)
        for istep in range(1, nsteps + 1):
            state = stepper.step(state)
            if (istep % snap_every == 0 or istep == nsteps) \
                    and state.t >= store_from:
                store(state)
            if stepper.guard_triggered(state):
                cells = _window_fitting(stepper, start, state, T)
                raise FrontError(
                    f"front reached the guard band at t = {state.t:.4g}: "
                    f"enlarge the window to window_cells >= {cells} or "
                    "shorten the run", window_cells=cells)
        if csv_path is not None and not traj.snapshots:
            # raised inside the stream, which removes the writer's file
            raise PerifrontError(NO_SNAPSHOTS)
    if csv_path is not None and not stream:
        traj.save_csv(csv_path)
    return traj


def _window_fitting(stepper, start: SimState, state: SimState,
                    T: float) -> int:
    """Window width in cells that holds the run to time T: the leading
    guard-level crossing extrapolated linearly from start to state, with
    half as much room again for the travel (a pulled front still speeds
    up after its initial transient, so its mean speed so far is low),
    plus the guard band."""
    window = stepper.window

    def lead(u):
        above = np.nonzero(u[0] > GUARD_LEVEL)[0]
        return window.x[above[-1]] if len(above) else window.x_lo

    x0, x1 = lead(start.u), lead(state.u)
    x_end = x1 + (x1 - x0) / (state.t - start.t) * (T - state.t)
    travel = (x_end - window.x_lo) / window.cell.L
    return math.ceil(1.5 * travel) + GUARD_CELLS
