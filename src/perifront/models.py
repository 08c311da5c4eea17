"""Cooperative reaction models in triangular form, the competition-to-
cooperative change of variables, and automated hypothesis checks.

A model has m components with reaction terms

    f_1 = u_1 h_1(x, u),
    f_i = sum_{j<i} a_ij(x) u_j + u_i h_i(x, u),   i >= 2,

where each h_i is an (at most quadratic) polynomial in u with L-periodic
coefficient fields.  The triangular structure is what lets the vector
eigenfunctions be built one component at a time, and the cooperativity of
the off-diagonal Jacobian is what powers every comparison argument.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridError, PerifrontError
from .grid import (BandedMatrix, CellGrid, OperatorSpec, PeriodicField,
                   assemble_tilted_operator, first_derivative, make_cell_grid)
from .eigen import principal_eig_scalar, principal_eig_coupled
from .dispersion import Dispersion, boundary_speeds_A6

__all__ = [
    "PolyH",
    "ReactionModel",
    "CompetitionSpec",
    "TransformedCompetition",
    "HypothesisReport",
    "check_hypotheses",
    "competition_steady_states",
    "competition_to_cooperative",
    "inverse_transform",
    "check_competition_assumptions",
    "make_model",
    "make_competition_spec",
]


DU_SAMPLES = 3     # lattice points per component for |dh/du| (affine in u)
BOX_SAMPLES = 5    # and on [0, 1] for reaction_lipschitz and H3
STEADY_RATE_TOL = 1e-10   # steady-state iteration stops at max |u_t| <= this


def dependency_lattice(deps, pts, m: int, n: int, fill: float = 0.0):
    """Every corner of the pts-lattice over the components deps, each
    repeated over the n cell nodes, the other components held at fill.

    Returns u: (m, len(pts)**len(deps) * n) and the matching xidx.  A
    quantity that reads only the components deps takes over these columns
    the same values as over the full len(pts)**m lattice."""
    corners = np.array(list(itertools.product(pts, repeat=len(deps))))
    u = np.full((m, len(corners) * n), fill)
    u[deps] = np.repeat(corners.T, n, axis=1)
    return u, np.tile(np.arange(n), len(corners))


@dataclass(frozen=True)
class PolyH:
    """One per-capita growth rate h_i(x, u), polynomial of degree <= 2 in u.

    c: (n,) constant part; b: (m, n) linear part; Q: (m, m, n) quadratic
    part (may be None), contributing u^T Q(x) u.  The Stepper builds its
    window copy with the trailing node axis of each of c, b and Q either
    gathered onto the window's nodes or, for a field constant over the
    cell, of length 1, so that it broadcasts.
    """

    c: np.ndarray
    b: np.ndarray
    Q: np.ndarray | None = None
    # rows k with a nonzero b[k] at some node, ascending
    _rows: tuple = field(init=False, repr=False, compare=False)
    # (k, l) pairs with a nonzero Q[k, l] at some node, row-major
    _pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.nonzero((self.b != 0.0).any(axis=1))[0]
        object.__setattr__(self, "_rows", tuple(int(k) for k in rows))
        nz = [] if self.Q is None else np.argwhere((self.Q != 0.0).any(axis=2))
        object.__setattr__(self, "_pairs",
                           tuple((int(k), int(l)) for k, l in nz))

    @property
    def reads(self) -> set:
        """The components k of u that h reads: nonzero rows of b and the
        components of nonzero pairs of Q."""
        return set(self._rows).union(*self._pairs)

    def __call__(self, u: np.ndarray, xidx) -> np.ndarray:
        """u: (m, npts), xidx: (npts,) cell-node indices -> (npts,); pass
        slice(None) when the coefficients are already on u's nodes
        (gathered, or of length 1 where constant).  The linear and
        quadratic parts sum over the nonzero rows of b and the nonzero
        pairs of Q only, each in the dense einsum's order (the linear sum
        is formed before c is added), so the result is the same; the sums
        accumulate in place into a fresh array."""
        if self._rows:
            k, *rest = self._rows
            out = self.b[k, xidx] * u[k]
            for k in rest:
                out += self.b[k, xidx] * u[k]
            np.add(self.c[xidx], out, out=out)
        else:
            out = np.broadcast_to(self.c[xidx], u.shape[1:]).copy()
        if self._pairs:
            (k, l), *rest = self._pairs
            quad = u[k] * self.Q[k, l, xidx]
            quad *= u[l]
            for k, l in rest:
                term = u[k] * self.Q[k, l, xidx]
                term *= u[l]
                quad += term
            out += quad
        return out

    def du(self, k: int, u: np.ndarray, xidx: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(self.b[k, xidx], u.shape[1:]).copy()
        if self.Q is not None:
            Qs = self.Q[k, :, :][:, xidx] + self.Q[:, k, :][:, xidx]
            out += np.einsum("lp,lp->p", Qs, u)
        return out

    def max_abs_du(self, box_lo: float, box_hi: float) -> float:
        """max over all nodes, all k, and a u-lattice of |dh/du_k|.

        The derivative is affine in u, so lattice corners realize the max;
        interior samples are kept for symmetry with the generic checks.
        dh/du_k = b[k] + sum_l (Q[k, l] + Q[l, k]) u_l reads only the
        components l of a nonzero Q pair with k, so the lattice for k spans
        those alone.
        """
        m, n = self.b.shape
        pts = np.linspace(box_lo, box_hi, DU_SAMPLES)
        best = 0.0
        for k in range(m):
            deps = sorted({l for j, l in self._pairs if j == k}
                          | {j for j, l in self._pairs if l == k})
            u, xidx = dependency_lattice(deps, pts, m, n)
            best = max(best, float(np.max(np.abs(self.du(k, u, xidx)))))
        return best


@dataclass
class ReactionModel:
    """m-component cooperative reaction model on a periodicity cell."""

    cell: CellGrid
    d: np.ndarray              # (m, n) diffusion, > 0
    q: np.ndarray              # (m, n) drift
    couplings: dict            # (i, j) -> (n,) array a_ij, j < i, >= 0
    h: list                    # m PolyH evaluators
    name: str = "custom"

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        m, n = self.d.shape
        if n != self.cell.n or self.q.shape != (m, n) or len(self.h) != m:
            raise PerifrontError("inconsistent model field shapes")
        if m < 2:
            raise PerifrontError("need at least two components")
        if self.d.min() <= 0.0:
            raise PerifrontError("diffusion must be strictly positive")
        for (i, j), a in self.couplings.items():
            if not (0 <= j < i < m):
                raise PerifrontError(f"coupling index ({i},{j}) not lower-triangular")
            if np.asarray(a).min() < 0.0:
                raise PerifrontError(f"coupling a[{i},{j}] must be >= 0")

    @property
    def m(self) -> int:
        return self.d.shape[0]

    def coupling(self, i: int, j: int) -> np.ndarray | None:
        return self.couplings.get((i, j))

    def zeta(self, i: int) -> np.ndarray:
        """zeta_i(x) = h_i(x, 0), the linearized growth rate at zero."""
        return self.h[i].c

    def F(self, u: np.ndarray, xidx: np.ndarray) -> np.ndarray:
        """Reaction term; u: (m, npts) -> (m, npts)."""
        out = np.empty_like(u)
        for i in range(self.m):
            np.multiply(u[i], self.h[i](u, xidx), out=out[i])
            for j in range(i):
                a = self.coupling(i, j)
                if a is not None:
                    out[i] += a[xidx] * u[j]
        return out

    def jacobian(self, u: np.ndarray, xidx: np.ndarray) -> np.ndarray:
        """Pointwise Jacobian dF/du; returns (m, m, npts)."""
        return np.stack([self.jacobian_row(i, u, xidx)
                         for i in range(u.shape[0])])

    def jacobian_row(self, i: int, u: np.ndarray,
                     xidx: np.ndarray) -> np.ndarray:
        """Row i of the pointwise Jacobian, dF_i/du; returns (m, npts)."""
        m, npts = u.shape
        row = np.empty((m, npts))
        hi = self.h[i](u, xidx)
        for k in range(m):
            row[k] = u[i] * self.h[i].du(k, u, xidx)
            if k == i:
                row[k] += hi
            elif k < i:
                a = self.coupling(i, k)
                if a is not None:
                    row[k] += a[xidx]
        return row

    def row_reads(self, i: int) -> list:
        """The components row i of the Jacobian reads: u_i and the
        components with a nonzero b or Q entry in h_i (the couplings are
        constant), ascending."""
        return sorted({i} | self.h[i].reads)

    def reaction_lipschitz(self) -> float:
        """max |dF_i/du_i| over the box lattice; bounds the explicit step.

        dF_i/du_i = h_i + u_i dh_i/du_i, so row i samples the lattice over
        row_reads(i) alone."""
        pts = np.linspace(0.0, 1.0, BOX_SAMPLES)
        best = 0.0
        for i, hi in enumerate(self.h):
            u, xidx = dependency_lattice(self.row_reads(i), pts, self.m,
                                         self.cell.n)
            dii = u[i] * hi.du(i, u, xidx) + hi(u, xidx)
            best = max(best, float(np.max(np.abs(dii))))
        return best


# ---------------------------------------------------------------------------
# hypothesis reports


def json_native(obj):
    """obj with its tuples, lists and numpy arrays made nested lists and
    its numpy scalars Python ints, floats and bools, for json.dump."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [json_native(v) for v in obj]
    return obj


@dataclass
class HypothesisEntry:
    verdict: str               # "pass" | "fail" | "not-checkable"
    margin: float | None = None
    witness: object = None
    note: str = ""

    def as_dict(self):
        return {"verdict": self.verdict, "margin": self.margin,
                "witness": json_native(self.witness),
                "note": self.note}


@dataclass
class HypothesisReport:
    entries: dict = field(default_factory=dict)

    def add(self, name, verdict, margin=None, witness=None, note=""):
        if verdict == "fail" and witness is None:
            raise PerifrontError(f"fail entry {name} requires a witness")
        self.entries[name] = HypothesisEntry(verdict, margin, witness, note)

    def check(self, name, ok, margin, witness, note):
        """A pass entry if ok, else a fail entry; only a fail keeps the
        witness."""
        self.add(name, "pass" if ok else "fail", margin,
                 None if ok else witness, note)

    def __getitem__(self, name) -> HypothesisEntry:
        return self.entries[name]

    def ok(self, *names) -> bool:
        names = names or tuple(self.entries)
        return all(self.entries[n].verdict == "pass" for n in names
                   if self.entries[n].verdict != "not-checkable")

    def as_dict(self):
        return {k: v.as_dict() for k, v in self.entries.items()}

    def __str__(self):
        lines = []
        for k, v in sorted(self.entries.items()):
            margin = "" if v.margin is None else f"  margin={v.margin:+.6g}"
            lines.append(f"{k:>5}: {v.verdict}{margin}  {v.note}")
        return "\n".join(lines)


def _cooperativity(model: ReactionModel):
    """min over i != k, the nodes and the [0, 1] lattice of J_ik(u), with
    its witness (i, k, the lattice point u, node); row i samples the
    lattice over row_reads(i) alone."""
    pts = np.linspace(0.0, 1.0, BOX_SAMPLES)
    n = model.cell.n
    worst, wit = np.inf, None
    for i in range(model.m):
        u, xidx = dependency_lattice(model.row_reads(i), pts, model.m, n)
        row = model.jacobian_row(i, u, xidx)
        for k in range(model.m):
            if k == i:
                continue
            col = int(np.argmin(row[k]))
            if row[k, col] < worst:
                worst = float(row[k, col])
                wit = (i + 1, k + 1, tuple(np.round(u[:, col], 3)),
                       int(xidx[col]))
    return worst, wit


def check_hypotheses(model: ReactionModel,
                     run_h5_heuristic: bool = True) -> HypothesisReport:
    """Evaluate the structural and spectral standing assumptions.

    H1/H2/H3 are sampled pointwise, H4/H6/H8 go through the eigensolvers,
    H7 is tested along the critical linearized front on the region where
    its vector norm is at most one.  H5 is a global dynamical statement:
    reported not-checkable, with a cell-periodic relaxation run as
    heuristic evidence when requested.
    """
    rep = HypothesisReport()
    n = model.cell.n
    xidx = np.arange(n)
    m = model.m

    # H1: triangular structure is built in; check the sign conditions
    h1_wit = None
    for i in range(1, m):
        zi = model.zeta(i)
        if zi.max() >= 0.0:
            h1_wit = ("zeta", i + 1, int(np.argmax(zi)))
            break
        strict = [j for j in range(i)
                  if model.coupling(i, j) is not None
                  and model.coupling(i, j).min() > 0.0]
        if not strict:
            h1_wit = ("coupling-row", i + 1)
            break
    margin_h1 = min(
        (-model.zeta(i).max() for i in range(1, m)), default=None)
    rep.check("H1", h1_wit is None, margin_h1, h1_wit,
              "triangular form, zeta_i < 0 (i>=2), some a_ij > 0")

    # H2: F(x, 1) = 0
    ones = np.ones((m, n))
    f1 = model.F(ones, xidx)
    h2_margin = float(np.max(np.abs(f1)))
    rep.check("H2", h2_margin <= 1e-10, h2_margin,
              ("node", int(np.argmax(np.abs(f1).max(axis=0)))), "F(x, 1) = 0")

    # H3: cooperativity of the Jacobian on the box lattice
    worst, wit = _cooperativity(model)
    rep.check("H3", worst >= -1e-12, worst, wit,
              "off-diagonal Jacobian >= 0 on [0,1]^m lattice")

    disp = Dispersion(model)

    # H4: kappa_1(0) > 0
    k0 = disp.kappa(0, 0.0)
    rep.check("H4", k0 > 0.0, k0, ("kappa1(0)", k0), "kappa_1(0) > 0")

    h6_ok = False
    if k0 > 0.0:
        # H6: gap at the critical tilt
        try:
            _, lam0 = disp.critical_speed()
            gap = disp.spectral_gap(lam0)
            h6_ok = gap > 0.0
            rep.check("H6", h6_ok, gap, ("lam", lam0),
                      "kappa_1 > max_j kappa_j at lam_+0")
        except PerifrontError as exc:
            rep.add("H6", "fail", None, ("error", str(exc)))
    else:
        rep.add("H6", "not-checkable", note="needs H4")

    # H7 along the critical linearized front, sampled where |w| <= 1
    if k0 > 0.0 and h6_ok:       # H6 set lam0
        worst, wit = _h7_scan(model, disp.cascade(lam0).as_array(), lam0, 120)
        rep.check("H7", worst >= -1e-10, worst, wit,
                  "h_i(x, w_c) <= h_i(x, 0) along the critical front")
    else:
        rep.add("H7", "not-checkable", note="needs H4 and H6")

    # H8: coupled Perron at the upper state
    try:
        pair = principal_eig_coupled(model, at="one")
        mu = pair.value
        rep.check("H8", mu < 0.0, -mu, ("mu_minus", mu),
                  f"mu_minus = {mu:.6g} with positive eigenfunction")
    except PerifrontError as exc:
        rep.add("H8", "fail", None, ("error", str(exc)))

    # H5: global attraction of 1 over periodic data; asymptotic, so only
    # heuristic evidence from a cell-periodic relaxation run
    if run_h5_heuristic:
        dist, _ = _relax_on_cell(model, u0=0.5, T=80.0)
        rep.add("H5", "not-checkable", dist, None,
                f"heuristic: |u(T) - 1| = {dist:.2e} from homogeneous 0.5 start")
    else:
        rep.add("H5", "not-checkable", note="asymptotic statement")
    return rep


def _h7_scan(model: ReactionModel, arr: np.ndarray, lam: float,
             samples: int):
    """min over i, the nodes and samples points s of [s_hi - 20, s_hi] of
    h_i(x, 0) - h_i(x, w) along the mode w = e^{lam s} arr (m, n), where
    s_hi puts max_x sum_i w_i at 1; returns (min, witness (i, s, node))."""
    n = model.cell.n
    xidx = np.arange(n)
    h0 = np.stack([h(np.zeros((model.m, n)), xidx) for h in model.h])
    s_hi = -math.log(float(arr.sum(axis=0).max())) / lam
    worst, wit = np.inf, None
    for s in np.linspace(s_hi - 20.0, s_hi, samples):
        w = np.exp(lam * s) * arr
        diff = h0 - np.stack([h(w, xidx) for h in model.h])
        val = float(diff.min())
        if val < worst:
            worst = val
            i, j = np.unravel_index(np.argmin(diff), diff.shape)
            wit = (int(i) + 1, float(s), int(j))
    return worst, wit


def _cell_imex_step(cell: CellGrid, d: np.ndarray, q: np.ndarray,
                    dt: float):
    """The IMEX step on the periodic cell, step(u, Fu) = the rows
    (I - dt A_i)^{-1} (u_i + dt Fu_i), with A_i the untilted transport
    operator of (d_i, q_i) and each I - dt A_i factored once.

    d, q: (m, n); u, Fu: (m, n)."""
    factors = []
    for di, qi in zip(d, q):
        A = assemble_tilted_operator(OperatorSpec(
            d=PeriodicField(cell, di), q=PeriodicField(cell, qi),
            eta=PeriodicField(cell, np.zeros(cell.n)), lam=0.0, e=1))
        factors.append(BandedMatrix(
            -dt * A.sub, 1.0 - dt * A.main, -dt * A.sup).factor())

    def step(u: np.ndarray, Fu: np.ndarray) -> np.ndarray:
        new = np.empty_like(u)
        for i, S in enumerate(factors):
            new[i] = S.solve(u[i] + dt * Fu[i])
        return new
    return step


def _relax_on_cell(model: ReactionModel, u0, T: float, dt: float = 0.02):
    """Integrate the model with periodic BCs on one cell (IMEX, coarse);
    returns (max |u(T) - 1|, u(T))."""
    xidx = np.arange(model.cell.n)
    u = np.full((model.m, model.cell.n), float(u0)) if np.isscalar(u0) \
        else np.array(u0)
    step = _cell_imex_step(model.cell, model.d, model.q, dt)
    for _ in range(int(round(T / dt))):
        u = step(u, model.F(u, xidx))
    dist = float(np.abs(u - 1.0).max())
    return dist, u


# ---------------------------------------------------------------------------
# competition system


@dataclass
class CompetitionSpec:
    """Two-species competition data: growth b_i, self/cross inhibition a_ij,
    diffusion d_i and drift a_i, all L-periodic."""

    cell: CellGrid
    d1: np.ndarray
    d2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        for name in ("d1", "d2", "a1", "a2", "b1", "b2",
                     "a11", "a12", "a21", "a22"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self.cell.n,):
                raise PerifrontError(f"{name} has wrong shape")
            setattr(self, name, v)
        if self.d1.min() <= 0 or self.d2.min() <= 0:
            raise PerifrontError("diffusion floors violated")
        for name in ("a11", "a12", "a21", "a22"):
            if getattr(self, name).min() <= 0:
                raise PerifrontError(f"interaction floor violated for {name}")


def _lambda0(cell, d, q, eta) -> float:
    """Principal eigenvalue of the untilted operator with diffusion d,
    drift q and zeroth-order coefficient eta on the periodic cell."""
    return principal_eig_scalar(OperatorSpec(
        d=PeriodicField(cell, d), q=PeriodicField(cell, q),
        eta=PeriodicField(cell, eta), lam=0.0)).value


def _scalar_logistic_steady_state(cell, d, a, b, aii):
    """Positive periodic steady state of u_t = d u'' + a u' + u (b - aii u),
    by time stepping from the constant supersolution max(b)/min(aii)."""
    lam0 = _lambda0(cell, d, a, b)
    if lam0 <= 0.0:
        raise PerifrontError(
            f"lambda_0(d, a, b) = {lam0:.6g} <= 0: no positive steady state")
    dt = min(0.2, 0.2 / max(1.0, float(np.max(np.abs(b)))))
    step = _cell_imex_step(cell, d[None], a[None], dt)
    u = np.full((1, cell.n), float(np.max(b) / np.min(aii)))
    for _ in range(int(2e5)):
        u_new = step(u, u * (b - aii * u))
        rate = float(np.max(np.abs(u_new - u))) / dt
        u = u_new
        if rate <= STEADY_RATE_TOL:
            break
    else:
        raise PerifrontError("steady state iteration did not settle")
    if u.min() <= 0.0:
        raise PerifrontError("steady state lost positivity")
    return u[0]


def competition_steady_states(spec: CompetitionSpec):
    """Single-species periodic steady states (u1*, u2*)."""
    u1 = _scalar_logistic_steady_state(
        spec.cell, spec.d1, spec.a1, spec.b1, spec.a11)
    u2 = _scalar_logistic_steady_state(
        spec.cell, spec.d2, spec.a2, spec.b2, spec.a22)
    return (PeriodicField(spec.cell, u1), PeriodicField(spec.cell, u2))


@dataclass
class TransformedCompetition:
    """Cooperative 2-component model obtained from a competition system by
    normalizing species 1 by u1* and reversing species 2 around u2*."""

    spec: CompetitionSpec
    model: ReactionModel
    u1_star: PeriodicField
    u2_star: PeriodicField
    a11s: np.ndarray
    a22s: np.ndarray

    def forward(self, u1, u2):
        """(u1, u2) competition densities -> cooperative state."""
        return (u1 / self.u1_star.values,
                (self.u2_star.values - u2) / self.u2_star.values)


def competition_to_cooperative(spec: CompetitionSpec) -> TransformedCompetition:
    u1s, u2s = competition_steady_states(spec)
    cell = spec.cell
    n = cell.n
    a11s = spec.a11 * u1s.values
    a12s = spec.a12 * u2s.values
    a21s = spec.a21 * u1s.values
    a22s = spec.a22 * u2s.values

    q1 = spec.a1 + 2.0 * spec.d1 * first_derivative(u1s).values / u1s.values
    q2 = spec.a2 + 2.0 * spec.d2 * first_derivative(u2s).values / u2s.values

    # h1 = a11*(1-u1) - a12*(1-u2),  h2 = a22*(u2-1) - a21*u1
    b1 = np.zeros((2, n)); b1[0] = -a11s; b1[1] = a12s
    b2 = np.zeros((2, n)); b2[0] = -a21s; b2[1] = a22s
    h1 = PolyH(c=a11s - a12s, b=b1)
    h2 = PolyH(c=-a22s, b=b2)
    model = ReactionModel(
        cell=cell,
        d=np.stack([spec.d1, spec.d2]),
        q=np.stack([q1, q2]),
        couplings={(1, 0): a21s},
        h=[h1, h2],
        name="competition-transformed")
    return TransformedCompetition(spec, model, u1s, u2s, a11s, a22s)


def inverse_transform(tc: TransformedCompetition, coop_state: np.ndarray,
                      xidx=None) -> np.ndarray:
    """Map a cooperative state array (2, npts) back to competition densities.

    xidx gives the cell-node index of each point (identity on the cell)."""
    v1, v2 = coop_state[0], coop_state[1]
    if xidx is None:
        xidx = np.arange(v1.shape[-1])
    u1 = v1 * tc.u1_star.values[xidx]
    u2 = (1.0 - v2) * tc.u2_star.values[xidx]
    return np.stack([u1, u2])


def check_competition_assumptions(tc: TransformedCompetition,
                                  run_a2_heuristic: bool = True) -> HypothesisReport:
    """Check (A1) and (A3)-(A6); (A2) is reported not-checkable with a
    heuristic sweep of periodic initial data."""
    spec, cell = tc.spec, tc.spec.cell
    rep = HypothesisReport()
    l1 = _lambda0(cell, spec.d1, spec.a1, spec.b1)
    l2 = _lambda0(cell, spec.d2, spec.a2, spec.b2)
    l3 = _lambda0(cell, spec.d1, spec.a1,
                  spec.b1 - spec.a12 * tc.u2_star.values)
    a1_margin = min(l1, l2, l3)
    rep.check("A1", a1_margin > 0.0, a1_margin, ("lambda0s", (l1, l2, l3)),
              "both species viable alone; (0, u2*) invadable")

    # A3 pointwise
    m1 = spec.a11 * tc.u1_star.values - spec.a12 * tc.u2_star.values
    m2 = spec.a22 * tc.u2_star.values - spec.a21 * tc.u1_star.values
    margin = min(float(m1.min()), float(m2.min()))
    rep.check("A3", margin > 0.0, margin,
              ("node", int(np.argmin(np.minimum(m1, m2)))),
              "a11 u1* > a12 u2* and a22 u2* > a21 u1*")

    disp = Dispersion(tc.model)
    try:
        c0, lam_p0 = disp.critical_speed()
        gap = disp.spectral_gap(lam_p0)
        rep.check("A4", gap > 0.0, gap, ("lam", lam_p0),
                  "kappa gap of the transformed curves at lam_+0")
        # A5 on a small c-grid
        worst, wit = np.inf, None
        for fac in (1.0, 1.25, 1.5, 2.0):
            c = fac * c0
            phi = disp.cascade(disp.lambda_c(c)).as_array()
            ratio = (tc.u1_star.values * phi[0]) / (tc.u2_star.values * phi[1])
            bound = np.maximum(spec.a12 / spec.a11, spec.a22 / spec.a21)
            val = float((ratio - bound).min())
            if val < worst:
                worst = val
                wit = (fac, int(np.argmin(ratio - bound)))
        rep.check("A5", worst >= 0.0, worst, wit,
                  "u1* phi1^c / (u2* phi2^c) dominates a12/a11, a22/a21")
    except PerifrontError as exc:
        rep.add("A4", "fail", None, ("error", str(exc)))
        rep.add("A5", "not-checkable", note="needs A4")

    c_minus, c_plus = boundary_speeds_A6(
        cell, spec.d1, tc.model.q[0], tc.a11s,
        spec.d2, tc.model.q[1], tc.a22s)
    rep.check("A6", c_minus + c_plus > 0.0, c_minus + c_plus,
              ("speeds", (c_minus, c_plus)),
              f"c_nu- + c_nu+ = {c_minus:.6g} + {c_plus:.6g}")

    if run_a2_heuristic:
        dist, ustate = _relax_on_cell(tc.model, u0=0.5, T=80.0)
        interior = bool(np.all(ustate > 1e-3) and np.all(ustate < 1 - 1e-3))
        rep.add("A2", "not-checkable", dist, None,
                "heuristic: interior periodic data "
                + ("settled at an interior state (coexistence suspected)"
                   if interior and dist > 1e-2 else
                   f"approached a boundary state, |u(T)-1| = {dist:.2e}"))
    else:
        rep.add("A2", "not-checkable", note="nonexistence statement")
    return rep


# ---------------------------------------------------------------------------
# built-in model library


# The parameters each built-in family reads, with the kind of value each
# takes; make_model rejects any other parameter, and any other value.
_MODEL_PARAMS = {
    "constant2": {"g": "number"},
    "periodic2": {"amp": "number", "qamp": "number", "g": "number"},
    "custom2": dict.fromkeys(("d1", "d2", "q1", "q2", "zeta1", "zeta2",
                              "a21"), "field"),
    "chain-m": {"m": "components", "a": "number"},
}
_KIND_WANTED = {"number": "a finite number",
                "components": "an integer >= 2",
                "field": "a number or a const, cosine or csv field spec"}


def _is_number(val) -> bool:
    return (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and math.isfinite(val))


def _is_integer(val) -> bool:
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


def _is_kind(kind: str, val) -> bool:
    """Whether val is a value of the parameter kind (see _MODEL_PARAMS);
    a field spec is what PeriodicField.from_spec reads."""
    if kind == "number":
        return _is_number(val)
    if kind == "components":
        return _is_integer(val) and val >= 2
    if _is_number(val):
        return True
    if not (isinstance(val, dict) and len(val) == 1):
        return False
    (form, arg), = val.items()
    if form == "const":
        return _is_number(arg)
    if form == "csv":
        return isinstance(arg, str)
    return (form == "cosine" and isinstance(arg, dict)
            and {"mean", "amp"} <= arg.keys()
            <= {"mean", "amp", "harmonics", "phase"}
            and all(map(_is_number, arg.values()))
            and _is_integer(arg.get("harmonics", 1)))


def make_model(name: str, cell: CellGrid | None = None, **params) -> ReactionModel:
    """Built-in models.

    constant2      two components, closed-form dispersion: zeta1 = 1,
                   zeta2 = -1, coupling 0.3; passes H1-H8.
    periodic2      same reaction, periodic diffusion/drift shared by both
                   components (so the curve gap stays exactly 2).
    custom2        two-component KPP family with field-valued coefficients.
    chain-m        m-component chain with nearest-neighbor coupling.

    Any other name, a parameter the family does not read, or a value of
    the wrong type or range (chain-m's m is an integer >= 2, custom2's
    coefficients are numbers or field specs, every other parameter is a
    number) raises ConfigError naming it; so do values that give no valid
    model, such as a nonpositive diffusion or a negative coupling.
    """
    if name not in _MODEL_PARAMS:
        raise ConfigError(f"unknown model name: {name!r}")
    known = _MODEL_PARAMS[name]
    for key, val in params.items():
        if key not in known:
            where = (" (the cell is set by the top-level config keys L and n)"
                     if key in ("L", "n") else "")
            raise ConfigError(f"{name} has no parameter {key!r}{where}; "
                              f"it reads {', '.join(known)}")
        if not _is_kind(known[key], val):
            raise ConfigError(f"{name} parameter {key!r} must be "
                              f"{_KIND_WANTED[known[key]]}, got {val!r}")
    cell = cell or make_cell_grid(1.0, 64)
    n = cell.n
    if name in ("constant2", "periodic2"):
        if name == "constant2":
            d = np.ones((2, n)); q = np.zeros((2, n))
        else:
            amp = params.get("amp", 0.25)
            qamp = params.get("qamp", 0.15)
            dvals = 1.0 + amp * np.cos(2 * np.pi * cell.x / cell.L)
            qvals = qamp * np.sin(2 * np.pi * cell.x / cell.L)
            d = np.stack([dvals, dvals]); q = np.stack([qvals, qvals])
        # zeta1 = 1, zeta2 = -1, coupling 0.3; the quadratic terms keep
        # h_2 nonincreasing along the front ray while the state 1 stays
        # linearly stable and no interior equilibrium appears
        g = params.get("g", 0.3)
        b1 = np.zeros((2, n)); b1[0] = -(1.0 + g); b1[1] = g
        b2 = np.zeros((2, n)); b2[0] = -0.31; b2[1] = 2.0
        Q2 = np.zeros((2, 2, n)); Q2[0, 1] = 0.17; Q2[1, 1] = -1.16
        couplings = {(1, 0): np.full(n, 0.3)}
        hs = [PolyH(c=np.ones(n), b=b1), PolyH(c=-np.ones(n), b=b2, Q=Q2)]
    elif name == "custom2":
        def spec(key, default):
            try:
                return PeriodicField.from_spec(
                    cell, params.get(key, default)).values
            except (OSError, ValueError, GridError) as exc:  # a csv file
                raise ConfigError(f"custom2 parameter {key!r}: {exc}") from exc
        d = np.stack([spec("d1", 1.0), spec("d2", 1.0)])
        q = np.stack([spec("q1", 0.0), spec("q2", 0.0)])
        zeta1 = spec("zeta1", 1.0)
        zeta2 = spec("zeta2", -1.0)
        # the default coupling dominates |zeta2| so that h2 is nonincreasing
        # in u2 (h_i(x, w) <= h_i(x, 0) along fronts) and the upper state
        # is linearly stable; weaker couplings are allowed and the
        # hypothesis report will say what breaks
        a21 = spec("a21", 1.2)
        if zeta1.min() <= 0 or zeta2.max() >= 0 or a21.min() <= 0:
            raise ConfigError(
                "custom2 needs zeta1 > 0, zeta2 < 0 and a21 > 0")
        # KPP family with F(x, 1) = 0 pointwise for arbitrary fields:
        # h1 = zeta1 (1 - u1), h2 = zeta2 + (-zeta2 - a21) u2
        b1 = np.zeros((2, n)); b1[0] = -zeta1
        b2 = np.zeros((2, n)); b2[1] = -zeta2 - a21
        couplings = {(1, 0): a21}
        hs = [PolyH(c=zeta1, b=b1), PolyH(c=zeta2, b=b2)]
    else:                                            # chain-m
        m = params.get("m", 3)
        d, q = np.ones((m, n)), np.zeros((m, n))
        a = params.get("a", 1.2)
        hs = []
        couplings = {}
        for i in range(m):
            b = np.zeros((m, n))
            if i == 0:
                b[0] = -1.0
                hs.append(PolyH(c=np.ones(n), b=b))
            else:
                b[i] = 1.0 - a        # h_i = -(1 - u_i) - a u_i
                hs.append(PolyH(c=-np.ones(n), b=b))
                couplings[(i, i - 1)] = np.full(n, a)
    try:
        return ReactionModel(cell, d, q, couplings, hs, name=name)
    except PerifrontError as exc:
        raise ConfigError(f"invalid {name} parameters: {exc}") from exc


# The competition specs make_competition_spec builds: name -> (amplitude
# of b1's cosine, a21).
_COMPETITION_SPECS = {"competition-const": (0.0, 0.3),
                      "competition-strong": (0.0, 1.5),
                      "competition-periodic": (0.3, 1.5)}
COMPETITION_NAMES = tuple(_COMPETITION_SPECS)


def make_competition_spec(name: str,
                          cell: CellGrid | None = None) -> CompetitionSpec:
    if name not in _COMPETITION_SPECS:
        raise ConfigError(f"unknown competition spec: {name!r}")
    b1_amp, a21 = _COMPETITION_SPECS[name]
    cell = cell or make_cell_grid(1.0, 64)
    one = np.ones(cell.n)
    zero = np.zeros(cell.n)
    b1 = 1.0 + b1_amp * np.cos(2 * np.pi * cell.x / cell.L)
    return CompetitionSpec(cell, one, one, zero, zero, b1, one,
                           one, 0.3 * one, a21 * one, one)
