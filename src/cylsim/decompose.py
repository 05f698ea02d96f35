"""Explicit cylinder-separable decompositions of diagonal-gate outputs.

Every decomposer returns one array format, `Decomposition(weights, a, b)`,
or for a batch of K operators its fixed-width form, `GateTerms`: K x 4
weights with each row's support first and zero weights after it, the
matching points, and each row's residual.

Gate outputs on extremal inputs: `closed_forms` splits K outputs at azimuth
0 into at most four extremal product terms each, on each input's own z
circle, at the given phase, exact to 1e-12 in the Pauli coefficients.  It
takes the K rows through one stacked eigh, at most three Givens rounds on
masked columns and one stacked SVD, and a row's terms do not depend on the
rows batched with it.  The sampler's gate table is its one caller.

General state spaces: one LP core, `solve_lp`, for
nonnegative weights over candidate extremal points, minimising the
worst-case coefficient residual, so infeasibility is reported
quantitatively; a side whose target sits at its highest or lowest candidate
z keeps only that z's candidates.  It prices candidates in by column
generation on one HiGHS model per call: each round adds its columns to the
master in place and re-runs primal simplex from the last basis, instead of
rebuilding the LP; every run goes through `run_master`.  The HiGHS binding
is scipy's extension module `scipy.optimize._highspy._core`, which
`_load_highs` loads from its file: `scipy.optimize` itself is never
imported.  Candidate points are always true extremal
points of the target spaces, so the discretized hull under-approximates the
exact one and feasibility claims are conservative.  An adaptive azimuth
refinement (repeated halving around the active support) recovers boundary
cases that a uniform grid alone misses.  An LP residual at or below `LP_TOL`
counts as a fit, for every verdict.  The radius searches built on these
decompositions live in `statespace`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np
import numpy.ma  # noqa: F401  np.unique imports it on first call: load it here

from .bloch import PAULI, ZERO_RADIUS


def _load_highs():
    """scipy's HiGHS binding, the extension module
    `scipy.optimize._highspy._core`, loaded from its file and registered
    under that name.  Importing it by name would first run
    `scipy.optimize/__init__.py`, which loads scipy.linalg, linprog and more
    (about 0.5 s and 40 MB) that cylsim never uses; `find_spec` locates the
    top-level scipy package without running its `__init__`."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:  # scipy.optimize loaded it first
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy is not None else []
    paths = [os.path.join(root, "optimize", "_highspy", "_core" + suffix)
             for root in roots for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"cylsim needs scipy>=1.17: no {name} extension found")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_h = _load_highs()

_WEIGHT_EPS = 1e-12
# Closed form: eigenvalue clamp and largest accepted coefficient residual.
EXACT_TOL = 1e-12
# The largest LP residual that counts as a fit: every LP verdict in cylsim
# (`decompose_over_circles`' stops and the radius searches of `statespace`)
# reads it.
LP_TOL = 1e-7
# LP column generation: initial columns, columns added per round, and the
# reduced cost below which a column still counts as improving.
_CG_START = 256
_CG_BATCH = 128
_CG_PRICE_TOL = 1e-10
# HiGHS options of the master LP (see `solve_lp`): silent; no presolve, as
# every round but the first resumes from a basis; no scaling, which left
# resumed solves closer to a cold all-column solve on the searches' LPs;
# primal simplex, which resumes in a few iterations after columns are
# added, as the basis stays primal feasible; and a dual tolerance tight
# enough that the resumed master stops at the all-column optimum (at
# HiGHS's default of 1e-7 it can stop about 1e-8 above it).
_HIGHS_OPTIONS = (("output_flag", False), ("presolve", "off"),
                  ("simplex_scale_strategy", 0), ("simplex_strategy", 4),
                  ("dual_feasibility_tolerance", 1e-10))
# Most negative x or row slack accepted: 10 sqrt(1e-9), the check that
# scipy.optimize applies to a HiGHS solution.
_FEAS_TOL = 10.0 * math.sqrt(1e-9)
# Azimuths per side-A circle at which `residual_lower_bound` samples the
# dual; a Lipschitz margin covers the azimuths between them.
_BOUND_GRID = 4096


class SolverFailure(RuntimeError):
    """A program fault, never the spec's (exit 3): an LP backend failure, a
    closed-form residual above its guard, or a subclass's own check."""


class Decomposition(NamedTuple):
    """Product terms of a separable decomposition: weights (k,) summing to 1,
    and each side's (k, 3) points as rows (x, y, z)."""

    weights: np.ndarray
    a: np.ndarray
    b: np.ndarray


class GateTerms(NamedTuple):
    """Decompositions of K operators in fixed width: row k's first count[k]
    terms are its support, in order, and zero weights pad the rest.
    residual[k] is the largest Pauli-coefficient error of row k's terms
    (0 where the terms are exact by construction)."""

    weights: np.ndarray  # (K, 4)
    a: np.ndarray  # (K, 4, 3)
    b: np.ndarray  # (K, 4, 3)
    count: np.ndarray  # (K,)
    residual: np.ndarray  # (K,)


def reconstruct(d) -> np.ndarray:
    """The Pauli coefficients sum_k w_k (1, a_k) (x) (1, b_k): 4x4 for a
    Decomposition, (K, 4, 4) for GateTerms."""
    ones = np.ones(d.a.shape[:-1] + (1,))
    return np.einsum("...k,...ka,...kb->...ab", d.weights,
                     np.concatenate([ones, d.a], -1), np.concatenate([ones, d.b], -1))


# ---------------------------------------------------------------------------
# Closed form

# The (I, X, Y) coefficients of an extremal side map onto I/2, X/2, Z/2,
# which turns a unit circle at either pole into the rebit pure states.
_REBIT = 0.5 * np.real(np.stack([PAULI[0], PAULI[1], PAULI[3]]))
# Real Y (x) Y: psi^T YY psi = -2 det(psi as a 2x2 matrix), zero iff the
# two-rebit vector psi is a product.
_YY = np.real(np.kron(PAULI[2], PAULI[2]))
# A fixed two-rebit direction with no symmetry of the basis: it chooses
# between mirror-image Givens roots.
_TIE = np.array([1.0, 2.0, 3.0, 5.0])


def _circle_points(rebits, r, z):
    """Unit rebits (K, n, 2) rows (p, q) as points (2pq r, (p^2 - q^2) r, z)
    of row k's circle at z[k] of radius r[k]."""
    p, q = rebits[..., 0], rebits[..., 1]
    r = r[:, None]
    return np.stack([2.0 * r * p * q, r * (p * p - q * q),
                     np.broadcast_to(z[:, None], p.shape)], -1)


def support_first(weights, *arrays):
    """Reorder each row's terms so those of positive weight come first, in
    their order, and zero the rest; returns (count, weights, *arrays)."""
    order = np.argsort(weights <= 0.0, axis=1, kind="stable")
    weights = np.take_along_axis(weights, order, 1)
    count = np.count_nonzero(weights > 0.0, axis=1)
    moved = [np.take_along_axis(x, order[:, :, None], 1) for x in arrays]
    return (count, np.where(weights > 0.0, weights, 0.0), *moved)


def closed_forms(targets, r_out_a, r_out_b):
    """Exact decompositions of K gate outputs on extremal inputs, targets
    (K, 4, 4), over the circles of Cyl(r_out_a[k]) x Cyl(r_out_b[k]), radii
    > 0, at each side's pole read from the target (m[3, 0], m[0, 3]:
    diagonal gates keep the (I,Z) x (I,Z) block).  Returns (feasible,
    GateTerms): feasible[k] says row k's operator below is PSD to 1e-12.

    The (I,X,Y) x (I,X,Y) block scaled by 1/r_out per side is a real
    two-rebit operator with no Y(x)Y part, separable iff PSD, and then a mix
    of at most four real product pure states (Wootters, PRL 80, 2245 (1998);
    Caves, Fuchs & Rungta, Found. Phys. Lett. 14, 199 (2001)): Givens-rotate
    its sqrt(eigenvalue)-scaled eigenvectors to zero Y(x)Y expectation each,
    then factor each as a (x) b.

    All rows go through one stacked eigh, at most three Givens rounds and one
    stacked SVD.  Eigenvectors of eigenvalues below 1e-12 are zero columns,
    which no round selects and which factor with weight 0.  Every stacked
    step treats each row on its own, so a row's terms do not depend on the
    rows batched with it."""
    m = np.asarray(targets, dtype=float)
    k = len(m)
    rows = np.arange(k)
    r_out_a, r_out_b = np.asarray(r_out_a, float), np.asarray(r_out_b, float)
    ones = np.ones(k)
    scale = (np.column_stack([ones, r_out_a, r_out_a])[:, :, None]
             * np.column_stack([ones, r_out_b, r_out_b])[:, None, :])
    block = m[:, :3, :3] / scale
    rho = np.einsum("kij,iac,jbd->kabcd", block, _REBIT, _REBIT).reshape(k, 4, 4)
    evals, evecs = np.linalg.eigh(rho)
    feasible = evals[:, 0] >= -EXACT_TOL
    keep = evals >= EXACT_TOL
    cols = evecs * np.sqrt(np.where(keep, evals, 0.0))[:, None, :]

    # each rotation zeroes one diagonal entry of the Y(x)Y Gram matrix and no
    # other; the trace, tr(rho YY) = 0, zeroes the last one
    rounds = np.count_nonzero(keep, axis=1) - 1
    for step in range(3):
        d = np.einsum("kil,ij,kjl->kl", cols, _YY, cols)
        hi, lo = np.argmax(d, axis=1), np.argmin(d, axis=1)
        d_hi, d_lo = d[rows, hi], d[rows, lo]
        act = np.flatnonzero((step < rounds) & (d_hi > 0.0) & (d_lo < 0.0))
        if not len(act):
            break
        hi, lo, d_hi, d_lo = hi[act], lo[act], d_hi[act], d_lo[act]
        # contiguous (n, 4) copies: BLAS rounds products of strided vectors
        # differently
        col_hi, col_lo = cols[act, :, hi], cols[act, :, lo]
        g = np.vecdot((col_hi[:, None, :] @ _YY)[:, 0, :], col_lo)
        s = np.sqrt(g * g - d_hi * d_lo)
        # d_hi + 2 g t + d_lo t^2 = 0 (t = tan(angle)) has one root of each
        # sign: take the smaller, unless g is too small for its sign to be
        # more than rounding (at f_a = f_b it is zero); the roots then
        # mirror each other and a fixed direction picks one, whatever the
        # signs of the columns
        tie = np.where(np.vecdot(col_hi, _TIE) * np.vecdot(col_lo, _TIE) >= 0.0, 1.0, -1.0)
        sign = np.where(np.abs(g) > 1e-6 * s, -np.copysign(1.0, g), tie)
        t = sign * d_hi / (s - sign * g)
        c = 1.0 / np.sqrt(1.0 + t * t)
        turn = np.stack([np.stack([c, -t * c], -1), np.stack([t * c, c], -1)], -2)
        pair = np.stack([col_hi, col_lo], 1).transpose(0, 2, 1) @ turn
        cols[act, :, hi], cols[act, :, lo] = pair[:, :, 0], pair[:, :, 1]

    u, sv, vt = np.linalg.svd(cols.transpose(0, 2, 1).reshape(-1, 2, 2))
    count, weights, p, q = support_first(
        (sv[:, 0] ** 2).reshape(k, 4), u[:, :, 0].reshape(k, 4, 2),
        vt[:, 0, :].reshape(k, 4, 2))
    total = weights[:, 0] + weights[:, 1] + weights[:, 2] + weights[:, 3]
    terms = GateTerms(weights / total[:, None],
                      _circle_points(p, r_out_a, m[:, 3, 0]),
                      _circle_points(q, r_out_b, m[:, 0, 3]), count, np.zeros(k))
    residual = np.max(np.abs(reconstruct(terms) - m), axis=(1, 2))
    return feasible, terms._replace(residual=residual)


# ---------------------------------------------------------------------------
# LP core

def _candidates(circles, azimuths_per_circle):
    """Stack candidate extremal points (x, y, z) for a list of (z, radius)
    circles; zero-radius circles contribute a single point."""
    pts = []
    owner = []
    azs = []
    for k, (z, rad) in enumerate(circles):
        if rad <= ZERO_RADIUS:
            pts.append((0.0, 0.0, z))
            owner.append(k)
            azs.append(0.0)
        else:
            for nu in azimuths_per_circle[k]:
                pts.append((rad * math.cos(nu), rad * math.sin(nu), z))
                owner.append(k)
                azs.append(nu)
    return np.array(pts), np.array(owner), np.array(azs)


def _pole_rule(z_row, i_row, zs):
    """Candidates a side keeps, and whether its Z rows drop out.  When the
    target's Z row equals z times its I row (to 1e-12) for z the side's
    highest or lowest candidate z, every exact decomposition puts all its
    weight at that z: the I(x)I row fixes the total weight and the Z(x)I row
    the mean z, which only that z reaches.  Then only those candidates stay,
    and the side's Z rows drop out, being z times its I rows."""
    for z in (zs.max(), zs.min()):
        if np.max(np.abs(z_row - z * i_row)) < 1e-12:
            return np.flatnonzero(zs == z), True
    return np.arange(len(zs)), False


def _add_columns(highs, cost, block):
    """Append the columns of the dense (rows, k) `block`, bounded below by 0,
    with the given costs."""
    rows, k = block.shape
    highs.addCols(k, cost, np.zeros(k), np.full(k, _h.kHighsInf), rows * k,
                  np.arange(0, rows * k, rows, dtype=np.int32),
                  np.tile(np.arange(rows, dtype=np.int32), k),
                  np.ascontiguousarray(block.T).reshape(-1))


def run_master(highs, rhs):
    """Run HiGHS on a master LP with rows `... <= rhs` from its current
    basis, and return (x, objective, row duals).  Every LP solve in cylsim
    goes through here.  Raises SolverFailure unless the model is optimal and
    x and the row slacks are free of NaN and above -_FEAS_TOL."""
    highs.run()
    status = highs.getModelStatus()
    if status != _h.HighsModelStatus.kOptimal:
        raise SolverFailure(f"HiGHS status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = rhs - np.array(solution.row_value)
    if not (np.all(x >= -_FEAS_TOL) and np.all(slack >= -_FEAS_TOL)):
        raise SolverFailure("HiGHS status Optimal, but its solution breaks a "
                            "bound or a row by more than the tolerance")
    return x, highs.getInfo().objective_function_value, np.array(solution.row_dual)


def solve_lp(pts_a, pts_b, target16):
    """Min-residual LP: nonnegative weights over product candidates whose
    Pauli coefficients match the target within the smallest possible L-inf
    residual.  Returns (residual, weights, duals): one weight per (a, b) pair
    in row-major order, and the 16 row duals y of the final LP (zero on the
    rows the pole rule drops), the multipliers of the dual
    max -b^T y s.t. A^T y >= 0, ||y||_1 <= 1 that `residual_lower_bound`
    turns into a bound over every point of the circles.

    A side whose target Z row pins it to a pole (`_pole_rule`) keeps only
    that pole's candidates and drops its Z rows, which quarters the LP for
    gate outputs on pole inputs; the dropped rows then match to within the
    kept residual plus 1e-12.  Whether the target decomposes never changes.
    Nor does the residual of one that does not, when every off-pole
    candidate has a pole twin with the same x and y (cylinder circles);
    over other candidate sets it can come out above the all-column minimum.

    Column generation (Gilmore & Gomory, Oper. Res. 9, 849 (1961)) on one
    HiGHS model, created and dropped here: it starts with the residual
    column t and the rows A w - t <= b, -A w - t <= -b; from about _CG_START
    strided columns, each round adds the _CG_BATCH columns of most negative
    reduced cost in place and re-solves from the last basis, until none is
    below -_CG_PRICE_TOL.  Weights sum to one and duals have L1 norm <= 1,
    so the objective is within _CG_PRICE_TOL of the LP over all columns.
    The weights and the residual are clipped at 0, which a resumed solve can
    miss by rounding."""
    m = target16.reshape(4, 4)
    keep_a, pin_a = _pole_rule(m[3, :], m[0, :], pts_a[:, 2])
    keep_b, pin_b = _pole_rule(m[:, 3], m[:, 0], pts_b[:, 2])
    rows = np.ones((4, 4), dtype=bool)
    if pin_a:
        rows[3, :] = False
    if pin_b:
        rows[:, 3] = False
    rows = rows.reshape(16)
    ca = np.column_stack([np.ones(len(keep_a)), pts_a[keep_a]])
    cb = np.column_stack([np.ones(len(keep_b)), pts_b[keep_b]])
    A = np.einsum("ia,jb->abij", ca, cb).reshape(16, -1)[rows]
    b = target16[rows]
    nrows, ncols = A.shape
    rhs = np.concatenate([b, -b])
    highs = _h._Highs()
    for name, value in _HIGHS_OPTIONS:
        highs.setOptionValue(name, value)
    highs.addRows(2 * nrows, np.full(2 * nrows, -_h.kHighsInf), rhs, 0,
                  np.zeros(2 * nrows, dtype=np.int32), np.zeros(0, dtype=np.int32),
                  np.zeros(0))
    _add_columns(highs, np.ones(1), -np.ones((2 * nrows, 1)))  # the residual t
    cols = np.zeros(0, dtype=np.intp)
    new = np.arange(0, ncols, max(1, ncols // _CG_START))
    while len(new):
        _add_columns(highs, np.zeros(len(new)), np.vstack([A[:, new], -A[:, new]]))
        cols = np.concatenate([cols, new])
        x, residual, duals = run_master(highs, rhs)
        reduced = A.T @ (duals[nrows:] - duals[:nrows])
        reduced[cols] = np.inf
        new = np.argsort(reduced)[:_CG_BATCH]
        new = new[reduced[new] < -_CG_PRICE_TOL]
    kept = np.zeros(ncols)
    kept[cols] = np.maximum(x[1:], 0.0)
    weights = np.zeros((len(pts_a), len(pts_b)))
    weights[np.ix_(keep_a, keep_b)] = kept.reshape(len(keep_a), len(keep_b))
    y = np.zeros(16)
    y[rows] = duals[nrows:] - duals[:nrows]
    return max(residual, 0.0), weights.reshape(-1), y


def _kept_circles(circles, z_row, i_row):
    """The circles whose points `solve_lp` keeps as candidates on one side."""
    keep, _pinned = _pole_rule(z_row, i_row, np.array([z for z, _ in circles]))
    return [(circles[k][0], circles[k][1] if circles[k][1] > ZERO_RADIUS else 0.0)
            for k in keep]


def residual_lower_bound(target_m, duals, circles_a, circles_b) -> float:
    """A lower bound on the L-inf residual of every nonnegative combination
    of products of points on the circles that `solve_lp` keeps for this
    target, at any azimuths, from one LP's row duals y (weak duality of the
    semi-infinite LP; Hettich & Kortanek, SIAM Rev. 35, 380 (1993)).

    With Y = y as a 4x4 array and mu a proven upper bound on
    max -(1, a)^T Y (1, b) over those points, any weights w >= 0 with
    residual t satisfy ||y||_1 t >= y^T (A w - b) >= -mu+ sum(w) - b^T y
    and sum(w) <= m00 + t (the I(x)I row), so
    t >= (-b^T y - mu+ m00) / (||y||_1 + mu+), mu+ = max(mu, 0).
    For fixed a the maximum over b's azimuth is closed form,
    W0 + W3 z_b + R_b ||(W1, W2)||, W = -(1, a)^T Y; over a's azimuth it is
    the maximum at _BOUND_GRID azimuths plus the Lipschitz constant of that
    closed form times half the grid step.  Returns -inf when y is zero."""
    m = np.asarray(target_m, dtype=float).reshape(4, 4)
    Y = np.asarray(duals, dtype=float).reshape(4, 4)
    kept_a = _kept_circles(circles_a, m[3, :], m[0, :])
    kept_b = np.array(_kept_circles(circles_b, m[:, 3], m[:, 0]))
    z_b, r_b = kept_b[:, 0], kept_b[:, 1]
    # Lipschitz constant in a's azimuth, per unit radius of a's circle
    lip = np.max(np.linalg.norm(Y[1:3, 0]) + np.abs(z_b) * np.linalg.norm(Y[1:3, 3])
                 + r_b * np.linalg.norm(Y[1:3, 1:3]))
    grid = 2.0 * math.pi * np.arange(_BOUND_GRID) / _BOUND_GRID
    mu = -math.inf
    for z_a, r_a in kept_a:
        nus = grid if r_a > 0.0 else grid[:1]
        ca = np.column_stack([np.ones(len(nus)), r_a * np.cos(nus),
                              r_a * np.sin(nus), np.full(len(nus), z_a)])
        w = -ca @ Y
        top = (w[:, :1] + w[:, 3:] * z_b + r_b * np.hypot(w[:, 1:2], w[:, 2:3])).max()
        mu = max(mu, top + r_a * lip * math.pi / _BOUND_GRID)
    mu = max(mu, 0.0)
    scale = np.abs(Y).sum() + mu
    if scale == 0.0:
        return -math.inf
    return float((-m.reshape(16) @ Y.reshape(16) - mu * m[0, 0]) / scale)


def decompose_over_circles(target_m, circles_a, circles_b, n, refine_rounds=2):
    """Decompose a Pauli coefficient target over products of discretized
    extremal circles.  Returns (residual, Decomposition): the last LP's own
    residual, and its support with the weights normalised to sum 1, whose
    reconstruction can miss the target by more than that residual.
    Azimuths are refined around the active support, at most refine_rounds
    times, while the residual exceeds LP_TOL; n >= 1 azimuths per circle.

    Refinement stops early once an LP's duals prove a miss: when
    `residual_lower_bound` > LP_TOL, no combination of points on the kept
    circles reaches LP_TOL, and later rounds only add azimuths on those
    circles, so the verdict residual <= LP_TOL is the one the remaining
    rounds would give; the residual and terms returned are the current
    round's.  Every LP that runs is the one it would be without the stop."""
    if n < 1:
        raise ValueError(f"need at least one azimuth per circle, not {n!r}")
    target = np.asarray(target_m, dtype=float).reshape(4, 4)
    base = 2.0 * math.pi * np.arange(n) / n
    az_a = [base.copy() for _ in circles_a]
    az_b = [base.copy() for _ in circles_b]
    half_step = math.pi / n

    for round_idx in range(refine_rounds + 1):
        pts_a, own_a, azs_a = _candidates(circles_a, az_a)
        pts_b, own_b, azs_b = _candidates(circles_b, az_b)
        residual, w, duals = solve_lp(pts_a, pts_b, target.reshape(16))
        support = np.nonzero(w > _WEIGHT_EPS)[0]
        if (residual <= LP_TOL or round_idx == refine_rounds
                or residual_lower_bound(target, duals, circles_a, circles_b) > LP_TOL):
            return residual, Decomposition(w[support] / w[support].sum(),
                                           pts_a[support // len(pts_b)],
                                           pts_b[support % len(pts_b)])
        # rebuild each side as base grid + support + halved-step neighbours;
        # dropping stale refinement columns is safe because the current
        # support stays in, so the residual cannot regress
        for az, own, azs, idx in ((az_a, own_a, azs_a, support // len(pts_b)),
                                  (az_b, own_b, azs_b, support % len(pts_b))):
            idx = np.unique(idx)
            for k in range(len(az)):
                sel = azs[idx[own[idx] == k]]
                az[k] = np.unique(np.concatenate(
                    [base, sel, sel - half_step, sel + half_step]))
        half_step /= 2.0
