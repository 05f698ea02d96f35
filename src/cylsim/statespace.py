"""Alternative Z-symmetric state spaces, their growth figure of merit, and
every LP radius search.

A space is a convex body of revolution about the z axis, stored as a concave
piecewise-linear radial profile r(z).  The figure of merit R* is the minimal
uniform phasing growth such that the gate output on a product of two spaces
lands in the convex hull of the grown product spaces; cylinders are optimal
within the family that touches z = +-1 off-axis, but spindle-like B(r, h)
spaces beat them slightly as input spaces, which this module reproduces.

The searches (`r_star`, `min_output_radius`, `max_input_radius_bspace`)
bisect on a radius.  Each builds its gate-output targets from the extremal
input pairs (`_gate_targets`) and asks one fit test (`_fits`): `r_star`
phases the target, the others fit it over cylinder circles at the probed
radius.  A product target is decided factor by factor; any other asks the
LP in `decompose`.  Both read the one fit threshold, `decompose.LP_TOL`, so
the searches take only the azimuth count `n` and the bisection width `tol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, apply_gate_paulis, radius
from .decompose import EXACT_TOL, LP_TOL, SolverFailure, decompose_over_circles, solve_lp
from .growth import lambda_phi

_PROFILE_TOL = 1e-12
# Slack of `SymmetricStateSpace.contains` in z and in radius.
_CONTAINS_TOL = 1e-9
# `bisect_min_radius` gives up once its doubled upper bracket exceeds this.
_HI_MAX = 64.0
# B-space CSV rows: azimuths per circle and bisection width of each row's
# minimal output radius.
_ROW_RADIUS_N = 24
_ROW_RADIUS_TOL = 1e-3


class NoUpperBracket(SolverFailure):
    """No feasible radius found below the bracket cap."""


@dataclass(frozen=True)
class SymmetricStateSpace:
    """Concave piecewise-linear radial profile: ordered (z, radius) breakpoints.

    The revolved body is convex exactly when the profile is concave; its
    extremal points are the breakpoint circles.  Profiles may span a
    sub-interval of [-1, 1] (e.g. a single disc)."""

    profile: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prof = tuple((float(z), float(r)) for z, r in self.profile)
        if not prof:
            raise ValueError("profile must have at least one breakpoint")
        zs = [z for z, _ in prof]
        rs = [r for _, r in prof]
        if any(abs(z) > 1.0 + _PROFILE_TOL for z in zs):
            raise ValueError("breakpoints must have |z| <= 1")
        if any(r < -_PROFILE_TOL for r in rs):
            raise ValueError("radii must be >= 0")
        if any(b - a <= 0 for a, b in zip(zs, zs[1:])):
            raise ValueError("breakpoint z values must be strictly increasing")
        slopes = [(r2 - r1) / (z2 - z1)
                  for (z1, r1), (z2, r2) in zip(prof, prof[1:])]
        if any(s2 - s1 > 1e-9 for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("radial profile must be concave")
        object.__setattr__(self, "profile", prof)

    @property
    def radius(self) -> float:
        """Radius of the smallest enclosing cylinder."""
        return max(r for _, r in self.profile)

    def z_extent(self) -> tuple[float, float]:
        return self.profile[0][0], self.profile[-1][0]

    def radius_at(self, z: float) -> float:
        lo, hi = self.z_extent()
        if z < lo - _PROFILE_TOL or z > hi + _PROFILE_TOL:
            raise ValueError(f"z={z} outside the profile extent [{lo}, {hi}]")
        zs = [p[0] for p in self.profile]
        k = np.searchsorted(zs, z)
        if k == 0:
            return self.profile[0][1]
        if k == len(zs):
            return self.profile[-1][1]
        (z1, r1), (z2, r2) = self.profile[k - 1], self.profile[k]
        t = (z - z1) / (z2 - z1)
        return (1.0 - t) * r1 + t * r2

    def contains(self, v: BlochVector) -> bool:
        return _within(self, v, _CONTAINS_TOL)


def _within(space: SymmetricStateSpace, v: BlochVector, tol: float) -> bool:
    """Whether v lies in the space, with slack tol in z and in radius."""
    lo, hi = space.z_extent()
    if v.z < lo - tol or v.z > hi + tol:
        return False
    return radius(v) <= space.radius_at(min(max(v.z, lo), hi)) + tol


def cylinder(r: float) -> SymmetricStateSpace:
    return SymmetricStateSpace(((-1.0, r), (1.0, r)))


def b_space(r: float, h: float) -> SymmetricStateSpace:
    """Convex hull of two radius-r discs at z = +-h and the two poles."""
    if not 0.0 <= h <= 1.0:
        raise ValueError("h must lie in [0, 1]")
    if r < 0:
        raise ValueError("r must be >= 0")
    if h == 1.0:
        return cylinder(r)
    if r == 0.0:
        return SymmetricStateSpace(((-1.0, 0.0), (1.0, 0.0)))
    if h == 0.0:
        return SymmetricStateSpace(((-1.0, 0.0), (0.0, r), (1.0, 0.0)))
    return SymmetricStateSpace(((-1.0, 0.0), (-h, r), (h, r), (1.0, 0.0)))


def symmetrize(points: list[BlochVector]) -> SymmetricStateSpace:
    """Revolve a finite point set about the z axis and take the convex hull.

    The hull of circles (z_i, rho_i) has radial profile equal to the concave
    upper envelope of those pairs over [min z, max z]; no poles are added
    beyond the input points."""
    pairs = [(v.z, radius(v)) for v in points]
    if not pairs:
        raise ValueError("need at least one point")
    # max radius per z, sorted
    by_z: dict[float, float] = {}
    for z, rho in pairs:
        by_z[z] = max(rho, by_z.get(z, 0.0))
    pts = sorted(by_z.items())
    if len(pts) == 1:
        return SymmetricStateSpace((pts[0],))
    # upper concave envelope (monotone-chain upper hull in the (z, r) plane)
    hull: list[tuple[float, float]] = []
    for z, rho in pts:
        while len(hull) >= 2:
            (z1, r1), (z2, r2) = hull[-2], hull[-1]
            # keep only strictly convex-from-above turns
            if (r2 - r1) * (z - z2) <= (rho - r2) * (z2 - z1) + _PROFILE_TOL:
                hull.pop()
            else:
                break
        hull.append((z, rho))
    # drop interior points below the chords (the loop keeps envelope vertices)
    return SymmetricStateSpace(tuple(hull))


def profile_hull(a: SymmetricStateSpace, b: SymmetricStateSpace) -> SymmetricStateSpace:
    """Convex hull of two symmetric spaces (envelope of combined breakpoints)."""
    pts = [BlochVector(r, 0.0, z) for z, r in a.profile + b.profile]
    return symmetrize(pts)


def bisect_bracket(upper, lo, hi, tol):
    """Halve [lo, hi] to width tol (finite and > 0), moving hi to midpoints
    where the monotone predicate `upper` holds and lo to the others.
    Returns (lo, hi)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"bisection width must be finite and > 0, not {tol!r}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if upper(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def bisect_min_radius(feasible, tol, hi_start=1.0):
    """Smallest radius accepted by a monotone feasibility predicate, by
    doubling to find an upper bracket and then bisecting.  Returns the
    feasible endpoint of the final bracket."""
    lo, hi = 0.0, max(hi_start, tol)
    while not feasible(hi):
        lo = hi
        hi *= 2.0
        if hi > _HI_MAX:
            raise NoUpperBracket(f"infeasible at radius {_HI_MAX}")
    return bisect_bracket(feasible, lo, hi, tol)[1]


def _gate_targets(space_a: SymmetricStateSpace, space_b: SymmetricStateSpace,
                  phi: float) -> list[np.ndarray]:
    """Pauli coefficients of the gate output on every pair of extremal
    inputs, the breakpoint circles at azimuth 0 (diagonal-unitary invariance
    lets every other azimuth follow by Z-rotation)."""
    pairs = np.array([(r_a, z_a, r_b, z_b) for z_a, r_a in space_a.profile
                      for z_b, r_b in space_b.profile])
    zeros = np.zeros(len(pairs))
    return list(apply_gate_paulis(np.full(len(pairs), phi),
                                  np.column_stack([pairs[:, 0], zeros, pairs[:, 1]]),
                                  np.column_stack([pairs[:, 2], zeros, pairs[:, 3]])))


def _fits(target, space_a: SymmetricStateSpace, space_b: SymmetricStateSpace,
          n: int) -> bool:
    """Whether the target lies in the hull of the products of the two spaces'
    breakpoint circles to within LP_TOL.

    A product target, m = outer(m[:, 0], m[0, :]) to EXACT_TOL (a gate
    output with a zero-radius input, such as a pole), lies there exactly when
    each factor lies in its own space (the hull's marginals are the spaces),
    so each factor is tested against its space with slack LP_TOL and no LP
    runs.  Any other target asks the LP of `decompose_over_circles`, whose
    discretized hull under-approximates the exact one."""
    m = np.asarray(target)
    if np.max(np.abs(m - np.outer(m[:, 0], m[0, :]))) <= EXACT_TOL:
        return (_within(space_a, BlochVector(*m[1:, 0]), LP_TOL)
                and _within(space_b, BlochVector(*m[0, 1:]), LP_TOL))
    residual, _d = decompose_over_circles(target, space_a.profile, space_b.profile, n)
    return residual <= LP_TOL


def _phased_target(m: np.ndarray, inv_r: float) -> np.ndarray:
    """Apply T_{1/R} (x) T_{1/R} to a Pauli coefficient matrix: scale the X, Y
    rows (side A) and columns (side B) by 1/R."""
    out = m.copy()
    out[1:3, :] *= inv_r
    out[:, 1:3] *= inv_r
    return out


def r_star(space_a: SymmetricStateSpace, space_b: SymmetricStateSpace,
           phi: float, n: int = 40, tol: float = 1e-3) -> float:
    """Minimal phasing growth R with
    T_{1/R} (x) T_{1/R} (V_phi(S_A (x) S_B)) inside Conv(S_A (x) S_B).

    The hull membership is an LP over the spaces' own breakpoint circles.
    Monotone in R because dephasing a Z-symmetric space stays inside its
    hull."""
    targets = _gate_targets(space_a, space_b, phi)

    def feasible(r):
        return all(_fits(_phased_target(t, 1.0 / r), space_a, space_b, n)
                   for t in targets)

    return bisect_min_radius(feasible, tol, hi_start=1.0)


def min_output_radius(space_a: SymmetricStateSpace,
                      space_b: SymmetricStateSpace, phi: float,
                      tol: float = 1e-3, n: int = 40) -> float:
    """Smallest cylinder radius R such that the gate output on every pair of
    extremal circles of the two spaces is separable over Cyl(R) x Cyl(R)."""
    targets = _gate_targets(space_a, space_b, phi)

    def feasible(r):
        out = cylinder(r)
        return all(_fits(t, out, out, n) for t in targets)

    hi_start = max(space_a.radius, space_b.radius, 1e-6)
    return bisect_min_radius(feasible, tol, hi_start=hi_start)


def r_star_point_set(points_a, points_b, reps_a, reps_b, phi: float,
                     tol: float = 1e-3) -> float:
    """R* over raw finite point sets, lists of BlochVector: decomposition
    candidates are exactly the given points (their convex hull is the state
    space).  The point sets are invariant under a discrete Z-rotation group,
    and `reps_a`/`reps_b` list one input representative per orbit; rotated
    inputs decompose by rotating a representative's decomposition."""
    pts_a = np.array([p.as_array() for p in points_a])
    pts_b = np.array([p.as_array() for p in points_b])
    ins_a = np.array([v.as_array() for v in reps_a])
    ins_b = np.array([v.as_array() for v in reps_b])
    targets = list(apply_gate_paulis(np.full(len(ins_a) * len(ins_b), phi),
                                     np.repeat(ins_a, len(ins_b), axis=0),
                                     np.tile(ins_b, (len(ins_a), 1))))

    def feasible(r):
        return all(solve_lp(pts_a, pts_b, _phased_target(t, 1.0 / r).reshape(16))[0]
                   <= LP_TOL for t in targets)

    return bisect_min_radius(feasible, tol, hi_start=1.0)


def _bspace_first_gate_feasible(r, r_target, phi, n):
    if r >= 1.0:
        return False
    space = b_space(r, math.sqrt(1.0 - r * r))
    out = cylinder(r_target)
    return all(_fits(t, out, out, n) for t in _gate_targets(space, space, phi))


def max_input_radius_bspace(delta: int, phi: float, n: int = 40,
                            tol: float = 1e-4, trail: list | None = None) -> float:
    """Largest input radius r for which the first-gate output on two
    B(r, sqrt(1-r^2)) extrema fits in cylinders small enough that the
    remaining delta-1 gates (each growing by lambda(phi)) stay within radius
    1: the LP must place it inside Cyl(lambda^-(delta-1)).  The bisection
    width tol must lie in (0, 1), the bracket [0, 1) of the search.

    When `trail` is a list, every probed radius is appended to it as
    (r, feasible)."""
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"search width must lie in (0, 1), not {tol!r}")
    r_target = lambda_phi(phi) ** (-(delta - 1))

    def feasible(r):
        ok = _bspace_first_gate_feasible(r, r_target, phi, n)
        if trail is not None:
            trail.append((r, ok))
        return ok

    # bisect on [0, 1); radius 1 - tol is the hard cap for valid inputs
    if feasible(1.0 - tol):
        return 1.0 - tol
    return bisect_bracket(lambda r: not feasible(r), 0.0, 1.0 - tol, tol)[0]


def bspace_search_rows(delta: int, phi: float, n: int = 40, tol: float = 1e-4):
    """CSV-facing B-space search: for every radius probed by the bisection,
    report (r, feasible, R1) with R1 the minimal output cylinder radius of
    the first gate on B(r, sqrt(1-r^2)) inputs."""
    trail: list = []
    best = max_input_radius_bspace(delta, phi, n=n, tol=tol, trail=trail)
    rows = []
    for r, ok in trail:
        if r >= 1.0:
            rows.append((r, ok, math.inf))
            continue
        space = b_space(r, math.sqrt(1.0 - r * r))
        r1 = min_output_radius(space, space, phi, tol=_ROW_RADIUS_TOL,
                               n=_ROW_RADIUS_N)
        rows.append((r, ok, r1))
    return best, rows


def cylinder_max_input_radius(delta: int, phi: float) -> float:
    """Cylinder baseline for the same accounting: lambda(phi)^-delta."""
    return lambda_phi(phi) ** (-delta)


@dataclass(frozen=True)
class Lemma8Report:
    precondition_met: bool
    space_r_star: float | None
    cylinder_r_star: float | None
    satisfied: bool | None
    message: str


def lemma8_audit(space: SymmetricStateSpace, phi: float, n: int = 40,
                 tol: float = 1e-3) -> Lemma8Report:
    """Check that a space touching z = +-1 off-axis needs at least the
    cylinder's phasing growth.  Spaces with zero radius at both poles are
    outside the statement and are reported, not asserted."""
    touches = any(abs(abs(z) - 1.0) <= _PROFILE_TOL and r > 0.0
                  for z, r in space.profile)
    if not touches:
        return Lemma8Report(False, None, None, None,
                            "no breakpoint with |z| = 1 and radius > 0; "
                            "cylinder optimality is silent on this space")
    space_r = r_star(space, space, phi, n=n, tol=tol)
    cyl = cylinder(space.radius)
    cyl_r = r_star(cyl, cyl, phi, n=n, tol=tol)
    ok = space_r >= cyl_r - 2.0 * tol
    return Lemma8Report(True, space_r, cyl_r, ok,
                        "growth is at least the cylinder's" if ok else
                        "space appears to beat the cylinder: check tolerances")
