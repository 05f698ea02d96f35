"""Existence thresholds for consistent cylinder lattices.

Steering bounds, the 1D radius recursion and its fixed points, the coarse
graining threshold, and dimension-recursive bounds built from the logistic
map.  These mark out the radius regimes where no sequence of diagonal
interactions and cylindrical measurements ever yields a negative probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import MeasurementSpec
from .experiment import ExperimentSpec, GateStep, MeasureStep, NodeInput, SamplerSettings
from .growth import LAMBDA_CZ


def steer_max(r_a: float, r_b: float) -> float:
    """Largest radius particle B can be steered to by post-selecting an
    XY-plane measurement on its partner A: r_b / (1 - r_a)."""
    if r_a > 0.5 or r_b > 0.5:
        raise ValueError("steering bound assumes both radii <= 1/2")
    if r_a < 0 or r_b < 0:
        raise ValueError("radii must be >= 0")
    return r_b / (1.0 - r_a)


def steered_radius(r_a, r_b, a, phi):
    """Radius of B after projecting A onto an XY state, as a function of the
    angle offset a = omega - theta_A and the gate phase.  Broadcasts over
    numpy arrays of angles."""
    num = np.abs(1.0 + 0.5 * r_a * (np.exp(-1j * a) + np.exp(1j * (a - phi))))
    return r_b * num / np.abs(1.0 + r_a * np.cos(a))


def fixed_points(r: float) -> set[float]:
    """Real fixed points of R -> r / (1 - R): (1 +- sqrt(1 - 4r)) / 2;
    empty for r > 1/4."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r > 0.25:
        return set()
    root = math.sqrt(1.0 - 4.0 * r)
    return {(1.0 - root) / 2.0, (1.0 + root) / 2.0}


# Successive recursion values closer than this count as converged.
_CONVERGED_STEP = 1e-12


class RecursionResult(NamedTuple):
    trajectory: np.ndarray
    verdict: str  # "converged" | "diverged" | "undecided"
    value: float | None  # limit when converged
    step: int | None  # divergence step when diverged


def iterate_recursion(r: float, r1: float, steps: int = 1_000_000) -> RecursionResult:
    """Iterate the steering recursion R <- r / (1 - R).

    Divergence is declared as soon as R >= 1 (the radius leaves the dual of
    the permitted measurements); convergence when successive values differ by
    less than 1e-12."""
    if r < 0 or r1 < 0:
        raise ValueError("radii must be >= 0")
    traj = [r1]
    current = r1
    for k in range(1, steps + 1):
        if current >= 1.0:
            return RecursionResult(np.array(traj), "diverged", None, k - 1)
        nxt = r / (1.0 - current)
        traj.append(nxt)
        if abs(nxt - current) < _CONVERGED_STEP:
            return RecursionResult(np.array(traj), "converged", nxt, None)
        current = nxt
    if current >= 1.0:
        return RecursionResult(np.array(traj), "diverged", None, steps)
    return RecursionResult(np.array(traj), "undecided", None, None)


@dataclass(frozen=True)
class MatterBounds:
    """Bracketing of the supremum radius F_D at which consistent cylinder
    lattices exist in spatial dimension D."""

    dim: int
    lower: float
    upper: float


def logistic_upper_bounds(max_dim: int) -> list[float]:
    """Upper bounds F_D <= F_{D-1} (1 - F_{D-1}), seeded with F_1 = 1/4."""
    bounds = [0.25]
    for _ in range(max_dim - 1):
        f = bounds[-1]
        bounds.append(f * (1.0 - f))
    return bounds


def matter_bounds(dim: int, literal_exponent: bool = False) -> MatterBounds:
    """Lower and upper bounds on F_D for rectilinear lattices.

    The lower bound comes from the matched-pair construction at degree
    Delta = 2*dim: lambda_CZ^-(Delta-1) / 2.  `literal_exponent` exposes the
    weaker exponent -(2*dim + 1) instead (the two appear in different
    statements of the source material; neither is silently corrected).
    For dim = 1 the threshold is exactly 1/4."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    exponent = 2 * dim + 1 if literal_exponent else 2 * dim - 1
    lower = LAMBDA_CZ ** (-exponent) / 2.0
    upper = logistic_upper_bounds(dim)[-1]
    return MatterBounds(dim, lower, upper)


def coarse_grain_threshold_1d(growth: float = LAMBDA_CZ) -> float:
    """Largest radius at which 1D cylinder chains admit a coarse-grained
    block-separable description: (1 - (1 - 2/growth)^2) / 4 ~ 0.2498.

    The two block constraints (lower fixed point below 1/growth; boundary
    seed below the upper fixed point) collapse to this single value; the
    collapse is asserted here.  Below growth 2 the steering constraint never
    binds (the lower fixed point stays under 1/growth for every existing
    radius) and the plain existence threshold 1/4 rules."""
    if growth <= 2.0:
        return 0.25
    r = (1.0 - (1.0 - 2.0 / growth) ** 2) / 4.0
    root = math.sqrt(1.0 - 4.0 * r)
    lower_fp = (1.0 - root) / 2.0
    upper_fp = (1.0 + root) / 2.0
    # first constraint binds exactly at the threshold
    assert abs(lower_fp - 1.0 / growth) < 1e-12
    # the second (boundary seed strictly below the upper fixed point) is the
    # first multiplied through by the lower fixed point
    assert growth * r <= upper_fp + 1e-12
    return r


def comb_construction(dim: int, grid_size: int, radius: float | None = None,
                      phi: float = math.pi):
    """Generate the comb measurement pattern used for dimension reduction.

    dim=1 gives a plain chain; dim=2 a grid where alternating half-columns
    are projected out in Z and the rest steer toward the central row.  For
    dim >= 3 only a textual description of the pattern is returned."""
    if dim >= 3:
        return ("project out, along the last axis and per 2-colouring of the "
                "central slice, all sites strictly above blue sites and "
                "strictly below orange sites in Z; steer the remaining "
                "half-columns toward the central slice with XY measurements; "
                "then recurse on the central (dim-1)-dimensional slice")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")

    if dim == 1:
        n = grid_size
        edges = [(i, i + 1) for i in range(n - 1)]
        schedule = [MeasureStep(i, MeasurementSpec("XY", 0.0, "quasi-destructive"))
                    for i in range(n)]
    else:
        w = h = grid_size
        node = lambda x, y: y * w + x
        edges = []
        for y in range(h):
            for x in range(w):
                if x + 1 < w:
                    edges.append((node(x, y), node(x + 1, y)))
                if y + 1 < h:
                    edges.append((node(x, y), node(x, y + 1)))
        y_c = h // 2
        gray, chains = [], []
        for x in range(w):
            if x % 2 == 0:  # blue: remove above, keep the chain below
                gray += [node(x, y) for y in range(y_c + 1, h)]
                chains.append([node(x, y) for y in range(0, y_c)])  # outermost first
            else:  # orange: remove below, keep the chain above
                gray += [node(x, y) for y in range(0, y_c)]
                chains.append([node(x, y) for y in range(h - 1, y_c, -1)])
        schedule = [MeasureStep(g, MeasurementSpec("Z", 0.0, "quasi-destructive"))
                    for g in gray]
        for chain in chains:
            schedule += [MeasureStep(c, MeasurementSpec("XY", 0.0, "quasi-destructive"))
                         for c in chain]
        schedule += [MeasureStep(node(x, y_c),
                                 MeasurementSpec("XY", 0.0, "quasi-destructive"))
                     for x in range(w)]
        n = w * h

    degree = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    if radius is None:
        radius = LAMBDA_CZ ** (-max(degree.values()))
    theta = math.asin(radius)

    return ExperimentSpec(
        edges=edges,
        inputs={i: NodeInput(theta) for i in range(n)},
        gates=[GateStep(e, phi) for e in edges],
        schedule=schedule,
        sampler=SamplerSettings(num_samples=10000, seed=1),
    )
