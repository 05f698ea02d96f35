import math

import numpy as np
import pytest

from cylsim.experiment import ExperimentSpec, radius_ledger
from cylsim.growth import LAMBDA_CZ
from cylsim.matter import (
    coarse_grain_threshold_1d,
    comb_construction,
    fixed_points,
    iterate_recursion,
    logistic_upper_bounds,
    matter_bounds,
    steer_max,
    steered_radius,
)
from cylsim.oracle import TooManyQubits, exact_distribution


def test_steer_max_examples():
    assert steer_max(0.25, 0.25) == pytest.approx(1 / 3, abs=1e-15)
    assert steer_max(0.5, 0.3) == pytest.approx(0.6, abs=1e-15)
    assert steer_max(0.0, 0.4) == 0.4
    with pytest.raises(ValueError):
        steer_max(0.6, 0.1)


def test_steer_max_bounds_numeric_maximisation():
    rng = np.random.default_rng(43)
    for _ in range(5):
        r_a, r_b = rng.uniform(0.05, 0.5, 2)
        grid = np.linspace(0, 2 * math.pi, 201)
        best = max(steered_radius(r_a, r_b, a, phi)
                   for a in grid for phi in grid)
        # refine around the analytic maximiser (a = phi = pi)
        fine = np.linspace(math.pi - 0.05, math.pi + 0.05, 101)
        best = max(best, max(steered_radius(r_a, r_b, a, phi)
                             for a in fine for phi in fine))
        assert best == pytest.approx(steer_max(r_a, r_b), abs=1e-3)
        assert best <= steer_max(r_a, r_b) + 1e-12


def test_fixed_points():
    assert fixed_points(0.25) == {0.5}
    assert fixed_points(3 / 16) == {0.25, 0.75}
    assert fixed_points(0.3) == set()
    for r in (0.01, 0.1, 0.2, 0.24):
        for fp in fixed_points(r):
            assert abs(r / (1 - fp) - fp) < 1e-12


def test_iterate_recursion():
    res = iterate_recursion(0.2, 0.2)
    assert res.verdict == "converged"
    assert res.value == pytest.approx((1 - math.sqrt(0.2)) / 2, abs=1e-9)

    res = iterate_recursion(0.3, 0.1, steps=10000)
    assert res.verdict == "diverged"
    assert res.step is not None

    res = iterate_recursion(0.25, 0.1, steps=2_000_000)
    assert res.verdict == "converged"
    assert res.value == pytest.approx(0.5, abs=1e-5)


def test_matter_bounds():
    b1 = matter_bounds(1)
    assert b1.upper == 0.25
    assert b1.lower == pytest.approx(LAMBDA_CZ ** -1 / 2, abs=1e-15)
    assert b1.lower == pytest.approx(0.24293, abs=1e-5)

    assert matter_bounds(2).upper == pytest.approx(3 / 16, abs=1e-15)
    assert matter_bounds(3).upper == pytest.approx(39 / 256, abs=1e-15)

    lit = matter_bounds(1, literal_exponent=True)
    assert lit.lower == pytest.approx(LAMBDA_CZ ** -3 / 2, abs=1e-15)

    for dim in range(1, 11):
        b = matter_bounds(dim)
        assert 0 < b.lower <= b.upper <= 0.5

    ups = logistic_upper_bounds(200)
    assert all(b < a for a, b in zip(ups, ups[1:]))
    assert ups[-1] < 0.006  # logistic decay toward zero goes like 1/D


def test_coarse_grain_threshold():
    value = coarse_grain_threshold_1d()
    assert value == pytest.approx(0.24980, abs=1e-5)
    assert value < 0.25
    assert coarse_grain_threshold_1d(growth=1.0) == pytest.approx(0.25, abs=1e-15)


def test_comb_construction_2d():
    spec = comb_construction(2, 3)
    assert isinstance(spec, ExperimentSpec)
    assert len(spec.node_ids()) == 9
    # central row y=1 nodes are 3,4,5; gray sites: x even above, x odd below
    measured = [m.node for m in spec.schedule]
    assert set(measured) == set(range(9))
    z_nodes = {m.node for m in spec.schedule if m.spec.kind == "Z"}
    assert z_nodes == {6, 8, 1}
    # central row measured last
    assert measured[-3:] == [3, 4, 5]
    res = radius_ledger(spec)
    assert res.simulable


def test_comb_construction_1d_and_large():
    chain = comb_construction(1, 6)
    assert isinstance(chain, ExperimentSpec)
    assert len(chain.edges) == 5
    assert radius_ledger(chain).simulable

    big = comb_construction(2, 100)
    assert len(big.node_ids()) == 10000  # emitted fine; the oracle refuses it
    with pytest.raises(TooManyQubits):
        exact_distribution(big)

    desc = comb_construction(3, 5)
    assert isinstance(desc, str)


def test_comb_default_radius_is_theorem_bound():
    spec = comb_construction(2, 3)
    deg = {node: 0 for node in spec.node_ids()}
    for edge in spec.edges:
        for node in edge:
            deg[node] += 1
    r0 = max(spec.inputs[n].radius() for n in spec.node_ids())
    assert r0 == pytest.approx(LAMBDA_CZ ** -max(deg.values()), abs=1e-12)
