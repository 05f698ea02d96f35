import math

import numpy as np
import pytest

from cylsim import decompose, statespace
from cylsim.bloch import BlochVector
from cylsim.growth import LAMBDA_CZ
from cylsim.statespace import (
    SymmetricStateSpace,
    b_space,
    cylinder,
    cylinder_max_input_radius,
    lemma8_audit,
    max_input_radius_bspace,
    min_output_radius,
    profile_hull,
    r_star,
    r_star_point_set,
    symmetrize,
)
from reference import apply_gate_pauli, coeffs


def test_b_space_examples():
    sketch = b_space(0.8, 0.6)
    assert sketch.profile == ((-1.0, 0.0), (-0.6, 0.8), (0.6, 0.8), (1.0, 0.0))
    assert b_space(0.3, 1.0).profile == cylinder(0.3).profile
    segment = b_space(0.0, 0.5)
    assert all(r == 0.0 for _z, r in segment.profile)
    with pytest.raises(ValueError):
        b_space(0.1, 1.2)


def test_b_space_inside_cylinder():
    space = b_space(0.4, 0.7)
    cyl = cylinder(0.4)
    for z, r in space.profile:
        for az in np.linspace(0, 2 * math.pi, 9):
            v = BlochVector(r * math.cos(az), r * math.sin(az), z)
            assert cyl.contains(v)
    assert not space.contains(BlochVector(0.4, 0, 0.9))  # cut corner


def test_profile_validation():
    with pytest.raises(ValueError, match="concave"):
        SymmetricStateSpace(((-1.0, 0.5), (0.0, 0.1), (1.0, 0.5)))
    with pytest.raises(ValueError, match="increasing"):
        SymmetricStateSpace(((0.0, 0.5), (0.0, 0.6)))
    with pytest.raises(ValueError, match="z"):
        SymmetricStateSpace(((-1.5, 0.5), (1.0, 0.5)))


def test_symmetrize_single_point():
    space = symmetrize([BlochVector(0.3, 0.4, 0.2)])
    assert space.profile == ((0.2, 0.5),)
    assert space.contains(BlochVector(-0.5, 0, 0.2))
    assert not space.contains(BlochVector(0.1, 0, 0.3))


def test_symmetrize_two_circles_gives_cylinder():
    space = symmetrize([BlochVector(0.25, 0, 1), BlochVector(0.25, 0, -1)])
    assert space.profile == cylinder(0.25).profile


def test_symmetrize_point_plus_poles():
    theta = 0.6
    space = symmetrize([BlochVector(math.sin(theta), 0, math.cos(theta)),
                        BlochVector(0, 0, 1), BlochVector(0, 0, -1)])
    for p in (BlochVector(math.sin(theta), 0, math.cos(theta)),
              BlochVector(0, 0, 1), BlochVector(0, 0, -1)):
        assert space.contains(p)
    assert space.z_extent() == (-1.0, 1.0)


def test_symmetrize_idempotent():
    for space in (b_space(0.7, 0.4), cylinder(0.3),
                  SymmetricStateSpace(((-1.0, 0.2), (0.1, 0.6), (1.0, 0.1)))):
        points = [BlochVector(r, 0.0, z) for z, r in space.profile]
        again = symmetrize(points)
        assert len(again.profile) == len(space.profile)
        for (z1, r1), (z2, r2) in zip(again.profile, space.profile):
            assert abs(z1 - z2) < 1e-12 and abs(r1 - r2) < 1e-12


def test_symmetrize_drops_interior_points():
    pts = [BlochVector(0.5, 0, -1), BlochVector(0.5, 0, 1),
           BlochVector(0.2, 0.1, 0.0)]  # strictly inside the cylinder hull
    space = symmetrize(pts)
    assert space.profile == ((-1.0, 0.5), (1.0, 0.5))


def test_r_star_cylinders():
    assert r_star(cylinder(0.1), cylinder(0.1), math.pi,
                  n=40, tol=1e-3) == pytest.approx(LAMBDA_CZ, abs=2e-3)
    assert r_star(cylinder(0.2), cylinder(0.2), 0.0,
                  n=24, tol=1e-3) == pytest.approx(1.0, abs=2e-3)


def test_r_star_cylinder_radius_pinned():
    # the radius BENCH_lp.json records for this search: a change to how the
    # LP is solved must keep every bisection verdict
    assert r_star(cylinder(0.1), cylinder(0.1), math.pi, n=40) == 2.05859375


def test_section_viii_effect_output_cylinder():
    # the first-gate output of B-space inputs fits a smaller cylinder than
    # the lambda-grown cylinder accounting predicts
    r = 0.115
    space = b_space(r, math.sqrt(1 - r * r))
    r1 = min_output_radius(space, space, math.pi, tol=2e-4, n=40)
    assert r1 < LAMBDA_CZ * r - 2e-4
    # while the cylinder input of the same radius needs the full growth
    cyl_out = min_output_radius(cylinder(r), cylinder(r), math.pi, tol=2e-4, n=40)
    assert cyl_out == pytest.approx(LAMBDA_CZ * r, abs=1e-3)


def test_max_input_radius_bspace_smoke():
    # coarse run; the paper-accuracy run is in the acceptance suite
    best = max_input_radius_bspace(3, math.pi, n=24, tol=1e-3)
    baseline = cylinder_max_input_radius(3, math.pi)
    assert baseline == pytest.approx(LAMBDA_CZ ** -3, abs=1e-12)
    assert best > baseline
    assert best == pytest.approx(0.1153, abs=3e-3)


def test_max_input_radius_identity_gate():
    assert max_input_radius_bspace(3, 0.0, n=16, tol=1e-3) == pytest.approx(
        1.0, abs=2e-3)


def test_lemma8_audit_cases():
    rep = lemma8_audit(cylinder(0.2), math.pi, n=16, tol=5e-3)
    assert rep.precondition_met and rep.satisfied
    assert rep.space_r_star == pytest.approx(rep.cylinder_r_star, abs=1e-9)

    cone = SymmetricStateSpace(((-1.0, 0.2), (1.0, 0.1)))
    rep = lemma8_audit(cone, math.pi, n=16, tol=5e-3)
    assert rep.precondition_met and rep.satisfied

    rep = lemma8_audit(b_space(0.3, 0.9), math.pi)
    assert not rep.precondition_met and rep.satisfied is None


def test_lemma7_hull_inequality_small():
    rng = np.random.default_rng(47)
    s_b = cylinder(0.25)
    tol = 1e-2
    for _ in range(4):
        r1, r2 = rng.uniform(0.1, 0.4, 2)
        h1, h2 = rng.uniform(0.3, 0.9, 2)
        s, t = b_space(r1, h1), b_space(r2, h2)
        hull = profile_hull(s, t)
        r_hull = r_star(hull, s_b, math.pi, n=16, tol=tol)
        r_s = r_star(s, s_b, math.pi, n=16, tol=tol)
        r_t = r_star(t, s_b, math.pi, n=16, tol=tol)
        assert r_hull <= max(r_s, r_t) + 2 * tol


def test_twirl_monotonicity_small():
    # point sets sampled from circles at z = +-1, where the raw-set growth
    # exists (interior-z circles need continuum azimuths and have no finite
    # R*, which the source material allows for)
    rng = np.random.default_rng(53)
    tol = 1e-2
    n = 16
    for _ in range(3):
        circles = [(-1.0, rng.uniform(0.1, 0.4)), (1.0, rng.uniform(0.1, 0.4))]
        azs = 2 * math.pi * np.arange(8) / 8  # aligned with the n=16 grid
        raw = [BlochVector(r * math.cos(a), r * math.sin(a), z)
               for z, r in circles for a in azs]
        sym = symmetrize(raw)
        cyl_pts = [BlochVector(0.25 * math.cos(a), 0.25 * math.sin(a), z)
                   for z in (-1.0, 1.0) for a in 2 * math.pi * np.arange(n) / n]
        reps_a = [BlochVector(r, 0.0, z) for z, r in circles]
        reps_b = [BlochVector(0.25, 0.0, -1.0), BlochVector(0.25, 0.0, 1.0)]
        r_raw = r_star_point_set(raw, cyl_pts, reps_a, reps_b, math.pi, tol=tol)
        r_sym = r_star(sym, cylinder(0.25), math.pi, n=n, tol=tol)
        assert r_sym <= r_raw + 2 * tol


def _lp_fits(target, space_a, space_b, n=40):
    """The LP verdict that `_fits` gave every target before the product rule."""
    return decompose.decompose_over_circles(target, space_a.profile, space_b.profile,
                                            n, refine_rounds=2)[0] <= decompose.LP_TOL


def test_product_targets_get_the_lp_verdict():
    # a product target is decided factor by factor, with the LP's verdict on
    # both sides of the hull boundary: factor radii at 1 -+ 1e-3 times the
    # space's radius at the factor's z, inside the hull and at the poles,
    # over cylinder and B-space circles
    rng = np.random.default_rng(97)
    spaces = [cylinder(0.3), b_space(0.4, 0.6)]
    checked = {True: 0, False: 0}
    for space in spaces:
        for other in spaces:
            lo, hi = space.z_extent()
            for z in (lo, -0.8, -0.3, 0.2, 0.6, 0.9, hi):
                rho = space.radius_at(z)
                for scale, inside in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
                    # at a B-space pole the outside factor sits 1e-3 off the axis
                    r = rho * scale if rho > 0.0 else (0.0 if inside else 1e-3)
                    az = rng.uniform(0.0, 2 * math.pi)
                    a = BlochVector(r * math.cos(az), r * math.sin(az), z)
                    z_b, r_b = other.profile[rng.integers(len(other.profile))]
                    b = BlochVector(0.5 * r_b, 0.0, z_b)
                    # the probed factor on side A, then on side B
                    for target, sides in ((np.outer(coeffs(a), coeffs(b)), (space, other)),
                                          (np.outer(coeffs(b), coeffs(a)), (other, space))):
                        verdict = statespace._fits(target, *sides, 40)
                        assert verdict == inside == _lp_fits(target, *sides), (z, scale)
                        checked[inside] += 1
    assert min(checked.values()) >= 40


def test_pole_disc_targets_solve_no_lp(monkeypatch):
    # every gate output on a pole and a disc point is a product: the search
    # over them solves no LP
    calls = []
    real_run_master = decompose.run_master

    def counting(*args, **kwargs):
        calls.append(1)
        return real_run_master(*args, **kwargs)

    monkeypatch.setattr(decompose, "run_master", counting)
    r = min_output_radius(b_space(0.0, 0.5), b_space(0.3, 0.8), math.pi, tol=1e-3)
    assert calls == []
    assert 0.3 <= r <= 0.3 + 1e-3
    target = apply_gate_pauli(math.pi, BlochVector(0.0, 0.0, 1.0),
                              BlochVector(0.3, 0.0, 0.8))
    assert statespace._fits(target, cylinder(0.3), cylinder(0.3), 40)
    assert not statespace._fits(target, cylinder(0.29), cylinder(0.29), 40)
    assert calls == []
