import importlib.machinery
import importlib.util
import math
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from cylsim import decompose, statespace
from cylsim.bloch import BlochVector, apply_gate_paulis, radius
from cylsim.decompose import (
    Decomposition,
    closed_forms,
    reconstruct,
    residual_lower_bound,
    solve_lp,
)
from cylsim.growth import LAMBDA_CZ, lambda_phi, lemma1_feasible, lemma1_lhs
from cylsim.sampler import InfeasibleRequest
from cylsim.statespace import cylinder, min_output_radius
from reference import (
    NonExtremalInput,
    apply_gate_pauli,
    closed_form_decomposition,
    coupling_operator,
    decompose_gate_output,
    decompose_gate_outputs,
    hull_membership,
    scalar_closed_form,
    terms_row,
    z_rotate,
)


def test_reduced_determinant_boundary_zero():
    f = math.sqrt(math.sqrt(5) - 2)
    assert abs(lemma1_lhs(f, f, math.pi)) < 1e-12


def test_reduced_determinant_examples():
    # direct evaluation at f_a = f_b = 0.1, phi = pi:
    # f^8 + 4 f^6 - 2 f^4 - 4 f^2 + 1
    assert lemma1_lhs(0.1, 0.1, math.pi) == pytest.approx(0.95980401, abs=1e-10)
    # closed form 2 fB^2 (1 - cos phi)(fB^2 - 1) at f_a = 1
    assert lemma1_lhs(1.0, 0.5, math.pi) == pytest.approx(-0.75, abs=1e-12)


def test_reduced_determinant_matches_numeric_det():
    rng = np.random.default_rng(29)
    for _ in range(300):
        f_a, f_b = rng.uniform(0.0, 1.2, 2)
        phi = rng.uniform(0.01, 2 * math.pi - 0.01)
        analytic = lemma1_lhs(f_a, f_b, phi)
        numeric = np.linalg.det(coupling_operator(f_a, f_b, phi))
        assert abs(numeric.imag) < 1e-9
        assert analytic == pytest.approx(numeric.real, abs=1e-9)


def test_reduced_determinant_symmetries_exact():
    rng = np.random.default_rng(31)
    for _ in range(100):
        f_a, f_b = rng.uniform(0, 1, 2)
        phi = rng.uniform(0, 2 * math.pi)
        d = lemma1_lhs(f_a, f_b, phi)
        assert lemma1_lhs(f_b, f_a, phi) == d
        # -phi is the exactly representable reflection of phi mod 2*pi
        assert lemma1_lhs(f_a, f_b, -phi) == d
        # the caller-side rounding of 2*pi - phi costs at most a few ulps
        assert lemma1_lhs(f_a, f_b, 2 * math.pi - phi) == \
            pytest.approx(d, abs=5e-15)


def _random_extremal(rng, r):
    az = rng.uniform(0, 2 * math.pi)
    z = 1.0 if rng.random() < 0.5 else -1.0
    return BlochVector(r * math.cos(az), r * math.sin(az), z)


def _radii(points):
    return np.hypot(points[:, 0], points[:, 1])


def test_decompose_rejects_non_extremal():
    with pytest.raises(NonExtremalInput):
        decompose_gate_output(BlochVector(0.1, 0, 0.5), BlochVector(0.1, 0, 1),
                              math.pi, 0.3, 0.3)


def test_hull_membership_product_target():
    v_a, v_b = BlochVector(0.3, 0, 1), BlochVector(0.2, 0, -1)
    target = apply_gate_pauli(0.0, v_a, v_b)
    feasible, d, residual = hull_membership(target, 0.3, 0.2, n=40)
    assert feasible and residual < 1e-9
    assert len(d.weights) == 1
    assert d.weights[0] == pytest.approx(1.0)


def test_hull_membership_boundary_feasible():
    for r in (0.1, 0.2):
        target = apply_gate_pauli(math.pi, BlochVector(r, 0, 1), BlochVector(r, 0, 1))
        feasible, d, residual = hull_membership(
            target, LAMBDA_CZ * r, LAMBDA_CZ * r, n=40)
        assert feasible, f"boundary infeasible at r={r}, residual={residual}"
        assert residual < 1e-7
        assert np.max(np.abs(reconstruct(d) - target)) <= 1e-7 + 1e-12


def test_hull_membership_infeasible_inside_boundary():
    r = 0.2
    r_out = 0.9 * LAMBDA_CZ * r
    # the analytic predicate rejects first
    assert not lemma1_feasible(r / r_out, r / r_out, math.pi)
    target = apply_gate_pauli(math.pi, BlochVector(r, 0, 1), BlochVector(r, 0, 1))
    feasible, _d, residual = hull_membership(target, r_out, r_out, n=40)
    assert not feasible
    assert residual > 1e-4


def test_solve_lp_matches_single_lp():
    # column generation reaches the optimum of one LP over all 6400 columns
    n = 80
    nu = 2 * math.pi * np.arange(n) / n
    pts = np.column_stack([np.cos(nu), np.sin(nu), np.ones(n)])
    ext = np.column_stack([np.ones(n), pts])
    full_a = np.einsum("ia,jb->abij", ext, ext).reshape(16, -1)
    ones = np.ones((16, 1))
    rng = np.random.default_rng(41)
    for _ in range(12):
        f_a, f_b = rng.uniform(0.05, 0.95, 2)
        phi = rng.uniform(0.1, 2 * math.pi - 0.1)
        target16 = apply_gate_pauli(phi, BlochVector(f_a, 0, 1),
                                    BlochVector(f_b, 0, 1)).reshape(16)
        cost = np.zeros(n * n + 1)
        cost[-1] = 1.0
        single = linprog(cost, A_ub=np.vstack([np.hstack([full_a, -ones]),
                                               np.hstack([-full_a, -ones])]),
                         b_ub=np.concatenate([target16, -target16]),
                         bounds=(0, None), method="highs").fun
        residual, weights, _duals = solve_lp(pts, pts, target16)
        assert single - 1e-8 <= residual <= single + 1e-9
        assert weights.shape == (n * n,) and weights.min() >= 0.0
        assert np.max(np.abs(full_a @ weights - target16)) <= residual + 1e-9


def _all_column_lp(pts_a, pts_b, target16):
    """Reference LP: every product column and all 16 rows, no pole rule and
    no column generation.  Returns (residual, full constraint matrix)."""
    ca = np.column_stack([np.ones(len(pts_a)), pts_a])
    cb = np.column_stack([np.ones(len(pts_b)), pts_b])
    full = np.einsum("ia,jb->abij", ca, cb).reshape(16, -1)
    ones = np.ones((16, 1))
    cost = np.zeros(full.shape[1] + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.vstack([np.hstack([full, -ones]),
                                        np.hstack([-full, -ones])]),
                  b_ub=np.concatenate([target16, -target16]),
                  bounds=(0, None), method="highs")
    return res.fun, full


def _circle_points(circles, n):
    return np.array([(r * math.cos(a), r * math.sin(a), z) for z, r in circles
                     for a in (2 * math.pi * np.arange(n) / n if r > 0 else [0.0])])


def _phased(m, r):
    out = m.copy()
    out[1:3, :] /= r
    out[:, 1:3] /= r
    return out


def _pole_rule_cases(rng, count):
    """(family, pts_a, pts_b, target16) from random pole inputs: a cylinder
    hull test, an r_star probe over B-space circles, and an r_star_point_set
    probe over raw points on circles at z = +-1 of unequal radii."""
    for _ in range(count):
        phi = rng.uniform(0.1, 2 * math.pi - 0.1)
        r_a, r_b = rng.uniform(0.05, 0.5, 2)
        az_a, az_b = rng.uniform(0.0, 2 * math.pi, 2)
        z_a, z_b = rng.choice([-1.0, 1.0], 2)
        v_a = BlochVector(r_a * math.cos(az_a), r_a * math.sin(az_a), z_a)
        # side B is off its poles in a third of the cases
        z_b = rng.choice([z_b, rng.uniform(-0.9, 0.9)], p=[2 / 3, 1 / 3])
        v_b = BlochVector(r_b * math.cos(az_b), r_b * math.sin(az_b), z_b)
        pts = _circle_points(cylinder(rng.uniform(0.5, 2.5) * max(r_a, r_b)).profile, 12)
        yield "cylinder", pts, pts, apply_gate_pauli(phi, v_a, v_b).reshape(16)

        space = statespace.b_space(rng.uniform(0.1, 0.5), rng.uniform(0.3, 0.9))
        ext = [BlochVector(r, 0.0, z) for z, r in space.profile]
        w_a, w_b = (ext[k] for k in rng.integers(len(ext), size=2))
        pts = _circle_points(space.profile, 12)
        target = _phased(apply_gate_pauli(phi, w_a, w_b), rng.uniform(0.8, 2.5))
        yield "b-space", pts, pts, target.reshape(16)

        raw = _circle_points([(-1.0, rng.uniform(0.1, 0.4)),
                              (1.0, rng.uniform(0.1, 0.4))], 8)
        cyl = _circle_points(cylinder(0.25).profile, 8)
        p_a, p_b = raw[rng.integers(len(raw))], cyl[rng.integers(len(cyl))]
        target = _phased(apply_gate_pauli(phi, BlochVector(*p_a), BlochVector(*p_b)),
                         rng.uniform(0.8, 2.5))
        yield "raw", raw, cyl, target.reshape(16)


def test_solve_lp_pole_rule_matches_all_column_lp(monkeypatch):
    # the pole rule keeps one pole's candidates on a pinned side and drops
    # its Z rows: the optimum matches the LP over every column and all 16
    # rows, and the weights reconstruct all 16 rows
    lp_rows = []
    real_run_master = decompose.run_master

    def counting(highs, rhs):
        lp_rows.append(highs.getNumRow() // 2)
        return real_run_master(highs, rhs)

    monkeypatch.setattr(decompose, "run_master", counting)
    rng = np.random.default_rng(71)
    pinned = {"cylinder": 0, "b-space": 0, "raw": 0}
    raw_decomposable = 0
    for family, pts_a, pts_b, target16 in _pole_rule_cases(rng, 30):
        reference, full = _all_column_lp(pts_a, pts_b, target16)
        lp_rows.clear()
        residual, weights, _duals = solve_lp(pts_a, pts_b, target16)
        pinned[family] += lp_rows[0] < 16
        assert weights.shape == (full.shape[1],) and weights.min() >= 0.0
        assert np.max(np.abs(full @ weights - target16)) <= residual + 1e-9
        if family == "raw":
            # off-pole raw points have no pole point with the same x and y,
            # so a pinned side's optimum can sit above the all-column one
            # when the target does not decompose; it decomposes in both or
            # in neither
            assert residual >= reference - 1e-9
            assert (residual <= 1e-9) == (reference <= 1e-9)
            raw_decomposable += reference <= 1e-9
            if reference > 1e-9:
                continue
        assert residual == pytest.approx(reference, abs=1e-9), family
    assert min(pinned.values()) >= 10 and raw_decomposable >= 5

    # a Z row off by 1e-9 is not pinned; one off by 1e-13 is
    pts = _circle_points(cylinder(0.3).profile, 12)
    exact = apply_gate_pauli(2.0, BlochVector(0.2, 0.0, 1.0),
                             BlochVector(0.1, 0.1, 0.4))
    for offset, rows in ((0.0, 12), (1e-13, 12), (1e-9, 16)):
        target = exact.copy()
        target[3, 0] += offset
        lp_rows.clear()
        solve_lp(pts, pts, target.reshape(16))
        assert lp_rows[0] == rows, offset


def _bound_cases(rng, count):
    """(circles_a, circles_b, target) for gate outputs on points of random
    cylinder and B-space circles at random phases, fitted over random
    cylinder and B-space output circles, a part of them too small."""
    def space(r):
        if rng.random() < 0.5:
            return cylinder(r)
        return statespace.b_space(r, rng.uniform(0.3, 0.9))

    for _ in range(count):
        phi = rng.uniform(0.1, 2 * math.pi - 0.1)
        r_in = rng.uniform(0.05, 0.4)
        inputs = space(r_in).profile
        v = []
        for _side in range(2):
            z, r = inputs[rng.integers(len(inputs))]
            az = rng.uniform(0.0, 2 * math.pi)
            v.append(BlochVector(r * math.cos(az), r * math.sin(az), z))
        out_a, out_b = (space(r_in * rng.uniform(0.9, 2.2)) for _side in range(2))
        yield out_a.profile, out_b.profile, apply_gate_pauli(phi, *v)


def _circles_of(pts):
    """The (z, radius) circles of points on circles about the z axis."""
    return [(z, float(np.max(np.hypot(*pts[pts[:, 2] == z, :2].T))))
            for z in np.unique(pts[:, 2])]


def _certificate_cases():
    """Over 200 targets, each with its circles and the points of one LP over
    them: the gate outputs of `_bound_cases` on 12 azimuths per circle, and
    the pole-rule family."""
    rng = np.random.default_rng(83)
    cases = [(ca, cb, t, _circle_points(ca, 12), _circle_points(cb, 12))
             for ca, cb, t in _bound_cases(rng, 120)]
    cases += [(_circles_of(pts_a), _circles_of(pts_b), t16.reshape(4, 4), pts_a, pts_b)
              for _family, pts_a, pts_b, t16 in _pole_rule_cases(rng, 30)]
    assert len(cases) >= 200
    return cases


def test_residual_lower_bound_is_sound(monkeypatch):
    # the dual bound never exceeds the smallest LP residual that a fine grid
    # with six refinement rounds reaches over the same circles, nor the
    # residual it returns; a bound <= 0 holds trivially, and the reference
    # runs with the early stop switched off
    cases = _certificate_cases()
    lp_residuals = []
    real_solve_lp = decompose.solve_lp

    def recording(*args):
        out = real_solve_lp(*args)
        lp_residuals.append(out[0])
        return out

    monkeypatch.setattr(decompose, "solve_lp", recording)
    monkeypatch.setattr(decompose, "residual_lower_bound", lambda *args: -math.inf)
    positive = 0
    for circles_a, circles_b, target, pts_a, pts_b in cases:
        _lp, _w, duals = real_solve_lp(pts_a, pts_b, target.reshape(16))
        bound = residual_lower_bound(target, duals, circles_a, circles_b)
        if bound <= 0.0:
            continue
        positive += 1
        lp_residuals.clear()
        reached, _d = decompose.decompose_over_circles(
            target, circles_a, circles_b, 80, refine_rounds=6)
        assert len(lp_residuals) == 7
        assert bound <= min(lp_residuals) + 1e-12, (bound, min(lp_residuals))
        assert bound <= reached + 1e-12
    assert positive >= 50


def test_residual_lower_bound_keeps_every_verdict(monkeypatch):
    # stopping on the bound gives every target the verdict that all the
    # refinement rounds give, and never a larger round count
    cases = _certificate_cases()
    calls = []
    real_run_master = decompose.run_master

    def counting(*args, **kwargs):
        calls.append(1)
        return real_run_master(*args, **kwargs)

    monkeypatch.setattr(decompose, "run_master", counting)
    stopped = []
    for circles_a, circles_b, target, _pts_a, _pts_b in cases:
        calls.clear()
        residual, _d = decompose.decompose_over_circles(target, circles_a, circles_b,
                                                        12, refine_rounds=6)
        stopped.append((residual <= 1e-7, len(calls)))
    monkeypatch.setattr(decompose, "residual_lower_bound", lambda *args: -math.inf)
    fewer = 0
    for (circles_a, circles_b, target, _pts_a, _pts_b), (verdict, count) in zip(cases, stopped):
        calls.clear()
        residual, _d = decompose.decompose_over_circles(target, circles_a, circles_b,
                                                        12, refine_rounds=6)
        assert verdict == (residual <= 1e-7)
        assert count <= len(calls)
        fewer += count < len(calls)
    assert fewer >= 50


def test_hull_membership_stops_on_the_dual_bound(monkeypatch):
    # the far-infeasible target of test_hull_membership_infeasible_inside_boundary
    # is decided by the LP solves of its first round
    calls = []
    real_run_master = decompose.run_master

    def counting(*args, **kwargs):
        calls.append(1)
        return real_run_master(*args, **kwargs)

    monkeypatch.setattr(decompose, "run_master", counting)
    r = 0.2
    r_out = 0.9 * LAMBDA_CZ * r
    target = apply_gate_pauli(math.pi, BlochVector(r, 0, 1), BlochVector(r, 0, 1))
    pts = _circle_points(cylinder(r_out).profile, 40)
    solve_lp(pts, pts, target.reshape(16))
    first_round = len(calls)
    calls.clear()
    feasible, _d, residual = hull_membership(target, r_out, r_out, n=40)
    assert not feasible and residual > 1e-4
    assert len(calls) == first_round


def test_hull_membership_reports_the_lp_residual():
    # the far-infeasible target of test_hull_membership_infeasible_inside_boundary:
    # the verdict and the residual are the first round's LP optimum, below
    # the miss of its support once the weights are renormalised
    r = 0.2
    r_out = 0.9 * LAMBDA_CZ * r
    target = apply_gate_pauli(math.pi, BlochVector(r, 0, 1), BlochVector(r, 0, 1))
    pts = _circle_points(cylinder(r_out).profile, 40)
    lp_residual, _w, _duals = solve_lp(pts, pts, target.reshape(16))
    feasible, d, residual = hull_membership(target, r_out, r_out, n=40)
    assert not feasible
    assert residual == lp_residual
    assert np.max(np.abs(reconstruct(d) - target)) > residual
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_decompose_fast_path_zero_radius():
    v_a = BlochVector(0, 0, 0.4)  # Z-diagonal, radius 0
    v_b = BlochVector(0.25, 0.1, 1.0)
    d = decompose_gate_output(v_a, v_b, 1.7, 0.0, radius(v_b))
    assert len(d.weights) == 2
    target = apply_gate_pauli(1.7, v_a, v_b)
    assert np.max(np.abs(reconstruct(d) - target)) < 1e-12
    # partner radius unchanged
    for r in _radii(d.b):
        assert r == pytest.approx(radius(v_b), abs=1e-12)


def test_decompose_fast_path_pole():
    # pole input gives a single branch
    d = decompose_gate_output(BlochVector(0, 0, 1.0), BlochVector(0.2, 0, 1),
                              math.pi, 0.0, 0.2)
    assert len(d.weights) == 1 and d.weights[0] == 1.0


def test_decompose_identity_gate():
    v_a, v_b = BlochVector(0.3, 0.1, 1), BlochVector(0.2, -0.1, -1)
    d = decompose_gate_output(v_a, v_b, 0.0, radius(v_a), radius(v_b))
    assert d.weights.tolist() == [1.0]
    assert d.a.tolist() == [v_a.as_array().tolist()]
    assert d.b.tolist() == [v_b.as_array().tolist()]


def test_decompose_lp_path_contract():
    r = 0.1
    v = BlochVector(r, 0, 1)
    d = decompose_gate_output(v, v, math.pi, LAMBDA_CZ * r, LAMBDA_CZ * r)
    target = apply_gate_pauli(math.pi, v, v)
    assert np.max(np.abs(reconstruct(d) - target)) <= 1e-12
    assert sum(d.weights) == pytest.approx(1.0, abs=1e-12)
    assert np.all(_radii(d.a) <= LAMBDA_CZ * r + 1e-9)
    assert np.all(_radii(d.b) <= LAMBDA_CZ * r + 1e-9)
    for z in d.a[:, 2]:
        assert abs(z) == pytest.approx(1.0)


def test_decompose_z_covariance():
    """Diagonal gates commute with local Z-rotations: the azimuth-0 terms,
    rotated per side, decompose the rotated inputs' gate output exactly, with
    the weights decompose_gate_output gives for the rotated inputs, in all z
    cases and for phases beyond pi and below 0 (the sampler tabulates at
    azimuth 0).  The terms themselves match too, also at f_a = f_b, where
    the Givens root no longer follows the sign of a rounding-level
    coupling."""
    rng = np.random.default_rng(53)
    for k in range(300):
        z_a, z_b = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))[k % 4]
        phi = rng.uniform(math.pi, 2 * math.pi) if k % 8 < 4 else \
            -rng.uniform(0.0, 2 * math.pi)
        r_a, r_b = rng.uniform(0.02, 0.45, 2)
        az_a, az_b = rng.uniform(-math.pi, 3 * math.pi, 2)
        lam = lambda_phi(phi)
        # ledger radii (f_a = f_b on the boundary), inside it, and asymmetric
        grow_a, grow_b = ((lam, lam), (1.2 * lam, 1.2 * lam),
                          tuple(lam * rng.uniform(1.0, 1.3, 2)))[k % 3]
        v_a, v_b = z_rotate(BlochVector(r_a, 0, z_a), az_a), \
            z_rotate(BlochVector(r_b, 0, z_b), az_b)
        base = decompose_gate_output(BlochVector(r_a, 0, z_a), BlochVector(r_b, 0, z_b),
                                     phi, grow_a * r_a, grow_b * r_b)
        rotated = decompose_gate_output(v_a, v_b, phi, grow_a * r_a, grow_b * r_b)
        moved = Decomposition(
            base.weights,
            np.array([z_rotate(BlochVector(*p), az_a).as_array() for p in base.a]),
            np.array([z_rotate(BlochVector(*p), az_b).as_array() for p in base.b]))
        target = apply_gate_pauli(phi, v_a, v_b)
        assert np.max(np.abs(reconstruct(moved) - target)) <= 1e-12, k
        assert len(rotated.weights) == len(base.weights)
        for i in range(len(moved.weights)):
            assert rotated.weights[i] == pytest.approx(moved.weights[i], abs=1e-12)
            for pts, pts0 in ((rotated.a, moved.a), (rotated.b, moved.b)):
                assert np.max(np.abs(pts[i] - pts0[i])) <= 1e-12, k


def _ledger_inputs():
    """2000 gate inputs at ledger radii, (z_a, z_b, phi, lam, r_a, r_b), with
    r_out = lam r on both sides: all four z frames, every fifth with r_a =
    r_b, phases in (-2 pi, 4 pi)."""
    rng = np.random.default_rng(61)
    for k in range(2000):
        z_a, z_b = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))[k % 4]
        phi = rng.uniform(-2 * math.pi, 4 * math.pi)
        lam = lambda_phi(phi)
        r_a, r_b = rng.uniform(0.0, 1.0 / lam, 2)
        if k % 5 == 0:
            r_b = r_a
        yield z_a, z_b, phi, lam, r_a, r_b


def _lemma1_points():
    """4800 gate outputs, (target, r_a, r_b, z_a, z_b, phi, r_out_a, r_out_b),
    half exactly on the R = lambda(phi) r boundary: first 2400 at z = +1,
    azimuth 0 and phi in [0, pi], then 2400 in all four z frames at random
    azimuths and phases in (-2 pi, 4 pi)."""
    rng = np.random.default_rng(47)
    for k in range(4800):
        r_a, r_b = rng.uniform(0.01, 1.0, 2)
        if k < 2400:
            z_a, z_b, az_a, az_b = 1.0, 1.0, 0.0, 0.0
            phi = rng.uniform(0.0, math.pi)
        else:
            z_a, z_b = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))[k % 4]
            az_a, az_b = rng.uniform(0.0, 2 * math.pi, 2)
            phi = rng.uniform(-2 * math.pi, 4 * math.pi)
        if k % 2:
            r_out_a, r_out_b = r_a / rng.uniform(0.05, 1.2), r_b / rng.uniform(0.05, 1.2)
        else:
            r_out_a, r_out_b = lambda_phi(phi) * r_a, lambda_phi(phi) * r_b
        target = apply_gate_pauli(phi, z_rotate(BlochVector(r_a, 0, z_a), az_a),
                                  z_rotate(BlochVector(r_b, 0, z_b), az_b))
        yield target, r_a, r_b, z_a, z_b, phi, r_out_a, r_out_b


def test_ledger_decompositions_stable_under_one_ulp():
    """At ledger radii (r_out = lambda(phi) r on both sides, so f_a = f_b)
    one-ulp changes of either input radius move every term, in order, by at
    most 1e-9: the seed-to-outcome mapping of the sampler must not rest on
    the sign of a rounding-level coupling.  2000 random inputs in all four z
    frames, every fifth with r_a = r_b, phases in (-2 pi, 4 pi); the inputs
    and their four one-ulp moves go through one batched call, whose rows are
    bitwise their one-row calls."""
    z_a, z_b, phi, lam, r_a, r_b = (np.array(x) for x in zip(*_ledger_inputs()))
    moves = [(r_a, r_b), (np.nextafter(r_a, 1), r_b), (np.nextafter(r_a, 0), r_b),
             (r_a, np.nextafter(r_b, 1)), (r_a, np.nextafter(r_b, 0))]
    ra, rb = (np.concatenate(side) for side in zip(*moves))
    z_a, z_b, phi, lam = (np.tile(x, len(moves)) for x in (z_a, z_b, phi, lam))
    zeros = np.zeros(len(ra))
    terms = decompose_gate_outputs(np.column_stack([ra, zeros, z_a]),
                                   np.column_stack([rb, zeros, z_b]),
                                   phi, lam * ra, lam * rb)
    # rows (move, input), each term's (weight, a, b); zero weights and points
    # pad every row past its support
    table = np.concatenate([terms.weights[..., None], terms.a, terms.b], -1) \
        .reshape(len(moves), len(r_a), -1)
    count = terms.count.reshape(len(moves), len(r_a))
    assert np.array_equal(count[1:], np.broadcast_to(count[0], count[1:].shape))
    drift = np.max(np.abs(table[1:] - table[0]), axis=(0, 2))
    assert np.all(drift <= 1e-9), np.flatnonzero(drift > 1e-9)


def test_decompose_infeasible_raises():
    r = 0.2
    with pytest.raises(InfeasibleRequest):
        decompose_gate_output(BlochVector(r, 0, 1), BlochVector(r, 0, 1), math.pi,
                              0.9 * LAMBDA_CZ * r, 0.9 * LAMBDA_CZ * r)


def test_closed_form_matches_lemma1():
    """Random points, half exactly on the R = lambda(phi) r boundary: first
    2400 at z = +1, azimuth 0 and phi in [0, pi], then 2400 in all four z
    frames at random azimuths and phases in (-2 pi, 4 pi).  The PSD verdict
    is lemma 1's, and feasible decompositions are exact, have at most 4
    terms and lie on the output circles at the inputs' own z.  One
    `closed_forms` call takes every point; its rows are bitwise one-row
    calls."""
    target, r_a, r_b, z_a, z_b, phi, r_out_a, r_out_b = \
        (np.array(x) for x in zip(*_lemma1_points()))
    feasible, terms = closed_forms(target, r_out_a, r_out_b)
    analytic = np.array([lemma1_feasible(*f) for f in zip((r_a / r_out_a).tolist(),
                                                         (r_b / r_out_b).tolist(),
                                                         phi.tolist())])
    assert np.array_equal(feasible, analytic), np.flatnonzero(feasible != analytic)
    f = feasible
    assert np.all(terms.residual[f] <= 1e-12)
    assert np.all((1 <= terms.count[f]) & (terms.count[f] <= 4))
    assert np.all(terms.weights[f] >= 0.0)
    assert np.all(np.abs(terms.weights[f].sum(axis=1) - 1.0) <= 1e-14)
    support = (np.arange(4) < terms.count[:, None]) & f[:, None]
    for pts, r_out, z in ((terms.a, r_out_a, z_a), (terms.b, r_out_b, z_b)):
        radii = np.hypot(pts[..., 0], pts[..., 1])
        assert np.all(np.abs(radii - r_out[:, None])[support] <= 1e-12)
        assert np.all((pts[..., 2] == z[:, None])[support])


def _closed_form_cases():
    """(targets, r_out_a, r_out_b) of the ledger inputs and the lemma-1
    points."""
    cases = [(apply_gate_pauli(phi, BlochVector(r_a, 0, z_a), BlochVector(r_b, 0, z_b)),
              lam * r_a, lam * r_b)
             for z_a, z_b, phi, lam, r_a, r_b in _ledger_inputs()]
    cases += [(target, r_out_a, r_out_b)
              for target, *_inputs, r_out_a, r_out_b in _lemma1_points()]
    targets, r_out_a, r_out_b = zip(*cases)
    return np.array(targets), np.array(r_out_a), np.array(r_out_b)


def test_batched_closed_form_matches_scalar_reference():
    """One `closed_forms` call over the 2000 ledger inputs and the 4800
    lemma-1 points gives the scalar reference's verdicts, supports, term
    order and terms to 1e-15, with zero weights after each support."""
    targets, r_out_a, r_out_b = _closed_form_cases()
    feasible, terms = closed_forms(targets, r_out_a, r_out_b)
    assert terms.weights.shape == (len(targets), 4)
    for k in range(len(targets)):
        ref_feasible, ref, ref_residual = scalar_closed_form(targets[k], r_out_a[k],
                                                             r_out_b[k])
        assert feasible[k] == ref_feasible, k
        d = terms_row(terms, k)
        assert len(d.weights) == len(ref.weights), k
        for got, want in ((d.weights, ref.weights), (d.a, ref.a), (d.b, ref.b)):
            assert np.max(np.abs(got - want)) <= 1e-15, k
        assert abs(terms.residual[k] - ref_residual) <= 1e-15, k
        assert np.all(terms.weights[k, terms.count[k]:] == 0.0), k


def test_closed_form_rows_do_not_depend_on_their_batch():
    """A K-row `closed_forms` call equals K one-row calls bitwise, and so
    does the same call on the rows shuffled."""
    targets, r_out_a, r_out_b = _closed_form_cases()
    rng = np.random.default_rng(71)
    pick = rng.choice(len(targets), 400, replace=False)
    targets, r_out_a, r_out_b = targets[pick], r_out_a[pick], r_out_b[pick]
    feasible, terms = closed_forms(targets, r_out_a, r_out_b)
    order = rng.permutation(len(targets))
    shuffled_feasible, shuffled = closed_forms(targets[order], r_out_a[order],
                                               r_out_b[order])
    assert np.array_equal(shuffled_feasible, feasible[order])
    for got, want in zip(shuffled, terms):
        assert np.array_equal(got, want[order])
    for k in range(len(targets)):
        one_feasible, one = closed_forms(targets[k:k + 1], r_out_a[k:k + 1],
                                         r_out_b[k:k + 1])
        assert one_feasible[0] == feasible[k]
        for got, want in zip(one, terms):
            assert np.array_equal(got[0], want[k]), k


def test_gate_output_rows_do_not_depend_on_their_batch():
    """`decompose_gate_outputs` and `apply_gate_paulis` over mixed rows
    (identity gates, zero-radius inputs at any z, coherent inputs at random
    azimuths) equal their one-row forms bitwise, row by row."""
    rng = np.random.default_rng(73)
    a, b, phi, r_out_a, r_out_b = [], [], [], [], []
    for k in range(300):
        r_a, r_b = rng.uniform(0.05, 0.4, 2)
        az_a, az_b = rng.uniform(0.0, 2 * math.pi, 2)
        z_a, z_b = rng.choice([-1.0, 1.0], 2)
        p = rng.uniform(-2 * math.pi, 4 * math.pi)
        grow = lambda_phi(p) * rng.uniform(1.0, 1.2)
        if k % 3 == 1:
            p = 0.0 if k % 2 else 4 * math.pi
            grow = 1.0
        elif k % 3 == 2:
            r_a, z_a, grow = 0.0, rng.choice([-1.0, 0.0, 0.3, 1.0]), 1.0
        v_a = z_rotate(BlochVector(r_a, 0, z_a), az_a)
        v_b = z_rotate(BlochVector(r_b, 0, z_b), az_b)
        a.append(v_a.as_array())
        b.append(v_b.as_array())
        phi.append(p)
        r_out_a.append(grow * r_a)
        r_out_b.append(grow * r_b)
    a, b, phi = np.array(a), np.array(b), np.array(phi)
    terms = decompose_gate_outputs(a, b, phi, r_out_a, r_out_b)
    gates = apply_gate_paulis(phi, a, b)
    for k in range(len(phi)):
        v_a, v_b = BlochVector(*a[k]), BlochVector(*b[k])
        assert np.array_equal(gates[k], apply_gate_pauli(phi[k], v_a, v_b)), k
        one = decompose_gate_output(v_a, v_b, phi[k], r_out_a[k], r_out_b[k])
        for got, want in zip(one, terms_row(terms, k)):
            assert np.array_equal(got, want), k
        assert np.max(np.abs(reconstruct(one) - gates[k])) <= 1e-12, k


@pytest.mark.parametrize("phi", [1e-13, 1e-10, 1e-8, 2 * math.pi - 1e-9])
def test_tiny_phase_decomposes_at_ledger_radius(phi):
    # lambda - 1 ~ (2 phi^2)^(1/3) / 2 must not round away, or the ledger
    # radius R = lambda r sits inside the separable boundary
    lam = lambda_phi(phi)
    folded = min(phi, 2 * math.pi - phi)
    assert lam - 1.0 == pytest.approx((2 * folded ** 2) ** (1 / 3) / 2, rel=1e-3)
    v_a, v_b = BlochVector(0.3, 0, -1), BlochVector(0.0, 0.3, 1)
    d = decompose_gate_output(v_a, v_b, phi, lam * 0.3, lam * 0.3)
    target = apply_gate_pauli(phi, v_a, v_b)
    assert np.max(np.abs(reconstruct(d) - target)) <= 1e-12


def test_lp_agreement_with_analytic_minigrid():
    # small version of the acceptance grid (full run lives in acceptance)
    grid = np.linspace(0.15, 0.92, 6)
    phis = np.linspace(0.6, 2 * math.pi - 0.6, 4)
    band = 5e-3
    for f_a in grid:
        for f_b in grid:
            for phi in phis:
                target = apply_gate_pauli(phi, BlochVector(f_a, 0, 1),
                                          BlochVector(f_b, 0, 1))
                feasible, _t, _r = hull_membership(target, 1.0, 1.0, n=40,
                                                   refine_rounds=2)
                analytic = lemma1_feasible(f_a, f_b, phi)
                if feasible and not analytic:
                    pytest.fail("LP feasible where analytic says infeasible")
                if feasible:
                    assert closed_form_decomposition(target, 1.0, 1.0)[0]
                if feasible != analytic:
                    assert abs(lemma1_lhs(f_a, f_b, phi)) < band


def test_min_output_radius_cylinders():
    space = cylinder(0.1)
    r_cz = min_output_radius(space, space, math.pi, tol=5e-4)
    assert r_cz == pytest.approx(LAMBDA_CZ * 0.1, abs=2e-3)
    r_id = min_output_radius(space, space, 0.0, tol=5e-4)
    assert r_id == pytest.approx(0.1, abs=1e-3)
    r_q = min_output_radius(space, space, math.pi / 2, tol=5e-4)
    assert r_q == pytest.approx(1.8392867552141612 * 0.1, abs=2e-3)


def test_bisect_no_upper_bracket():
    with pytest.raises(statespace.NoUpperBracket):
        statespace.bisect_min_radius(lambda r: False, tol=1e-3)


def test_highs_loader_names_the_scipy_it_needs(monkeypatch, tmp_path):
    """A scipy without the HiGHS extension file is an ImportError that names
    the scipy cylsim needs."""
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: scipy if name == "scipy" else None)
    with pytest.raises(ImportError, match=r"scipy>=1\.17"):
        decompose._load_highs()
