import math

import numpy as np
import pytest

from cylsim.bloch import (
    BlochVector,
    DiagonalGate,
    MeasurementSpec,
    RadiusDomainError,
    measure_prob,
    radius,
)
from reference import (
    apply_gate_pauli,
    coeffs,
    pauli_coeffs,
    post_measurement_state,
    z_rotate,
)


def dense_gate_output(phi, v_a, v_b):
    """Independent route: explicit 4x4 conjugation by the diagonal unitary."""
    V = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
    out = V @ np.kron(v_a.dense(), v_b.dense()) @ V.conj().T
    return pauli_coeffs(out)


def test_radius_examples():
    assert radius(BlochVector(0.3, 0.4, 0.5)) == pytest.approx(0.5, abs=1e-15)
    assert radius(BlochVector(0, 0, 1)) == 0.0
    assert radius(BlochVector(math.sin(math.radians(30)), 0,
                              math.cos(math.radians(30)))) == pytest.approx(0.5)
    with pytest.raises(RadiusDomainError):
        radius(BlochVector(0.1, 0.0, 1.5))


def test_z_rotate():
    v = z_rotate(BlochVector(1, 0, 0), math.pi / 2)
    assert v.x == pytest.approx(0, abs=1e-15)
    assert v.y == pytest.approx(1)
    pole = z_rotate(BlochVector(0, 0, 1), 1.234)
    assert (pole.x, pole.y, pole.z) == (0, 0, 1)
    v0 = BlochVector(0.3, -0.4, 0.5)
    v1 = z_rotate(v0, 2 * math.pi)
    assert v1.x == pytest.approx(v0.x, abs=1e-12)
    assert v1.y == pytest.approx(v0.y, abs=1e-12)


def test_z_rotate_preserves_radius():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v = BlochVector(*rng.uniform(-1, 1, 2), rng.uniform(-1, 1))
        a = rng.uniform(0, 2 * math.pi)
        assert radius(z_rotate(v, a)) == pytest.approx(radius(v), abs=1e-12)


def test_gate_reconstruction_invariant():
    # diag(e^{i phi1..4}) is the canonical gate at phi4 + phi1 - phi2 - phi3
    # times a global phase g = phi1 and local Z phases a = phi3 - phi1 on the
    # first qubit and b = phi2 - phi1 on the second
    rng = np.random.default_rng(5)
    for _ in range(200):
        phis = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
        g, a, b = phis[0], phis[2] - phis[0], phis[1] - phis[0]
        gate = DiagonalGate(phis[3] + phis[0] - phis[1] - phis[2])
        original = np.exp(1j * phis)
        rebuilt = np.exp(1j * np.array([g, g + b, g + a, g + a + b])) * gate.diag()
        # match up to a global phase
        ratio = rebuilt / original
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12


def test_measure_prob_examples():
    p = measure_prob(BlochVector(0.5, 0, 0.8), MeasurementSpec("Z"))
    assert p.p_plus == pytest.approx(0.9) and p.p_minus == pytest.approx(0.1)
    assert not p.negative
    p = measure_prob(BlochVector(0.5, 0, 0.8), MeasurementSpec("XY", 0.0))
    assert p.p_plus == pytest.approx(0.75)
    p = measure_prob(BlochVector(1.2, 0, 0), MeasurementSpec("XY", 0.0))
    assert p.p_plus == pytest.approx(1.1) and p.p_minus == pytest.approx(-0.1)
    assert p.negative


def test_measure_prob_sums_to_one_exactly():
    rng = np.random.default_rng(7)
    for _ in range(300):
        v = BlochVector(*rng.uniform(-1.5, 1.5, 2), rng.uniform(-1, 1))
        m = MeasurementSpec("XY", rng.uniform(0, 2 * math.pi))
        p = measure_prob(v, m)
        assert p.p_plus + p.p_minus == 1.0


def test_measure_prob_duality_unit_radius():
    # vectors inside Cyl(1) give valid probabilities for every measurement
    rng = np.random.default_rng(13)
    omegas = np.linspace(0, 2 * math.pi, 17)
    for _ in range(200):
        rho = math.sqrt(rng.uniform(0, 1))
        az = rng.uniform(0, 2 * math.pi)
        v = BlochVector(rho * math.cos(az), rho * math.sin(az), rng.uniform(-1, 1))
        for om in omegas:
            p = measure_prob(v, MeasurementSpec("XY", om))
            assert 0.0 <= p.p_plus <= 1.0 and 0.0 <= p.p_minus <= 1.0
        p = measure_prob(v, MeasurementSpec("Z"))
        assert 0.0 <= p.p_plus <= 1.0


def test_post_measurement_state():
    assert post_measurement_state(MeasurementSpec("Z"), +1) == BlochVector(0, 0, 1)
    assert post_measurement_state(MeasurementSpec("Z"), -1) == BlochVector(0, 0, -1)
    assert post_measurement_state(MeasurementSpec("XY", 0.7), -1) == BlochVector(0, 0, 0)


def test_apply_gate_pauli_appendix_matrix():
    r_a, r_b = 0.3, 0.4
    m = apply_gate_pauli(math.pi, BlochVector(r_a, 0, 1), BlochVector(r_b, 0, 1))
    expected = np.array([
        [1, r_b, 0, 1],
        [r_a, 0, 0, r_a],
        [0, 0, r_a * r_b, 0],
        [1, r_b, 0, 1],
    ])
    assert np.max(np.abs(m - expected)) < 1e-12


def test_apply_gate_pauli_identity():
    v_a, v_b = BlochVector(0.2, -0.3, 0.4), BlochVector(-0.1, 0.25, -0.9)
    m = apply_gate_pauli(0.0, v_a, v_b)
    assert np.max(np.abs(m - np.outer(coeffs(v_a), coeffs(v_b)))) < 1e-14


def test_apply_gate_pauli_quarter_phase():
    m = apply_gate_pauli(math.pi / 2, BlochVector(1, 0, 1), BlochVector(1, 0, 1))
    assert m[1, 1] == pytest.approx(0.5)
    assert m[1, 2] == pytest.approx(0.5)
    assert m[2, 1] == pytest.approx(0.5)
    assert m[2, 2] == pytest.approx(0.5)
    dense = dense_gate_output(math.pi / 2, BlochVector(1, 0, 1), BlochVector(1, 0, 1))
    assert np.max(np.abs(m - dense)) < 1e-10


def test_apply_gate_pauli_matches_dense_conjugation():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        phi = rng.uniform(0, 2 * math.pi)
        v_a = BlochVector(*rng.uniform(-0.7, 0.7, 2), rng.uniform(-1, 1))
        v_b = BlochVector(*rng.uniform(-0.7, 0.7, 2), rng.uniform(-1, 1))
        analytic = apply_gate_pauli(phi, v_a, v_b)
        dense = dense_gate_output(phi, v_a, v_b)
        assert np.max(np.abs(analytic - dense)) < 1e-10


def test_apply_gate_pauli_diagonal_sector_invariant():
    rng = np.random.default_rng(19)
    idx = np.ix_([0, 3], [0, 3])
    for _ in range(1000):
        phi = rng.uniform(0, 2 * math.pi)
        v_a = BlochVector(*rng.uniform(-0.7, 0.7, 2), rng.uniform(-1, 1))
        v_b = BlochVector(*rng.uniform(-0.7, 0.7, 2), rng.uniform(-1, 1))
        out = apply_gate_pauli(phi, v_a, v_b)
        product = np.outer(coeffs(v_a), coeffs(v_b))
        assert np.max(np.abs(out[idx] - product[idx])) < 1e-14


def test_serialization():
    data = {"kind": "XY", "omega": 1.25, "mode": "quasi-destructive"}
    assert MeasurementSpec.from_json(data) == MeasurementSpec("XY", 1.25, "quasi-destructive")
    assert MeasurementSpec.from_json({"kind": "Z"}) == MeasurementSpec("Z")


def test_diagonal_gate_entry_phases():
    p = DiagonalGate(phi=1.0).entry_phases()
    assert p[3] + p[0] - p[1] - p[2] == pytest.approx(1.0)
    assert p.tolist() == [0.0, 0.0, 0.0, 1.0]
