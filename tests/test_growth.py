import itertools
import math

import numpy as np
import pytest

from cylsim import growth
from cylsim.growth import (
    LAMBDA_CZ,
    CutoffTooSmall,
    PowerLawSpec,
    cz_feasible,
    lambda_phi,
    lemma1_feasible,
    lemma1_lhs,
    longrange_growth,
    shell_count,
    telescoping_family,
    theta_max,
    thermal_excitation,
)


def lambda_by_polynomial(phi):
    """Independent oracle: positive real root of q^3 + mu q + mu via numpy."""
    mu = 4 * (math.cos(phi) - 1)
    roots = np.roots([1.0, 0.0, mu, mu])
    q = max(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
    return math.sqrt(q + 1)


def test_lambda_identity():
    assert lambda_phi(0.0) == 1.0


def test_lambda_cz_closed_form():
    expected = (math.sqrt(5) - 2) ** -0.5
    assert abs(lambda_phi(math.pi) - expected) < 1e-12
    assert abs(lambda_phi(math.pi) - math.sqrt(2 + math.sqrt(5))) < 1e-12
    assert abs(LAMBDA_CZ - 2.058) < 1e-3


def test_lambda_quarter():
    # frozen from the polynomial oracle: q = 2.382975767906..., lambda = sqrt(q+1)
    frozen = 1.8392867552141612
    assert abs(lambda_by_polynomial(math.pi / 2) - frozen) < 1e-12
    assert abs(lambda_phi(math.pi / 2) - frozen) < 1e-12


def test_lambda_cross_validation_against_bracketed_root():
    # both branches (Cardano and Viete) agree with the polynomial oracle
    for phi in np.linspace(0.05, math.pi, 60):
        assert abs(lambda_phi(phi) - lambda_by_polynomial(phi)) < 1e-12


def test_lambda_branches_meet_at_27_over_4():
    # -mu = 8 sin^2(phi/2) reaches 27/4 at phi0 = 2 asin(sqrt(27/32)), where
    # q = 3 and lambda = 2: Cardano's form below, Viete's from there on
    phi0 = 2 * math.asin(math.sqrt(27 / 32))
    below, above = math.nextafter(phi0, 0.0), math.nextafter(phi0, 4.0)
    assert 8 * math.sin(below / 2) ** 2 < 27 / 4 <= 8 * math.sin(phi0 / 2) ** 2
    for phi in (below, phi0, above):
        assert growth._lambda_folded(phi) == pytest.approx(2.0, abs=1e-15)
    # on the Viete branch, q = lambda^2 - 1 is a root of q^3 + mu q + mu
    for phi in np.linspace(phi0, math.pi, 2000):
        mu = -8.0 * math.sin(phi / 2) ** 2
        q = growth._lambda_folded(phi) ** 2 - 1.0
        assert abs(q ** 3 + mu * q + mu) < 1e-13
    assert growth._lambda_folded(math.pi) == LAMBDA_CZ


def test_lambda_symmetry_and_monotone():
    grid = np.linspace(0.0, math.pi, 1000)
    values = [lambda_phi(p) for p in grid]
    for p, v in zip(grid, values):
        assert abs(v - lambda_phi(2 * math.pi - p)) < 1e-12
    assert all(b > a for a, b in zip(values, values[1:]))
    # maximum over [0, 2*pi) sits at pi
    full = np.linspace(0.0, 2 * math.pi, 999, endpoint=False)
    vmax = max(lambda_phi(p) for p in full)
    assert vmax <= lambda_phi(math.pi) + 1e-12


def test_boundary_substitution_vanishes():
    for phi in np.linspace(0.05, 2 * math.pi - 0.05, 100):
        f = 1.0 / lambda_phi(phi)
        assert abs(lemma1_lhs(f, f, phi)) < 1e-9


def test_cz_boundary_exact():
    f2 = math.sqrt(5) - 2
    f = math.sqrt(f2)
    assert abs(lemma1_lhs(f, f, math.pi)) < 1e-12
    assert (f + f) ** 2 + f2 * f2 == pytest.approx(1.0, abs=1e-12)


def test_lemma1_cases():
    assert lemma1_feasible(math.sqrt(math.sqrt(5) - 2),
                           math.sqrt(math.sqrt(5) - 2), math.pi)
    assert lemma1_feasible(0.0, 0.9, 2.2)
    assert not lemma1_feasible(1.0, 1.0, math.pi / 2)
    assert lemma1_feasible(0.3, 0.3, 0.0)
    assert not lemma1_feasible(1.2, 0.1, 0.0)
    with pytest.raises(ValueError):
        lemma1_feasible(-0.1, 0.5, math.pi)


def test_cz_feasible_examples():
    f = math.sqrt(math.sqrt(5) - 2)
    assert cz_feasible(f, f)
    assert cz_feasible(0.0, 1.0)
    assert not cz_feasible(0.5, 0.5)  # 1.0625 > 1


def test_cz_agrees_with_lemma1_at_pi():
    grid = np.linspace(0.0, 1.0, 100)
    for f_a, f_b in itertools.product(grid, grid):
        assert cz_feasible(f_a, f_b) == lemma1_feasible(f_a, f_b, math.pi)


def test_theta_max_examples():
    t = theta_max(math.pi, 3)
    assert abs(LAMBDA_CZ ** -3 - 0.1147) < 1e-4
    assert t == pytest.approx(math.asin(LAMBDA_CZ ** -3), abs=1e-14)
    assert t == pytest.approx(0.11495, abs=1e-5)
    assert math.degrees(t) == pytest.approx(6.587, abs=1e-3)

    t4 = theta_max(math.pi, 4)
    assert LAMBDA_CZ ** -4 == pytest.approx(0.055728, abs=1e-6)
    assert LAMBDA_CZ ** -4 == pytest.approx(1.0 / (9 + 4 * math.sqrt(5)), abs=1e-15)
    assert math.degrees(t4) == pytest.approx(3.195, abs=1e-3)

    assert theta_max(0.0, 7) == math.pi / 2


def test_theta_max_monotone():
    # non-increasing in the graph degree; non-decreasing in temperature
    # (thermal mixing shrinks inputs, so larger pure angles stay simulable)
    for phi in (0.3, 1.5, math.pi):
        ts = [theta_max(phi, d) for d in range(0, 6)]
        assert all(b <= a + 1e-15 for a, b in zip(ts, ts[1:]))
        temps = [theta_max(phi, 3, t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(b >= a - 1e-15 for a, b in zip(temps, temps[1:]))


def test_thermal_excitation():
    assert thermal_excitation(0.0) == 0.0
    assert 0.0 < thermal_excitation(1.0) < 0.5
    with pytest.raises(ValueError):
        thermal_excitation(-1.0)


def test_phase_point():
    # (theta, phi = pi, delta = 3) is simulable iff theta <= theta_max
    assert 0.1 <= theta_max(math.pi, 3) < 0.5


def brute_shell(dim, distance):
    count = 0
    for pt in itertools.product(range(-distance, distance + 1), repeat=dim):
        if sum(abs(c) for c in pt) == distance:
            count += 1
    return count


def test_shell_count_matches_enumeration():
    for dim in (1, 2, 3):
        for l in range(1, 7):
            assert shell_count(dim, l) == brute_shell(dim, l)
    assert shell_count(1, 5) == 2
    assert shell_count(2, 1) == 4


def test_longrange_verdicts():
    assert longrange_growth(PowerLawSpec(1.5, dim=1, nn_phase=math.pi,
                                         cutoff=2000)).verdict == "diverges"
    res = longrange_growth(PowerLawSpec(1.8, dim=1, nn_phase=math.pi, cutoff=5000))
    assert res.verdict == "converges"
    assert 0.0 < res.tail_bound < res.ln_lambda_tot
    assert longrange_growth(PowerLawSpec(3.0, dim=2, nn_phase=math.pi,
                                         cutoff=300)).verdict == "diverges"
    res2 = longrange_growth(PowerLawSpec(3.2, dim=2, nn_phase=math.pi, cutoff=300))
    assert res2.verdict == "converges"
    # at steep decay the tail is negligible
    steep = longrange_growth(PowerLawSpec(4.0, dim=1, nn_phase=math.pi, cutoff=2000))
    assert steep.tail_bound < 1e-4


def test_tail_bound_dominates_exact_tail():
    # the closed-form tail bound must exceed a direct partial summation
    spec = PowerLawSpec(2.0, dim=2, nn_phase=math.pi, cutoff=120)
    res = longrange_growth(spec)
    direct = sum(shell_count(2, l) * (spec.phase_at(l) / 2) ** (2 / 3)
                 for l in range(121, 20000))
    assert res.tail_bound >= direct


def test_tail_bound_combined_powers():
    # the tail bound with its alpha powers combined matches the separate
    # powers wherever those are finite, and underflows to 0 where they
    # would meet as inf * 0
    for alpha, dim, cutoff in ((1.8, 1, 5000), (3.5, 2, 120), (4.0, 1, 2000),
                               (5.0, 3, 300), (60.0, 2, 50)):
        spec = PowerLawSpec(alpha, dim=dim, nn_phase=math.pi, cutoff=cutoff)
        a23, d = 2 * alpha / 3, dim
        s = d - 1 - a23
        separate = (2 ** d / math.factorial(d - 1) * (math.pi / 2) ** (2 / 3)
                    * (1 + d / cutoff) ** a23
                    * ((cutoff + d) ** (s + 1) / (-s - 1) + (cutoff + 1 + d) ** s))
        assert longrange_growth(spec).tail_bound == pytest.approx(separate, rel=1e-13)
    for dim in (1, 3):
        huge = longrange_growth(PowerLawSpec(1e308, dim=dim, nn_phase=1.0, cutoff=10))
        assert huge.tail_bound == 0.0 and huge.verdict == "converges"


def test_shell_count_upper_bound():
    # bound used by the tail estimate: shell_count <= 2^D/(D-1)! (l+D)^(D-1)
    for dim in (1, 2, 3, 4):
        c_d = 2 ** dim / math.factorial(dim - 1)
        for l in range(1, 60):
            assert shell_count(dim, l) <= c_d * (l + dim) ** (dim - 1)


def test_longrange_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        longrange_growth(PowerLawSpec(1.6, dim=1, nn_phase=math.pi, cutoff=5))


def test_telescoping_family():
    fam = telescoping_family(3.0)
    assert fam.p == pytest.approx(1.0, abs=1e-15)
    assert fam.c == pytest.approx(2 * math.log(LAMBDA_CZ), abs=1e-12)
    # 1.4435 is the value rounded through lambda ~ 2.058; exact is 1.44364
    assert fam.c == pytest.approx(1.4435, abs=2e-4)
    assert fam.r0 == pytest.approx(LAMBDA_CZ ** -4, abs=1e-10)
    assert fam.r0 == pytest.approx(math.exp(-2 * fam.c), abs=1e-15)
    assert math.degrees(math.asin(fam.r0)) == pytest.approx(3.195, abs=1e-3)

    # exponent 2^(p+1)/(2^p - 1) -> 2 as alpha grows
    big = telescoping_family(200.0)
    assert big.r0 == pytest.approx(LAMBDA_CZ ** -2, rel=1e-9)

    with pytest.raises(ValueError):
        telescoping_family(1.5)
