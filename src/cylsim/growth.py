"""Analytic growth-factor calculus for diagonal gates on cylinder spaces.

The central object is lambda(phi): the minimal factor by which both cylinder
radii must grow so that the output of the canonical phase gate V_phi stays
cylinder-separable.  Everything else here (phase boundaries, long-range
convergence, matter prerequisites) is built on it.  It is a closed form
(Cardano's or Viete's root of a cubic), so this module needs no root finder
and keeps no cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .bloch import TWO_PI, norm_angle

# Growth factor of the CZ gate (phi = pi): (sqrt(5) - 2)^(-1/2) = sqrt(2 + sqrt(5)).
# Worst case over all two-qubit diagonal gates.
LAMBDA_CZ = math.sqrt(2.0 + math.sqrt(5.0))


class CutoffTooSmall(ValueError):
    """Raised when a long-range sum is truncated before the small-phase
    asymptotic regime, so no meaningful tail bound can be attached."""


def fold_phase(phi: float) -> float:
    """Reduce phi mod 2*pi and fold into [0, pi] (lambda is symmetric).

    Uses the IEEE-exact remainder, which is odd, so fold(-phi) == fold(phi)
    bitwise and the phi <-> 2*pi - phi symmetry is structural."""
    return abs(math.remainder(phi, TWO_PI))


def _lambda_folded(phi: float) -> float:
    if phi == 0.0:
        return 1.0
    # 4(cos(phi) - 1) without the cancellation that rounds it to 0 below
    # phi ~ 2e-8, where lambda - 1 is still ~3e-6
    mu = -8.0 * math.sin(0.5 * phi) ** 2
    if -mu < 27.0 / 4.0:
        # Cardano closed form, valid while the radicand stays positive.
        # All cube-root arguments are non-negative here (s < 1).
        s = math.sqrt(1.0 + 4.0 * mu / 27.0)
        third = 1.0 / 3.0
        q = (-mu / 2.0) ** third * ((1.0 + s) ** third + (1.0 - s) ** third)
    else:
        # From -mu = 27/4 (phi ~ 2.329) on, the cubic has three real roots;
        # Viete's trigonometric form gives the positive one.  The acos
        # argument is 1 at -mu = 27/4 and falls to sqrt(27/32) at phi = pi;
        # correctly rounded operations are monotone, so it never exceeds 1.
        q = 2.0 * math.sqrt(-mu / 3.0) * math.cos(
            math.acos(1.5 * math.sqrt(-3.0 / mu)) / 3.0)
    return math.sqrt(q + 1.0)


def lambda_phi(phi: float) -> float:
    """Growth factor lambda(phi) = sqrt(Q + 1), Q the unique positive root of
    q^3 + mu*q + mu with mu = 4(cos(phi) - 1).  The phase is rounded to 12
    decimals, but never to 0: lambda - 1 is still 6e-9 at phi = 1e-12."""
    folded = fold_phase(phi)
    return _lambda_folded(round(folded, 12) or folded)


def lemma1_lhs(f_a: float, f_b: float, phi: float) -> float:
    """Left side of the separability inequality for radius ratios f = r/R:

        (1 + fA^4)(1 + fB^4) - 2(fA^2 + fB^2)
            + 2(2 - fA^2 - fB^2) fA^2 fB^2 cos(phi)

    Non-negative iff the gate output admits a separable decomposition
    (for 0 < fA, fB < 1 and phi != 0).  The phase is folded and the
    subexpressions grouped commutatively, so the value is bitwise symmetric
    under both phi <-> 2*pi - phi and fA <-> fB."""
    a2, b2 = f_a * f_a, f_b * f_b
    s = a2 + b2
    c = math.cos(fold_phase(phi))
    return ((1.0 + a2 * a2) * (1.0 + b2 * b2) - 2.0 * s
            + 2.0 * (2.0 - s) * (a2 * b2) * c)


# Slack of the separability tests on the boundary, where the left side is 0.
_FEASIBLE_TOL = 1e-12


def lemma1_feasible(f_a: float, f_b: float, phi: float) -> bool:
    """Whether the gate output on Cyl(r_A) x Cyl(r_B) extrema is separable
    w.r.t. Cyl(R_A) x Cyl(R_B), given the radius ratios f = r/R >= 0.

    Zero-radius inputs and the identity gate are separable whenever the
    cylinders do not shrink; otherwise both ratios must be strictly below 1
    and the quartic inequality must hold."""
    if f_a < 0 or f_b < 0:
        raise ValueError("radius ratios must be >= 0")
    if f_a == 0.0 or f_b == 0.0 or fold_phase(phi) == 0.0:
        return f_a <= 1.0 + _FEASIBLE_TOL and f_b <= 1.0 + _FEASIBLE_TOL
    if f_a >= 1.0 or f_b >= 1.0:
        return False
    return lemma1_lhs(f_a, f_b, phi) >= -_FEASIBLE_TOL


def cz_feasible(f_a: float, f_b: float) -> bool:
    """CZ-specific separability test: 1 >= (fA + fB)^2 + fA^2 fB^2, for
    radius ratios f = r/R >= 0."""
    if f_a < 0 or f_b < 0:
        raise ValueError("radius ratios must be >= 0")
    return (f_a + f_b) ** 2 + (f_a * f_b) ** 2 <= 1.0 + _FEASIBLE_TOL


def thermal_excitation(temperature: float) -> float:
    """Thermal excitation probability p_T = e^(-1/T) / (1 + e^(-1/T))."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return 0.0
    w = math.exp(-1.0 / temperature)
    return w / (1.0 + w)


def theta_max(phi: float, delta: int, temperature: float = 0.0) -> float:
    """Largest polar angle of pure inputs that stays classically simulable on
    a degree-`delta` graph: arcsin(lambda(phi)^(-delta) / (1 - 2 p_T)),
    capped at pi/2."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    shrink = 1.0 - 2.0 * thermal_excitation(temperature)
    # compared before dividing: at huge temperatures shrink rounds to 0
    sin_theta = lambda_phi(phi) ** (-delta)
    if sin_theta >= shrink:
        return math.pi / 2.0
    return math.asin(sin_theta / shrink)


@dataclass(frozen=True)
class PowerLawSpec:
    """Power-law interaction family: the accumulated phase between sites at
    distance l is phase_1 * l^(-alpha), reduced mod 2*pi.

    phase_1 is `nn_phase` when pinned, else `time` (unit coupling)."""

    alpha: float
    dim: int = 1
    time: float = 1.0
    cutoff: int = 1000
    nn_phase: float | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.time, self.nn_phase or 0.0))):
            raise ValueError("alpha, time and nn_phase must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.time < 0:
            raise ValueError("time must be >= 0")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    def phase_at(self, distance: int) -> float:
        base = self.nn_phase if self.nn_phase is not None else self.time
        return norm_angle(base * distance ** (-self.alpha))


def shell_count(dim: int, distance: int) -> int:
    """Number of sites at exact l1-distance `distance` on the rectilinear
    lattice Z^dim: sum over k nonzero coordinates of 2^k C(dim,k) C(l-1,k-1)."""
    if distance < 1:
        raise ValueError("distance must be >= 1")
    total = 0
    for k in range(1, min(dim, distance) + 1):
        total += (2 ** k) * math.comb(dim, k) * math.comb(distance - 1, k - 1)
    return total


class LongRangeResult(NamedTuple):
    ln_lambda_tot: float
    verdict: str  # "converges" | "diverges"
    tail_bound: float


# Small-phase law ln(lambda) ~ (phi/2)^(2/3) is accurate to ~1% below this.
_ASYMPTOTIC_PHASE = 0.05


def longrange_growth(spec: PowerLawSpec) -> LongRangeResult:
    """Accumulated log growth factor on a central site of a power-law system.

    Sums count(l) * ln(lambda(phi(l))) up to the cutoff.  The verdict is the
    analytic criterion alpha > 3*dim/2 (boundary excluded); for converging
    specs the tail beyond the cutoff is bounded with the small-phase law
    ln(lambda) ~ (phi/2)^(2/3)."""
    total = 0.0
    for l in range(1, spec.cutoff + 1):
        phi = spec.phase_at(l)
        total += shell_count(spec.dim, l) * math.log(lambda_phi(phi))
    converges = spec.alpha > 1.5 * spec.dim
    if not converges:
        return LongRangeResult(total, "diverges", math.inf)

    # lambda reads the folded phase, so a negative phase_1 passes as well
    tail_phase = fold_phase(spec.phase_at(spec.cutoff + 1))
    if tail_phase > _ASYMPTOTIC_PHASE:
        raise CutoffTooSmall(
            f"phase at distance {spec.cutoff + 1} is {tail_phase:.3g}; increase "
            "the cutoff so the small-phase asymptote applies to the tail")
    # Integral upper bound on the tail: shell_count(D, l) <= c_D (l + D)^(D-1)
    # with c_D = 2^D / (D-1)!, and ln(lambda) ~ (phi/2)^(2/3), so terms are
    # below c_D (phi_1/2)^(2/3) (1 + D/l)^(2a/3) (l + D)^s with
    # s = D - 1 - 2 alpha / 3 < -1, and the tail below
    # c_D (phi_1/2)^(2/3) (1 + D/L)^(2a/3) ((L + D)^(s+1) / (-s-1) + (L+1+D)^s)
    # at cutoff L.  Each alpha-dependent pair of powers is combined into one
    # power of a base <= 1, which underflows to 0 at a huge alpha where the
    # separate powers would overflow to inf and underflow to 0.
    d, l1 = spec.dim, spec.cutoff
    a23 = 2.0 * spec.alpha / 3.0
    s = d - 1 - a23
    c_d = 2.0 ** d / math.factorial(d - 1)
    # |phi(l)| = |phi_1| l^-alpha beyond the cutoff, unfolded: a phi_1 of 7
    # is 7 at distance 1, not its folded 0.717
    phi_1 = abs(spec.nn_phase if spec.nn_phase is not None else spec.time)
    prefactor = c_d * (phi_1 / 2.0) ** (2.0 / 3.0)
    # (1 + D/L)^(2a/3) (L + D)^(s+1) = L^(-2a/3) (L + D)^D
    head = (l1 + d) ** d * float(l1) ** -a23 / (-s - 1)
    # (1 + D/L)^(2a/3) (L + 1 + D)^s = ((L + D) / (L (L + 1 + D)))^(2a/3) (L + 1 + D)^(D-1)
    rest = ((l1 + d) / (l1 * (l1 + 1 + d))) ** a23 * (l1 + 1 + d) ** (d - 1)
    return LongRangeResult(total, "converges", prefactor * (head + rest))


class TelescopingFamily(NamedTuple):
    p: float
    c: float
    r0: float


def telescoping_family(alpha: float) -> TelescopingFamily:
    """Explicit 1D family with CZ nearest-neighbour gate whose growth product
    telescopes: p = 2*alpha/3 - 1, c = ln(lambda_CZ) / (1 - 2^-p) (that is,
    2^p ln(lambda_CZ) / (2^p - 1), which overflows for p >= 1024),
    r0 = exp(-2c)."""
    if alpha <= 1.5:
        raise ValueError("telescoping family needs alpha > 3/2")
    p = 2.0 * alpha / 3.0 - 1.0
    c = math.log(LAMBDA_CZ) / (1.0 - 2.0 ** -p)
    return TelescopingFamily(p, c, math.exp(-2.0 * c))
