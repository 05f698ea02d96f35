"""Single-particle state geometry and two-particle Pauli algebra.

Bloch vectors here are allowed to leave the Bloch sphere: a vector is any
(x, y, z) with |z| <= 1, representing the normalised Hermitian operator
(I + x X + y Y + z Z) / 2.  Cylinder state spaces bound only the xy-radius,
so they contain non-positive operators whenever the radius is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
# Cylinder radii at or below this are zero: such a particle is Z-diagonal,
# so a gate on it is a controlled Z-rotation of its partner and grows nothing.
# The ledger, the decomposer and the sampler all classify gates by it.
ZERO_RADIUS = 1e-14

# Pauli basis, indexed 0..3 = (I, X, Y, Z).
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class RadiusDomainError(ValueError):
    """Raised for vectors with |z| > 1, which have no valid radius."""


def norm_angle(a: float) -> float:
    """Normalise an angle to [0, 2*pi)."""
    return a % TWO_PI


@dataclass(frozen=True, slots=True)
class BlochVector:
    """Coefficients (x, y, z) of the Pauli X, Y, Z parts of a unit-trace operator."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dense(self) -> np.ndarray:
        """The 2x2 Hermitian matrix (I + xX + yY + zZ)/2."""
        return 0.5 * (PAULI[0] + self.x * PAULI[1] + self.y * PAULI[2] + self.z * PAULI[3])


def radius(v: BlochVector) -> float:
    """Radius of the smallest cylinder containing v, i.e. sqrt(x^2 + y^2)."""
    if abs(v.z) > 1.0 + 1e-12:
        raise RadiusDomainError(f"|z| = {abs(v.z)} exceeds 1")
    return math.hypot(v.x, v.y)


@dataclass(frozen=True, slots=True)
class MeasurementSpec:
    """A cylindrical measurement: Z eigenbasis, or an eigenbasis of
    cos(omega) X + sin(omega) Y."""

    kind: str  # "Z" | "XY"
    omega: float = 0.0
    mode: str = "destructive"  # "destructive" | "quasi-destructive"

    def __post_init__(self):
        if self.kind not in ("Z", "XY"):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.mode not in ("destructive", "quasi-destructive"):
            raise ValueError(f"unknown measurement mode {self.mode!r}")
        object.__setattr__(self, "omega", norm_angle(self.omega))

    @classmethod
    def from_json(cls, data: dict) -> "MeasurementSpec":
        return cls(data["kind"], float(data.get("omega", 0.0)),
                   data.get("mode", "destructive"))


class MeasureProbs(NamedTuple):
    p_plus: float | np.ndarray
    p_minus: float | np.ndarray
    negative: bool  # set when any value < -1e-12 (radius > 1 inputs)


def measure_prob(v: BlochVector, m: MeasurementSpec) -> MeasureProbs:
    """Outcome quasi-probabilities for measuring v, elementwise when v's
    components (and an XY measurement's omega) are arrays.  Values may leave
    [0, 1] when the vector's radius exceeds 1; callers decide what that
    means."""
    if m.kind == "Z":
        s = v.z
    else:
        s = v.x * np.cos(m.omega) + v.y * np.sin(m.omega)
    # complement the larger value so the pair sums to 1 exactly (Sterbenz)
    big = (1.0 + np.abs(s)) / 2.0
    small = 1.0 - big
    p_plus = np.where(s >= 0.0, big, small)[()]
    p_minus = np.where(s >= 0.0, small, big)[()]
    return MeasureProbs(p_plus, p_minus, bool(np.any(small < -1e-12)))


@dataclass(frozen=True, slots=True)
class DiagonalGate:
    """Two-qubit diagonal unitary in canonical form, the controlled phase
    phi: basis state |ab> gets the entry phase exp(i*phi*a*b).  Any
    diag(e^{i phi1}, .., e^{i phi4}) is this gate at phi = phi4 + phi1 -
    phi2 - phi3 up to local Z-rotations and a global phase."""

    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", norm_angle(self.phi))

    def entry_phases(self) -> np.ndarray:
        """The four diagonal phases (phi1..phi4) of the unitary."""
        return np.array([0.0, 0.0, 0.0, self.phi])

    def diag(self) -> np.ndarray:
        """Diagonal of the 4x4 unitary."""
        return np.exp(1j * self.entry_phases())


def apply_gate_paulis(phi: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (K, 4, 4) Pauli coefficients of V_phi (rho_A x rho_B) V_phi^dag
    for K product inputs: phases (K,) and each side's Bloch vectors as (K, 3)
    rows (x, y, z).

    Computed in closed form from the sector structure of the diagonal gate:
    the (I,Z)x(I,Z) block is invariant, a coherent particle's xy-vector is
    rotated by phi inside the partner's |1> sector, and in the doubly
    coherent block the co-rotating component picks up the phase while the
    counter-rotating one is fixed.  No dense conjugation is involved, so this
    stays an independent route from the quantum oracle.  Each rotation is a
    stacked matrix product, one 2x2 product per row, so a row's result does
    not depend on the rows around it.
    """
    phi = np.asarray(phi, dtype=float)
    ones = np.ones((len(phi), 1))
    m = np.hstack([ones, a])[:, :, None] * np.hstack([ones, b])[:, None, :]
    c, s = np.cos(phi), np.sin(phi)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    out = m.copy()

    def turn(v):
        return (rot @ v[:, :, None])[:, :, 0]

    # A diagonal, B coherent: split A into |0><0|, |1><1|; B rotates with A=|1>.
    u, w = m[:, 0, 1:3], m[:, 3, 1:3]
    r_minus = turn(u - w)
    out[:, 0, 1:3] = ((u + w) + r_minus) / 2.0
    out[:, 3, 1:3] = ((u + w) - r_minus) / 2.0

    # A coherent, B diagonal: symmetric.
    u, w = m[:, 1:3, 0], m[:, 1:3, 3]
    r_minus = turn(u - w)
    out[:, 1:3, 0] = ((u + w) + r_minus) / 2.0
    out[:, 1:3, 3] = ((u + w) - r_minus) / 2.0

    # Both coherent: (c1, c2) rotates by phi, (c3, c4) is invariant.
    blk = m[:, 1:3, 1:3]
    c1 = (blk[:, 0, 0] - blk[:, 1, 1]) / 2.0
    c2 = (blk[:, 0, 1] + blk[:, 1, 0]) / 2.0
    c3 = (blk[:, 0, 0] + blk[:, 1, 1]) / 2.0
    c4 = (blk[:, 1, 0] - blk[:, 0, 1]) / 2.0
    c1p, c2p = turn(np.column_stack([c1, c2])).T
    out[:, 1, 1] = c3 + c1p
    out[:, 1, 2] = c2p - c4
    out[:, 2, 1] = c2p + c4
    out[:, 2, 2] = c3 - c1p
    return out
