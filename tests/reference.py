"""Reference constructions that only the tests use."""

import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cylsim.bloch import (
    PAULI,
    TWO_PI,
    ZERO_RADIUS,
    BlochVector,
    DiagonalGate,
    MeasurementSpec,
    RadiusDomainError,
    apply_gate_paulis,
)
from cylsim.decompose import (
    EXACT_TOL,
    LP_TOL,
    Decomposition,
    GateTerms,
    SolverFailure,
    closed_forms,
    decompose_over_circles,
    reconstruct,
    support_first,
)
from cylsim.growth import lemma1_feasible
from cylsim.oracle import MAX_QUBITS, TooManyQubits
from cylsim.sampler import InfeasibleRequest


ROOT = Path(__file__).resolve().parent.parent


class NonExtremalInput(ValueError):
    """`decompose_gate_outputs` needs extremal inputs (z = +-1) on coherent
    rows."""


def _load_file(name, path):
    """The module at `path`, loaded once under `name` (dataclasses need
    their module in sys.modules)."""
    if name not in sys.modules:
        module_spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(module_spec)
        sys.modules[name] = module
        module_spec.loader.exec_module(module)
    return sys.modules[name]


def bench_workloads():
    """bench/workloads.py, loaded from its file."""
    return _load_file("bench_workloads", ROOT / "bench" / "workloads.py")


def bench_sampler():
    """scripts/bench_sampler.py, loaded from its file after the neighbour it
    imports, scripts/bench_oracle.py."""
    _load_file("bench_oracle", ROOT / "scripts" / "bench_oracle.py")
    return _load_file("bench_sampler", ROOT / "scripts" / "bench_sampler.py")


def coupling_operator(f_a: float, f_b: float, phi: float) -> np.ndarray:
    """The reduced two-qubit coupling operator (I + fA X)(x)(I + fB X) plus
    the phase coupling on |00><11|.  Its determinant is growth.lemma1_lhs,
    whose sign decides separability for f_a, f_b < 1 (one eigenvalue at most
    can be negative there)."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    op = np.kron(np.eye(2) + f_a * X, np.eye(2) + f_b * X).astype(complex)
    g = f_a * f_b * (np.exp(-1j * phi) - 1.0)
    op[0, 3] += g
    op[3, 0] += np.conj(g)
    return op


# The (I, X, Y) coefficients of an extremal side map onto I/2, X/2, Z/2.
_REBIT = 0.5 * np.real(np.stack([PAULI[0], PAULI[1], PAULI[3]]))
# Real Y (x) Y, zero expectation exactly on product two-rebit vectors.
_YY = np.real(np.kron(PAULI[2], PAULI[2]))
# Chooses between mirror-image Givens roots.
_TIE = np.array([1.0, 2.0, 3.0, 5.0])


def _circle_points(rebits, r, z):
    p, q = rebits[:, 0], rebits[:, 1]
    return np.column_stack([2.0 * r * p * q, r * (p * p - q * q), np.full(len(p), z)])


def scalar_closed_form(target, r_out_a: float, r_out_b: float):
    """One gate output's closed-form decomposition, one matrix at a time:
    the scalar form that `decompose.closed_forms` batches.  Returns
    (feasible, Decomposition, residual) like `closed_form_decomposition`:
    eigh of the rebit operator, one
    Givens rotation per kept eigenvector but the last, then an SVD of each
    rotated vector as a 2x2 matrix."""
    m = np.asarray(target)
    z_a, z_b = m[3, 0], m[0, 3]
    block = m[:3, :3] / np.outer([1.0, r_out_a, r_out_a], [1.0, r_out_b, r_out_b])
    rho = np.einsum("ij,iac,jbd->abcd", block, _REBIT, _REBIT).reshape(4, 4)
    evals, evecs = np.linalg.eigh(rho)
    feasible = bool(evals[0] >= -EXACT_TOL)
    keep = evals >= EXACT_TOL
    cols = evecs[:, keep] * np.sqrt(evals[keep])
    for _ in range(cols.shape[1] - 1):
        d = np.einsum("ik,ij,jk->k", cols, _YY, cols)
        hi, lo = int(np.argmax(d)), int(np.argmin(d))
        if d[hi] <= 0.0 or d[lo] >= 0.0:
            break
        g = cols[:, hi] @ _YY @ cols[:, lo]
        s = math.sqrt(g * g - d[hi] * d[lo])
        if abs(g) > 1e-6 * s:
            sign = -math.copysign(1.0, g)
        else:
            sign = 1.0 if (_TIE @ cols[:, hi]) * (_TIE @ cols[:, lo]) >= 0.0 else -1.0
        t = sign * d[hi] / (s - sign * g)
        c = 1.0 / math.sqrt(1.0 + t * t)
        cols[:, [hi, lo]] = cols[:, [hi, lo]] @ np.array([[c, -t * c], [t * c, c]])
    u, sv, vt = np.linalg.svd(cols.T.reshape(-1, 2, 2))
    weights = sv[:, 0] ** 2
    support = weights > 0.0
    d = Decomposition(weights[support] / weights[support].sum(),
                      _circle_points(u[support, :, 0], r_out_a, z_a),
                      _circle_points(vt[support, 0, :], r_out_b, z_b))
    return feasible, d, float(np.max(np.abs(reconstruct(d) - m)))


def coeffs(v: BlochVector) -> np.ndarray:
    """Length-4 Pauli coefficient vector (1, x, y, z)."""
    return np.array([1.0, v.x, v.y, v.z])


def z_rotate(v: BlochVector, angle: float) -> BlochVector:
    """Rotate the xy-components by `angle` about the z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return BlochVector(c * v.x - s * v.y, s * v.x + c * v.y, v.z)


def post_measurement_state(m: MeasurementSpec, outcome: int) -> BlochVector:
    """State of the measured particle after total Z-dephasing.

    Z outcomes keep their pole; an XY projection dephases to the maximally
    mixed point."""
    if m.kind == "Z":
        return BlochVector(0.0, 0.0, 1.0 if outcome > 0 else -1.0)
    return BlochVector(0.0, 0.0, 0.0)


def pauli_coeffs(rho: np.ndarray) -> np.ndarray:
    """The 4x4 real Pauli coefficients tr((sigma_i x sigma_j) rho) of a
    two-qubit operator, rows/cols indexed over (I, X, Y, Z)."""
    m = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            m[i, j] = np.real(np.trace(np.kron(PAULI[i], PAULI[j]) @ rho))
    return m


def apply_gate_pauli(phi: float, v_a: BlochVector, v_b: BlochVector) -> np.ndarray:
    """The 4x4 Pauli coefficients of V_phi (rho_A x rho_B) V_phi^dag for a
    product input: one row of `bloch.apply_gate_paulis`."""
    return apply_gate_paulis(np.array([phi]), v_a.as_array()[None],
                             v_b.as_array()[None])[0]


# The general gate-output decomposer the sampler's table once went through:
# the reference that `sampler._gate_terms` is checked against.

def _z_turn(points, angle):
    """Points (..., 3) turned about the z axis by `angle`, which broadcasts
    against the points' leading axes."""
    c, s = np.cos(angle), np.sin(angle)
    x, y = points[..., 0], points[..., 1]
    return np.stack([c * x - s * y, s * x + c * y, points[..., 2]], -1)


def _ratios(r, r_out):
    """Radius ratios r / r_out: 0 for zero-radius inputs, inf for a
    non-positive output radius."""
    return np.where(r <= ZERO_RADIUS, 0.0,
                    np.where(r_out > 0, r / np.where(r_out > 0, r_out, 1.0), math.inf))


def decompose_gate_outputs(a, b, phi, r_out_a, r_out_b) -> GateTerms:
    """Separable decompositions of V_phi (v_a x v_b) V_phi^dag over
    Cyl(r_out_a) x Cyl(r_out_b) for K rows: inputs (K, 3) at any pole,
    azimuth and phase, phases and output radii (K,).

    An identity gate's row is the input product.  A zero-radius input is
    Z-diagonal: the output conditions on its pole, and the |1> branch
    Z-rotates the partner by phi.  Every other row takes the closed form
    (`closed_forms`, all such rows at once) at azimuth 0 on the inputs' own
    poles, each side turned by its input's azimuth.
    lemma1_feasible decides feasibility (InfeasibleRequest); such a row
    needs z = +-1 on both sides (NonExtremalInput), and a closed-form
    residual above EXACT_TOL raises SolverFailure.  Each names the first
    row that fails."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    phi = np.asarray(phi, dtype=float)
    r_out_a, r_out_b = np.asarray(r_out_a, float), np.asarray(r_out_b, float)
    k = len(phi)
    for pts in (a, b):
        big = np.abs(pts[:, 2]) > 1.0 + 1e-12
        if big.any():
            raise RadiusDomainError(f"|z| = {abs(pts[big][0, 2])} exceeds 1")
    r_a, r_b = np.hypot(a[:, 0], a[:, 1]), np.hypot(b[:, 0], b[:, 1])
    f_a, f_b = _ratios(r_a, r_out_a), _ratios(r_b, r_out_b)
    # rows that repeat the row before (as a gate step's z pairs do) share
    # its verdict
    fresh = np.ones(k, dtype=bool)
    fresh[1:] = (f_a[1:] != f_a[:-1]) | (f_b[1:] != f_b[:-1]) | (phi[1:] != phi[:-1])
    for fa, fb, p in zip(f_a[fresh].tolist(), f_b[fresh].tolist(), phi[fresh].tolist()):
        if not lemma1_feasible(fa, fb, p):
            raise InfeasibleRequest(
                f"no separable decomposition for f_a={fa:.6g}, "
                f"f_b={fb:.6g}, phi={p:.6g}")

    # growth.fold_phase(phi) == 0 exactly when phi is a multiple of 2 pi
    identity = np.fmod(phi, TWO_PI) == 0.0
    zero_a, zero_b = r_a <= ZERO_RADIUS, r_b <= ZERO_RADIUS
    diag = np.flatnonzero(~identity & (zero_a | zero_b))
    coherent = np.flatnonzero(~identity & ~zero_a & ~zero_b)
    weights, count, residual = np.zeros((k, 4)), np.zeros(k, dtype=np.intp), np.zeros(k)
    pa, pb = np.zeros((k, 4, 3)), np.zeros((k, 4, 3))

    weights[identity, 0], count[identity] = 1.0, 1
    pa[identity, 0], pb[identity, 0] = a[identity], b[identity]

    # the first zero-radius side is the diagonal one
    diag_a = zero_a[diag][:, None, None]
    z = np.where(zero_a[diag], a[diag, 2], b[diag, 2])
    row = np.where(diag_a[:, 0], b[diag], a[diag])
    p_up = (1.0 + z) / 2.0
    poles = np.broadcast_to(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
                            (len(diag), 2, 3))
    partner = np.stack([row, _z_turn(row, phi[diag])], 1)
    n, w, poles, partner = support_first(np.column_stack([p_up, 1.0 - p_up]),
                                         poles, partner)
    weights[diag, :2], count[diag] = w, n
    pa[diag, :2] = np.where(diag_a, poles, partner)
    pb[diag, :2] = np.where(diag_a, partner, poles)

    pole_a, pole_b = a[coherent, 2], b[coherent, 2]
    if np.any(np.abs(np.abs(pole_a) - 1.0) > 1e-9) or \
            np.any(np.abs(np.abs(pole_b) - 1.0) > 1e-9):
        raise NonExtremalInput("the closed form needs inputs with z = +-1")
    zeros = np.zeros(len(coherent))
    targets = apply_gate_paulis(
        phi[coherent], np.column_stack([r_a[coherent], zeros, np.copysign(1.0, pole_a)]),
        np.column_stack([r_b[coherent], zeros, np.copysign(1.0, pole_b)]))
    _psd, terms = closed_forms(targets, r_out_a[coherent], r_out_b[coherent])
    miss = np.flatnonzero(terms.residual > EXACT_TOL)
    if len(miss):
        i = coherent[miss[0]]
        raise SolverFailure(
            f"closed-form residual {terms.residual[miss[0]]:.3e} exceeds "
            f"{EXACT_TOL:.0e} for f_a={float(f_a[i])!r}, f_b={float(f_b[i])!r}, "
            f"phi={float(phi[i])!r}")
    azimuth_a = np.arctan2(a[coherent, 1], a[coherent, 0]) % TWO_PI
    azimuth_b = np.arctan2(b[coherent, 1], b[coherent, 0]) % TWO_PI
    weights[coherent], count[coherent] = terms.weights, terms.count
    residual[coherent] = terms.residual
    pa[coherent] = _z_turn(terms.a, azimuth_a[:, None])
    pb[coherent] = _z_turn(terms.b, azimuth_b[:, None])
    return GateTerms(weights, pa, pb, count, residual)


def terms_row(terms: GateTerms, k: int) -> Decomposition:
    """Row k of a GateTerms table: its support, without the zero padding."""
    n = terms.count[k]
    return Decomposition(terms.weights[k, :n], terms.a[k, :n], terms.b[k, :n])


def closed_form_decomposition(target, r_out_a: float, r_out_b: float):
    """One row of `decompose.closed_forms`: (feasible, Decomposition,
    residual) for a 4x4 target, the residual being the largest
    Pauli-coefficient error of the terms."""
    feasible, terms = closed_forms(np.asarray(target, dtype=float)[None],
                                   [r_out_a], [r_out_b])
    return bool(feasible[0]), terms_row(terms, 0), float(terms.residual[0])


def decompose_gate_output(v_a: BlochVector, v_b: BlochVector, phi: float,
                          r_out_a: float, r_out_b: float) -> Decomposition:
    """Separable decomposition of V_phi (v_a x v_b) V_phi^dag over
    Cyl(r_out_a) x Cyl(r_out_b): one row of `decompose_gate_outputs`."""
    return terms_row(decompose_gate_outputs(v_a.as_array()[None], v_b.as_array()[None],
                                            [phi], [r_out_a], [r_out_b]), 0)


def hull_membership(target: np.ndarray, r_a: float, r_b: float,
                    n: int = 40, refine_rounds: int = 6):
    """LP convex-hull membership of a normalised two-particle operator, given
    as its 4x4 Pauli coefficients, in the separable hull over Cyl(r_a) x
    Cyl(r_b) extrema discretized at N azimuths per circle.  Returns
    (feasible, Decomposition, residual)."""
    residual, d = decompose_over_circles(
        target, [(-1.0, r_a), (1.0, r_a)], [(-1.0, r_b), (1.0, r_b)], n, refine_rounds)
    return residual <= LP_TOL, d, residual


# Smallest eigenvalue `DenseState.validate` accepts as rounding.
_MIN_EIGENVALUE = -1e-9


@dataclass
class DenseState:
    """An n-qubit density matrix, a full 2^n x 2^n array: the Kronecker
    reference for `oracle.exact_distribution`.  Qubit 0 owns the most
    significant bit of the basis index."""

    n: int
    rho: np.ndarray

    @classmethod
    def from_product(cls, vectors: list[BlochVector]) -> "DenseState":
        if len(vectors) > MAX_QUBITS:
            raise TooManyQubits(f"{len(vectors)} qubits exceed the dense limit")
        rho = np.array([[1.0 + 0j]])
        for v in vectors:
            rho = np.kron(rho, v.dense())
        return cls(len(vectors), rho)

    def validate(self):
        """Check trace, Hermiticity, and (for quantum inputs) positivity."""
        if abs(np.trace(self.rho) - 1.0) > 1e-10:
            raise ValueError("trace deviates from 1")
        if np.max(np.abs(self.rho - self.rho.conj().T)) > 1e-10:
            raise ValueError("rho is not Hermitian")
        if np.linalg.eigvalsh(self.rho).min() < _MIN_EIGENVALUE:
            raise ValueError("rho has a significant negative eigenvalue")

    def pauli_coeff(self, qubit_i: int, qubit_j: int) -> np.ndarray:
        """4x4 Pauli coefficients of the reduced state of two qubits."""
        keep = sorted({qubit_i, qubit_j})
        reduced = partial_trace_keep(self.rho, self.n, keep)
        if keep[0] == qubit_j:  # restore requested order
            reduced = _swap_two_qubit(reduced)
        return pauli_coeffs(reduced)


def _swap_two_qubit(rho4: np.ndarray) -> np.ndarray:
    return rho4.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def partial_trace_keep(rho: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """The reduced state of the qubits in `keep`."""
    tensor = rho.reshape([2] * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    for offset, q in enumerate(sorted(traced)):
        axis = q - offset  # earlier traces shifted the remaining axes
        live = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=axis, axis2=axis + live)
    dim = 2 ** len(keep)
    return tensor.reshape(dim, dim)


def evolve(state: DenseState, gate: DiagonalGate, nodes: tuple[int, int]) -> DenseState:
    """Conjugate the state by the diagonal gate embedded on the given qubits.

    Diagonal unitaries act entrywise: rho_ab -> d_a rho_ab conj(d_b)."""
    i, j = nodes
    if i == j or not (0 <= i < state.n) or not (0 <= j < state.n):
        raise IndexError(f"bad qubit pair ({i}, {j}) for n={state.n}")
    idx = np.arange(2 ** state.n)
    bit_i = (idx >> (state.n - 1 - i)) & 1
    bit_j = (idx >> (state.n - 1 - j)) & 1
    phases = gate.entry_phases()
    d = np.exp(1j * phases[2 * bit_i + bit_j])
    return DenseState(state.n, state.rho * np.outer(d, d.conj()))
