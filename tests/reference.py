"""Reference constructions that only the tests use."""

import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cylsim.bloch import PAULI, BlochVector, DiagonalGate, MeasurementSpec, apply_gate_paulis
from cylsim.decompose import (
    EXACT_TOL,
    Decomposition,
    GateTerms,
    closed_forms,
    decompose_gate_outputs,
    reconstruct,
)
from cylsim.oracle import MAX_QUBITS, TooManyQubits


def bench_workloads():
    """bench/workloads.py, loaded from its file (its dataclasses need it in
    sys.modules)."""
    if "bench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = importlib.util.module_from_spec(module_spec)
        sys.modules["bench_workloads"] = module
        module_spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


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
    Cyl(r_out_a) x Cyl(r_out_b): one row of `decompose.decompose_gate_outputs`."""
    return terms_row(decompose_gate_outputs(v_a.as_array()[None], v_b.as_array()[None],
                                            [phi], [r_out_a], [r_out_b]), 0)


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
