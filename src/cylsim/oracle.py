"""Exact quantum simulation at desk scale (n <= 10 qubits).

This module is the ground truth for every acceptance experiment.
`DenseState` and `evolve` hold and conjugate a full 2^n x 2^n density matrix.
`exact_distribution` walks the complete outcome tree of a measurement
schedule on a state tensor whose operations each touch only the axes of the
qubits involved, about 4^n entries per level of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, DiagonalGate, MeasurementSpec, pauli_coeffs

MAX_QUBITS = 10
# Outcome-tree branches with probability at or below this are dropped, and
# their mass is reported.
PRUNE = 1e-15
# Smallest eigenvalue `DenseState.validate` accepts as rounding.
_MIN_EIGENVALUE = -1e-9


class TooManyQubits(ValueError):
    """Dense simulation is capped at MAX_QUBITS qubits."""


@dataclass
class DenseState:
    """An n-qubit density matrix.  Qubit 0 owns the most significant bit of
    the basis index."""

    n: int
    rho: np.ndarray

    def __post_init__(self):
        if self.n > MAX_QUBITS:
            raise TooManyQubits(f"n={self.n} exceeds the dense limit {MAX_QUBITS}")
        dim = 2 ** self.n
        if self.rho.shape != (dim, dim):
            raise ValueError(f"rho must be {dim}x{dim}")

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
        reduced = _partial_trace_keep(self.rho, self.n, keep)
        if keep[0] == qubit_j:  # restore requested order
            reduced = _swap_two_qubit(reduced)
        return pauli_coeffs(reduced)


def _swap_two_qubit(rho4: np.ndarray) -> np.ndarray:
    sw = np.zeros((4, 4))
    sw[0, 0] = sw[3, 3] = sw[1, 2] = sw[2, 1] = 1.0
    return sw @ rho4 @ sw


def _partial_trace_keep(rho: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
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


@dataclass
class ExactDistribution:
    """Exact outcome distribution with the mass lost to branch pruning."""

    probs: dict[str, float]
    pruned_mass: float

    def total(self) -> float:
        return sum(self.probs.values()) + self.pruned_mass


# The outcome-tree walk carries the state as a tensor with one group of axes
# per live qubit, in node order.  A coherent qubit owns two axes (row, column);
# a qubit after a quasi-destructive measurement owns one, its classical Z bit:
# each node is measured once, and afterwards only diagonal gates touch it.
# `layout` lists (node, number of axes) in axis order.

def _apply_gate(tensor: np.ndarray, layout, edge, phi: float) -> np.ndarray:
    """Multiply elementwise by the gate's phase tensor d (x) conj(d) over its
    endpoints' axes; a dephased endpoint repeats its one label, which reads
    the diagonal (row = column)."""
    d = DiagonalGate(phi).diag().reshape(2, 2)
    factor = np.multiply.outer(d, d.conj())  # axes (u_row, v_row, u_col, v_col)
    u, v = edge
    width = dict(layout)
    labels = {u: "ac" if width[u] == 2 else "a", v: "bd" if width[v] == 2 else "b"}
    src = "ab" + labels[u][-1] + labels[v][-1]
    out = "".join(labels.get(node, "") for node, _ in layout)
    shape = [2 if node in labels else 1 for node, w in layout for _ in range(w)]
    return tensor * np.einsum(f"{src}->{out}", factor).reshape(shape)


def _trace_subscripts(layout) -> str:
    """einsum subscripts of the trace: a coherent qubit repeats its label."""
    return "".join(chr(97 + k) * w for k, (_, w) in enumerate(layout)) + "->"


def exact_distribution(spec) -> ExactDistribution:
    """Walk the full outcome tree of an experiment's schedule.

    Gates and measurements follow the experiment timeline.  Measurement
    projectors are rank 1, so a measurement contracts the qubit's two axes
    with the projector P and its probability is the trace of the result; a
    quasi-destructive measurement leaves the qubit as one axis weighted by
    diag(P), a destructive one drops it.  Branches of probability at most
    PRUNE are dropped and their mass reported."""
    from .experiment import ExperimentSpec, resolve_measure_angle  # cycle guard

    assert isinstance(spec, ExperimentSpec)
    nodes = spec.node_ids()
    if len(nodes) > MAX_QUBITS:
        raise TooManyQubits(f"{len(nodes)} nodes exceed the dense limit {MAX_QUBITS}")
    tensor = np.ones((), dtype=complex)
    for node in nodes:
        tensor = np.multiply.outer(tensor, spec.inputs[node].bloch().dense())
    timeline = spec.timeline()

    probs: dict[str, float] = {}
    pruned = 0.0

    def walk(tensor, layout, step, prob, outcomes, record):
        nonlocal pruned
        while step < len(timeline):
            kind, payload = timeline[step]
            if kind == "gate":
                tensor = _apply_gate(tensor, layout, payload.edge, payload.phi)
                step += 1
                continue
            mstep = payload
            omega = resolve_measure_angle(mstep, record)
            m = MeasurementSpec(mstep.spec.kind, omega, mstep.spec.mode)
            k = [node for node, _ in layout].index(mstep.node)
            grouped = tensor.reshape(2 ** sum(w for _, w in layout[:k]), 4, -1)
            rest = layout[:k] + layout[k + 1:]
            trace = _trace_subscripts(rest)
            for outcome in (+1, -1):
                proj = BlochVector(*(m.axis() * (1.0 if outcome > 0 else -1.0))).dense()
                # sum over (row, column) of rho[r, c] P[c, r]: tr_q(P rho)
                sub = np.einsum("ikj,k->ij", grouped, proj.T.ravel())
                p = float(np.einsum(trace, sub.reshape((2,) * (tensor.ndim - 2))).real)
                if p <= PRUNE:
                    if p > 0:
                        pruned += prob * p
                    continue
                sub = sub / p
                if m.mode == "quasi-destructive":
                    sub = sub[:, None, :] * proj.diagonal()[:, None]
                    new_layout = layout[:k] + [(mstep.node, 1)] + layout[k + 1:]
                else:
                    new_layout = rest
                new_record = dict(record)
                new_record[mstep.node] = outcome
                walk(sub.reshape((2,) * sum(w for _, w in new_layout)), new_layout,
                     step + 1, prob * p, outcomes + ("+" if outcome > 0 else "-"),
                     new_record)
            return
        probs[outcomes] = probs.get(outcomes, 0.0) + prob

    walk(tensor, [(node, 2) for node in nodes], 0, 1.0, "", {})
    return ExactDistribution(probs, pruned)
