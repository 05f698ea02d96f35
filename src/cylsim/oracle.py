"""Exact quantum simulation at desk scale (n <= 10 qubits).

This module is the ground truth for every acceptance experiment.
`exact_distribution` advances every branch of a measurement schedule's
outcome tree at once, on one state tensor: a measurement turns the measured
qubit's (row, column) axes into an outcome axis, so each timeline event is
one or two numpy calls over at most 4^n entries, with no matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import DiagonalGate

MAX_QUBITS = 10
# Outcome-tree branches with probability at or below this are dropped, and
# their mass is reported.
PRUNE = 1e-15


class TooManyQubits(ValueError):
    """Dense simulation is capped at MAX_QUBITS qubits."""


@dataclass
class ExactDistribution:
    """Exact outcome distribution with the mass lost to branch pruning."""

    probs: dict[str, float]
    pruned_mass: float


# The axes of `exact_distribution`'s tensor: first one per measurement made
# so far, its outcome (+ then -) in schedule order, then those of the live
# nodes in node order.  A coherent node owns two axes (row, column); a node
# measured quasi-destructively that a later gate still touches owns one, its
# classical Z bit: each node is measured once, and afterwards only diagonal
# gates touch it.  `lead` counts the outcome axes, and `layout` lists (node,
# number of axes) for the live nodes in axis order.

def _apply_gate(tensor: np.ndarray, lead: int, layout, edge, phi: float) -> np.ndarray:
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
    return tensor * np.einsum(f"{src}->{out}", factor).reshape([1] * lead + shape)


def _retire(tensor: np.ndarray, lead: int, layout, node):
    """Sum out a node that no later event touches: trace a coherent node, add
    up a dephased node's Z bit.  Returns the tensor and the new layout."""
    k = [x for x, _ in layout].index(node)
    width = layout[k][1]
    before = lead + sum(w for _, w in layout[:k])
    grouped = tensor.reshape(2 ** before, *(2,) * width, -1)
    tensor = np.einsum("xaay->xy", grouped) if width == 2 else grouped.sum(axis=1)
    rest = layout[:k] + layout[k + 1:]
    return tensor.reshape((2,) * (lead + sum(w for _, w in rest))), rest


_SIGN = np.array([1.0, -1.0])  # outcome index 0 is +1, index 1 is -1


def _projectors(kind: str, omega) -> np.ndarray:
    """P[..., s, r, c]: the rank-1 projector (I + s n.sigma)/2 of outcome s
    for a measurement at angle omega, a float or an array over outcome axes."""
    if kind == "Z":
        x, y, z = 0.0, 0.0, 1.0
    else:
        x, y, z = np.cos(omega), np.sin(omega), 0.0
    x, y, z = np.broadcast_arrays(*(np.multiply.outer(c, _SIGN) for c in (x, y, z)))
    p = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
    return np.moveaxis(p, (0, 1), (-2, -1))


def exact_distribution(spec) -> ExactDistribution:
    """The exact outcome distribution of an experiment's schedule.

    Gates and measurements follow the experiment timeline, and all 2^m
    branches advance together.  The gates before the first measurement
    commute, so their phases add up to one vector Theta over the basis states
    and the state is multiplied once by D (x) conj(D), D = exp(i Theta).  A
    measurement contracts the node's (row, column) axes with its rank-1
    projector P, which turns them into an outcome axis; an adaptive rule's P
    is indexed by its parents' outcome axes.  A quasi-destructive measurement
    keeps the node as a Z-bit axis weighted by diag(P) while a later gate
    still touches it; a gate anchored after a measurement multiplies the
    tensor by its phase tensor.  At the end the tensor is the joint
    distribution of the outcomes.  From the prefix marginals M_k, a branch's
    conditional probability is p = M_{k+1} / M_k; a subtree is dropped at
    its first p <= PRUNE, and its mass is reported when p > 0."""
    from .experiment import ExperimentSpec, resolve_measure_angle  # cycle guard

    assert isinstance(spec, ExperimentSpec)
    nodes = spec.node_ids()
    n = len(nodes)
    if n > MAX_QUBITS:
        raise TooManyQubits(f"{n} nodes exceed the dense limit {MAX_QUBITS}")
    timeline = spec.timeline()
    last = {}  # node -> index of the last timeline event that touches it
    for i, (kind, payload) in enumerate(timeline):
        for node in payload.edge if kind == "gate" else (payload.node,):
            last[node] = i
    first = next((i for i, (kind, _) in enumerate(timeline) if kind == "measure"),
                 len(timeline))

    tensor = np.ones((), dtype=complex)
    for node in nodes:
        tensor = np.multiply.outer(tensor, spec.inputs[node].bloch().dense())
    if first:
        axis = {node: k for k, node in enumerate(nodes)}
        theta = np.zeros((2,) * n)
        for _, gate in timeline[:first]:
            u, v = (axis[node] for node in gate.edge)
            table = DiagonalGate(gate.phi).entry_phases().reshape(2, 2)
            shape = [1] * n
            shape[u] = shape[v] = 2
            theta = theta + (table if u < v else table.T).reshape(shape)
        d = np.exp(1j * theta)
        tensor *= d.reshape([2, 1] * n)
        tensor *= d.conj().reshape([1, 2] * n)
    layout = [(node, 2) for node in nodes]
    for node in nodes:
        if last.get(node, -1) < first:
            tensor, layout = _retire(tensor, 0, layout, node)

    measured: list[int] = []  # the outcome axes' nodes
    for i in range(first, len(timeline)):
        kind, payload = timeline[i]
        lead = len(measured)
        if kind == "gate":
            tensor = _apply_gate(tensor, lead, layout, payload.edge, payload.phi)
            for node in payload.edge:
                if last[node] == i:
                    tensor, layout = _retire(tensor, lead, layout, node)
            continue
        grids = {node: _SIGN.reshape([2 if a == j else 1 for a in range(lead)])
                 for j, node in enumerate(measured)}
        proj = _projectors(payload.spec.kind, resolve_measure_angle(payload, grids))
        proj = np.broadcast_to(proj, (2,) * lead + (2, 2, 2)).reshape(-1, 2, 2, 2)
        k = [node for node, _ in layout].index(payload.node)
        before = sum(w for _, w in layout[:k])
        grouped = tensor.reshape(2 ** lead, 2 ** before, 2, 2, -1)
        # sum over (row, column) of rho[r, c] P[c, r]: tr_q(P rho), per outcome
        tensor = np.einsum("oarcb,oscr->osab", grouped, proj)
        if payload.spec.mode == "quasi-destructive" and last[payload.node] > i:
            z_bit = proj.diagonal(axis1=2, axis2=3)  # (outcomes, s, z)
            tensor = tensor[:, :, :, None, :] * z_bit[:, :, None, :, None]
            layout[k] = (payload.node, 1)
        else:
            del layout[k]
        measured.append(payload.node)
        tensor = tensor.reshape((2,) * (lead + 1 + sum(w for _, w in layout)))

    assert not layout  # every node is summed out: the joint distribution is left
    m = len(measured)
    marginals = [tensor.real]
    for _ in range(m):
        marginals.insert(0, marginals[0].sum(axis=-1))
    marginals[0] = np.ones(())  # the empty prefix has probability 1
    alive = np.ones((), dtype=bool)
    pruned = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # dead prefixes only
        for k in range(m):
            p = marginals[k + 1] / marginals[k][..., None]
            cut = alive[..., None] & (p <= PRUNE)
            pruned += float(marginals[k + 1][cut & (p > 0)].sum())
            alive = alive[..., None] & (p > PRUNE)
    index = np.flatnonzero(alive)
    signs = str.maketrans("01", "+-")
    keys = [format(j | 1 << m, "b")[1:].translate(signs) for j in index.tolist()]
    return ExactDistribution(dict(zip(keys, marginals[m].ravel()[index].tolist())),
                             pruned)
