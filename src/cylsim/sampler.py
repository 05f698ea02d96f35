"""Monte-Carlo branch sampling over separable decompositions.

Each sample draws one product branch of the experiment's cylinder-separable
decomposition: initial extremal splits, a sampled decomposition term per
gate, and Born-rule outcomes per measurement.  Every decomposition is the
closed form of `decompose`, exact to 1e-12 in the Pauli coefficients, so the
sampled outcome distribution matches the quantum one up to shot noise.

The radius ledger holds every radius: a branch vector is its node's ledger
radius r, its z (-1, 0 or +1) and a phase ph (a unit phase, or 0), with
xy = r ph.  A gate step's terms depend only on its key (phi, zero_a, zero_b),
which of its ledger inputs are zero radii, and its input z pair: the ledger
grows both sides of a coherent gate by lambda(phi), so its closed form sees
the ratios 1/lambda(phi) and scales with the output radius, and diagonal
gates commute with local Z-rotations.  So before the walk, batched calls of
`decompose.decompose_gate_outputs` (TABLE_BLOCK rows each) tabulate each key
once, at azimuth 0 and unit radius (a coherent key from 1/lambda(phi) to 1,
any other from 1 to 1 and a zero side at 0), for the four pole pairs of a
coherent key (only an XY measurement sets z to 0, and it zeroes the radius
too) or all nine of any other.

All samples then advance through the timeline together, as arrays: each
node holds an int8 z row and a complex ph row with one entry per sample.  A
gate step reads each sample's table row from its key and input z pair,
picks a term by its cumulative weights and Z-rotates each side's term by
that side's ph.  A measurement reads xy as r ph.

Randomness is counter-based: step k (the initial split of the k-th node,
then the timeline's events) draws one uniform per sample from the Philox
stream keyed by the seed at counter k.  Sample j's draws depend only on
(seed, step, j), so a shorter run with the same seed reproduces a prefix of
a longer one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox  # numpy loads it lazily: load it here

from . import decompose
from .bloch import ZERO_RADIUS, BlochVector, measure_prob
from .experiment import ExperimentSpec, radius_ledger, resolve_measure_angle
from .growth import fold_phase, lambda_phi


class NegativeBranchProbability(RuntimeError):
    """A branch produced an outcome probability below -1e-12.  This signals a
    ledger or decomposer bug and always aborts; it is never clamped away."""


class AlphabetMismatch(ValueError):
    """Sampled outcomes and the exact distribution disagree on the alphabet."""


@dataclass
class SampleRun:
    outcomes: list[str]
    fast_path_hits: int = 0  # identity gates and gates on a zero radius
    canonical_decompositions: int = 0  # coherent gates
    max_radius_slack: float = 0.0  # largest |r |ph| - r| leaving a gate
    max_closed_form_residual: float = 0.0  # over the unit-radius table
    counts: dict[str, int] = field(default_factory=dict)


# Rows of the gate table decomposed per `decompose_gate_outputs` call: bounds
# the temporaries of a table of any size to a few MB.
TABLE_BLOCK = 4096
# The input z pairs (z_a, z_b), at index (3 z_a + z_b) mod 9, where the walk
# reads them (a negative index counts from the end).
_Z_A = np.array([0, 0, 1, 1, 1, -1, -1, -1, 0])
_Z_B = np.array([0, 1, -1, 0, 1, -1, 0, 1, -1])
_POLE_PAIRS = (_Z_A != 0) & (_Z_B != 0)


class _GateTable(NamedTuple):
    """Every gate key's terms at unit radius, one table row per (key, input
    z pair) that the key can see; each row holds up to four terms, support
    first."""

    key: np.ndarray  # (gate steps,): the step's key
    rows: np.ndarray  # (keys, 9): row by z pair index, -1 if unseen
    thresholds: np.ndarray  # (rows, 3): cumulative weights, inf from the last term on
    total: np.ndarray  # (rows,): sum of the weights
    ph: tuple  # per side, (rows * 4,) complex term xy at azimuth 0: 1 in modulus or 0
    z: tuple  # per side, (rows * 4,) int8 term z
    coherent: np.ndarray  # (keys,): takes the closed form
    residual: float  # largest closed-form residual, 0 without coherent gates


def _tabulate(gates) -> _GateTable:
    """Decompose each key of the (GateStep, LedgerRow) pairs at unit radius
    for each input z pair it sees, TABLE_BLOCK rows per call.

    A term is picked as the first whose cumulative weight exceeds u times
    the total, or else the last: the thresholds hold each row's cumulative
    weights before its last term and inf from there on, so the number of
    thresholds <= u * total is the pick."""
    keys = {}  # (phi, zero_a, zero_b) -> key
    key = np.array([keys.setdefault((gate.phi, *(r <= ZERO_RADIUS for r in row.inputs)),
                                    len(keys)) for gate, row in gates], dtype=np.intp)
    phi = np.array([p for p, _, _ in keys], dtype=float)
    r_out = np.array([(not zero_a, not zero_b) for _, zero_a, zero_b in keys],
                     dtype=float).reshape(-1, 2)
    coherent = r_out.all(axis=1) & np.array([fold_phase(p) != 0.0 for p in phi], bool)
    lam = np.array([lambda_phi(p) for p in phi]).reshape(-1, 1)
    r_in = np.where(coherent[:, None], 1.0 / lam, r_out)
    entry, pair = np.nonzero(np.where(coherent[:, None], _POLE_PAIRS, True))
    size = len(entry)
    rows = np.full((len(keys), 9), -1)
    rows[entry, pair] = np.arange(size)
    table = _GateTable(key, rows, np.empty((size, 3)), np.empty(size),
                       (np.empty(4 * size, complex), np.empty(4 * size, complex)),
                       (np.empty(4 * size, np.int8), np.empty(4 * size, np.int8)),
                       coherent, 0.0)
    residual = 0.0
    for start in range(0, size, TABLE_BLOCK):
        block = slice(start, start + TABLE_BLOCK)
        k = entry[block]
        zeros = np.zeros(len(k))
        terms = decompose.decompose_gate_outputs(
            np.column_stack([r_in[k, 0], zeros, _Z_A[pair[block]]]),
            np.column_stack([r_in[k, 1], zeros, _Z_B[pair[block]]]),
            phi[k], r_out[k, 0], r_out[k, 1])
        cum = np.cumsum(terms.weights, axis=1)
        table.total[block] = cum[:, 3]
        table.thresholds[block] = np.where(
            np.arange(3) < (terms.count - 1)[:, None], cum[:, :3], np.inf)
        terms_block = slice(4 * start, 4 * (start + len(k)))
        for side, pts in enumerate((terms.a, terms.b)):
            table.ph[side][terms_block] = (pts[..., 0] + 1j * pts[..., 1]).reshape(-1)
            table.z[side][terms_block] = pts[..., 2].reshape(-1)
        residual = max(residual, float(terms.residual.max(initial=0.0)))
    return table._replace(residual=residual)


def run_branches(spec: ExperimentSpec, check_invariants: bool = False) -> SampleRun:
    """Sample the experiment's outcome strings (schedule order, '+'/'-').

    Requires a simulable ledger; raises InfeasibleRequest naming the ledger
    step otherwise.  With check_invariants, every branch vector leaving a
    gate must have its ledger radius to 1e-9.
    """
    ledger = radius_ledger(spec)
    if not ledger.simulable:
        raise decompose.InfeasibleRequest(
            f"experiment infeasible at ledger step {ledger.infeasible_step}")
    n, seed = spec.sampler.num_samples, spec.sampler.seed

    # one generator, reset to each step's counter: Philox(key=seed,
    # counter=[0, 0, 0, step]) per step would draw OS entropy each time
    bits = Philox(key=seed)
    draws, state = Generator(bits), bits.state

    def uniform(step):
        bits.state = {**state, "state": {**state["state"], "counter": np.array(
            [0, 0, 0, step], dtype=np.uint64)}}
        return draws.random(n)

    timeline = list(zip(spec.timeline(), ledger.trace))
    table = _tabulate([(payload, row) for (kind, payload), row in timeline
                       if kind == "gate"])

    nodes = spec.node_ids()
    ph, z = {}, {}  # xy = ledger radius * ph
    for step, node in enumerate(nodes):
        v, r = spec.inputs[node].bloch(), spec.inputs[node].radius()
        ph[node] = np.full(n, complex(v.x, v.y) / r if r else 0j)
        z[node] = np.where(uniform(step) < (1.0 + v.z) / 2.0, 1, -1).astype(np.int8)

    run = SampleRun(outcomes=[], max_closed_form_residual=table.residual)
    signs = {}  # measured node -> +-1 outcome row
    chars = np.empty((n, len(spec.schedule)), dtype=np.uint8)
    gate = 0  # gate steps so far
    for step, ((kind, payload), row) in enumerate(timeline, start=len(nodes)):
        u = uniform(step)
        if kind == "gate":
            a, b = payload.edge
            key = table.key[gate]
            rows = table.rows[key][3 * z[a] + z[b]]
            if rows.min() < 0:
                raise decompose.NonExtremalInput(
                    "the closed form needs inputs with z = +-1")
            x = u * table.total[rows]
            t = table.thresholds[rows]
            term = 4 * rows + (t[:, 0] <= x).view(np.int8) + (t[:, 1] <= x) + (t[:, 2] <= x)
            for side, node in enumerate((a, b)):  # a zero side's terms have xy 0
                ph[node] = table.ph[side][term] * ph[node]
                z[node] = table.z[side][term]
            if table.coherent[key]:
                run.canonical_decompositions += n
            else:
                run.fast_path_hits += n
            gate += 1
            if check_invariants:
                for node in (a, b):
                    r = row.radii[node]
                    slack = float(np.max(np.abs(np.abs(r * ph[node]) - r)))
                    run.max_radius_slack = max(run.max_radius_slack, slack)
                    if slack > 1e-9:
                        raise AssertionError(
                            f"branch radius at node {node} departs from its "
                            "ledger radius")
        else:
            node = payload.node
            mspec = replace(payload.spec, omega=resolve_measure_angle(payload, signs))
            ph[node] *= row.radii[node]  # now xy; the node's ph is reset below
            probs = measure_prob(BlochVector(ph[node].real, ph[node].imag, z[node]), mspec)
            if probs.negative:
                raise NegativeBranchProbability(
                    "negative branch probability min p = "
                    f"{np.min(np.minimum(probs.p_plus, probs.p_minus))} at node {node}")
            # below the flag threshold p may leave [0,1] by ~1e-16; the raw
            # comparison already handles that without clamping
            plus = u < probs.p_plus
            chars[:, len(signs)] = np.where(plus, ord("+"), ord("-"))
            signs[node] = np.where(plus, 1, -1).astype(np.int8)
            # total Z-dephasing: a Z outcome keeps its pole, XY leaves z = 0
            z[node] = signs[node] if mspec.kind == "Z" else np.zeros(n, np.int8)
            ph[node] = np.zeros(n, complex)

    # each row of '+'/'-' bytes read as one string
    run.outcomes = chars.view(f"S{chars.shape[1]}")[:, 0].astype(str).tolist() \
        if chars.shape[1] else [""] * n
    run.counts = dict(Counter(run.outcomes))
    return run


def empirical_tv(samples, exact: dict[str, float]) -> float:
    """Total variation distance between the empirical distribution of
    `samples` and an exact distribution over the same outcome alphabet."""
    counts: dict[str, int] = {}
    n = 0
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
        n += 1
    if n == 0:
        raise ValueError("no samples")
    unknown = set(counts) - set(exact)
    if unknown:
        raise AlphabetMismatch(f"sampled outcomes not in the exact alphabet: "
                               f"{sorted(unknown)[:5]}")
    tv = 0.0
    for key, p in exact.items():
        tv += abs(counts.get(key, 0) / n - p)
    return 0.5 * tv
