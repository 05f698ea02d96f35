"""Monte-Carlo branch sampling over separable decompositions.

Each sample draws one product branch of the experiment's cylinder-separable
decomposition: initial extremal splits, a sampled decomposition term per
gate, and Born-rule outcomes per measurement.  Every decomposition is the
closed form of `decompose`, exact to 1e-12 in the Pauli coefficients, so the
sampled outcome distribution matches the quantum one up to shot noise.

The radius ledger supplies each gate's input and output radii.  A branch
vector entering a gate is fixed by its ledger radius, its z (-1, 0 or +1)
and its azimuth, and diagonal gates commute with local Z-rotations, so each
gate step tabulates at most nine decompositions, one per input z pair at
azimuth 0, on first use; a sample picks a term and Z-rotates each side by
its own input vector's azimuth.

Randomness is counter-based: sample k uses a Philox stream keyed by
(seed, k), so results are reproducible for a fixed seed under any degree of
parallel or out-of-order evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import decompose
from .bloch import (
    ZERO_RADIUS,
    BlochVector,
    measure_prob,
    post_measurement_state,
    radius,
    z_rotate,
)
from .decompose import DecompositionRequest
from .experiment import ExperimentSpec, radius_ledger, resolve_measure_angle
from .growth import fold_phase


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
    max_radius_slack: float = 0.0  # largest |branch radius - ledger radius|
    counts: dict[str, int] = field(default_factory=dict)

    def histogram(self) -> dict[str, float]:
        n = len(self.outcomes)
        return {k: v / n for k, v in sorted(self.counts.items())}


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

    settings = spec.sampler

    # each timeline step with its ledger row; a gate step also carries its
    # class (coherent or fast path) and its table of (weights, terms) by
    # input z pair, filled on first use
    plan = []
    for (kind, payload), row in zip(spec.timeline(), ledger.trace):
        coherent = kind == "gate" and min(row.inputs) > ZERO_RADIUS and \
            fold_phase(payload.phi) != 0.0
        plan.append((kind, payload, row, coherent, {}))

    # initial extremal splits are shared by all samples
    init = {}
    for node in spec.node_ids():
        v = spec.inputs[node].bloch()
        p_up = (1.0 + v.z) / 2.0
        init[node] = (p_up, v.x, v.y)

    run = SampleRun(outcomes=[])
    for k in range(settings.num_samples):
        rng = np.random.Generator(np.random.Philox(key=settings.seed,
                                                   counter=[0, 0, 0, k]))
        run.outcomes.append(_one_branch(plan, init, rng, run, check_invariants))
    for s in run.outcomes:
        run.counts[s] = run.counts.get(s, 0) + 1
    return run


def _one_branch(plan, init, rng, run, check_invariants):
    vectors: dict[int, BlochVector] = {}
    for node, (p_up, x, y) in init.items():
        up = rng.random() < p_up
        vectors[node] = BlochVector(x, y, 1.0 if up else -1.0)
    outcome_by_node: dict[int, int] = {}
    chars = []

    for kind, payload, row, coherent, table in plan:
        if kind == "gate":
            a, b = payload.edge
            v_a, v_b = vectors[a], vectors[b]
            out_a, out_b = row.radii[a], row.radii[b]
            key = v_a.z, v_b.z
            entry = table.get(key)
            if entry is None:
                r_a, r_b = row.inputs
                terms = decompose.decompose_gate_output(DecompositionRequest(
                    BlochVector(r_a, 0.0, v_a.z), BlochVector(r_b, 0.0, v_b.z),
                    payload.phi, out_a, out_b))
                entry = table[key] = (
                    np.array([t.weight for t in terms]), terms)
            weights, terms = entry
            term = terms[_pick(rng, weights)]
            vectors[a] = z_rotate(term.omega_a, v_a.azimuth())
            vectors[b] = z_rotate(term.omega_b, v_b.azimuth())
            if coherent:
                run.canonical_decompositions += 1
            else:
                run.fast_path_hits += 1
            if check_invariants:
                for node, bound in ((a, out_a), (b, out_b)):
                    slack = abs(radius(vectors[node]) - bound)
                    run.max_radius_slack = max(run.max_radius_slack, slack)
                    if slack > 1e-9:
                        raise AssertionError(
                            f"branch radius at node {node} departs from its "
                            "ledger radius")
        else:
            node = payload.node
            omega = resolve_measure_angle(payload, outcome_by_node)
            mspec = payload.spec if payload.adaptive is None else \
                replace(payload.spec, omega=omega)
            probs = measure_prob(vectors[node], mspec)
            if probs.negative:
                raise NegativeBranchProbability(
                    f"negative branch probability p = ({probs.p_plus}, "
                    f"{probs.p_minus}) at node {node}")
            # below the flag threshold p may leave [0,1] by ~1e-16; the raw
            # comparison already handles that without clamping
            outcome = +1 if rng.random() < probs.p_plus else -1
            outcome_by_node[node] = outcome
            chars.append("+" if outcome > 0 else "-")
            vectors[node] = post_measurement_state(mspec, outcome)
    return "".join(chars)


def _pick(rng, weights) -> int:
    total = weights.sum()
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


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
