"""Monte-Carlo branch sampling over separable decompositions.

Each sample draws one product branch of the experiment's cylinder-separable
decomposition: initial extremal splits, a sampled decomposition term per
gate, and Born-rule outcomes per measurement.  Every decomposition is the
closed form of `decompose`, exact to 1e-12 in the Pauli coefficients, so the
sampled outcome distribution matches the quantum one up to shot noise.

Randomness is counter-based: sample k uses a Philox stream keyed by
(seed, k), so results are reproducible for a fixed seed under any degree of
parallel or out-of-order evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import decompose
from .bloch import BlochVector, measure_prob, post_measurement_state, radius
from .decompose import DecompositionRequest, canonicalize_inputs
from .experiment import ExperimentSpec, radius_ledger, resolve_measure_angle


class NegativeBranchProbability(RuntimeError):
    """A branch produced an outcome probability below -1e-12.  This signals a
    ledger or decomposer bug and always aborts; it is never clamped away."""


class AlphabetMismatch(ValueError):
    """Sampled outcomes and the exact distribution disagree on the alphabet."""


@dataclass
class SampleRun:
    outcomes: list[str]
    log_weights: list[float] = field(default_factory=list)  # diagnostics
    fast_path_hits: int = 0
    canonical_decompositions: int = 0
    max_radius_slack: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def histogram(self) -> dict[str, float]:
        n = len(self.outcomes)
        return {k: v / n for k, v in sorted(self.counts.items())}


def run_branches(spec: ExperimentSpec, check_invariants: bool = False) -> SampleRun:
    """Sample the experiment's outcome strings (schedule order, '+'/'-').

    Requires a simulable measurement-aware ledger.  With check_invariants,
    every branch vector is checked against its ledger radius at every step.
    """
    ledger = radius_ledger(spec, policy="measurement-aware")
    if not ledger.simulable:
        raise decompose.InfeasibleRequest(
            f"experiment infeasible at ledger step {ledger.infeasible_step}")

    settings = spec.sampler
    plan = _plan_from_ledger(spec, ledger)

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


def _plan_from_ledger(spec: ExperimentSpec, ledger):
    """Timeline events; a gate carries its output radii (its ledger row) and,
    when coherent, canonical weights and terms per input z-sign case, keyed
    by (z_a > 0, z_b > 0).  Input radii are the previous row's.  A measure
    row still shows the measured node's old radius, but a later gate on it
    shows 0 in its own row, so coherence is read from the output radii."""
    before = [{node: spec.inputs[node].radius() for node in spec.node_ids()}]
    before += [row.radii for row in ledger.trace[:-1]]
    plan = []
    for (kind, payload), row, radii in zip(spec.timeline(), ledger.trace, before):
        if kind == "measure":
            plan.append((kind, payload, None))
            continue
        a, b = payload.edge
        out_a, out_b = row.radii[a], row.radii[b]
        cases = None
        if out_a > 0.0 and out_b > 0.0 and decompose.fold_phase(payload.phi) != 0.0:
            cases = {}
            for z_a, z_b in itertools.product((1.0, -1.0), repeat=2):
                req = DecompositionRequest(
                    BlochVector(radii[a], 0.0, z_a), BlochVector(radii[b], 0.0, z_b),
                    payload.phi, out_a, out_b)
                canonical, _frame = canonicalize_inputs(req)
                terms = decompose.decompose_gate_output(canonical)
                cases[z_a > 0, z_b > 0] = (np.array([t.weight for t in terms]), terms)
        plan.append((kind, payload, (out_a, out_b, cases)))
    return plan


def _one_branch(plan, init, rng, run, check_invariants):
    vectors: dict[int, BlochVector] = {}
    log_weight = 0.0
    for node, (p_up, x, y) in init.items():
        up = rng.random() < p_up
        vectors[node] = BlochVector(x, y, 1.0 if up else -1.0)
        log_weight += math.log(p_up if up else 1.0 - p_up)
    outcome_by_node: dict[int, int] = {}
    chars = []

    for kind, payload, gate_plan in plan:
        if kind == "gate":
            a, b = payload.edge
            out_a, out_b, cases = gate_plan
            req = DecompositionRequest(vectors[a], vectors[b], payload.phi,
                                       out_a, out_b)
            if cases is None:
                terms = decompose.decompose_gate_output(req)
                weights = np.array([t.weight for t in terms])
                run.fast_path_hits += 1
            else:
                _canonical, frame = canonicalize_inputs(req)
                weights, terms = cases[vectors[a].z > 0, vectors[b].z > 0]
                run.canonical_decompositions += 1
            idx = _pick(rng, weights)
            om_a, om_b = terms[idx].omega_a, terms[idx].omega_b
            vectors[a], vectors[b] = (om_a, om_b) if cases is None else \
                frame.map_pair(om_a, om_b)
            log_weight += math.log(max(weights[idx], 1e-300))
            if check_invariants:
                for node, bound in ((a, out_a), (b, out_b)):
                    slack = radius(vectors[node]) - bound
                    run.max_radius_slack = max(run.max_radius_slack, slack)
                    if slack > 1e-9:
                        raise AssertionError(
                            f"branch vector exceeds ledger radius at node {node}")
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
    run.log_weights.append(log_weight)
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
