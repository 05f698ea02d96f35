"""Monte-Carlo branch sampling over separable decompositions.

Each sample draws one product branch of the experiment's cylinder-separable
decomposition: initial extremal splits, a sampled decomposition term per
gate, and Born-rule outcomes per measurement.  Every decomposition is the
closed form of `decompose`, exact to 1e-12 in the Pauli coefficients, so the
sampled outcome distribution matches the quantum one up to shot noise.

All samples advance through the timeline together, as arrays: each node
holds a complex xy row and an int8 z row with one entry per sample.  The
radius ledger supplies each gate's input and output radii.  A branch vector
entering a gate is fixed by its ledger radius, its z (-1, 0 or +1) and its
azimuth, and diagonal gates commute with local Z-rotations, so a gate step
decomposes once per input z pair present (at most nine) at azimuth 0; each
sample picks a term, indexes its row of each side's point array and
Z-rotates it by its own input's azimuth.

Randomness is counter-based: step k (the initial split of the k-th node,
then the timeline's events) draws one uniform per sample from the Philox
stream keyed by the seed at counter k.  Sample j's draws depend only on
(seed, step, j), so a shorter run with the same seed reproduces a prefix of
a longer one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import Generator, Philox  # numpy loads it lazily: load it here

from . import decompose
from .bloch import ZERO_RADIUS, BlochVector, measure_prob
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

    def uniform(step):
        return Generator(Philox(key=seed, counter=[0, 0, 0, step])).random(n)

    nodes = spec.node_ids()
    xy, z = {}, {}
    for step, node in enumerate(nodes):
        v = spec.inputs[node].bloch()
        xy[node] = np.full(n, complex(v.x, v.y))
        z[node] = np.where(uniform(step) < (1.0 + v.z) / 2.0, 1, -1).astype(np.int8)

    run = SampleRun(outcomes=[])
    signs = {}  # measured node -> +-1 outcome row
    chars = np.empty((n, len(spec.schedule)), dtype=np.uint8)
    timeline = zip(spec.timeline(), ledger.trace)
    for step, ((kind, payload), row) in enumerate(timeline, start=len(nodes)):
        u = uniform(step)
        if kind == "gate":
            a, b = payload.edge
            r_a, r_b = row.inputs
            out_a, out_b = row.radii[a], row.radii[b]
            code = (z[a] + 1) * 3 + (z[b] + 1)
            new_xy = {a: np.empty(n, complex), b: np.empty(n, complex)}
            new_z = {a: np.empty(n, np.int8), b: np.empty(n, np.int8)}
            # the codes present, ascending (np.unique would import numpy.ma here)
            for c in np.flatnonzero(np.bincount(code, minlength=9)):
                z_a, z_b = divmod(int(c), 3)
                d = decompose.decompose_gate_output(
                    BlochVector(r_a, 0.0, z_a - 1), BlochVector(r_b, 0.0, z_b - 1),
                    payload.phi, out_a, out_b)
                cum = np.cumsum(d.weights)
                sel = code == c
                pick = np.minimum(np.searchsorted(cum, u[sel] * cum[-1], side="right"),
                                  len(cum) - 1)
                for node, pts in ((a, d.a), (b, d.b)):
                    term_xy = pts[:, 0] + 1j * pts[:, 1]
                    new_xy[node][sel] = term_xy[pick] * _phase(xy[node][sel])
                    new_z[node][sel] = pts[pick, 2]
            xy.update(new_xy)
            z.update(new_z)
            if min(row.inputs) > ZERO_RADIUS and fold_phase(payload.phi) != 0.0:
                run.canonical_decompositions += n
            else:
                run.fast_path_hits += n
            if check_invariants:
                for node, bound in ((a, out_a), (b, out_b)):
                    slack = float(np.max(np.abs(np.abs(xy[node]) - bound)))
                    run.max_radius_slack = max(run.max_radius_slack, slack)
                    if slack > 1e-9:
                        raise AssertionError(
                            f"branch radius at node {node} departs from its "
                            "ledger radius")
        else:
            node = payload.node
            mspec = replace(payload.spec, omega=resolve_measure_angle(payload, signs))
            probs = measure_prob(BlochVector(xy[node].real, xy[node].imag, z[node]),
                                 mspec)
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
            xy[node] = np.zeros(n, complex)

    # each row of '+'/'-' bytes read as one string
    run.outcomes = chars.view(f"S{chars.shape[1]}")[:, 0].astype(str).tolist() \
        if chars.shape[1] else [""] * n
    run.counts = dict(Counter(run.outcomes))
    return run


def _phase(xy):
    """xy / |xy| elementwise, and 1 (azimuth 0) at radii <= ZERO_RADIUS:
    a gate's terms keep such a side's xy part at most that small."""
    r = np.abs(xy)
    coherent = r > ZERO_RADIUS
    return np.where(coherent, xy / np.where(coherent, r, 1.0), 1.0)


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
