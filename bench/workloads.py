"""Benchmark workloads: the CLI command each operation runs, the experiment
spec generated from the workload seed, and the correctness gate applied to
every operation's output.

Why each workload exists, and the layer it stresses, is recorded in
BENCHMARK.json and bench/README.md.  No golden output is pinned: the gates
check outputs against the dense oracle and a shot-noise bound, so a change
to the seed-to-outcome mapping of the sampler stays admissible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# Probability that a correct sampler fails a TV gate on one operation.
TV_DELTA = 1e-6

# Criterion-5 configuration of `cylsim search-space` and its accepted window.
BSPACE_TARGET, BSPACE_WINDOW = 0.1153, 0.0010


def tv_bound(samples: int, outcomes: int) -> float:
    """Bound, exceeded with probability at most TV_DELTA, on the total
    variation distance between the histogram of `samples` independent draws
    and their true distribution over `outcomes` outcomes.

    The mean is at most sqrt((K - 1) / n) / 2 (Cauchy-Schwarz over the K
    binomial deviations), and one draw moves the distance by at most 1/n, so
    McDiarmid's inequality adds sqrt(ln(1/delta) / 2n)."""
    n, k = samples, outcomes
    return 0.5 * math.sqrt((k - 1) / n) + math.sqrt(math.log(1.0 / TV_DELTA) / (2 * n))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `spec(seed)` returns the experiment spec JSON (None for commands that
    take no spec); `reference(spec)` is computed once per run, before the
    timed window; `check(stdout, spec, reference)` returns None when an
    operation's output is correct, else the reason it is not."""

    name: str
    command: tuple[str, ...]
    spec: Callable[[int], dict] | None
    check: Callable[[str, dict | None, dict | None], str | None]
    reference: Callable[[dict], dict] | None = None


# -- specs -------------------------------------------------------------------

def chain_spec(seed: int, nodes: int = 5, theta_deg: float = 6.0,
               samples: int = 8000) -> dict:
    """CZ chain with XY measurements (the criterion-4 chain)."""
    theta = math.radians(theta_deg)
    return {
        "version": 1,
        "graph": [[i, i + 1] for i in range(nodes - 1)],
        "inputs": {str(i): {"theta": theta} for i in range(nodes)},
        "gates": [{"edge": [i, i + 1], "phi": math.pi} for i in range(nodes - 1)],
        "schedule": [{"node": i, "kind": "XY", "omega": 0.0} for i in range(nodes)],
        "sampler": {"num_samples": samples, "seed": seed},
    }


def powerlaw_spec(seed: int) -> dict:
    """8-node power-law chain: 28 gates with distinct radius signatures, so
    the sampler's set-up solves one LP per gate and z-sign case."""
    theta = math.radians(3.0)
    return {
        "version": 1,
        "inputs": {str(i): {"theta": theta} for i in range(8)},
        "gates": {"powerlaw": {"alpha": 3.0, "nn_phase": math.pi, "cutoff": 7}},
        "schedule": [{"node": i, "kind": "XY", "omega": 0.0} for i in range(8)],
        "sampler": {"num_samples": 1000, "seed": seed},
    }


def grid_spec(seed: int) -> dict:
    """2x4 CZ grid (node = row * 4 + col), every measurement
    quasi-destructive, node 2 measured by an adaptive parity rule, and one
    gate anchored after node 0's measurement (diagonal fast path)."""
    theta = math.radians(3.0)
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    gates = [{"edge": list(e), "phi": math.pi} for e in edges]
    gates.append({"edge": [0, 1], "phi": math.pi, "after_measurement": 0})
    schedule = [{"node": i, "kind": "XY", "omega": 0.0 if i < 4 else math.pi / 4,
                 "mode": "quasi-destructive"} for i in range(8)]
    schedule[2]["adaptive"] = {"nodes": [0, 1], "angles": [0.3, 1.1]}
    return {
        "version": 1,
        "graph": [list(e) for e in edges],
        "inputs": {str(i): {"theta": theta} for i in range(8)},
        "gates": gates,
        "schedule": schedule,
        "sampler": {"num_samples": 2000, "seed": seed},
    }


# -- references and gates ----------------------------------------------------

def oracle_reference(spec: dict) -> dict:
    """Exact outcome distribution of a spec, and the reconstruction allowance
    of its decompositions (one LP tolerance per gate)."""
    from cylsim.experiment import ExperimentSpec
    from cylsim.oracle import exact_distribution

    parsed = ExperimentSpec.from_json(spec)
    return {"probs": exact_distribution(parsed).probs,
            "allowance": len(parsed.gates) * parsed.sampler.tolerance}


def check_simulate_csv(out: str, spec: dict, reference: dict) -> str | None:
    lines = out.splitlines()
    if len(lines) < 3 or lines[1] != "outcome,count,frequency":
        return "unexpected simulate CSV layout"
    counts = {}
    for line in lines[2:]:
        outcome, count, _freq = line.split(",")
        counts[outcome] = int(count)
    n = spec["sampler"]["num_samples"]
    if sum(counts.values()) != n:
        return f"counts sum to {sum(counts.values())}, not {n}"
    probs = reference["probs"]
    unknown = set(counts) - set(probs)
    if unknown:
        return f"outcomes outside the oracle alphabet: {sorted(unknown)[:3]}"
    tv = 0.5 * sum(abs(counts.get(k, 0) / n - p) for k, p in probs.items())
    bound = tv_bound(n, len(probs)) + reference["allowance"]
    if tv > bound:
        return f"TV {tv:.4f} exceeds the shot-noise bound {bound:.4f}"
    return None


def check_verify_grid(out: str, spec: dict, reference: None) -> str | None:
    doc = json.loads(out)
    n = spec["sampler"]["num_samples"]
    if doc["samples"] != n:
        return f"reported {doc['samples']} samples, not {n}"
    if doc["outcomes"] != 256:
        return f"{doc['outcomes']} outcomes, not 256"
    if doc["pruned_mass"] != 0.0:
        return f"pruned mass {doc['pruned_mass']!r} is not 0"
    bound = tv_bound(n, doc["outcomes"]) + doc["residual_budget"]
    if not doc["tv"] <= bound:
        return f"TV {doc['tv']:.4f} exceeds the shot-noise bound {bound:.4f}"
    return None


def check_search_space(out: str, spec: None, reference: None) -> str | None:
    doc = json.loads(out)
    best = doc["b_space_max_input_radius"]
    baseline = doc["cylinder_max_input_radius"]
    if not abs(best - BSPACE_TARGET) <= BSPACE_WINDOW:
        return f"threshold {best!r} outside {BSPACE_TARGET} +- {BSPACE_WINDOW}"
    if not best > baseline:
        return f"threshold {best!r} not above the cylinder baseline {baseline!r}"
    return None


WORKLOADS = {w.name: w for w in (
    Workload("simulate_chain", ("simulate", "--format", "csv"),
             chain_spec, check_simulate_csv, oracle_reference),
    Workload("simulate_powerlaw", ("simulate",),
             powerlaw_spec, check_simulate_csv, oracle_reference),
    Workload("verify_grid", ("verify",), grid_spec, check_verify_grid),
    Workload("search_space", ("search-space", "--delta", "3", "--phi", repr(math.pi),
                              "--discretization", "40", "--search-tol", "1e-4"),
             None, check_search_space),
)}
