"""Time the branch sampler, `cylsim.sampler.run_branches`, per sample.

    python3 scripts/bench_sampler.py --label after [--src DIR]
                                     [--chain 10000 100000 1000000]
                                     [--grid 10000 100000]
                                     [--lattice 1000] [--side 20]
                                     [--repeats 5]
                                     [--output BENCH_sampler.json]

Cases: the criterion-4 CZ chain of `bench/workloads.py` (`chain_spec`, five
nodes, XY measurements at theta = 6 deg) at each `--chain` sample count; the
near-cap 2x5 CZ grid of the acceptance suite (theta = 3 deg, XY
quasi-destructive measurements, two adaptive parity rules, one gate anchored
after measurement 0) at each `--grid` sample count; and a `--side` x
`--side` lattice with 2-D power-law gates (alpha = 3.5, nn_phase pi, l1
cutoff 6, built here) and XY measurements at each `--lattice` sample count.
The lattice's input radius is 0.9 exp(-ln_lambda_tot) of
`longrange_growth`, so the ledger's centre node ends at radius 0.9.

BLAS is pinned to one thread before numpy loads.  Each case runs in a fresh
process, one at a time, `--repeats` times, or stops after a run longer than
BUDGET_S seconds.  Every run time, their median, the median in microseconds
per sample, the number of distinct outcomes, the SHA-256 of the last run's
outcome strings (in sample order, one per line) and the process's peak RSS
are stored under `--label` in the output file (other labels in it are kept),
with the machine and the Python, numpy and scipy versions.  `--src` names
the package source to time, so one checkout can time another (for example a
copy of the parent commit).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from bench_oracle import BUDGET_S, ROOT, THREAD_VARS, environment, save

LATTICE_ALPHA, LATTICE_CUTOFF = 3.5, 6


def near_cap_grid_spec(seed: int, samples: int, rows: int = 2, cols: int = 5) -> dict:
    """The acceptance suite's near-cap CZ grid (node = row * cols + col)."""
    n = rows * cols
    edges = [[r * cols + c, r * cols + c + 1] for r in range(rows) for c in range(cols - 1)]
    edges += [[r * cols + c, (r + 1) * cols + c] for r in range(rows - 1) for c in range(cols)]
    schedule = [{"node": k, "kind": "XY", "omega": 0.0 if k < cols else math.pi / 4,
                 "mode": "quasi-destructive"} for k in range(n)]
    schedule[2]["adaptive"] = {"nodes": [0, 1], "angles": [0.3, 1.1]}
    schedule[n - 1]["adaptive"] = {"nodes": [cols, n - 2], "angles": [0.7, 1.9]}
    return {
        "version": 1,
        "graph": edges,
        "inputs": {str(k): {"theta": math.radians(3)} for k in range(n)},
        "gates": [{"edge": e, "phi": math.pi} for e in edges]
        + [{"edge": [0, 1], "phi": math.pi, "after_measurement": 0}],
        "schedule": schedule,
        "sampler": {"num_samples": samples, "seed": seed},
    }


def powerlaw_lattice_spec(seed: int, samples: int, side: int) -> dict:
    """A side x side lattice (node = row * side + col) with a gate between
    every pair of nodes at l1 distance 1..LATTICE_CUTOFF, at the power-law
    phase of that distance, and XY measurements on every node."""
    from cylsim.growth import PowerLawSpec, longrange_growth

    law = PowerLawSpec(alpha=LATTICE_ALPHA, dim=2, cutoff=LATTICE_CUTOFF,
                       nn_phase=math.pi)
    radius = 0.9 * math.exp(-longrange_growth(law).ln_lambda_tot)
    n = side * side
    gates = []
    for a in range(n):
        for b in range(a + 1, n):
            distance = abs(a // side - b // side) + abs(a % side - b % side)
            if distance <= LATTICE_CUTOFF:
                gates.append({"edge": [a, b], "phi": law.phase_at(distance)})
    return {
        "version": 1,
        "graph": [g["edge"] for g in gates],
        "inputs": {str(k): {"theta": math.asin(radius)} for k in range(n)},
        "gates": gates,
        "schedule": [{"node": k, "kind": "XY", "omega": 0.0} for k in range(n)],
        "sampler": {"num_samples": samples, "seed": seed},
    }


def _spec(kind: str, samples: int, side: int) -> dict:
    seed = 21
    if kind == "chain5":
        from workloads import chain_spec

        return chain_spec(seed, samples=samples)
    if kind == "grid2x5":
        return near_cap_grid_spec(seed, samples)
    return powerlaw_lattice_spec(seed, samples, side)


def _time_case(src: str, kind: str, samples: int, side: int, repeats: int) -> dict:
    """Run one case in this (fresh) process and describe it."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    from cylsim.experiment import ExperimentSpec
    from cylsim.sampler import run_branches

    spec = ExperimentSpec.from_json(_spec(kind, samples, side))
    runs, run = [], None
    while len(runs) < repeats:
        del run  # free the previous repeat's outcomes: peak RSS is one run's
        t0 = time.perf_counter()
        run = run_branches(spec)
        runs.append(time.perf_counter() - t0)
        if runs[-1] > BUDGET_S:
            break
    median = statistics.median(runs)
    digest = hashlib.sha256("\n".join(run.outcomes).encode()).hexdigest()
    return {"samples": spec.sampler.num_samples,
            "qubits": len(spec.node_ids()),
            "gates": len(spec.gates),
            "median_s": median,
            "us_per_sample": 1e6 * median / spec.sampler.num_samples,
            "runs_s": runs,
            "outcomes": len(run.counts),
            "outcomes_sha256": digest,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--chain", type=int, nargs="*", default=[10**4, 10**5, 10**6])
    ap.add_argument("--grid", type=int, nargs="*", default=[10**4, 10**5])
    ap.add_argument("--lattice", type=int, nargs="*", default=[10**3])
    ap.add_argument("--side", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--output", default=str(ROOT / "BENCH_sampler.json"))
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(Path(args.src).resolve())
    runs = [("chain5", "chain5", n) for n in args.chain]
    runs += [("grid2x5", "grid2x5", n) for n in args.grid]
    runs += [(f"lattice{args.side}x{args.side}", "lattice", n) for n in args.lattice]

    # one fresh process per case, so each case's peak RSS is its own
    ctx = multiprocessing.get_context("spawn")
    cases = {}
    for prefix, kind, samples in runs:
        name = f"{prefix}-{samples}"
        with ctx.Pool(1) as pool:
            cases[name] = pool.apply(_time_case,
                                     (src, kind, samples, args.side, args.repeats))
        print(f"{args.label} {name}: {cases[name]['us_per_sample']:.3f} us/sample "
              f"over {len(cases[name]['runs_s'])} runs, peak RSS "
              f"{cases[name]['peak_rss_mb']:.1f} MB", file=sys.stderr, flush=True)

    save(args.output, args.label, {**environment(), "blas_threads": 1, "cases": cases})
    return 0


if __name__ == "__main__":
    sys.exit(main())
