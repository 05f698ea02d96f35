"""Time the branch sampler, `cylsim.sampler.run_branches`, per sample.

    python3 scripts/bench_sampler.py --label after [--src DIR]
                                     [--chain 10000 100000 1000000]
                                     [--grid 10000 100000] [--repeats 5]
                                     [--output BENCH_sampler.json]

Cases: the criterion-4 CZ chain of `bench/workloads.py` (`chain_spec`, five
nodes, XY measurements at theta = 6 deg) at each `--chain` sample count, and
the near-cap 2x5 CZ grid of the acceptance suite (theta = 3 deg, XY
quasi-destructive measurements, two adaptive parity rules, one gate anchored
after measurement 0) at each `--grid` sample count.  BLAS is pinned to one
thread before numpy loads.  Each case runs `--repeats` times, or stops after
a run longer than BUDGET_S seconds.  Every run time, their median, the
median in microseconds per sample and the number of distinct outcomes are
stored under `--label` in the output file (other labels in it are kept),
with the machine and the Python, numpy and scipy versions.  `--src` names
the package source to time, so one checkout can time another (for example a
copy of the parent commit).
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time
from pathlib import Path

from bench_oracle import BUDGET_S, ROOT, THREAD_VARS, environment, save


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


def _cases(chain_sizes, grid_sizes):
    from workloads import chain_spec

    seed = 21
    for samples in chain_sizes:
        yield f"chain5-{samples}", chain_spec(seed, samples=samples)
    for samples in grid_sizes:
        yield f"grid2x5-{samples}", near_cap_grid_spec(seed, samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--chain", type=int, nargs="*", default=[10**4, 10**5, 10**6])
    ap.add_argument("--grid", type=int, nargs="*", default=[10**4, 10**5])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--output", default=str(ROOT / "BENCH_sampler.json"))
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]
    from cylsim.experiment import ExperimentSpec
    from cylsim.sampler import run_branches

    cases = {}
    for name, doc in _cases(args.chain, args.grid):
        spec = ExperimentSpec.from_json(doc)
        runs = []
        while len(runs) < args.repeats:
            t0 = time.perf_counter()
            run = run_branches(spec)
            runs.append(time.perf_counter() - t0)
            if runs[-1] > BUDGET_S:
                break
        median = statistics.median(runs)
        cases[name] = {"samples": spec.sampler.num_samples,
                       "qubits": len(spec.node_ids()),
                       "median_s": median,
                       "us_per_sample": 1e6 * median / spec.sampler.num_samples,
                       "runs_s": runs,
                       "outcomes": len(run.counts)}
        print(f"{args.label} {name}: {cases[name]['us_per_sample']:.3f} us/sample "
              f"over {len(runs)} runs", file=sys.stderr, flush=True)

    save(args.output, args.label, {**environment(), "blas_threads": 1, "cases": cases})
    return 0


if __name__ == "__main__":
    sys.exit(main())
