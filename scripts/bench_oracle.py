"""Time the dense oracle, `cylsim.oracle.exact_distribution`, by qubit count.

    python3 scripts/bench_oracle.py --label after [--src DIR] [--sizes 6 8 10]
                                    [--repeats 5]
                                    [--output BENCH_oracle.json]

Cases: the criterion-4 CZ chain of `bench/workloads.py` (`chain_spec`, XY
measurements at theta = 6 deg) at each size, once with every measurement
quasi-destructive and once destructive, and the benchmark's 2x4 grid
(`grid_spec`).  BLAS is pinned to one thread before numpy loads.  Each case
runs `--repeats` times, or stops after a run longer than BUDGET_S seconds
(the Kronecker-projector oracle took minutes at 10 qubits).  Every run time,
their median, the outcome count, the pruned mass and `probs_sha256` (the
SHA-256 of the sorted outcomes and their probabilities to 12 decimal places,
so two labels that timed the same answer show the same digest) are stored
under `--label` in the output file (other labels in it are kept), with
the machine and the Python, numpy and scipy versions.  `--src` names the
package source to time, so one checkout can time another (for example a copy
of the parent commit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 30.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _cases(sizes):
    from workloads import chain_spec, grid_spec

    seed = 21
    for n in sizes:
        for mode in ("quasi-destructive", "destructive"):
            spec = chain_spec(seed, nodes=n)
            for step in spec["schedule"]:
                step["mode"] = mode
            yield f"chain{n}-{mode}", spec
    yield "grid2x4", grid_spec(seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 10])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--output", default=str(ROOT / "BENCH_oracle.json"))
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]
    from cylsim.experiment import ExperimentSpec
    from cylsim.oracle import exact_distribution

    cases = {}
    for name, doc in _cases(args.sizes):
        spec = ExperimentSpec.from_json(doc)
        runs = []
        while len(runs) < args.repeats:
            t0 = time.perf_counter()
            dist = exact_distribution(spec)
            runs.append(time.perf_counter() - t0)
            if runs[-1] > BUDGET_S:
                break
        cases[name] = {"qubits": len(spec.node_ids()),
                       "median_s": statistics.median(runs),
                       "runs_s": runs,
                       "outcomes": len(dist.probs),
                       "pruned_mass": dist.pruned_mass,
                       "probs_sha256": probs_digest(dist.probs)}
        print(f"{args.label} {name}: median {cases[name]['median_s']:.4f} s "
              f"over {len(runs)} runs", file=sys.stderr, flush=True)

    save(args.output, args.label, {**environment(), "blas_threads": 1, "cases": cases})
    return 0


def probs_digest(probs: dict[str, float]) -> str:
    """SHA-256 of the sorted `outcome,probability` lines, probabilities to
    12 decimal places: values that differ only by rounding (about 1e-17)
    give the same lines unless one lies that close to a multiple of 5e-13."""
    text = "".join(f"{key},{p:.12f}\n" for key, p in sorted(probs.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    """The machine and the Python, numpy and scipy versions."""
    import numpy
    import scipy

    return {"machine": {"cpu": _cpu_model(), "cores": os.cpu_count(),
                        "platform": platform.platform()},
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__}}


def save(path, label: str, entry: dict):
    """Store `entry` under `label` in the JSON file, keeping other labels."""
    out = Path(path)
    record = json.loads(out.read_text()) if out.exists() else {}
    record[label] = entry
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
