"""Time the LP radius searches of `cylsim.statespace`.

    python3 scripts/bench_lp.py --label after [--src DIR] [--repeats 3]
                                [--instances 20]
                                [--cases criterion5 rstar-cylinder lemma7 twirl]
                                [--output BENCH_lp.json]

Cases:
  criterion5      `max_input_radius_bspace(3, pi, n=40, tol=1e-4)`, the
                  search behind `cylsim search-space` (criterion 5);
  rstar-cylinder  `r_star(cylinder(0.1), cylinder(0.1), pi, n=40)`;
  lemma7          criterion 8's Lemma-7 loop: `r_star` of two random
                  B-spaces and of their hull against cylinder(0.25), n = 12,
                  tol = 1e-2, `--instances` pairs from seed 108;
  twirl           criterion 8's twirl loop: `r_star_point_set` of random raw
                  circles against a 16-point cylinder and `r_star` of their
                  symmetrization, `--instances` sets, continuing that seed.

BLAS is pinned to one thread before numpy loads.  Each case runs `--repeats`
times.  Every run time, their median, the HiGHS runs of the first repeat
(`decompose.run_master` calls, one per column-generation round), one digest
per run and the radii it returned are stored under `--label` in the output
file (other labels in it are kept), with the machine and the Python, numpy
and scipy versions.  A run's digest is the first DIGEST_HEX hex digits of
the sha256 over the master's column count and the x, objective and row
duals it returned.  For every other label in the file that has the same
case, the script prints whether the radii are identical.
`--src` names the package source to time, so one checkout can time another
(for example a copy of the parent commit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

from bench_oracle import ROOT, THREAD_VARS, environment, save

CASES = ("criterion5", "rstar-cylinder", "lemma7", "twirl")
DIGEST_HEX = 16


def lp_digest(num_col, x, objective, row_duals) -> str:
    """Digest of one HiGHS run: the master's size and the solution it gave."""
    import numpy as np

    h = hashlib.sha256()
    for part in (num_col, x, objective, row_duals):
        h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()[:DIGEST_HEX]


def _criterion5():
    from cylsim.statespace import max_input_radius_bspace

    return [max_input_radius_bspace(3, math.pi, n=40, tol=1e-4)]


def _rstar_cylinder():
    from cylsim.statespace import cylinder, r_star

    return [r_star(cylinder(0.1), cylinder(0.1), math.pi, n=40)]


def _criterion8_loops(instances: int, twirl: bool):
    """Criterion 8's two random loops, drawn in the acceptance suite's order;
    only the requested loop is timed, the other's draws are replayed."""
    import numpy as np
    from cylsim.bloch import BlochVector
    from cylsim.statespace import (b_space, cylinder, profile_hull, r_star,
                                   r_star_point_set, symmetrize)

    rng = np.random.default_rng(108)
    tol = 1e-2
    out = []
    s_b = cylinder(0.25)
    for _ in range(instances):
        r1, r2 = rng.uniform(0.1, 0.4, 2)
        h1, h2 = rng.uniform(0.3, 0.9, 2)
        if not twirl:
            s, t = b_space(r1, h1), b_space(r2, h2)
            out += [r_star(profile_hull(s, t), s_b, math.pi, n=12, tol=tol),
                    r_star(s, s_b, math.pi, n=12, tol=tol),
                    r_star(t, s_b, math.pi, n=12, tol=tol)]
    if not twirl:
        return out
    n = 16
    azs8 = 2 * math.pi * np.arange(8) / 8
    cyl_pts = [BlochVector(0.25 * math.cos(a), 0.25 * math.sin(a), z)
               for z in (-1.0, 1.0) for a in 2 * math.pi * np.arange(n) / n]
    reps_b = [BlochVector(0.25, 0.0, -1.0), BlochVector(0.25, 0.0, 1.0)]
    for _ in range(instances):
        circles = [(-1.0, rng.uniform(0.1, 0.4)), (1.0, rng.uniform(0.1, 0.4))]
        raw = [BlochVector(r * math.cos(a), r * math.sin(a), z)
               for z, r in circles for a in azs8]
        reps_a = [BlochVector(r, 0.0, z) for z, r in circles]
        # by keyword, so that `--src` may name a checkout with another order
        out += [r_star_point_set(raw, cyl_pts, reps_a=reps_a, reps_b=reps_b,
                                 phi=math.pi, tol=tol),
                r_star(symmetrize(raw), cylinder(0.25), math.pi, n=n, tol=tol)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--cases", nargs="+", choices=CASES, default=list(CASES))
    ap.add_argument("--output", default=str(ROOT / "BENCH_lp.json"))
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(args.src).resolve())]
    from cylsim import decompose

    digests: list[str] = []
    run_master = decompose.run_master

    def counted(highs, rhs):
        out = run_master(highs, rhs)
        digests.append(lp_digest(highs.getNumCol(), *out))
        return out

    decompose.run_master = counted
    run_case = {"criterion5": _criterion5,
                "rstar-cylinder": _rstar_cylinder,
                "lemma7": lambda: _criterion8_loops(args.instances, twirl=False),
                "twirl": lambda: _criterion8_loops(args.instances, twirl=True)}
    cases = {}
    for name in args.cases:
        runs, first = [], None
        for _ in range(args.repeats):
            digests.clear()
            t0 = time.perf_counter()
            radii = run_case[name]()
            runs.append(time.perf_counter() - t0)
            if first is None:
                first = list(digests)
        cases[name] = {"median_s": statistics.median(runs), "runs_s": runs,
                       "lp_solves": len(first), "lp_digests": first,
                       "radii": radii}
        print(f"{args.label} {name}: median {cases[name]['median_s']:.3f} s "
              f"over {len(runs)} runs, {len(first)} HiGHS runs", file=sys.stderr,
              flush=True)

    save(args.output, args.label, {**environment(), "blas_threads": 1, "cases": cases})
    with open(args.output) as f:
        record = json.load(f)
    for other, entry in record.items():
        for name, case in cases.items():
            theirs = entry.get("cases", {}).get(name, {}).get("radii")
            if other == args.label or theirs is None:
                continue
            verdict = "identical to" if case["radii"] == theirs else "NOT identical to"
            print(f"{args.label} {name}: {len(case['radii'])} radii, {verdict} "
                  f"{other}'s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
