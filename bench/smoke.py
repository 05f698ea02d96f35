"""Smoke test of the benchmark harness on tiny configurations.

    python3 bench/smoke.py

Run from the root of a source checkout; takes about ten seconds.  Checks
that an untraced and a traced run report exactly the metrics BENCHMARK.json
names, each with its unit, and that an infeasible spec (exit code 2) counts
as a failed operation without crashing the run.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import io
import json
import math
import sys

import run
from workloads import Workload, chain_spec, check_simulate_csv, oracle_reference

TINY = Workload("smoke_pair", ("simulate",),
                lambda seed: chain_spec(seed, nodes=2, theta_deg=20.0, samples=200),
                check_simulate_csv, oracle_reference)
# theta = 46 degrees puts the CZ pair outside the simulable region
INFEASIBLE = Workload("smoke_infeasible", ("simulate",),
                      lambda seed: chain_spec(seed, nodes=2, theta_deg=46.0, samples=100),
                      check_simulate_csv, oracle_reference)


def main() -> int:
    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_cylsim()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run_workload(TINY, seed=1, seconds=0.5, trace=trace,
                                     log=io.StringIO())
        line = json.loads(json.dumps(result))
        expect(set(line) == {"correct", "attempted", "failed", "metrics"},
               f"trace={trace}: result keys {sorted(line)}")
        expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
               f"trace={trace}: tiny run not clean: {line}")
        wanted = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        expect(got == wanted, f"trace={trace}: metrics/units {got} != {wanted}")
        for name, m in line["metrics"].items():
            value = m["value"]
            expect(isinstance(value, (int, float)) and math.isfinite(value),
                   f"trace={trace}: {name} value {value!r}")

    result, record = run.run_workload(INFEASIBLE, seed=1, seconds=0.5,
                                      trace=False, log=io.StringIO())
    expect(not result["correct"] and result["attempted"] >= 1
           and result["failed"] == result["attempted"],
           f"infeasible spec not counted as failed: {result}")
    expect(all(op["failure"].startswith("exit code 2") for op in record["ops"]),
           f"infeasible ops failed for another reason: {record['ops']}")
    expect(set(result["metrics"]) == set(run.END_TO_END_UNITS),
           "infeasible run did not report every end-to-end metric")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
