"""Time the start of a cylsim run: `import cylsim.cli` and whole CLI commands.

    python3 scripts/bench_import.py --label after [--src DIR] [--repeats 10]
                                    [--output BENCH_import.json]

Every measurement runs in a fresh interpreter with BLAS pinned to one thread,
`--repeats` times:
  import    the time of `import cylsim.cli`, and `ru_maxrss` right after it;
  commands  the wall time of `python -m cylsim.cli` on each of the four
            benchmark workloads of `bench/workloads.py` (its command, and
            its spec at seed SPEC_SEED), interpreter start-up included.

Every run, the medians, and a sha256 of each command's stdout are stored
under `--label` in the output file (other labels in it are kept), with the
machine and the Python, numpy and scipy versions.  For every other label in
the file, the script prints whether each command's stdout is identical.
`--src` names the package source to time, so one checkout can time another
(for example a copy of the parent commit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_oracle import ROOT, THREAD_VARS, environment, save

SPEC_SEED = 7

# Run in the child: the import's time, then the peak RSS (KB on Linux).
_IMPORT_PROBE = """
import json, resource, time
t0 = time.perf_counter()
import cylsim.cli
import_s = time.perf_counter() - t0
print(json.dumps({"import_s": import_s,
                  "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def _summary(runs: list[float]) -> dict:
    return {"median": statistics.median(runs), "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--output", default=str(ROOT / "BENCH_import.json"))
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(Path(args.src).resolve())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        commands = {}
        for name, wl in WORKLOADS.items():
            command = list(wl.command)
            if wl.spec is not None:
                Path(tmp, f"{name}.json").write_text(json.dumps(wl.spec(SPEC_SEED)))
                command += ["--spec", f"{name}.json"]
            commands[name] = command

        imports, rss_mb = [], []
        walls: dict[str, list[float]] = {name: [] for name in commands}
        digests: dict[str, str] = {}
        for _ in range(args.repeats):
            probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                                   capture_output=True, text=True, check=True)
            record = json.loads(probe.stdout)
            imports.append(record["import_s"])
            rss_mb.append(record["rss_kb"] / 1024.0)
            for name, command in commands.items():
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "cylsim.cli", *command],
                                      env=env, cwd=tmp, capture_output=True, check=True)
                walls[name].append(time.perf_counter() - t0)
                digests[name] = hashlib.sha256(proc.stdout).hexdigest()

    entry = {**environment(), "blas_threads": 1, "spec_seed": SPEC_SEED,
             "import_s": _summary(imports), "rss_after_import_mb": _summary(rss_mb),
             "commands": {name: {"argv": command, "wall_s": _summary(walls[name]),
                                 "stdout_sha256": digests[name]}
                          for name, command in commands.items()}}
    print(f"{args.label}: import {entry['import_s']['median']:.3f} s, RSS "
          f"{entry['rss_after_import_mb']['median']:.1f} MB, medians of "
          f"{args.repeats}", file=sys.stderr)
    for name in commands:
        print(f"{args.label} {name}: {entry['commands'][name]['wall_s']['median']:.3f} s",
              file=sys.stderr)

    save(args.output, args.label, entry)
    with open(args.output) as f:
        record = json.load(f)
    for other, theirs in record.items():
        for name, case in entry["commands"].items():
            digest = theirs.get("commands", {}).get(name, {}).get("stdout_sha256")
            if other == args.label or digest is None:
                continue
            verdict = "identical to" if case["stdout_sha256"] == digest else "NOT identical to"
            print(f"{args.label} {name}: stdout {verdict} {other}'s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
