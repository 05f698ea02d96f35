"""Benchmark of the cylsim command-line pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The load is a closed loop with one
client: operations run one at a time until `--seconds` have passed, each a
call of `cylsim.cli.main` in a fresh worker process (bench/worker.py) with
BLAS pinned to one thread: on a shared two-core machine a second OpenBLAS
thread made the dense oracle up to four times slower whenever another process
held a core.  Every operation's output is checked; the last line of stdout
is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
traced run (`--trace 1`, which alternates untraced and traced operations).
A readable summary and the environment record go to stderr; the full record
of the run, and with `--trace 1` its spans, go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, op_metrics
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Whole-run limit: the last operation is killed rather than overrun it.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "sampler.us_per_sample":
        return "us"
    if name == "decompose.lp_per_hull":
        return "ratio"
    return "count"


PER_LAYER = ("cli.self_s", "experiment.ledger_calls", "experiment.ledger_s",
             "growth.lambda_calls", "growth.lambda_s", "decompose.lp_solves",
             "decompose.lp_s", "decompose.lp_iterations",
             "decompose.lp_columns_mean", "decompose.lp_failures",
             "decompose.lp_per_hull", "decompose.hull_calls",
             "decompose.hull_s", "decompose.canonicalize_calls",
             "decompose.canonicalize_s", "sampler.samples", "sampler.busy_s",
             "sampler.self_s", "sampler.us_per_sample", "oracle.busy_s",
             "oracle.leaves", "oracle.evolve_calls", "statespace.searches",
             "statespace.self_s", "trace.overhead_s")
PER_LAYER_UNITS = {name: _per_layer_unit(name) for name in PER_LAYER}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cylsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def import_cylsim():
    """Put the checkout's src/ on the path ahead of installed packages; the
    oracle references are computed with the same package the workers run."""
    sys.path.insert(1, str(SRC))
    import cylsim

    if Path(cylsim.__file__).resolve().parent != (SRC / "cylsim").resolve():
        raise ImportError(f"cylsim imported from {cylsim.__file__}, not {SRC}")


def run_op(argv: list[str], traced: bool, timeout: float) -> dict:
    """One operation in a fresh worker; returns the worker's result, or
    ``{"failure": reason}`` when the worker itself did not finish."""
    # a fixed hash seed keeps the workers' allocation patterns, and so their
    # peak RSS, from varying with Python's per-process hash randomisation
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    request = json.dumps({"src": str(SRC), "argv": argv, "trace": traced})
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=request, capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"failure": f"killed after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"failure": f"worker exit {proc.returncode}: {proc.stderr[-500:]}"}
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return {"failure": f"unreadable worker result: {exc}"}


def gate(wl: Workload, ops: list[dict], spec, reference) -> None:
    """Set each op's "failure" to the first correctness gate it fails:
    worker crash, exception, non-zero exit, wrong output, or output that
    differs from the run's first correct output."""
    first_digest = None
    for op in ops:
        if op.get("failure"):
            continue
        failure = None
        if op["error"]:
            failure = "exception: " + op["error"].strip().splitlines()[-1]
        elif op["code"] != 0:
            failure = f"exit code {op['code']}: {op['stderr'].strip()[-200:]}"
        else:
            try:
                failure = wl.check(op["stdout"], spec, reference)
            except (ValueError, KeyError, TypeError) as exc:
                failure = f"unreadable output: {exc!r}"
        if failure is None:
            digest = hashlib.sha256(op["stdout"].encode()).hexdigest()
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                failure = "output differs from the run's first output"
        op["failure"] = failure


def _median(values):
    """Median; for counts the lower middle value, so a count stays whole."""
    if not values:
        return 0.0
    if isinstance(values[0], int):
        return statistics.median_low(values)
    return statistics.median(values)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 log=sys.stderr) -> tuple[dict, dict]:
    """Run one workload for `seconds`; returns (result line, full record)."""
    t_run = time.perf_counter()
    env = environment(wl.name, seed)
    OUT.mkdir(exist_ok=True)
    argv = list(wl.command)
    spec = wl.spec(seed) if wl.spec is not None else None
    if spec is not None:
        spec_path = OUT / f"{wl.name}-seed{seed}.spec.json"
        spec_path.write_text(json.dumps(spec, indent=2, sort_keys=True))
        argv += ["--spec", str(spec_path)]
    reference = wl.reference(spec) if wl.reference is not None else None

    ops: list[dict] = []
    t_loop = time.perf_counter()
    deadline = t_loop + seconds
    while True:
        now = time.perf_counter()
        # start another operation only if it is due to end before half a
        # cycle past the deadline, so a run lasts `seconds` on average
        cycle = (now - t_loop) / len(ops) if ops else 0.0
        if ops and now + 0.5 * cycle >= deadline and (not trace or len(ops) >= 2):
            break
        remaining = HARD_LIMIT_S - (now - t_run)
        if remaining <= 1.0:
            break
        traced = trace and len(ops) % 2 == 1
        op = run_op(argv, traced, timeout=remaining)
        op["traced"] = traced
        ops.append(op)
        if op.get("failure", "").startswith("killed"):
            break
    gate(wl, ops, spec, reference)
    env["loadavg_end"] = os.getloadavg()

    timed = [op for op in ops if "op_s" in op]
    if not timed:
        raise RuntimeError(f"no operation of {wl.name} finished: "
                           f"{ops[0]['failure']}")
    env.update(timed[0]["platform"])
    plain = [op["op_s"] for op in timed if not op["traced"]]
    failed = sum(1 for op in ops if op["failure"])

    traces = [op["trace"] for op in timed if op["traced"]]
    layer = {}
    if trace:
        per_op = [op_metrics(t) for t in traces]
        layer = {key: _median([m[key] for m in per_op]) for key in per_op[0]}
        layer["trace.overhead_s"] = (
            _median([op["op_s"] for op in timed if op["traced"]]) - _median(plain))
        metrics = {name: {"value": layer[name], "unit": PER_LAYER_UNITS[name]}
                   for name in PER_LAYER}
    else:
        values = {
            "op_s_p50": _median(plain),
            "setup_s": _median([op["setup_s"] for op in timed]),
            "peak_rss_mb": _median([op["rss_kb"] / 1024.0 for op in timed]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record = {
        "environment": env,
        "seconds": seconds,
        "trace": trace,
        "argv": argv,
        "ops": [{k: op.get(k) for k in ("traced", "code", "setup_s", "op_s",
                                         "op_cpu_s", "rss_kb", "failure")}
                for op in ops],
        "warnings": sorted({w for t in traces for w in t["warnings"]}),
        "self_s_by_layer": _self_times(layer) if trace else None,
        "result": result,
        "run_s": time.perf_counter() - t_run,
        "traces": traces,
    }
    _summary(wl.name, record, log)
    return result, record


def _self_times(layer: dict) -> dict:
    """Self time per layer, with `linprog` split out of `decompose`."""
    self_s = {name: layer[f"self.{name}"] for name in LAYERS}
    self_s["decompose"] -= layer["decompose.lp_s"]
    self_s["decompose.linprog"] = layer["decompose.lp_s"]
    return self_s


def _summary(name: str, record: dict, log) -> None:
    env, ops, result = record["environment"], record["ops"], record["result"]
    print(f"# environment {json.dumps(env)}", file=log)
    times = sorted(op["op_s"] for op in ops if op["op_s"] is not None)
    cpu = sorted(op["op_cpu_s"] for op in ops if op["op_cpu_s"] is not None)
    print(f"# {name}: {result['attempted']} ops, {result['failed']} failed, "
          f"op_s {' '.join(f'{t:.3f}' for t in times)}, "
          f"cpu {' '.join(f'{t:.3f}' for t in cpu)}", file=log)
    for k, op in enumerate(ops):
        if op["failure"]:
            print(f"# op {k} failed: {op['failure']}", file=log)
    for warning in record["warnings"]:
        print(f"# warning: {warning}", file=log)
    shares = record["self_s_by_layer"]
    if shares:
        total = sum(shares.values()) or 1.0
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print("# layer self-time shares: " + ", ".join(
            f"{layer} {t / total:.1%}" for layer, t in ranked), file=log)
    for metric, entry in result["metrics"].items():
        print(f"# {metric} = {entry['value']!r} {entry['unit']}", file=log)


def write_record(name: str, seed: int, trace: bool, record: dict) -> None:
    """Store the run record, and the spans of its traced operations."""
    traces = record.pop("traces")
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    if traces:
        with open(OUT / f"{name}-seed{seed}.spans.jsonl", "w") as fh:
            for k, t in enumerate(traces):
                fh.write(json.dumps({"op": k, "names": t["names"],
                                     "spans": t["spans"]}) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cylsim" / "cli.py").is_file():
        print(f"error: no cylsim sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2
    import_cylsim()
    result, record = run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))
    write_record(args.workload, args.seed, bool(args.trace), record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
