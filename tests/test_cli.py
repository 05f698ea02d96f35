import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cylsim
from cylsim.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_growth_csv(capsys):
    code, out, _ = run_cli(["growth", "--points", "100"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# cylsim v")
    assert lines[1] == "phi,lambda"
    assert len(lines) == 102
    row_pi = lines[2 + 50].split(",")
    assert float(row_pi[0]) == pytest.approx(math.pi)
    assert float(row_pi[1]) == pytest.approx(2.0582, abs=1e-4)


def test_growth_deterministic(capsys):
    _, out1, _ = run_cli(["growth", "--points", "32"], capsys)
    _, out2, _ = run_cli(["growth", "--points", "32"], capsys)
    assert out1 == out2


def test_phase_diagram(capsys):
    code, out, _ = run_cli(["phase-diagram", "--delta", "4", "--points", "50"],
                           capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "phi,theta_max_deg"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
    assert len(rows) == 50
    degs = [t for _p, t in rows]
    assert all(b <= a + 1e-12 for a, b in zip(degs, degs[1:]))  # monotone
    assert degs[-1] == pytest.approx(3.195, abs=1e-3)
    assert rows[-1][0] == pytest.approx(math.pi)


def test_longrange_single_and_sweep(capsys, tmp_path):
    code, out, _ = run_cli(["longrange", "--alpha", "1.8", "--dim", "1",
                            "--nn-phase", str(math.pi), "--cutoff", "3000"],
                           capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "converges"

    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["longrange", "--alpha", "2.0", "--alpha-max", "6.0",
                          "--points", "9", "--output", str(path)], capsys)
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "alpha,theta_deg"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert float(last[0]) == 6.0


def test_simulate_and_verify(capsys, tmp_path):
    spec = {
        "version": 1,
        "graph": [[0, 1]],
        "inputs": {"0": {"theta": 0.35}, "1": {"theta": 0.35}},
        "gates": [{"edge": [0, 1], "phi": math.pi}],
        "schedule": [
            {"node": 0, "kind": "XY", "omega": 0.0, "mode": "quasi-destructive"},
            {"node": 1, "kind": "XY", "omega": 0.0, "mode": "quasi-destructive"},
        ],
        "sampler": {"num_samples": 2000, "seed": 11},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(spec))

    code, out, _ = run_cli(["simulate", "--spec", str(path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "outcome,count,frequency"
    counts = {ln.split(",")[0]: int(ln.split(",")[1]) for ln in lines[2:]}
    assert sum(counts.values()) == 2000

    code, out2, _ = run_cli(["simulate", "--spec", str(path),
                             "--format", "jsonl"], capsys)
    assert code == 0
    jlines = out2.strip().splitlines()
    assert len(jlines) == 2001
    assert json.loads(jlines[1])["outcome"] in counts

    code, out3, _ = run_cli(["verify", "--spec", str(path),
                             "--samples", "4000"], capsys)
    assert code == 0
    report = json.loads(out3)
    assert report["tv"] < 0.05
    assert report["samples"] == 4000
    assert report["residual_budget"] == 1e-12  # one gate, exact to 1e-12


def test_simulate_infeasible_exit_code(capsys, tmp_path):
    spec = {
        "version": 1,
        "graph": [[0, 1]],
        "inputs": {"0": {"theta": 0.8}, "1": {"theta": 0.8}},
        "gates": [{"edge": [0, 1], "phi": math.pi}],
        "schedule": [
            {"node": 0, "kind": "XY", "omega": 0.0},
            {"node": 1, "kind": "XY", "omega": 0.0},
        ],
        "sampler": {"num_samples": 100, "seed": 1},
    }
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(["simulate", "--spec", str(path)], capsys)
    assert code == 2
    assert err == ("infeasible: experiment infeasible at ledger step 1: "
                   "node 0 at radius 1.47644 > 1\n")


def test_bad_input_exit_codes(capsys, tmp_path):
    code, _, _ = run_cli(["simulate", "--spec", "/nonexistent.json"], capsys)
    assert code == 4
    code, _, _ = run_cli(["growth", "--bogus-flag"], capsys)
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["simulate", "--spec", str(bad)], capsys)
    assert code == 4
    code, out, err = run_cli(["simulate", "--spec", str(tmp_path)], capsys)
    assert code == 4
    assert out == "" and err.startswith("bad input:") and err.count("\n") == 1
    # the sampler has no discretization or tolerance to set
    for flag, value in (("--tolerance", "1e-7"), ("--discretization", "40")):
        code, _, _ = run_cli(["simulate", "--spec", str(bad), flag, value], capsys)
        assert code == 4


def test_thresholds(capsys):
    code, out, _ = run_cli(["thresholds", "--max-dim", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "D,lower,upper"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert float(rows[0][2]) == 0.25
    assert float(rows[1][2]) == pytest.approx(3 / 16)
    assert "coarse_grain_1d=0.2498" in lines[0]


def test_search_space_smoke(capsys):
    code, out, _ = run_cli(["search-space", "--delta", "3",
                            "--discretization", "16",
                            "--search-tol", "1e-3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["cylinder_max_input_radius"] == pytest.approx(0.1147, abs=1e-4)
    assert doc["b_space_max_input_radius"] > doc["cylinder_max_input_radius"]


def test_search_space_csv_trail(capsys):
    code, out, _ = run_cli(["search-space", "--delta", "3",
                            "--discretization", "12", "--search-tol", "5e-3",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "r,feasible,R1"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) >= 5
    for r, ok, r1 in rows:
        if ok == "True" and float(r) < 1.0:
            # feasible radii have first-gate output cylinders within budget
            assert float(r1) <= 1 / (2.0581710272714924 ** 2) + 5e-3


# Page faults of 20 rounds of sixteen 120 KB arrays allocated and freed,
# before and after one `main` call, in a fresh interpreter.
_HEAP_PROBE = """
import contextlib, io, resource
import numpy as np
import cylsim.cli

def churn():
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        [np.ones(15_000) for _ in range(16)]
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0

before = churn()
with contextlib.redirect_stdout(io.StringIO()):
    cylsim.cli.main(["growth", "--points", "2"])
print(before, churn())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_main_keeps_freed_heap_for_reuse():
    """Arrays below malloc's mmap threshold, freed and allocated again, reuse
    heap pages after `main` instead of faulting fresh ones in each round."""
    src = str(Path(cylsim.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _HEAP_PROBE], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    before, after = map(int, proc.stdout.split())
    assert before > 1000  # the default thresholds trim the heap every round
    assert after * 5 < before


@pytest.mark.parametrize("flag", [
    "--discretization=0", "--discretization=-3", "--search-tol=0",
    "--search-tol=-1", "--search-tol=1", "--search-tol=2", "--tolerance=1e-7"])
def test_search_space_bad_numbers_rejected(flag):
    # a child process with a timeout, because a non-positive --search-tol
    # used to bisect forever
    src = str(Path(cylsim.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cylsim.cli", "search-space",
                           "--delta", "3", flag], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("bad input:")
    assert proc.stderr.count("\n") == 1


def test_exact_csv(capsys, tmp_path):
    spec = {
        "version": 1,
        "graph": [[0, 1]],
        "inputs": {"0": {"theta": math.pi / 2}, "1": {"theta": math.pi / 2}},
        "gates": [{"edge": [0, 1], "phi": math.pi}],
        "schedule": [
            {"node": 0, "kind": "XY", "omega": 0.0},
            {"node": 1, "kind": "XY", "omega": 0.0},
        ],
        "sampler": {"num_samples": 10, "seed": 0},
    }
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(["exact", "--spec", str(path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "outcome,probability"
    probs = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[2:]}
    assert all(p == pytest.approx(0.25, abs=1e-12) for p in probs.values())


def test_recursion_csv(capsys):
    code, out, _ = run_cli(["recursion", "--radius", "0.2", "--start", "0.2"],
                           capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "converged" in lines[0]
    assert lines[1] == "n,R_n"
    last = float(lines[-1].split(",")[1])
    assert last == pytest.approx((1 - math.sqrt(0.2)) / 2, abs=1e-9)


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_eval_ops(capsys):
    code, out, _ = run_cli(["eval", "--op", "lambda", "--phi", str(math.pi)],
                           capsys)
    assert code == 0
    assert _strict_json(out)["lambda"] == pytest.approx(2.0582, abs=1e-4)

    code, out, _ = run_cli(["eval", "--op", "lemma1", "--fa", "0.3",
                            "--fb", "0.3", "--phi", "3.14159"], capsys)
    assert _strict_json(out)["feasible"] is True

    code, out, _ = run_cli(["eval", "--op", "fixed-points", "--fa", "0.1875"],
                           capsys)
    assert _strict_json(out)["fixed_points"] == [0.25, 0.75]

    code, out, _ = run_cli(["eval", "--op", "coarse-grain"], capsys)
    assert _strict_json(out)["threshold"] == pytest.approx(0.2498, abs=1e-4)

    for op in ("lambda", "lemma1", "cz", "theta-max", "telescoping",
               "steer-max", "fixed-points", "coarse-grain"):
        code, out, err = run_cli(["eval", "--op", op], capsys)
        assert code == 0 and err == "", op
        assert _strict_json(out)["meta"]["header"].endswith(f"op={op}")


@pytest.mark.parametrize("argv", [
    ["growth", "--points", "0"],
    ["growth", "--points", "-2"],
    ["phase-diagram", "--delta", "3", "--points", "0"],
    ["longrange", "--alpha", "2", "--alpha-max", "3", "--points", "0"],
    ["thresholds", "--max-dim", "0"],
    ["recursion", "--radius", "0.2", "--start", "0.2", "--steps", "-1"],
    ["eval", "--op", "lambda", "--phi", "nan"],
    ["search-space", "--delta", "3", "--search-tol", "nan"],
    ["search-space", "--delta", "3", "--search-tol", "inf"],
    ["search-space", "--delta", "3", "--phi", "nan"],
], ids=lambda argv: " ".join([argv[0]] + argv[-2:]))
def test_bad_numbers_rejected_when_parsed(argv, capsys):
    flag = argv[-2]  # the offending flag comes last
    code, out, err = run_cli(argv, capsys)
    assert code == 4
    assert out == "" and err.count("\n") == 1
    assert err.startswith("bad input:") and f"argument {flag}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--delta", "3", "--points", "2", "--temperature", "1e308"],
    ["eval", "--op", "theta-max", "--temperature", "1e300"],
    ["eval", "--op", "telescoping", "--alpha", "2000"],
    ["longrange", "--alpha", "2", "--alpha-max", "3000", "--points", "2"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_extreme_finite_inputs_exit_cleanly(argv, capsys):
    # a temperature at which p_T rounds to 1/2, and alphas with 2^p > 1e308
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    if argv[0] == "eval":
        doc = _strict_json(out)
        if "theta_max" in doc:
            assert doc["theta_max"] == math.pi / 2
        else:
            assert doc["r0"] == pytest.approx(1.0 / (2.0 + math.sqrt(5.0)))
    else:
        assert len(out.strip().splitlines()) == 4


def test_eval_cz_rejects_negative_ratios(capsys):
    # the same one-line refusal as --op lemma1 with these ratios
    for op in ("lemma1", "cz"):
        code, out, err = run_cli(["eval", "--op", op, "--fa", "-0.5", "--fb", "0.5"],
                                 capsys)
        assert code == 4 and out == "", op
        assert err == "bad input: radius ratios must be >= 0\n", op


def test_longrange_huge_alpha_tail_underflows(capsys):
    # the tail's powers of 2 alpha / 3 underflow together instead of
    # meeting as inf * 0
    code, out, err = run_cli(["longrange", "--alpha", "1e308", "--nn-phase", "1",
                              "--cutoff", "10"], capsys)
    assert code == 0 and err == ""
    doc = _strict_json(out)
    assert doc["tail_bound"] == 0.0 and doc["verdict"] == "converges"
    assert math.isfinite(doc["ln_lambda_tot"])


def test_longrange_negative_nn_phase(capsys):
    # lambda depends on the folded phase and the tail on |phi_1|, so -1 and
    # +1 give the same sums, tail bound and verdict; the tail scales as
    # |phi_1|^(2/3) with phi_1 unfolded (7 is 7 at distance 1, not 0.717)
    docs = {}
    for phase in ("1", "-1", "7", "-7"):
        code, out, err = run_cli(["longrange", "--alpha", "1.8", "--nn-phase", phase,
                                  "--cutoff", "1000"], capsys)
        assert code == 0 and err == "", phase
        docs[phase] = _strict_json(out)
    plus, minus = docs["1"], docs["-1"]
    assert minus["ln_lambda_tot"] == pytest.approx(plus["ln_lambda_tot"], abs=1e-12)
    assert minus["tail_bound"] == plus["tail_bound"]
    assert minus["verdict"] == plus["verdict"] == "converges"
    for phase in ("7", "-7"):
        assert docs[phase]["tail_bound"] == pytest.approx(
            7.0 ** (2.0 / 3.0) * plus["tail_bound"], rel=1e-12), phase


def test_simulate_file_determinism(tmp_path, capsys):
    spec = {
        "version": 1,
        "graph": [[0, 1]],
        "inputs": {"0": {"theta": 0.3}, "1": {"theta": 0.3}},
        "gates": [{"edge": [0, 1], "phi": 2.0}],
        "schedule": [
            {"node": 0, "kind": "XY", "omega": 0.0},
            {"node": 1, "kind": "Z", "omega": 0.0},
        ],
        "sampler": {"num_samples": 400, "seed": 77},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", "--spec", str(path), "--format", "jsonl",
                 "--output", str(out1)]) == 0
    assert main(["simulate", "--spec", str(path), "--format", "jsonl",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _pair_spec(theta=0.35):
    return {
        "version": 1,
        "graph": [[0, 1]],
        "inputs": {"0": {"theta": theta}, "1": {"theta": theta}},
        "gates": [{"edge": [0, 1], "phi": math.pi}],
        "schedule": [
            {"node": 0, "kind": "XY", "omega": 0.0},
            {"node": 1, "kind": "XY", "omega": 0.0},
        ],
        "sampler": {"num_samples": 200, "seed": 5},
    }


def _powerlaw(**params):
    def patch(spec):
        spec.pop("graph")
        spec["gates"] = {"powerlaw": {"alpha": 3.0, "nn_phase": math.pi, **params}}
    return patch


def _without(key, *path):
    def patch(spec):
        for step in path:
            spec = spec[step]
        del spec[key]
    return patch


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("patch", [
    lambda s: s["inputs"]["0"].update(theta=math.nan),
    lambda s: s["inputs"]["0"].update(theta=math.inf),
    lambda s: s["inputs"]["1"].update(azimuth=math.nan),
    lambda s: s["inputs"]["1"].update(shrink=math.nan),
    lambda s: s["gates"][0].update(phi=math.nan),
    lambda s: s["schedule"][0].update(omega=-math.inf),
    lambda s: s["schedule"][1].update(
        adaptive={"nodes": [0], "angles": [0.3, math.nan]}),
    _powerlaw(alpha=math.nan),
    _powerlaw(time=math.inf, nn_phase=None),
    _powerlaw(nn_phase=math.nan),
    lambda s: s["sampler"].update(num_samples=0),
    # structural faults; a patch that returns a document replaces the spec
    lambda s: {},
    lambda s: [],
    _without("theta", "inputs", "0"),
    _without("kind", "schedule", 0),
    lambda s: s["gates"][0].update(edge=[0]),
    lambda s: s["sampler"].update(seed=None),
    lambda s: s["sampler"].update(num_samples=math.inf),
    _powerlaw(bogus=1.0),
    lambda s: s["gates"][0].update(after_measurement=0.5),
    lambda s: s["gates"][0].update(after_measurement=1.0),
    lambda s: s["gates"][0].update(after_measurement=True),
    lambda s: s["gates"][0].update(after_measurement="0"),
    lambda s: s["schedule"][0].update(node=0.5),
    lambda s: s.update(graph=[[0, 1.5]]),
    lambda s: s["gates"][0].update(edge=[0, 1.5]),
    lambda s: s["schedule"][1].update(
        adaptive={"nodes": [0.5], "angles": [0.3, 0.6]}),
    lambda s: s["sampler"].update(seed=1.7),
    lambda s: s["sampler"].update(num_samples=2.5),
    _powerlaw(cutoff=2.5),
    _powerlaw(cutoff=True),
    _powerlaw(cutoff=math.inf),  # what a JSON 1e400 parses to
    _powerlaw(dim=1.0),
    lambda s: s["sampler"].update(discretization=2.7),
    lambda s: s["sampler"].update(tolerance="nan"),
    lambda s: s["sampler"].update(tolerance=True),
    lambda s: s["sampler"].update(discretization=-3),
], ids=["theta-nan", "theta-inf", "azimuth", "shrink", "phi", "omega",
        "adaptive-angle", "alpha", "time", "nn-phase", "no-samples",
        "empty-object", "array", "no-theta", "no-kind", "short-edge",
        "null-seed", "infinite-samples", "powerlaw-key", "anchor-fraction",
        "anchor-float", "anchor-bool", "anchor-string", "node-fraction",
        "graph-edge-fraction", "gate-edge-fraction", "adaptive-node-fraction",
        "seed-fraction", "samples-fraction", "cutoff-fraction", "cutoff-bool",
        "cutoff-overflow", "dim-float", "discretization-fraction",
        "tolerance-nan", "tolerance-bool", "discretization-negative"])
def test_malformed_spec_rejected(capsys, tmp_path, command, patch):
    spec = _pair_spec()
    replaced = patch(spec)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec if replaced is None else replaced))
    code, out, err = run_cli([command, "--spec", str(path)], capsys)
    assert code == 4, err
    assert out == "" and err.startswith("bad input:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "verify", "exact"])
def test_adaptive_rule_on_unmeasured_node_rejected_when_parsed(
        capsys, tmp_path, monkeypatch, command):
    """An adaptive rule reads only nodes measured before it.  A rule on a
    later node is bad input that names the node, before the sampler or the
    oracle runs."""
    from cylsim import cli

    def no_work(*_args, **_kwargs):
        raise AssertionError("the spec reached the sampler or the oracle")

    monkeypatch.setattr(cli, "run_branches", no_work)
    monkeypatch.setattr(cli, "exact_distribution", no_work)
    spec = _pair_spec()
    spec["schedule"][0]["adaptive"] = {"nodes": [1], "angles": [0.3, 0.6]}
    path = tmp_path / "adaptive.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli([command, "--spec", str(path)], capsys)
    assert code == 4, err
    assert out == "" and err.startswith("bad input:") and "node 1" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("spec_seed, flags", [
    (-1, []), (2 ** 128, []), (0, ["--seed", "-1"]), (0, ["--seed", str(2 ** 128)]),
], ids=["spec-negative", "spec-2**128", "flag-negative", "flag-2**128"])
def test_out_of_range_seed_rejected(capsys, tmp_path, command, spec_seed, flags):
    """The sampler keys Philox with the seed, which takes 0 <= seed < 2**128;
    a seed outside that is bad input that names the seed."""
    spec = _pair_spec()
    spec["sampler"]["seed"] = spec_seed
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli([command, "--spec", str(path), *flags], capsys)
    assert code == 4, err
    assert out == "" and err.startswith("bad input:") and "seed" in err
    assert err.count("\n") == 1


def test_largest_seed_accepted(capsys, tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(_pair_spec()))
    code, _, err = run_cli(["simulate", "--spec", str(path),
                            "--seed", str(2 ** 128 - 1)], capsys)
    assert code == 0, err


def test_negative_branch_probability_exit_code(capsys, tmp_path, monkeypatch):
    from cylsim import sampler
    from cylsim.bloch import MeasureProbs

    monkeypatch.setattr(sampler, "measure_prob",
                        lambda _v, _m: MeasureProbs(-0.5, 1.5, True))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_pair_spec()))
    code, out, err = run_cli(["simulate", "--spec", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "negative branch probability" in err


def test_term_off_its_circle_exit_code(capsys, tmp_path, monkeypatch):
    # the sampler's radius check runs on every CLI run and exits 3, one line
    from cylsim import decompose

    real = decompose.closed_forms

    def off_circle(*args):
        feasible, terms = real(*args)
        return feasible, terms._replace(a=terms.a * [1.0 + 1e-6, 1.0 + 1e-6, 1.0])

    monkeypatch.setattr(decompose, "closed_forms", off_circle)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_pair_spec()))
    for command in ("simulate", "verify"):
        code, out, err = run_cli([command, "--spec", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("solver failure:") and "departs" in err


def test_short_lambda_in_the_table_exit_code(capsys, tmp_path, monkeypatch):
    # a gate table tabulated from 1/(0.99 lambda) fails the closed form's
    # residual guard: exit 3, one line
    from cylsim import sampler
    from cylsim.growth import lambda_phi

    monkeypatch.setattr(sampler, "lambda_phi", lambda phi: 0.99 * lambda_phi(phi))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_pair_spec()))
    code, out, err = run_cli(["simulate", "--spec", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("solver failure: closed-form residual")


def test_unseen_z_pair_in_the_walk_exit_code(capsys, tmp_path, monkeypatch):
    # a gate step that reads a z pair its table lacks is a program fault:
    # exit 3, one line naming the gate, its timeline step and the z pair
    from cylsim import sampler

    real = sampler._tabulate

    def unseen(gates):
        table = real(gates)
        table.rows[:] = -1
        return table

    monkeypatch.setattr(sampler, "_tabulate", unseen)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_pair_spec()))
    code, out, err = run_cli(["simulate", "--spec", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err == ("solver failure: gate (0, 1) at timeline step 0 reads z pair (1, 1), "
                   "which its table lacks\n")


def test_sampled_outcome_outside_the_oracle_exit_code(capsys, tmp_path, monkeypatch):
    # the sampler is exact, so an outcome the oracle lacks is a program
    # fault: exit 3, one line
    from cylsim import cli

    real = cli.exact_distribution

    def short(spec):
        exact = real(spec)
        exact.probs.pop(next(iter(exact.probs)))
        return exact

    monkeypatch.setattr(cli, "exact_distribution", short)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_pair_spec()))
    code, out, err = run_cli(["verify", "--spec", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(
        "solver failure: sampled outcomes not in the exact alphabet")


def test_verify_asks_the_oracle_before_sampling(capsys, tmp_path, monkeypatch):
    # an 11-node chain is above the oracle's dense limit: verify exits 4
    # with the oracle's line and never samples
    from cylsim import cli

    def no_sampling(spec):
        raise AssertionError("verify sampled a spec that the oracle refuses")

    monkeypatch.setattr(cli, "run_branches", no_sampling)
    spec = _pair_spec()
    spec["graph"] = [[i, i + 1] for i in range(10)]
    spec["inputs"] = {str(i): {"theta": 0.1} for i in range(11)}
    spec["gates"] = [{"edge": e, "phi": math.pi} for e in spec["graph"]]
    spec["schedule"] = [{"node": i, "kind": "XY", "omega": 0.0} for i in range(11)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["verify", "--spec", str(path)], capsys)
    assert code == 4
    assert out == ""
    assert err == "bad input: 11 nodes exceed the dense limit 10\n"


def test_feasible_pair_at_coarse_discretization(capsys, tmp_path):
    # used to die in the sampler's LP with residual 7.33e-8 against a
    # frame-adjusted 7.07e-8; the discretization no longer affects sampling
    spec = _pair_spec(theta=0.45)
    spec["sampler"]["discretization"] = 8
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["simulate", "--spec", str(path)], capsys)
    assert code == 0, err
    counts = [int(ln.split(",")[1]) for ln in out.strip().splitlines()[2:]]
    assert sum(counts) == 200


# -- fuzzing the spec surface -------------------------------------------------

_ANGLES = st.floats(-7.0, 7.0) | st.sampled_from([0.0, 1e-15, math.pi / 2, math.pi])
# junk stays small in magnitude, so a junk sample count cannot hang the run
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=3)
    | st.floats(-20.0, 20.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _paths(doc, prefix=()):
    """Every (container path, key) in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix, key
        yield from _paths(value, prefix + (key,))


@st.composite
def _fuzzed_specs(draw):
    nodes = list(range(draw(st.integers(1, 4))))
    node = st.sampled_from(nodes)
    schedule = [
        {"node": n, "kind": draw(st.sampled_from(["Z", "XY"])),
         "omega": draw(_ANGLES),
         "mode": draw(st.sampled_from(["destructive", "quasi-destructive"]))}
        for n in draw(st.permutations(nodes))[:draw(st.integers(0, len(nodes)))]]
    for k, entry in enumerate(schedule):
        if k and draw(st.booleans()):
            entry["adaptive"] = {"nodes": [schedule[0]["node"]],
                                 "angles": [draw(_ANGLES), draw(_ANGLES)]}
    edges = draw(st.lists(st.tuples(node, node), max_size=4))
    gates = [{"edge": list(e), "phi": draw(_ANGLES)} for e in edges]
    for gate in gates:
        if schedule and draw(st.booleans()):
            gate["after_measurement"] = draw(st.integers(0, len(schedule)))
    doc = {
        "version": 1, "graph": [list(e) for e in edges],
        "inputs": {str(n): {"theta": draw(_ANGLES), "azimuth": draw(_ANGLES),
                            "shrink": draw(st.floats(0.05, 1.0))}
                   for n in nodes},
        "gates": gates, "schedule": schedule,
        "sampler": {"num_samples": draw(st.integers(1, 20)),
                    "seed": draw(st.integers(0, 2 ** 32))},
    }
    if draw(st.booleans()):
        doc["gates"] = {"powerlaw": {"alpha": draw(st.floats(0.5, 4.0)),
                                     "nn_phase": draw(_ANGLES),
                                     "cutoff": draw(st.integers(1, 3))}}
    # structural faults: delete a field or replace it (or the whole
    # document) with junk
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(doc))
        if not paths or draw(st.integers(0, 9)) == 0:
            doc = draw(_JUNK)
            continue
        prefix, key = draw(st.sampled_from(paths))
        parent = doc
        for step in prefix:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JUNK)
    return doc


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(doc=_fuzzed_specs(), command=st.sampled_from(["simulate", "verify"]))
@example(doc=_pair_spec(theta=0.8), command="verify")  # infeasible: exit 2
def test_fuzzed_specs_exit_cleanly(tmp_path_factory, doc, command):
    """Any spec document, valid or broken, runs (0), is infeasible (2) or is
    bad input (4), with the one stderr line of its exit code; it never raises
    and never ends in a solver failure (3)."""
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--spec", str(path)])
    assert code in (0, 2, 4), (code, err.getvalue(), doc)
    if code:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert err.getvalue().startswith({2: "infeasible:", 4: "bad input:"}[code])
