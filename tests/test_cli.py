import json
import math

import pytest

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
    assert err == "infeasible: experiment infeasible at ledger step 1\n"


def test_bad_input_exit_codes(capsys, tmp_path):
    code, _, _ = run_cli(["simulate", "--spec", "/nonexistent.json"], capsys)
    assert code == 4
    code, _, _ = run_cli(["growth", "--bogus-flag"], capsys)
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["simulate", "--spec", str(bad)], capsys)
    assert code == 4
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


def test_eval_ops(capsys):
    code, out, _ = run_cli(["eval", "--op", "lambda", "--phi", str(math.pi)],
                           capsys)
    assert code == 0
    assert json.loads(out)["lambda"] == pytest.approx(2.0582, abs=1e-4)

    code, out, _ = run_cli(["eval", "--op", "lemma1", "--fa", "0.3",
                            "--fb", "0.3", "--phi", "3.14159"], capsys)
    assert json.loads(out)["feasible"] is True

    code, out, _ = run_cli(["eval", "--op", "fixed-points", "--fa", "0.1875"],
                           capsys)
    assert json.loads(out)["fixed_points"] == [0.25, 0.75]

    code, out, _ = run_cli(["eval", "--op", "coarse-grain"], capsys)
    assert json.loads(out)["threshold"] == pytest.approx(0.2498, abs=1e-4)


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
], ids=["theta-nan", "theta-inf", "azimuth", "shrink", "phi", "omega",
        "adaptive-angle", "alpha", "time", "nn-phase", "no-samples"])
def test_malformed_spec_rejected(capsys, tmp_path, command, patch):
    spec = _pair_spec()
    patch(spec)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli([command, "--spec", str(path)], capsys)
    assert code == 4, err
    assert out == "" and err.startswith("bad input:")


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
