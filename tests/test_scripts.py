import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_oracle_runs_on_a_tiny_config(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"before": {"cases": {}}}))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_oracle.py"),
                    "--label", "tiny", "--sizes", "3", "--repeats", "2",
                    "--output", str(out)], check=True, capture_output=True,
                   timeout=120)
    record = json.loads(out.read_text())
    assert set(record) == {"before", "tiny"}  # other labels are kept
    tiny = record["tiny"]
    assert set(tiny["cases"]) == {"chain3-quasi-destructive", "chain3-destructive",
                                  "grid2x4"}
    for case in tiny["cases"].values():
        assert len(case["runs_s"]) == 2 and case["median_s"] > 0
        assert case["pruned_mass"] == 0.0
    assert tiny["cases"]["grid2x4"]["outcomes"] == 256
    digests = {name: case["probs_sha256"] for name, case in tiny["cases"].items()}
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    # no gate follows a measurement on the chain, so both modes agree
    assert digests["chain3-quasi-destructive"] == digests["chain3-destructive"]
    assert digests["chain3-destructive"] != digests["grid2x4"]
    assert {"numpy", "scipy", "python"} <= set(tiny["versions"])
    assert tiny["blas_threads"] == 1


def test_bench_sampler_runs_on_a_tiny_config(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_sampler.py"),
                    "--label", "tiny", "--chain", "20", "--grid", "30",
                    "--lattice", "20", "--side", "3",
                    "--repeats", "2", "--output", str(out)],
                   check=True, capture_output=True, timeout=120)
    tiny = json.loads(out.read_text())["tiny"]
    assert set(tiny["cases"]) == {"chain5-20", "grid2x5-30", "lattice3x3-20"}
    for case in tiny["cases"].values():
        assert len(case["runs_s"]) == 2 and case["us_per_sample"] > 0
        assert len(case["outcomes_sha256"]) == 64 and case["peak_rss_mb"] > 0
    assert tiny["cases"]["grid2x5-30"]["qubits"] == 10
    # every pair of the 3x3 lattice is within l1 distance 6
    lattice = tiny["cases"]["lattice3x3-20"]
    assert lattice["qubits"] == 9 and lattice["gates"] == 36
    assert len({case["outcomes_sha256"] for case in tiny["cases"].values()}) == 3
    assert {"numpy", "scipy", "python"} <= set(tiny["versions"])


def test_bench_lp_runs_on_a_tiny_config(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_lp.py"),
                    "--label", "tiny", "--cases", "rstar-cylinder", "lemma7", "twirl",
                    "--instances", "1", "--repeats", "2", "--output", str(out)],
                   check=True, capture_output=True, timeout=120)
    tiny = json.loads(out.read_text())["tiny"]
    assert set(tiny["cases"]) == {"rstar-cylinder", "lemma7", "twirl"}
    for case in tiny["cases"].values():
        assert len(case["runs_s"]) == 2 and case["median_s"] > 0
        assert case["lp_solves"] > 0
        assert len(case["lp_digests"]) == case["lp_solves"]
    # one r_star for the cylinder; hull, s and t for one Lemma-7 pair; one
    # raw point set and its symmetrization
    assert len(tiny["cases"]["rstar-cylinder"]["radii"]) == 1
    assert len(tiny["cases"]["lemma7"]["radii"]) == 3
    assert len(tiny["cases"]["twirl"]["radii"]) == 2
    assert {"numpy", "scipy", "python"} <= set(tiny["versions"])
    assert tiny["blas_threads"] == 1


def test_bench_import_runs_on_a_tiny_config(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps(
        {"before": {"commands": {"search_space": {"stdout_sha256": "0"}}}}))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_import.py"),
                           "--label", "tiny", "--repeats", "1", "--output", str(out)],
                          check=True, capture_output=True, text=True, timeout=120)
    record = json.loads(out.read_text())
    assert set(record) == {"before", "tiny"}  # other labels are kept
    tiny = record["tiny"]
    assert set(tiny["commands"]) == {"simulate_chain", "simulate_powerlaw",
                                     "verify_grid", "search_space"}
    for case in tiny["commands"].values():
        assert len(case["wall_s"]["runs"]) == 1 and case["wall_s"]["median"] > 0
        assert len(case["stdout_sha256"]) == 64
    assert tiny["import_s"]["median"] > 0 and tiny["rss_after_import_mb"]["median"] > 0
    assert "search_space: stdout NOT identical to before's" in proc.stderr
    assert {"numpy", "scipy", "python"} <= set(tiny["versions"])
    assert tiny["blas_threads"] == 1
