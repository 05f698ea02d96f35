import math
from collections import Counter

import numpy as np
import pytest

from cylsim import decompose, sampler
from cylsim.bloch import ZERO_RADIUS, BlochVector, MeasurementSpec, measure_prob, norm_angle
from cylsim.experiment import (
    AdaptiveRule,
    ExperimentSpec,
    GateStep,
    MeasureStep,
    NodeInput,
    SamplerSettings,
    radius_ledger,
    resolve_measure_angle,
)
from cylsim.growth import lambda_phi
from cylsim.oracle import exact_distribution
from cylsim.sampler import AlphabetMismatch, InfeasibleRequest, empirical_tv, run_branches
from reference import (
    bench_sampler,
    bench_workloads,
    decompose_gate_output,
    decompose_gate_outputs,
    post_measurement_state,
    terms_row,
    z_rotate,
)


def test_no_gate_bernoulli():
    theta = 0.8
    spec = ExperimentSpec(
        edges=[], inputs={0: NodeInput(theta)}, gates=[],
        schedule=[MeasureStep(0, MeasurementSpec("Z"))],
        sampler=SamplerSettings(num_samples=100000, seed=5),
    )
    run = run_branches(spec)
    p_minus_exact = (1 - math.cos(theta)) / 2
    rate = run.counts.get("-", 0) / len(run.outcomes)
    sigma = math.sqrt(p_minus_exact * (1 - p_minus_exact) / len(run.outcomes))
    assert abs(rate - p_minus_exact) < 3 * sigma


def test_two_qubit_tv_and_invariants():
    theta = math.radians(20)
    assert theta < math.asin(1 / 2.0581710272714924)  # inside the simulable cone
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta), 1: NodeInput(theta)},
        gates=[GateStep((0, 1), math.pi)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0)),
                  MeasureStep(1, MeasurementSpec("XY", 0.0))],
        sampler=SamplerSettings(num_samples=20000, seed=9),
    )
    run = run_branches(spec)
    assert run.max_radius_slack <= 1e-9
    exact = exact_distribution(spec)
    assert empirical_tv(run.counts, exact.probs) < 0.03


def test_determinism_and_counter_based_streams():
    theta = 0.3
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta), 1: NodeInput(theta)},
        gates=[GateStep((0, 1), 2.0)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.2)),
                  MeasureStep(1, MeasurementSpec("Z"))],
        sampler=SamplerSettings(num_samples=500, seed=42),
    )
    run1 = run_branches(spec)
    run2 = run_branches(spec)
    assert run1.outcomes == run2.outcomes
    spec.sampler = SamplerSettings(num_samples=500, seed=43)
    run3 = run_branches(spec)
    assert run1.outcomes != run3.outcomes


def _adaptive_reuse_spec(samples, seed=41):
    """3-node CZ chain, quasi-destructive XY measurements with two adaptive
    rules, and a gate anchored after the first measurement (fast path on a
    dephased node)."""
    theta = math.radians(10)
    qd = "quasi-destructive"
    return ExperimentSpec(
        edges=[(0, 1), (1, 2)],
        inputs={i: NodeInput(theta) for i in range(3)},
        gates=[GateStep((0, 1), math.pi), GateStep((1, 2), math.pi),
               GateStep((0, 1), math.pi, after_measurement=0)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, qd)),
                  MeasureStep(1, MeasurementSpec("XY", 0.0, qd),
                              AdaptiveRule((0,), (0.0, math.pi / 2))),
                  MeasureStep(2, MeasurementSpec("XY", 0.0, qd),
                              AdaptiveRule((0, 1), (0.3, 1.9)))],
        sampler=SamplerSettings(num_samples=samples, seed=seed),
    )


def test_short_run_is_a_prefix_of_a_long_one():
    # step k draws one uniform per sample from the Philox stream at counter
    # k, so sample j depends only on (seed, step, j): a 7-sample run repeats
    # the first 7 outcomes of a 2000-sample run with the same seed
    long_run = run_branches(_adaptive_reuse_spec(2000))
    assert len(long_run.counts) == 8
    assert run_branches(_adaptive_reuse_spec(7)).outcomes == long_run.outcomes[:7]


def _per_sample_reference(spec):
    """Reference walk, one sample at a time on the same uniforms (sample j
    takes entry j of each step's vector): BlochVector state, each gate
    step's decomposition at its ledger radii (one per input z pair, shared
    by the samples) and a linear scan for the term."""
    ledger = radius_ledger(spec)
    n, nodes = spec.sampler.num_samples, spec.node_ids()
    timeline = list(zip(spec.timeline(), ledger.trace))
    draws = [np.random.Generator(np.random.Philox(
        key=spec.sampler.seed, counter=[0, 0, 0, k])).random(n)
        for k in range(len(nodes) + len(timeline))]
    decompositions = {}  # (step, z_a, z_b) -> Decomposition
    outcomes = []
    for j in range(n):
        vectors = {}
        for k, node in enumerate(nodes):
            v = spec.inputs[node].bloch()
            up = draws[k][j] < (1.0 + v.z) / 2.0
            vectors[node] = BlochVector(v.x, v.y, 1.0 if up else -1.0)
        record, chars = {}, ""
        for k, ((kind, payload), row) in enumerate(timeline, start=len(nodes)):
            u = draws[k][j]
            if kind == "gate":
                a, b = payload.edge
                v_a, v_b = vectors[a], vectors[b]
                if (k, v_a.z, v_b.z) not in decompositions:
                    decompositions[k, v_a.z, v_b.z] = decompose_gate_output(
                        BlochVector(row.inputs[0], 0.0, v_a.z),
                        BlochVector(row.inputs[1], 0.0, v_b.z),
                        payload.phi, row.radii[a], row.radii[b])
                d = decompositions[k, v_a.z, v_b.z]
                total, acc, pick = sum(d.weights), 0.0, len(d.weights) - 1
                for i, w in enumerate(d.weights):
                    acc += w
                    if u * total < acc:
                        pick = i
                        break
                vectors[a] = z_rotate(BlochVector(*d.a[pick]),
                                      norm_angle(math.atan2(v_a.y, v_a.x)))
                vectors[b] = z_rotate(BlochVector(*d.b[pick]),
                                      norm_angle(math.atan2(v_b.y, v_b.x)))
            else:
                m = MeasurementSpec(payload.spec.kind,
                                    resolve_measure_angle(payload, record),
                                    payload.spec.mode)
                outcome = +1 if u < measure_prob(vectors[payload.node], m).p_plus else -1
                record[payload.node] = outcome
                chars += "+" if outcome > 0 else "-"
                vectors[payload.node] = post_measurement_state(m, outcome)
        outcomes.append(chars)
    return outcomes


def _own_phases_spec(samples):
    """Six nodes, every gate at its own random phase (one table key per
    gate) plus an identity gate; a tiny nonzero input radius (sin 1e-15,
    below ZERO_RADIUS), shrunk inputs, and a quasi-destructive Z
    measurement followed by a gate anchored after it."""
    qd = "quasi-destructive"
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (2, 5)]
    phases = np.random.default_rng(12).uniform(-math.pi, math.pi, len(edges))
    gates = [GateStep(e, float(p)) for e, p in zip(edges, phases)]
    gates.insert(3, GateStep((2, 3), 2 * math.pi))
    gates.append(GateStep((3, 5), 2.4, after_measurement=0))
    return ExperimentSpec(
        edges=edges + [(3, 5)],
        inputs={0: NodeInput(1e-15), 1: NodeInput(0.12, shrink=0.7),
                2: NodeInput(0.1, azimuth=0.8), 3: NodeInput(0.15, azimuth=2.9),
                4: NodeInput(0.09), 5: NodeInput(0.11, azimuth=-1.2, shrink=0.9)},
        gates=gates,
        schedule=[MeasureStep(3, MeasurementSpec("Z", 0.0, qd)),
                  MeasureStep(0, MeasurementSpec("XY", 0.3)),
                  MeasureStep(1, MeasurementSpec("XY", 1.1)),
                  MeasureStep(2, MeasurementSpec("XY", 0.0, qd),
                              AdaptiveRule((3,), (0.2, 1.4))),
                  MeasureStep(4, MeasurementSpec("XY", 2.2)),
                  MeasureStep(5, MeasurementSpec("XY", 0.5, qd),
                              AdaptiveRule((3, 1), (0.6, 2.7)))],
        sampler=SamplerSettings(num_samples=samples, seed=19))


def _identity_and_zero_sides_spec(samples):
    """Identity gates at phi = 0 and 4 pi (one with a zero side), a gate
    anchored after an XY measurement (a zero side at z = 0) and one after a
    Z measurement too (both sides zero)."""
    qd = "quasi-destructive"
    return ExperimentSpec(
        edges=[(0, 1), (1, 2), (0, 2)],
        inputs={k: NodeInput(0.3, azimuth=0.7 * k) for k in range(3)},
        gates=[GateStep((0, 1), 0.0), GateStep((1, 2), 4 * math.pi),
               GateStep((0, 1), math.pi), GateStep((0, 2), 0.0, after_measurement=0),
               GateStep((0, 2), 1.3, after_measurement=0),
               GateStep((0, 1), 2.1, after_measurement=1)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, qd)),
                  MeasureStep(1, MeasurementSpec("Z", 0.0, qd)),
                  MeasureStep(2, MeasurementSpec("XY", 0.4))],
        sampler=SamplerSettings(num_samples=samples, seed=23))


@pytest.mark.parametrize("spec", [
    _adaptive_reuse_spec(400),
    ExperimentSpec(  # a zero-radius input, Z measurements and a shrunk input
        edges=[(0, 1), (1, 2)],
        inputs={0: NodeInput(math.pi), 1: NodeInput(0.2, shrink=0.8),
                2: NodeInput(0.3, azimuth=1.1)},
        gates=[GateStep((0, 1), math.pi), GateStep((1, 2), 2.0),
               GateStep((1, 2), 0.0), GateStep((1, 2), 1.3, after_measurement=0)],
        schedule=[MeasureStep(1, MeasurementSpec("Z", 0.0, "quasi-destructive")),
                  MeasureStep(0, MeasurementSpec("XY", 0.4)),
                  MeasureStep(2, MeasurementSpec("XY", 2.5),
                              AdaptiveRule((1,), (0.1, 0.9)))],
        sampler=SamplerSettings(num_samples=400, seed=8)),
    _own_phases_spec(3000),
    _identity_and_zero_sides_spec(400),
], ids=["adaptive-reuse", "zero-radius-z-shrink", "own-phases", "identity-zero-sides"])
def test_array_walk_matches_per_sample_reference(spec):
    assert run_branches(spec).outcomes == _per_sample_reference(spec)


def test_fast_path_after_measurement():
    # reuse of a measured node must take the diagonal fast path and leave the
    # partner radius alone
    theta = 0.6
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta), 1: NodeInput(theta)},
        gates=[GateStep((0, 1), math.pi, after_measurement=0)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, "quasi-destructive")),
                  MeasureStep(1, MeasurementSpec("XY", 0.0, "quasi-destructive"))],
        sampler=SamplerSettings(num_samples=2000, seed=17),
    )
    run = run_branches(spec)
    assert run.fast_path_hits == 2000  # one per sample
    assert run.canonical_decompositions == 0
    exact = exact_distribution(spec)
    assert empirical_tv(run.counts, exact.probs) < 0.05


def test_decompositions_tabulated_once_per_key_and_z_pair(monkeypatch):
    # a coherent gate and a reuse gate on the measured node: two keys (phi,
    # zero_a, zero_b), and the table holds one row per key and input z pair
    # it can see, never per sample
    rows = []
    real = sampler._tabulate

    def tabulate(gates):
        table = real(gates)
        rows.append(len(table.total))
        return table

    monkeypatch.setattr(sampler, "_tabulate", tabulate)
    theta = math.radians(12)
    counts = {}
    for samples in (200, 2000):
        spec = ExperimentSpec(
            edges=[(0, 1)],
            inputs={0: NodeInput(theta), 1: NodeInput(theta)},
            gates=[GateStep((0, 1), math.pi),
                   GateStep((0, 1), math.pi, after_measurement=0)],
            schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, "quasi-destructive")),
                      MeasureStep(1, MeasurementSpec("XY", 0.0, "quasi-destructive"))],
            sampler=SamplerSettings(num_samples=samples, seed=17),
        )
        rows.clear()
        run = run_branches(spec)
        counts[samples] = sum(rows)
        assert run.canonical_decompositions == run.fast_path_hits == samples
    assert counts[200] == counts[2000] <= 9 * 2
    # the 5-node CZ chain's four gates share one coherent key: its four pole
    # pairs, not four per gate
    rows.clear()
    run_branches(ExperimentSpec.from_json(bench_workloads().chain_spec(91)))
    assert sum(rows) == 4


def test_table_does_not_depend_on_input_radii():
    # a 12-node power-law chain whose tail phases go down to 1.8e-6: one ulp
    # of input shrink moves every ledger radius but no table entry
    runs = []
    for shrink in (1.0, float(np.nextafter(1.0, 0.0))):
        spec = ExperimentSpec.from_json({
            "version": 1,
            "graph": [],
            "inputs": {str(k): {"theta": math.radians(3), "shrink": shrink}
                       for k in range(12)},
            "gates": {"powerlaw": {"alpha": 6.0, "nn_phase": math.pi, "cutoff": 11}},
            "schedule": [{"node": k, "kind": "XY", "omega": 0.0} for k in range(12)],
            "sampler": {"num_samples": 20000, "seed": 3},
        })
        runs.append(run_branches(spec))
    assert min(g.phi for g in spec.gates) < 2e-6
    assert runs[0].max_closed_form_residual == runs[1].max_closed_form_residual
    assert runs[0].outcomes == runs[1].outcomes


def test_check_invariants_catches_a_term_off_its_circle(monkeypatch):
    # side a's terms pushed off their circle by 1e-6: the radius check on the
    # gate table refuses them before the walk, on every run
    real = decompose.closed_forms

    def off_circle(*args):
        feasible, terms = real(*args)
        return feasible, terms._replace(a=terms.a * np.array([1.0 + 1e-6, 1.0 + 1e-6, 1.0]))

    monkeypatch.setattr(decompose, "closed_forms", off_circle)
    theta = math.radians(20)
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta), 1: NodeInput(theta)},
        gates=[GateStep((0, 1), math.pi)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0)),
                  MeasureStep(1, MeasurementSpec("XY", 0.0))],
        sampler=SamplerSettings(num_samples=500, seed=9),
    )
    with pytest.raises(decompose.SolverFailure, match="departs"):
        run_branches(spec)


def _table_specs():
    workloads = bench_workloads()
    return [ExperimentSpec.from_json(workloads.chain_spec(91)),
            ExperimentSpec.from_json(workloads.grid_spec(91)),
            ExperimentSpec.from_json(bench_sampler().powerlaw_lattice_spec(21, 1, 20)),
            _own_phases_spec(1), _identity_and_zero_sides_spec(1)]


@pytest.mark.parametrize("spec", _table_specs(),
                         ids=["chain", "grid", "lattice", "own-phases", "identity-zero-sides"])
def test_gate_table_matches_the_reference_decomposer(spec, monkeypatch):
    # each row of the gate table is, bitwise, the row of the general
    # gate-output decomposer at the key's unit-radius inputs: a coherent
    # key's four pole pairs at 1/lambda(phi), any other key's nine pairs at
    # its zero sides' radius 0 and its other sides' radius 1
    rows = []
    real = sampler._gate_terms
    monkeypatch.setattr(sampler, "_gate_terms",
                        lambda *args: rows.append(real(*args)) or rows[-1])
    ledger = radius_ledger(spec)
    gates = [(payload, row) for (kind, payload), row in zip(spec.timeline(), ledger.trace)
             if kind == "gate"]
    table = sampler._tabulate(gates)
    terms = decompose.GateTerms(*(np.concatenate(field) for field in zip(*rows)))
    assert len(terms.count) == len(table.total)
    keys = {}  # key -> (phi, zero_a, zero_b)
    for (gate, row), key in zip(gates, table.key):
        keys.setdefault(key, (gate.phi, *(r <= ZERO_RADIUS for r in row.inputs)))
    assert sorted(keys) == list(range(len(table.rows)))
    # the walk reads pair (z_a, z_b) at index (3 z_a + z_b) mod 9
    z_pairs = {(3 * z_a + z_b) % 9: (z_a, z_b) for z_a in (-1, 0, 1) for z_b in (-1, 0, 1)}
    for key, (phi, *zero) in keys.items():
        r_out = np.array([0.0 if z else 1.0 for z in zero])
        coherent = not any(zero) and math.fmod(phi, 2 * math.pi) != 0.0
        r_in = r_out / lambda_phi(phi) if not any(zero) else r_out
        pair = np.flatnonzero(table.rows[key] >= 0)
        assert len(pair) == (4 if coherent else 9), key
        z, ones = np.array([z_pairs[i] for i in pair]), np.ones(len(pair))
        ref = decompose_gate_outputs(np.column_stack([r_in[0] * ones, 0 * ones, z[:, 0]]),
                                     np.column_stack([r_in[1] * ones, 0 * ones, z[:, 1]]),
                                     phi * ones, r_out[0] * ones, r_out[1] * ones)
        for j, r in enumerate(table.rows[key][pair]):
            want, n = terms_row(ref, j), ref.count[j]
            assert np.array_equal(terms.weights[r], ref.weights[j]), (key, j)
            assert terms.count[r] == n, (key, j)
            for got, pts in zip(terms_row(terms, r)[1:], want[1:]):
                assert np.array_equal(got, pts), (key, j)
            # the table's own arrays hold those terms
            cum = np.cumsum(ref.weights[j])
            assert table.total[r] == cum[3]
            assert np.array_equal(table.thresholds[r],
                                  np.where(np.arange(3) < n - 1, cum[:3], np.inf))
            for side, pts in enumerate(want[1:]):
                assert np.array_equal(table.ph[side][4 * r:4 * r + n],
                                      pts[:, 0] + 1j * pts[:, 1]), (key, j)
                assert np.array_equal(table.z[side][4 * r:4 * r + n], pts[:, 2]), (key, j)


def _grid_with_identity_and_zero_side():
    """The benchmark's grid plus a phi = 0 gate and a phi = 1.234 gate, both
    anchored after measurement 1: identity, zero-side and coherent keys."""
    doc = bench_workloads().grid_spec(91)
    doc["gates"] += [{"edge": [1, 2], "phi": 0.0, "after_measurement": 1},
                     {"edge": [1, 5], "phi": 1.234, "after_measurement": 1}]
    return ExperimentSpec.from_json(doc)


@pytest.mark.parametrize("spec", [
    _grid_with_identity_and_zero_side(),
    ExperimentSpec.from_json(bench_workloads().powerlaw_spec(91)),
], ids=["grid-identity-zero-side", "powerlaw"])
def test_gate_table_blocks_do_not_change_the_run(spec, monkeypatch):
    # a gate table built TABLE_BLOCK rows at a time gives the same run for
    # any block size, down to one row per block
    def summary():
        run = run_branches(spec)
        return (run.outcomes, run.fast_path_hits, run.canonical_decompositions,
                run.max_radius_slack, run.max_closed_form_residual)

    default = summary()
    rows = len(sampler._tabulate(
        [(payload, row) for (kind, payload), row in zip(spec.timeline(),
                                                        radius_ledger(spec).trace)
         if kind == "gate"]).total)
    assert rows > 5  # every patched size below splits the table
    for block in (1, 3, 5):
        monkeypatch.setattr(sampler, "TABLE_BLOCK", block)
        assert summary() == default, block


def test_residual_guard_catches_a_short_lambda(monkeypatch):
    # a coherent key tabulated from 1/(0.99 lambda(phi)), outside lemma 1's
    # boundary: the closed form cannot reach its target, and its residual
    # guard refuses the table
    monkeypatch.setattr(sampler, "lambda_phi", lambda phi: 0.99 * lambda_phi(phi))
    spec = ExperimentSpec.from_json(bench_workloads().chain_spec(91))
    with pytest.raises(decompose.SolverFailure, match="closed-form residual"):
        run_branches(spec)


def test_max_closed_form_residual_reported():
    # the largest residual over the table's closed forms, within the guard
    # on the benchmark's grid; no closed form runs without a coherent gate
    grid = run_branches(ExperimentSpec.from_json(bench_workloads().grid_spec(91)))
    assert 0.0 < grid.max_closed_form_residual <= 1e-12
    theta = 0.6
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta), 1: NodeInput(theta)},
        gates=[GateStep((0, 1), 0.0), GateStep((0, 1), math.pi, after_measurement=0)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, "quasi-destructive")),
                  MeasureStep(1, MeasurementSpec("XY", 0.0))],
        sampler=SamplerSettings(num_samples=300, seed=3),
    )
    run = run_branches(spec)
    assert run.canonical_decompositions == 0 and run.fast_path_hits == 600
    assert run.max_closed_form_residual == 0.0


@pytest.mark.parametrize("theta0", [math.pi, 1e-15])
def test_zero_radius_input_matches_oracle(theta0):
    # sin(pi) = 1.2e-16 and sin(1e-15) are zero radii for the ledger as for
    # the decomposer, so node 1 does not grow at the first gate
    spec = ExperimentSpec(
        edges=[(0, 1), (1, 2)],
        inputs={0: NodeInput(theta0), 1: NodeInput(0.2), 2: NodeInput(0.2)},
        gates=[GateStep((0, 1), math.pi), GateStep((1, 2), math.pi)],
        schedule=[MeasureStep(i, MeasurementSpec("XY", 0.0)) for i in range(3)],
        sampler=SamplerSettings(num_samples=100000, seed=13),
    )
    run = run_branches(spec)
    assert run.max_radius_slack <= 1e-9
    exact = exact_distribution(spec)
    assert empirical_tv(run.counts, exact.probs) < 0.02


def test_sampler_solves_no_lp(monkeypatch):
    # criterion-4 chain: every coherent gate decomposes in closed form
    def no_lp(*_args, **_kwargs):
        raise AssertionError("the sampler path must not solve an LP")

    monkeypatch.setattr(decompose, "run_master", no_lp)
    theta = math.radians(6)
    spec = ExperimentSpec(
        edges=[(i, i + 1) for i in range(4)],
        inputs={i: NodeInput(theta) for i in range(5)},
        gates=[GateStep((i, i + 1), math.pi) for i in range(4)],
        schedule=[MeasureStep(i, MeasurementSpec("XY", 0.0)) for i in range(5)],
        sampler=SamplerSettings(num_samples=500, seed=3),
    )
    run = run_branches(spec)
    assert len(run.outcomes) == 500
    assert run.canonical_decompositions == 4 * 500
    assert run.max_radius_slack <= 1e-9


def test_adaptive_rule_sampling():
    theta = math.radians(15)
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta), 1: NodeInput(theta)},
        gates=[GateStep((0, 1), math.pi)],
        schedule=[
            MeasureStep(0, MeasurementSpec("XY", 0.0)),
            MeasureStep(1, MeasurementSpec("XY", 0.0),
                        AdaptiveRule((0,), (0.4, 2.2))),
        ],
        sampler=SamplerSettings(num_samples=30000, seed=23),
    )
    run = run_branches(spec)
    exact = exact_distribution(spec)
    assert empirical_tv(run.counts, exact.probs) < 0.02


def test_infeasible_spec_refused():
    theta = math.radians(40)  # far above asin(lambda^-1)
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta), 1: NodeInput(theta)},
        gates=[GateStep((0, 1), math.pi)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0)),
                  MeasureStep(1, MeasurementSpec("XY", 0.0))],
        sampler=SamplerSettings(num_samples=10, seed=0),
    )
    with pytest.raises(InfeasibleRequest):
        run_branches(spec)


def test_empirical_tv_examples():
    assert empirical_tv(Counter(["+", "-"]), {"+": 0.5, "-": 0.5}) == 0.0
    assert empirical_tv(Counter(["+", "+"]), {"+": 0.0, "-": 1.0}) == 1.0
    rng = np.random.default_rng(31)
    coin = ["+" if rng.random() < 0.5 else "-" for _ in range(100000)]
    assert empirical_tv(Counter(coin), {"+": 0.5, "-": 0.5}) < 0.01
    with pytest.raises(AlphabetMismatch):
        empirical_tv(Counter(["x"]), {"+": 1.0})
    with pytest.raises(ValueError):
        empirical_tv(Counter(), {"+": 1.0})


def test_thermal_shrink_inputs():
    # shrunk inputs stay exact: compare against the oracle on a mixed state
    theta = 0.5
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta, shrink=0.8), 1: NodeInput(theta, shrink=0.8)},
        gates=[GateStep((0, 1), math.pi)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0)),
                  MeasureStep(1, MeasurementSpec("XY", 0.0))],
        sampler=SamplerSettings(num_samples=30000, seed=29),
    )
    run = run_branches(spec)
    exact = exact_distribution(spec)
    assert empirical_tv(run.counts, exact.probs) < 0.02
