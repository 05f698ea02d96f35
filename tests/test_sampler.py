import math

import numpy as np
import pytest

from cylsim import decompose
from cylsim.bloch import (
    BlochVector,
    MeasurementSpec,
    measure_prob,
    post_measurement_state,
    z_rotate,
)
from cylsim.decompose import InfeasibleRequest
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
from cylsim.oracle import exact_distribution
from cylsim.sampler import AlphabetMismatch, empirical_tv, run_branches


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
    run = run_branches(spec, check_invariants=True)
    assert run.max_radius_slack <= 1e-9
    exact = exact_distribution(spec)
    assert empirical_tv(run.outcomes, exact.probs) < 0.03


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
    long_run = run_branches(_adaptive_reuse_spec(2000), check_invariants=True)
    assert len(long_run.counts) == 8
    assert run_branches(_adaptive_reuse_spec(7)).outcomes == long_run.outcomes[:7]


def _per_sample_reference(spec):
    """Reference walk, one sample at a time on the same uniforms (sample j
    takes entry j of each step's vector): BlochVector state, a fresh
    decomposition per gate and a linear scan for the term."""
    ledger = radius_ledger(spec)
    n, nodes = spec.sampler.num_samples, spec.node_ids()
    timeline = list(zip(spec.timeline(), ledger.trace))
    draws = [np.random.Generator(np.random.Philox(
        key=spec.sampler.seed, counter=[0, 0, 0, k])).random(n)
        for k in range(len(nodes) + len(timeline))]
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
                d = decompose.decompose_gate_output(
                    BlochVector(row.inputs[0], 0.0, v_a.z),
                    BlochVector(row.inputs[1], 0.0, v_b.z),
                    payload.phi, row.radii[a], row.radii[b])
                total, acc, pick = sum(d.weights), 0.0, len(d.weights) - 1
                for i, w in enumerate(d.weights):
                    acc += w
                    if u * total < acc:
                        pick = i
                        break
                vectors[a] = z_rotate(BlochVector(*d.a[pick]), v_a.azimuth())
                vectors[b] = z_rotate(BlochVector(*d.b[pick]), v_b.azimuth())
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
], ids=["adaptive-reuse", "zero-radius-z-shrink"])
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
    run = run_branches(spec, check_invariants=True)
    assert run.fast_path_hits == 2000  # one per sample
    assert run.canonical_decompositions == 0
    exact = exact_distribution(spec)
    assert empirical_tv(run.outcomes, exact.probs) < 0.05


def test_decompositions_tabulated_once_per_gate_and_z_pair(monkeypatch):
    # a coherent gate and a reuse gate on the measured node: decompositions
    # are made per gate step and input z pair, never per sample
    calls = []
    real = decompose.decompose_gate_output
    monkeypatch.setattr(decompose, "decompose_gate_output",
                        lambda *args: calls.append(args) or real(*args))
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
        calls.clear()
        run = run_branches(spec, check_invariants=True)
        counts[samples] = len(calls)
        assert run.canonical_decompositions == run.fast_path_hits == samples
    assert counts[200] == counts[2000] <= 9 * 2


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
    run = run_branches(spec, check_invariants=True)
    assert run.max_radius_slack <= 1e-9
    exact = exact_distribution(spec)
    assert empirical_tv(run.outcomes, exact.probs) < 0.02


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
    run = run_branches(spec, check_invariants=True)
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
    assert empirical_tv(run.outcomes, exact.probs) < 0.02


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
    assert empirical_tv(["+", "-"], {"+": 0.5, "-": 0.5}) == 0.0
    assert empirical_tv(["+", "+"], {"+": 0.0, "-": 1.0}) == 1.0
    rng = np.random.default_rng(31)
    coin = ["+" if rng.random() < 0.5 else "-" for _ in range(100000)]
    assert empirical_tv(coin, {"+": 0.5, "-": 0.5}) < 0.01
    with pytest.raises(AlphabetMismatch):
        empirical_tv(["x"], {"+": 1.0})
    with pytest.raises(ValueError):
        empirical_tv([], {"+": 1.0})


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
    run = run_branches(spec, check_invariants=True)
    exact = exact_distribution(spec)
    assert empirical_tv(run.outcomes, exact.probs) < 0.02
