import math

import pytest

from cylsim.bloch import MeasurementSpec
from cylsim.experiment import (
    AdaptiveRule,
    ExperimentSpec,
    GateStep,
    MeasureStep,
    NodeInput,
    SamplerSettings,
    powerlaw_chain_gates,
    radius_ledger,
    resolve_measure_angle,
)
from cylsim.growth import LAMBDA_CZ, PowerLawSpec, longrange_growth


def chain_spec(n, theta, phi=math.pi, measure_kind="XY"):
    return ExperimentSpec(
        edges=[(i, i + 1) for i in range(n - 1)],
        inputs={i: NodeInput(theta) for i in range(n)},
        gates=[GateStep((i, i + 1), phi) for i in range(n - 1)],
        schedule=[MeasureStep(i, MeasurementSpec(measure_kind, 0.0))
                  for i in range(n)],
        sampler=SamplerSettings(num_samples=16, seed=0),
    )


def test_chain_interior_radius():
    theta = math.radians(10)
    spec = chain_spec(5, theta)
    res = radius_ledger(spec)
    assert res.simulable
    # interior node grows by lambda_CZ twice before it is measured
    measured = [row for row in res.trace if row.kind == "measure"][2]
    assert measured.radii[2] == pytest.approx(math.sin(theta) * LAMBDA_CZ ** 2,
                                              abs=1e-12)
    # threshold angle for a chain interior is asin(lambda^-2) ~ 13.65 deg
    threshold = math.degrees(math.asin(LAMBDA_CZ ** -2))
    assert threshold == pytest.approx(13.65, abs=5e-3)
    bad = chain_spec(5, math.radians(14))
    assert not radius_ledger(bad).simulable
    assert radius_ledger(chain_spec(5, math.radians(13.6))).simulable


def test_star_graph_exact_unit_radius():
    r0 = LAMBDA_CZ ** -4
    spec = ExperimentSpec(
        edges=[(0, k) for k in range(1, 5)],
        inputs={k: NodeInput(math.asin(r0)) for k in range(5)},
        gates=[GateStep((0, k), math.pi) for k in range(1, 5)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0))],
        sampler=SamplerSettings(num_samples=16, seed=0),
    )
    res = radius_ledger(spec)
    assert res.simulable
    trace_at_measure = [row for row in res.trace if row.kind == "measure"][0]
    assert trace_at_measure.radii[0] == pytest.approx(1.0, abs=1e-12)


def test_identity_gates_keep_radii():
    spec = chain_spec(4, 0.7, phi=0.0)
    res = radius_ledger(spec)
    assert res.simulable
    for node, r in res.final_radii.items():
        assert r == 0.0  # all measured at the end
    measured = [row for row in res.trace if row.kind == "measure"]
    for node, row in enumerate(measured):
        assert row.radii[node] == pytest.approx(math.sin(0.7))


def test_measurement_aware_not_larger_than_static():
    # a second interaction on an already-measured node takes the diagonal
    # fast path: the partner grows by lambda once, not by lambda^2 as a count
    # of its incident gates would charge
    theta = math.radians(12)
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={i: NodeInput(theta) for i in range(2)},
        gates=[GateStep((0, 1), math.pi),
               GateStep((0, 1), math.pi, after_measurement=0)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, "quasi-destructive")),
                  MeasureStep(1, MeasurementSpec("XY", 0.0, "quasi-destructive"))],
        sampler=SamplerSettings(num_samples=16, seed=0),
    )
    aware = radius_ledger(spec)
    assert aware.simulable
    aware_rows = [r for r in aware.trace if r.kind == "measure"]
    assert aware_rows[1].radii[1] == pytest.approx(math.sin(theta) * LAMBDA_CZ)


def test_zero_radius_inputs_never_grow():
    # sin(pi) = 1.2e-16 and sin(1e-15) are zero radii (<= ZERO_RADIUS) too
    for theta0 in (0.0, math.pi, 1e-15):
        spec = ExperimentSpec(
            edges=[(0, 1)],
            inputs={0: NodeInput(theta0), 1: NodeInput(0.5)},
            gates=[GateStep((0, 1), math.pi)],
            schedule=[MeasureStep(1, MeasurementSpec("XY", 0.0))],
            sampler=SamplerSettings(num_samples=16, seed=0),
        )
        res = radius_ledger(spec)
        assert res.simulable
        assert res.trace[0].inputs == (abs(math.sin(theta0)), math.sin(0.5))
        assert res.trace[0].radii[1] == pytest.approx(math.sin(0.5))


def test_ledger_rows_hold_only_their_own_nodes():
    # a wide spec (40 nodes, 185 gates): each row keeps a gate's two
    # endpoints or the measured node, never a copy of every radius
    doc = {
        "version": 1,
        "inputs": {str(k): {"theta": 0.01} for k in range(40)},
        "gates": {"powerlaw": {"alpha": 3.0, "nn_phase": math.pi, "cutoff": 5}},
        "schedule": [{"node": k, "kind": "XY", "omega": 0.0} for k in range(40)],
        "sampler": {"num_samples": 16, "seed": 0},
    }
    spec = ExperimentSpec.from_json(doc)
    res = radius_ledger(spec)
    assert res.simulable and len(res.trace) == 185 + 40
    assert max(len(row.radii) for row in res.trace) <= 2
    for (kind, payload), row in zip(spec.timeline(), res.trace):
        own = set(payload.edge) if kind == "gate" else {payload.node}
        assert set(row.radii) == own


def test_ledger_computes_lambda_once_per_phase(monkeypatch):
    # a 12-node power-law chain: 66 growing gates at 11 phases; the radii
    # are bitwise those of a walk that computes lambda at every gate
    from cylsim import experiment, growth

    spec = ExperimentSpec.from_json({
        "version": 1,
        "graph": [],
        "inputs": {str(k): {"theta": math.radians(2)} for k in range(12)},
        "gates": {"powerlaw": {"alpha": 4.0, "nn_phase": math.pi, "cutoff": 11}},
        "schedule": [{"node": k, "kind": "XY", "omega": 0.0} for k in range(12)],
        "sampler": {"num_samples": 1, "seed": 3},
    })
    radii = {k: spec.inputs[k].radius() for k in spec.node_ids()}
    expected = []
    for kind, step in spec.timeline():
        if kind == "gate":
            for node in step.edge:
                radii[node] *= growth.lambda_phi(step.phi)
            expected.append({node: radii[node] for node in step.edge})
    calls = []
    monkeypatch.setattr(experiment, "lambda_phi",
                        lambda phi: calls.append(phi) or growth.lambda_phi(phi))
    ledger = radius_ledger(spec)
    assert [row.radii for row in ledger.trace if row.kind == "gate"] == expected
    assert len(expected) == 66 and sorted(calls) == sorted({g.phi for g in spec.gates})
    assert len(calls) == 11


def test_validation_errors():
    with pytest.raises(ValueError, match="no input"):
        ExperimentSpec(edges=[(0, 1)], inputs={0: NodeInput(0.1)},
                       gates=[], schedule=[],
                       sampler=SamplerSettings())
    with pytest.raises(ValueError, match="not a graph edge"):
        ExperimentSpec(edges=[(0, 1)],
                       inputs={0: NodeInput(0.1), 1: NodeInput(0.1)},
                       gates=[GateStep((0, 2), 1.0)], schedule=[],
                       sampler=SamplerSettings())
    with pytest.raises(ValueError, match="measured twice"):
        ExperimentSpec(edges=[],
                       inputs={0: NodeInput(0.1)},
                       gates=[],
                       schedule=[MeasureStep(0, MeasurementSpec("Z")),
                                 MeasureStep(0, MeasurementSpec("Z"))],
                       sampler=SamplerSettings())


def test_adaptive_rule_reads_only_earlier_measurements():
    def spec(rule_nodes):
        return ExperimentSpec(
            edges=[(0, 1)], inputs={0: NodeInput(0.1), 1: NodeInput(0.1)}, gates=[],
            schedule=[MeasureStep(0, MeasurementSpec("XY")),
                      MeasureStep(1, MeasurementSpec("XY"),
                                  AdaptiveRule(rule_nodes, (0.3, 0.6)))],
            sampler=SamplerSettings())

    assert spec((0,)).schedule[1].adaptive.nodes == (0,)
    for rule_nodes, named in (((1,), 1), ((0, 1), 1), ((2,), 2)):
        with pytest.raises(ValueError, match=f"reads node {named},"):
            spec(rule_nodes)


def test_destructive_reuse_rejected():
    with pytest.raises(ValueError, match="destructively"):
        ExperimentSpec(
            edges=[(0, 1)],
            inputs={0: NodeInput(0.1), 1: NodeInput(0.1)},
            gates=[GateStep((0, 1), 1.0, after_measurement=0)],
            schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, "destructive")),
                      MeasureStep(1, MeasurementSpec("XY", 0.0))],
            sampler=SamplerSettings(),
        )


def test_loads_parses_a_literal_spec():
    text = """{"version": 1, "graph": [[0, 1], [1, 2]],
               "inputs": {"0": {"theta": 0.2}, "1": {"theta": 0.2, "azimuth": 0.0},
                          "2": {"theta": 0.2, "shrink": 1.0}},
               "gates": [{"edge": [0, 1], "phi": 3.141592653589793},
                         {"edge": [1, 2], "phi": 3.141592653589793}],
               "schedule": [{"node": 0, "kind": "XY", "omega": 0.0},
                            {"node": 1, "kind": "XY", "omega": 0.3,
                             "adaptive": {"nodes": [0], "angles": [0.1, 0.9]}},
                            {"node": 2, "kind": "XY", "mode": "destructive"}],
               "sampler": {"num_samples": 16, "seed": 0}}"""
    spec = chain_spec(3, 0.2)
    spec.schedule[1] = MeasureStep(1, MeasurementSpec("XY", 0.3),
                                   AdaptiveRule((0,), (0.1, 0.9)))
    back = ExperimentSpec.loads(text)
    assert back == spec
    assert back.schedule[1].adaptive.nodes == (0,)
    assert back.schedule[1].adaptive.angles == (0.1, 0.9)


def test_powerlaw_expansion():
    spec = PowerLawSpec(alpha=3.0, dim=1, nn_phase=math.pi, cutoff=3)
    edges, gates = powerlaw_chain_gates([0, 1, 2, 3, 4], spec)
    assert (0, 3) in edges
    assert (0, 4) not in edges  # distance 4 exceeds the cutoff
    assert gates[0].phi == pytest.approx(math.pi)
    by_edge = {g.edge: g.phi for g in gates}
    assert by_edge[(0, 2)] == pytest.approx(math.pi * 2 ** -3.0)


def test_powerlaw_json_expansion():
    doc = {
        "version": 1,
        "inputs": {str(k): {"theta": 0.05} for k in range(4)},
        "gates": {"powerlaw": {"alpha": 3.0, "dim": 1, "nn_phase": math.pi,
                               "cutoff": 2}},
        "schedule": [{"node": 0, "kind": "Z", "omega": 0.0,
                      "mode": "quasi-destructive"}],
        "sampler": {"num_samples": 16, "seed": 3},
    }
    spec = ExperimentSpec.from_json(doc)
    assert (0, 1) in spec.edges and (0, 2) in spec.edges
    assert (0, 3) not in spec.edges


def test_adaptive_angle_resolution():
    rule = AdaptiveRule((0, 2), (0.25, 1.75))
    step = MeasureStep(3, MeasurementSpec("XY", 0.0), rule)
    assert resolve_measure_angle(step, {0: 1, 2: 1}) == pytest.approx(0.25)
    assert resolve_measure_angle(step, {0: -1, 2: 1}) == pytest.approx(1.75)
    assert resolve_measure_angle(step, {0: -1, 2: -1}) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="needs outcome"):
        resolve_measure_angle(step, {0: 1})


@pytest.mark.parametrize("alpha, nn_phase, cutoff", [(3.0, math.pi, 7), (2.0, 1.3, 12)])
def test_ledger_centre_growth_is_longrange_growth(alpha, nn_phase, cutoff):
    """On a chain of 2 cutoff + 1 nodes expanded by powerlaw_chain_gates, the
    centre node meets every distance up to the cutoff on both sides, so its
    ledger log growth is longrange_growth's ln_lambda_tot, and an input
    radius just below exp(-ln_lambda_tot) is the largest the ledger
    accepts."""
    law = PowerLawSpec(alpha=alpha, nn_phase=nn_phase, cutoff=cutoff)
    total = longrange_growth(law).ln_lambda_tot
    nodes = list(range(2 * cutoff + 1))
    edges, gates = powerlaw_chain_gates(nodes, law)

    def ledger(radius):
        spec = ExperimentSpec(
            edges=edges, inputs={i: NodeInput(math.asin(radius)) for i in nodes},
            gates=gates, schedule=[MeasureStep(i, MeasurementSpec("XY", 0.0))
                                   for i in nodes],
            sampler=SamplerSettings(num_samples=16, seed=0))
        return spec, radius_ledger(spec)

    spec, below = ledger((1.0 - 1e-6) * math.exp(-total))
    centre = [row for row in below.trace if row.kind == "measure" and cutoff in row.radii]
    growth = math.log(centre[0].radii[cutoff] / spec.inputs[cutoff].radius())
    assert growth == pytest.approx(total, abs=1e-12)
    assert below.simulable
    _spec, above = ledger((1.0 + 1e-6) * math.exp(-total))
    assert not above.simulable
