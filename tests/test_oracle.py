import math

import numpy as np
import pytest

from cylsim import oracle
from cylsim.bloch import (
    PAULI,
    BlochVector,
    DiagonalGate,
    MeasurementSpec,
    measure_prob,
)
from cylsim.experiment import (
    AdaptiveRule,
    ExperimentSpec,
    GateStep,
    MeasureStep,
    NodeInput,
    SamplerSettings,
    resolve_measure_angle,
)
from cylsim.oracle import ExactDistribution, TooManyQubits, exact_distribution
from reference import DenseState, apply_gate_pauli, bench_workloads, evolve, partial_trace_keep


def plus_state():
    return BlochVector(1.0, 0.0, 0.0)


def test_cz_on_plus_plus_gives_cluster_state():
    state = DenseState.from_product([plus_state(), plus_state()])
    out = evolve(state, DiagonalGate(math.pi), (0, 1))
    psi = np.array([1, 1, 1, -1]) / 2.0
    expected = np.outer(psi, psi.conj())
    assert np.max(np.abs(out.rho - expected)) < 1e-12


def test_identity_gate_keeps_state():
    state = DenseState.from_product([BlochVector(0.3, 0.2, 0.5),
                                     BlochVector(-0.1, 0.4, -0.2)])
    out = evolve(state, DiagonalGate(0.0), (0, 1))
    assert np.max(np.abs(out.rho - state.rho)) < 1e-15


def test_evolve_matches_pauli_route():
    rng = np.random.default_rng(41)
    for _ in range(200):
        phi = rng.uniform(0, 2 * math.pi)
        v_a = BlochVector(*rng.uniform(-0.6, 0.6, 2), rng.uniform(-1, 1))
        v_b = BlochVector(*rng.uniform(-0.6, 0.6, 2), rng.uniform(-1, 1))
        state = evolve(DenseState.from_product([v_a, v_b]),
                       DiagonalGate(phi), (0, 1))
        assert np.max(np.abs(state.pauli_coeff(0, 1)
                             - apply_gate_pauli(phi, v_a, v_b))) < 1e-10


def test_evolve_three_qubit_embedding():
    v = [BlochVector(0.2, 0, 0.9), plus_state(), BlochVector(0, 0.3, -0.4)]
    state = DenseState.from_product(v)
    out = evolve(state, DiagonalGate(1.3), (0, 2))
    assert np.max(np.abs(out.pauli_coeff(0, 2)
                         - apply_gate_pauli(1.3, v[0], v[2]))) < 1e-10
    # the idle qubit's marginal is untouched
    one = out.pauli_coeff(1, 0)[:, 0]
    assert one[1] == pytest.approx(1.0, abs=1e-12)


def test_evolve_index_errors():
    state = DenseState.from_product([plus_state(), plus_state()])
    with pytest.raises(IndexError):
        evolve(state, DiagonalGate(1.0), (0, 0))
    with pytest.raises(IndexError):
        evolve(state, DiagonalGate(1.0), (0, 5))


def _xx_experiment(theta, phi=math.pi, mode="quasi-destructive"):
    return ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(theta), 1: NodeInput(theta)},
        gates=[GateStep((0, 1), phi)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, mode)),
                  MeasureStep(1, MeasurementSpec("XY", 0.0, mode))],
        sampler=SamplerSettings(num_samples=100, seed=1),
    )


def test_cluster_xx_uniform():
    # hand statevector computation: all four outcomes at 1/4
    dist = exact_distribution(_xx_experiment(math.pi / 2))
    assert set(dist.probs) == {"++", "+-", "-+", "--"}
    for p in dist.probs.values():
        assert p == pytest.approx(0.25, abs=1e-12)
    assert dist.pruned_mass == 0.0
    assert sum(dist.probs.values()) + dist.pruned_mass == pytest.approx(1.0, abs=1e-9)


def test_single_qubit_xy():
    theta = 0.7
    spec = ExperimentSpec(
        edges=[], inputs={0: NodeInput(theta)}, gates=[],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0))],
        sampler=SamplerSettings(num_samples=10, seed=0),
    )
    dist = exact_distribution(spec)
    assert dist.probs["+"] == pytest.approx((1 + math.sin(theta)) / 2, abs=1e-12)
    assert dist.probs["-"] == pytest.approx((1 - math.sin(theta)) / 2, abs=1e-12)


def test_no_measurements():
    spec = ExperimentSpec(
        edges=[(0, 1)], inputs={0: NodeInput(0.1), 1: NodeInput(0.2)},
        gates=[GateStep((0, 1), 1.0)], schedule=[],
        sampler=SamplerSettings(num_samples=10, seed=0),
    )
    dist = exact_distribution(spec)
    assert dist.probs == {"": 1.0}


def test_destructive_equals_quasi_destructive_without_reuse():
    for theta in (0.3, 1.1):
        d1 = exact_distribution(_xx_experiment(theta, mode="quasi-destructive"))
        d2 = exact_distribution(_xx_experiment(theta, mode="destructive"))
        assert set(d1.probs) == set(d2.probs)
        for k in d1.probs:
            assert d1.probs[k] == pytest.approx(d2.probs[k], abs=1e-10)


def test_measurement_order_independence_for_disconnected_pairs():
    def spec(order):
        steps = {
            0: MeasureStep(0, MeasurementSpec("XY", 0.0)),
            1: MeasureStep(1, MeasurementSpec("XY", 0.5)),
            2: MeasureStep(2, MeasurementSpec("Z")),
            3: MeasureStep(3, MeasurementSpec("XY", 1.0)),
        }
        return ExperimentSpec(
            edges=[(0, 1), (2, 3)],
            inputs={k: NodeInput(0.4 + 0.1 * k) for k in range(4)},
            gates=[GateStep((0, 1), math.pi), GateStep((2, 3), 2.0)],
            schedule=[steps[k] for k in order],
            sampler=SamplerSettings(num_samples=10, seed=0),
        )

    base = exact_distribution(spec([0, 1, 2, 3])).probs
    perm = [2, 3, 0, 1]  # swap the two non-interacting pairs
    other = exact_distribution(spec(perm)).probs
    for key, p in base.items():
        permuted_key = "".join(key[perm.index(k)] for k in range(4))
        # key positions follow schedule order; remap before comparing
        assert other["".join(key[i] for i in perm)] == pytest.approx(p, abs=1e-10)


def test_quasi_destructive_reuse_changes_partner():
    # measure node 0, then re-interact it with node 1: the dephased particle
    # still conditions a Z-rotation on its partner
    spec = ExperimentSpec(
        edges=[(0, 1)],
        inputs={0: NodeInput(math.pi / 2), 1: NodeInput(math.pi / 2)},
        gates=[GateStep((0, 1), math.pi, after_measurement=0)],
        schedule=[MeasureStep(0, MeasurementSpec("XY", 0.0, "quasi-destructive")),
                  MeasureStep(1, MeasurementSpec("XY", 0.0, "quasi-destructive"))],
        sampler=SamplerSettings(num_samples=10, seed=0),
    )
    dist = exact_distribution(spec)
    # node 0 is |+> measured in X before any gate: deterministically '+'.
    # After dephasing, the gate applies Z or identity on node 1 with
    # probability 1/2 each, so node 1's X outcome becomes uniform.
    assert dist.probs["++"] == pytest.approx(0.5, abs=1e-12)
    assert dist.probs["+-"] == pytest.approx(0.5, abs=1e-12)
    assert "-+" not in dist.probs and "--" not in dist.probs


def test_probabilities_sum_to_one():
    spec = _xx_experiment(0.9, phi=2.2)
    dist = exact_distribution(spec)
    assert sum(dist.probs.values()) + dist.pruned_mass == pytest.approx(1.0,
                                                                        abs=1e-9)


def test_too_many_qubits():
    with pytest.raises(TooManyQubits):
        DenseState.from_product([plus_state()] * 11)


def test_validate():
    state = DenseState.from_product([BlochVector(0.5, 0, 0.5)])
    state.validate()
    bad = DenseState(1, np.array([[0.7, 0], [0, 0.7]], dtype=complex))
    with pytest.raises(ValueError):
        bad.validate()
    # cylinder-like non-positive operator trips the PSD check
    wide = DenseState.from_product([BlochVector(1.2, 0, 0.9)])
    with pytest.raises(ValueError):
        wide.validate()


# -- brute-force reference: full 2^n x 2^n Kronecker projectors ---------------

def _kron_projector(n, qubit, m, outcome):
    if m.kind == "Z":
        axis = np.array([0.0, 0.0, 1.0])
    else:
        axis = np.array([math.cos(m.omega), math.sin(m.omega), 0.0])
    axis = axis * (1.0 if outcome > 0 else -1.0)
    p1 = 0.5 * (PAULI[0] + axis[0] * PAULI[1] + axis[1] * PAULI[2] + axis[2] * PAULI[3])
    op = np.array([[1.0 + 0j]])
    for q in range(n):
        op = np.kron(op, p1 if q == qubit else PAULI[0])
    return op


def _kron_dephase(rho, n, qubit):
    bit = (np.arange(2 ** n) >> (n - 1 - qubit)) & 1
    return rho * (bit[:, None] == bit[None, :])


def _kron_reference(spec, prune=1e-15):
    """The dense walk: every branch carries the full density matrix and
    measures by P rho P with P embedded by Kronecker products."""
    nodes = spec.node_ids()
    timeline = spec.timeline()
    probs, pruned = {}, 0.0

    def walk(rho, positions, n_live, step, prob, outcomes, record):
        nonlocal pruned
        while step < len(timeline):
            kind, payload = timeline[step]
            if kind == "gate":
                (u, v), phi = payload.edge, payload.phi
                rho = evolve(DenseState(n_live, rho), DiagonalGate(phi),
                             (positions[u], positions[v])).rho
                step += 1
                continue
            omega = resolve_measure_angle(payload, record)
            m = MeasurementSpec(payload.spec.kind, omega, payload.spec.mode)
            q = positions[payload.node]
            for outcome in (+1, -1):
                proj = _kron_projector(n_live, q, m, outcome)
                sub = proj @ rho @ proj
                p = float(np.real(np.trace(sub)))
                if p <= prune:
                    if p > 0:
                        pruned += prob * p
                    continue
                sub = sub / p
                if m.mode == "quasi-destructive":
                    new_rho = _kron_dephase(sub, n_live, q)
                    new_pos, new_n = positions, n_live
                else:
                    new_rho = partial_trace_keep(sub, n_live,
                                                 [k for k in range(n_live) if k != q])
                    new_pos = {node: k - (k > q) for node, k in positions.items()
                               if node != payload.node}
                    new_n = n_live - 1
                walk(new_rho, new_pos, new_n, step + 1, prob * p,
                     outcomes + ("+" if outcome > 0 else "-"),
                     {**record, payload.node: outcome})
            return
        probs[outcomes] = probs.get(outcomes, 0.0) + prob

    rho0 = DenseState.from_product([spec.inputs[node].bloch() for node in nodes]).rho
    walk(rho0, {node: k for k, node in enumerate(nodes)}, len(nodes), 0, 1.0, "", {})
    return ExactDistribution(probs, pruned)


def _random_spec(rng):
    """A valid random experiment on 1-5 nodes: mixed, near-pole and
    arbitrary-azimuth inputs, phases in (-2 pi, 4 pi), Z and XY measurements
    in both modes, adaptive rules on earlier outcomes, and gates anchored
    after measurements, including on nodes already dephased."""
    while True:
        n = int(rng.integers(1, 6))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = [pairs[k] for k in rng.permutation(len(pairs))[:int(rng.integers(0, 7))]]
        poles = (0.0, math.pi, 3e-8, float(rng.uniform(0, math.pi)))
        inputs = {k: NodeInput(poles[int(rng.integers(0, 4))] if rng.random() < 0.2
                               else float(rng.uniform(0, math.pi)),
                               float(rng.uniform(0, 2 * math.pi)),
                               1.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 1)))
                  for k in range(n)}
        order = [int(k) for k in rng.permutation(n)[:int(rng.integers(0, n + 1))]]
        schedule = []
        for i, node in enumerate(order):
            mode = "quasi-destructive" if rng.random() < 0.6 else "destructive"
            kind = "Z" if rng.random() < 0.3 else "XY"
            adaptive = None
            if kind == "XY" and i and rng.random() < 0.5:
                adaptive = AdaptiveRule(tuple(order[:int(rng.integers(1, i + 1))]),
                                        tuple(rng.uniform(0, 2 * math.pi, 2)))
            schedule.append(MeasureStep(node, MeasurementSpec(
                kind, float(rng.uniform(0, 2 * math.pi)), mode), adaptive))
        gates = []
        for e in edges:
            for _ in range(int(rng.integers(1, 3))):
                anchor = None
                if schedule and rng.random() < 0.4:
                    anchor = int(rng.integers(0, len(schedule)))
                gates.append(GateStep(e, float(rng.uniform(-2 * math.pi, 4 * math.pi)),
                                      anchor))
        try:
            return ExperimentSpec(edges=edges, inputs=inputs, gates=gates,
                                  schedule=schedule,
                                  sampler=SamplerSettings(num_samples=10, seed=0))
        except ValueError:  # a gate on a destructively measured node
            continue


def test_exact_distribution_matches_kronecker_reference(monkeypatch):
    rng = np.random.default_rng(2026)
    reused = pruned = 0
    for _ in range(300):
        spec = _random_spec(rng)
        # the timeline buckets anchored gates in one pass, in the order of a
        # rescan of all gates after each schedule entry
        assert spec.timeline() == [("gate", g) for g in spec.gates
                                   if g.after_measurement is None] + [
            event for k, m in enumerate(spec.schedule) for event in
            [("measure", m)] + [("gate", g) for g in spec.gates
                                if g.after_measurement == k]]
        for prune in (oracle.PRUNE, 1e-2):  # the default, and one that cuts real mass
            with monkeypatch.context() as m:
                m.setattr(oracle, "PRUNE", prune)
                fast = exact_distribution(spec)
            slow = _kron_reference(spec, prune)
            assert set(fast.probs) == set(slow.probs)
            # near-pole inputs prune rounding-level branches, whose masses
            # differ in the last ulp between the two summation orders
            assert abs(fast.pruned_mass - slow.pruned_mass) <= 1e-12 * slow.pruned_mass
            for key, p in slow.probs.items():
                assert abs(fast.probs[key] - p) <= 1e-12, (key, spec)
            pruned += slow.pruned_mass > 0
        reused += any(g.after_measurement is not None and any(
            m.node in g.edge for m in spec.schedule[:g.after_measurement + 1])
            for g in spec.gates)
    assert reused > 30 and pruned > 10  # gates on dephased nodes, and pruning


def test_product_state_at_the_cap_factorises():
    """MAX_QUBITS nodes and no gates: each outcome's probability is the
    product of the single-qubit Born probabilities, in schedule order."""
    rng = np.random.default_rng(10)
    n = oracle.MAX_QUBITS
    inputs = {k: NodeInput(float(rng.uniform(0.3, 2.8)), float(rng.uniform(0, 2 * math.pi)),
                           float(rng.uniform(0.5, 1.0))) for k in range(n)}
    schedule = [MeasureStep(int(k), MeasurementSpec(
        "Z" if k % 3 == 0 else "XY", float(rng.uniform(0, 2 * math.pi)),
        "quasi-destructive" if k % 2 else "destructive")) for k in rng.permutation(n)]
    spec = ExperimentSpec(edges=[], inputs=inputs, gates=[], schedule=schedule,
                          sampler=SamplerSettings(num_samples=10, seed=0))
    dist = exact_distribution(spec)
    assert len(dist.probs) == 2 ** n and dist.pruned_mass == 0.0
    born = [measure_prob(inputs[m.node].bloch(), m.spec) for m in schedule]
    for key, p in dist.probs.items():
        expected = math.prod(b.p_plus if s == "+" else b.p_minus
                             for b, s in zip(born, key))
        assert abs(p - expected) <= 1e-15, key


def test_cz_chain_at_the_cap_same_in_both_modes():
    """The benchmark's CZ chain on MAX_QUBITS nodes anchors no gate after a
    measurement, so quasi-destructive and destructive measurements give the
    same distribution."""
    dists = []
    for mode in ("quasi-destructive", "destructive"):
        doc = bench_workloads().chain_spec(21, nodes=oracle.MAX_QUBITS)
        for step in doc["schedule"]:
            step["mode"] = mode
        dists.append(exact_distribution(ExperimentSpec.from_json(doc)))
    quasi, destructive = dists
    assert list(quasi.probs) == list(destructive.probs)
    assert len(quasi.probs) == 2 ** oracle.MAX_QUBITS
    assert quasi.pruned_mass == destructive.pruned_mass == 0.0
    assert sum(quasi.probs.values()) + quasi.pruned_mass == pytest.approx(1.0, abs=1e-12)
    for key, p in quasi.probs.items():
        assert abs(p - destructive.probs[key]) <= 1e-15, key


def test_outcome_keys_come_out_sorted(monkeypatch):
    """`empirical_tv` sums in the order of the keys, so `verify`'s TV depends
    on it: the keys come out sorted ('+' before '-', schedule order)."""
    grid = ExperimentSpec.from_json(bench_workloads().grid_spec(21))
    keys = list(exact_distribution(grid).probs)
    assert len(keys) == 256 and keys == sorted(keys)
    monkeypatch.setattr(oracle, "PRUNE", 1e-2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        dist = exact_distribution(_random_spec(rng))
        if dist.pruned_mass > 0 and len(dist.probs) >= 4:
            break
    else:
        pytest.fail("no random spec prunes")
    assert list(dist.probs) == sorted(dist.probs)
