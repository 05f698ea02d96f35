"""Experiment specification and the radius ledger.

An experiment is a graph of nodes with single-particle inputs, an ordered
list of diagonal gates, and a measurement schedule.  Gates normally precede
all measurements; a gate may instead be anchored after a schedule entry
(`after_measurement`) to express quasi-destructive reuse, where measured
particles interact again.

The radius ledger is the one source of radius bookkeeping: each gate grows
its endpoints' cylinder radii by lambda(phi) unless an endpoint has zero
radius (measured, or a Z-diagonal input: the diagonal fast path applies and
nothing grows), and a node is measurable only while its radius is at most 1.
The sampler reads every gate's input and output radii from the ledger.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bloch import ZERO_RADIUS, BlochVector, MeasurementSpec, norm_angle
from .growth import PowerLawSpec, lambda_phi

LEDGER_SLACK = 1e-9


def _integer(value, what: str) -> int:
    """`value` as an int.  Bools and non-integral numbers (0.5, but also
    1.0) are rejected rather than truncated."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, not {value!r}")


@dataclass(frozen=True)
class NodeInput:
    """Initial single-particle state: pure state at polar angle theta and the
    given azimuth, optionally shrunk toward the maximally mixed point
    (thermal noise shrinks the whole Bloch vector by 1 - 2 p_T)."""

    theta: float
    azimuth: float = 0.0
    shrink: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.shrink <= 1.0:
            raise ValueError("shrink must lie in (0, 1]")

    def bloch(self) -> BlochVector:
        s = math.sin(self.theta) * self.shrink
        return BlochVector(s * math.cos(self.azimuth), s * math.sin(self.azimuth),
                           math.cos(self.theta) * self.shrink)

    def radius(self) -> float:
        return abs(math.sin(self.theta)) * self.shrink

    @classmethod
    def from_json(cls, data: dict) -> "NodeInput":
        return cls(float(data["theta"]), float(data.get("azimuth", 0.0)),
                   float(data.get("shrink", 1.0)))


@dataclass(frozen=True)
class AdaptiveRule:
    """Finite adaptive lookup: the measurement angle is chosen by the parity
    of the -1 outcomes recorded on the named nodes."""

    nodes: tuple[int, ...]
    angles: tuple[float, float]  # (even parity, odd parity)

    @classmethod
    def from_json(cls, data: dict) -> "AdaptiveRule":
        return cls(tuple(_integer(n, "adaptive node") for n in data["nodes"]),
                   (float(data["angles"][0]), float(data["angles"][1])))


@dataclass(frozen=True)
class GateStep:
    edge: tuple[int, int]
    phi: float
    after_measurement: int | None = None  # schedule index this gate follows

    def __post_init__(self):
        if self.after_measurement is not None:
            _integer(self.after_measurement, "after_measurement")

    @classmethod
    def from_json(cls, data: dict) -> "GateStep":
        return cls((_integer(data["edge"][0], "gate edge node"),
                    _integer(data["edge"][1], "gate edge node")),
                   float(data["phi"]), data.get("after_measurement"))


@dataclass(frozen=True)
class MeasureStep:
    node: int
    spec: MeasurementSpec
    adaptive: AdaptiveRule | None = None

    @classmethod
    def from_json(cls, data: dict) -> "MeasureStep":
        adaptive = None
        if data.get("adaptive") is not None:
            adaptive = AdaptiveRule.from_json(data["adaptive"])
        return cls(_integer(data["node"], "measured node"),
                   MeasurementSpec.from_json(data), adaptive)


def resolve_measure_angle(step: MeasureStep, outcomes: dict) -> float | np.ndarray:
    """Measurement angle after applying the adaptive rule to the recorded
    outcomes (parity of -1 results on the rule's nodes).  Outcomes may be
    +-1 arrays, one entry per sample; the angle is then an array too."""
    if step.adaptive is None:
        return step.spec.omega
    parity = False
    for node in step.adaptive.nodes:
        if node not in outcomes:
            raise ValueError(f"adaptive rule needs outcome of node {node} "
                             "before this measurement")
        parity = parity ^ (outcomes[node] < 0)
    even, odd = step.adaptive.angles
    return norm_angle(np.where(parity, odd, even)[()])


@dataclass(frozen=True)
class SamplerSettings:
    """Sample count and seed.  `discretization` and `tolerance` belong to
    schema v1 and are checked when a spec is parsed, but sampling does not
    read them: every sampler decomposition is exact."""

    num_samples: int = 10000
    seed: int = 0
    discretization: int = 40
    tolerance: float = 1e-7

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not 0 <= self.seed < 2 ** 128:  # the sampler's Philox key is 128 bits
            raise ValueError(f"seed must be >= 0 and < 2**128, not {self.seed!r}")
        if self.discretization < 1:
            raise ValueError("discretization must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and > 0, not {self.tolerance!r}")

    @classmethod
    def from_json(cls, data: dict) -> "SamplerSettings":
        tolerance = data.get("tolerance", 1e-7)
        if isinstance(tolerance, bool):
            raise ValueError(f"tolerance must be a number, not {tolerance!r}")
        return cls(_integer(data.get("num_samples", 10000), "num_samples"),
                   _integer(data.get("seed", 0), "seed"),
                   _integer(data.get("discretization", 40), "discretization"),
                   float(tolerance))


@dataclass
class ExperimentSpec:
    """A cluster-like experiment: graph, inputs, gate list, schedule, sampler."""

    edges: list[tuple[int, int]]
    inputs: dict[int, NodeInput]
    gates: list[GateStep]
    schedule: list[MeasureStep]
    sampler: SamplerSettings = field(default_factory=SamplerSettings)

    def __post_init__(self):
        self.edges = [(_integer(a, "graph node"), _integer(b, "graph node"))
                      for a, b in self.edges]
        self.validate()

    def node_ids(self) -> list[int]:
        nodes = set(self.inputs)
        for a, b in self.edges:
            nodes.update((a, b))
        return sorted(nodes)

    def timeline(self) -> list[tuple[str, object]]:
        """Events in execution order: unanchored gates first, then each
        measurement followed by the gates anchored after it."""
        events: list[tuple[str, object]] = []
        anchored: dict[int, list] = {}
        for g in self.gates:
            if g.after_measurement is None:
                events.append(("gate", g))
            else:
                anchored.setdefault(g.after_measurement, []).append(("gate", g))
        for k, mstep in enumerate(self.schedule):
            events.append(("measure", mstep))
            events.extend(anchored.get(k, ()))
        return events

    def validate(self):
        nodes = set(self.node_ids())
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
        edge_set = {frozenset(e) for e in self.edges}
        for g in self.gates:
            if frozenset(g.edge) not in edge_set:
                raise ValueError(f"gate edge {g.edge} is not a graph edge")
            if g.after_measurement is not None and not (
                    0 <= g.after_measurement < len(self.schedule)):
                raise ValueError(f"gate anchored after missing schedule entry "
                                 f"{g.after_measurement}")
        for node in nodes:
            if node not in self.inputs:
                raise ValueError(f"node {node} has no input state")
        angles = [x for v in self.inputs.values() for x in (v.theta, v.azimuth)]
        angles += [g.phi for g in self.gates] + [m.spec.omega for m in self.schedule]
        angles += [x for m in self.schedule if m.adaptive for x in m.adaptive.angles]
        if not all(map(math.isfinite, angles)):
            raise ValueError("non-finite theta, azimuth, phi, omega or adaptive angle")
        seen = set()
        for m in self.schedule:
            if m.node not in nodes:
                raise ValueError(f"measured node {m.node} does not exist")
            if m.node in seen:
                raise ValueError(f"node {m.node} measured twice")
            for node in m.adaptive.nodes if m.adaptive else ():
                if node not in seen:
                    raise ValueError(f"adaptive rule of node {m.node} reads node "
                                     f"{node}, which is not measured before it")
            seen.add(m.node)
        # destructive-measured nodes must not appear in any later gate
        destroyed: set[int] = set()
        for kind, payload in self.timeline():
            if kind == "gate":
                if destroyed & set(payload.edge):
                    raise ValueError(
                        f"gate {payload.edge} touches a destructively "
                        "measured node")
            elif payload.spec.mode == "destructive":
                destroyed.add(payload.node)

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentSpec":
        if data.get("version", 1) != 1:
            raise ValueError(f"unsupported spec version {data.get('version')}")
        inputs = {int(k): NodeInput.from_json(v) for k, v in data["inputs"].items()}
        gates_field = data.get("gates", [])
        if isinstance(gates_field, dict) and "powerlaw" in gates_field:
            params = dict(gates_field["powerlaw"])
            for key in ("dim", "cutoff"):
                if key in params:
                    params[key] = _integer(params[key], f"powerlaw {key}")
            spec = PowerLawSpec(**params)
            edges, gates = powerlaw_chain_gates(sorted(inputs), spec)
        else:
            gates = [GateStep.from_json(g) for g in gates_field]
            edges = [tuple(e) for e in data.get("graph", [])]
        return cls(
            edges=edges,
            inputs=inputs,
            gates=gates,
            schedule=[MeasureStep.from_json(m) for m in data.get("schedule", [])],
            sampler=SamplerSettings.from_json(data.get("sampler", {})),
        )

    @classmethod
    def loads(cls, text: str) -> "ExperimentSpec":
        return cls.from_json(json.loads(text))


def powerlaw_chain_gates(nodes: list[int], spec: PowerLawSpec):
    """Expand a power-law interaction into explicit pair gates on a 1D chain
    (consecutive integer positions), skipping pairs beyond the cutoff."""
    if spec.dim != 1:
        raise ValueError("gate expansion is defined for 1D chains only")
    edges = []
    gates = []
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            distance = j - i
            if distance > spec.cutoff:
                break
            b = nodes[j]
            edges.append((a, b))
            gates.append(GateStep((a, b), spec.phase_at(distance)))
    return edges, gates


@dataclass
class LedgerRow:
    step: int
    kind: str  # "gate" | "measure"
    # the step's own nodes: a gate's endpoints after it, or the measured node
    # at its measurement
    radii: dict[int, float]
    inputs: tuple[float, float] | None = None  # a gate's endpoint radii before it


@dataclass
class LedgerResult:
    trace: list[LedgerRow]
    infeasible_step: int | None  # the first measurement of a radius above 1
    final_radii: dict[int, float]

    @property
    def simulable(self) -> bool:
        return self.infeasible_step is None


def radius_ledger(spec: ExperimentSpec) -> LedgerResult:
    """Per-node radius accounting, walking the timeline in order.

    A gate grows both endpoints by lambda(phi) when both radii exceed
    ZERO_RADIUS; otherwise it is a controlled Z-rotation and grows nothing.
    Each gate row records its endpoints' radii before the gate (`inputs`) and
    after it (`radii`), which is all the sampler needs; rows hold no other
    node, so the trace is O(gates + measurements).  A measured node's radius
    is checked (<= 1) at its measurement time, recorded in its row, and then
    drops to 0.  lambda is computed once per distinct phase.
    """
    radii = {node: spec.inputs[node].radius() for node in spec.node_ids()}
    lams: dict[float, float] = {}  # phi -> lambda(phi)
    trace: list[LedgerRow] = []
    bad_step = None
    for step, (kind, payload) in enumerate(spec.timeline()):
        if kind == "gate":
            a, b = payload.edge
            inputs = (radii[a], radii[b])
            if min(inputs) > ZERO_RADIUS:
                lam = lams.get(payload.phi)
                if lam is None:
                    lam = lams[payload.phi] = lambda_phi(payload.phi)
                radii[a] *= lam
                radii[b] *= lam
            trace.append(LedgerRow(step, "gate", {a: radii[a], b: radii[b]},
                                   inputs))
        else:
            node = payload.node
            trace.append(LedgerRow(step, "measure", {node: radii[node]}))
            if bad_step is None and not radii[node] <= 1.0 + LEDGER_SLACK:
                bad_step = step
            radii[node] = 0.0
    return LedgerResult(trace, bad_step, radii)
