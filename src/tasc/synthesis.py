"""State transition machine compilation and seeded synthetic trace generation."""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import accumulate, chain, groupby
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Iterator, Optional, Union

from tasc import criteria as C
from tasc.conformance import (
    OBS_VALUE_TYPES,
    BatchSummary,
    PatientTrace,
    _plan,
    batch_conform,
    trace_from_json,
)
from tasc.dsl import serialize
from tasc.model import (
    ACTIVITY_KINDS,
    Caremap,
    CaremapSet,
    DECISION_KINDS,
    Edge,
    NodeKind,
    TERMINAL_KINDS,
    reachable,
    successors,  # unused here; perfbench's traced run and its hook test wrap it by name
)

RNG_ALGORITHM = "sha256-mt19937"  # per-trace MT19937 seeded from sha256(seed:index)
DEFAULT_STEP_CAP = 10_000


class CompileError(ValueError):
    pass


class MissingAnnotation(CompileError):
    def __init__(self, state: str):
        super().__init__(f"branching node {state} has no transition annotation")
        self.state = state


class ProbabilityMass(CompileError):
    def __init__(self, state: str, total: float):
        super().__init__(f"probabilities at {state} sum to {total!r}, expected 1")
        self.state = state
        self.total = total


class InescapableCycle(CompileError):
    def __init__(self, caremap: str, nodes: list[str]):
        super().__init__(
            f"caremap {caremap!r}: no positive-probability escape to a terminal from {nodes}"
        )
        self.caremap = caremap
        self.nodes = nodes


class StepCapExceeded(RuntimeError):
    pass


class UndecidedBranch(ValueError):
    """A sampled decision whose criteria pick no single branch in a generated trace.

    compile_stm checks a categorical sampler's values and that a continuous
    sampler has an otherwise branch, but a criterion may also read variables
    that the trace has not bound, or bound so that two branches hold.
    """


@dataclass(frozen=True)
class Categorical:
    values: tuple[Union[float, int, str], ...]
    probs: tuple[float, ...]


@dataclass(frozen=True)
class NormalDist:
    mu: float
    sigma: float


@dataclass(frozen=True)
class UniformDist:
    a: float
    b: float


Distribution = Union[Categorical, NormalDist, UniformDist]


@dataclass(frozen=True)
class EdgeProbabilities:
    probs: tuple[tuple[str, float], ...]  # (edge id, probability), in edge-id order


@dataclass(frozen=True)
class VariableSampler:
    var: str
    dist: Distribution
    unit: Optional[str] = None


BranchMode = Union[EdgeProbabilities, VariableSampler]


@dataclass(frozen=True)
class Emitter:
    var: str
    dist: Distribution
    unit: Optional[str] = None


@dataclass(frozen=True)
class TransitionModel:
    # keys are "<caremap id>.<node id>"
    branch_modes: tuple[tuple[str, BranchMode], ...] = ()
    emitters: tuple[tuple[str, tuple[Emitter, ...]], ...] = ()
    master_seed: int = 0

    _mode_by_key: dict = field(default_factory=dict, compare=False, repr=False)
    _emitters_by_key: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        # built from the reversed pairs so the first entry for a repeated key wins
        object.__setattr__(self, "_mode_by_key", dict(reversed(self.branch_modes)))
        object.__setattr__(self, "_emitters_by_key", dict(reversed(self.emitters)))

    def mode_for(self, caremap_id: str, node_id: str) -> Optional[BranchMode]:
        return self._mode_by_key.get(f"{caremap_id}.{node_id}")

    def emitters_for(self, caremap_id: str, node_id: str) -> tuple[Emitter, ...]:
        return self._emitters_by_key.get(f"{caremap_id}.{node_id}", ())


@dataclass(frozen=True)
class STM:
    cmset: CaremapSet
    entry_caremap: str
    model: TransitionModel
    provenance: tuple[tuple[str, str], ...]  # caremap_sha, model_sha, seed, rng
    # generation's walk table: the entry's replay plan node, and the _NodeModel
    # of every plan node of each caremap the entry reaches (see _build_stm)
    start: object = field(compare=False, repr=False)
    nodes: dict = field(compare=False, repr=False)

    def provenance_dict(self) -> dict:
        return dict(self.provenance)

    def __reduce__(self):
        # Plan nodes point at their successors, so pickling one recurses once
        # per node along the longest path and fails on a chain of a few
        # hundred nodes; an unpickled STM builds its walk table again.
        return (_build_stm, (self.cmset, self.entry_caremap, self.model, self.provenance))


# --- model JSON -------------------------------------------------------------


def _dist_to_json(d: Distribution) -> dict:
    if isinstance(d, Categorical):
        return {"kind": "categorical", "probs": list(d.probs), "values": list(d.values)}
    if isinstance(d, NormalDist):
        return {"kind": "normal", "mu": d.mu, "sigma": d.sigma}
    return {"a": d.a, "b": d.b, "kind": "uniform"}


def _dist_from_json(d: dict) -> Distribution:
    kind = d.get("kind")
    if kind == "categorical":
        values = tuple(d["values"])
        for v in values:  # each is emitted as an observation value
            if not isinstance(v, OBS_VALUE_TYPES):
                raise TypeError(
                    f"categorical values must be numbers, strings or booleans, got {type(v).__name__}"
                )
        return Categorical(values, tuple(float(p) for p in d["probs"]))
    if kind == "normal":
        return NormalDist(float(d["mu"]), float(d["sigma"]))
    if kind == "uniform":
        return UniformDist(float(d["a"]), float(d["b"]))
    raise ValueError(f"unknown distribution kind {kind!r}")


def model_to_json(model: TransitionModel) -> str:
    nodes: dict = {}
    for key, mode in model.branch_modes:
        if isinstance(mode, EdgeProbabilities):
            nodes[key] = {"mode": "edge_probs", "probs": {e: p for e, p in mode.probs}}
        else:
            entry = {"dist": _dist_to_json(mode.dist), "mode": "sampler", "var": mode.var}
            if mode.unit is not None:
                entry["unit"] = mode.unit
            nodes[key] = entry
    emitters: dict = {}
    for key, ems in model.emitters:
        emitters[key] = [
            {
                "dist": _dist_to_json(em.dist),
                "var": em.var,
                **({"unit": em.unit} if em.unit is not None else {}),
            }
            for em in ems
        ]
    doc = {"tasc_model": 1, "seed": model.master_seed, "nodes": nodes, "emitters": emitters}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def model_from_json(text: str) -> TransitionModel:
    """Parse a model document; one of the wrong shape raises ValueError naming the entry."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("tasc_model") != 1:
        raise ValueError("not a tasc transition model (tasc_model != 1)")
    nodes, emitter_lists = doc.get("nodes", {}), doc.get("emitters", {})
    if not (isinstance(nodes, dict) and isinstance(emitter_lists, dict)):
        raise ValueError("model nodes and emitters must be JSON objects")
    branch_modes: list[tuple[str, BranchMode]] = []
    emitters: list[tuple[str, tuple[Emitter, ...]]] = []
    try:
        for key in sorted(nodes):
            where = f"model node {key!r}"
            entry = nodes[key]
            if entry.get("mode") == "edge_probs":
                probs = tuple(sorted((e, float(p)) for e, p in entry["probs"].items()))
                branch_modes.append((key, EdgeProbabilities(probs)))
            elif entry.get("mode") == "sampler":
                sampler = VariableSampler(
                    entry["var"], _dist_from_json(entry["dist"]), entry.get("unit")
                )
                branch_modes.append((key, sampler))
            else:
                raise ValueError(f"unknown mode for {key}: {entry.get('mode')!r}")
        for key in sorted(emitter_lists):
            where = f"model emitter {key!r}"
            ems = tuple(
                Emitter(e["var"], _dist_from_json(e["dist"]), e.get("unit"))
                for e in emitter_lists[key]
            )
            emitters.append((key, ems))
        where = "model seed"
        seed = int(doc.get("seed", 0))
    except KeyError as e:
        raise ValueError(f"{where} has no {e.args[0]!r}") from None
    except (AttributeError, TypeError) as e:  # a value of the wrong JSON type
        raise ValueError(f"{where} is malformed: {e}") from None
    return TransitionModel(tuple(branch_modes), tuple(emitters), seed)


# --- compilation ------------------------------------------------------------


def _check_branching(node, mode: Optional[BranchMode]) -> set[str]:
    """Check the annotation of a plan node with two or more out-edges; return the
    out-edges no draw takes: a categorical sampler's edges that no value of
    positive probability selects."""
    state = f"{node.cm.id}.{node.id}"
    if mode is None:
        raise MissingAnnotation(state)
    if isinstance(mode, EdgeProbabilities):
        out_ids = sorted(node.succ_ids)
        probs_ids = sorted(e for e, _ in mode.probs)
        if out_ids != probs_ids:
            raise CompileError(
                f"{state}: probability map covers {probs_ids}, out-edges are {out_ids}"
            )
        if any(p < 0 for _, p in mode.probs):
            raise CompileError(f"{state}: negative probability")
        total = sum(p for _, p in mode.probs)
        if abs(total - 1.0) > 1e-9:
            raise ProbabilityMass(state, total)
        return set()
    if node.kind not in DECISION_KINDS:
        raise CompileError(f"{state}: variable samplers are only allowed on decision nodes")
    branches = node.branches  # None unless every out-edge has a criterion
    if branches is None:
        raise CompileError(f"{state}: sampler decision has out-edges without criteria")
    if isinstance(mode.dist, Categorical):
        total = sum(mode.dist.probs)
        if abs(total - 1.0) > 1e-9:
            raise ProbabilityMass(state, total)
        taken = set()
        for value, p in zip(mode.dist.values, mode.dist.probs):
            bindings = C.bind({}, mode.var, value, mode.unit)
            selection = C.select_branch(branches, bindings)
            if not isinstance(selection, C.Chosen):
                raise CompileError(
                    f"{state}: sampled value {value!r} does not decide a unique branch"
                )
            if p > 0:
                taken.add(selection.edge_id)
        return set(node.succ_ids) - taken
    if not any(isinstance(c, C.Otherwise) for _, c in branches):
        raise CompileError(
            f"{state}: continuous sampler needs an otherwise branch to stay decidable"
        )
    return set()


def compile_stm(cmset: CaremapSet, entry_caremap: str, model: TransitionModel) -> STM:
    """Check coverage, probability mass, and escapability; freeze provenance.

    The checks read the STM's walk table, so they cover exactly the caremaps
    generation can enter: caremaps in id order, nodes in canonical order.
    """
    from tasc.validator import has_errors, validate

    diagnostics = validate(cmset)
    if has_errors(diagnostics):
        raise CompileError(
            "caremap set is not valid:\n" + "\n".join(d.render() for d in diagnostics)
        )
    if not cmset.has_caremap(entry_caremap):
        raise CompileError(f"no caremap {entry_caremap!r} in set")

    # before the table, so serialize's temporaries are freed before it is built
    caremap_sha = hashlib.sha256(serialize(cmset).encode()).hexdigest()
    model_sha = hashlib.sha256(model_to_json(model).encode()).hexdigest()
    provenance = (
        ("caremap_sha", caremap_sha),
        ("model_sha", model_sha),
        ("seed", str(model.master_seed)),
        ("rng", RNG_ALGORITHM),
    )
    stm = _build_stm(cmset, entry_caremap, model, provenance)
    for cm_id, nodes in groupby(stm.nodes.items(), key=lambda item: item[0].cm.id):
        never_sampled: set[str] = set()  # sampler decisions' out-edges no draw takes
        for node, m in nodes:
            if len(node.succ_ids) >= 2:
                never_sampled |= _check_branching(node, m.mode)
        cm = cmset.caremap(cm_id)
        _check_escapable(cm, model, never_sampled)
        _check_links(cmset, cm)
    return stm


def _check_escapable(cm: Caremap, model: TransitionModel, never_sampled: set[str]) -> None:
    """Every node must reach a terminal through positive-probability edges."""

    def positive(e: Edge) -> bool:
        mode = model.mode_for(cm.id, e.from_id)
        if isinstance(mode, EdgeProbabilities):
            return any(edge == e.id and p > 0 for edge, p in mode.probs)
        return e.id not in never_sampled

    escapes = reachable(
        (n.id for n in cm.nodes if n.kind in TERMINAL_KINDS),
        lambda cur: (e.from_id for e in cm.in_edges(cur) if positive(e)),
    )
    trapped = sorted(n.id for n in cm.nodes if n.id not in escapes)
    if trapped:
        raise InescapableCycle(cm.id, trapped)


def _check_links(cmset: CaremapSet, cm: Caremap) -> None:
    ambiguous = sorted(n.id for n in cm.nodes if len(cmset.links_from(cm.id, n.id)) > 1)
    if ambiguous:
        raise CompileError(
            f"caremap {cm.id!r}: exits {ambiguous} have multiple outgoing links; "
            "generation needs a single continuation per exit"
        )


# --- generation -------------------------------------------------------------
#
# Generation walks the replay plan's _Nodes (conformance._plan), so it shares
# replay's structure: kinds, out-edges by edge id, criteria branches, nested
# entries and links. What depends on the model lives in the STM's walk table
# of _NodeModels, which compile_stm builds and checks once per compile. The
# walker writes each event as its JSON text, from fragments encoded when the
# table is built, so a line is joined from strings, with no event dataclass
# or dict in between.


def _trace_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _encode(value) -> str:
    """value as json.dumps(..., sort_keys=True) writes it inside a trace line."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is float and isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, sort_keys=True)


class _Draw:
    """A variable's distribution made ready to sample, with its event's JSON pieces."""

    __slots__ = ("var", "unit", "dist", "head", "tail", "picks", "cum")

    def __init__(self, var, dist: Distribution, unit):
        self.var, self.unit, self.dist = var, unit, dist
        unit_text = "" if unit is None else f'"unit": {_encode(unit)}, '
        self.head = f', "type": "obs", {unit_text}"value": '
        self.tail = f', "var": {_encode(var)}}}'
        self.picks: Optional[list] = None  # a categorical's [(value, event JSON after "at")]
        self.cum: Optional[list[float]] = None
        if isinstance(dist, Categorical):
            self.picks = [(v, self.head + _encode(v) + self.tail) for v in dist.values]
            self.cum = list(accumulate(dist.probs))

    def draw(self, rng: random.Random) -> tuple:
        """Make the one RNG call the distribution needs, with the model's arguments.

        Returns the value and the event's JSON after its "at" field, or None
        in place of the JSON for a continuous value, which is encoded on use.
        """
        if self.picks is not None:
            # choices with cum_weights consumes the same draw as with weights
            return rng.choices(self.picks, cum_weights=self.cum)[0]
        dist = self.dist
        if isinstance(dist, NormalDist):
            return rng.gauss(dist.mu, dist.sigma), None
        return rng.uniform(dist.a, dist.b), None


class _NodeModel:
    """The model-dependent fields of one plan node, for one STM."""

    __slots__ = ("mode", "emitters", "done", "edges", "cum", "sampler")

    def __init__(self, node, model: TransitionModel):
        cm_id = node.cm.id
        self.mode = mode = model.mode_for(cm_id, node.id)  # checked by compile_stm
        self.emitters: tuple[_Draw, ...] = ()
        self.done = ""  # JSON of its activity event after the "at" field
        if node.kind in ACTIVITY_KINDS:
            self.emitters = tuple(
                _Draw(em.var, em.dist, em.unit) for em in model.emitters_for(cm_id, node.id)
            )
            self.done = f', "ref": {_encode(node.id)}, "type": "activity"}}'
        # edge_probs: [(edge id, JSON of its branch event or None)] and cumulative weights
        self.edges: Optional[list] = None
        self.cum: Optional[list[float]] = None
        self.sampler: Optional[_Draw] = None
        if isinstance(mode, EdgeProbabilities):
            self.edges = [
                (edge, _branch_json(node.id, edge) if node.kind in DECISION_KINDS else None)
                for edge, _ in mode.probs
            ]
            self.cum = list(accumulate(p for _, p in mode.probs))
        elif isinstance(mode, VariableSampler):
            self.sampler = _Draw(mode.var, mode.dist, mode.unit)


def _branch_json(decision: str, edge: str) -> str:
    return f'{{"decision": {_encode(decision)}, "edge": {_encode(edge)}, "type": "branch"}}'


def _build_stm(
    cmset: CaremapSet, entry_caremap: str, model: TransitionModel, provenance: tuple
) -> STM:
    """The STM with its walk table: a _NodeModel for every plan node of each
    caremap that the entry's plan node reaches through out-edges, nested
    entries and links, in plan order (caremaps by id, nodes canonical)."""
    plan = _plan(cmset)
    start = plan.start(entry_caremap)
    maps = {
        node.cm.id
        for node in reachable(
            [start], lambda node: (t for _, t in chain(node.succ, node.child or (), node.links))
        )
    }
    nodes = {node: _NodeModel(node, model) for node in plan.nodes.values() if node.cm.id in maps}
    return STM(cmset, entry_caremap, model, provenance, start, nodes)


class _Var:
    """One variable's observations so far in a trace, read by criteria as a Binding."""

    __slots__ = ("value", "unit", "values")

    def __init__(self, value, unit):
        self.value, self.unit, self.values = value, unit, [value]

    def series(self) -> tuple:
        return tuple(self.values)


def _observe(draw: _Draw, rng, at: int, bound: dict, out: list) -> None:
    value, text = draw.draw(rng)
    if text is None:
        text = draw.head + _encode(value) + draw.tail
    out.append(f'{{"at": {at}{text}')
    var = bound.get(draw.var)
    if var is None:
        bound[draw.var] = _Var(value, draw.unit)
    else:
        var.value = value
        var.values.append(value)
        if draw.unit is not None:
            var.unit = draw.unit


def _walk(stm: STM, seed: int, index: int, step_cap: int) -> list[str]:
    """The JSON texts of the events of trace `index`."""
    models = stm.nodes
    rng = _trace_rng(seed, index)
    out: list = []
    bound: dict[str, _Var] = {}  # the criteria bindings, updated in place
    at = 0
    steps = 0
    node = stm.start
    stack: list = []  # nested nodes to resume at
    while True:
        steps += 1
        if steps > step_cap:
            raise StepCapExceeded(
                f"trace {index} exceeded {step_cap} steps; the model likely has a "
                "near-inescapable loop"
            )
        kind = node.kind
        # identity tests: `kind in ACTIVITY_KINDS` would hash the enum in Python
        if kind is NodeKind.ACTIVITY or kind is NodeKind.NESTED_ACTIVITY:
            m = models[node]
            for draw in m.emitters:
                _observe(draw, rng, at, bound, out)
            out.append(f'{{"at": {at}{m.done}')
            at += 1
            if kind is NodeKind.NESTED_ACTIVITY:
                stack.append(node)
                node = node.child[0][1]
                continue
        elif kind is NodeKind.NESTED_DECISION:
            stack.append(node)
            node = node.child[0][1]
            continue
        elif kind is NodeKind.EXIT_POINT:
            if stack:
                node = stack.pop()  # pick the nested node's successor
            elif node.links:
                node = node.links[0][1]
                continue
            else:
                break
        elif kind is NodeKind.EXCLUSION_POINT:
            break

        # pick the successor of node
        if len(node.succ) == 1:
            node = node.succ[0][1]
            continue
        m = models[node]  # compile checked that a branching node has a mode
        if m.sampler is None:
            edge, branch = rng.choices(m.edges, cum_weights=m.cum)[0]
            if branch is not None:  # a decision's branch event
                out.append(branch)
        else:
            _observe(m.sampler, rng, at, bound, out)
            selection = C.select_branch(node.branches, bound)
            if not isinstance(selection, C.Chosen):
                raise UndecidedBranch(_undecided(index, node, selection))
            edge = selection.edge_id
        node = node.by_edge[edge][0][1]
    return out


def _undecided(index: int, node, selection) -> str:
    state = f"trace {index}: decision {node.cm.id}.{node.id}"
    if isinstance(selection, C.Undetermined):
        return f"{state} reads unbound variables {', '.join(selection.missing_vars)}"
    if isinstance(selection, C.Ambiguous):
        return f"{state} has more than one branch that holds: {', '.join(selection.edge_ids)}"
    return f"{state} has no branch that holds"


def generate_line(stm: STM, seed: int, index: int, step_cap: int = DEFAULT_STEP_CAP) -> str:
    """Trace `index` as the JSON line synth writes, a pure function of (seed, index)."""
    events = ", ".join(_walk(stm, seed, index, step_cap))
    return f'{{"events": [{events}], "trace_id": "t{index:06d}"}}'


def generate_one(stm: STM, seed: int, index: int, step_cap: int = DEFAULT_STEP_CAP) -> PatientTrace:
    """generate_line's trace, read back by the trace decoder."""
    return trace_from_json(generate_line(stm, seed, index, step_cap))


def generate(stm: STM, n: int, seed: int, step_cap: int = DEFAULT_STEP_CAP) -> Iterator[PatientTrace]:
    """Yield exactly n traces; trace i depends only on (seed, i)."""
    for i in range(n):
        yield generate_one(stm, seed, i, step_cap)


def provenance_header(stm: STM, seed: int) -> str:
    p = stm.provenance_dict()
    return (
        f"# tasc-synth v1 seed={seed} caremap_sha={p['caremap_sha']} "
        f"model_sha={p['model_sha']} rng={p['rng']}"
    )


# --- frequency verification -------------------------------------------------


@dataclass(frozen=True)
class FrequencyRow:
    caremap: str
    node: str
    edge: str
    expected: float
    empirical: float

    @property
    def delta(self) -> float:
        return abs(self.expected - self.empirical)


@dataclass(frozen=True)
class FrequencyReport:
    rows: tuple[FrequencyRow, ...]
    unmatched_traces: int = 0

    @property
    def max_delta(self) -> float:
        return max((r.delta for r in self.rows), default=0.0)

    def as_dict(self) -> dict:
        return {
            "rows": [
                {
                    "caremap": r.caremap,
                    "node": r.node,
                    "edge": r.edge,
                    "expected": r.expected,
                    "empirical": r.empirical,
                    "delta": r.delta,
                }
                for r in self.rows
            ],
            "max_delta": self.max_delta,
            "unmatched_traces": self.unmatched_traces,
        }


def frequency_report(traces: list[PatientTrace], stm: STM) -> FrequencyReport:
    """Compare annotated edge probabilities with empirical branch frequencies.

    The traces are replayed by batch_conform, without the label check, and
    the witness walks' edge counts are compared by edge_report.
    """
    return edge_report(stm, batch_conform(stm.cmset, stm.entry_caremap, traces))


def edge_report(stm: STM, summary: BatchSummary) -> FrequencyReport:
    """Compare the model's edge_probs annotations with a batch's witness-edge counts.

    An edge's empirical frequency is its count over the visits to its
    branching node, which are the counts of that node's annotated edges
    summed. Traces that did not conform count as unmatched.
    """
    rows = []
    for key, mode in stm.model.branch_modes:
        if not isinstance(mode, EdgeProbabilities):
            continue
        cm_id, node_id = key.split(".", 1)
        taken = [summary.edge_counts[cm_id, edge_id] for edge_id, _ in mode.probs]
        visits = sum(taken)
        for (edge_id, p), count in zip(mode.probs, taken):
            rows.append(FrequencyRow(cm_id, node_id, edge_id, p, count / visits if visits else 0.0))
    rows.sort(key=lambda r: (r.caremap, r.node, r.edge))
    return FrequencyReport(tuple(rows), summary.n - summary.conformant)
