"""Typed caremap graph: nodes, edges, caremap sets, and path enumeration."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional, Union

from tasc.criteria import Criterion, criterion_text


class ModelError(ValueError):
    """Raised when a model object violates a structural invariant at construction."""


class UnknownNode(KeyError):
    pass


class PathExplosion(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"path enumeration exceeded cap of {cap}")
        self.cap = cap


class NodeKind(Enum):
    ENTRY_POINT = "entry"
    EXIT_POINT = "exit"
    EXCLUSION_POINT = "exclusion"
    ACTIVITY = "activity"
    NESTED_ACTIVITY = "nested_activity"
    DECISION = "decision"
    NESTED_DECISION = "nested_decision"


NESTED_KINDS = frozenset({NodeKind.NESTED_ACTIVITY, NodeKind.NESTED_DECISION})
DECISION_KINDS = frozenset({NodeKind.DECISION, NodeKind.NESTED_DECISION})
ACTIVITY_KINDS = frozenset({NodeKind.ACTIVITY, NodeKind.NESTED_ACTIVITY})
TERMINAL_KINDS = frozenset({NodeKind.EXIT_POINT, NodeKind.EXCLUSION_POINT})

# canonical declaration order, used for storage, serialization, and equality
KIND_ORDER = {
    NodeKind.ENTRY_POINT: 0,
    NodeKind.EXIT_POINT: 1,
    NodeKind.EXCLUSION_POINT: 2,
    NodeKind.ACTIVITY: 3,
    NodeKind.NESTED_ACTIVITY: 4,
    NodeKind.DECISION: 5,
    NodeKind.NESTED_DECISION: 6,
}


class ContentType(Enum):
    DIAGNOSIS = "diagnosis"
    TREATMENT = "treatment"
    MONITORING = "monitoring"


class ActivityClass(Enum):
    REVIEW_PATIENT_RECORDS = "review_patient_records"
    COLLECT_PATIENT_HISTORY = "collect_patient_history"
    ASK_LIFESTYLE_QUESTIONS = "ask_lifestyle_questions"
    CLINICAL_EXAMINATION = "clinical_examination"
    TARGETED_EXAMINATION = "targeted_examination"
    DISEASE_ASSESSMENT = "disease_assessment"
    SET_GOALS = "set_goals"
    CONSIDER_INTERVENTIONS = "consider_interventions"
    CONSIDER_COMPLICATIONS = "consider_complications"
    WRITE_PRESCRIPTION = "write_prescription"
    EVALUATE_GOALS = "evaluate_goals"


# Canonical content type for each named activity class. A few classes appear
# under more than one content heading in clinical practice; the mapping pins
# each to its primary (first) heading so the check stays one-to-one.
CONTENT_TYPE_OF_CLASS: dict[ActivityClass, ContentType] = {
    ActivityClass.REVIEW_PATIENT_RECORDS: ContentType.DIAGNOSIS,
    ActivityClass.COLLECT_PATIENT_HISTORY: ContentType.DIAGNOSIS,
    ActivityClass.ASK_LIFESTYLE_QUESTIONS: ContentType.DIAGNOSIS,
    ActivityClass.CLINICAL_EXAMINATION: ContentType.DIAGNOSIS,
    ActivityClass.TARGETED_EXAMINATION: ContentType.DIAGNOSIS,
    ActivityClass.DISEASE_ASSESSMENT: ContentType.DIAGNOSIS,
    ActivityClass.SET_GOALS: ContentType.TREATMENT,
    ActivityClass.CONSIDER_INTERVENTIONS: ContentType.TREATMENT,
    ActivityClass.CONSIDER_COMPLICATIONS: ContentType.TREATMENT,
    ActivityClass.WRITE_PRESCRIPTION: ContentType.TREATMENT,
    ActivityClass.EVALUATE_GOALS: ContentType.MONITORING,
}


class DecisionAspect(Enum):
    CLINICAL_EVIDENCE = "clinical_evidence"
    DIAGNOSIS = "diagnosis"
    PROGNOSIS = "prognosis"
    THERAPY = "therapy"
    PREVENTION = "prevention"
    EDUCATION = "education"


@dataclass(frozen=True)
class Duration:
    """Opaque duration annotation; the value carries no temporal semantics."""

    value: float
    unit: str

    def __post_init__(self):
        if self.value < 0:
            raise ModelError(f"duration must be non-negative, got {self.value}")


# A named class, or a free-text label with no content-type mapping.
ActivityClassOrOther = Union[ActivityClass, str]


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    label: str = ""
    content_type: Optional[ContentType] = None
    activity_class: Optional[ActivityClassOrOther] = None
    aspect: Optional[DecisionAspect] = None
    nested_ref: Optional[str] = None
    duration: Optional[Duration] = None
    annotation: Optional[str] = None

    def __post_init__(self):
        if (self.nested_ref is not None) != (self.kind in NESTED_KINDS):
            raise ModelError(
                f"node {self.id!r}: nested_ref is required exactly for nested kinds"
            )
        if self.aspect is not None and self.kind not in DECISION_KINDS:
            raise ModelError(f"node {self.id!r}: aspect is only valid on decisions")
        if (
            isinstance(self.activity_class, ActivityClass)
            and self.content_type is not None
            and CONTENT_TYPE_OF_CLASS[self.activity_class] is not self.content_type
        ):
            raise ModelError(
                f"node {self.id!r}: content_type {self.content_type.value} conflicts "
                f"with activity class {self.activity_class.value}"
            )


@dataclass(frozen=True)
class Edge:
    id: str
    from_id: str
    to_id: str
    criterion: Optional[Criterion] = None
    annotation: Optional[str] = None


@dataclass(frozen=True)
class Caremap:
    id: str
    title: str = ""
    scenario: Optional[str] = None
    date: Optional[str] = None
    version: Optional[int] = None
    team: Optional[str] = None
    evidence_refs: tuple[str, ...] = ()
    variance_log_ref: Optional[str] = None
    nodes: tuple[Node, ...] = ()
    edges: tuple[Edge, ...] = ()

    _node_by_id: dict = field(default_factory=dict, compare=False, repr=False)
    _successors: dict = field(default_factory=dict, compare=False, repr=False)
    _in_edges: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.version is not None and self.version < 1:
            raise ModelError(f"caremap {self.id!r}: version must be >= 1")
        # store in canonical order so equality ignores declaration order
        object.__setattr__(
            self, "nodes", tuple(sorted(self.nodes, key=lambda n: (KIND_ORDER[n.kind], n.id)))
        )
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))
        by_id: dict[str, Node] = {}
        for n in self.nodes:
            if n.id in by_id:
                raise ModelError(f"caremap {self.id!r}: duplicate node id {n.id!r}")
            by_id[n.id] = n
        # edges are visited in id order, so every adjacency list stays sorted
        succ: dict[str, list[tuple[Edge, Node]]] = {n.id: [] for n in self.nodes}
        inc: dict[str, list[Edge]] = {n.id: [] for n in self.nodes}
        edge_ids: set[str] = set()
        triples: set[tuple[str, str, str]] = set()
        for e in self.edges:
            if e.id in edge_ids:
                raise ModelError(f"caremap {self.id!r}: duplicate edge id {e.id!r}")
            edge_ids.add(e.id)
            if e.from_id not in by_id:
                raise ModelError(
                    f"caremap {self.id!r}: edge {e.id!r} starts at unknown node {e.from_id!r}"
                )
            if e.to_id not in by_id:
                raise ModelError(
                    f"caremap {self.id!r}: edge {e.id!r} ends at unknown node {e.to_id!r}"
                )
            triple = (e.from_id, e.to_id, criterion_text(e.criterion) if e.criterion else "")
            if triple in triples:
                raise ModelError(
                    f"caremap {self.id!r}: duplicate edge {e.from_id}->{e.to_id}"
                )
            triples.add(triple)
            succ[e.from_id].append((e, by_id[e.to_id]))
            inc[e.to_id].append(e)
        object.__setattr__(self, "_node_by_id", by_id)
        object.__setattr__(self, "_successors", succ)
        object.__setattr__(self, "_in_edges", inc)

    def node(self, node_id: str) -> Node:
        try:
            return self._node_by_id[node_id]
        except KeyError:
            raise UnknownNode(f"caremap {self.id!r} has no node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._node_by_id

    def entry_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind is NodeKind.ENTRY_POINT]

    def in_edges(self, node_id: str) -> list[Edge]:
        self.node(node_id)
        return list(self._in_edges[node_id])


@dataclass(frozen=True)
class MultiLevelLink:
    from_caremap: str
    from_exit_node: str
    to_caremap: str
    to_entry_node: str


@dataclass(frozen=True)
class CaremapSet:
    caremaps: tuple[Caremap, ...] = ()
    links: tuple[MultiLevelLink, ...] = ()

    _by_id: dict = field(default_factory=dict, compare=False, repr=False)
    _links_by_exit: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "caremaps", tuple(sorted(self.caremaps, key=lambda c: c.id))
        )
        object.__setattr__(
            self,
            "links",
            tuple(
                sorted(
                    self.links,
                    key=lambda l: (l.from_caremap, l.from_exit_node, l.to_caremap, l.to_entry_node),
                )
            ),
        )
        by_id: dict[str, Caremap] = {}
        for cm in self.caremaps:
            if cm.id in by_id:
                raise ModelError(f"duplicate caremap id {cm.id!r}")
            by_id[cm.id] = cm
        by_exit: dict[tuple[str, str], list[MultiLevelLink]] = {}
        for link in self.links:
            by_exit.setdefault((link.from_caremap, link.from_exit_node), []).append(link)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_links_by_exit", by_exit)

    def caremap(self, caremap_id: str) -> Caremap:
        try:
            return self._by_id[caremap_id]
        except KeyError:
            raise KeyError(f"no caremap {caremap_id!r} in set") from None

    def has_caremap(self, caremap_id: str) -> bool:
        return caremap_id in self._by_id

    def links_from(self, caremap_id: str, exit_id: str) -> list[MultiLevelLink]:
        """Links leaving one exit, in (to_caremap, to_entry_node) order.

        Returns the stored list; callers must not mutate it.
        """
        return self._links_by_exit.get((caremap_id, exit_id), [])


@dataclass(frozen=True)
class RefError:
    code: str  # DanglingNestedRef | NestingCycle | DanglingLinkEndpoint | BadLinkEndpoint
    caremap: str
    subject: str
    message: str


def resolve_refs(cmset: CaremapSet) -> list[RefError]:
    """Check that nested refs and link endpoints resolve and nesting is acyclic."""
    errors: list[RefError] = []
    nesting: dict[str, set[str]] = {cm.id: set() for cm in cmset.caremaps}
    for cm in cmset.caremaps:
        for n in cm.nodes:
            if n.nested_ref is None:
                continue
            if not cmset.has_caremap(n.nested_ref):
                errors.append(
                    RefError(
                        "DanglingNestedRef",
                        cm.id,
                        n.id,
                        f"node {n.id!r} references absent caremap {n.nested_ref!r}",
                    )
                )
            else:
                nesting[cm.id].add(n.nested_ref)
    for link in cmset.links:
        for side, cm_id, node_id in (
            ("source", link.from_caremap, link.from_exit_node),
            ("target", link.to_caremap, link.to_entry_node),
        ):
            if not cmset.has_caremap(cm_id):
                errors.append(
                    RefError(
                        "DanglingLinkEndpoint",
                        cm_id,
                        node_id,
                        f"link {side} names absent caremap {cm_id!r}",
                    )
                )
            elif not cmset.caremap(cm_id).has_node(node_id):
                errors.append(
                    RefError(
                        "DanglingLinkEndpoint",
                        cm_id,
                        node_id,
                        f"link {side} names absent node {cm_id}.{node_id}",
                    )
                )

    # DFS cycle detection over the nesting relation, on an explicit stack so
    # that a long nesting chain cannot exhaust the interpreter's recursion limit.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {cid: WHITE for cid in nesting}
    for root in sorted(nesting):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]  # the grey maps, outermost first
        children = [iter(sorted(nesting[root]))]  # children left to visit, per map on path
        while path:
            child = next(children[-1], None)
            if child is None:
                color[path.pop()] = BLACK
                children.pop()
            elif color[child] == GREY:
                cycle = path[path.index(child):] + [child]
                errors.append(
                    RefError(
                        "NestingCycle",
                        path[-1],
                        child,
                        "nesting cycle: " + " -> ".join(cycle),
                    )
                )
            elif color[child] == WHITE:
                color[child] = GREY
                path.append(child)
                children.append(iter(sorted(nesting[child])))
    return errors


def reachable(starts: Iterable, neighbours: Callable[[object], Iterable]) -> set:
    """Everything reachable from starts, starts included, by following neighbours."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for nxt in neighbours(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def successors(caremap: Caremap, node_id: str) -> list[tuple[Edge, Node]]:
    """Out-edges of a node with their target nodes, in edge-id order.

    Returns the caremap's stored list; callers must not mutate it.
    """
    succ = caremap._successors.get(node_id)
    if succ is None:
        caremap.node(node_id)  # raises UnknownNode
    return succ


def enumerate_paths(
    caremap: Caremap, cycle_bound: int = 0, path_cap: int = 100_000
) -> list[list[str]]:
    """All entry-to-terminal walks where no node repeats more than cycle_bound+1 times.

    Deterministic order (depth-first, successors in edge-id order). Raises
    PathExplosion past path_cap, which on a well-formed caremap signals a
    modeling error rather than a real workload.
    """
    entries = caremap.entry_nodes()
    if len(entries) != 1:
        raise ModelError(
            f"caremap {caremap.id!r} needs exactly one entry point for enumeration"
        )
    max_visits = cycle_bound + 1
    paths: list[list[str]] = []
    walk = [entries[0].id]
    visits = {entries[0].id: 1}
    # the out-edges left to try from each node on the walk; an explicit stack,
    # so a long chain cannot exhaust the interpreter's recursion limit
    todo = [iter(successors(caremap, entries[0].id))]
    while todo:
        step = next(todo[-1], None)
        if step is None:
            todo.pop()
            visits[walk.pop()] -= 1
            continue
        nxt = step[1]
        if visits.get(nxt.id, 0) >= max_visits:
            continue
        if nxt.kind in TERMINAL_KINDS:
            if len(paths) >= path_cap:
                raise PathExplosion(path_cap)
            paths.append(walk + [nxt.id])
        else:
            walk.append(nxt.id)
            visits[nxt.id] = visits.get(nxt.id, 0) + 1
            todo.append(iter(successors(caremap, nxt.id)))
    return paths
