"""Replay of patient event traces against a caremap set, with variance reporting."""
from __future__ import annotations

import json
import os
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from tasc import criteria as C
from tasc.model import (
    ACTIVITY_KINDS,
    NESTED_KINDS,
    Caremap,
    CaremapSet,
    Node,
    NodeKind,
    reachable,
    successors,
)


class AmbiguousLabel(ValueError):
    def __init__(self, ref: str, matches: list[str]):
        super().__init__(f"activity reference {ref!r} matches multiple nodes: {matches}")
        self.ref = ref
        self.matches = matches

    def __reduce__(self):  # pool workers send it back pickled
        return type(self), (self.ref, self.matches)


class TraceFormatError(ValueError):
    pass


@dataclass(frozen=True)
class ActivityDone:
    ref: str  # node id, or unique node label
    at: Optional[int] = None


@dataclass(frozen=True)
class Observation:
    var: str
    value: Union[float, int, str]
    unit: Optional[str] = None
    at: Optional[int] = None


@dataclass(frozen=True)
class BranchTaken:
    decision: str  # decision node id
    edge: str  # edge id


TraceEvent = Union[ActivityDone, Observation, BranchTaken]


@dataclass(frozen=True)
class PatientTrace:
    trace_id: str
    events: tuple[TraceEvent, ...] = ()


@dataclass(frozen=True)
class ConformanceReport:
    trace_id: str
    status: str  # Conformant | NonConformant | Undetermined
    matched_path: Optional[tuple[str, ...]] = None
    divergence: Optional[tuple[int, tuple[str, ...], Optional[str]]] = None
    divergence_node: Optional[str] = None
    unresolved: tuple[tuple[str, tuple[str, ...]], ...] = ()
    variance_kind: Optional[str] = None  # SkippedActivity | UnexpectedActivity | WrongBranch | IncompleteTrace

    def as_dict(self) -> dict:
        out: dict = {"trace_id": self.trace_id, "status": self.status}
        if self.matched_path is not None:
            out["matched_path"] = list(self.matched_path)
        if self.divergence is not None:
            idx, expected, found = self.divergence
            out["divergence"] = {
                "event_index": idx,
                "expected": list(expected),
                "found": found,
            }
        if self.divergence_node is not None:
            out["divergence_node"] = self.divergence_node
        if self.unresolved:
            out["unresolved"] = [
                {"decision": d, "missing_vars": list(v)} for d, v in self.unresolved
            ]
        if self.variance_kind is not None:
            out["variance_kind"] = self.variance_kind
        return out


# --- JSONL trace I/O --------------------------------------------------------


def event_to_dict(ev: TraceEvent) -> dict:
    if isinstance(ev, ActivityDone):
        out: dict = {"type": "activity", "ref": ev.ref}
        if ev.at is not None:
            out["at"] = ev.at
        return out
    if isinstance(ev, Observation):
        out = {"type": "obs", "var": ev.var, "value": ev.value}
        if ev.unit is not None:
            out["unit"] = ev.unit
        if ev.at is not None:
            out["at"] = ev.at
        return out
    return {"type": "branch", "decision": ev.decision, "edge": ev.edge}


def trace_to_json(trace: PatientTrace) -> str:
    return json.dumps(
        {"trace_id": trace.trace_id, "events": [event_to_dict(e) for e in trace.events]},
        sort_keys=True,
    )


# One decoder checks records and events and gives compact events: tuples
# tagged with the JSON type, in the field order of the event classes:
#   ("activity", ref, at)   ("obs", var, value, unit, at)   ("branch", decision, edge)
# A decoded record is (trace_id, events). The batch path (conform_text)
# label-checks and replays these as they are; load_traces and trace_from_json
# wrap them in the dataclasses.

CompactEvent = tuple
Record = tuple[str, tuple[CompactEvent, ...]]
# an observation's value is a JSON number, string or boolean (a bool is an int)
OBS_VALUE_TYPES = (int, float, str)

_EVENT_CLASSES = {"activity": ActivityDone, "obs": Observation, "branch": BranchTaken}


def _shared(value):
    """value, interned if it is a str, so the events of a file share each name."""
    return sys.intern(value) if type(value) is str else value


def _decode_event(d) -> CompactEvent:
    if not isinstance(d, dict):
        raise TraceFormatError(f"event must be an object, got {type(d).__name__}")
    kind = d.get("type")
    try:
        if kind == "activity":
            return ("activity", sys.intern(str(d["ref"])), d.get("at"))
        if kind == "obs":
            var, value = sys.intern(str(d["var"])), d["value"]
            if not isinstance(value, OBS_VALUE_TYPES):
                raise TraceFormatError(
                    f"obs value must be a number, string or boolean, got {type(value).__name__}"
                )
            return ("obs", var, _shared(value), _shared(d.get("unit")), d.get("at"))
        if kind == "branch":
            return ("branch", sys.intern(str(d["decision"])), sys.intern(str(d["edge"])))
    except KeyError as e:
        raise TraceFormatError(f"{kind} event has no {e.args[0]!r}") from None
    raise TraceFormatError(f"unknown event type {kind!r}")


def _decode_record(line: str) -> Record:
    try:
        d = json.loads(line)
    except (ValueError, RecursionError) as e:  # also too-deep nesting and too-long integers
        raise TraceFormatError(f"bad JSON: {e}") from e
    if not isinstance(d, dict) or "trace_id" not in d:
        raise TraceFormatError("trace record needs a trace_id")
    events = d.get("events", [])
    if not isinstance(events, list):
        raise TraceFormatError(f"events must be a list, got {type(events).__name__}")
    return str(d["trace_id"]), tuple(map(_decode_event, events))


def _decode_lines(lines: Sequence[str], first_line: int) -> tuple[list[Record], list[str]]:
    """Decode JSONL lines; `#` lines are comments. Returns (records, per-line errors)."""
    records: list[Record] = []
    errors: list[str] = []
    for lineno, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(_decode_record(line))
        except TraceFormatError as e:
            errors.append(f"line {lineno}: {e}")
    return records, errors


def _event_of(ev: CompactEvent) -> TraceEvent:
    return _EVENT_CLASSES[ev[0]](*ev[1:])


def _trace_of(record: Record) -> PatientTrace:
    trace_id, events = record
    return PatientTrace(trace_id, tuple(map(_event_of, events)))


def _compact(ev: TraceEvent) -> CompactEvent:
    if isinstance(ev, ActivityDone):
        return ("activity", ev.ref, ev.at)
    if isinstance(ev, Observation):
        return ("obs", ev.var, ev.value, ev.unit, ev.at)
    return ("branch", ev.decision, ev.edge)


def trace_from_json(line: str) -> PatientTrace:
    return _trace_of(_decode_record(line))


def load_traces(text: str) -> tuple[list[PatientTrace], list[str]]:
    """Parse JSONL; `#` lines are comments. Returns (traces, per-line errors)."""
    records, errors = _decode_lines(text.splitlines(), 1)
    return list(map(_trace_of, records)), errors


def _check_refs(cmset: CaremapSet, refs: Iterable[str]) -> None:
    """Raise AmbiguousLabel on the first activity ref that is no node id but labels several nodes."""
    node_ids: set[str] = set()
    label_owners: dict[str, list[str]] = {}
    for cm in cmset.caremaps:
        for n in cm.nodes:
            node_ids.add(n.id)
            if n.kind in ACTIVITY_KINDS and n.label:
                label_owners.setdefault(n.label, []).append(f"{cm.id}.{n.id}")
    for ref in refs:
        if ref not in node_ids:
            owners = label_owners.get(ref, [])
            if len(owners) > 1:
                raise AmbiguousLabel(ref, sorted(owners))


def check_labels(cmset: CaremapSet, traces: list[PatientTrace]) -> None:
    """Reject activity refs that resolve only by label and match several nodes."""
    _check_refs(
        cmset, (ev.ref for t in traces for ev in t.events if isinstance(ev, ActivityDone))
    )


# --- replay -----------------------------------------------------------------
#
# Replay reads compact events only (see the trace I/O section above) and
# ignores their `at` fields: order alone decides. It is a depth-first search
# over states (node, event index, nested-call stack). Expanding a state makes
# its record_failure calls and yields its options, each an (edge marker or
# None, target node) pair; the options of one expansion share an event index
# and a stack, so a child state is (target, index, stack). The stack is an
# interned _Call or None, so a state hashes and compares in O(1) at any
# nesting depth. The search runs on an explicit stack of frames, so its depth
# is bounded by memory, not by the interpreter's recursion limit. The first
# option that leads to an accepting state wins.


@dataclass
class _Failure:
    index: int = -1
    node: Optional[str] = None
    expected: tuple[str, ...] = ()
    found: Optional[str] = None
    kind: Optional[str] = None  # variance kind hint, or "undetermined"
    unresolved: tuple[tuple[str, tuple[str, ...]], ...] = ()


class _Node:
    """What replay needs of one caremap node, computed once per caremap set.

    Each (caremap, node) has exactly one _Node, so a state can hold the
    _Node itself and compare and hash by its identity.
    """

    __slots__ = (
        "cm", "id", "label", "kind", "step", "resume", "succ", "by_edge", "succ_ids",
        "branches", "child", "links", "reach",
    )

    def __init__(self, cm: Caremap, node: Node):
        self.cm = cm
        self.id = node.id
        self.label = node.label
        self.kind = node.kind
        self.step = _STEPS[node.kind]
        # how an exit of a nested map resumes at this node
        self.resume = _Replayer._follow if node.kind is NodeKind.NESTED_ACTIVITY else _Replayer._select
        self.succ: list = []  # [((cm id, edge id), target)], sorted by target id
        self.by_edge: dict = {}  # edge id -> [((cm id, edge id), target)]
        self.succ_ids: tuple[str, ...] = ()  # edge ids in edge-id order
        self.branches: Optional[list] = None  # [(edge id, criterion)] when every out-edge has one
        self.child: Optional[list] = None  # [(None, entry of the nested map)]
        self.links: list = []  # [(None, entry of a linked map)], in link order
        self.reach: Optional[set] = None  # ids reachable from here, built on first mismatch


class _Unresolved:
    """A link target that does not resolve; expanding it raises the lookup error."""

    def __init__(self, cmset: CaremapSet, cm_id: str, node_id: str):
        self.cmset, self.cm_id, self.node_id = cmset, cm_id, node_id

    def step(self, replayer, node, i, stack):
        self.cmset.caremap(self.cm_id).node(self.node_id)  # raises KeyError or UnknownNode
        raise AssertionError("unreachable")


class _Plan:
    """The _Node of every node in a caremap set, and per-caremap ref lookup."""

    def __init__(self, cmset: CaremapSet):
        self.cmset = cmset
        self.nodes: dict[tuple[str, str], _Node] = {}
        self.first_by_ref: dict[str, dict[str, str]] = {}
        self.starts: dict[str, _Node] = {}  # caremap id -> its entry, filled by start()
        for cm in cmset.caremaps:
            refs: dict[str, str] = {}
            for n in cm.nodes:
                self.nodes[cm.id, n.id] = _Node(cm, n)
                refs.setdefault(n.id, n.id)
                if n.label:
                    refs.setdefault(n.label, n.id)
            self.first_by_ref[cm.id] = refs
        for (cm_id, node_id), info in self.nodes.items():
            cm = info.cm
            succ = successors(cm, node_id)
            out = [((cm_id, e.id), self.nodes[cm_id, t.id]) for e, t in succ]
            info.by_edge = {marker[1]: [(marker, t)] for marker, t in out}
            info.succ = sorted(out, key=lambda p: p[1].id)
            info.succ_ids = tuple(e.id for e, _ in succ)
            branches = [(e.id, e.criterion) for e, _ in succ if e.criterion is not None]
            if branches and len(branches) == len(succ):
                info.branches = branches
            if info.kind in NESTED_KINDS:
                child = self._nested_entry(cm.node(node_id).nested_ref)
                info.child = None if child is None else [(None, child)]
            info.links = [
                (None, self.nodes.get((l.to_caremap, l.to_entry_node))
                 or _Unresolved(cmset, l.to_caremap, l.to_entry_node))
                for l in cmset.links_from(cm_id, node_id)
            ]

    def start(self, entry_caremap: str) -> _Node:
        """The entry node replay starts at; raises when the caremap is missing or
        has no single entry point."""
        node = self.starts.get(entry_caremap)
        if node is None:
            entries = self.cmset.caremap(entry_caremap).entry_nodes()
            if len(entries) != 1:
                raise ValueError(f"caremap {entry_caremap!r} must have exactly one entry point")
            node = self.starts[entry_caremap] = self.nodes[entry_caremap, entries[0].id]
        return node

    def _nested_entry(self, cm_id: str) -> Optional[_Node]:
        """The entry of a nested map, or None when replay must raise on descending."""
        if not self.cmset.has_caremap(cm_id):
            return None
        entries = self.cmset.caremap(cm_id).entry_nodes()
        return self.nodes[cm_id, entries[0].id] if len(entries) == 1 else None


_plan_cache: list = [None]


def _plan(cmset: CaremapSet) -> _Plan:
    # One slot: a batch replays every trace against the same set. The slot
    # holds the set, so its id cannot be reused while cached, and a plan is
    # only ever read, apart from entries and reachable sets derived from the set itself.
    plan = _plan_cache[0]
    if plan is None or plan.cmset is not cmset:
        plan = _plan_cache[0] = _Plan(cmset)
    return plan


class _View:
    """Read-only Binding view of one variable's first k observations in a trace."""

    __slots__ = ("_values", "_k", "value", "unit")

    def __init__(self, values: list, k: int, unit: Optional[str]):
        self._values = values
        self._k = k
        self.value = values[k - 1]
        self.unit = unit

    def series(self) -> tuple:
        return tuple(self._values[: self._k])


class _BindingsAt:
    """Read-only bindings mapping at event index j; views are made on lookup."""

    __slots__ = ("_series", "_j")

    def __init__(self, series: dict, j: int):
        self._series = series  # var -> (event indices, values, effective units)
        self._j = j

    def get(self, var: str, default=None):
        s = self._series.get(var)
        if s is None:
            return default
        at, values, units = s
        k = bisect_left(at, self._j)
        return _View(values, k, units[k - 1]) if k else default

    def __contains__(self, var: str) -> bool:
        return self.get(var) is not None


_ACCEPT = object()


class _Call:
    """A nested call on the replay stack: the node to resume at, the event index
    the call began at, and the calls below it (None at the bottom).

    Calls are interned per replay, so equal stacks are one object.
    """

    __slots__ = ("node", "i", "rest")

    def __init__(self, node: _Node, i: int, rest: Optional["_Call"]):
        self.node, self.i, self.rest = node, i, rest


class _Replayer:
    def __init__(self, plan: _Plan, events: tuple[CompactEvent, ...]):
        self.plan = plan
        self.events = events
        self.n = n = len(events)
        self.best = _Failure()
        # next[i]: index of the first non-observation event at or after i
        nxt = [n] * (n + 1)
        j = n
        for k in range(n - 1, -1, -1):
            if events[k][0] != "obs":
                j = k
            nxt[k] = j
        self.next = nxt
        self._series: Optional[dict] = None  # var -> (event indices, values, units)
        self._calls: dict = {}  # (node, i, rest) -> its _Call

    def bindings_at(self, j: int) -> _BindingsAt:
        """Bindings after the observations with index < j, as views."""
        if self._series is None:
            self._series = {}
            for k, ev in enumerate(self.events):
                if ev[0] == "obs":
                    _, var, value, unit, _ = ev
                    at, values, units = self._series.setdefault(var, ([], [], []))
                    at.append(k)
                    values.append(value)
                    units.append(unit if unit is not None or not units else units[-1])
        return _BindingsAt(self._series, j)

    def record_failure(
        self, i: int, node_id: str, expected: tuple[str, ...], found: Optional[str],
        kind: Optional[str], unresolved=()
    ) -> None:
        # undetermined outranks a plain mismatch at the same depth
        if i > self.best.index or (
            i == self.best.index and kind == "undetermined" and self.best.kind != "undetermined"
        ):
            self.best = _Failure(i, node_id, expected, found, kind, tuple(unresolved))

    def search(self, start: _Node) -> Optional[tuple[tuple[str, ...], tuple[tuple[str, str], ...]]]:
        """Find a walk from start consuming every event.

        Returns the walk's node ids and its (caremap id, edge id) pairs, or
        None when no walk matches. Every state is expanded at most once: a
        state seen before has failed (the memo) or is on the current path (a
        cycle that consumed no event), and either way is a dead end.
        """
        r = start.step(self, start, 0, None)
        if r is _ACCEPT:
            return (start.id,), ()
        seen = {(start, 0, None)}
        # [node, options, event index, stack, options tried] per state on the path
        frames = [] if r is None else [[start, *r, 0]]
        while frames:
            frame = frames[-1]
            _, options, i, stack, k = frame
            if k == len(options):
                frames.pop()
                continue
            frame[4] = k + 1
            target = options[k][1]
            state = (target, i, stack)
            if state in seen:
                continue
            seen.add(state)
            r = target.step(self, target, i, stack)
            if r is _ACCEPT:
                walk = tuple(f[0].id for f in frames) + (target.id,)
                chosen = (f[1][f[4] - 1][0] for f in frames)
                return walk, tuple(e for e in chosen if e is not None)
            if r is not None:
                frames.append([target, *r, 0])
        return None

    # Each step expands a state: it returns _ACCEPT, None for a dead end, or
    # (options, event index, stack) for the child states.

    def _exit(self, node: _Node, i: int, stack: Optional[_Call]):
        if stack is not None:
            frame = stack.node
            return frame.resume(self, frame, i, stack.rest)
        j = self.next[i]
        if j == self.n:
            return _ACCEPT
        if node.links:
            return node.links, i, stack
        self.record_failure(j, node.id, (), self._found_ref(j), "UnexpectedActivity")
        return None

    def _exclusion(self, node: _Node, i: int, stack: Optional[_Call]):
        j = self.next[i]
        if j == self.n:
            return _ACCEPT
        self.record_failure(j, node.id, (), self._found_ref(j), "UnexpectedActivity")
        return None

    def _activity(self, node: _Node, i: int, stack: Optional[_Call]):
        j = self.next[i]
        if j >= self.n:
            self.record_failure(j, node.id, (node.id,), None, "IncompleteTrace")
            return None
        ev = self.events[j]
        if not (ev[0] == "activity" and (
            ev[1] == node.id or (node.label != "" and ev[1] == node.label)
        )):
            found = self._found_ref(j)
            self.record_failure(j, node.id, (node.id,), found, self._classify_mismatch(node, found))
            return None
        if node.kind is NodeKind.NESTED_ACTIVITY:
            return self._descend(node, j + 1, stack)
        return self._follow(node, j + 1, stack)

    def _descend(self, node: _Node, i: int, stack: Optional[_Call]):
        # nested maps run as calls: the stack holds the node to resume at and
        # the event index the call began at
        if node.child is None:  # the nested map is missing or has no single entry
            ref = node.cm.node(node.id).nested_ref
            self.plan.cmset.caremap(ref)  # raises KeyError when missing
            raise ValueError(f"nested caremap {ref!r} must have exactly one entry")
        # A call of node at i ends in one of n - i + 2 ways: it returns at an
        # index in i..n, or the walk accepts inside it. If two calls of node at
        # i on the stack ended the same way, the inner call's walk could stand
        # in for the outer's, so a matching walk needs at most n - i + 2 of
        # them. Cutting there ends a nesting cycle that consumes no event.
        copies, rest = 0, stack
        while rest is not None and rest.i == i:  # the calls begun at i are on top
            copies += rest.node is node
            rest = rest.rest
        if copies > self.n - i + 1:
            return None
        key = (node, i, stack)
        call = self._calls.get(key)
        if call is None:
            call = self._calls[key] = _Call(node, i, stack)
        return node.child, i, call

    def _follow(self, node: _Node, i: int, stack: Optional[_Call]):
        if not node.succ:
            j = self.next[i]
            kind = "IncompleteTrace" if j >= self.n else "UnexpectedActivity"
            self.record_failure(j, node.id, (), self._found_ref(j), kind)
            return None
        return node.succ, i, stack

    def _select(self, node: _Node, i: int, stack: Optional[_Call]):
        j = self.next[i]
        if j < self.n:
            ev = self.events[j]
            if ev[0] == "branch" and ev[1] == node.id:
                taken = node.by_edge.get(ev[2])
                if taken is not None:
                    return taken, j + 1, stack
                self.record_failure(j, node.id, node.succ_ids, ev[2], "WrongBranch")
                return None
        if node.branches is None:
            # free-choice fan-out (or plain chain): search all successors
            return node.succ, i, stack
        selection = C.select_branch(node.branches, self.bindings_at(j))
        if isinstance(selection, C.Chosen):
            return node.by_edge[selection.edge_id], i, stack
        if isinstance(selection, C.Ambiguous):
            return [p for p in node.succ if p[0][1] in selection.edge_ids], i, stack
        if isinstance(selection, C.Undetermined):
            self.record_failure(
                j, node.id, node.succ_ids, None,
                "undetermined", ((node.id, selection.missing_vars),),
            )
            return None
        # NoneMatch: no criterion held
        self.record_failure(j, node.id, node.succ_ids, self._found_ref(j), "WrongBranch")
        return None

    def _found_ref(self, j: int) -> Optional[str]:
        if j >= self.n:
            return None
        ev = self.events[j]
        if ev[0] == "activity":
            return ev[1]
        if ev[0] == "branch":
            return ev[2]
        return None

    def _classify_mismatch(self, node: _Node, found: Optional[str]) -> str:
        if found is None:
            return "IncompleteTrace"
        target = self.plan.first_by_ref[node.cm.id].get(found)
        if target is None:
            return "UnexpectedActivity"
        # skipped if the referenced node lies further along the flow
        if node.reach is None:
            node.reach = {n.id for n in reachable([node], lambda cur: (t for _, t in cur.succ))}
        return "SkippedActivity" if target in node.reach and target != node.id else "UnexpectedActivity"


_STEPS = {
    NodeKind.ENTRY_POINT: _Replayer._follow,
    NodeKind.EXIT_POINT: _Replayer._exit,
    NodeKind.EXCLUSION_POINT: _Replayer._exclusion,
    NodeKind.ACTIVITY: _Replayer._activity,
    NodeKind.NESTED_ACTIVITY: _Replayer._activity,
    NodeKind.DECISION: _Replayer._select,
    NodeKind.NESTED_DECISION: _Replayer._descend,
}


def _replay_record(
    cmset: CaremapSet, entry_caremap: str, record: Record
) -> tuple[ConformanceReport, tuple[tuple[str, str], ...]]:
    trace_id, events = record
    plan = _plan(cmset)
    r = _Replayer(plan, events)
    found = r.search(plan.start(entry_caremap))
    if found is not None:
        walk, edges = found
        return ConformanceReport(trace_id, "Conformant", matched_path=walk), edges
    best = r.best
    if best.kind == "undetermined":
        report = ConformanceReport(
            trace_id, "Undetermined",
            divergence_node=best.node, unresolved=best.unresolved,
        )
    else:
        report = ConformanceReport(
            trace_id, "NonConformant",
            divergence=(max(best.index, 0), best.expected, best.found),
            divergence_node=best.node,
            variance_kind=best.kind or "UnexpectedActivity",
        )
    return report, ()


def _record_of(trace: PatientTrace) -> Record:
    return trace.trace_id, tuple(map(_compact, trace.events))


def replay_with_edges(
    cmset: CaremapSet, entry_caremap: str, trace: PatientTrace
) -> tuple[ConformanceReport, tuple[tuple[str, str], ...]]:
    """Replay and also return the (caremap id, edge id) pairs of the witness walk."""
    return _replay_record(cmset, entry_caremap, _record_of(trace))


def replay(cmset: CaremapSet, entry_caremap: str, trace: PatientTrace) -> ConformanceReport:
    """Match a trace against the set starting at entry_caremap's entry point.

    Only activity nodes consume trace events; decisions resolve from explicit
    branch events, else from criteria over accumulated observations, else the
    trace is undetermined at that decision.
    """
    report, _ = replay_with_edges(cmset, entry_caremap, trace)
    return report


TOP_DIVERGENCE_POINTS = 10  # nodes listed in a summary, most frequent first


@dataclass(frozen=True)
class BatchSummary:
    n: int
    conformant: int
    non_conformant: int
    undetermined: int
    top_divergence_points: tuple[tuple[str, int], ...]
    load_errors: tuple[str, ...] = ()
    # (caremap id, edge id) -> times the witness walks of conformant traces took it
    edge_counts: Counter = field(default_factory=Counter, compare=False)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "conformant": self.conformant,
            "non_conformant": self.non_conformant,
            "undetermined": self.undetermined,
            "top_divergence_points": [
                {"node": node, "count": count} for node, count in self.top_divergence_points
            ],
            "load_errors": list(self.load_errors),
        }


def pool_size(workers: int, items: int) -> int:
    """The processes a fan-out of items uses: min(workers, items, CPU count), at least 1."""
    return max(1, min(workers, items, os.cpu_count() or 1))


# (fn, shared arguments) in a pool worker, set once by the pool's initializer
_pool_job: tuple = ()


def _start_worker(fn: Callable, shared: tuple) -> None:
    global _pool_job
    _pool_job = (fn, shared)


def _run_chunk(chunk):
    fn, shared = _pool_job
    return fn(*shared, chunk)


def fan_out(fn: Callable, chunks: Iterable, k: int, *shared) -> Iterator:
    """Yield fn(*shared, chunk) for each chunk, in chunk order.

    k <= 1 runs the chunks in this process. Otherwise a pool of k processes runs
    them, and its initializer gives each worker shared once, so a task carries
    only its chunk.
    """
    if k <= 1:
        for chunk in chunks:
            yield fn(*shared, chunk)
        return
    # Running chunk 0 here as well, while the pool runs the rest, was tried:
    # on 10,000 two-worker cohort traces it saved no time and raised the peak
    # RSS of conform from 31.8 to 35.8 MB (+13%), so the pool runs every chunk.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(k, initializer=_start_worker, initargs=(fn, shared)) as pool:
        yield from pool.map(_run_chunk, chunks)


# One chunk's tally: (status counts, divergence-node counts, traces, load errors,
# witness-edge counts).
_Tally = tuple[dict[str, int], dict[str, int], int, tuple[str, ...], Counter]

_LOAD, _LABELS, _REPLAY = range(3)


class _Crash(NamedTuple):
    """An exception a chunk met, kept so the merge can raise the one a serial run meets first."""

    phase: int  # _LOAD, _LABELS or _REPLAY
    trace_id: str  # the trace replay raised on; "" in the other phases
    error: Exception
    traceback: str

    @classmethod
    def of(cls, phase: int, trace_id: str, error: Exception) -> "_Crash":
        import traceback

        return cls(phase, trace_id, error, traceback.format_exc())


def _replay_counts(
    cmset: CaremapSet, entry_caremap: str, records: list[Record], load_errors=()
) -> Union[_Tally, _Crash]:
    """Replay records, sorted by trace id, and tally their reports.

    Records whose events are equal, `at` included, replay once, as the first
    of them, and the report counts once per record. Replay reads only the
    events, so each record would get that report; a crash is charged to the
    first record, the one a replay in trace-id order meets first. Equal is
    Python's ==, under which the values 1, 1.0 and true match; the built-in
    criteria read a value only through == and float(), which treat them alike.
    """
    groups: dict[tuple, list] = {}  # events -> [first trace id, records], in trace-id order
    for trace_id, events in records:
        groups.setdefault(events, [trace_id, 0])[1] += 1  # hashes events once
    counts = {"Conformant": 0, "NonConformant": 0, "Undetermined": 0}
    divergence_counts: dict[str, int] = {}
    edge_counts: Counter = Counter()
    for events, (trace_id, times) in groups.items():
        try:
            report, edges = _replay_record(cmset, entry_caremap, (trace_id, events))
        except Exception as e:
            return _Crash.of(_REPLAY, trace_id, e)
        counts[report.status] += times
        if times == 1:  # most traces of a varied input; update counts in C
            edge_counts.update(edges)
        else:
            for edge, k in Counter(edges).items():
                edge_counts[edge] += k * times
        if report.status != "Conformant" and report.divergence_node is not None:
            divergence_counts[report.divergence_node] = (
                divergence_counts.get(report.divergence_node, 0) + times
            )
    return counts, divergence_counts, len(records), tuple(load_errors), edge_counts


def _summarize(
    results: list[Union[_Tally, _Crash]], load_errors: tuple[str, ...] = ()
) -> BatchSummary:
    """Merge chunk tallies, in chunk order, into one summary.

    If a chunk crashed, raise the error a serial run meets first, so the
    outcome does not depend on the chunking: load before label check before
    replay, lines in file order, replays in trace-id order.
    """
    crashes = [(r.phase, r.trace_id, i) for i, r in enumerate(results) if isinstance(r, _Crash)]
    if crashes:
        crash = results[min(crashes)[2]]
        if crash.error.__traceback__ is None:  # pickled back from a pool worker
            crash.error.add_note(crash.traceback)
        raise crash.error
    counts = {"Conformant": 0, "NonConformant": 0, "Undetermined": 0}
    divergence_counts: dict[str, int] = {}
    edge_counts: Counter = Counter()
    n = 0
    errors = list(load_errors)
    for c, d, chunk_n, chunk_errors, chunk_edges in results:
        for k, v in c.items():
            counts[k] += v
        for k, v in d.items():
            divergence_counts[k] = divergence_counts.get(k, 0) + v
        n += chunk_n
        errors.extend(chunk_errors)
        edge_counts.update(chunk_edges)
    top = sorted(divergence_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_DIVERGENCE_POINTS]
    return BatchSummary(
        n=n,
        conformant=counts["Conformant"],
        non_conformant=counts["NonConformant"],
        undetermined=counts["Undetermined"],
        top_divergence_points=tuple(top),
        load_errors=tuple(errors),
        edge_counts=edge_counts,
    )


def batch_conform(
    cmset: CaremapSet,
    entry_caremap: str,
    traces: list[PatientTrace],
    load_errors: tuple[str, ...] = (),
    workers: int = 1,
) -> BatchSummary:
    ordered = sorted(map(_record_of, traces), key=itemgetter(0))
    k = pool_size(workers, len(ordered))
    bounds = [len(ordered) * i // k for i in range(k + 1)]  # k contiguous chunks
    chunks = [ordered[a:b] for a, b in zip(bounds, bounds[1:])]
    return _summarize(list(fan_out(_replay_counts, chunks, k, cmset, entry_caremap)), load_errors)


def _conform_lines(
    cmset: CaremapSet, entry_caremap: str, chunk: tuple[int, list[str]]
) -> Union[_Tally, _Crash]:
    """Decode, label-check and replay a chunk: (1-based number of its first line, lines)."""
    phase = _LOAD
    try:
        records, errors = _decode_lines(chunk[1], chunk[0])
        phase = _LABELS
        _check_refs(
            cmset, (ev[1] for _, events in records for ev in events if ev[0] == "activity")
        )
    except Exception as e:
        return _Crash.of(phase, "", e)
    records.sort(key=itemgetter(0))
    return _replay_counts(cmset, entry_caremap, records, errors)


def conform_text(
    cmset: CaremapSet, entry_caremap: str, text: str, workers: int = 1
) -> BatchSummary:
    """Load, label-check and replay the JSONL traces in text.

    The lines are split into min(workers, lines, CPU count) contiguous chunks
    and each chunk is decoded to compact events and replayed where it runs
    (see fan_out), so only lines go to pool workers and only tallies come
    back; no event dataclass is built.
    """
    lines = text.splitlines()
    del text  # so the text can be freed before the records are decoded (the CLI keeps no copy)
    k = pool_size(workers, len(lines))
    bounds = [len(lines) * i // k for i in range(k + 1)]  # k contiguous chunks
    chunks = [(a + 1, lines[a:b]) for a, b in zip(bounds, bounds[1:])]
    del lines  # the chunks hold the lines
    return _summarize(list(fan_out(_conform_lines, chunks, k, cmset, entry_caremap)))
