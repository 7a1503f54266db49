"""Replay of patient event traces against a caremap set, with variance reporting."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

from tasc import criteria as C
from tasc.model import (
    ACTIVITY_KINDS,
    Caremap,
    CaremapSet,
    NodeKind,
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


def event_from_dict(d: dict) -> TraceEvent:
    kind = d.get("type")
    if kind == "activity":
        return ActivityDone(str(d["ref"]), d.get("at"))
    if kind == "obs":
        return Observation(str(d["var"]), d["value"], d.get("unit"), d.get("at"))
    if kind == "branch":
        return BranchTaken(str(d["decision"]), str(d["edge"]))
    raise TraceFormatError(f"unknown event type {kind!r}")


def trace_from_json(line: str) -> PatientTrace:
    try:
        d = json.loads(line)
    except json.JSONDecodeError as e:
        raise TraceFormatError(f"bad JSON: {e}") from e
    if not isinstance(d, dict) or "trace_id" not in d:
        raise TraceFormatError("trace record needs a trace_id")
    events = tuple(event_from_dict(ev) for ev in d.get("events", []))
    return PatientTrace(str(d["trace_id"]), events)


def load_traces(text: str) -> tuple[list[PatientTrace], list[str]]:
    """Parse JSONL; `#` lines are comments. Returns (traces, per-line errors)."""
    return _load_lines(text.splitlines(), 1)


def _load_lines(lines: Sequence[str], first_line: int) -> tuple[list[PatientTrace], list[str]]:
    traces: list[PatientTrace] = []
    errors: list[str] = []
    for lineno, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            traces.append(trace_from_json(line))
        except TraceFormatError as e:
            errors.append(f"line {lineno}: {e}")
    return traces, errors


def check_labels(cmset: CaremapSet, traces: list[PatientTrace]) -> None:
    """Reject activity refs that resolve only by label and match several nodes."""
    node_ids: set[str] = set()
    label_owners: dict[str, list[str]] = {}
    for cm in cmset.caremaps:
        for n in cm.nodes:
            node_ids.add(n.id)
            if n.kind in ACTIVITY_KINDS and n.label:
                label_owners.setdefault(n.label, []).append(f"{cm.id}.{n.id}")
    for trace in traces:
        for ev in trace.events:
            if isinstance(ev, ActivityDone) and ev.ref not in node_ids:
                owners = label_owners.get(ev.ref, [])
                if len(owners) > 1:
                    raise AmbiguousLabel(ev.ref, sorted(owners))


# --- replay -----------------------------------------------------------------


@dataclass
class _Failure:
    index: int = -1
    node: Optional[str] = None
    expected: tuple[str, ...] = ()
    found: Optional[str] = None
    kind: Optional[str] = None  # variance kind hint, or "undetermined"
    unresolved: tuple[tuple[str, tuple[str, ...]], ...] = ()


class _Replayer:
    def __init__(self, cmset: CaremapSet, trace: PatientTrace):
        self.cmset = cmset
        self.trace = trace
        self.events = trace.events
        self.failed: set = set()
        self.best = _Failure()
        # bindings after consuming all observations with index < i
        self.bindings_at: list[C.Bindings] = [{}]
        b: C.Bindings = {}
        for ev in self.events:
            if isinstance(ev, Observation):
                b = C.bind(b, ev.var, ev.value, ev.unit)
            self.bindings_at.append(b)

    def skip_obs(self, i: int) -> int:
        while i < len(self.events) and isinstance(self.events[i], Observation):
            i += 1
        return i

    def matches(self, node, ref: str) -> bool:
        return ref == node.id or (node.label != "" and ref == node.label)

    def record_failure(
        self, i: int, node_id: str, expected: tuple[str, ...], found: Optional[str],
        kind: Optional[str], unresolved=()
    ) -> None:
        # undetermined outranks a plain mismatch at the same depth
        if i > self.best.index or (
            i == self.best.index and kind == "undetermined" and self.best.kind != "undetermined"
        ):
            self.best = _Failure(i, node_id, expected, found, kind, tuple(unresolved))

    def search(self, cm: Caremap, node_id: str, i: int, stack: tuple) -> Optional[list[tuple]]:
        """Find a walk from node_id consuming events[i:].

        Returns a marker list of ("node", cm_id, node_id) and
        ("edge", cm_id, edge_id) entries, or None when no walk matches.
        """
        key = (cm.id, node_id, i, stack)
        if key in self.failed:
            return None
        result = self._step(cm, node_id, i, stack)
        if result is None:
            self.failed.add(key)
        return result

    def _descend_target(self, ref: str) -> tuple[Caremap, str]:
        child = self.cmset.caremap(ref)
        entries = child.entry_nodes()
        if len(entries) != 1:
            raise ValueError(f"nested caremap {ref!r} must have exactly one entry")
        return child, entries[0].id

    def _resume(self, i: int, stack: tuple) -> Optional[list[tuple]]:
        frame = stack[0]
        rest = stack[1:]
        mode, cm_id, node_id = frame
        cm = self.cmset.caremap(cm_id)
        if mode == "act":
            return self._follow_successors(cm, node_id, i, rest)
        return self._select_and_follow(cm, node_id, i, rest)

    def _step(self, cm: Caremap, node_id: str, i: int, stack: tuple) -> Optional[list[tuple]]:
        node = cm.node(node_id)
        kind = node.kind
        here = ("node", cm.id, node_id)

        if kind is NodeKind.ENTRY_POINT:
            rest = self._follow_successors(cm, node_id, i, stack)
            return [here] + rest if rest is not None else None

        if kind is NodeKind.EXIT_POINT:
            if stack:
                rest = self._resume(i, stack)
                return [here] + rest if rest is not None else None
            if self.skip_obs(i) == len(self.events):
                return [here]
            links = self.cmset.links_from(cm.id, node_id)
            for link in links:
                target = self.cmset.caremap(link.to_caremap)
                rest = self.search(target, link.to_entry_node, i, stack)
                if rest is not None:
                    return [here] + rest
            if not links:
                j = self.skip_obs(i)
                found = self._found_ref(j)
                self.record_failure(j, node_id, (), found, "UnexpectedActivity")
            return None

        if kind is NodeKind.EXCLUSION_POINT:
            if self.skip_obs(i) == len(self.events):
                return [here]
            j = self.skip_obs(i)
            self.record_failure(j, node_id, (), self._found_ref(j), "UnexpectedActivity")
            return None

        if kind in (NodeKind.ACTIVITY, NodeKind.NESTED_ACTIVITY):
            j = self.skip_obs(i)
            if j >= len(self.events):
                self.record_failure(j, node_id, (node_id,), None, "IncompleteTrace")
                return None
            ev = self.events[j]
            if not (isinstance(ev, ActivityDone) and self.matches(node, ev.ref)):
                found = self._found_ref(j)
                vkind = self._classify_mismatch(cm, node_id, found)
                self.record_failure(j, node_id, (node_id,), found, vkind)
                return None
            i = j + 1
            if kind is NodeKind.NESTED_ACTIVITY:
                child, child_entry = self._descend_target(node.nested_ref)
                rest = self.search(child, child_entry, i, (("act", cm.id, node_id),) + stack)
                return [here] + rest if rest is not None else None
            rest = self._follow_successors(cm, node_id, i, stack)
            return [here] + rest if rest is not None else None

        # decisions are silent; nested decisions run their sub-map first
        if kind is NodeKind.NESTED_DECISION:
            child, child_entry = self._descend_target(node.nested_ref)
            rest = self.search(child, child_entry, i, (("dec", cm.id, node_id),) + stack)
            return [here] + rest if rest is not None else None

        rest = self._select_and_follow(cm, node_id, i, stack)
        return [here] + rest if rest is not None else None

    def _follow_successors(self, cm: Caremap, node_id: str, i: int, stack: tuple) -> Optional[list[tuple]]:
        succ = successors(cm, node_id)
        if not succ:
            j = self.skip_obs(i)
            kind = "IncompleteTrace" if j >= len(self.events) else "UnexpectedActivity"
            self.record_failure(j, node_id, (), self._found_ref(j), kind)
            return None
        for e, nxt in sorted(succ, key=lambda p: p[1].id):
            result = self.search(cm, nxt.id, i, stack)
            if result is not None:
                return [("edge", cm.id, e.id)] + result
        return None

    def _select_and_follow(self, cm: Caremap, node_id: str, i: int, stack: tuple) -> Optional[list[tuple]]:
        succ = successors(cm, node_id)
        j = self.skip_obs(i)
        if j < len(self.events):
            ev = self.events[j]
            if isinstance(ev, BranchTaken) and ev.decision == node_id:
                for e, nxt in succ:
                    if e.id == ev.edge:
                        result = self.search(cm, nxt.id, j + 1, stack)
                        if result is not None:
                            return [("edge", cm.id, e.id)] + result
                        return None
                self.record_failure(j, node_id, tuple(e.id for e, _ in succ), ev.edge, "WrongBranch")
                return None
        branches = [(e.id, e.criterion) for e, _ in succ if e.criterion is not None]
        if branches and len(branches) == len(succ):
            selection = C.select_branch(branches, self.bindings_at[j])
            if isinstance(selection, C.Chosen):
                edge, target = next((e, n) for e, n in succ if e.id == selection.edge_id)
                result = self.search(cm, target.id, i, stack)
                if result is not None:
                    return [("edge", cm.id, edge.id)] + result
                return None
            if isinstance(selection, C.Ambiguous):
                chosen = [(e, n) for e, n in succ if e.id in selection.edge_ids]
                for e, nxt in sorted(chosen, key=lambda p: p[1].id):
                    result = self.search(cm, nxt.id, i, stack)
                    if result is not None:
                        return [("edge", cm.id, e.id)] + result
                return None
            if isinstance(selection, C.Undetermined):
                self.record_failure(
                    j, node_id, tuple(e for e, _ in branches), None,
                    "undetermined", ((node_id, selection.missing_vars),),
                )
                return None
            # NoneMatch: no criterion held
            self.record_failure(
                j, node_id, tuple(e for e, _ in branches), self._found_ref(j), "WrongBranch"
            )
            return None
        # free-choice fan-out (or plain chain): search all successors
        for e, nxt in sorted(succ, key=lambda p: p[1].id):
            result = self.search(cm, nxt.id, i, stack)
            if result is not None:
                return [("edge", cm.id, e.id)] + result
        return None

    def _found_ref(self, j: int) -> Optional[str]:
        if j >= len(self.events):
            return None
        ev = self.events[j]
        if isinstance(ev, ActivityDone):
            return ev.ref
        if isinstance(ev, BranchTaken):
            return ev.edge
        return None

    def _classify_mismatch(self, cm: Caremap, node_id: str, found: Optional[str]) -> str:
        if found is None:
            return "IncompleteTrace"
        target = None
        for n in cm.nodes:
            if found == n.id or (n.label and found == n.label):
                target = n.id
                break
        if target is None:
            return "UnexpectedActivity"
        # skipped if the referenced node lies further along the flow
        seen: set[str] = set()
        stack = [node_id]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for _, nxt in successors(cm, cur):
                stack.append(nxt.id)
        return "SkippedActivity" if target in seen and target != node_id else "UnexpectedActivity"


def replay_with_edges(
    cmset: CaremapSet, entry_caremap: str, trace: PatientTrace
) -> tuple[ConformanceReport, tuple[tuple[str, str], ...]]:
    """Replay and also return the (caremap id, edge id) pairs of the witness walk."""
    cm = cmset.caremap(entry_caremap)
    entries = cm.entry_nodes()
    if len(entries) != 1:
        raise ValueError(f"caremap {entry_caremap!r} must have exactly one entry point")
    r = _Replayer(cmset, trace)
    markers = r.search(cm, entries[0].id, 0, ())
    if markers is not None:
        walk = tuple(m[2] for m in markers if m[0] == "node")
        edges = tuple((m[1], m[2]) for m in markers if m[0] == "edge")
        return ConformanceReport(trace.trace_id, "Conformant", matched_path=walk), edges
    best = r.best
    if best.kind == "undetermined":
        report = ConformanceReport(
            trace.trace_id, "Undetermined",
            divergence_node=best.node, unresolved=best.unresolved,
        )
    else:
        report = ConformanceReport(
            trace.trace_id, "NonConformant",
            divergence=(max(best.index, 0), best.expected, best.found),
            divergence_node=best.node,
            variance_kind=best.kind or "UnexpectedActivity",
        )
    return report, ()


def replay(cmset: CaremapSet, entry_caremap: str, trace: PatientTrace) -> ConformanceReport:
    """Match a trace against the set starting at entry_caremap's entry point.

    Only activity nodes consume trace events; decisions resolve from explicit
    branch events, else from criteria over accumulated observations, else the
    trace is undetermined at that decision.
    """
    report, _ = replay_with_edges(cmset, entry_caremap, trace)
    return report


@dataclass(frozen=True)
class BatchSummary:
    n: int
    conformant: int
    non_conformant: int
    undetermined: int
    top_divergence_points: tuple[tuple[str, int], ...]
    load_errors: tuple[str, ...] = ()

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


def map_chunks(fn: Callable, items: Sequence, workers: int, *args) -> list:
    """Return [fn(*args, chunk) for each contiguous chunk of items], in chunk order.

    items is split into min(workers, len(items), CPU count) chunks. One chunk
    runs in this process; more run on a process pool with one worker each.
    """
    k = min(workers, len(items), os.cpu_count() or 1)
    if k <= 1:
        return [fn(*args, items)]
    from concurrent.futures import ProcessPoolExecutor

    bounds = [len(items) * i // k for i in range(k + 1)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=k) as pool:
        return list(pool.map(partial(fn, *args), chunks))


# One chunk's tally: (status counts, divergence-node counts, traces, load errors).
_Tally = tuple[dict[str, int], dict[str, int], int, tuple[str, ...]]

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
    cmset: CaremapSet, entry_caremap: str, traces: list[PatientTrace], load_errors=()
) -> Union[_Tally, _Crash]:
    counts = {"Conformant": 0, "NonConformant": 0, "Undetermined": 0}
    divergence_counts: dict[str, int] = {}
    for trace in traces:
        try:
            report = replay(cmset, entry_caremap, trace)
        except Exception as e:
            return _Crash.of(_REPLAY, trace.trace_id, e)
        counts[report.status] += 1
        if report.status != "Conformant" and report.divergence_node is not None:
            divergence_counts[report.divergence_node] = (
                divergence_counts.get(report.divergence_node, 0) + 1
            )
    return counts, divergence_counts, len(traces), tuple(load_errors)


def _summarize(
    results: list[Union[_Tally, _Crash]], top_k: int, load_errors: tuple[str, ...] = ()
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
    n = 0
    errors = list(load_errors)
    for c, d, chunk_n, chunk_errors in results:
        for k, v in c.items():
            counts[k] += v
        for k, v in d.items():
            divergence_counts[k] = divergence_counts.get(k, 0) + v
        n += chunk_n
        errors.extend(chunk_errors)
    top = sorted(divergence_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return BatchSummary(
        n=n,
        conformant=counts["Conformant"],
        non_conformant=counts["NonConformant"],
        undetermined=counts["Undetermined"],
        top_divergence_points=tuple(top),
        load_errors=tuple(errors),
    )


def batch_conform(
    cmset: CaremapSet,
    entry_caremap: str,
    traces: list[PatientTrace],
    load_errors: tuple[str, ...] = (),
    top_k: int = 10,
    workers: int = 1,
) -> BatchSummary:
    ordered = sorted(traces, key=lambda t: t.trace_id)
    tallies = map_chunks(_replay_counts, ordered, workers, cmset, entry_caremap)
    return _summarize(tallies, top_k, load_errors)


@dataclass(frozen=True)
class _Lines:
    """Input lines and the 1-based number of the first; a slice keeps the numbering."""

    lines: list[str]
    first: int = 1

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, s: slice) -> "_Lines":
        return _Lines(self.lines[s], self.first + s.start)


def _conform_lines(
    cmset: CaremapSet, entry_caremap: str, chunk: _Lines
) -> Union[_Tally, _Crash]:
    phase = _LOAD
    try:
        traces, errors = _load_lines(chunk.lines, chunk.first)
        phase = _LABELS
        check_labels(cmset, traces)
    except Exception as e:
        return _Crash.of(phase, "", e)
    traces.sort(key=lambda t: t.trace_id)
    return _replay_counts(cmset, entry_caremap, traces, errors)


def conform_text(
    cmset: CaremapSet, entry_caremap: str, text: str, workers: int = 1
) -> BatchSummary:
    """Load, label-check and replay the JSONL traces in text.

    The lines are split into min(workers, lines, CPU count) contiguous chunks
    and each chunk is parsed and replayed where it runs (see map_chunks), so
    only lines go to pool workers and only tallies come back.
    """
    lines = _Lines(text.splitlines())
    del text  # so the text can be freed before the traces are built (cmd_conform keeps no copy)
    return _summarize(map_chunks(_conform_lines, lines, workers, cmset, entry_caremap), 10)
