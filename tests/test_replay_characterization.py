"""Characterization of replay: one sha256 over every replay_with_edges result.

The inputs are seeded synth traces of the labour_birth corpus map (with the
model ingested from its counts), walks of the gdm and all_elements corpus
maps from model.enumerate_paths dressed with branch events or observations,
every short trace over a small alphabet on a map built in code whose edge
ids are out of target order (so the target-id tie-break shows), and one
seeded drop/swap/duplicate/truncate mutation of each. The pinned
digest covers each report's as_dict(), its witness edges, and the type and
message of any exception replay raises, so a change to divergence index,
node, variance kind, tie-breaks or the witness walk changes it.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random

from tasc import ingest
from tasc.criteria import OTHERWISE, Comparison
from tasc.conformance import (
    ActivityDone,
    BranchTaken,
    Observation,
    PatientTrace,
    replay_with_edges,
)
from tasc.model import (
    ACTIVITY_KINDS,
    DECISION_KINDS,
    NESTED_KINDS,
    Caremap,
    CaremapSet,
    Edge,
    Node,
    NodeKind,
    enumerate_paths,
    successors,
)
from tasc.synthesis import compile_stm, generate_one

from conftest import CORPUS, load_corpus

PINNED = "c79065e6b149ef46e78b81e542e66a8ab479217f375125c67c46178635d0ed75"

SYNTH_TRACES = 1000
WALK_VARIANTS = 20

# Values drawn for each criterion variable of the corpus maps; both sides of
# every threshold appear.
_VALUES = {
    "pregnancy_test": ["positive", "negative"],
    "risk_factors": [0, 1, 2],
    "fasting_glucose": [4.8, 5.5, 6.2],
    "two_hour_glucose": [7.0, 9.0, 10.5],
    "glucose": [6.1, 7.0, 7.4, 8.2],
    "delivery_status": ["delivered", "in_progress"],
    "age": [12, 16, 40],
}
_UNITS = {
    "fasting_glucose": "mmol/L",
    "two_hour_glucose": "mmol/L",
    "glucose": "mmol/L",
    "age": "yr",
}


def _observe(rng: random.Random, events: list) -> None:
    for _ in range(rng.randrange(3)):
        var = rng.choice(sorted(_VALUES))
        unit = _UNITS.get(var)
        if unit is not None and rng.random() < 0.1:
            unit = "mg/dL"  # replay raises UnitMismatch if a criterion reads it
        elif rng.random() < 0.3:
            unit = None  # the variable keeps its last unit
        events.append(Observation(var, rng.choice(_VALUES[var]), unit))


def _walk_events(cmset, cm, walk: list[str], rng: random.Random, style: str) -> list:
    events: list = []
    for here, nxt in zip(walk, walk[1:] + [None]):
        node = cm.node(here)
        if style == "obs":
            _observe(rng, events)
        if node.kind in ACTIVITY_KINDS:
            ref = node.label if node.label and rng.random() < 0.2 else node.id
            events.append(ActivityDone(ref))
        if node.kind in NESTED_KINDS:
            child = cmset.caremap(node.nested_ref)
            events.extend(_walk_events(cmset, child, enumerate_paths(child)[0], rng, style))
        if node.kind in DECISION_KINDS and nxt is not None and style == "branch":
            edges = [e.id for e, n in successors(cm, here) if n.id == nxt]
            if rng.random() < 0.1:  # sometimes another or an unknown edge
                edges = [e.id for e, _ in successors(cm, here)] + [f"{here}->nowhere"]
            events.append(BranchTaken(here, rng.choice(edges)))
    return events


def _mutate(events: tuple, rng: random.Random) -> tuple:
    ev = list(events)
    if not ev:
        return events
    op = rng.choice(["drop", "swap", "duplicate", "truncate"])
    k = rng.randrange(len(ev))
    if op == "drop":
        del ev[k]
    elif op == "swap" and len(ev) > 1:
        k = min(k, len(ev) - 2)
        ev[k], ev[k + 1] = ev[k + 1], ev[k]
    elif op == "duplicate":
        ev.insert(k, ev[k])
    else:
        ev = ev[:k]
    return tuple(ev)


def _linked_walk(cmset, cm_id: str, rng: random.Random, style: str) -> list:
    """Events of a random walk of cm_id, continued across a link where one leaves its exit."""
    cm = cmset.caremap(cm_id)
    walk = rng.choice(enumerate_paths(cm, cycle_bound=2))
    events = _walk_events(cmset, cm, walk, rng, style)
    links = cmset.links_from(cm_id, walk[-1])
    if links and rng.random() < 0.8:
        events += _linked_walk(cmset, links[0].to_caremap, rng, style)
    return events


def _tie_break_set() -> CaremapSet:
    """Fan-outs whose edge-id order is the reverse of their target-id order.

    r is a free choice between an activity and a decision on y, which is
    undetermined while y is unbound, so a mismatch and an Undetermined
    compete at one event index; d selects by criteria and is Ambiguous when
    x > 1. u shares p's label, so a mismatch that finds "P" is classified by
    the first node with that id or label.
    """
    nodes = [
        Node("s", NodeKind.ENTRY_POINT), Node("e", NodeKind.EXIT_POINT),
        Node("r", NodeKind.DECISION, "R"), Node("d", NodeKind.DECISION, "D"),
        Node("u", NodeKind.DECISION, "P"), Node("p", NodeKind.ACTIVITY, "P"),
        Node("q", NodeKind.ACTIVITY, "Q"), Node("a", NodeKind.ACTIVITY, "A"),
    ]
    edges = [
        Edge("1", "s", "r"), Edge("r2", "r", "u"), Edge("r1", "r", "a"),
        Edge("k1", "u", "q", Comparison("y", ">", 0)), Edge("k0", "u", "e", OTHERWISE),
        Edge("a1", "a", "d"), Edge("d1", "d", "q", Comparison("x", ">", 0)),
        Edge("d2", "d", "p", Comparison("x", ">", 1)),
        Edge("d3", "d", "e", OTHERWISE), Edge("p1", "p", "e"), Edge("q1", "q", "e"),
    ]
    return CaremapSet((Caremap("t", nodes=tuple(nodes), edges=tuple(edges)),))


_ALPHABET = (
    ActivityDone("a"), ActivityDone("P"), ActivityDone("q"), ActivityDone("zzz"),
    Observation("x", 5), Observation("x", 0), Observation("y", 1),
    BranchTaken("d", "d1"), BranchTaken("d", "bogus"), BranchTaken("r", "bogus"),
)


def _cases():
    labour = load_corpus("labour_birth.tasc")
    counts = (CORPUS / "labour_birth_counts.csv").read_text(encoding="utf-8")
    model = ingest.derive_model(ingest.read_rows(counts), labour)
    stm = compile_stm(labour, "labour_birth", model)
    for i in range(SYNTH_TRACES):
        yield labour, "labour_birth", generate_one(stm, 13, i)

    for name in ("gdm.tasc", "all_elements.tasc"):
        cmset = load_corpus(name)
        for cm in cmset.caremaps:
            for v in range(WALK_VARIANTS * len(enumerate_paths(cm, cycle_bound=2))):
                rng = random.Random(f"{name}:{cm.id}:{v}")
                style = ("branch", "obs", "none")[v % 3]
                events = tuple(_linked_walk(cmset, cm.id, rng, style))
                yield cmset, cm.id, PatientTrace(f"{cm.id}-{v}", events)

    tie = _tie_break_set()
    for length in range(4):
        for k, events in enumerate(itertools.product(_ALPHABET, repeat=length)):
            yield tie, "t", PatientTrace(f"tie{length}-{k}", events)


def replay_results():
    """One JSON line per replay: the report and witness edges, or the exception raised."""
    for cmset, entry, trace in _cases():
        mutated = _mutate(trace.events, random.Random(f"mut:{trace.trace_id}"))
        for t in (trace, PatientTrace(trace.trace_id + "~", mutated)):
            try:
                report, edges = replay_with_edges(cmset, entry, t)
                out = [report.as_dict(), [list(e) for e in edges]]
            except Exception as e:  # the raise point is part of the behaviour
                out = [type(e).__name__, str(e)]
            yield json.dumps(out, sort_keys=True)


def test_replay_characterization():
    digest = hashlib.sha256()
    outcomes: set[str] = set()
    for line in replay_results():
        digest.update(line.encode() + b"\n")
        doc = json.loads(line)
        outcomes.add(doc[0] if isinstance(doc[0], str) else doc[0].get("variance_kind", doc[0]["status"]))
    # every outcome the digest should pin is present in the inputs
    assert outcomes == {
        "Conformant", "Undetermined", "IncompleteTrace", "SkippedActivity",
        "UnexpectedActivity", "WrongBranch", "UnitMismatch",
    }
    assert digest.hexdigest() == PINNED
