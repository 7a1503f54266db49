from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tasc import dsl
from tasc.model import (
    ActivityClass,
    CONTENT_TYPE_OF_CLASS,
    ContentType,
    ModelError,
    Node,
    NodeKind,
    PathExplosion,
    UnknownNode,
    enumerate_paths,
    resolve_refs,
    successors,
)

MINIMAL = 'caremap "m" { entry s; exit e; s -> e; }'


def _set(text):
    return dsl.parse_or_raise(text)


def test_resolve_refs_clean():
    assert resolve_refs(_set(MINIMAL)) == []


def test_resolve_refs_dangling_nested():
    cmset = _set(
        'caremap "m" { entry s; exit e; nested activity n "Sub" ref ghost; '
        "s -> n; n -> e; }"
    )
    errors = resolve_refs(cmset)
    assert [e.code for e in errors] == ["DanglingNestedRef"]
    assert errors[0].subject == "n"


def test_resolve_refs_nesting_cycle():
    cmset = _set(
        'caremap "a" { entry s; exit e; nested activity n "B" ref b; s -> n; n -> e; }\n'
        'caremap "b" { entry s; exit e; nested activity n "A" ref a; s -> n; n -> e; }'
    )
    codes = sorted(e.code for e in resolve_refs(cmset))
    assert "NestingCycle" in codes


def test_resolve_refs_cycle_closing_a_long_chain():
    # deeper than the interpreter's default recursion limit
    n = 1200
    cmset = _set("\n".join(
        f'caremap "c{i:04d}" {{ entry s; exit e; nested activity n "N" ref c{(i + 1) % n:04d}; '
        "s -> n; n -> e; }"
        for i in range(n)
    ))
    [err] = resolve_refs(cmset)
    assert (err.code, err.caremap, err.subject) == ("NestingCycle", "c1199", "c0000")
    assert err.message == "nesting cycle: " + " -> ".join(f"c{i % n:04d}" for i in range(n + 1))


def test_successors_terminal_empty():
    cm = _set(MINIMAL).caremap("m")
    assert successors(cm, "e") == []


def test_successors_unknown_node():
    cm = _set(MINIMAL).caremap("m")
    with pytest.raises(UnknownNode):
        successors(cm, "nope")


def test_successors_returns_stored_list():
    cm = _set(MINIMAL).caremap("m")
    assert successors(cm, "s") is successors(cm, "s")
    [(edge, target)] = successors(cm, "s")
    assert (edge.id, target.id) == ("s->e", "e")


def test_links_from_unknown_exit_is_empty(gdm_set):
    assert gdm_set.links
    link = gdm_set.links[0]
    assert link in gdm_set.links_from(link.from_caremap, link.from_exit_node)
    assert gdm_set.links_from(link.from_caremap, "nope") == []


def test_successors_decision_branches_ordered():
    cmset = _set(
        'caremap "m" { entry s; exit e1; exit e2; exit e3; decision d "Pick?"; '
        "s -> d; d -> e1 when x < 1; d -> e2 when x in 1..2; d -> e3 otherwise; }"
    )
    cm = cmset.caremap("m")
    succ = successors(cm, "d")
    assert len(succ) == 3
    assert all(e.criterion is not None for e, _ in succ)
    assert [e.id for e, _ in succ] == sorted(e.id for e, _ in succ)
    # pure function of content: repeated calls identical
    assert succ == successors(cm, "d")


def test_enumerate_paths_linear():
    cmset = _set('caremap "m" { entry s; exit e; activity a1 "A"; s -> a1; a1 -> e; }')
    assert enumerate_paths(cmset.caremap("m")) == [["s", "a1", "e"]]


def test_enumerate_paths_two_branches():
    cmset = _set(
        'caremap "m" { entry s; exit e1; exit e2; decision d "Pick?"; '
        "s -> d; d -> e1 when x > 0; d -> e2 otherwise; }"
    )
    paths = enumerate_paths(cmset.caremap("m"))
    assert len(paths) == 2
    assert sorted(p[-1] for p in paths) == ["e1", "e2"]


LOOPY = (
    'caremap "m" { entry s; exit e; exclusion x "Out"; '
    'activity a "A"; activity b "B"; decision d "Loop?"; '
    "s -> a; a -> d; d -> b when v > 1; d -> e otherwise; d -> x when v < 0; b -> a; }"
)


def oracle_paths(cm, cycle_bound):
    """Independent brute-force DFS with a per-node visit budget."""
    from tasc.model import TERMINAL_KINDS

    entry = cm.entry_nodes()[0]
    out = []

    def walk(node_id, path, counts):
        counts = dict(counts)
        counts[node_id] = counts.get(node_id, 0) + 1
        if counts[node_id] > cycle_bound + 1:
            return
        path = path + [node_id]
        if cm.node(node_id).kind in TERMINAL_KINDS:
            out.append(path)
            return
        for e in sorted(cm.edges, key=lambda e: e.id):
            if e.from_id == node_id:
                walk(e.to_id, path, counts)

    walk(entry.id, [], {})
    return out


@pytest.mark.parametrize("cycle_bound", [0, 1, 2])
def test_enumerate_paths_matches_dfs_oracle(cycle_bound):
    cm = _set(LOOPY).caremap("m")
    got = enumerate_paths(cm, cycle_bound=cycle_bound)
    expect = oracle_paths(cm, cycle_bound)
    assert sorted(map(tuple, got)) == sorted(map(tuple, expect))


def test_enumerate_paths_terminal_endpoints():
    cm = _set(LOOPY).caremap("m")
    for path in enumerate_paths(cm, cycle_bound=2):
        assert path[0] == "s"
        assert path[-1] in ("e", "x")


def test_enumerate_paths_cap():
    # wide fan: 4 sequential free-choice binary splits -> 16 paths
    decls = ['caremap "m" {', "entry s;", "exit e;"]
    edges = []
    prev = ["s"]
    for level in range(4):
        nxt = []
        for i, p in enumerate(prev):
            for j in range(2):
                nid = f"n{level}_{i}_{j}"
                decls.append(f'activity {nid} "N";')
                edges.append(f"{p} -> {nid};")
                nxt.append(nid)
        prev = nxt
    edges.extend(f"{p} -> e;" for p in prev)
    text = "\n".join(decls + edges + ["}"])
    cm = _set(text).caremap("m")
    assert len(enumerate_paths(cm)) == 16
    with pytest.raises(PathExplosion):
        enumerate_paths(cm, path_cap=15)


def test_enumerate_paths_requires_single_entry():
    cmset = _set('caremap "m" { entry s; entry s2; exit e; s -> e; s2 -> e; }')
    with pytest.raises(ModelError):
        enumerate_paths(cmset.caremap("m"))


def test_node_invariants():
    with pytest.raises(ModelError):
        Node("n", NodeKind.ACTIVITY, "A", nested_ref="x")
    with pytest.raises(ModelError):
        Node("n", NodeKind.NESTED_ACTIVITY, "A")  # missing nested_ref


def test_aspect_only_on_decisions():
    from tasc.model import DecisionAspect

    with pytest.raises(ModelError):
        Node("n", NodeKind.ACTIVITY, "A", aspect=DecisionAspect.THERAPY)
    Node("n", NodeKind.DECISION, "D?", aspect=DecisionAspect.THERAPY)


@given(st.sampled_from(sorted(ActivityClass, key=lambda a: a.value)))
def test_class_mapping_consistency(activity_class):
    mapped = CONTENT_TYPE_OF_CLASS[activity_class]
    # matching content type is accepted
    Node("n", NodeKind.ACTIVITY, "A", content_type=mapped, activity_class=activity_class)
    # any other named content type is rejected
    for other in ContentType:
        if other is mapped:
            continue
        with pytest.raises(ModelError):
            Node("n", NodeKind.ACTIVITY, "A", content_type=other, activity_class=activity_class)


def test_other_class_carries_no_mapping():
    for ct in ContentType:
        Node("n", NodeKind.ACTIVITY, "A", content_type=ct, activity_class="free_text_class")


def test_duplicate_node_id_rejected():
    from tasc.model import Caremap

    with pytest.raises(ModelError):
        Caremap(
            id="m",
            nodes=(
                Node("a", NodeKind.ENTRY_POINT),
                Node("a", NodeKind.EXIT_POINT),
            ),
        )
