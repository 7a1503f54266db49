from __future__ import annotations

import json
import os
import pickle

import pytest

from tasc import dsl
from tasc.conformance import (
    ActivityDone,
    AmbiguousLabel,
    BranchTaken,
    Observation,
    PatientTrace,
    batch_conform,
    check_labels,
    conform_text,
    load_traces,
    replay,
    replay_with_edges,
    trace_from_json,
    trace_to_json,
)
from tasc.model import TERMINAL_KINDS, UnknownNode, enumerate_paths


def T(trace_id, *events):
    return PatientTrace(trace_id, tuple(events))


def test_empty_trace_on_direct_entry_exit():
    cmset = dsl.parse_or_raise('caremap "m" { entry s; exit e; s -> e; }')
    report = replay(cmset, "m", T("t0"))
    assert report.status == "Conformant"
    assert report.matched_path == ("s", "e")


def test_single_activity_conformant_and_incomplete():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; activity a "A"; s -> a; a -> e; }'
    )
    ok = replay(cmset, "m", T("t1", ActivityDone("a")))
    assert ok.status == "Conformant"
    assert ok.matched_path == ("s", "a", "e")
    short = replay(cmset, "m", T("t2"))
    assert short.status == "NonConformant"
    assert short.variance_kind == "IncompleteTrace"


def test_activity_matched_by_label():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; activity a "Take History"; s -> a; a -> e; }'
    )
    assert replay(cmset, "m", T("t", ActivityDone("Take History"))).status == "Conformant"


def test_unexpected_activity():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; activity a "A"; s -> a; a -> e; }'
    )
    report = replay(cmset, "m", T("t", ActivityDone("a"), ActivityDone("rogue")))
    assert report.status == "NonConformant"
    assert report.variance_kind == "UnexpectedActivity"
    idx, expected, found = report.divergence
    assert found == "rogue"


def test_skipped_activity():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; activity a "A"; activity b "B"; '
        "s -> a; a -> b; b -> e; }"
    )
    report = replay(cmset, "m", T("t", ActivityDone("b")))
    assert report.status == "NonConformant"
    assert report.variance_kind == "SkippedActivity"
    assert report.divergence_node == "a"


DECIDER = (
    'caremap "m" { entry s; exit hi; exit lo; decision d "High?"; '
    "activity a \"A\"; s -> a; a -> d; "
    "d -> hi when glucose > 7.0 mmol/L; d -> lo otherwise; }"
)


def test_decision_resolved_by_observation():
    cmset = dsl.parse_or_raise(DECIDER)
    high = replay(
        cmset, "m",
        T("t", Observation("glucose", 7.4, "mmol/L"), ActivityDone("a")),
    )
    assert high.status == "Conformant"
    assert high.matched_path[-1] == "hi"
    low = replay(
        cmset, "m",
        T("t", Observation("glucose", 6.1, "mmol/L"), ActivityDone("a")),
    )
    assert low.matched_path[-1] == "lo"


def test_decision_without_observations_is_undetermined():
    cmset = dsl.parse_or_raise(DECIDER)
    report = replay(cmset, "m", T("t", ActivityDone("a")))
    assert report.status == "Undetermined"
    assert report.unresolved == (("d", ("glucose",)),)


def test_branch_event_overrides_criteria():
    cmset = dsl.parse_or_raise(DECIDER)
    report = replay(
        cmset, "m",
        T("t", Observation("glucose", 9.9, "mmol/L"), ActivityDone("a"),
          BranchTaken("d", "d->lo")),
    )
    assert report.status == "Conformant"
    assert report.matched_path[-1] == "lo"


def test_wrong_branch_when_activity_contradicts_criteria():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; decision d "High?"; '
        'activity hi_act "H"; activity lo_act "L"; s -> d; '
        "d -> hi_act when glucose > 7.0 mmol/L; d -> lo_act otherwise; "
        "hi_act -> e; lo_act -> e; }"
    )
    report = replay(
        cmset, "m",
        T("t", Observation("glucose", 9.0, "mmol/L"), ActivityDone("lo_act")),
    )
    assert report.status == "NonConformant"
    assert report.divergence_node == "hi_act"


def test_consecutive_readings_drive_repeat_loop(gdm_set):
    events = (
        Observation("glucose", 6.8, "mmol/L"),
        ActivityDone("ogtt"),
        Observation("fasting_glucose", 6.0, "mmol/L"),
        ActivityDone("goals"),
        ActivityDone("plan"),
        ActivityDone("monitor"),
        Observation("glucose", 7.2, "mmol/L"),
        Observation("glucose", 7.5, "mmol/L"),
        ActivityDone("insulin"),
        ActivityDone("monitor"),
        Observation("delivery_status", "delivered"),
    )
    report = replay(gdm_set, "gdm_diagnostic", T("t", *events))
    assert report.status == "Conformant"
    assert report.matched_path.count("monitor") == 2
    assert "insulin" in report.matched_path


def test_two_consecutive_high_required(gdm_set):
    base = (
        ActivityDone("ogtt"),
        Observation("fasting_glucose", 6.0, "mmol/L"),
        ActivityDone("goals"),
        ActivityDone("plan"),
        ActivityDone("monitor"),
    )
    not_consecutive = base + (
        Observation("delivery_status", "in_progress"),
        Observation("glucose", 7.2, "mmol/L"),
        Observation("glucose", 6.5, "mmol/L"),
        Observation("glucose", 7.5, "mmol/L"),
        ActivityDone("insulin"),
    )
    report = replay(gdm_set, "gdm_diagnostic", T("t", *not_consecutive))
    assert report.status == "NonConformant"


def test_link_traversal_across_caremaps(gdm_set):
    events = (
        ActivityDone("review"),
        Observation("pregnancy_test", "positive"),
        ActivityDone("history"),
        ActivityDone("lifestyle"),
        Observation("risk_factors", 2),
        ActivityDone("ogtt"),
        Observation("fasting_glucose", 4.0, "mmol/L"),
        Observation("two_hour_glucose", 6.0, "mmol/L"),
    )
    report = replay(gdm_set, "gdm_booking", T("t", *events))
    assert report.status == "Conformant"
    assert "screen_referred" in report.matched_path
    assert report.matched_path[-1] == "gdm_excluded"


def test_links_from_one_exit_tried_in_target_order():
    # declared c before b; replay must still try b first
    cmset = dsl.parse_or_raise(
        'caremap "a" { entry s; exit e; activity x "X"; s -> x; x -> e; }\n'
        'caremap "b" { entry s; exit e; activity y "Y"; s -> y; y -> e; }\n'
        'caremap "c" { entry s; exit e; activity y "Y"; s -> y; y -> e; }\n'
        "link a.e -> c.s;\nlink a.e -> b.s;"
    )
    assert [l.to_caremap for l in cmset.links_from("a", "e")] == ["b", "c"]
    report, edges = replay_with_edges(cmset, "a", T("t", ActivityDone("x"), ActivityDone("y")))
    assert report.status == "Conformant"
    assert ("b", "s->y") in edges and ("c", "s->y") not in edges


def test_exclusion_terminates(gdm_set):
    events = (
        ActivityDone("review"),
        Observation("pregnancy_test", "negative"),
    )
    report = replay(gdm_set, "gdm_booking", T("t", *events))
    assert report.status == "Conformant"
    assert report.matched_path[-1] == "not_pregnant"
    trailing = events + (ActivityDone("history"),)
    report2 = replay(gdm_set, "gdm_booking", T("t", *trailing))
    assert report2.status == "NonConformant"


def test_nested_activity_call_semantics():
    cmset = dsl.parse_or_raise(
        'caremap "outer" { entry s; exit e; nested activity n "Sub" ref inner; '
        "s -> n; n -> e; }\n"
        'caremap "inner" { entry is; exit ie; activity ia "IA"; is -> ia; ia -> ie; }'
    )
    good = replay(cmset, "outer", T("t", ActivityDone("n"), ActivityDone("ia")))
    assert good.status == "Conformant"
    assert good.matched_path == ("s", "n", "is", "ia", "ie", "e")
    partial = replay(cmset, "outer", T("t", ActivityDone("n")))
    assert partial.status == "NonConformant"
    assert partial.variance_kind == "IncompleteTrace"


# The CLI rejects dangling references at load (model.resolve_refs); the library
# replay() takes a set as parsed and raises only when a walk reaches one.

_LINKED = 'caremap "a" { entry s; exit e; activity x "X"; s -> x; x -> e; }\n'


@pytest.mark.parametrize(
    "text, error, args",
    [
        (_LINKED + "link a.e -> ghost.s;\n", KeyError, ("no caremap 'ghost' in set",)),
        (_LINKED + 'caremap "b" { entry s; exit e; s -> e; }\nlink a.e -> b.ghost;\n',
         UnknownNode, ("caremap 'b' has no node 'ghost'",)),
    ],
    ids=["missing-map", "missing-node"],
)
def test_dangling_link_raises_when_followed(text, error, args):
    cmset = dsl.parse_or_raise(text)
    assert replay(cmset, "a", T("t", ActivityDone("x"))).status == "Conformant"  # link not taken
    with pytest.raises(error) as exc:
        replay(cmset, "a", T("t", ActivityDone("x"), ActivityDone("y")))
    assert type(exc.value) is error and exc.value.args == args


_NESTING = (
    'caremap "a" {{ entry s; exit e; activity x "X"; {} "N" ref {}; s -> x; x -> n; n -> e; }}\n'
)


@pytest.mark.parametrize(
    "text, reach, error, args",
    [
        (_NESTING.format("nested activity n", "ghost"), ("x", "n"),
         KeyError, ("no caremap 'ghost' in set",)),
        (_NESTING.format("nested decision n", "ghost"), ("x",),
         KeyError, ("no caremap 'ghost' in set",)),
        (_NESTING.format("nested activity n", "b")
         + 'caremap "b" { entry s; entry s2; exit e; s -> e; s2 -> e; }',
         ("x", "n"), ValueError, ("nested caremap 'b' must have exactly one entry",)),
    ],
    ids=["activity-missing-map", "decision-missing-map", "two-entries"],
)
def test_unresolved_nested_ref_raises_when_descended(text, reach, error, args):
    cmset = dsl.parse_or_raise(text)
    assert replay(cmset, "a", T("t", ActivityDone("y"))).status == "NonConformant"  # stops at x
    with pytest.raises(error) as exc:
        replay(cmset, "a", T("t", *map(ActivityDone, reach)))
    assert type(exc.value) is error and exc.value.args == args


# --- oracle: verdict must agree with path membership ------------------------

SMALL_FREE = (
    'caremap "m" { entry s; exit e1; exit e2; '
    'activity a "A"; activity b "B"; activity c "C"; '
    "s -> a; a -> b; a -> c; b -> e1; b -> c; c -> e2; }"
)


def activity_projection(cm, path):
    from tasc.model import ACTIVITY_KINDS

    return tuple(n for n in path if cm.node(n).kind in ACTIVITY_KINDS)


def test_verdict_matches_path_membership_oracle():
    import itertools

    cmset = dsl.parse_or_raise(SMALL_FREE)
    cm = cmset.caremap("m")
    valid = {activity_projection(cm, p) for p in enumerate_paths(cm, cycle_bound=3)}
    activities = ["a", "b", "c"]
    for length in range(0, 5):
        for combo in itertools.product(activities, repeat=length):
            trace = T("t", *[ActivityDone(x) for x in combo])
            got = replay(cmset, "m", trace).status
            expect = "Conformant" if tuple(combo) in valid else "NonConformant"
            assert got == expect, combo


# --- trace I/O --------------------------------------------------------------


def test_trace_json_roundtrip():
    trace = T(
        "p1",
        Observation("glucose", 7.4, "mmol/L", at=3),
        ActivityDone("monitor", at=4),
        BranchTaken("control", "control->insulin"),
    )
    assert trace_from_json(trace_to_json(trace)) == trace


def test_load_traces_skips_comments_and_collects_errors():
    text = "\n".join(
        [
            "# header comment",
            json.dumps({"trace_id": "a", "events": []}),
            "not json at all",
            json.dumps({"events": []}),
            "",
            json.dumps({"trace_id": "b", "events": [{"type": "activity", "ref": "x"}]}),
        ]
    )
    traces, errors = load_traces(text)
    assert [t.trace_id for t in traces] == ["a", "b"]
    assert len(errors) == 2
    assert errors[0].startswith("line 3")


def test_decoded_records_share_their_names():
    events = [
        {"type": "activity", "ref": "glucose_check"},
        {"type": "obs", "var": "glucose_level", "value": "high_band", "unit": "mmol/L"},
        {"type": "branch", "decision": "high_glucose", "edge": "treat_now"},
    ]
    # two lines, so the decoder reads each name twice into new strings
    traces, errors = load_traces("\n".join(
        json.dumps({"trace_id": trace_id, "events": events}) for trace_id in ("a", "b")))
    assert errors == []
    first, second = (t.events for t in traces)
    assert first == second == (
        ActivityDone("glucose_check"),
        Observation("glucose_level", "high_band", "mmol/L"),
        BranchTaken("high_glucose", "treat_now"),
    )
    assert first[0].ref is second[0].ref
    obs1, obs2 = first[1], second[1]
    assert obs1.var is obs2.var and obs1.value is obs2.value and obs1.unit is obs2.unit
    assert first[2].decision is second[2].decision and first[2].edge is second[2].edge


def test_ambiguous_label_rejected():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; activity a1 "Review"; activity a2 "Review"; '
        "s -> a1; a1 -> a2; a2 -> e; }"
    )
    with pytest.raises(AmbiguousLabel):
        check_labels(cmset, [T("t", ActivityDone("Review"))])
    check_labels(cmset, [T("t", ActivityDone("a1"))])


def test_ambiguous_label_pickles():
    err = AmbiguousLabel("Review", ["m.a1", "m.a2"])
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is AmbiguousLabel and str(back) == str(err)
    assert (back.ref, back.matches) == ("Review", ["m.a1", "m.a2"])


# --- batches ----------------------------------------------------------------


def test_batch_counts():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; activity a "A"; s -> a; a -> e; }'
    )
    traces = [
        T("t1", ActivityDone("a")),
        T("t2"),
        T("t3", ActivityDone("rogue")),
        T("t4", ActivityDone("a")),
    ]
    summary = batch_conform(cmset, "m", traces)
    assert (summary.n, summary.conformant, summary.non_conformant) == (4, 2, 2)
    assert summary.undetermined == 0
    assert summary.top_divergence_points
    assert summary.as_dict()["n"] == 4
    # only the witness walks of conformant traces are counted
    assert summary.edge_counts == {("m", "s->a"): 2, ("m", "a->e"): 2}
    assert "edge_counts" not in summary.as_dict()


def test_batch_workers_agree():
    cmset = dsl.parse_or_raise(DECIDER)
    traces = [
        T(f"t{i}", Observation("glucose", 6.0 + (i % 4), "mmol/L"), ActivityDone("a"))
        for i in range(40)
    ]
    serial = batch_conform(cmset, "m", traces, workers=1)
    parallel = batch_conform(cmset, "m", traces, workers=4)
    assert serial == parallel
    assert serial.edge_counts and serial.edge_counts == parallel.edge_counts


def test_batch_workers_capped_at_trace_count(inline_pool):
    cmset = dsl.parse_or_raise(DECIDER)
    traces = [
        T(f"t{i}", Observation("glucose", 6.0 + 2 * i, "mmol/L"), ActivityDone("a"))
        for i in range(3)
    ]
    serial = batch_conform(cmset, "m", traces, workers=1)
    assert inline_pool == []
    assert batch_conform(cmset, "m", traces, workers=64) == serial
    cap = min(3, os.cpu_count() or 1)
    assert inline_pool == ([cap] if cap > 1 else [])


def test_batch_pool_tasks_carry_no_caremap_set(inline_pool, monkeypatch):
    # inline_pool pickles every task as a pool would and fails on a CaremapSet in one
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cmset = dsl.parse_or_raise(DECIDER)
    traces = [
        T(f"t{i}", Observation("glucose", 6.0 + (i % 4), "mmol/L"), ActivityDone("a"))
        for i in range(40)
    ]
    serial = batch_conform(cmset, "m", traces, workers=1)
    assert batch_conform(cmset, "m", traces, workers=4) == serial
    assert inline_pool == [4]


def test_conform_text_matches_batch_conform():
    cmset = dsl.parse_or_raise(DECIDER)
    traces = [
        T(f"t{i}", Observation("glucose", 6.0 + (i % 4), "mmol/L"), ActivityDone("a"))
        for i in range(40)
    ]
    text = "\n".join(["# comment", "{bad"] + [trace_to_json(t) for t in traces])
    loaded, errors = load_traces(text)
    expected = batch_conform(cmset, "m", loaded, tuple(errors))
    assert expected.load_errors and expected.n == 40
    for workers in (1, 4):
        summary = conform_text(cmset, "m", text, workers=workers)
        assert summary == expected and summary.edge_counts == expected.edge_counts


# --- replay depth and cycles ------------------------------------------------

LOOP = (
    'caremap "m" { entry s; exit e; activity a "A"; decision d "Again?"; '
    "s -> a; a -> d; d -> a when repeat == yes; d -> e otherwise; }"
)


def test_long_self_loop_replays_at_default_recursion_limit():
    import sys

    cmset = dsl.parse_or_raise(LOOP)
    events = []
    for k in range(10_000):
        events += [ActivityDone("a"), Observation("repeat", "yes" if k < 9_999 else "no")]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        report, edges = replay_with_edges(cmset, "m", T("t", *events))
    finally:
        sys.setrecursionlimit(limit)
    assert report.status == "Conformant"
    assert report.matched_path.count("a") == 10_000
    assert edges.count(("m", "d->a")) == 9_999 and edges[-1] == ("m", "d->e")


def test_decision_only_cycle_ends_in_verdict():
    # d1 tries d2 first (target-id order), and d2 leads back to d1 without an event
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit done; decision d1 "One?"; decision d2 "Two?"; '
        "s -> d1; d1 -> d2; d1 -> done; d2 -> d1; }"
    )
    ok, edges = replay_with_edges(cmset, "m", T("t"))
    assert ok.status == "Conformant"
    assert ok.matched_path == ("s", "d1", "done")
    assert edges == (("m", "s->d1"), ("m", "d1->done"))
    bad = replay(cmset, "m", T("t", ActivityDone("x")))
    assert bad.status == "NonConformant"
    assert bad.variance_kind == "UnexpectedActivity" and bad.divergence_node == "done"



def test_self_nesting_cycle_ends_in_verdict():
    # d calls m again before any event is consumed, at every depth
    import sys

    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; nested decision d "D" ref m; s -> d; d -> e; }'
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        reports = [replay(cmset, "m", T("t", *events)) for events in ((), (ActivityDone("x"),))]
    finally:
        sys.setrecursionlimit(limit)
    assert [r.status for r in reports] == ["NonConformant", "NonConformant"]


def test_left_recursive_nesting_matches_at_any_depth():
    # m is zero or more a: s -> e, or a nested m and then a; k a's need k calls at index 0
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; activity a "A"; nested decision d "D" ref m; '
        "s -> d; s -> e; d -> a; a -> e; }"
    )
    for k in range(6):
        report = replay(cmset, "m", T("t", *[ActivityDone("a")] * k))
        assert report.status == "Conformant"
        assert report.matched_path.count("d") == k and report.matched_path.count("a") == k
    assert replay(cmset, "m", T("t", ActivityDone("a"), ActivityDone("b"))).status == "NonConformant"
