"""The batch path (conform_text) decodes records straight to compact events.

These tests hold it to the public dataclass path: the same load errors in the
same order, the same tallies as summed replay() and replay_with_edges results,
also when records repeat and replay once per distinct event sequence, no event
dataclass built on the way, and replay state hashing that does not grow with
nesting depth.
"""
from __future__ import annotations

import json
import random
import sys
from collections import Counter

import pytest

from tasc import cli, conformance, dsl, ingest, synthesis
from tasc.conformance import (
    TOP_DIVERGENCE_POINTS,
    ActivityDone,
    BranchTaken,
    Observation,
    PatientTrace,
    conform_text,
    load_traces,
    replay,
    replay_with_edges,
    trace_to_json,
)

from conftest import CORPUS, ROOT, load_corpus

sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the wide and loops benchmark maps)

_LABELS_MAP = (
    'caremap "m" {\n  entry s; exit hi; exit lo;\n'
    '  activity a1 "Review"; activity a2 "Review";\n'
    '  decision d "High?"; decision d2 "Run?";\n'
    "  s -> a1; a1 -> d; a2 -> lo;\n"
    "  d -> d2 when glucose > 7.0 mmol/L; d -> a2 otherwise;\n"
    "  d2 -> hi when consecutive_above(glucose); d2 -> lo otherwise;\n"
    "}\n"
)

# One record per line: every load error the decoder reports, between good
# records, comments and blank lines.
_MALFORMED = [
    '{"trace_id": "ok1", "events": [{"type": "activity", "ref": "a1"}]}',
    "# a comment",
    "",
    "   ",
    '{"trace_id": "noref", "events": [{"type": "activity"}]}',
    '{"trace_id": "novar", "events": [{"type": "obs", "value": 6}]}',
    '{"trace_id": "novalue", "events": [{"type": "obs", "var": "glucose"}]}',
    '{"trace_id": "noedge", "events": [{"type": "branch", "decision": "d"}]}',
    '{"trace_id": "nodecision", "events": [{"type": "branch", "edge": "e"}]}',
    '{"trace_id": "notype", "events": [{"ref": "a1"}]}',
    '{"trace_id": "unknown", "events": [{"type": "surgery", "ref": "a1"}]}',
    '{"trace_id": "listevent", "events": [["activity", "a1"]]}',
    '{"trace_id": "strevent", "events": ["a1"]}',
    '{"trace_id": "nullevent", "events": [null]}',
    '{"trace_id": "late", "events": [{"type": "activity", "ref": "a1"}, 7]}',
    '{"trace_id": "dictevents", "events": {"type": "activity"}}',
    '{"trace_id": "strevents", "events": "a1"}',
    '{"events": []}',
    '["trace_id", "x"]',
    '"just a string"',
    "{not json",
    '{"trace_id": "trailing"} extra',
    '{"trace_id": "deep", "events": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"trace_id": "bigint", "events": [{"type": "obs", "var": "glucose", "value": '
    + "9" * 5000 + "}]}",
    '{"trace_id": 42, "events": [{"type": "obs", "var": "glucose", "value": 6, "unit": "mmol/L"},'
    ' {"type": "activity", "ref": "a1"}]}',
    '  {"trace_id": "padded"}  ',
    "# a final comment",
]


def test_decoders_give_the_same_load_errors():
    text = "\n".join(_MALFORMED) + "\n"
    traces, errors = load_traces(text)
    records, batch_errors = conformance._decode_lines(text.splitlines(), 1)
    assert batch_errors == errors
    assert [t.trace_id for t in traces] == [r[0] for r in records] == ["ok1", "42", "padded"]
    assert len(errors) == 20
    assert errors[:3] == [
        "line 5: activity event has no 'ref'",
        "line 6: obs event has no 'var'",
        "line 7: obs event has no 'value'",
    ]
    assert "line 15: event must be an object, got int" in errors
    assert "line 11: unknown event type 'surgery'" in errors
    cmset = dsl.parse_or_raise(_LABELS_MAP)
    for workers in (1, 2):
        assert conform_text(cmset, "m", text, workers=workers).load_errors == tuple(errors)


def _synth_lines(stm, entry, n, seed):
    """synth output as tasc synth writes it, and one mutated copy of each trace."""
    lines = [synthesis.provenance_header(stm, seed)]
    ops = ("drop", "swap", "duplicate", "truncate")
    for i in range(n):
        lines.append(synthesis.generate_line(stm, seed, i))
        trace = synthesis.generate_one(stm, seed, i)
        ev = list(trace.events)
        k = random.Random(f"{entry}:{i}").randrange(len(ev))
        op = ops[i % 4]
        if op == "drop":
            del ev[k]
        elif op == "swap":
            k = min(k, len(ev) - 2)
            ev[k], ev[k + 1] = ev[k + 1], ev[k]
        elif op == "duplicate":
            ev.insert(k, ev[k])
        else:
            ev = ev[:k]
        lines.append(trace_to_json(PatientTrace(f"{trace.trace_id}~{op}", tuple(ev))))
    return "\n".join(lines) + "\n"


def _workload_inputs(name, tmp_path):
    if name == "cohort":
        cmset = load_corpus("labour_birth.tasc")
        counts = (CORPUS / "labour_birth_counts.csv").read_text(encoding="utf-8")
        return cmset, "labour_birth", ingest.derive_model(ingest.read_rows(counts), cmset), 40
    wl = getattr(workloads, f"build_{name}")(ROOT, tmp_path, 3)
    cmset = dsl.parse_or_raise(wl.caremaps.read_text(encoding="utf-8"))
    model = synthesis.model_from_json(wl.model.read_text(encoding="utf-8"))
    return cmset, wl.entry, model, {"wide": 12, "loops": 8}[name]


def _assert_tally_equals_summed_replays(cmset, entry, text):
    """conform_text's summary, for workers 1 and 2, equals the per-trace public replays
    summed; returns the (events, status) count of those replays."""
    traces, errors = load_traces(text)
    assert not errors
    statuses: Counter = Counter()
    divergence: Counter = Counter()
    edge_counts: Counter = Counter()
    groups: Counter = Counter()
    for trace in traces:
        report, edges = replay_with_edges(cmset, entry, trace)
        assert replay(cmset, entry, trace) == report
        statuses[report.status] += 1
        edge_counts.update(edges)
        groups[trace.events, report.status] += 1
        if report.status != "Conformant" and report.divergence_node is not None:
            divergence[report.divergence_node] += 1
    top = tuple(sorted(divergence.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_DIVERGENCE_POINTS])

    for workers in (1, 2):
        summary = conform_text(cmset, entry, text, workers=workers)
        assert (summary.n, summary.conformant, summary.non_conformant, summary.undetermined) == (
            len(traces), statuses["Conformant"], statuses["NonConformant"],
            statuses["Undetermined"],
        )
        assert summary.top_divergence_points == top
        assert summary.edge_counts == edge_counts
        assert summary.load_errors == ()
    return groups


@pytest.mark.parametrize("name", ["cohort", "wide", "loops"])
def test_batch_tally_equals_summed_public_replays(name, tmp_path):
    cmset, entry, model, n = _workload_inputs(name, tmp_path)
    stm = synthesis.compile_stm(cmset, entry, model)
    text = _synth_lines(stm, entry, n, 5)
    statuses = Counter()
    for (_, status), count in _assert_tally_equals_summed_replays(cmset, entry, text).items():
        statuses[status] += count
    assert sum(statuses.values()) == 2 * n
    assert statuses["Conformant"] >= n  # every unmutated trace conforms
    assert statuses["Conformant"] < 2 * n  # and some mutation shows


@pytest.mark.parametrize("name", ["cohort", "wide", "loops"])
def test_batch_tally_with_repeated_mutations(name, tmp_path):
    # Each mutated trace appears three times, under new ids in both halves of the
    # input, so non-conformant and undetermined sequences replay once for several records.
    cmset, entry, model, n = _workload_inputs(name, tmp_path)
    stm = synthesis.compile_stm(cmset, entry, model)
    lines = _synth_lines(stm, entry, n, 5).splitlines()
    repeats = []
    for line in lines[1:]:
        record = json.loads(line)
        if "~" in record["trace_id"]:
            for k in (1, 2):
                repeats.append(json.dumps({**record, "trace_id": f"{record['trace_id']}#{k}"}))
    text = "\n".join([lines[0], *repeats[::2], *lines[1:], *repeats[1::2]]) + "\n"
    groups = _assert_tally_equals_summed_replays(cmset, entry, text)
    repeated = {status for (_, status), count in groups.items() if count > 1}
    assert "NonConformant" in repeated
    if name != "loops":  # no mutation of the loops traces leaves a decision undetermined
        assert "Undetermined" in repeated


def test_each_distinct_trace_replays_once_per_chunk(monkeypatch, labour_set):
    # 30 records holding 3 distinct event sequences: conformant, undetermined at
    # the onset decision, and an unexpected first activity
    sequences = [
        [{"type": "activity", "ref": "triage"},
         {"type": "obs", "var": "onset_type", "value": "spontaneous"},
         {"type": "activity", "ref": "spont"},
         {"type": "obs", "var": "mode", "value": "vaginal"},
         {"type": "activity", "ref": "vaginal"},
         {"type": "activity", "ref": "postnatal"}],
        [{"type": "activity", "ref": "triage"}, {"type": "activity", "ref": "spont"}],
        [{"type": "activity", "ref": "postnatal"}],
    ]
    ids = random.Random(0).sample(range(30), 30)
    text = "".join(
        json.dumps({"trace_id": f"t{i:02d}", "events": sequences[i % 3]}) + "\n" for i in ids
    )
    replays = []
    replay_record = conformance._replay_record

    def counted(cmset, entry, record):
        replays.append(record[0])
        return replay_record(cmset, entry, record)

    monkeypatch.setattr(conformance, "_replay_record", counted)
    summary = conform_text(labour_set, "labour_birth", text, workers=1)
    assert replays == ["t00", "t01", "t02"]  # each sequence as its lowest trace id
    assert (summary.n, summary.conformant, summary.non_conformant, summary.undetermined) == (
        30, 10, 10, 10
    )
    assert summary.top_divergence_points == (("onset", 10), ("triage", 10))


def test_batch_path_builds_no_event_objects(monkeypatch):
    cmset = dsl.parse_or_raise(_LABELS_MAP)
    text = "\n".join([
        json.dumps({"trace_id": "a", "events": [
            {"type": "activity", "ref": "a1"},
            {"type": "obs", "var": "glucose", "value": 6, "unit": "mmol/L"},
            {"type": "activity", "ref": "a2"},
        ]}),
        json.dumps({"trace_id": "b", "events": [
            {"type": "activity", "ref": "a1", "at": 3},
            {"type": "branch", "decision": "d", "edge": "d->a2"},
            {"type": "activity", "ref": "a2"},
        ]}),
        json.dumps({"trace_id": "c", "events": [{"type": "activity", "ref": "a2"}]}),
        '{"trace_id": "d", "events": [{"type": "activity"}]}',
    ]) + "\n"

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the batch path")

    for cls in (ActivityDone, Observation, BranchTaken, PatientTrace):
        monkeypatch.setattr(cls, "__init__", refuse)
    summary = conform_text(cmset, "m", text)
    assert (summary.n, summary.conformant, summary.non_conformant) == (3, 2, 1)
    assert summary.load_errors == ("line 4: activity event has no 'ref'",)
    with pytest.raises(AssertionError, match="built on the batch path"):
        load_traces(text)


def test_cli_generation_builds_no_event_objects(monkeypatch, tmp_path, capsys):
    # synth writes lines, and synth-check -n replays those lines as --traces does
    wl = workloads.build_wide(ROOT, tmp_path, 3)  # branch, obs and activity events
    common = (str(wl.caremaps), "--model", str(wl.model), "--entry", wl.entry)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built by the CLI")

    for cls in (ActivityDone, Observation, BranchTaken, PatientTrace):
        monkeypatch.setattr(cls, "__init__", refuse)
    out = tmp_path / "t.jsonl"
    assert cli.main(["synth", *common, "-n", "5", "--seed", "2", "--out", str(out)]) == 0
    assert cli.main(["synth-check", *common, "-n", "5", "--seed", "2", "--tolerance", "1"]) == 0
    assert '"type": "branch"' in out.read_text(encoding="utf-8")
    assert "max delta" in capsys.readouterr().out


def test_deep_nesting_chain_replays_conformant():
    # Each map nests the next, so the nested-call stack is 1200 calls deep.
    depth = 1200
    text = "".join(
        f'caremap "c{k}" {{ entry s; nested activity n "N" ref c{k + 1}; exit e; s -> n; n -> e; }}\n'
        for k in range(depth - 1)
    ) + f'caremap "c{depth - 1}" {{ entry s; activity a "A"; exit e; s -> a; a -> e; }}\n'
    cmset = dsl.parse_or_raise(text)
    events = (ActivityDone("n"),) * (depth - 1) + (ActivityDone("a"),)
    report = replay(cmset, "c0", PatientTrace("chain", events))
    assert report.status == "Conformant"
    assert len(report.matched_path) == 3 * depth  # s, n on the way in; e on the way out
    short = replay(cmset, "c0", PatientTrace("short", events[:-1]))
    assert (short.status, short.variance_kind) == ("NonConformant", "IncompleteTrace")
