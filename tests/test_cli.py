from __future__ import annotations

import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from tasc import cli, dsl
from tasc.cli import EXIT_FINDINGS, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from tasc.render import check_dot

from conftest import CORPUS, FIXTURES, ROOT

sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the wide benchmark map)

GDM = str(CORPUS / "gdm.tasc")
LABOUR = str(CORPUS / "labour_birth.tasc")
COUNTS = str(CORPUS / "labour_birth_counts.csv")


def run(*argv):
    return main(list(argv))


def test_validate_clean_exit_zero(capsys):
    assert run("validate", GDM) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_validate_findings_exit_one(capsys):
    assert run("validate", str(FIXTURES / "mut_s5.tasc")) == EXIT_FINDINGS
    assert "S5" in capsys.readouterr().out


def test_validate_warnings_alone_exit_zero():
    assert run("validate", str(FIXTURES / "mut_w_exh.tasc")) == EXIT_OK


def test_validate_strict_promotes():
    assert run("validate", "--strict", str(FIXTURES / "mut_w_exh.tasc")) == EXIT_FINDINGS


def test_validate_json_format(capsys):
    assert run("validate", "--format", "json", str(FIXTURES / "mut_s3.tasc")) == EXIT_FINDINGS
    doc = json.loads(capsys.readouterr().out)
    assert any(d["code"] == "S3" for d in doc)


def test_validate_parse_failure_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.tasc"
    bad.write_text("caremap oops {", encoding="utf-8")
    assert run("validate", str(bad)) == EXIT_FINDINGS


def test_missing_file_exit_three(capsys):
    assert run("validate", "/nonexistent/nope.tasc") == EXIT_IO


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        run("no-such-command")
    assert exc.value.code == 2


def test_fmt_check(tmp_path):
    canonical = tmp_path / "gdm_canonical.tasc"
    canonical.write_text(
        dsl.serialize(dsl.parse_or_raise(open(GDM, encoding="utf-8").read())),
        encoding="utf-8",
    )
    assert run("fmt", "--check", str(canonical)) == EXIT_OK
    messy = tmp_path / "messy.tasc"
    messy.write_text('caremap "m" {\nexit e; entry s;\ns -> e;\n}\n', encoding="utf-8")
    assert run("fmt", "--check", str(messy)) == EXIT_FINDINGS
    assert run("fmt", str(messy)) == EXIT_OK
    assert run("fmt", "--check", str(messy)) == EXIT_OK
    cmset = dsl.parse_or_raise(messy.read_text(encoding="utf-8"))
    assert cmset.caremap("m").has_node("s")


def test_fmt_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO('caremap "m" { exit e; entry s; s -> e; }'))
    assert run("fmt", "-") == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith('caremap "m" {')
    assert out.endswith("\n")


def test_render_writes_valid_dot(tmp_path):
    out = tmp_path / "gdm.dot"
    assert run("render", GDM, "--out", str(out)) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert check_dot(text) == []
    assert text.count("subgraph cluster_") == 3


def test_render_color_style(tmp_path):
    out = tmp_path / "gdm_color.dot"
    assert run("render", GDM, "--out", str(out), "--style", "color") == EXIT_OK
    assert "fillcolor" in out.read_text(encoding="utf-8")


def test_paths_lists_walks(capsys):
    assert run("paths", LABOUR, "--caremap", "labour_birth") == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # 2 onset branches x 3 delivery modes
    assert all(l.startswith("admit -> ") and l.endswith("-> discharged") for l in lines)


def test_paths_unknown_caremap():
    assert run("paths", LABOUR, "--caremap", "ghost") == 2


def test_paths_negative_cycle_bound_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("paths", LABOUR, "--caremap", "labour_birth", "--cycle-bound", "-1")
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --cycle-bound: expected an integer >= 0, got '-1'" in captured.err


def test_paths_long_chain(tmp_path, capsys):
    # one walk longer than the interpreter's default recursion limit
    n = 1500
    chain = tmp_path / "chain.tasc"
    chain.write_text(
        'caremap "m" {\n  entry s; exit e;\n'
        + "".join(f'  activity a{i} "A{i}";\n' for i in range(n))
        + "  s -> a0;\n" + "".join(f"  a{i} -> a{i + 1};\n" for i in range(n - 1))
        + f"  a{n - 1} -> e;\n}}\n",
        encoding="utf-8",
    )
    assert run("paths", str(chain), "--caremap", "m") == EXIT_OK
    walk = ["s", *(f"a{i}" for i in range(n)), "e"]
    assert capsys.readouterr() == (" -> ".join(walk) + "\n", "")


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "model.json"
    assert run("ingest", COUNTS, "--caremaps", LABOUR, "--out", str(out)) == EXIT_OK
    return str(out)


def test_ingest_output_shape(model_path):
    doc = json.loads(open(model_path, encoding="utf-8").read())
    assert doc["tasc_model"] == 1
    assert set(doc["nodes"]) == {"labour_birth.onset", "labour_birth.delivery"}


def test_synth_conform_roundtrip(model_path, tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    assert run(
        "synth", LABOUR, "--model", model_path, "--entry", "labour_birth",
        "-n", "100", "--seed", "7", "--out", str(traces),
    ) == EXIT_OK
    lines = traces.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# tasc-synth v1 seed=7 ")
    assert len(lines) == 101
    assert run(
        "conform", LABOUR, "--traces", str(traces), "--entry", "labour_birth",
        "--format", "json",
    ) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["conformant"] == 100 and doc["non_conformant"] == 0


def test_conform_findings_exit_one(tmp_path, capsys):
    traces = tmp_path / "bad.jsonl"
    traces.write_text(
        json.dumps({"trace_id": "x", "events": [{"type": "activity", "ref": "rogue"}]}) + "\n",
        encoding="utf-8",
    )
    assert run("conform", LABOUR, "--traces", str(traces), "--entry", "labour_birth") == EXIT_FINDINGS
    assert "non-conformant" in capsys.readouterr().out


def _conform_sample(tmp_path):
    """JSONL with comments, blank lines, a CR and a U+2028 line break, and a bad record
    in the second half; returns (path, line number of the bad record)."""
    rows = []
    for i in range(12):
        ref = "rogue" if i % 5 == 0 else "admit"
        rows.append(json.dumps({"trace_id": f"t{i:02d}", "events": [{"type": "activity", "ref": ref}]}))
    lines = ["# tasc-synth v1 seed=0", "", *rows[:3], "# cr\r# break", *rows[3:6], "#\u2028",
             "", *rows[6:9], "{not json", "   ", "# tail", *rows[9:]]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "mixed.jsonl"
    path.write_text(text, encoding="utf-8")
    bad = text.splitlines().index("{not json") + 1
    assert bad > len(text.splitlines()) // 2
    assert bad == text[:text.index("{not json")].count("\n") + 3  # counting "\n" is 2 short
    return path, bad


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_conform_workers_byte_identical(tmp_path, capsys, fmt):
    traces, bad = _conform_sample(tmp_path)
    outputs = []
    for workers in ("1", "2", "5"):
        assert run(
            "conform", LABOUR, "--traces", str(traces), "--entry", "labour_birth",
            "--format", fmt, "--workers", workers,
        ) == EXIT_FINDINGS
        outputs.append(capsys.readouterr())
    assert outputs[0].out and all(o.out == outputs[0].out for o in outputs)
    assert all(o.err == outputs[0].err for o in outputs)
    if fmt == "json":
        doc = json.loads(outputs[0].out)
        assert doc["n"] == 12
        assert [e.split(":")[0] for e in doc["load_errors"]] == [f"line {bad}"]
    else:
        assert outputs[0].err.startswith(f"  load error: line {bad}: bad JSON")


def test_conform_workers_capped_at_line_count(tmp_path, capsys, inline_pool):
    traces = tmp_path / "three.jsonl"
    traces.write_text(
        "".join(json.dumps({"trace_id": f"t{i}", "events": []}) + "\n" for i in range(3)),
        encoding="utf-8",
    )
    outputs = []
    for workers in ("1", "64"):
        assert run(
            "conform", LABOUR, "--traces", str(traces), "--entry", "labour_birth",
            "--format", "json", "--workers", workers,
        ) == EXIT_FINDINGS
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    cap = min(3, os.cpu_count() or 1)
    assert inline_pool == ([cap] if cap > 1 else [])


_ERROR_MAP = (
    'caremap "m" {\n  entry s; exit hi; exit lo;\n'
    '  activity a1 "Review"; activity a2 "Review";\n'
    '  decision d "High?"; decision d2 "Run?";\n'
    "  s -> a1; a1 -> d; a2 -> lo;\n"
    "  d -> d2 when glucose > 7.0 mmol/L; d -> a2 otherwise;\n"
    "  d2 -> hi when consecutive_above(glucose); d2 -> lo otherwise;\n"
    "}\n"
)
_RECORD_EVENTS = {
    "ok": [{"type": "activity", "ref": "a1"},
           {"type": "obs", "var": "glucose", "value": 6, "unit": "mmol/L"},
           {"type": "activity", "ref": "a2"}],
    # IndexError at replay (exit 1): consecutive_above is given no threshold
    "arity": [{"type": "activity", "ref": "a1"},
              {"type": "obs", "var": "glucose", "value": 9, "unit": "mmol/L"}],
    # UnitMismatch at replay (exit 3)
    "unit": [{"type": "activity", "ref": "a1"},
             {"type": "obs", "var": "glucose", "value": 6, "unit": "mg/dL"}],
    # AmbiguousLabel at the label check (exit 3)
    "label": [{"type": "activity", "ref": "Review"}],
    # a load error, not a crash: the other record's error decides
    "noref": [{"type": "activity"}],
}
_LABEL_MESSAGE = "activity reference 'Review' matches multiple nodes: ['m.a1', 'm.a2']"
_UNIT_MESSAGE = "unit mismatch on 'glucose': criterion says 'mmol/L', binding has 'mg/dL'"
# a load error: nested deeper than the JSON decoder goes
_DEEP_EVENTS = "[" * 100_000 + "]" * 100_000
# a load error: an integer longer than Python converts from a string
_BIG_INT_EVENTS = '[{"type": "obs", "var": "glucose", "value": ' + "9" * 5000 + "}]"
_ERROR_MODEL = json.dumps({"tasc_model": 1, "nodes": {
    "m.d": {"mode": "sampler", "var": "glucose", "unit": "mmol/L",
            "dist": {"kind": "categorical", "values": [6, 9], "probs": [0.5, 0.5]}},
    "m.d2": {"mode": "edge_probs", "probs": {"d2->hi": 0.5, "d2->lo": 0.5}},
}})


def _error_files(tmp_path, traces_text):
    """Write _ERROR_MAP, _ERROR_MODEL and traces_text; returns their paths."""
    paths = (tmp_path / "m.tasc", tmp_path / "m.json", tmp_path / "t.jsonl")
    for path, text in zip(paths, (_ERROR_MAP, _ERROR_MODEL, traces_text)):
        path.write_text(text, encoding="utf-8")
    return [str(path) for path in paths]


def _record_line(trace_id, kind):
    events = _DEEP_EVENTS if kind == "deep" else json.dumps(_RECORD_EVENTS[kind])
    return f'{{"trace_id": {json.dumps(trace_id)}, "events": {events}}}\n'


@pytest.mark.parametrize(
    "records, outcome",
    [
        ([("a", "ok"), ("b", "unit")], _UNIT_MESSAGE),
        ([("a", "ok"), ("b", "label")], _LABEL_MESSAGE),
        ([("a", "arity"), ("b", "label")], _LABEL_MESSAGE),
        ([("a", "unit"), ("b", "deep")], _UNIT_MESSAGE),
        ([("a", "label"), ("b", "deep")], _LABEL_MESSAGE),
        ([("a", "unit"), ("b", "noref")], _UNIT_MESSAGE),
        ([("a", "label"), ("b", "noref")], _LABEL_MESSAGE),
        ([("z", "arity"), ("a", "unit")], _UNIT_MESSAGE),
        ([("a", "arity"), ("z", "unit")], IndexError),
        # equal records replay once, charged to their lowest id, not to their first line
        ([("z", "arity"), ("b", "unit"), ("a", "arity")], IndexError),
        ([("z", "unit"), ("a", "arity"), ("y", "unit"), ("b", "unit")], IndexError),
        ([("y", "arity"), ("a", "arity"), ("b", "unit"), ("c", "ok")], IndexError),
    ],
    ids=["unit-mismatch", "ambiguous-label", "labels-before-replay", "load-before-replay",
         "load-before-labels", "load-error-then-replay", "load-error-then-labels",
         "replay-in-id-order", "replay-in-id-order-crash", "repeated-crash-lowest-id",
         "repeated-unit-after-crash", "repeated-crash-across-chunks"],
)
def test_conform_record_error_same_for_any_workers(records, outcome, tmp_path, capsys):
    # The records land in different chunks when --workers 2; the error reported is the one
    # a serial run meets first: load, then label check, then replay in trace-id order.
    # synth-check --traces replays through the same driver, so it meets the same error.
    caremaps, model, traces = _error_files(
        tmp_path, "".join(_record_line(t, k) for t, k in records)
    )
    conform = ("conform", caremaps, "--traces", traces, "--entry", "m", "--workers")
    for argv in (
        (*conform, "1"),
        (*conform, "2"),
        ("synth-check", caremaps, "--model", model, "--traces", traces, "--entry", "m"),
    ):
        if isinstance(outcome, str):
            assert run(*argv) == EXIT_IO
            assert capsys.readouterr() == ("", outcome + "\n")
        else:
            with pytest.raises(outcome):
                run(*argv)


@pytest.mark.parametrize(
    "record, message",
    [
        ({"events": [{"type": "activity"}]}, "activity event has no 'ref'"),
        ({"events": [{"type": "obs", "value": 6}]}, "obs event has no 'var'"),
        ({"events": [{"type": "obs", "var": "glucose"}]}, "obs event has no 'value'"),
        ({"events": [{"type": "branch", "edge": "d->lo"}]}, "branch event has no 'decision'"),
        ({"events": [{"type": "branch", "decision": "d"}]}, "branch event has no 'edge'"),
        ({"events": 5}, "events must be a list, got int"),
        ({"events": [5]}, "event must be an object, got int"),
        ({"events": [{"type": "activity", "ref": "a1"},
                     {"type": "obs", "var": "glucose", "value": [1]}]},
         "obs value must be a number, string or boolean, got list"),
        ({"events": [{"type": "activity", "ref": "a1"},
                     {"type": "obs", "var": "glucose", "value": None}]},
         "obs value must be a number, string or boolean, got NoneType"),
        (_DEEP_EVENTS, "bad JSON: maximum recursion depth exceeded while decoding a JSON "
                       "array from a unicode string"),
        (_BIG_INT_EVENTS, "bad JSON: Exceeds the limit (4300 digits) for integer string "
                          "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
                          "to increase the limit"),
    ],
    ids=["no-ref", "no-var", "no-value", "no-decision", "no-edge", "events-not-list",
         "event-not-object", "value-list", "value-null", "deep", "big-int"],
)
def test_conform_malformed_event_is_load_error(record, message, tmp_path, capsys):
    # record: the fields of trace "b" besides its trace_id, or the raw JSON of its events
    good = json.dumps({"trace_id": "a", "events": _RECORD_EVENTS["ok"]}) + "\n"
    if isinstance(record, str):
        bad = f'{{"trace_id": "b", "events": {record}}}\n'
    else:
        bad = json.dumps({"trace_id": "b", **record}) + "\n"
    caremaps, model, traces = _error_files(tmp_path, good + bad)
    for workers in ("1", "2"):
        assert run(
            "conform", caremaps, "--traces", traces, "--entry", "m",
            "--format", "json", "--workers", workers,
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["conformant"]) == (1, 1)
        assert doc["load_errors"] == [f"line 2: {message}"]
    # synth-check lists the load error on stderr and reports on the valid trace alone
    check = ("synth-check", caremaps, "--model", model, "--traces", traces, "--entry", "m",
             "--format", "json")
    assert run(*check) == EXIT_FINDINGS
    both = capsys.readouterr()
    assert both.err == f"  load error: line 2: {message}\n"
    assert json.loads(both.out)["unmatched_traces"] == 0
    Path(traces).write_text(good, encoding="utf-8")
    assert run(*check) == EXIT_FINDINGS
    assert capsys.readouterr() == (both.out, "")


_LOOP_MAP = (
    'caremap "loop" {\n  entry start; exit done;\n  activity measure "Measure";\n'
    '  decision again "Again?";\n  start -> measure; measure -> again;\n'
    "  again -> measure when repeat == yes; again -> done otherwise;\n}\n"
)


def _loop_events(iterations, last="no"):
    events = []
    for k in range(iterations):
        events += [{"type": "obs", "var": "glucose", "value": 5.0 + k % 3, "unit": "mmol/L"},
                   {"type": "activity", "ref": "measure"},
                   {"type": "obs", "var": "repeat", "value": "yes"}]
    events[-1]["value"] = last
    return events


def test_conform_long_loops_same_for_any_workers(tmp_path, capsys):
    # loops far past the depth where a recursive replay overflowed the stack
    caremaps = tmp_path / "loop.tasc"
    caremaps.write_text(_LOOP_MAP, encoding="utf-8")
    rows = [(f"t{k}", _loop_events(n)) for k, n in enumerate([3, 900, 2500, 40, 1200, 1])]
    rows.append(("t6", _loop_events(700, last="yes")))  # ends inside the loop
    traces = tmp_path / "t.jsonl"
    traces.write_text(
        "".join(json.dumps({"trace_id": t, "events": ev}) + "\n" for t, ev in rows),
        encoding="utf-8",
    )
    outputs = []
    for workers in ("1", "2"):
        assert run(
            "conform", str(caremaps), "--traces", str(traces), "--entry", "loop",
            "--format", "json", "--workers", workers,
        ) == EXIT_FINDINGS
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0].out)
    assert (doc["n"], doc["conformant"], doc["non_conformant"]) == (7, 6, 1)
    assert doc["top_divergence_points"] == [{"node": "measure", "count": 1}]


def test_fmt_rejects_escaped_newline_in_string(tmp_path, capsys):
    src = tmp_path / "esc.tasc"
    src.write_text('caremap "m" {\n  title "x\\\ny";\n  entry s; exit e; s -> e;\n}\n',
                   encoding="utf-8")
    assert run("fmt", "--stdout", str(src)) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{src}:2:9: error[E-SYNTAX]: unterminated string\n"


def test_synth_workers_byte_identical(model_path, tmp_path):
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}.jsonl"
        assert run(
            "synth", LABOUR, "--model", model_path, "--entry", "labour_birth",
            "-n", "200", "--seed", "3", "--out", str(out), "--workers", workers,
        ) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [1, 5, 6, 7, 13])
def test_synth_pool_chunk_edges_byte_identical(n, model_path, tmp_path, monkeypatch):
    # chunks of at most 3 traces, at least 2 of them when n >= 2
    monkeypatch.setattr(cli, "SYNTH_CHUNK", 3)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jsonl"
        assert run(
            "synth", LABOUR, "--model", model_path, "--entry", "labour_birth",
            "-n", str(n), "--seed", "3", "--out", str(out), "--workers", workers,
        ) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == n + 1


def test_pool_tasks_carry_no_model(model_path, tmp_path, capsys, inline_pool, monkeypatch):
    # inline_pool pickles every task as a pool would and fails on a CaremapSet or STM in one
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    common = (LABOUR, "--entry", "labour_birth")
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.jsonl"
        assert run(
            "synth", *common, "--model", model_path, "-n", "50", "--seed", "3",
            "--out", str(out), "--workers", workers,
        ) == EXIT_OK
        assert run(
            "conform", *common, "--traces", str(out), "--format", "json", "--workers", workers,
        ) == EXIT_OK
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert inline_pool == [2, 2]  # synth's pool, then conform's


def test_synth_workers_capped_at_trace_count(model_path, tmp_path, inline_pool):
    outputs = []
    for workers in ("1", "64"):
        out = tmp_path / f"w{workers}.jsonl"
        assert run(
            "synth", LABOUR, "--model", model_path, "--entry", "labour_birth",
            "-n", "3", "--seed", "3", "--out", str(out), "--workers", workers,
        ) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    cap = min(3, os.cpu_count() or 1)
    assert inline_pool == ([cap] if cap > 1 else [])


@pytest.mark.parametrize("command", ["conform", "synth", "synth-check"])
def test_unknown_entry_exit_two(command, model_path, tmp_path, capsys):
    traces = tmp_path / "t.jsonl"
    traces.write_text(json.dumps({"trace_id": "x", "events": []}) + "\n", encoding="utf-8")
    extra = {
        "conform": ["--traces", str(traces)],
        "synth": ["--model", model_path, "-n", "1", "--seed", "0", "--out", str(tmp_path / "o")],
        "synth-check": ["--model", model_path, "--traces", str(traces)],
    }[command]
    assert run(command, LABOUR, "--entry", "nope", *extra) == EXIT_USAGE
    assert "no caremap 'nope'" in capsys.readouterr().err


def test_written_files_keep_mode(tmp_path):
    old_umask = os.umask(0o022)
    try:
        dot = tmp_path / "new.dot"
        assert run("render", GDM, "--out", str(dot)) == EXIT_OK
        assert stat.S_IMODE(dot.stat().st_mode) == 0o644
        src = tmp_path / "m.tasc"
        src.write_text('caremap "m" {  entry s; exit e; s -> e; }\n', encoding="utf-8")
        src.chmod(0o640)
        assert run("fmt", str(src)) == EXIT_OK
        assert src.read_text(encoding="utf-8").startswith('caremap "m" {\n')
        assert stat.S_IMODE(src.stat().st_mode) == 0o640
    finally:
        os.umask(old_umask)


def test_synth_check_within_tolerance(model_path, capsys):
    assert run(
        "synth-check", LABOUR, "--model", model_path, "--entry", "labour_birth",
        "-n", "2000", "--seed", "5", "--tolerance", "0.05",
    ) == EXIT_OK
    assert "max delta" in capsys.readouterr().out


_DOSE_LOOP_MAP = (
    'caremap "loop" {\n  entry start; exit done;\n'
    '  activity measure "Measure"; activity low "Low dose"; activity high "High dose";\n'
    '  decision dose "Dose?"; decision again "Again?";\n'
    "  start -> measure; measure -> dose; low -> again; high -> again;\n"
    "  dose -> low when level == low; dose -> high otherwise;\n"
    "  again -> measure when repeat == yes; again -> done otherwise;\n}\n"
)
_DOSE_LOOP_MODEL = json.dumps({"tasc_model": 1, "nodes": {
    "loop.again": {"mode": "sampler", "var": "repeat",
                   "dist": {"kind": "categorical", "values": ["yes", "no"], "probs": [0.8, 0.2]}},
    "loop.dose": {"mode": "edge_probs", "probs": {"dose->high": 0.7, "dose->low": 0.3}},
}, "emitters": {"loop.measure": [
    {"var": "glucose", "unit": "mmol/L", "dist": {"kind": "normal", "mu": 6.0, "sigma": 1.0}},
]}})


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", ["labour_birth", "loop", "wide"])
def test_synth_check_generated_same_as_replayed(case, fmt, model_path, tmp_path, capsys):
    # -n replays what synth writes; --traces replays synth's file of the same traces
    n, tolerance = "300", "0.1"
    if case == "loop":
        caremaps, model = tmp_path / "loop.tasc", tmp_path / "loop.json"
        caremaps.write_text(_DOSE_LOOP_MAP, encoding="utf-8")
        model.write_text(_DOSE_LOOP_MODEL, encoding="utf-8")
        common = (str(caremaps), "--model", str(model), "--entry", "loop")
        rows = 2
    elif case == "wide":  # six linked wards, each nesting a chain of maps 8 deep
        wl = workloads.build_wide(ROOT, tmp_path, 3)
        common = (str(wl.caremaps), "--model", str(wl.model), "--entry", wl.entry)
        n, tolerance = "20", "1"
        rows = workloads.WARDS * 3 * workloads.ROUTES  # route's edges, two per follow-up
    else:
        common = (LABOUR, "--model", model_path, "--entry", "labour_birth")
        rows = 5
    traces = str(tmp_path / "t.jsonl")
    assert run("synth", *common, "-n", n, "--seed", "11", "--out", traces) == EXIT_OK
    outputs = []
    for source in (("-n", n, "--seed", "11"), ("--traces", traces)):
        code = run("synth-check", *common, *source, "--format", fmt, "--tolerance", tolerance)
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    code, captured = outputs[0]
    assert code == EXIT_OK and captured.err == ""
    assert captured.out.count("empirical") == rows
    if fmt == "json":  # a node's visits are the counts of its edges summed
        per_node: dict = {}
        for row in json.loads(captured.out)["rows"]:
            key = row["caremap"], row["node"]
            per_node[key] = per_node.get(key, 0.0) + row["empirical"]
        # 20 wide traces leave some follow-up decisions unvisited
        visited = {round(total, 9) for total in per_node.values()}
        assert visited == ({0.0, 1.0} if case == "wide" else {1.0})


@pytest.mark.parametrize("command", ["synth", "synth-check"])
def test_negative_count_is_usage_error(command, model_path, tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    extra = ["--out", str(out)] if command == "synth" else []
    with pytest.raises(SystemExit) as exc:
        run(command, LABOUR, "--model", model_path, "--entry", "labour_birth",
            "-n", "-5", "--seed", "0", *extra)
    assert exc.value.code == EXIT_USAGE
    assert "argument -n/--count: expected an integer >= 0, got '-5'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_conform_workers_below_one_is_usage_error(workers, tmp_path, capsys):
    traces = tmp_path / "t.jsonl"
    traces.write_text("", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        run("conform", LABOUR, "--traces", str(traces), "--entry", "labour_birth",
            "--workers", workers)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --workers: expected an integer >= 1, got '{workers}'" in captured.err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_synth_workers_below_one_is_usage_error(workers, model_path, tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    with pytest.raises(SystemExit) as exc:
        run("synth", LABOUR, "--model", model_path, "--entry", "labour_birth",
            "-n", "5", "--seed", "0", "--out", str(out), "--workers", workers)
    assert exc.value.code == EXIT_USAGE
    message = f"argument --workers: expected an integer >= 1, got '{workers}'"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "not a tasc transition model (tasc_model != 1)"),
        ({"labour_birth.onset": {"mode": "edge_probs"}},
         "model node 'labour_birth.onset' has no 'probs'"),
        ({"labour_birth.onset": {"mode": "sampler", "var": "onset_type",
                                 "dist": {"kind": "normal", "mu": 0.5}}},
         "model node 'labour_birth.onset' has no 'sigma'"),
        ({"labour_birth.onset": {"mode": "sampler", "var": "onset_type",
                                 "dist": {"kind": "categorical", "values": ["spontaneous", None],
                                          "probs": [0.5, 0.5]}}},
         "model node 'labour_birth.onset' is malformed: categorical values must be numbers, "
         "strings or booleans, got NoneType"),
    ],
    ids=["top-level-list", "no-probs", "no-sigma", "null-categorical"],
)
def test_malformed_model_exit_three(doc, message, tmp_path, capsys):
    model = tmp_path / "model.json"
    if isinstance(doc, dict):
        doc = {"tasc_model": 1, "nodes": doc}
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert run(
        "synth", LABOUR, "--model", str(model), "--entry", "labour_birth",
        "-n", "1", "--seed", "0", "--out", str(tmp_path / "o.jsonl"),
    ) == EXIT_IO
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("tolerance", ["nan", "-0.01"])
def test_synth_check_bad_tolerance_is_usage_error(tolerance, model_path, capsys):
    # a NaN tolerance could never fail the check, a negative one never pass it
    with pytest.raises(SystemExit) as exc:
        run("synth-check", LABOUR, "--model", model_path, "--entry", "labour_birth",
            "-n", "10", "--tolerance", tolerance)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --tolerance: expected a number >= 0, got '{tolerance}'" in captured.err


def test_synth_check_traces_with_count_is_usage_error(tmp_path, capsys):
    # refused before the (absent) model or traces file is read, which would exit 3
    with pytest.raises(SystemExit) as exc:
        run("synth-check", LABOUR, "--model", str(tmp_path / "none.json"),
            "--entry", "labour_birth", "--traces", str(tmp_path / "none.jsonl"), "-n", "5")
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument -n/--count: not allowed with argument --traces" in captured.err


def test_synth_check_needs_input():
    assert run(
        "synth-check", LABOUR, "--model", "/nonexistent.json", "--entry", "labour_birth",
    ) == EXIT_IO


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("tasc")
    assert exe is not None
    proc = subprocess.run([exe, "validate", GDM], capture_output=True)
    assert proc.returncode == 0


_STEP_CAP_MODEL = json.dumps({"tasc_model": 1, "nodes": {
    "loop.again": {"mode": "sampler", "var": "repeat",
                   "dist": {"kind": "categorical", "values": ["yes", "no"], "probs": [0.9995, 0.0005]}},
}})


@pytest.mark.parametrize(
    "command, extra",
    [("synth", ["--workers", "1"]), ("synth", ["--workers", "2"]), ("synth-check", [])],
    ids=["synth-workers-1", "synth-workers-2", "synth-check"],
)
def test_step_cap_exit_three(command, extra, tmp_path, capsys):
    # a p=0.9995 self-loop: traces 15 and 18 run past the generation step cap, both in
    # the second chunk when --workers 2
    caremaps, model, out = tmp_path / "loop.tasc", tmp_path / "loop.json", tmp_path / "t.jsonl"
    caremaps.write_text(_LOOP_MAP, encoding="utf-8")
    model.write_text(_STEP_CAP_MODEL, encoding="utf-8")
    out.write_bytes(b"earlier output\n")  # synth keeps it as it is, with no temp file beside it
    if command == "synth":
        extra = [*extra, "--out", str(out)]
    assert run(command, str(caremaps), "--model", str(model), "--entry", "loop",
               "-n", "20", "--seed", "0", *extra) == EXIT_IO
    assert capsys.readouterr() == ("", "trace 15 exceeded 10000 steps; the model likely has a "
                                       "near-inescapable loop\n")
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["loop.json", "loop.tasc", "t.jsonl"]


# the sampled x does not decide a branch whose criterion reads age, which no trace binds
_UNDECIDED_MAP = ('caremap "m" { entry s; exit e1; exit e2; decision d "D?"; s -> d; '
                  "d -> e1 when age < 16; d -> e2 otherwise; }\n")
_UNDECIDED_MODEL = json.dumps({"tasc_model": 1, "nodes": {"m.d": {
    "mode": "sampler", "var": "x", "dist": {"kind": "normal", "mu": 5, "sigma": 1}}}})


@pytest.mark.parametrize(
    "command, extra",
    [("synth", ["--workers", "1"]), ("synth", ["--workers", "2"]), ("synth-check", [])],
    ids=["synth-workers-1", "synth-workers-2", "synth-check"],
)
def test_undecided_sampled_branch_exit_three(command, extra, tmp_path, capsys):
    caremaps, model, out = tmp_path / "m.tasc", tmp_path / "m.json", tmp_path / "t.jsonl"
    caremaps.write_text(_UNDECIDED_MAP, encoding="utf-8")
    model.write_text(_UNDECIDED_MODEL, encoding="utf-8")
    if command == "synth":
        extra = [*extra, "--out", str(out)]
    assert run(command, str(caremaps), "--model", str(model), "--entry", "m",
               "-n", "2", "--seed", "0", *extra) == EXIT_IO
    assert capsys.readouterr() == ("", "trace 0: decision m.d reads unbound variables age\n")
    assert sorted(os.listdir(tmp_path)) == ["m.json", "m.tasc"]


def test_failed_replace_leaves_no_temp_file(model_path, tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "t.jsonl"
    assert run("synth", LABOUR, "--model", model_path, "--entry", "labour_birth",
               "-n", "5", "--seed", "0", "--out", str(out)) == EXIT_IO
    assert capsys.readouterr() == ("", f"cannot write {out}: [Errno 13] Permission denied\n")
    assert os.listdir(tmp_path) == []


def test_synth_peak_memory_is_flat_in_n(model_path, tmp_path):
    import tracemalloc

    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            assert run("synth", LABOUR, "--model", model_path, "--entry", "labour_birth",
                       "-n", str(n), "--seed", "0", "--out", str(tmp_path / "t.jsonl"),
                       "--workers", "1") == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first run fills caches that later runs reuse
    small, large = peak(100), peak(4000)
    # joining every line before the write made the peak grow by ~1.2 KB a trace
    assert large < small + 100_000, (small, large)


_DANGLING = {
    # a link whose target node is absent from a map that exists
    "link-target": (
        'caremap "m" {\n  entry s; exit e;\n  activity a "A";\n  s -> a; a -> e;\n}\n'
        'caremap "k" {\n  entry in; exit out;\n  in -> out;\n}\n'
        "link m.e -> k.nowhere;\n",
        "link target names absent node k.nowhere",
    ),
    # a nested activity whose map is absent
    "nested-ref": (
        'caremap "m" {\n  entry s; exit e;\n  nested activity a "A" ref ghost;\n  s -> a; a -> e;\n}\n',
        "node 'a' references absent caremap 'ghost'",
    ),
}


def test_deep_nesting_chain_round_trip(tmp_path, capsys):
    # each map nests the next, deeper than the interpreter's default recursion limit
    n = 1200
    caremaps, model, traces = tmp_path / "nest.tasc", tmp_path / "m.json", tmp_path / "t.jsonl"
    caremaps.write_text("".join(
        f'caremap "c{i}" {{ entry s; exit e; nested activity n "N{i}" ref c{i + 1}; s -> n; n -> e; }}\n'
        for i in range(n - 1)
    ) + f'caremap "c{n - 1}" {{ entry s; exit e; activity a "A"; s -> a; a -> e; }}\n', encoding="utf-8")
    model.write_text(json.dumps({"tasc_model": 1}), encoding="utf-8")
    assert run("validate", str(caremaps)) == EXIT_OK
    capsys.readouterr()
    assert run("synth", str(caremaps), "--model", str(model), "--entry", "c0", "-n", "3",
               "--seed", "0", "--out", str(traces)) == EXIT_OK
    assert run("conform", str(caremaps), "--traces", str(traces), "--entry", "c0",
               "--format", "json") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["conformant"], doc["non_conformant"]) == (3, 0)


@pytest.mark.parametrize("case", sorted(_DANGLING))
def test_dangling_reference_exit_three(case, tmp_path, capsys):
    text, message = _DANGLING[case]
    caremaps, model, traces = tmp_path / "m.tasc", tmp_path / "m.json", tmp_path / "t.jsonl"
    caremaps.write_text(text, encoding="utf-8")
    model.write_text(json.dumps({"tasc_model": 1}), encoding="utf-8")
    # each trace reaches the dangling reference
    traces.write_text("".join(
        json.dumps({"trace_id": f"t{i}", "events": [{"type": "activity", "ref": "a"}]}) + "\n"
        for i in range(4)), encoding="utf-8")
    common = (str(caremaps), "--entry", "m")
    for argv in (
        ("conform", *common, "--traces", str(traces), "--workers", "1"),
        ("conform", *common, "--traces", str(traces), "--workers", "2"),
        ("synth-check", *common, "--model", str(model), "--traces", str(traces)),
        ("synth-check", *common, "--model", str(model), "-n", "4"),
        ("synth", *common, "--model", str(model), "-n", "4", "--seed", "0",
         "--out", str(tmp_path / "o.jsonl")),
    ):
        assert run(*argv) == EXIT_IO
        assert capsys.readouterr() == ("", f"{caremaps}: {message}\n")


def _tasc_to_closed_pipe(*argv):
    """Run `python -m tasc` with stdout on a pipe whose read end is already closed."""
    import tasc

    src = os.path.dirname(os.path.dirname(tasc.__file__))
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "tasc", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("command", ["conform-text", "conform-json", "synth", "synth-workers-2"])
def test_closed_stdout_exits_three_quietly(command, model_path, tmp_path):
    traces = str(tmp_path / "t.jsonl")
    common = (LABOUR, "--entry", "labour_birth")
    assert run("synth", *common, "--model", model_path, "-n", "50", "--seed", "1",
               "--out", traces) == EXIT_OK
    if command.startswith("synth"):
        argv = ("synth", *common, "--model", model_path, "-n", "50", "--seed", "1", "--out", "-",
                "--workers", "2" if command == "synth-workers-2" else "1")
    else:
        argv = ("conform", *common, "--traces", traces, "--format", command.split("-")[1])
    proc = _tasc_to_closed_pipe(*argv)
    assert proc.returncode == EXIT_IO
    assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr


def test_sampler_exit_of_probability_zero_is_inescapable(tmp_path, capsys):
    # inner's loop is left only when k == stop, which the sampler never draws
    caremaps, model = tmp_path / "nest.tasc", tmp_path / "m.json"
    caremaps.write_text(
        'caremap "top" { entry s; exit e; nested activity n "N" ref inner; s -> n; n -> e; }\n'
        'caremap "inner" { entry s; exit e; activity a "A"; decision d "D?";\n'
        "  s -> a; a -> d; d -> a when k == more; d -> e otherwise; }\n",
        encoding="utf-8",
    )
    model.write_text(json.dumps({"tasc_model": 1, "nodes": {"inner.d": {
        "mode": "sampler", "var": "k",
        "dist": {"kind": "categorical", "values": ["more", "stop"], "probs": [1.0, 0.0]},
    }}}), encoding="utf-8")
    out = tmp_path / "t.jsonl"
    assert run("synth", str(caremaps), "--model", str(model), "--entry", "top", "-n", "2",
               "--seed", "0", "--out", str(out)) == EXIT_IO
    assert capsys.readouterr() == ("", "caremap 'inner': no positive-probability escape to a "
                                       "terminal from ['a', 'd', 's']\n")
    assert not out.exists()
