from __future__ import annotations

import io
import json
import os
import stat

import pytest

from tasc import dsl
from tasc.cli import EXIT_FINDINGS, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from tasc.render import check_dot

from conftest import CORPUS, FIXTURES

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
# RecursionError at load (exit 1): nested deeper than the JSON decoder goes
_DEEP_EVENTS = "[" * 100_000 + "]" * 100_000


def _record_line(trace_id, kind):
    events = _DEEP_EVENTS if kind == "deep" else json.dumps(_RECORD_EVENTS[kind])
    return f'{{"trace_id": {json.dumps(trace_id)}, "events": {events}}}\n'


@pytest.mark.parametrize(
    "records, outcome",
    [
        ([("a", "ok"), ("b", "unit")], _UNIT_MESSAGE),
        ([("a", "ok"), ("b", "label")], _LABEL_MESSAGE),
        ([("a", "arity"), ("b", "label")], _LABEL_MESSAGE),
        ([("a", "unit"), ("b", "deep")], RecursionError),
        ([("a", "label"), ("b", "deep")], RecursionError),
        ([("a", "unit"), ("b", "noref")], _UNIT_MESSAGE),
        ([("a", "label"), ("b", "noref")], _LABEL_MESSAGE),
        ([("z", "arity"), ("a", "unit")], _UNIT_MESSAGE),
        ([("a", "arity"), ("z", "unit")], IndexError),
    ],
    ids=["unit-mismatch", "ambiguous-label", "labels-before-replay", "load-before-replay",
         "load-before-labels", "load-error-then-replay", "load-error-then-labels",
         "replay-in-id-order", "replay-in-id-order-crash"],
)
def test_conform_record_error_same_for_any_workers(records, outcome, tmp_path, capsys):
    # The records land in different chunks when --workers 2; the error reported is the one
    # a serial run meets first: load, then label check, then replay in trace-id order.
    caremaps = tmp_path / "m.tasc"
    caremaps.write_text(_ERROR_MAP, encoding="utf-8")
    traces = tmp_path / "t.jsonl"
    traces.write_text("".join(_record_line(t, k) for t, k in records), encoding="utf-8")
    for workers in ("1", "2"):
        argv = ("conform", str(caremaps), "--traces", str(traces), "--entry", "m",
                "--workers", workers)
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
    ],
    ids=["no-ref", "no-var", "no-value", "no-decision", "no-edge", "events-not-list",
         "event-not-object"],
)
def test_conform_malformed_event_is_load_error(record, message, tmp_path, capsys):
    caremaps = tmp_path / "m.tasc"
    caremaps.write_text(_ERROR_MAP, encoding="utf-8")
    traces = tmp_path / "t.jsonl"
    traces.write_text(
        json.dumps({"trace_id": "a", "events": _RECORD_EVENTS["ok"]}) + "\n"
        + json.dumps({"trace_id": "b", **record}) + "\n",
        encoding="utf-8",
    )
    for workers in ("1", "2"):
        assert run(
            "conform", str(caremaps), "--traces", str(traces), "--entry", "m",
            "--format", "json", "--workers", workers,
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["conformant"]) == (1, 1)
        assert doc["load_errors"] == [f"line 2: {message}"]


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
