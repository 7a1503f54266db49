from __future__ import annotations

import random

import pytest

from tasc import dsl
from tasc.criteria import Comparison, Otherwise
from tasc.dsl import Severity, parse, parse_or_raise, serialize
from tasc.model import NodeKind


def test_parse_minimal():
    cmset = parse_or_raise('caremap "m" { entry s; exit e; s -> e; }')
    assert len(cmset.caremaps) == 1
    cm = cmset.caremap("m")
    assert len(cm.nodes) == 2
    assert len(cm.edges) == 1


def test_parse_decision_block():
    cmset = parse_or_raise(
        'caremap "m" { entry s; exit e1; exit e2; decision d "High?"; '
        "s -> d; d -> e1 when glucose > 7.0 mmol/L; d -> e2 otherwise; }"
    )
    cm = cmset.caremap("m")
    d = cm.node("d")
    assert d.kind is NodeKind.DECISION
    out = [e for e in cm.edges if e.from_id == "d"]
    assert len(out) == 2
    crits = {type(e.criterion) for e in out}
    assert crits == {Comparison, Otherwise}
    comparison = next(e.criterion for e in out if isinstance(e.criterion, Comparison))
    assert comparison == Comparison("glucose", ">", 7.0, "mmol/L")


def test_undeclared_node_reference():
    result = parse('caremap "m" { entry s; exit e; s -> ghost; }')
    assert result.set is None
    codes = [d.code for d in result.diagnostics]
    assert "E-UNDEF" in codes
    diag = next(d for d in result.diagnostics if d.code == "E-UNDEF")
    assert diag.span.line == 1
    assert diag.span.column >= 1


def test_negative_duration_is_parse_error():
    result = parse('caremap "m" {\n  entry s; exit e;\n  activity a "A" [duration: -5 min];\n'
                   "  s -> a; a -> e;\n}")
    assert result.set is None
    [diag] = result.diagnostics
    assert (diag.code, diag.message) == ("E-MODEL", "duration must be non-negative, got -5.0")
    assert (diag.span.line, diag.span.column) == (3, 29)  # the number token


@pytest.mark.parametrize(
    "criterion", ["foo(x, 1)", "consecutive_above()"], ids=["unregistered", "no-args"]
)
def test_bad_predicate_is_parse_error(criterion):
    result = parse(
        'caremap "m" { entry s; exit e; exit f; decision d "D?"; s -> d; '
        f"d -> e when {criterion}; d -> f otherwise; }}"
    )
    assert result.set is None
    assert [d.code for d in result.diagnostics] == ["E-UNDEF"]
    assert result.diagnostics[0].span.column > 1


def test_multiple_errors_reported_with_spans():
    text = "\n".join(
        [
            'caremap "m" {',
            "  entry s;",
            "  exit e;",
            "  s -> ghost1;",
            "  s -> ghost2;",
            "  bogus statement here;",
            "}",
        ]
    )
    result = parse(text)
    assert result.set is None
    errors = [d for d in result.diagnostics if d.severity is Severity.ERROR]
    assert len(errors) >= 3
    line_count = text.count("\n") + 1
    for d in result.diagnostics:
        assert 1 <= d.span.line <= line_count
        assert d.span.column >= 1


def test_error_cap():
    text = 'caremap "m" { entry s; exit e; ' + " ".join(
        f"s -> ghost{i};" for i in range(60)
    ) + " }"
    result = parse(text)
    assert result.set is None
    assert len(result.diagnostics) == dsl.MAX_DIAGNOSTICS


def test_stray_brace_gives_one_diagnostic():
    # the '}' after `entry s;` closes the caremap; the rest is skipped to the end
    result = parse('caremap "m" { entry s; } exit e; activity a "A"; s -> a; a -> e; }')
    assert result.set is None
    [diag] = result.diagnostics
    assert diag.message == "expected 'caremap' or 'link', found 'exit'"
    assert (diag.span.line, diag.span.column) == (1, 26)


def test_stray_token_resyncs_at_next_statement():
    # parsing resumes at the next caremap or link, whose own errors still show
    result = parse('x y z; caremap "m" { entry s; exit e; s -> ghost; } ; ; link a.b -> ;')
    assert [d.message for d in result.diagnostics] == [
        "expected 'caremap' or 'link', found 'x'",
        "edge references undeclared node 'ghost'",
        "expected 'caremap' or 'link', found ';'",
        "expected caremap id, found ';'",
    ]


def test_duplicate_node_id():
    result = parse('caremap "m" { entry s; exit e; activity s "A"; s -> e; }')
    assert result.set is None
    assert any(d.code == "E-DUP" for d in result.diagnostics)


def test_duplicate_edge_triple():
    result = parse('caremap "m" { entry s; exit e; s -> e; s -> e; }')
    assert result.set is None
    assert any(d.code == "E-DUP" for d in result.diagnostics)


def test_parallel_edges_with_distinct_criteria_ok():
    cmset = parse_or_raise(
        'caremap "m" { entry s; exit e; decision d "D?"; s -> d; '
        "d -> e when x > 1; d -> e otherwise; }"
    )
    cm = cmset.caremap("m")
    parallel = [e for e in cm.edges if (e.from_id, e.to_id) == ("d", "e")]
    assert len(parallel) == 2
    assert len({e.id for e in parallel}) == 2


def test_otherwise_cannot_nest():
    result = parse(
        'caremap "m" { entry s; exit e; decision d "D?"; s -> d; '
        "d -> e when x > 1 and otherwise; d -> e otherwise; }"
    )
    assert result.set is None


def test_unit_disagreement_within_decision():
    result = parse(
        'caremap "m" { entry s; exit e1; exit e2; decision d "D?"; s -> d; '
        "d -> e1 when glucose > 7.0 mmol/L; d -> e2 when glucose <= 126 mg/dL; }"
    )
    assert result.set is None
    assert any(d.code == "E-UNIT" for d in result.diagnostics)


def test_comments_and_dates():
    cmset = parse_or_raise(
        "# leading comment\n"
        'caremap "m" { # trailing\n  date 2018-05-29;\n  version 3;\n'
        "  entry s; exit e; s -> e; }"
    )
    cm = cmset.caremap("m")
    assert cm.date == "2018-05-29"
    assert cm.version == 3


def test_roundtrip_idempotent_on_corpus(gdm_set, elements_set, labour_set):
    for cmset in (gdm_set, elements_set, labour_set):
        once = serialize(cmset)
        twice = serialize(parse_or_raise(once))
        assert once == twice


def test_roundtrip_structural_equality(elements_set):
    assert parse_or_raise(serialize(elements_set)) == elements_set


def test_permuted_declarations_serialize_identically():
    lines = [
        'entry s;',
        'exit e;',
        'exclusion x "Out";',
        'activity a "A" [diagnosis];',
        'activity c "C";',
        'decision d "D?" [aspect: therapy];',
        's -> a;',
        'a -> d;',
        'd -> c when v > 2 u;',
        'd -> x otherwise;',
        'c -> e;',
    ]
    rng = random.Random(99)
    outputs = set()
    for _ in range(12):
        rng.shuffle(lines)
        text = 'caremap "m" {\n' + "\n".join(lines) + "\n}"
        outputs.add(serialize(parse_or_raise(text)))
    assert len(outputs) == 1


def test_all_twelve_elements_roundtrip(elements_set):
    main = elements_set.caremap("elements_main")
    kinds = {n.kind for n in main.nodes}
    assert kinds == set(NodeKind)  # elements 1-7
    assert any(e.criterion is not None for e in main.edges)  # element 10
    fan_out = [n for n in main.nodes if len([e for e in main.edges if e.from_id == n.id]) > 1]
    assert fan_out  # element 9
    assert elements_set.links  # element 12
    reparsed = parse_or_raise(serialize(elements_set))
    assert reparsed == elements_set


def test_parse_failure_raises():
    with pytest.raises(dsl.ParseFailure):
        parse_or_raise("caremap { nope }")


@pytest.mark.parametrize(
    "value, char", [("\u00b2", "'\u00b2'"), ("-\u00b2", "'-'")], ids=["sup2", "minus-sup2"]
)
def test_non_decimal_digit_is_syntax_error(value, char):
    result = parse(f'caremap "m" {{\n  version {value};\n  entry s; exit e; s -> e;\n}}\n')
    assert result.set is None
    [d] = result.diagnostics
    assert (d.code, d.message) == ("E-SYNTAX", f"unexpected character {char}")
    assert (d.span.line, d.span.column) == (2, 11)


def _decision_on(criterion: str) -> str:
    return (
        'caremap "m" { entry s; exit e; exit f; decision d "D?"; s -> d; '
        f"d -> e when {criterion}; d -> f otherwise; }}"
    )


@pytest.mark.parametrize("shape", ["not", "paren"])
def test_criterion_nested_too_deeply(shape):
    depth = 1200
    criterion = "not " * depth + "x > 1" if shape == "not" else "(" * depth + "x > 1" + ")" * depth
    text = _decision_on(criterion)
    result = parse(text)
    assert result.set is None
    [d] = result.diagnostics
    assert (d.code, d.message) == ("E-SYNTAX", "criterion nested too deeply")
    # reported at the token that opens level MAX_CRITERION_DEPTH + 1
    width = len("not ") if shape == "not" else len("(")
    assert d.span.column == text.index("when ") + len("when ") + dsl.MAX_CRITERION_DEPTH * width + 1


@pytest.mark.parametrize(
    "criterion",
    [
        "not " * dsl.MAX_CRITERION_DEPTH + "x > 1",
        "(" * dsl.MAX_CRITERION_DEPTH + "x > 1" + ")" * dsl.MAX_CRITERION_DEPTH,
        "not (" * (dsl.MAX_CRITERION_DEPTH // 2) + "x > 1" + ")" * (dsl.MAX_CRITERION_DEPTH // 2),
    ],
    ids=["not", "paren", "mixed"],
)
def test_criterion_at_depth_cap_round_trips(criterion):
    canonical = serialize(parse_or_raise(_decision_on(criterion)))
    assert serialize(parse_or_raise(canonical)) == canonical


@pytest.mark.parametrize("newline", ["\n", "\\\n"], ids=["raw", "escaped"])
def test_newline_in_string_is_unterminated(newline):
    # the error on line 5 must not be reported, one line early, as line 4
    text = f'caremap "m" {{\n  title "x{newline}y";\n  entry s; exit e;\n  s -> q;\n}}\n'
    result = parse(text, filename="esc.tasc")
    assert result.set is None
    assert [d.render() for d in result.diagnostics] == [
        "esc.tasc:2:9: error[E-SYNTAX]: unterminated string"
    ]
