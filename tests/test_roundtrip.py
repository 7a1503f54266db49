"""Round trip of the .tasc text format: what `tasc fmt` writes parses back.

A Hypothesis strategy draws the structure of a small caremap set and writes
it as .tasc text in a style of its own: statements shuffled, tags in any
order, every string quoted, every compound criterion parenthesized, and
numbers in whatever positional form was drawn. The sets cover every node
kind, metadata key and tag, and criteria whose literals are tiny, huge and
negative numbers, integers, and strings with spaces, digits, quotes,
backslashes, keywords, or nothing at all.

For such a text, the parsed set `s` must satisfy parse(serialize(s)) == s,
and serialize must be idempotent.
"""
from __future__ import annotations

from hypothesis import given, settings, strategies as st

from tasc import dsl
from tasc.model import (
    ACTIVITY_KINDS,
    CONTENT_TYPE_OF_CLASS,
    DECISION_KINDS,
    NESTED_KINDS,
    ActivityClass,
    ContentType,
    DecisionAspect,
    NodeKind,
)

_KEYWORD = {
    NodeKind.ENTRY_POINT: "entry",
    NodeKind.EXIT_POINT: "exit",
    NodeKind.EXCLUSION_POINT: "exclusion",
    NodeKind.ACTIVITY: "activity",
    NodeKind.NESTED_ACTIVITY: "nested activity",
    NodeKind.DECISION: "decision",
    NodeKind.NESTED_DECISION: "nested decision",
}
_CAREMAP_IDS = ("m0", "m1")
# one unit per variable, so no decision compares a variable in two units
_UNITS = {"glucose": "mmol/L", "weight": "kg/m2", "x": "%", "mode": "e-05"}
_PREDICATES = ("consecutive_above", "consecutive_below", "count_above")
_AWKWARD = (
    "", " ", "a b", "7", "-4", "3.5", "1e-05", '"', '\\', 'say "hi"', "a\\", "\\n", "and", "or",
    "not", "in", "when", "otherwise", "note", "%", "%a", "é", "²", "x-", "a->b", "mmol/L", "#",
    "2024-01-31", "\r", "\t",
)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# a .tasc string holds any character but a newline
strings = st.one_of(
    st.sampled_from(_AWKWARD),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=6),
)
_quoted = strings.map(_quote)
_booleans = st.booleans()
# number texts as the lexer reads them: integers up to 1e25, fractions down to 1e-26
_unsigned = st.builds(
    lambda whole, fraction: f"{whole}{fraction}",
    st.one_of(st.integers(0, 9), st.integers(0, 10**25)),
    st.one_of(
        st.just(""),
        st.builds(lambda zeros, digits: "." + "0" * zeros + str(digits),
                  st.integers(0, 25), st.integers(0, 10**6)),
    ),
)
numbers = st.builds(lambda sign, n: sign + n, st.sampled_from(("", "-")), _unsigned)
_variables = st.sampled_from(sorted(_UNITS))
_unit_suffix = {var: st.sampled_from(("", " " + unit)) for var, unit in _UNITS.items()}


@st.composite
def _comparison(draw) -> str:
    var = draw(_variables)
    if draw(_booleans):
        return f"{var} {draw(st.sampled_from(('==', '!=')))} {draw(_quoted)}"
    op = draw(st.sampled_from(("<", "<=", ">", ">=", "==", "!=")))
    return f"{var} {op} {draw(numbers)}{draw(_unit_suffix[var])}"


@st.composite
def _range(draw) -> str:
    var = draw(_variables)
    return f"{var} in {draw(numbers)}..{draw(numbers)}{draw(_unit_suffix[var])}"


_arguments = st.lists(st.one_of(numbers, _quoted), max_size=2)


@st.composite
def _predicate(draw) -> str:
    name = draw(st.sampled_from(_PREDICATES))
    var = draw(st.one_of(_variables, _quoted))
    return f"{name}({', '.join([var, *draw(_arguments)])})"


def _operand(criterion: tuple[bool, str]) -> str:
    compound, text = criterion
    return f"({text})" if compound else text


# (compound?, text)
criteria = st.recursive(
    st.one_of(_comparison(), _range(), _predicate()).map(lambda text: (False, text)),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(
            lambda cs: (True, " and ".join(map(_operand, cs)))),
        st.lists(inner, min_size=2, max_size=3).map(
            lambda cs: (True, " or ".join(map(_operand, cs)))),
        inner.map(lambda c: (True, "not " + _operand(c))),
    ),
    max_leaves=6,
)


_classes = st.one_of(st.none(), st.sampled_from(list(ActivityClass)), strings)
_contents = st.one_of(st.none(), st.sampled_from(list(ContentType)))
_aspects = st.sampled_from(list(DecisionAspect))
_duration_units = st.sampled_from(("min", "h", "days", "e-05"))


@st.composite
def _tags(draw, kind: NodeKind) -> list[str]:
    tags = []
    activity_class, content = draw(_classes), draw(_contents)
    if isinstance(activity_class, ActivityClass):
        tags.append(f"[class: {activity_class.value}]")
        if content is not None:  # a named class fixes the content type
            content = CONTENT_TYPE_OF_CLASS[activity_class]
    elif activity_class is not None:
        tags.append(f"[class: {_quote(activity_class)}]")
    if content is not None:
        tags.append(f"[{content.value}]")
    if kind in DECISION_KINDS and draw(_booleans):
        tags.append(f"[aspect: {draw(_aspects).value}]")
    if draw(_booleans):
        tags.append(f"[duration: {draw(_unsigned)} {draw(_duration_units)}]")
    if draw(_booleans):
        tags.append(f"[note: {draw(_quoted)}]")
    return draw(st.permutations(tags))


_kinds = st.sampled_from(list(NodeKind))
_nested_refs = st.sampled_from(_CAREMAP_IDS)


@st.composite
def _node(draw, node_id: str) -> str:
    kind = draw(_kinds)
    parts = [_KEYWORD[kind], node_id]
    if kind in ACTIVITY_KINDS | DECISION_KINDS or draw(_booleans):
        parts.append(draw(_quoted))
    if kind in NESTED_KINDS:
        parts.append(f"ref {draw(_nested_refs)}")
    parts += draw(_tags(kind))
    return " ".join(parts) + ";"


_edge_forms = st.sampled_from(("plain", "otherwise", "when"))


@st.composite
def _edges(draw, node_ids: list[str]) -> list[str]:
    # a pair of nodes has at most one plain, one 'otherwise' and one 'when'
    # edge, so no two edges are duplicates
    ends = st.sampled_from(node_ids)
    drawn = draw(st.lists(st.tuples(ends, ends, _edge_forms), unique=True, max_size=6))
    lines = []
    for from_id, to_id, form in drawn:
        line = f"{from_id} -> {to_id}"
        if form == "otherwise":
            line += " otherwise"
        elif form == "when":
            line += f" when {draw(criteria)[1]}"
        if draw(_booleans):
            line += f" note {draw(_quoted)}"
        lines.append(line + ";")
    return lines


_METADATA = {
    "title": _quoted,
    "scenario": _quoted,
    "date": st.dates().map(lambda d: d.isoformat()),
    "version": st.integers(1, 10**6).map(str),
    "team": _quoted,
    "evidence": st.lists(_quoted, min_size=1, max_size=3).map(", ".join),
    "variance_log": _quoted,
}
_node_counts = st.integers(1, 5)


@st.composite
def _caremap(draw, caremap_id: str) -> tuple[str, list[str]]:
    statements = [
        f"{key} {draw(value)};"
        for key, value in _METADATA.items() if draw(_booleans)
    ]
    node_ids = [f"n{i}" for i in range(draw(_node_counts))]
    statements += [draw(_node(node_id)) for node_id in node_ids]
    statements += draw(_edges(node_ids))
    body = "\n  ".join(draw(st.permutations(statements)))
    return f'caremap "{caremap_id}" {{\n  {body}\n}}\n', node_ids


@st.composite
def tasc_texts(draw) -> str:
    ids = _CAREMAP_IDS[: draw(st.integers(1, len(_CAREMAP_IDS)))]
    blocks = {cm_id: draw(_caremap(cm_id)) for cm_id in ids}
    endpoints = [(cm_id, n) for cm_id, (_, node_ids) in blocks.items() for n in node_ids]
    links = draw(st.lists(st.tuples(st.sampled_from(endpoints), st.sampled_from(endpoints)),
                          max_size=2))
    text = "".join(block for block, _ in blocks.values())
    for (from_cm, from_node), (to_cm, to_node) in links:
        text += f"link {from_cm}.{from_node} -> {to_cm}.{to_node};\n"
    return text


@settings(max_examples=150, deadline=None)
@given(tasc_texts())
def test_fmt_output_parses_back_to_the_same_set(text):
    result = dsl.parse(text)
    assert result.set is not None, [d.render() for d in result.diagnostics]
    canonical = dsl.serialize(result.set)
    reparsed = dsl.parse(canonical)
    assert reparsed.set == result.set, [d.render() for d in reparsed.diagnostics]
    assert dsl.serialize(reparsed.set) == canonical
