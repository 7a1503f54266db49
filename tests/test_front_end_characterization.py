"""Characterization of the front end: lexer, parser, serializer, validator, compile_stm.

Each section is one sha256 over JSON lines:

- ``tokens``: ``dsl._tokenize`` of every file in ``corpus/`` and
  ``tests/fixtures/``, and of seeded random strings built from fragments
  that reach every lexer branch and quirk (``²`` and ``½`` are ``\\w`` but
  not letters, ``\\r`` is a blank, ``\\x0c`` is not, escapes and newlines in
  strings, dates next to numbers and ``..``, and a final comment with no
  newline). A line holds every token's (kind, text, line, column), or the
  ``_LexError``'s (message, line, column).
- ``front_end``: the rendered parse diagnostics, the ``serialize`` output
  and the ``validate`` diagnostics (default and strict) of every corpus and
  fixture file.
- ``parse_errors``: the rendered parse diagnostics, and the ``serialize``
  output where the text parses, of seeded random statement sequences: whole
  and cut-short statements, declarations and criteria, chosen so that every
  reachable diagnostic site of the parser fires. Their literals are ones
  whose canonical text does not depend on how ``fmt`` writes exponents or
  quotes.
- ``compile``: the ``compile_stm`` outcome (error type and message, or
  provenance) for labour_birth with its ingested model, and for maps that
  do and do not escape their loops with positive probability.

The digests were computed with the lexer that walked the text one
character at a time and the graph searches written out in each module, so
they pin the outputs across the move to one token pattern and one
reachability search. The ``parse_errors`` digest was computed with the
parser and the serializer that each spelled out every construct, so it pins
the diagnostics across the move to one syntax table read both ways. It was
recomputed once since, when the parser began to skip from a stray top-level
token to the next ``caremap`` or ``link`` word, so that a stray token gives
one diagnostic rather than one per token that follows it.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter

from tasc import dsl, ingest
from tasc.synthesis import (
    Categorical,
    EdgeProbabilities,
    TransitionModel,
    VariableSampler,
    compile_stm,
)
from tasc.validator import ValidatorConfig, validate

from conftest import CORPUS, FIXTURES, ROOT

PINNED = {
    "tokens": "37d68b69bf803ffc8941d03cf99a741d7d991125744ff9ca2ca5a2a6c424d8b7",
    "front_end": "6445971fcc295b73d00f10b6ea422b5f0b19f3e7751662b845aba7e2bd896a7e",
    "parse_errors": "3837c32bbb84569375f02aa6559b7d9680cd01d781ff83d4fe7d4506aeabe2a9",
    "compile": "4f5a383160503a86952751b7fce5aa385137c46e1ff6569c26fee77fd724a8be",
}

RANDOM_STRINGS = 20_000

_FRAGMENTS = (
    "a", "Z", "_x", "é", "²", "½", "0", "7", "12", "3.5", "-", "-4", "->", "..", ".",
    "1..5", "2024-01-31", "2024-01-3", "%", "mmol/L", "kg/m2", "w-", " ", "\t", "\r",
    "\n", "\x0c", "\\", '"', '"ab"', '"a\\"b"', "#", "# note", "{", "}", "[", "]", "(",
    ")", ";", ":", ",", "<", "<=", ">", ">=", "=", "==", "!", "!=", "/", "caremap",
    "not", "when", "x",
)


def _files():
    for path in sorted(CORPUS.iterdir()) + sorted(FIXTURES.iterdir()):
        if path.is_file():
            yield path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8")


def _random_strings():
    rng = random.Random(23)
    for _ in range(RANDOM_STRINGS):
        text = "".join(rng.choices(_FRAGMENTS, k=rng.randrange(12)))
        if rng.random() < 0.1:
            text += "# final comment"
        yield text


def _tokens(text: str) -> list:
    try:
        return [[t.kind, t.text, t.line, t.column] for t in dsl._tokenize(text)]
    except dsl._LexError as e:
        return ["error", e.message, e.line, e.column]


def token_lines():
    for name, text in _files():
        yield json.dumps([name, _tokens(text)], ensure_ascii=False)
    for text in _random_strings():
        yield json.dumps([text, _tokens(text)], ensure_ascii=False)


def front_end_lines():
    for name, text in _files():
        result = dsl.parse(text, name)
        out = {"diagnostics": [d.render() for d in result.diagnostics]}
        if result.set is not None:
            out["serialize"] = dsl.serialize(result.set)
            for strict in (False, True):
                out[f"validate_strict_{strict}"] = [
                    d.as_dict() for d in validate(result.set, ValidatorConfig(strict=strict))
                ]
        yield json.dumps([name, out], ensure_ascii=False, sort_keys=True)


PARSE_TEXTS = 3000

# Statements that parse where the declarations are in scope, and statements
# that each reach one diagnostic site.
_GOOD = (
    '} caremap "m" {', "link m.e -> n.s;", 'title "T";', 'scenario "S";', "date 2024-01-31;",
    "version 2;", 'team "t";', 'evidence "a", "b";', 'variance_log "v";', 'exclusion x "X";',
    'nested activity n "N" ref m;',
    'activity t "T" [class: set_goals] [treatment] [duration: 2.5 h] [note: "n"];',
    'decision r "R?" [aspect: prognosis] [class: "free"];', "s -> a;", "a -> d;",
    "d -> a otherwise;", 'a -> d note "why";', "d -> e when count_above(x, 3, 2);",
    "d -> e when x in 1..5 mg;", "d -> e when mode == high;", ";",
    "d -> e when (x > 1 or y < 2) and not z != 0;",
    "d -> e when x > 1 mg or y == z; d -> a when x < 1 g;",
)
_DECLARATIONS = 'entry s; exit e; activity a "A"; decision d "D?";'
_BAD = (
    'caremap "n" {', 'caremap "1x" {', "caremap", "link", "link m.", "link 5", "title", "title x;",
    "date 2024-01-3", "version 0", 'evidence "a",', "activity a;", 'activity b "B" [aspect: therapy];',
    'activity c "C" [diagnosis] [treatment];', 'activity g "G" [class: bogus];',
    'activity h "H" [duration: soon];', 'activity u "U" [duration: 5];', 'activity k "K" [bogus];',
    'decision f "F?" [aspect: x];', "nested", 'nested decision q "Q?"', "ref", "[class:",
    "[aspect: x]", "[duration: 5]", "[note:", "[", "s -> ghost;", "d -> e when", "when", "otherwise",
    "d -> e when " + "not " * 101 + "x > 1;", "d -> e when not otherwise;",
    "d -> e when foo(x, 1);", "d -> e when consecutive_above();", "d -> e when count_above(x,;",
    "d -> e when x > high;", "d -> e when x ==;", "d -> e when x in a..b;", "d -> e when x;",
    "entry s;", 'activity a "A";', 'title "T" "U";', "}", "->", "x", "5", "# c", '"open', "@",
)


def _statement_texts():
    rng = random.Random(26)
    for _ in range(PARSE_TEXTS):
        parts = [
            rng.choice(_GOOD if rng.random() < 0.85 else _BAD) for _ in range(rng.randrange(1, 12))
        ]
        if rng.random() < 0.7:
            parts.insert(0, _DECLARATIONS)
        if rng.random() < 0.8:
            parts.insert(0, 'caremap "m" {')
        if rng.random() < 0.6:
            parts.append("}")
        yield rng.choice((" ", "\n")).join(parts)


def parse_error_lines():
    for text in _statement_texts():
        result = dsl.parse(text, "p.tasc")
        out = {"diagnostics": [d.render() for d in result.diagnostics]}
        if result.set is not None:
            out["serialize"] = dsl.serialize(result.set)
        yield json.dumps([text, out], ensure_ascii=False, sort_keys=True)


# Each diagnostic site of the parser as (code, message pattern). Two sites
# never fire, so they are not listed: the E-MODEL of building a Caremap and
# that of building the CaremapSet. The parser rejects everything they check
# first (duplicate node and edge ids, edges to undeclared nodes, versions
# below 1, duplicate caremap ids).
_SITES = {
    "lexer": ("E-SYNTAX", r"unterminated string|unexpected character .*"),
    "top-level": ("E-SYNTAX", r"expected 'caremap' or 'link', found .*"),
    "duplicate-caremap": ("E-DUP", r"duplicate caremap id .*"),
    "symbol": ("E-SYNTAX", r"expected '(\.|->|\{|:|\]|\)|\.\.)', found .*"),
    "identifier": (
        "E-SYNTAX",
        r"expected (caremap id|node id|decision aspect|activity class"
        r"|variable or predicate name), found .*",
    ),
    "string": ("E-SYNTAX", r"expected (string|caremap id string), found .*"),
    "caremap-id": ("E-SYNTAX", r"caremap id .* is not a valid identifier"),
    "unclosed": ("E-SYNTAX", r"unclosed caremap block"),
    "statement": ("E-SYNTAX", r"unexpected .* in caremap block"),
    "duplicate-metadata": ("E-DUP", r"duplicate '\w+' metadata"),
    "date": ("E-SYNTAX", r"expected ISO date \(YYYY-MM-DD\), found .*"),
    "version": ("E-SYNTAX", r"version must be an integer >= 1, found .*"),
    "terminator": ("E-SYNTAX", r"expected ';', found .*"),
    "nested-kind": ("E-SYNTAX", r"expected 'activity' or 'decision' after 'nested', found .*"),
    "label": ("E-SYNTAX", r"\w+ '\w+' needs a label string"),
    "nested-ref": ("E-SYNTAX", r"nested (activity|decision) needs 'ref <caremap-id>'"),
    "duplicate-node": ("E-DUP", r"duplicate node id .*"),
    "node-model": ("E-MODEL", r"node .*"),
    "duplicate-content": ("E-DUP", r"duplicate content-type tag"),
    "aspect": ("E-TAG", r"unknown aspect .*"),
    "class": ("E-TAG", r"unknown activity class .*; quote it for a free-text class"),
    "duration-value": ("E-SYNTAX", r"expected duration value, found .*"),
    "duration-unit": ("E-SYNTAX", r"duration needs a unit word"),
    "tag": ("E-TAG", r"unknown tag .*"),
    "depth": ("E-SYNTAX", r"criterion nested too deeply"),
    "otherwise": ("E-SYNTAX", r"'otherwise' cannot be nested inside a criterion"),
    "predicate": ("E-UNDEF", r"unknown predicate .*"),
    "predicate-args": ("E-UNDEF", r"predicate .* needs a variable argument"),
    "categorical": ("E-SYNTAX", r"categorical values allow only == and !="),
    "comparison-value": ("E-SYNTAX", r"expected comparison value, found .*"),
    "comparison": ("E-SYNTAX", r"expected comparison, 'in', or '\(', found .*"),
    "number": ("E-SYNTAX", r"expected number, found .*"),
    "literal": ("E-SYNTAX", r"expected literal, found .*"),
    "undeclared": ("E-UNDEF", r"edge references undeclared node .*"),
    "duplicate-edge": ("E-DUP", r"duplicate edge .*"),
    "unit": ("E-UNIT", r"decision .* compared in both .*"),
}
_DIAGNOSTIC = re.compile(r"p\.tasc:\d+:\d+: error\[([\w-]+)\]: (.*)", re.S)


_LOOP = (
    'caremap "m" { entry s; exit e; activity a "A"; decision d "Again?"; '
    "s -> a; a -> d; d -> a when x > 0; d -> e otherwise; }"
)

# Two loops in a row, the second also closed by an activity fan-out: whether
# each node escapes depends on edge_probs on the decisions and the activity.
_TWO_LOOPS = (
    'caremap "m" { entry s; exit e; exclusion x;\n'
    '  activity a "A"; activity b "B"; activity c "C";\n'
    '  decision d "D?"; decision f "F?";\n'
    "  s -> a; a -> d; d -> a when v > 0; d -> b otherwise;\n"
    "  b -> f; f -> b when w > 0; f -> c otherwise; c -> b; c -> e; c -> x; }"
)

# The entry map nests a map whose loop only a categorical sampler leaves; a
# value of probability 0 is no way out.
_NESTED = (
    'caremap "top" { entry s; exit e; nested activity n "N" ref inner; s -> n; n -> e; }\n'
    'caremap "inner" { entry s; exit e; activity a "A"; decision d "D?";\n'
    "  s -> a; a -> d; d -> a when k == more; d -> e otherwise; }"
)


def _probs(*pairs):
    return TransitionModel(tuple((state, EdgeProbabilities(probs)) for state, probs in pairs))


def _compile_cases():
    labour = dsl.parse_or_raise((CORPUS / "labour_birth.tasc").read_text(encoding="utf-8"))
    counts = (CORPUS / "labour_birth_counts.csv").read_text(encoding="utf-8")
    yield "labour_birth", labour, "labour_birth", ingest.derive_model(ingest.read_rows(counts), labour)

    loop = dsl.parse_or_raise(_LOOP)
    yield "loop-trapped", loop, "m", _probs(("m.d", (("d->a", 1.0), ("d->e", 0.0))))
    yield "loop-escapes", loop, "m", _probs(("m.d", (("d->a", 0.4), ("d->e", 0.6))))
    # edge_probs on a node with one out-edge is not checked for mass, but a
    # zero there still cuts the escape
    yield "loop-single-edge-zero", loop, "m", _probs(
        ("m.d", (("d->a", 0.4), ("d->e", 0.6))), ("m.a", (("a->d", 0.0),))
    )

    two = dsl.parse_or_raise(_TWO_LOOPS)
    for name, d, f, c in [
        ("two-escape", (0.5, 0.5), (0.5, 0.5), (0.2, 0.4, 0.4)),
        ("two-first-trapped", (1.0, 0.0), (0.5, 0.5), (0.2, 0.4, 0.4)),
        ("two-second-trapped", (0.5, 0.5), (1.0, 0.0), (0.2, 0.4, 0.4)),
        ("two-exclusion-only", (0.2, 0.8), (0.2, 0.8), (0.0, 0.0, 1.0)),
        ("two-activity-trapped", (0.2, 0.8), (0.2, 0.8), (1.0, 0.0, 0.0)),
    ]:
        model = _probs(
            ("m.d", (("d->a", d[0]), ("d->b", d[1]))),
            ("m.f", (("f->b", f[0]), ("f->c", f[1]))),
            ("m.c", (("c->b", c[0]), ("c->e", c[1]), ("c->x", c[2]))),
        )
        yield name, two, "m", model

    nested = dsl.parse_or_raise(_NESTED)
    for name, probs in [("nested-escapes", (0.7, 0.3)), ("nested-sampler-never-leaves", (1.0, 0.0))]:
        model = TransitionModel(
            (("inner.d", VariableSampler("k", Categorical(("more", "stop"), probs))),)
        )
        yield name, nested, "top", model
    yield "nested-trapped", nested, "top", _probs(("inner.d", (("d->a", 1.0), ("d->e", 0.0))))


def compile_lines():
    for name, cmset, entry, model in _compile_cases():
        try:
            out = dict(compile_stm(cmset, entry, model).provenance)
        except Exception as e:  # the raise point is part of the behaviour
            out = [type(e).__name__, str(e)]
        yield json.dumps([name, out], sort_keys=True)


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_tokens_characterization():
    errors = set()
    kinds = set()
    for text in _random_strings():
        out = _tokens(text)
        if out[0] == "error":
            errors.add(out[1])
        else:
            kinds.update(t[0] for t in out)
    # every lexer outcome the digest should pin is present in the inputs
    assert kinds == {"word", "string", "number", "date", "symbol", "eof"}
    assert {"unterminated string", "unexpected character '²'", "unexpected character '½'",
            "unexpected character '\\x0c'", "unexpected character '\\\\'"} <= errors
    assert _digest(token_lines()) == PINNED["tokens"]


def test_front_end_characterization():
    assert _digest(front_end_lines()) == PINNED["front_end"]


def test_compile_characterization():
    outcomes = [json.loads(line)[1] for line in compile_lines()]
    assert {o[0] for o in outcomes if isinstance(o, list)} == {"InescapableCycle"}
    assert _digest(compile_lines()) == PINNED["compile"]


def test_parse_errors_characterization():
    lines = list(parse_error_lines())
    fired = Counter()
    for line in lines:
        for rendered in json.loads(line)[1]["diagnostics"]:
            code, message = _DIAGNOSTIC.fullmatch(rendered).groups()
            [site] = [
                site for site, (c, pattern) in _SITES.items()
                if c == code and re.fullmatch(pattern, message, re.S)
            ]
            fired[site] += 1
    assert set(fired) == set(_SITES)
    assert _digest(lines) == PINNED["parse_errors"]
