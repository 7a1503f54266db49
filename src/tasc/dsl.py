"""Text format for caremap sets: lexer, parser, canonical serializer.

Files use the `.tasc` extension, UTF-8, `#` line comments. A file holds any
number of `caremap "<id>" { ... }` blocks plus top-level `link` statements
joining an exit of one caremap to the entry of another.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

from tasc import criteria as C
from tasc.model import (
    ACTIVITY_KINDS,
    DECISION_KINDS,
    NESTED_KINDS,
    ActivityClass,
    Caremap,
    CaremapSet,
    ContentType,
    DecisionAspect,
    Duration,
    Edge,
    ModelError,
    MultiLevelLink,
    Node,
    NodeKind,
)

MAX_DIAGNOSTICS = 25
# each 'not' and each '(' in a criterion opens one level
MAX_CRITERION_DEPTH = 100

ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int  # 1-based
    column: int  # 1-based


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: Severity
    code: str
    message: str
    span: SourceSpan

    def render(self) -> str:
        s = self.span
        return f"{s.file}:{s.line}:{s.column}: {self.severity.value}[{self.code}]: {self.message}"


@dataclass
class ParseResult:
    set: Optional[CaremapSet]
    diagnostics: list[ParseDiagnostic]


class ParseFailure(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        super().__init__("\n".join(d.render() for d in diagnostics))
        self.diagnostics = diagnostics


# --- lexer ------------------------------------------------------------------

# One alternative per token class, tried in this order at each position. \d is
# decimal digits only, so other numeric characters such as '²' are not numbers;
# they are \w, so a word may start with one, and _tokenize rejects a word that
# does not start with a letter, '_' or '%' (criteria.starts_word). A decimal
# point that begins a '..' range operator is not part of the number. Words
# (criteria.WORD_PATTERN) cover identifiers and unit strings like mmol/L or
# kg/m2, and stop before '->'. A string ends on its line, even where the newline
# is escaped.
_TOKEN_RE = re.compile(
    r"""
    (?P<blank>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<newline>\n)
    | "(?P<string>(?:[^"\\\n]|\\.)*)"
    | (?P<date>\d{4}-\d{2}-\d{2}(?![\d.]))
    | (?P<number>-?\d+(?:\.\d+)?)
    | (?P<word>""" + C.WORD_PATTERN + r""")
    | (?P<symbol>->|\.\.|[<>=!]=|[{}\[\]();:,.<>])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)
_ESCAPE_RE = re.compile(r"\\(.)")


@dataclass(frozen=True)
class Token:
    kind: str  # word | string | number | date | symbol | eof
    text: str
    line: int
    column: int

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.column)


class _LexError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    last = None
    for last in _TOKEN_RE.finditer(text):
        kind = last.lastgroup
        if kind == "blank" or kind == "comment":
            continue
        if kind == "newline":
            line += 1
            line_start = last.end()
            continue
        start = last.start()
        col = start - line_start + 1
        if kind == "string":
            body = last.group("string")
            if "\\" in body:
                body = _ESCAPE_RE.sub(r"\1", body)
            tokens.append(Token("string", body, line, col))
            continue
        c = text[start]
        if kind == "bad" or (kind == "word" and not C.starts_word(c)):
            # a '"' is bad only where no closing quote follows on its line
            message = "unterminated string" if c == '"' else f"unexpected character {c!r}"
            raise _LexError(message, line, col)
        tokens.append(Token(kind, last.group(), line, col))
    # a comment does not advance the column, so an end of input right after one sits at its '#'
    end = last.start() if last is not None and last.lastgroup == "comment" else len(text)
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


# --- parser -----------------------------------------------------------------

# The keyword that declares each node kind, read by the parser and written by
# the serializer. A nested kind is 'nested' before its plain kind's keyword.
_KIND_KEYWORD = {
    NodeKind.ENTRY_POINT: "entry",
    NodeKind.EXIT_POINT: "exit",
    NodeKind.EXCLUSION_POINT: "exclusion",
    NodeKind.ACTIVITY: "activity",
    NodeKind.NESTED_ACTIVITY: "nested activity",
    NodeKind.DECISION: "decision",
    NodeKind.NESTED_DECISION: "nested decision",
}
_KIND_OF_KEYWORD = {keyword: kind for kind, keyword in _KIND_KEYWORD.items()}
_DECLARATION_WORDS = {keyword.split()[0] for keyword in _KIND_OF_KEYWORD}
# kinds whose declaration must carry a label string
_LABELLED_KINDS = ACTIVITY_KINDS | DECISION_KINDS
# the criterion connectives, loosest first
_CONNECTIVES = (("or", C.Or), ("and", C.And))

_CLASS_BY_NAME = {ac.value: ac for ac in ActivityClass}
_ASPECT_BY_NAME = {a.value: a for a in DecisionAspect}
_CONTENT_BY_NAME = {ct.value: ct for ct in ContentType}


class _Bail(Exception):
    """Stop after the diagnostic limit is hit."""


class _Resync(Exception):
    """Jump to the next statement boundary after a syntax error."""


@dataclass
class _RawEdge:
    from_id: str
    to_id: str
    criterion: Optional[C.Criterion]
    annotation: Optional[str]
    token: Token


class Parser:
    def __init__(self, text: str, filename: str = "<input>"):
        self.filename = filename
        self.diagnostics: list[ParseDiagnostic] = []
        self.pos = 0
        self._depth = 0  # criterion levels open at the cursor
        try:
            self.tokens = _tokenize(text)
        except _LexError as e:
            self.tokens = [Token("eof", "", e.line, e.column)]
            self._error("E-SYNTAX", e.message, Token("eof", "", e.line, e.column))

    # -- token plumbing

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        tok = self._peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _at_word(self, *words: str) -> bool:
        t = self._peek()
        return t.kind == "word" and t.text in words

    def _at_symbol(self, sym: str) -> bool:
        t = self._peek()
        return t.kind == "symbol" and t.text == sym

    def _expect(self, want: str, what: str = "string") -> Token:
        """Consume the token at the cursor, which must be the symbol `want`, a
        string (want "string") or an identifier (want "id"); `what` names a
        string or an identifier in the diagnostic."""
        t = self._peek()
        if want == "id":
            found = t.kind == "word" and ID_RE.match(t.text)
        elif want == "string":
            found = t.kind == "string"
        else:
            found, what = self._at_symbol(want), repr(want)
        if not found:
            self._error("E-SYNTAX", f"expected {what}, found {t.text or 'end of input'!r}", t)
            raise _Resync()
        return self._next()

    def _error(self, code: str, message: str, token: Token) -> None:
        self.diagnostics.append(
            ParseDiagnostic(Severity.ERROR, code, message, token.span(self.filename))
        )
        if len(self.diagnostics) >= MAX_DIAGNOSTICS:
            raise _Bail()

    def _resync_stmt(self) -> None:
        while True:
            t = self._peek()
            if t.kind == "eof":
                return
            if t.kind == "symbol" and t.text in (";", "}"):
                if t.text == ";":
                    self._next()
                return
            self._next()

    # -- grammar

    def parse(self) -> ParseResult:
        caremaps: list[Caremap] = []
        seen_ids: set[str] = set()
        links: list[MultiLevelLink] = []
        try:
            while self._peek().kind != "eof":
                if self._at_word("caremap"):
                    cm = self._parse_caremap()
                    if cm is not None:
                        if cm.id in seen_ids:
                            self._error("E-DUP", f"duplicate caremap id {cm.id!r}", self._peek())
                        else:
                            seen_ids.add(cm.id)
                            caremaps.append(cm)
                elif self._at_word("link"):
                    link = self._parse_link()
                    if link is not None:
                        links.append(link)
                else:
                    t = self._peek()
                    self._error(
                        "E-SYNTAX",
                        f"expected 'caremap' or 'link', found {t.text or 'end of input'!r}",
                        t,
                    )
                    # skip to the next top-level statement, so that one stray
                    # token (say a '}' that closed a caremap early) is one error
                    self._next()
                    while not (self._peek().kind == "eof" or self._at_word("caremap", "link")):
                        self._next()
        except _Bail:
            pass
        if any(d.severity is Severity.ERROR for d in self.diagnostics):
            return ParseResult(None, self.diagnostics)
        try:
            cmset = CaremapSet(tuple(caremaps), tuple(links))
        except ModelError as e:
            self.diagnostics.append(
                ParseDiagnostic(Severity.ERROR, "E-MODEL", str(e), SourceSpan(self.filename, 1, 1))
            )
            return ParseResult(None, self.diagnostics)
        return ParseResult(cmset, self.diagnostics)

    def _parse_link(self) -> Optional[MultiLevelLink]:
        try:
            self._next()  # link
            from_cm = self._expect("id", "caremap id").text
            self._expect(".")
            from_node = self._expect("id", "node id").text
            self._expect("->")
            to_cm = self._expect("id", "caremap id").text
            self._expect(".")
            to_node = self._expect("id", "node id").text
            if self._at_symbol(";"):
                self._next()
            return MultiLevelLink(from_cm, from_node, to_cm, to_node)
        except _Resync:
            self._resync_stmt()
            return None

    def _parse_caremap(self) -> Optional[Caremap]:
        self._next()  # caremap
        try:
            id_tok = self._expect("string", "caremap id string")
            if not ID_RE.match(id_tok.text):
                self._error("E-SYNTAX", f"caremap id {id_tok.text!r} is not a valid identifier", id_tok)
            self._expect("{")
        except _Resync:
            self._resync_stmt()
            return None
        cm_id = id_tok.text
        meta: dict[str, object] = {}  # Caremap field -> value
        nodes: list[Node] = []
        node_ids: dict[str, Token] = {}
        raw_edges: list[_RawEdge] = []

        while not self._at_symbol("}") and self._peek().kind != "eof":
            try:
                self._parse_stmt(meta, nodes, node_ids, raw_edges)
            except _Resync:
                self._resync_stmt()
        if self._at_symbol("}"):
            self._next()
        else:
            self._error("E-SYNTAX", "unclosed caremap block", self._peek())

        edges = self._finish_edges(cm_id, node_ids, raw_edges)
        self._check_decision_units(cm_id, nodes, edges)
        if any(d.severity is Severity.ERROR for d in self.diagnostics):
            return None
        try:
            return Caremap(id=cm_id, nodes=tuple(nodes), edges=edges, **meta)
        except ModelError as e:
            self._error("E-MODEL", str(e), id_tok)
            return None

    def _parse_stmt(self, meta, nodes, node_ids, raw_edges) -> None:
        t = self._peek()
        if t.kind == "word" and t.text in _META:
            self._parse_meta(meta)
        elif t.kind == "word" and t.text in _DECLARATION_WORDS:
            self._parse_decl(nodes, node_ids)
        elif t.kind == "word" and ID_RE.match(t.text):
            self._parse_edge(raw_edges)
        elif self._at_symbol(";"):
            self._next()
        else:
            self._error("E-SYNTAX", f"unexpected {t.text or 'end of input'!r} in caremap block", t)
            raise _Resync()

    def _parse_meta(self, meta: dict) -> None:
        key_tok = self._next()
        field_name, (read, _) = _META[key_tok.text]
        if field_name in meta:
            self._error("E-DUP", f"duplicate {key_tok.text!r} metadata", key_tok)
        meta[field_name] = read(self)
        self._terminate_stmt()

    def _read_string(self) -> str:
        return self._expect("string").text

    def _read_strings(self) -> tuple[str, ...]:
        strings = [self._read_string()]
        while self._at_symbol(","):
            self._next()
            strings.append(self._read_string())
        return tuple(strings)

    def _read_date(self) -> str:
        t = self._peek()
        if t.kind != "date":
            self._error("E-SYNTAX", f"expected ISO date (YYYY-MM-DD), found {t.text!r}", t)
            raise _Resync()
        return self._next().text

    def _read_version(self) -> int:
        t = self._peek()
        if t.kind != "number" or not t.text.isdigit() or int(t.text) < 1:
            self._error("E-SYNTAX", f"version must be an integer >= 1, found {t.text!r}", t)
            raise _Resync()
        return int(self._next().text)

    def _terminate_stmt(self) -> None:
        if self._at_symbol(";"):
            self._next()
        elif not self._at_symbol("}"):
            t = self._peek()
            self._error("E-SYNTAX", f"expected ';', found {t.text or 'end of input'!r}", t)
            raise _Resync()

    def _parse_decl(self, nodes: list[Node], node_ids: dict[str, Token]) -> None:
        kw_tok = self._next()
        keyword = kw_tok.text
        if keyword not in _KIND_OF_KEYWORD:  # the first of a two-word keyword
            seconds = [k.split()[1] for k in _KIND_OF_KEYWORD if k.startswith(keyword + " ")]
            if not self._at_word(*seconds):
                t = self._peek()
                expected = " or ".join(map(repr, seconds))
                self._error("E-SYNTAX", f"expected {expected} after {keyword!r}, found {t.text!r}", t)
                raise _Resync()
            kw_tok = self._next()
            keyword += " " + kw_tok.text
        kind = _KIND_OF_KEYWORD[keyword]
        id_tok = self._expect("id", "node id")
        label = ""
        if self._peek().kind == "string":
            label = self._next().text
        elif kind in _LABELLED_KINDS:
            t = self._peek()
            self._error("E-SYNTAX", f"{kw_tok.text} {id_tok.text!r} needs a label string", t)
            raise _Resync()
        nested_ref = None
        if kind in NESTED_KINDS:
            if not self._at_word("ref"):
                t = self._peek()
                self._error("E-SYNTAX", f"{keyword} needs 'ref <caremap-id>'", t)
                raise _Resync()
            self._next()
            nested_ref = self._expect("id", "caremap id").text
        content_type, activity_class, aspect, duration, annotation = self._parse_tags(kind, id_tok)
        self._terminate_stmt()

        if id_tok.text in node_ids:
            self._error("E-DUP", f"duplicate node id {id_tok.text!r}", id_tok)
            return
        node_ids[id_tok.text] = id_tok
        try:
            nodes.append(
                Node(
                    id=id_tok.text,
                    kind=kind,
                    label=label,
                    content_type=content_type,
                    activity_class=activity_class,
                    aspect=aspect,
                    nested_ref=nested_ref,
                    duration=duration,
                    annotation=annotation,
                )
            )
        except ModelError as e:
            self._error("E-MODEL", str(e), id_tok)

    def _parse_tags(self, kind: NodeKind, id_tok: Token):
        content_type = activity_class = aspect = duration = annotation = None
        while self._at_symbol("["):
            open_tok = self._next()
            t = self._peek()
            if t.kind == "word" and t.text in _CONTENT_BY_NAME:
                if content_type is not None:
                    self._error("E-DUP", "duplicate content-type tag", t)
                content_type = _CONTENT_BY_NAME[self._next().text]
            elif self._at_word("aspect"):
                self._next()
                self._expect(":")
                name_tok = self._expect("id", "decision aspect")
                if name_tok.text not in _ASPECT_BY_NAME:
                    self._error(
                        "E-TAG",
                        f"unknown aspect {name_tok.text!r}; expected one of {sorted(_ASPECT_BY_NAME)}",
                        name_tok,
                    )
                else:
                    aspect = _ASPECT_BY_NAME[name_tok.text]
            elif self._at_word("class"):
                self._next()
                self._expect(":")
                t2 = self._peek()
                if t2.kind == "string":
                    activity_class = self._next().text  # free-text class
                else:
                    name_tok = self._expect("id", "activity class")
                    if name_tok.text in _CLASS_BY_NAME:
                        activity_class = _CLASS_BY_NAME[name_tok.text]
                    else:
                        self._error(
                            "E-TAG",
                            f"unknown activity class {name_tok.text!r}; quote it for a free-text class",
                            name_tok,
                        )
            elif self._at_word("duration"):
                self._next()
                self._expect(":")
                num_tok = self._peek()
                if num_tok.kind != "number":
                    self._error("E-SYNTAX", f"expected duration value, found {num_tok.text!r}", num_tok)
                    raise _Resync()
                self._next()
                unit_tok = self._peek()
                if unit_tok.kind != "word":
                    self._error("E-SYNTAX", "duration needs a unit word", unit_tok)
                    raise _Resync()
                self._next()
                try:
                    duration = Duration(float(num_tok.text), unit_tok.text)
                except ModelError as e:  # a negative value
                    self._error("E-MODEL", str(e), num_tok)
            elif self._at_word("note"):
                self._next()
                self._expect(":")
                annotation = self._expect("string").text
            else:
                self._error("E-TAG", f"unknown tag {t.text!r}", t if t.kind != "eof" else open_tok)
                raise _Resync()
            self._expect("]")
        return content_type, activity_class, aspect, duration, annotation

    def _parse_edge(self, raw_edges: list[_RawEdge]) -> None:
        from_tok = self._expect("id", "node id")
        self._expect("->")
        to_tok = self._expect("id", "node id")
        criterion: Optional[C.Criterion] = None
        if self._at_word("when"):
            self._next()
            self._depth = 0  # a syntax error inside the last criterion left its levels open
            criterion = self._parse_chain()
        elif self._at_word("otherwise"):
            self._next()
            criterion = C.OTHERWISE
        annotation = None
        if self._at_word("note"):
            self._next()
            annotation = self._expect("string").text
        self._terminate_stmt()
        raw_edges.append(_RawEdge(from_tok.text, to_tok.text, criterion, annotation, from_tok))

    # criterion grammar: or > and > not > atom
    def _parse_chain(self, level: int = 0) -> C.Criterion:
        """Parse a chain of the connective at `level` in _CONNECTIVES, or below the last a 'not'."""
        if level == len(_CONNECTIVES):
            return self._parse_not()
        word, connective = _CONNECTIVES[level]
        parts: list[C.Criterion] = []
        while True:
            part = self._parse_chain(level + 1)
            # '(a and b) and c' is the chain 'a and b and c', as its canonical text says
            parts += part.children if isinstance(part, connective) else (part,)
            if not self._at_word(word):
                return parts[0] if len(parts) == 1 else connective(tuple(parts))
            self._next()

    def _open_level(self) -> None:
        """Consume the 'not' or '(' at the cursor, which opens a criterion level."""
        self._depth += 1
        if self._depth > MAX_CRITERION_DEPTH:
            self._error("E-SYNTAX", "criterion nested too deeply", self._peek())
            raise _Resync()
        self._next()

    def _parse_not(self) -> C.Criterion:
        if self._at_word("not"):
            self._open_level()
            inner = C.Not(self._parse_not())
            self._depth -= 1
            return inner
        return self._parse_atom()

    def _parse_atom(self) -> C.Criterion:
        t = self._peek()
        if self._at_symbol("("):
            self._open_level()
            inner = self._parse_chain()
            self._expect(")")
            self._depth -= 1
            return inner
        if self._at_word("otherwise"):
            self._error("E-SYNTAX", "'otherwise' cannot be nested inside a criterion", t)
            raise _Resync()
        name_tok = self._expect("id", "variable or predicate name")
        if self._at_symbol("("):
            self._next()
            args: list[C.Literal] = []
            if not self._at_symbol(")"):
                args.append(self._parse_literal())
                while self._at_symbol(","):
                    self._next()
                    args.append(self._parse_literal())
            self._expect(")")
            if not C.has_predicate(name_tok.text):
                self._error("E-UNDEF", f"unknown predicate {name_tok.text!r}", name_tok)
            elif not args:
                self._error(
                    "E-UNDEF", f"predicate {name_tok.text!r} needs a variable argument", name_tok
                )
            return C.Predicate(name_tok.text, tuple(args))
        if self._at_word("in"):
            self._next()
            low = self._parse_number()
            self._expect("..")
            high = self._parse_number()
            unit = self._parse_unit()
            return C.InRange(name_tok.text, low, high, unit)
        op_tok = self._peek()
        if op_tok.kind == "symbol" and op_tok.text in ("<", "<=", ">", ">=", "==", "!="):
            self._next()
            val_tok = self._peek()
            if val_tok.kind == "number":
                value: C.Literal = self._parse_number()
                unit = self._parse_unit()
            elif val_tok.kind in ("word", "string"):
                if op_tok.text not in ("==", "!="):
                    self._error("E-SYNTAX", "categorical values allow only == and !=", val_tok)
                    raise _Resync()
                value = self._next().text
                unit = None
            else:
                self._error("E-SYNTAX", f"expected comparison value, found {val_tok.text!r}", val_tok)
                raise _Resync()
            return C.Comparison(name_tok.text, op_tok.text, value, unit)
        self._error("E-SYNTAX", f"expected comparison, 'in', or '(', found {op_tok.text!r}", op_tok)
        raise _Resync()

    def _parse_number(self) -> float:
        t = self._peek()
        if t.kind != "number":
            self._error("E-SYNTAX", f"expected number, found {t.text or 'end of input'!r}", t)
            raise _Resync()
        self._next()
        return float(t.text)

    def _parse_unit(self) -> Optional[str]:
        t = self._peek()
        if t.kind == "word" and t.text not in ("and", "or", "not", "when", "otherwise", "note", "in"):
            self._next()
            return t.text
        return None

    def _parse_literal(self) -> C.Literal:
        t = self._peek()
        if t.kind == "number":
            self._next()
            f = float(t.text)
            return int(f) if f == int(f) else f
        if t.kind in ("word", "string"):
            self._next()
            return t.text
        self._error("E-SYNTAX", f"expected literal, found {t.text or 'end of input'!r}", t)
        raise _Resync()

    # -- post-parse assembly

    def _finish_edges(
        self, cm_id: str, node_ids: dict[str, Token], raw_edges: list[_RawEdge]
    ) -> tuple[Edge, ...]:
        edges: list[Edge] = []
        groups: dict[tuple[str, str], list[_RawEdge]] = {}
        for raw in raw_edges:
            bad = False
            for end in (raw.from_id, raw.to_id):
                if end not in node_ids:
                    self._error("E-UNDEF", f"edge references undeclared node {end!r}", raw.token)
                    bad = True
            if not bad:
                groups.setdefault((raw.from_id, raw.to_id), []).append(raw)
        for (from_id, to_id), group in groups.items():
            # edge ids derive from content so canonical output is independent
            # of declaration order
            group.sort(key=lambda r: C.criterion_text(r.criterion) if r.criterion else "")
            seen: set[str] = set()
            for k, raw in enumerate(group):
                key = C.criterion_text(raw.criterion) if raw.criterion else ""
                if key in seen:
                    self._error(
                        "E-DUP",
                        f"duplicate edge {from_id} -> {to_id}"
                        + (f" with criterion {key!r}" if key else ""),
                        raw.token,
                    )
                    continue
                seen.add(key)
                edge_id = f"{from_id}->{to_id}" if k == 0 else f"{from_id}->{to_id}#{k + 1}"
                edges.append(Edge(edge_id, from_id, to_id, raw.criterion, raw.annotation))
        edges.sort(key=lambda e: e.id)
        return tuple(edges)

    def _check_decision_units(self, cm_id: str, nodes: list[Node], edges: tuple[Edge, ...]) -> None:
        decision_ids = {n.id for n in nodes if n.kind in DECISION_KINDS}
        units_by_decision: dict[str, dict[str, str]] = {}
        for e in edges:
            if e.from_id not in decision_ids or e.criterion is None:
                continue
            units = units_by_decision.setdefault(e.from_id, {})
            for atom in C.atoms(e.criterion):
                if isinstance(atom, C.Predicate) or atom.unit is None:
                    continue
                var, unit = atom.var, atom.unit
                if var in units and units[var] != unit:
                    self._error(
                        "E-UNIT",
                        f"decision {e.from_id!r}: variable {var!r} compared in both "
                        f"{units[var]!r} and {unit!r}",
                        Token("word", var, 1, 1),
                    )
                else:
                    units[var] = unit


# How the parser reads and the serializer writes each form of metadata value.
_STRING = (Parser._read_string, C.quote)
_STRINGS = (Parser._read_strings, lambda strings: ", ".join(map(C.quote, strings)))
_DATE = (Parser._read_date, str)
_VERSION = (Parser._read_version, str)

# Caremap metadata statements in canonical order: keyword -> (Caremap field,
# value form).
_META = {
    "title": ("title", _STRING),
    "scenario": ("scenario", _STRING),
    "date": ("date", _DATE),
    "version": ("version", _VERSION),
    "team": ("team", _STRING),
    "evidence": ("evidence_refs", _STRINGS),
    "variance_log": ("variance_log_ref", _STRING),
}


def parse(text: str, filename: str = "<input>") -> ParseResult:
    return Parser(text, filename).parse()


def parse_or_raise(text: str, filename: str = "<input>") -> CaremapSet:
    result = parse(text, filename)
    if result.set is None:
        raise ParseFailure([d for d in result.diagnostics if d.severity is Severity.ERROR])
    return result.set


# --- canonical serializer ---------------------------------------------------

# a metadata field is written where it differs from its default
_CAREMAP_DEFAULTS = {f.name: f.default for f in fields(Caremap)}


def _node_line(n: Node) -> str:
    parts = [_KIND_KEYWORD[n.kind], n.id]
    if n.label or n.kind in _LABELLED_KINDS:
        parts.append(C.quote(n.label))
    if n.nested_ref:
        parts.append(f"ref {n.nested_ref}")
    if n.content_type:
        parts.append(f"[{n.content_type.value}]")
    if n.activity_class is not None:
        if isinstance(n.activity_class, ActivityClass):
            parts.append(f"[class: {n.activity_class.value}]")
        else:
            parts.append(f"[class: {C.quote(n.activity_class)}]")
    if n.aspect:
        parts.append(f"[aspect: {n.aspect.value}]")
    if n.duration:
        parts.append(f"[duration: {C.format_number(n.duration.value)} {n.duration.unit}]")
    if n.annotation is not None:
        parts.append(f"[note: {C.quote(n.annotation)}]")
    return " ".join(parts) + ";"


def _edge_line(e: Edge) -> str:
    parts = [f"{e.from_id} -> {e.to_id}"]
    if isinstance(e.criterion, C.Otherwise):
        parts.append("otherwise")
    elif e.criterion is not None:
        parts.append(f"when {C.criterion_text(e.criterion)}")
    if e.annotation is not None:
        parts.append(f"note {C.quote(e.annotation)}")
    return " ".join(parts) + ";"


def serialize(cmset: CaremapSet) -> str:
    """Canonical text form: stable ordering, fixed indentation, idempotent.

    Caremaps, nodes, edges and links are already stored in canonical order.
    """
    lines: list[str] = []
    for cm in cmset.caremaps:
        lines.append(f"caremap {C.quote(cm.id)} {{")
        for keyword, (field_name, (_, write)) in _META.items():
            value = getattr(cm, field_name)
            if value != _CAREMAP_DEFAULTS[field_name]:
                lines.append(f"  {keyword} {write(value)};")
        for n in cm.nodes:
            lines.append("  " + _node_line(n))
        for e in cm.edges:
            lines.append("  " + _edge_line(e))
        lines.append("}")
        lines.append("")
    for link in cmset.links:
        lines.append(
            f"link {link.from_caremap}.{link.from_exit_node} -> "
            f"{link.to_caremap}.{link.to_entry_node};"
        )
    if lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
