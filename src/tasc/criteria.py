"""Decision-criterion expressions and their three-valued evaluation."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import Callable, Iterator, Optional, Union


class Tri(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class UnitMismatch(ValueError):
    def __init__(self, var: str, expected: str, found: str):
        super().__init__(f"unit mismatch on {var!r}: criterion says {expected!r}, binding has {found!r}")
        self.var = var
        self.expected = expected
        self.found = found

    def __reduce__(self):  # pool workers send it back pickled
        return type(self), (self.var, self.expected, self.found)


class UnknownPredicate(KeyError):
    pass


Literal = Union[float, int, str]


@dataclass(frozen=True)
class Comparison:
    var: str
    op: str  # < <= > >= == !=
    value: Literal
    unit: Optional[str] = None


@dataclass(frozen=True)
class InRange:
    var: str
    low: float
    high: float
    unit: Optional[str] = None


@dataclass(frozen=True)
class Predicate:
    name: str
    args: tuple[Literal, ...]


@dataclass(frozen=True)
class And:
    children: tuple["Criterion", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Criterion", ...]


@dataclass(frozen=True)
class Not:
    child: "Criterion"


@dataclass(frozen=True)
class Otherwise:
    """Default branch marker; only valid as an entire criterion."""


Criterion = Union[Comparison, InRange, Predicate, And, Or, Not, Otherwise]

OTHERWISE = Otherwise()


@dataclass(frozen=True)
class Binding:
    value: Literal
    unit: Optional[str] = None
    history: tuple[Literal, ...] = ()  # prior values, oldest first

    def series(self) -> tuple[Literal, ...]:
        """Full observation sequence including the current value."""
        return self.history + (self.value,)


Bindings = dict[str, Binding]


def bind(bindings: Bindings, var: str, value: Literal, unit: Optional[str] = None) -> Bindings:
    """Return new bindings with value appended to var's history."""
    out = dict(bindings)
    prev = bindings.get(var)
    if prev is None:
        out[var] = Binding(value, unit)
    else:
        out[var] = Binding(value, unit if unit is not None else prev.unit, prev.series())
    return out


# --- predicate registry -----------------------------------------------------
#
# Temporal clauses ("on N consecutive occasions") are named predicates over a
# variable's observation history. All threshold comparisons are strict.

PredicateFn = Callable[[Binding, tuple[Literal, ...]], bool]

_PREDICATES: dict[str, PredicateFn] = {}


def register_predicate(name: str, fn: PredicateFn) -> None:
    _PREDICATES[name] = fn


def has_predicate(name: str) -> bool:
    return name in _PREDICATES


def _consecutive_above(binding: Binding, args: tuple[Literal, ...]) -> bool:
    threshold, n = float(args[0]), int(args[1])
    run = 0
    for v in binding.series():
        run = run + 1 if float(v) > threshold else 0
        if run >= n:
            return True
    return False


def _consecutive_below(binding: Binding, args: tuple[Literal, ...]) -> bool:
    threshold, n = float(args[0]), int(args[1])
    run = 0
    for v in binding.series():
        run = run + 1 if float(v) < threshold else 0
        if run >= n:
            return True
    return False


def _count_above(binding: Binding, args: tuple[Literal, ...]) -> bool:
    threshold, n = float(args[0]), int(args[1])
    return sum(1 for v in binding.series() if float(v) > threshold) >= n


register_predicate("consecutive_above", _consecutive_above)
register_predicate("consecutive_below", _consecutive_below)
register_predicate("count_above", _count_above)


def _check_unit(var: str, expected: Optional[str], binding: Binding) -> None:
    if expected is not None and binding.unit is not None and binding.unit != expected:
        raise UnitMismatch(var, expected, binding.unit)


def _compare(op: str, left: Literal, right: Literal) -> bool:
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    lf, rf = float(left), float(right)
    return {"<": lf < rf, "<=": lf <= rf, ">": lf > rf, ">=": lf >= rf}[op]


def evaluate(criterion: Criterion, bindings: Bindings) -> Tri:
    """Kleene three-valued evaluation; unbound variables yield UNKNOWN.

    Otherwise alone evaluates FALSE here; its selection semantics live in
    select_branch.
    """
    if isinstance(criterion, Otherwise):
        return Tri.FALSE
    if isinstance(criterion, Comparison):
        b = bindings.get(criterion.var)
        if b is None:
            return Tri.UNKNOWN
        _check_unit(criterion.var, criterion.unit, b)
        return Tri.TRUE if _compare(criterion.op, b.value, criterion.value) else Tri.FALSE
    if isinstance(criterion, InRange):
        b = bindings.get(criterion.var)
        if b is None:
            return Tri.UNKNOWN
        _check_unit(criterion.var, criterion.unit, b)
        v = float(b.value)
        return Tri.TRUE if criterion.low <= v <= criterion.high else Tri.FALSE
    if isinstance(criterion, Predicate):
        if criterion.name not in _PREDICATES:
            raise UnknownPredicate(criterion.name)
        var = str(criterion.args[0])
        b = bindings.get(var)
        if b is None:
            return Tri.UNKNOWN
        return Tri.TRUE if _PREDICATES[criterion.name](b, criterion.args[1:]) else Tri.FALSE
    if isinstance(criterion, And):
        saw_unknown = False
        for child in criterion.children:
            r = evaluate(child, bindings)
            if r is Tri.FALSE:
                return Tri.FALSE
            if r is Tri.UNKNOWN:
                saw_unknown = True
        return Tri.UNKNOWN if saw_unknown else Tri.TRUE
    if isinstance(criterion, Or):
        saw_unknown = False
        for child in criterion.children:
            r = evaluate(child, bindings)
            if r is Tri.TRUE:
                return Tri.TRUE
            if r is Tri.UNKNOWN:
                saw_unknown = True
        return Tri.UNKNOWN if saw_unknown else Tri.FALSE
    if isinstance(criterion, Not):
        r = evaluate(criterion.child, bindings)
        if r is Tri.UNKNOWN:
            return Tri.UNKNOWN
        return Tri.FALSE if r is Tri.TRUE else Tri.TRUE
    raise TypeError(f"not a criterion: {criterion!r}")


def atoms(criterion: Criterion) -> Iterator[Union[Comparison, InRange, Predicate]]:
    """The comparisons, ranges and predicate calls of a criterion, left to right."""
    if isinstance(criterion, (And, Or)):
        for child in criterion.children:
            yield from atoms(child)
    elif isinstance(criterion, Not):
        yield from atoms(criterion.child)
    elif not isinstance(criterion, Otherwise):
        yield criterion


def free_vars(criterion: Criterion) -> set[str]:
    out: set[str] = set()
    for atom in atoms(criterion):
        if not isinstance(atom, Predicate):
            out.add(atom.var)
        elif atom.args:
            out.add(str(atom.args[0]))
    return out


# --- branch selection -------------------------------------------------------


@dataclass(frozen=True)
class Chosen:
    edge_id: str


@dataclass(frozen=True)
class Ambiguous:
    edge_ids: tuple[str, ...]


@dataclass(frozen=True)
class NoneMatch:
    pass


@dataclass(frozen=True)
class Undetermined:
    missing_vars: tuple[str, ...]


SelectionResult = Union[Chosen, Ambiguous, NoneMatch, Undetermined]


def select_branch(
    branches: list[tuple[str, Criterion]], bindings: Bindings
) -> SelectionResult:
    """Pick the outgoing branch of a decision from (edge_id, criterion) pairs.

    The otherwise branch fires only when every other criterion is FALSE.
    Multiple TRUE branches are reported, never silently tie-broken.
    """
    otherwise_edge: Optional[str] = None
    true_edges: list[str] = []
    missing: set[str] = set()
    any_unknown = False
    for edge_id, criterion in branches:
        if isinstance(criterion, Otherwise):
            otherwise_edge = edge_id
            continue
        r = evaluate(criterion, bindings)
        if r is Tri.TRUE:
            true_edges.append(edge_id)
        elif r is Tri.UNKNOWN:
            any_unknown = True
            missing |= {v for v in free_vars(criterion) if v not in bindings}
    if len(true_edges) == 1:
        return Chosen(true_edges[0])
    if len(true_edges) > 1:
        return Ambiguous(tuple(true_edges))
    if any_unknown:
        return Undetermined(tuple(sorted(missing)))
    if otherwise_edge is not None:
        return Chosen(otherwise_edge)
    return NoneMatch()


# --- canonical text ---------------------------------------------------------
#
# The .tasc lexer (dsl._tokenize) reads a word with WORD_PATTERN and keeps it
# only where it starts as starts_word says. The canonical text writes a string
# literal bare only where the lexer reads it back as that one word, and writes
# numbers in positional form, because the lexer reads no exponent.

WORD_PATTERN = r"\w(?:[\w%/]|-(?!>))*|%"
_WORD_RE = re.compile(WORD_PATTERN)


def starts_word(c: str) -> bool:
    return c.isalpha() or c in "_%"


def quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_number(x: float) -> str:
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return format(Decimal(repr(f)), "f")


def _literal_text(x: Literal) -> str:
    if not isinstance(x, str):
        return format_number(x)
    return x if _WORD_RE.fullmatch(x) and starts_word(x[0]) else quote(x)


def criterion_text(criterion: Criterion, _parent: int = 0) -> str:
    """Canonical surface form; parenthesized only where precedence requires."""
    # precedence levels: or=1, and=2, not=3, atom=4
    if isinstance(criterion, Otherwise):
        return "otherwise"
    if isinstance(criterion, Comparison):
        text = f"{criterion.var} {criterion.op} {_literal_text(criterion.value)}"
        if criterion.unit:
            text += f" {criterion.unit}"
        return text
    if isinstance(criterion, InRange):
        text = f"{criterion.var} in {format_number(criterion.low)}..{format_number(criterion.high)}"
        if criterion.unit:
            text += f" {criterion.unit}"
        return text
    if isinstance(criterion, Predicate):
        return f"{criterion.name}({', '.join(_literal_text(a) for a in criterion.args)})"
    if isinstance(criterion, Not):
        return f"not {criterion_text(criterion.child, 3)}"
    if isinstance(criterion, (And, Or)):
        level = 2 if isinstance(criterion, And) else 1
        word = " and " if isinstance(criterion, And) else " or "
        text = word.join(criterion_text(c, level) for c in criterion.children)
        if _parent > level:
            return f"({text})"
        return text
    raise TypeError(f"not a criterion: {criterion!r}")
