from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from tasc import criteria as C
from tasc.criteria import Tri


def b(**kwargs) -> C.Bindings:
    """Bindings from var=value or var=(value, unit) or var=[history..., last]."""
    out: C.Bindings = {}
    for var, spec in kwargs.items():
        if isinstance(spec, tuple):
            out[var] = C.Binding(spec[0], spec[1])
        elif isinstance(spec, list):
            out[var] = C.Binding(spec[-1], None, tuple(spec[:-1]))
        else:
            out[var] = C.Binding(spec)
    return out


GLUCOSE_RULE = C.Comparison("glucose", ">", 7.0, "mmol/L")


def test_threshold_true():
    assert C.evaluate(GLUCOSE_RULE, b(glucose=(7.4, "mmol/L"))) is Tri.TRUE


def test_threshold_boundary_strict():
    assert C.evaluate(GLUCOSE_RULE, b(glucose=(7.0, "mmol/L"))) is Tri.FALSE


def test_unbound_is_unknown():
    assert C.evaluate(GLUCOSE_RULE, {}) is Tri.UNKNOWN


def test_unit_mismatch_is_error_not_unknown():
    with pytest.raises(C.UnitMismatch):
        C.evaluate(GLUCOSE_RULE, b(glucose=(130.0, "mg/dL")))


def test_unit_mismatch_pickles():
    err = C.UnitMismatch("glucose", "mmol/L", "mg/dL")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is C.UnitMismatch and str(back) == str(err)
    assert (back.var, back.expected, back.found) == ("glucose", "mmol/L", "mg/dL")


def test_unknown_predicate():
    with pytest.raises(C.UnknownPredicate):
        C.evaluate(C.Predicate("no_such_pred", ("glucose", 1)), b(glucose=5))


def test_consecutive_above_examples():
    pred = C.Predicate("consecutive_above", ("glucose", 7.0, 2))
    assert C.evaluate(pred, b(glucose=[6.8, 7.2, 7.5])) is Tri.TRUE
    assert C.evaluate(pred, b(glucose=[7.2, 6.8, 7.5])) is Tri.FALSE


def oracle_consecutive_above(history, threshold, n):
    """Sliding-window brute force, independent of the run-length implementation."""
    return any(
        all(v > threshold for v in history[i:i + n]) for i in range(len(history) - n + 1)
    )


def test_consecutive_above_random_histories():
    rng = random.Random(2024)
    pred_cache = {}
    for _ in range(10_000):
        length = rng.randint(1, 8)
        history = [round(rng.uniform(5.0, 9.0), 2) for _ in range(length)]
        n = rng.randint(1, 4)
        pred = pred_cache.setdefault(n, C.Predicate("consecutive_above", ("glucose", 7.0, n)))
        got = C.evaluate(pred, b(glucose=history)) is Tri.TRUE
        assert got == oracle_consecutive_above(history, 7.0, n), (history, n)


def test_count_above_and_consecutive_below():
    assert C.evaluate(C.Predicate("count_above", ("v", 5, 2)), b(v=[6, 4, 7])) is Tri.TRUE
    assert C.evaluate(C.Predicate("count_above", ("v", 5, 3)), b(v=[6, 4, 7])) is Tri.FALSE
    assert C.evaluate(C.Predicate("consecutive_below", ("v", 5, 2)), b(v=[4, 3, 9])) is Tri.TRUE


def test_predicate_registration():
    C.register_predicate("always_true", lambda binding, args: True)
    assert C.evaluate(C.Predicate("always_true", ("v",)), b(v=1)) is Tri.TRUE


def test_in_range():
    r = C.InRange("bmi", 18.5, 25.0, "kg/m2")
    assert C.evaluate(r, b(bmi=(22.0, "kg/m2"))) is Tri.TRUE
    assert C.evaluate(r, b(bmi=(25.0, "kg/m2"))) is Tri.TRUE  # inclusive
    assert C.evaluate(r, b(bmi=(26.0, "kg/m2"))) is Tri.FALSE


def test_categorical_equality():
    c = C.Comparison("result", "==", "negative")
    assert C.evaluate(c, b(result="negative")) is Tri.TRUE
    assert C.evaluate(c, b(result="positive")) is Tri.FALSE


# --- three-valued logic -----------------------------------------------------

_TRI_ATOMS = {
    Tri.TRUE: C.Comparison("t", ">", 0),
    Tri.FALSE: C.Comparison("f", ">", 0),
    Tri.UNKNOWN: C.Comparison("u", ">", 0),
}
_TRI_BINDINGS = b(t=1, f=-1)  # u left unbound


def _tri(criterion):
    return C.evaluate(criterion, _TRI_BINDINGS)


KLEENE_AND = {
    (Tri.TRUE, Tri.TRUE): Tri.TRUE,
    (Tri.TRUE, Tri.FALSE): Tri.FALSE,
    (Tri.TRUE, Tri.UNKNOWN): Tri.UNKNOWN,
    (Tri.FALSE, Tri.TRUE): Tri.FALSE,
    (Tri.FALSE, Tri.FALSE): Tri.FALSE,
    (Tri.FALSE, Tri.UNKNOWN): Tri.FALSE,
    (Tri.UNKNOWN, Tri.TRUE): Tri.UNKNOWN,
    (Tri.UNKNOWN, Tri.FALSE): Tri.FALSE,
    (Tri.UNKNOWN, Tri.UNKNOWN): Tri.UNKNOWN,
}

KLEENE_OR = {
    (a, bb): (
        Tri.TRUE if Tri.TRUE in (a, bb)
        else Tri.UNKNOWN if Tri.UNKNOWN in (a, bb)
        else Tri.FALSE
    )
    for a in Tri
    for bb in Tri
}


@pytest.mark.parametrize("left", list(Tri))
@pytest.mark.parametrize("right", list(Tri))
def test_and_truth_table(left, right):
    got = _tri(C.And((_TRI_ATOMS[left], _TRI_ATOMS[right])))
    assert got is KLEENE_AND[(left, right)]


@pytest.mark.parametrize("left", list(Tri))
@pytest.mark.parametrize("right", list(Tri))
def test_or_truth_table(left, right):
    got = _tri(C.Or((_TRI_ATOMS[left], _TRI_ATOMS[right])))
    assert got is KLEENE_OR[(left, right)]


def _small_asts(depth=2):
    leaves = st.sampled_from([_TRI_ATOMS[Tri.TRUE], _TRI_ATOMS[Tri.FALSE]])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: C.And(p)),
            st.tuples(inner, inner).map(lambda p: C.Or(p)),
            inner.map(C.Not),
        ),
        max_leaves=6,
    )


@given(_small_asts(), _small_asts())
def test_de_morgan(a, bb):
    lhs = _tri(C.Not(C.And((a, bb))))
    rhs = _tri(C.Or((C.Not(a), C.Not(bb))))
    assert lhs is rhs


# --- branch selection -------------------------------------------------------


def test_select_otherwise():
    branches = [("A", C.Comparison("x", ">", 5)), ("B", C.OTHERWISE)]
    assert C.select_branch(branches, b(x=3)) == C.Chosen("B")


def test_select_partition():
    branches = [("A", C.Comparison("x", ">", 5)), ("B", C.Comparison("x", "<=", 5))]
    assert C.select_branch(branches, b(x=7)) == C.Chosen("A")


def test_select_ambiguous_matches_truth_table():
    branches = [("A", C.Comparison("x", ">", 5)), ("B", C.Comparison("x", ">", 3))]
    for x in range(0, 10):
        truths = [x > 5, x > 3]
        result = C.select_branch(branches, b(x=x))
        if all(truths):
            assert result == C.Ambiguous(("A", "B"))
        elif truths[1]:
            assert result == C.Chosen("B")
        else:
            assert result == C.NoneMatch()


def test_select_undetermined_lists_missing_vars():
    branches = [("A", C.Comparison("x", ">", 5)), ("B", C.Comparison("y", ">", 5))]
    result = C.select_branch(branches, {})
    assert result == C.Undetermined(("x", "y"))


def test_select_never_chooses_false_branch():
    rng = random.Random(7)
    for _ in range(500):
        branches = [
            (name, C.Comparison("x", rng.choice(["<", "<=", ">", ">="]), rng.randint(0, 10)))
            for name in ("A", "B", "C")
        ]
        x = rng.randint(0, 10)
        result = C.select_branch(branches, b(x=x))
        if isinstance(result, C.Chosen):
            criterion = dict(branches)[result.edge_id]
            assert C.evaluate(criterion, b(x=x)) is Tri.TRUE


# --- canonical text ---------------------------------------------------------


def test_criterion_text_forms():
    assert C.criterion_text(GLUCOSE_RULE) == "glucose > 7 mmol/L"
    assert C.criterion_text(C.Comparison("glucose", ">", 7.5, "mmol/L")) == "glucose > 7.5 mmol/L"
    assert C.criterion_text(C.OTHERWISE) == "otherwise"
    assert (
        C.criterion_text(C.Predicate("consecutive_above", ("glucose", 7.0, 2)))
        == "consecutive_above(glucose, 7, 2)"
    )
    nested = C.And((C.Or((_TRI_ATOMS[Tri.TRUE], _TRI_ATOMS[Tri.FALSE])), _TRI_ATOMS[Tri.TRUE]))
    assert C.criterion_text(nested) == "(t > 0 or f > 0) and t > 0"
