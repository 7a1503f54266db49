"""The module attributes that perfbench/traced.py wraps by name must exist.

The traced run (`perfbench/run.py --trace 1`) replaces them with
getattr/setattr to count calls per layer; if a refactor removes one, that
run fails, and if replay stops calling through one, its count reads 0.
"""
from __future__ import annotations

import pytest

from tasc import conformance, criteria, dsl, model, synthesis
from tasc.conformance import ActivityDone, Observation, PatientTrace, replay


@pytest.mark.parametrize(
    "module, attr",
    [(conformance, "successors"), (synthesis, "successors"), (criteria, "bind"),
     (criteria, "select_branch")],
    ids=["conformance.successors", "synthesis.successors", "criteria.bind",
         "criteria.select_branch"],
)
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(module, attr, None))
    if attr == "successors":  # the tracer reports both as model.successors
        assert getattr(module, attr) is model.successors


def test_replay_selects_branches_through_criteria_module(monkeypatch):
    # the traced run counts replay's branch selections by wrapping the module attribute
    calls = []
    real = criteria.select_branch
    monkeypatch.setattr(criteria, "select_branch", lambda *a: calls.append(a) or real(*a))
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit hi; exit lo; decision d "High?"; activity a "A"; '
        "s -> a; a -> d; d -> hi when glucose > 7.0 mmol/L; d -> lo otherwise; }"
    )
    trace = PatientTrace("t", (Observation("glucose", 7.4, "mmol/L"), ActivityDone("a")))
    assert replay(cmset, "m", trace).status == "Conformant"
    assert len(calls) == 1
