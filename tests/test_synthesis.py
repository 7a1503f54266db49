from __future__ import annotations

import pickle
import sys

import pytest

from tasc import dsl, ingest
from tasc.conformance import ActivityDone, BranchTaken, Observation, batch_conform, trace_to_json
from tasc.synthesis import (
    Categorical,
    CompileError,
    EdgeProbabilities,
    Emitter,
    InescapableCycle,
    MissingAnnotation,
    NormalDist,
    ProbabilityMass,
    StepCapExceeded,
    TransitionModel,
    UniformDist,
    VariableSampler,
    compile_stm,
    frequency_report,
    generate,
    generate_line,
    generate_one,
    model_from_json,
    model_to_json,
    provenance_header,
)

from conftest import ROOT

sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the wide benchmark map)

LINEAR = 'caremap "m" { entry s; exit e; activity a "A"; s -> a; a -> e; }'

FORK = (
    'caremap "m" { entry s; exit e1; exit e2; decision d "Pick?"; '
    "activity a \"A\"; s -> a; a -> d; "
    "d -> e1 when x > 0; d -> e2 otherwise; }"
)

LOOP = (
    'caremap "m" { entry s; exit e; activity a "A"; decision d "Again?"; '
    "s -> a; a -> d; d -> a when x > 0; d -> e otherwise; }"
)


def fork_model(p1=0.3, p2=0.7, seed=0):
    return TransitionModel(
        ((
            "m.d",
            EdgeProbabilities((("d->e1", p1), ("d->e2", p2))),
        ),),
        (),
        seed,
    )


def test_transition_model_lookups_first_match():
    first = EdgeProbabilities((("d->e1", 1.0), ("d->e2", 0.0)))
    second = EdgeProbabilities((("d->e1", 0.0), ("d->e2", 1.0)))
    em1 = (Emitter("x", NormalDist(0.0, 1.0)),)
    em2 = (Emitter("y", NormalDist(0.0, 1.0)),)
    model = TransitionModel((("m.d", first), ("m.d", second)), (("m.a", em1), ("m.a", em2)))
    assert model.mode_for("m", "d") is first
    assert model.emitters_for("m", "a") is em1
    assert model.mode_for("m", "a") is None
    assert model.emitters_for("m", "d") == ()
    assert model == TransitionModel(model.branch_modes, model.emitters)


def test_compile_rejects_bad_mass():
    cmset = dsl.parse_or_raise(FORK)
    with pytest.raises(ProbabilityMass):
        compile_stm(cmset, "m", fork_model(0.3, 0.6))


def test_compile_rejects_missing_annotation():
    cmset = dsl.parse_or_raise(FORK)
    with pytest.raises(MissingAnnotation):
        compile_stm(cmset, "m", TransitionModel())


def test_compile_rejects_wrong_edge_cover():
    cmset = dsl.parse_or_raise(FORK)
    model = TransitionModel(
        (("m.d", EdgeProbabilities((("d->e1", 0.5), ("d->nowhere", 0.5))),),),
    )
    with pytest.raises(CompileError):
        compile_stm(cmset, "m", model)


def test_compile_rejects_inescapable_cycle():
    cmset = dsl.parse_or_raise(LOOP)
    model = TransitionModel(
        (("m.d", EdgeProbabilities((("d->a", 1.0), ("d->e", 0.0))),),),
    )
    with pytest.raises(InescapableCycle):
        compile_stm(cmset, "m", model)
    # positive escape probability compiles fine
    ok = TransitionModel((("m.d", EdgeProbabilities((("d->a", 0.4), ("d->e", 0.6))),),))
    compile_stm(cmset, "m", ok)


def test_compile_rejects_undecidable_sampler():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e1; exit e2; decision d "Pick?"; '
        "s -> d; d -> e1 when x > 5; d -> e2 when x < 3; }"
    )
    model = TransitionModel(
        (("m.d", VariableSampler("x", Categorical((1.0, 4.0), (0.5, 0.5)))),),
    )
    with pytest.raises(CompileError):
        compile_stm(cmset, "m", model)


def test_compile_continuous_sampler_needs_otherwise():
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e1; exit e2; decision d "Pick?"; '
        "s -> d; d -> e1 when x > 5; d -> e2 when x <= 5; }"
    )
    model = TransitionModel(
        (("m.d", VariableSampler("x", NormalDist(5.0, 1.0))),),
    )
    with pytest.raises(CompileError):
        compile_stm(cmset, "m", model)
    with_otherwise = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e1; exit e2; decision d "Pick?"; '
        "s -> d; d -> e1 when x > 5; d -> e2 otherwise; }"
    )
    compile_stm(with_otherwise, "m", model)


def test_single_path_map_yields_identical_traces():
    cmset = dsl.parse_or_raise(LINEAR)
    stm = compile_stm(cmset, "m", TransitionModel())
    traces = list(generate(stm, 20, seed=5))
    assert len(traces) == 20
    assert len({tuple(t.events) for t in traces}) == 1
    assert traces[0].events == (ActivityDone("a", 0),)
    assert [t.trace_id for t in traces] == [f"t{i:06d}" for i in range(20)]


def test_generation_deterministic_per_index():
    cmset = dsl.parse_or_raise(FORK)
    stm = compile_stm(cmset, "m", fork_model())
    run1 = [trace_to_json(t) for t in generate(stm, 50, seed=11)]
    run2 = [trace_to_json(t) for t in generate(stm, 50, seed=11)]
    assert run1 == run2
    # trace i is a pure function of (seed, i), independent of batch shape
    assert trace_to_json(generate_one(stm, 11, 37)) == run1[37]
    run_other_seed = [trace_to_json(t) for t in generate(stm, 50, seed=12)]
    assert run1 != run_other_seed


def test_branch_taken_recorded_at_probability_decisions():
    cmset = dsl.parse_or_raise(FORK)
    stm = compile_stm(cmset, "m", fork_model())
    trace = generate_one(stm, seed=1, index=0)
    branch_events = [e for e in trace.events if isinstance(e, BranchTaken)]
    assert len(branch_events) == 1
    assert branch_events[0].decision == "d"


def test_sampler_decision_emits_observation():
    cmset = dsl.parse_or_raise(FORK)
    model = TransitionModel(
        (("m.d", VariableSampler("x", Categorical((1.0, -1.0), (0.5, 0.5)))),),
    )
    stm = compile_stm(cmset, "m", model)
    trace = generate_one(stm, seed=3, index=0)
    obs = [e for e in trace.events if getattr(e, "var", None) == "x"]
    assert len(obs) == 1
    assert not any(isinstance(e, BranchTaken) for e in trace.events)


def test_emitters_fire_before_activity_done():
    cmset = dsl.parse_or_raise(LINEAR)
    model = TransitionModel(
        (), (("m.a", (Emitter("hr", UniformDist(60.0, 100.0), "bpm"),)),)
    )
    stm = compile_stm(cmset, "m", model)
    trace = generate_one(stm, seed=9, index=0)
    kinds = [type(e).__name__ for e in trace.events]
    assert kinds == ["Observation", "ActivityDone"]
    assert 60.0 <= trace.events[0].value <= 100.0


def test_generate_one_keeps_observation_types_units_and_times():
    # generate_one decodes the line generate_line writes; == alone cannot tell 1, 1.0 and True apart
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; activity a "A"; activity b "B"; s -> a; a -> b; b -> e; }'
    )
    levels = (1, 2.5, True, "high")
    model = TransitionModel((), (
        ("m.a", (Emitter("level", Categorical(levels, (0.25,) * 4), "grade"),)),
        ("m.b", (Emitter("hr", NormalDist(80.0, 5.0)),)),
    ))
    stm = compile_stm(cmset, "m", model)
    seen = set()
    for i in range(40):
        level, hr = (e for e in generate_one(stm, 5, i).events if isinstance(e, Observation))
        assert (level.var, level.unit, level.at) == ("level", "grade", 0)
        assert (hr.var, hr.unit, hr.at, type(hr.value)) == ("hr", None, 1, float)
        seen.add((type(level.value), level.value))
    assert seen == {(type(v), v) for v in levels}


def test_step_cap():
    cmset = dsl.parse_or_raise(LOOP)
    model = TransitionModel(
        (("m.d", EdgeProbabilities((("d->a", 0.9), ("d->e", 0.1))),),),
    )
    stm = compile_stm(cmset, "m", model)
    with pytest.raises(StepCapExceeded):
        for i in range(50):
            generate_one(stm, seed=0, index=i, step_cap=4)


def test_generated_traces_self_conform(labour_set, labour_counts_text):
    rows = ingest.read_rows(labour_counts_text)
    model = ingest.derive_model(rows, labour_set, seed=21)
    stm = compile_stm(labour_set, "labour_birth", model)
    traces = list(generate(stm, 300, seed=21))
    summary = batch_conform(labour_set, "labour_birth", traces)
    assert summary.conformant == 300


def test_frequency_report_tracks_model(labour_set, labour_counts_text):
    rows = ingest.read_rows(labour_counts_text)
    model = ingest.derive_model(rows, labour_set, seed=4)
    stm = compile_stm(labour_set, "labour_birth", model)
    traces = list(generate(stm, 2000, seed=4))
    report = frequency_report(traces, stm)
    assert report.unmatched_traces == 0
    assert len(report.rows) == 5  # two annotated decisions, 2 + 3 branches
    assert report.max_delta <= 0.05
    for row in report.rows:
        assert 0.0 <= row.empirical <= 1.0


def test_model_json_roundtrip():
    model = TransitionModel(
        (
            ("m.d", EdgeProbabilities((("d->e1", 0.25), ("d->e2", 0.75)))),
            ("m.d2", VariableSampler("x", NormalDist(5.0, 1.0), "mmol/L")),
        ),
        (("m.a", (Emitter("hr", UniformDist(60.0, 100.0), "bpm"),)),),
        master_seed=7,
    )
    text = model_to_json(model)
    assert model_from_json(text) == model
    assert model_to_json(model_from_json(text)) == text


def test_provenance_header_fields():
    cmset = dsl.parse_or_raise(LINEAR)
    stm = compile_stm(cmset, "m", TransitionModel(master_seed=7))
    header = provenance_header(stm, 7)
    assert header.startswith("# tasc-synth v1 seed=7 ")
    assert "caremap_sha=" in header and "model_sha=" in header
    assert header.endswith("rng=sha256-mt19937")


def test_generation_selects_branches_through_criteria_module(monkeypatch):
    # the traced benchmark run counts generation's branch selections by wrapping the
    # module attribute; the selection sees every observation of the variable so far
    from tasc import criteria

    model = TransitionModel(
        (("m.d", VariableSampler("x", Categorical((1.0, -1.0), (0.7, 0.3)))),),
        (("m.a", (Emitter("x", NormalDist(5.0, 1.0)),)),),
    )
    stm = compile_stm(dsl.parse_or_raise(LOOP), "m", model)
    seen = []
    real = criteria.select_branch
    monkeypatch.setattr(
        criteria, "select_branch",
        lambda branches, bindings: seen.append(bindings["x"].series()) or real(branches, bindings),
    )
    trace = generate_one(stm, seed=2, index=0)
    values = [e.value for e in trace.events if getattr(e, "var", None) == "x"]
    assert len(seen) == sum(isinstance(e, ActivityDone) for e in trace.events) > 1
    # each decision follows one emitted and one sampled x
    assert seen == [tuple(values[: 2 * k]) for k in range(1, len(seen) + 1)]


def test_sampled_value_without_unit_keeps_the_emitted_unit():
    # the binding's unit is the last one observed, so the criterion's mmol/L meets mg/dL
    from tasc.criteria import UnitMismatch

    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e1; exit e2; decision d "High?"; activity a "A"; '
        "s -> a; a -> d; d -> e1 when glucose > 7.0 mmol/L; d -> e2 otherwise; }"
    )
    model = TransitionModel(
        (("m.d", VariableSampler("glucose", Categorical((9.0, 5.0), (0.5, 0.5)))),),
        (("m.a", (Emitter("glucose", NormalDist(6.0, 1.0), "mg/dL"),)),),
    )
    stm = compile_stm(cmset, "m", model)
    with pytest.raises(UnitMismatch, match="binding has 'mg/dL'"):
        generate_one(stm, seed=0, index=0)


def test_pickled_stm_generates_the_same_lines(tmp_path):
    # a worker process receives the STM pickled; wide nests 8 deep and has links
    wl = workloads.build_wide(ROOT, tmp_path, 3)
    cmset = dsl.parse_or_raise(wl.caremaps.read_text(encoding="utf-8"))
    stm = compile_stm(cmset, wl.entry, model_from_json(wl.model.read_text(encoding="utf-8")))
    copy = pickle.loads(pickle.dumps(stm))
    assert copy == stm
    assert [generate_line(copy, 5, i) for i in range(20)] == [
        generate_line(stm, 5, i) for i in range(20)
    ]


def test_stm_of_a_long_chain_pickles():
    # plan nodes point at their successors; pickling them would recurse per node
    n = 400
    cmset = dsl.parse_or_raise(
        'caremap "m" { entry s; exit e; '
        + "".join(f'activity a{i} "A"; ' for i in range(n))
        + "s -> a0; " + "".join(f"a{i} -> a{i + 1}; " for i in range(n - 1))
        + f"a{n - 1} -> e; }}"
    )
    stm = compile_stm(cmset, "m", TransitionModel())
    assert generate_line(pickle.loads(pickle.dumps(stm)), 0, 0) == generate_line(stm, 0, 0)


def test_only_maps_the_entry_reaches_are_checked():
    cmset = dsl.parse_or_raise(
        LINEAR + ' caremap "lone" { entry s; exit e1; exit e2; decision d "Pick?"; '
        "s -> d; d -> e1 when x > 0; d -> e2 otherwise; }"
    )
    compile_stm(cmset, "m", TransitionModel())
    with pytest.raises(MissingAnnotation, match="lone.d") as caught:
        compile_stm(cmset, "lone", TransitionModel())
    assert caught.value.state == "lone.d"
