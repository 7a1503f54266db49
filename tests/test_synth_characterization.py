"""Characterization of synthesis: sha256 of `tasc synth` output on small inline maps.

Each scenario is a caremap set and a transition model written in this file.
The pinned digests were computed with the generator that walked the model
objects step by step (`mode_for`, `successors`, `criteria.bind`) and wrote
each trace through `trace_to_json`, before generation moved onto the
per-node plan, so they pin the output bytes across that change. Every
scenario runs with `--workers 1` and `2`, and every output line must equal
`trace_to_json(generate_one(...))` of the same trace.
"""
from __future__ import annotations

import hashlib
import math

import pytest

from tasc import dsl
from tasc.cli import EXIT_OK, main
from tasc.conformance import trace_to_json
from tasc.synthesis import (
    Categorical,
    EdgeProbabilities,
    Emitter,
    NormalDist,
    TransitionModel,
    UniformDist,
    VariableSampler,
    compile_stm,
    generate_one,
    model_to_json,
)

# A categorical sampler closes a self-loop whose activity has a unit-bearing emitter.
_LOOP = (
    'caremap "loop" {\n  entry start; exit done;\n  activity measure "Measure";\n'
    '  decision again "Again?";\n  start -> measure; measure -> again;\n'
    "  again -> measure when repeat == yes; again -> done otherwise;\n}\n"
)
_LOOP_MODEL = TransitionModel(
    (("loop.again", VariableSampler("repeat", Categorical(("yes", "no"), (0.85, 0.15)))),),
    (("loop.measure", (Emitter("glucose", NormalDist(6.0, 1.2), "mmol/L"),)),),
)

# edge_probs on an activity (no branch event), then a continuous sampler with otherwise.
_FORK = (
    'caremap "fork" {\n  entry s; exit e;\n'
    '  activity a "A"; activity b "B"; activity c "C"; decision d "Done?";\n'
    "  s -> a; a -> b; a -> c; b -> d; c -> d;\n"
    "  d -> e when score > 1.2; d -> a otherwise;\n}\n"
)
_FORK_MODEL = TransitionModel(
    (
        ("fork.a", EdgeProbabilities((("a->b", 0.3), ("a->c", 0.7)))),
        ("fork.d", VariableSampler("score", UniformDist(0.0, 2.0))),
    ),
    (("fork.c", (Emitter("hr", UniformDist(60.0, 100.0), "bpm"),)),),
)

# A nested activity, a nested decision whose branch event comes when the
# nested map returns, and a multi-level link to a second map.
_NESTED = (
    'caremap "outer" {\n  entry s; exit e1; exit e2;\n'
    '  nested activity work "Work" ref inner; nested decision nd "Route?" ref inner;\n'
    "  s -> work; work -> nd; nd -> e1 when route == one; nd -> e2 otherwise;\n}\n"
    'caremap "inner" {\n  entry s; exit x;\n  activity step "Step";\n  s -> step; step -> x;\n}\n'
    'caremap "after" {\n  entry in; exit done;\n  decision d "Which?";\n'
    '  activity b "B"; activity c "C";\n  in -> d; b -> done; c -> done;\n'
    "  d -> b when pick == b; d -> c otherwise;\n}\n"
    "link outer.e1 -> after.in;\n"
)
_NESTED_MODEL = TransitionModel(
    (
        ("after.d", EdgeProbabilities((("d->b", 0.5), ("d->c", 0.5)))),
        ("outer.nd", EdgeProbabilities((("nd->e1", 0.6), ("nd->e2", 0.4)))),
    ),
    (
        ("after.b", (Emitter("k", NormalDist(4.0, 0.5), "mmol/L"),)),
        ("inner.step", (Emitter("lactate", NormalDist(2.0, 0.5)),)),
        ("outer.work", (Emitter("hr", UniformDist(60.0, 100.0), "bpm"),)),
    ),
)

# A decision read through an observation history: a temporal predicate over
# the emitted glucose series, or a continuous sampler.
_HISTORY = (
    'caremap "h" {\n  entry start; exit done;\n  activity measure "Measure";\n'
    '  decision again "Again?";\n  start -> measure; measure -> again;\n'
    "  again -> done when consecutive_above(glucose, 7.5, 2) or u > 0.95;\n"
    "  again -> measure otherwise;\n}\n"
)
_HISTORY_MODEL = TransitionModel(
    (("h.again", VariableSampler("u", UniformDist(0.0, 1.0))),),
    (("h.measure", (Emitter("glucose", NormalDist(7.0, 1.0), "mmol/L"),)),),
)

# Values whose JSON bytes are easy to get wrong: NaN (a NaN sigma), -0.0,
# 1e16, an int, a bool, non-ASCII text, Infinity and a µg unit.
_VALUES = (
    'caremap "v" {\n  entry s; exit e;\n  activity a "A"; activity b "B";\n'
    "  s -> a; a -> b; b -> e;\n}\n"
)
_VALUES_MODEL = TransitionModel(
    (),
    (
        ("v.a", (
            Emitter("dose", Categorical((-0.0, 1e16, 3, "café", True), (0.2,) * 5), "µg"),
            Emitter("sd", NormalDist(5.0, math.nan)),
        )),
        ("v.b", (
            Emitter("spread", UniformDist(0.0, math.inf)),
            Emitter("note", Categorical(("naïve ✓", 0.1, -7), (0.5, 0.25, 0.25))),
        )),
    ),
)

# name: (caremaps, entry, model, traces, seed)
SCENARIOS = {
    "loop": (_LOOP, "loop", _LOOP_MODEL, 40, 3),
    "fork": (_FORK, "fork", _FORK_MODEL, 60, 5),
    "history": (_HISTORY, "h", _HISTORY_MODEL, 60, 4),
    "nested": (_NESTED, "outer", _NESTED_MODEL, 60, 8),
    "values": (_VALUES, "v", _VALUES_MODEL, 30, 2),
}

PINNED = {
    "loop": "64e796ed66094549335834fc792abbdfab01326c15c3006d52a5e18af85e0b5b",
    "history": "9b475d52f76560e740efc3df5168d3dafd96373f0167d959cfa379b84e10a0e0",
    "fork": "c0679cf2c9699375384d3be11debc148da276e773cf97caf9d4cd666b2c2dd03",
    "nested": "aab438dab86315e8f51d0e39f32999c459bb57c04e58b4b12e5f417073a0e802",
    "values": "c51e98c5d816bddf99010cc854233c34b1ec1d066e2ded611d12d7145b848804",
}


def synth_output(tmp_path, name: str, workers: int) -> bytes:
    caremaps, entry, model, n, seed = SCENARIOS[name]
    cm_file, model_file = tmp_path / f"{name}.tasc", tmp_path / f"{name}.json"
    cm_file.write_text(caremaps, encoding="utf-8")
    model_file.write_text(model_to_json(model), encoding="utf-8")
    out = tmp_path / f"{name}-w{workers}.jsonl"
    assert main([
        "synth", str(cm_file), "--model", str(model_file), "--entry", entry,
        "-n", str(n), "--seed", str(seed), "--out", str(out), "--workers", str(workers),
    ]) == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_synth_bytes_pinned(name, tmp_path):
    outputs = [synth_output(tmp_path, name, workers) for workers in (1, 2)]
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == PINNED[name]
    caremaps, entry, model, n, seed = SCENARIOS[name]
    stm = compile_stm(dsl.parse_or_raise(caremaps), entry, model)
    lines = outputs[0].decode("utf-8").splitlines()
    assert len(lines) == n + 1
    for i, line in enumerate(lines[1:]):
        assert trace_to_json(generate_one(stm, seed, i)) == line
