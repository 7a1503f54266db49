"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single pass/fail line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""
from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time

import pytest

import tasc
from tasc import criteria as C
from tasc import dsl, ingest, render, validator
from tasc.conformance import ActivityDone, PatientTrace, batch_conform, replay
from tasc.criteria import Tri
from tasc.model import ACTIVITY_KINDS, TERMINAL_KINDS, enumerate_paths, successors
from tasc.synthesis import compile_stm, frequency_report, generate

from conftest import CORPUS, FIXTURES


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number}: {status} - {detail}")
    assert ok, detail


def timed(start: float, bound: float) -> tuple[float, bool]:
    elapsed = time.perf_counter() - start
    return elapsed, elapsed < bound


def test_acceptance_1_notation_roundtrip(elements_set):
    start = time.perf_counter()
    text = (CORPUS / "all_elements.tasc").read_text(encoding="utf-8")
    first = dsl.parse_or_raise(text)
    canonical = dsl.serialize(first)
    second = dsl.parse_or_raise(canonical)
    stable = dsl.serialize(second) == canonical
    equal = second == first
    elapsed, in_time = timed(start, 1.0)
    report(
        1,
        stable and equal and in_time,
        f"full-notation corpus round-trips byte-stable in {elapsed:.3f}s",
    )


def test_acceptance_2_validator_mutation_suite():
    start = time.perf_counter()
    ok = True
    notes = []
    for code in validator.ERROR_CODES:
        path = FIXTURES / f"mut_{code.lower()}.tasc"
        cmset = dsl.parse_or_raise(path.read_text(encoding="utf-8"), str(path))
        fired = sorted({d.code for d in validator.validate(cmset) if d.severity == "error"})
        if fired != [code]:
            ok = False
            notes.append(f"{path.name} fired {fired}")
    for name, code in (("mut_w_exh", "W-EXH"), ("mut_w_cnt", "W-CNT"), ("mut_w_lfc", "W-LFC")):
        path = FIXTURES / f"{name}.tasc"
        cmset = dsl.parse_or_raise(path.read_text(encoding="utf-8"), str(path))
        diags = validator.validate(cmset)
        if validator.has_errors(diags) or code not in {d.code for d in diags}:
            ok = False
            notes.append(f"{path.name} missed {code}")
    elapsed, in_time = timed(start, 1.0)
    report(
        2,
        ok and in_time,
        f"12 mutation fixtures trigger exactly their codes in {elapsed:.3f}s"
        + ("; " + "; ".join(notes) if notes else ""),
    )


def test_acceptance_3_cohort_scale_replay(labour_set, labour_counts_text):
    start = time.perf_counter()
    rows = ingest.read_rows(labour_counts_text)
    model = ingest.derive_model(rows, labour_set, seed=9)
    stm = compile_stm(labour_set, "labour_birth", model)
    traces = list(generate(stm, 8731, seed=9))
    summary = batch_conform(labour_set, "labour_birth", traces, workers=4)
    elapsed, in_time = timed(start, 10.0)
    report(
        3,
        len(traces) == 8731 and summary.conformant == 8731 and in_time,
        f"{summary.conformant}/8731 generated cohort traces conformant in {elapsed:.2f}s",
    )


def test_acceptance_4_frequency_fidelity(labour_set, labour_counts_text):
    start = time.perf_counter()
    rows = ingest.read_rows(labour_counts_text)
    model = ingest.derive_model(rows, labour_set, seed=13)
    stm = compile_stm(labour_set, "labour_birth", model)
    traces = list(generate(stm, 10_000, seed=13))
    freq = frequency_report(traces, stm)
    elapsed, in_time = timed(start, 5.0)
    report(
        4,
        freq.unmatched_traces == 0 and freq.max_delta <= 0.02 and in_time,
        f"max |empirical-expected| = {freq.max_delta:.4f} over "
        f"{len(freq.rows)} annotated edges at n=10000 in {elapsed:.2f}s",
    )


# --- criterion 5: conformance verdicts vs path-membership oracle ------------

ORACLE_MAPS = [
    # straight line with a two-way split
    'caremap "m" { entry s; exit e; activity a "A"; activity b "B"; '
    'activity c "C"; s -> a; a -> b; a -> c; b -> e; c -> e; }',
    # diamond with a merge and a tail
    'caremap "m" { entry s; exit e1; exit e2; activity a "A"; activity b "B"; '
    'activity c "C"; activity d "D"; activity f "F"; '
    "s -> a; a -> b; a -> c; b -> d; c -> d; d -> e1; d -> f; f -> e2; }",
    # cyclic: b can loop back through a
    'caremap "m" { entry s; exit e; activity a "A"; activity b "B"; '
    'activity c "C"; s -> a; a -> b; b -> a; b -> c; c -> e; }',
]


def _random_walk(cm, rng, step_cap=24):
    node = cm.entry_nodes()[0]
    acts = []
    for _ in range(step_cap):
        if cm.node(node.id).kind in TERMINAL_KINDS:
            return acts
        succ = successors(cm, node.id)
        _, node = succ[rng.randrange(len(succ))]
        if node.kind in ACTIVITY_KINDS:
            acts.append(node.id)
    return None


def _mutate(acts, rng, activity_ids):
    kind = rng.choice(["drop", "insert", "swap"])
    acts = list(acts)
    if kind == "drop" and acts:
        del acts[rng.randrange(len(acts))]
    elif kind == "insert":
        acts.insert(rng.randrange(len(acts) + 1), rng.choice(activity_ids))
    elif kind == "swap" and len(acts) >= 2:
        i = rng.randrange(len(acts) - 1)
        acts[i], acts[i + 1] = acts[i + 1], acts[i]
    return acts


def test_acceptance_5_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1914)
    total_valid = 0
    total_mutant = 0
    disagreements = 0
    for text in ORACLE_MAPS:
        cm = dsl.parse_or_raise(text).caremap("m")
        cmset = dsl.parse_or_raise(text)
        activity_ids = sorted(n.id for n in cm.nodes if n.kind in ACTIVITY_KINDS)
        valid = {
            tuple(n for n in path if cm.node(n).kind in ACTIVITY_KINDS)
            for path in enumerate_paths(cm, cycle_bound=26, path_cap=1_000_000)
        }
        for i in range(350):
            acts = None
            while acts is None:
                acts = _random_walk(cm, rng)
            for variant in (acts, _mutate(acts, rng, activity_ids)):
                trace = PatientTrace("t", tuple(ActivityDone(a) for a in variant))
                got = replay(cmset, "m", trace).status
                expect = "Conformant" if tuple(variant) in valid else "NonConformant"
                if got != expect:
                    disagreements += 1
            total_valid += 1
            total_mutant += 1
    elapsed, in_time = timed(start, 30.0)
    report(
        5,
        disagreements == 0 and total_valid >= 1000 and total_mutant >= 1000 and in_time,
        f"verdicts agree with path-membership oracle on {total_valid} valid + "
        f"{total_mutant} mutated traces ({disagreements} disagreements) in {elapsed:.2f}s",
    )


def test_acceptance_6_determinism(tmp_path, labour_set, labour_counts_text):
    start = time.perf_counter()
    model_path = tmp_path / "model.json"
    rows = ingest.read_rows(labour_counts_text)
    model = ingest.derive_model(rows, labour_set, seed=7)
    from tasc.synthesis import model_to_json

    model_path.write_text(model_to_json(model), encoding="utf-8")
    caremaps = str(CORPUS / "labour_birth.tasc")
    outputs = []
    # the child imports the tasc this process imported, installed or not
    src = os.path.dirname(os.path.dirname(tasc.__file__))
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    runs = [("w1a", "1"), ("w4", "4"), ("w16", "16"), ("w1b", "1"), ("w1c", "1")]
    for name, workers in runs:
        out = tmp_path / f"{name}.jsonl"
        proc = subprocess.run(
            [
                sys.executable, "-m", "tasc", "synth", caremaps, "--model", str(model_path),
                "--entry", "labour_birth", "-n", "10000", "--seed", "7",
                "--out", str(out), "--workers", workers,
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    identical = len(set(outputs)) == 1
    elapsed = time.perf_counter() - start
    report(
        6,
        identical,
        f"10000-trace synth byte-identical across workers 1/4/16 and three "
        f"consecutive runs ({elapsed:.2f}s total)",
    )


def test_acceptance_7_criteria_engine():
    rng = random.Random(777)
    rule_template = lambda n: C.Predicate("consecutive_above", ("glucose", 7.0, n))
    mismatches = 0
    for _ in range(10_000):
        history = [round(rng.uniform(5.5, 8.5), 2) for _ in range(rng.randint(1, 9))]
        n = rng.randint(1, 4)
        bindings = {"glucose": C.Binding(history[-1], None, tuple(history[:-1]))}
        got = C.evaluate(rule_template(n), bindings) is Tri.TRUE
        oracle = any(
            all(v > 7.0 for v in history[i:i + n])
            for i in range(len(history) - n + 1)
        )
        if got != oracle:
            mismatches += 1
    atoms = {
        Tri.TRUE: C.Comparison("t", ">", 0),
        Tri.FALSE: C.Comparison("f", ">", 0),
        Tri.UNKNOWN: C.Comparison("u", ">", 0),
    }
    bindings = {"t": C.Binding(1), "f": C.Binding(-1)}
    table_ok = True
    for left, right in itertools.product(Tri, Tri):
        expect_and = (
            Tri.FALSE if Tri.FALSE in (left, right)
            else Tri.UNKNOWN if Tri.UNKNOWN in (left, right) else Tri.TRUE
        )
        expect_or = (
            Tri.TRUE if Tri.TRUE in (left, right)
            else Tri.UNKNOWN if Tri.UNKNOWN in (left, right) else Tri.FALSE
        )
        if C.evaluate(C.And((atoms[left], atoms[right])), bindings) is not expect_and:
            table_ok = False
        if C.evaluate(C.Or((atoms[left], atoms[right])), bindings) is not expect_or:
            table_ok = False
    report(
        7,
        mismatches == 0 and table_ok,
        f"consecutive-readings rule matches sliding-window oracle on 10000 "
        f"histories ({mismatches} mismatches); 9+9 three-valued truth table exact",
    )


def test_acceptance_8_gdm_corpus(gdm_set):
    diags = validator.validate(gdm_set)
    clean = not validator.has_errors(diags)
    dot = render.to_dot(gdm_set)
    stable = dot == render.to_dot(gdm_set)
    clusters = dot.count("subgraph cluster_")
    links = dot.count('[style="dashed"]')
    well_formed = render.check_dot(dot) == []
    report(
        8,
        clean and stable and well_formed and clusters == 3 and links == 2,
        f"linked GDM corpus validates clean; DOT has {clusters} clusters and "
        f"{links} link edges, byte-stable",
    )
