"""The two golden values of the refactor contract, run through cli.main in process.

`tasc ingest` of the corpus counts and `tasc synth -n 10000 --seed 7` on
labour_birth must keep these bytes; the synth output must not depend on
`--workers`.
"""
from __future__ import annotations

import hashlib

import pytest

from tasc.cli import EXIT_OK, main

from conftest import CORPUS

MODEL_SHA = "71688e29ce7e03ac339d9e968aae243d4323a99e2883f1a5d1bdc9e35e58848d"
SYNTH_SHA = "aa6abe5a68374f8da01df0f5bf6fe0c1cb888a65de8f40f0a20b13b65fecd87d"
LABOUR = str(CORPUS / "labour_birth.tasc")


@pytest.fixture(scope="module")
def golden_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "model.json"
    assert main([
        "ingest", str(CORPUS / "labour_birth_counts.csv"), "--caremaps", LABOUR, "--out", str(out),
    ]) == EXIT_OK
    return out


def test_ingest_golden(golden_model):
    assert hashlib.sha256(golden_model.read_bytes()).hexdigest() == MODEL_SHA


@pytest.mark.parametrize("workers", ["1", "2"])
def test_synth_golden(golden_model, workers, tmp_path):
    out = tmp_path / "traces.jsonl"
    assert main([
        "synth", LABOUR, "--model", str(golden_model), "--entry", "labour_birth",
        "-n", "10000", "--seed", "7", "--out", str(out), "--workers", workers,
    ]) == EXIT_OK
    data = out.read_bytes()
    assert data.count(b"\n") == 10_001
    assert hashlib.sha256(data).hexdigest() == SYNTH_SHA
