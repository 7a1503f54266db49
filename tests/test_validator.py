from __future__ import annotations

import pytest

from tasc import dsl
from tasc.validator import (
    ERROR_CODES,
    ValidatorConfig,
    has_errors,
    validate,
)

from conftest import FIXTURES


def load_fixture(name: str):
    path = FIXTURES / name
    return dsl.parse_or_raise(path.read_text(encoding="utf-8"), str(path))


def error_codes(diagnostics):
    return sorted({d.code for d in diagnostics if d.severity == "error"})


def warning_codes(diagnostics):
    return sorted({d.code for d in diagnostics if d.severity == "warning"})


def test_base_fixture_is_clean():
    diags = validate(load_fixture("mut_base.tasc"))
    assert diags == []


@pytest.mark.parametrize("code", ERROR_CODES)
def test_each_mutation_triggers_exactly_its_code(code):
    name = f"mut_{code.lower()}.tasc"
    diags = validate(load_fixture(name))
    assert error_codes(diags) == [code], "\n".join(d.render() for d in diags)


@pytest.mark.parametrize(
    "name, code",
    [
        ("mut_w_exh.tasc", "W-EXH"),
        ("mut_w_lfc.tasc", "W-LFC"),
        ("mut_w_cnt.tasc", "W-CNT"),
    ],
)
def test_warning_fixtures(name, code):
    diags = validate(load_fixture(name))
    assert error_codes(diags) == []
    assert code in warning_codes(diags)


def test_free_choice_warning(elements_set):
    diags = validate(elements_set)
    assert error_codes(diags) == []
    assert "W-FREE" in warning_codes(diags)


def test_gdm_corpus_clean(gdm_set):
    diags = validate(gdm_set)
    assert not has_errors(diags)
    assert diags == []


def test_strict_mode_promotes_warnings():
    cmset = load_fixture("mut_w_exh.tasc")
    relaxed = validate(cmset)
    strict = validate(cmset, ValidatorConfig(strict=True))
    assert not has_errors(relaxed)
    assert has_errors(strict)
    assert [d.code for d in relaxed] == [d.code for d in strict]


def test_diagnostics_are_deterministic_and_sorted():
    cmset = load_fixture("mut_s7.tasc")
    first = validate(cmset)
    second = validate(cmset)
    assert first == second
    keys = [(d.caremap, d.code, d.subjects) for d in first]
    assert keys == sorted(keys)


def test_diagnostic_subjects_name_real_nodes():
    cmset = load_fixture("mut_s3.tasc")
    diags = validate(cmset)
    s3 = next(d for d in diags if d.code == "S3")
    assert "orphan" in s3.subjects

