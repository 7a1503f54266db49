from __future__ import annotations

import concurrent.futures
from pathlib import Path

import pytest

from tasc import dsl

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def load_corpus(name: str):
    path = CORPUS / name
    return dsl.parse_or_raise(path.read_text(encoding="utf-8"), str(path))


@pytest.fixture(scope="session")
def gdm_set():
    return load_corpus("gdm.tasc")


@pytest.fixture(scope="session")
def elements_set():
    return load_corpus("all_elements.tasc")


@pytest.fixture(scope="session")
def labour_set():
    return load_corpus("labour_birth.tasc")


@pytest.fixture(scope="session")
def labour_counts_text():
    return (CORPUS / "labour_birth_counts.csv").read_text(encoding="utf-8")


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool with one that runs calls inline.

    Returns the list of max_workers values the code under test asked for.
    """
    requested: list[int] = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return requested
