from __future__ import annotations

import concurrent.futures
import io
import pickle
from pathlib import Path

import pytest

from tasc import dsl, synthesis
from tasc.model import CaremapSet

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


class _TaskPickler(pickle.Pickler):
    """Pickles a pool task as a real pool would, refusing a caremap set or a compiled
    model: those reach each worker once, through the pool's initializer."""

    def reducer_override(self, obj):
        assert not isinstance(obj, (CaremapSet, synthesis.STM)), (
            f"a pool task carries a {type(obj).__name__}")
        return NotImplemented


def _sent(task):
    """task as a worker process would receive it."""
    buf = io.BytesIO()
    _TaskPickler(buf).dump(task)
    return pickle.loads(buf.getvalue())


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool with one that runs calls inline, on pickled copies
    of each task's function and arguments, none of which may hold a CaremapSet or
    an STM.

    Returns the list of max_workers values the code under test asked for.
    """
    requested: list[int] = []

    class InlinePool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            requested.append(max_workers)
            if initializer is not None:  # this process stands in for every worker
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            for args in zip(*iterables):
                task_fn, task_args = _sent((fn, args))
                yield task_fn(*task_args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return requested
