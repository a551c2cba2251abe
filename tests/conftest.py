import functools
import sys

import pytest

from twobridge import cli, slopes  # cli loads every module that might hold farey_chain
from twobridge.markoff import geometric_evaluation
from twobridge.mcshane import cusp_shape
from twobridge.slopes import Slope


@functools.lru_cache(maxsize=None)
def _evaluation(num, den):
    return geometric_evaluation(Slope(num, den))


@functools.lru_cache(maxsize=None)
def _report(num, den):
    return cusp_shape(Slope(num, den), ev=_evaluation(num, den))


@pytest.fixture(scope="session")
def evaluation_for():
    """Cached geometric evaluations keyed by slope."""
    return lambda r: _evaluation(r.num, r.den)


@pytest.fixture(scope="session")
def report_for():
    """Cached identity reports keyed by slope."""
    return lambda r: _report(r.num, r.den)


@pytest.fixture(autouse=True)
def fresh_cli_caches():
    """Every test starts with empty CLI caches, so a test that replaces a
    layer is never served what an earlier test computed."""
    cli._evaluation.cache_clear()
    cli._rendered.cache_clear()


@pytest.fixture
def count_farey_chains(monkeypatch):
    """The slopes whose Farey chain is built while the test runs: every
    twobridge module attribute that refers to ``farey_chain`` is replaced
    by a counting wrapper."""
    built = []
    original = slopes.farey_chain

    def counted(r):
        built.append(r)
        return original(r)

    for name, module in list(sys.modules.items()):
        if name == "twobridge" or name.startswith("twobridge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return built


@pytest.fixture(scope="session")
def ev25(evaluation_for):
    return evaluation_for(Slope(2, 5))
