import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stride_lab import analysis
from stride_lab.builder import build, make_request


@pytest.fixture
def fresh_edges(monkeypatch):
    """An empty edge table (``analysis._EDGES``) for one test, so what the
    test walks does not depend on the tests run before it."""
    monkeypatch.setattr(analysis, "_EDGES", {})


@pytest.fixture(scope="session")
def mod34():
    return build(make_request("modified_resnet", 34, path="MOD"))


@pytest.fixture(scope="session")
def gemini34():
    return build(make_request("gemini_resnet", 34, path="T14c"))


@pytest.fixture(scope="session")
def original34():
    return build(make_request("original_resnet", 34, path="ORI"))


@pytest.fixture(scope="session")
def df183():
    return build(make_request("df_resnet", 183, path="T14c"))
