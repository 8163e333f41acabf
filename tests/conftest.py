"""Let the ``python -m hyperfa.cli`` children that some tests start import
the package from ``src/``, as pyproject's ``pythonpath`` does for the tests
themselves, and fail any test that leaves the cyclic collector disabled."""

import gc
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """fa's constructions pause the collector; a pause leaked on an error
    path would otherwise go unseen by every later test."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic collector disabled")
