import json
from pathlib import Path

import pytest
from hypothesis import settings

from logtrust import Log, LogRole, event_from_dict

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"
DATA = Path(__file__).resolve().parent / "data"

# Sizes of the stateful machine in test_simulation_contract.py: ``machine``
# keeps Tier-1 short, and ``pytest --hypothesis-profile=long`` runs the
# machine under ``long``.  Its ``max_examples=100`` is Hypothesis's
# default, so ``long`` lengthens only the state machine.
settings.register_profile("machine", max_examples=30, stateful_step_count=40, deadline=None)
settings.register_profile("long", max_examples=100, stateful_step_count=200, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--large", action="store_true", help="run the tests marked large, which Tier-1 skips"
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "large: a whole large scenario against the reference engine (needs --large)"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--large"):
        return
    skip = pytest.mark.skip(reason="a large scenario; run with --large")
    for item in items:
        if "large" in item.keywords:
            item.add_marker(skip)


@pytest.fixture()
def paper_scenario():
    with open(SCENARIOS / "paper_example.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture()
def paper_golden():
    with open(DATA / "paper_example_golden.json", encoding="utf-8") as handle:
        return json.load(handle)


def logs_from_state(state):
    """Rebuild Log objects from one serialized trace state entry."""
    edit = Log.from_events(
        LogRole.EDIT, [event_from_dict(e) for e in state["edit"]]
    )
    comm = Log.from_events(
        LogRole.COMM, [event_from_dict(e) for e in state["comm"]]
    )
    return edit, comm
