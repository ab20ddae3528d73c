import json
from pathlib import Path

import pytest
from hypothesis import find, settings, strategies as st

from logtrust import ScenarioTrace, log_from_dict

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"
DATA = Path(__file__).resolve().parent / "data"

# Sizes of the stateful machine in test_simulation_contract.py: ``machine``
# keeps Tier-1 short, and ``pytest --hypothesis-profile=long`` runs the
# machine under ``long``.  Its ``max_examples=100`` is Hypothesis's
# default, so ``long`` lengthens only the state machine.
settings.register_profile("machine", max_examples=30, stateful_step_count=40, deadline=None)
settings.register_profile("long", max_examples=100, stateful_step_count=200, deadline=None)
# ``pytest tests/test_events.py --hypothesis-profile=events`` runs the log
# property tests (lineage ops, receives, merges) ten times as long.
settings.register_profile("events", max_examples=1000, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--large", action="store_true", help="run the tests marked large, which Tier-1 skips"
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "large: a whole large scenario, too slow for Tier-1 (needs --large)"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--large"):
        return
    skip = pytest.mark.skip(reason="a large scenario; run with --large")
    for item in items:
        if "large" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session", autouse=True)
def unicode_character_map():
    """Have Hypothesis build its Unicode character map before any test runs.

    Without a ``.hypothesis/`` directory, as on a fresh checkout, the first
    ``st.text()`` draw builds the map (seconds), and the test that draws it
    fails Hypothesis's too_slow health check.  Built here, it is in memory
    for every test and cached under ``.hypothesis/`` for later runs.
    """
    find(st.text(min_size=1), lambda text: True)


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
    return tuple(
        log_from_dict({"doc_id": state["doc"], "role": role, "events": state[role]})[1]
        for role in ("edit", "comm")
    )


def final_states(trace):
    """The states of ``trace``'s last snapshot, as the trace writer writes them."""
    last = ScenarioTrace(trace.name, trace.mode, trace.trust_model, trace.snapshots[-1:])
    return last.to_dict()["snapshots"][0]["states"]
