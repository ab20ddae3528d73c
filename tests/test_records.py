"""The library's immutable records: what they promise, and what importing them costs.

Every record compares, hashes and prints by its public fields, refuses
assignment and deletion, and is copied or unpickled by its constructor,
which builds an event's sort and identity keys anew.  The ``repr`` texts
and ``__match_args__`` below are pinned: callers print records and
match on them.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import logtrust
from logtrust import (
    AuditMode,
    AuditReport,
    CommandSnapshot,
    Document,
    FixedStepTrust,
    Log,
    LogRole,
    Message,
    MultiplicativeTrust,
    Obligation,
    ObligationAtom,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    ScenarioTrace,
    Verb,
    Violation,
    dedup_key,
    run_scenario,
    sort_key,
)
from logtrust.simulator import _History

ORIGIN = OriginKey("P1", "P2", 3)
EDIT = PerformedEdit(4, Verb.COMMENT, "P2")
SHARE = PerformedShare(3, "P1", "P2")
FORBID = Obligation(3, Verb.COMMENT, False, "P1", "P2", ORIGIN)
VIOLATION = Violation("P2", Verb.COMMENT, 4, FORBID)
SNAPSHOT = CommandSnapshot(0, {"op": "create_doc", "peer": "P1", "doc_id": "d"}, 1, None, _History())

FORBID_REPR = (
    "Obligation(clock=3, verb=<Verb.COMMENT: 'comment'>, allow=False, by='P1', to='P2',"
    " origin=OriginKey(grantor='P1', grantee='P2', share_clock=3))"
)
VIOLATION_REPR = (
    f"Violation(offender='P2', verb=<Verb.COMMENT: 'comment'>, action_clock=4, forbid={FORBID_REPR})"
)
EDIT_REPR = "PerformedEdit(clock=4, verb=<Verb.COMMENT: 'comment'>, by='P2')"
SHARE_REPR = "PerformedShare(clock=3, by='P1', to='P2')"
SNAPSHOT_REPR = (
    "CommandSnapshot(index=0, command={'op': 'create_doc', 'peer': 'P1', 'doc_id': 'd'},"
    " clock=1, report=None)"
)

# One instance of each record class, with its repr and __match_args__ as
# they were when the records were frozen dataclasses, and, for a class
# with defaults, a record built from them and the record they must give.
RECORDS = [
    (ORIGIN, "OriginKey(grantor='P1', grantee='P2', share_clock=3)",
     ("grantor", "grantee", "share_clock"), None),
    (EDIT, EDIT_REPR, ("clock", "verb", "by"), None),
    (SHARE, SHARE_REPR, ("clock", "by", "to"), None),
    (FORBID, FORBID_REPR, ("clock", "verb", "allow", "by", "to", "origin"), None),
    (Document("d", "P1", frozenset({("P2", "P2:4")})),
     "Document(doc_id='d', creator='P1', comments=frozenset({('P2', 'P2:4')}))",
     ("doc_id", "creator", "comments"),
     (lambda: Document("d", "P1"), Document("d", "P1", frozenset()))),
    (VIOLATION, VIOLATION_REPR, ("offender", "verb", "action_clock", "forbid"), None),
    (AuditReport("P1", "d", AuditMode.PROSE, (VIOLATION,), {"P1": 1.0, "P2": 0.5}),
     f"AuditReport(assessor='P1', doc_id='d', mode=<AuditMode.PROSE: 'prose'>,"
     f" violations=({VIOLATION_REPR},), trust={{'P1': 1.0, 'P2': 0.5}})",
     ("assessor", "doc_id", "mode", "violations", "trust"),
     (lambda: AuditReport("P1", "d", AuditMode.LITERAL, ()),
      AuditReport("P1", "d", AuditMode.LITERAL, (), {}))),
    (ObligationAtom(Verb.READ, True), "ObligationAtom(verb=<Verb.READ: 'read'>, allow=True)",
     ("verb", "allow"), None),
    (Message("P1", Log(LogRole.EDIT, (EDIT,)), Log(LogRole.COMM, (FORBID, SHARE))),
     f"Message(creator='P1', edit_log=Log(role=<LogRole.EDIT: 'edit'>, entries=({EDIT_REPR},)),"
     f" comm_log=Log(role=<LogRole.COMM: 'comm'>, entries=({FORBID_REPR}, {SHARE_REPR})))",
     ("creator", "edit_log", "comm_log"), None),
    (SNAPSHOT, SNAPSHOT_REPR, ("index", "command", "clock", "report", "_history"), None),
    (ScenarioTrace("x", AuditMode.PROSE, "multiplicative:0.5", ()),
     "ScenarioTrace(name='x', mode=<AuditMode.PROSE: 'prose'>, trust_model='multiplicative:0.5',"
     " snapshots=())",
     ("name", "mode", "trust_model", "snapshots"), None),
    (MultiplicativeTrust(0.25), "MultiplicativeTrust(factor=0.25, max_value=1.0)",
     ("factor", "max_value"), (lambda: MultiplicativeTrust(), MultiplicativeTrust(0.5, 1.0))),
    (FixedStepTrust(0.25, 0.5), "FixedStepTrust(delta=0.25, max_value=0.5)",
     ("delta", "max_value"), (lambda: FixedStepTrust(delta=0.2), FixedStepTrust(0.2, 1.0))),
]


def fields(record) -> tuple:
    """``record``'s constructor arguments, read from its fields."""
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def assert_same_record(copied, record):
    """``copied`` is ``record`` rebuilt: equal, or for a snapshot, which
    equals only itself, equal in every field but the run it reads."""
    assert type(copied) is type(record)
    if isinstance(record, CommandSnapshot):
        assert copied != record
        assert fields(copied)[:-1] == fields(record)[:-1]
        assert type(copied._history) is _History
    else:
        assert copied == record
    if isinstance(record, (PerformedEdit, PerformedShare, Obligation)):
        fresh = type(record)(*fields(record))
        assert (copied._key, copied._id) == (fresh._key, fresh._id)
        assert (copied._key, copied._id) == (sort_key(record), dedup_key(record))


@pytest.mark.parametrize(
    "record, text, match_args, defaults", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_record_contract(record, text, match_args, defaults):
    cls = type(record)
    assert repr(record) == text
    assert cls.__match_args__ == match_args

    twin = cls(*fields(record))
    by_name = cls(**dict(zip(match_args, fields(record))))
    if cls is CommandSnapshot:  # equal only to itself
        assert record == record and hash(record) == object.__hash__(record)
        assert twin != record and by_name != record
    elif cls is AuditReport:  # its trust table is a dict
        assert twin == record == by_name and twin is not record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert twin == record == by_name and twin is not record
        assert hash(twin) == hash(record) == hash(by_name)
    assert record != object()

    for name in match_args:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value

    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert_same_record(copied, record)

    if defaults is not None:
        build, expected = defaults
        assert build() == expected
        if cls is AuditReport:  # a new empty table each time
            assert build().trust == {} and build().trust is not build().trust


def test_a_copied_or_unpickled_trace_writes_the_same_json(paper_scenario):
    trace = run_scenario(paper_scenario)
    text = "".join(trace.json_pieces())
    for copied in (copy.copy(trace), copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
        assert "".join(copied.json_pieces()) == text


def _fresh_python(code: str) -> str:
    """What ``code`` prints in a new interpreter over this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(logtrust.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # ``dataclasses`` pulls in ``inspect`` and ``ast``: about a third of the
    # CLI's start-up time, which every ``logtrust audit`` call pays.
    probe = "import sys; print('dataclasses' in sys.modules)"
    if _fresh_python(probe) != "False":
        pytest.skip("a bare interpreter here already holds dataclasses")
    assert _fresh_python(f"import logtrust.cli; logtrust.cli.build_parser(); {probe}") == "False"
