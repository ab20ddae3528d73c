import json

import pytest
from hypothesis import given, strategies as st

from logtrust import (
    DocumentNotHeldError,
    InternallyConflictingSetError,
    LogTrustError,
    MissingObligationError,
    NoPendingMessageError,
    Obligation,
    ObligationAtom,
    PerformedShare,
    ScenarioError,
    SelfShareError,
    Simulation,
    Verb,
    parse_command,
    parse_scenario,
    replay_comments,
    run_scenario,
)
from logtrust import simulator
from logtrust.simulator import apply_command
from conftest import final_states

A = ObligationAtom
READ_OK = [A(Verb.READ, True)]


def test_clocks_count_per_peer():
    sim = Simulation()
    assert sim.clock("P1") == 0
    assert sim.create_doc("P1", "d") == 1
    assert sim.edit("P1", "d", Verb.READ) == 2
    assert sim.share("P1", "d", "P2", READ_OK) == 3
    # one counter per peer, shared across documents
    assert sim.create_doc("P1", "e") == 4
    assert sim.clock("P1") == 4
    # other peers tick independently
    sim.deliver("P2", "P1", "d")
    assert sim.clock("P2") == 1


def test_create_twice_rejected():
    sim = Simulation()
    sim.create_doc("P1", "d")
    with pytest.raises(LogTrustError):
        sim.create_doc("P2", "d")


def test_acting_without_holding_rejected():
    sim = Simulation()
    with pytest.raises(DocumentNotHeldError):
        sim.edit("P1", "d", Verb.READ)
    with pytest.raises(DocumentNotHeldError):
        sim.share("P1", "d", "P2", READ_OK)
    with pytest.raises(DocumentNotHeldError):
        sim.audit("P1", "d")


def test_share_validation():
    sim = Simulation()
    sim.create_doc("P1", "d")
    with pytest.raises(SelfShareError):
        sim.share("P1", "d", "P1", READ_OK)
    assert sim._channels == {}  # a rejected share leaves no channel behind
    with pytest.raises(InternallyConflictingSetError):
        sim.share("P1", "d", "P2", [A(Verb.READ, True), A(Verb.READ, False)])
    assert sim._channels == {}
    with pytest.raises(MissingObligationError):
        sim.share("P1", "d", "P2", [])
    assert sim._channels == {}


def test_share_accepts_atoms_as_generator():
    sim = Simulation()
    sim.create_doc("P1", "d")
    assert sim.share("P1", "d", "P2", (atom for atom in READ_OK)) == 2
    with pytest.raises(ValueError, match="duplicate"):
        sim.share("P1", "d", "P2", (atom for atom in READ_OK + READ_OK))


def test_send_back_without_obligations():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", READ_OK)
    sim.deliver("P2", "P1", "d")
    # P2 got the document from P1, so returning it needs no obligations
    sim.share("P2", "d", "P1", [])
    message = sim.pending("P2", "P1", "d")[0]
    assert [type(e) for e in message.comm_log if e.by == "P2"] == [PerformedShare]
    # but P2 cannot pass it to a third peer without obligations
    with pytest.raises(MissingObligationError):
        sim.share("P2", "d", "P3", [])


def test_deliver_requires_pending_message():
    sim = Simulation()
    sim.create_doc("P1", "d")
    with pytest.raises(NoPendingMessageError):
        sim.deliver("P2", "P1", "d")


@pytest.mark.parametrize(
    "call",
    [
        ("create_doc", "P1", ""),
        ("create_doc", "P1", None),
        ("create_doc", "P1", 3),
        ("create_doc", "", "e"),
        ("create_doc", 7, "e"),
        ("edit", None, "d", Verb.READ),
        ("edit", "P1", 3, Verb.READ),
        ("batch", "P1", "", [Verb.READ, Verb.COMMENT]),
        ("share", "P1", "d", "", READ_OK),
        ("share", "P1", "d", 2, READ_OK),
        ("share", "P1", "d", None, READ_OK),
        ("share", None, "d", "P2", READ_OK),
        ("share", "P1", "", "P2", READ_OK),
        ("deliver", None, "P1", "d"),
        ("deliver", "P2", "", "d"),
        ("deliver", "P2", "P1", 3),
        ("audit", "", "d"),
        ("audit", "P1", None),
        ("audit", ["P1"], "d"),
        ("edit", "P1", ["d"], Verb.READ),
        ("deliver", "P2", ["P1"], "d"),
        ("pending", ["x"], "P2", "d"),
        ("pending", 1, "P2", "d"),
        ("pending", "P1", "P2", ""),
        ("holds", ["x"], "d"),
        ("holds", "P1", None),
    ],
    ids=lambda call: call[0] + repr(tuple(a for a in call[1:] if not isinstance(a, (Verb, list)))),
)
def test_bad_ids_are_rejected_before_any_state_changes(call):
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", READ_OK)
    before = (sim.clock("P1"), sim.documents(), sim.pending("P1", "P2", "d"))
    method, *args = call
    with pytest.raises(ValueError, match="must be a non-empty string"):
        getattr(sim, method)(*args)
    assert (sim.clock("P1"), sim.documents(), sim.pending("P1", "P2", "d")) == before
    # the engine can still list and audit everything it holds
    assert [sim.audit("P1", doc_id).violations for doc_id in sim.documents()] == [()]


@pytest.mark.parametrize(
    "call, message",
    [
        (("batch", "P1", "d", []), "batch requires at least one verb"),
        (("batch", "P1", "d", iter([])), "batch requires at least one verb"),
        (("batch", "P1", "e", ["create"]), "'create' is not a Verb"),
        (("batch", "P1", "d", [Verb.READ, None]), "None is not a Verb"),
        (("batch", "P1", "d", [Verb.READ, Verb.READ]), "batch verbs must be distinct"),
        (("batch", "P1", "d", (v for v in [Verb.READ] * 2)), "batch verbs must be distinct"),
        (("batch", "P1", "d", [Verb.READ, Verb.SHARE]), "share is not an edit verb"),
        (("edit", "P1", "d", "comment"), "'comment' is not a Verb"),
        (("edit", "P1", "d", Verb.SHARE), "share is not an edit verb"),
        (("share", "P1", "d", "P3", [("read", True)]), "('read', True) is not an obligation atom"),
        (("share", "P1", "d", "P3", [A("read", True)]),
         "ObligationAtom(verb='read', allow=True) is not an obligation atom"),
        (("share", "P1", "d", "P3", [A(Verb.READ, 1)]), "obligation allow must be a boolean"),
        (("share", "P1", "d", "P3", [A(Verb.READ, None)]), "obligation allow must be a boolean"),
        (("share", "P1", "d", "P3", [A(Verb.READ, [])]), "obligation allow must be a boolean"),
        (("share", "P1", "d", "P3", READ_OK * 2), "duplicate obligation atoms"),
        (("share", "P1", "d", "P3", iter(READ_OK * 2)), "duplicate obligation atoms"),
        (("share", "P1", "d", "P3", [A(Verb.CREATE, False)]), "create cannot appear in an obligation"),
        (("share", "P1", "d", "P3", None), "share atoms must be iterable, not NoneType"),
        (("share", "P1", "d", "P3", A(Verb.READ, True)),
         "share atoms must be iterable, not ObligationAtom"),
        (("batch", "P1", "d", Verb.READ), "batch verbs must be iterable, not Verb"),
        (("batch", "P1", "d", None), "batch verbs must be iterable, not NoneType"),
        (("edit", "P1", "e", Verb.CREATE), "create is not an edit verb"),
        (("edit", "P1", "d", Verb.CREATE), "create is not an edit verb"),
    ],
)
def test_bad_verbs_and_atoms_are_rejected_before_any_state_changes(call, message):
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", READ_OK)
    before = (sim.clock("P1"), sim.documents(), sim.pending("P1", "P2", "d"))
    method, *args = call
    with pytest.raises(Exception) as caught:
        getattr(sim, method)(*args)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
    assert (sim.clock("P1"), sim.documents(), sim.pending("P1", "P2", "d")) == before
    assert sim.pending("P1", "P3", "d") == ()


def test_batch_and_share_take_any_iterable():
    by_list, by_generator = Simulation(), Simulation()
    by_list.batch("P1", "d", [Verb.CREATE, Verb.COMMENT])
    by_generator.batch("P1", "d", (v for v in [Verb.CREATE, Verb.COMMENT]))
    atoms = [A(Verb.COMMENT, False), A(Verb.READ, True)]
    by_list.share("P1", "d", "P2", atoms)
    by_generator.share("P1", "d", "P2", iter(atoms))
    assert by_generator.peer_state("P1", "d") == by_list.peer_state("P1", "d")
    assert by_generator.pending("P1", "P2", "d") == by_list.pending("P1", "P2", "d")


def test_channels_are_fifo():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", READ_OK)
    sim.edit("P1", "d", Verb.COMMENT)
    sim.share("P1", "d", "P2", [A(Verb.COMMENT, True)])
    sent = sim.pending("P1", "P2", "d")
    sim.deliver("P2", "P1", "d")
    state = sim.peer_state("P2", "d")
    # only the first message arrived: no comment obligation yet
    assert not any(
        isinstance(e, Obligation) and e.verb is Verb.COMMENT for e in state.comm_log
    )
    assert sim.pending("P1", "P2", "d") == sent[1:]
    sim.deliver("P2", "P1", "d")
    state = sim.peer_state("P2", "d")
    assert any(
        isinstance(e, Obligation) and e.verb is Verb.COMMENT for e in state.comm_log
    )
    # a tuple read earlier never changes, and the emptied channel holds only
    # the messages it delivered
    assert len(sent) == 2 and sim.pending("P1", "P2", "d") == ()
    channel = sim._channels["P1", "P2", "d"]
    assert channel.delivered == len(channel.messages)
    with pytest.raises(NoPendingMessageError):
        sim.deliver("P2", "P1", "d")


def test_a_failed_receive_leaves_its_message_pending(monkeypatch):
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", READ_OK)
    before = (sim.clock("P2"), sim.holds("P2", "d"), sim.pending("P1", "P2", "d"))

    def failing(*args):
        raise ValueError("receive failed")

    monkeypatch.setattr(simulator, "_received", failing)
    with pytest.raises(ValueError, match="receive failed"):
        sim.deliver("P2", "P1", "d")
    assert (sim.clock("P2"), sim.holds("P2", "d"), sim.pending("P1", "P2", "d")) == before
    monkeypatch.undo()
    sim.deliver("P2", "P1", "d")
    assert sim.pending("P1", "P2", "d") == () and sim.holds("P2", "d")


def test_receipt_restamps_obligations_with_receiver_clock():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.edit("P1", "d", Verb.READ)
    sim.edit("P1", "d", Verb.COMMENT)
    sim.share("P1", "d", "P2", READ_OK)  # P1 clock 4
    sim.deliver("P2", "P1", "d")  # P2 clock 1
    state = sim.peer_state("P2", "d")
    obligation = next(e for e in state.comm_log if isinstance(e, Obligation))
    assert obligation.clock == 1
    assert obligation.origin.share_clock == 4
    share = next(e for e in state.comm_log if isinstance(e, PerformedShare))
    assert share.clock == 4, "performed events keep the sender-side clock"


def test_message_excludes_grants_to_third_parties():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", READ_OK)
    sim.share("P1", "d", "P3", [A(Verb.COMMENT, True)])
    message = sim.pending("P1", "P3", "d")[0]
    recipients = {e.to for e in message.comm_log}
    assert recipients == {"P3"}


def test_redelivery_keeps_settled_obligation_clock():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", READ_OK)
    sim.deliver("P2", "P1", "d")
    sim.share("P1", "d", "P2", [A(Verb.COMMENT, True)])
    sim.deliver("P2", "P1", "d")  # read grant arrives again inside this message
    state = sim.peer_state("P2", "d")
    read_grants = [
        e for e in state.comm_log if isinstance(e, Obligation) and e.verb is Verb.READ
    ]
    assert len(read_grants) == 1
    assert read_grants[0].clock == 1


def test_comment_lifecycle_and_replay():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.edit("P1", "d", Verb.COMMENT)  # clock 2 -> P1:2
    sim.edit("P1", "d", Verb.COMMENT)  # clock 3 -> P1:3
    sim.edit("P1", "d", Verb.DELETE_COMMENT)  # removes P1:3
    state = sim.peer_state("P1", "d")
    assert state.document.comments == {("P1", "P1:2")}
    assert replay_comments(state.edit_log) == state.document.comments
    # deleting with no own comments logs the action but changes nothing
    sim.edit("P1", "d", Verb.DELETE_COMMENT)
    sim.edit("P1", "d", Verb.DELETE_COMMENT)
    assert sim.peer_state("P1", "d").document.comments == set()
    assert sum(
        1 for e in sim.peer_state("P1", "d").edit_log if e.verb is Verb.DELETE_COMMENT
    ) == 3


def test_comments_are_replayed_on_demand_once_per_log():
    sim = Simulation()
    sim.batch("P1", "d", [Verb.CREATE, Verb.COMMENT])
    sim.share("P1", "d", "P2", READ_OK)
    sim.deliver("P2", "P1", "d")
    sim.audit("P2", "d")
    state = sim.peer_state("P2", "d")
    # neither the engine nor an audit reads the comment set
    assert state.edit_log._comments is None
    comments = state.document.comments
    assert comments == {("P1", "P1:1")}
    assert replay_comments(state.edit_log) is comments


def test_batch_executes_in_canonical_verb_order():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.edit("P1", "d", Verb.COMMENT)  # P1:2
    # listed deletion-first, but comment applies first at the shared tick,
    # so the deletion removes the fresh comment
    clock = sim.batch("P1", "d", [Verb.DELETE_COMMENT, Verb.COMMENT])
    assert clock == 3
    assert sim.peer_state("P1", "d").document.comments == {("P1", "P1:2")}


def test_batch_validation():
    sim = Simulation()
    sim.create_doc("P1", "d")
    with pytest.raises(ValueError):
        sim.batch("P1", "d", [])
    with pytest.raises(ValueError):
        sim.batch("P1", "d", [Verb.READ, Verb.READ])
    with pytest.raises(LogTrustError):
        sim.batch("P1", "d", [Verb.CREATE])


def test_failed_batch_leaves_no_state():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.batch("P1", "d", [Verb.CREATE, Verb.SHARE])
    with pytest.raises(ValueError):
        sim.batch("", "d", [Verb.CREATE])
    assert sim.documents() == ()
    assert not sim.holds("P1", "d")
    assert sim.clock("P1") == 0


def test_document_spreads_through_delivery():
    sim = Simulation()
    sim.batch("P1", "d", [Verb.CREATE, Verb.COMMENT])
    sim.share("P1", "d", "P2", READ_OK)
    sim.deliver("P2", "P1", "d")
    state = sim.peer_state("P2", "d")
    assert state.document.creator == "P1"
    assert state.document.comments == {("P1", "P1:1")}
    assert sim.holds("P2", "d")
    assert sim.peers() == ("P1", "P2")
    assert sim.documents() == ("d",)


# -- scenario parsing ------------------------------------------------------


_OPS_TEXT = "expected one of create, edit, batch, share, deliver, audit"
_EDIT = {"op": "edit", "peer": "P1", "doc_id": "d"}
_BATCH = {"op": "batch", "peer": "P1", "doc_id": "d"}
_SHARE = {"op": "share", "from": "P1", "to": "P2", "doc_id": "d", "obligations": []}
_DELIVER = {"op": "deliver", "from": "P1", "to": "P2", "doc_id": "d"}
_AUDIT = {"op": "audit", "peer": "P1", "doc_id": "d"}


def _obl(*atoms):
    return dict(_SHARE, obligations=list(atoms))


_READ_OK = {"verb": "read", "allow": True}

# One case per check in parse_command, with the exact message it raises.
COMMAND_REJECTIONS = [
    ("not an object", "command must be an object"),
    (None, "command must be an object"),
    (["op", "create"], "command must be an object"),
    ({}, f"unknown op None; {_OPS_TEXT}"),
    ({"op": "destroy"}, f"unknown op 'destroy'; {_OPS_TEXT}"),
    ({"op": "Create"}, f"unknown op 'Create'; {_OPS_TEXT}"),
    ({"op": 3}, f"unknown op 3; {_OPS_TEXT}"),
    ({"op": []}, f"unknown op []; {_OPS_TEXT}"),
    ({"op": {}}, f"unknown op {{}}; {_OPS_TEXT}"),
    ({"op": "create", "peer": "P1"}, "create requires fields ['doc_id']"),
    ({"op": "create"}, "create requires fields ['doc_id', 'peer']"),
    ({"op": "create", "peer": "P1", "doc_id": "d", "verb": "read"},
     "create does not accept fields ['verb']"),
    ({"op": "create", "peer": "", "doc_id": "d"}, "peer must be a non-empty string"),
    ({"op": "create", "peer": 1, "doc_id": "d"}, "peer must be a non-empty string"),
    ({"op": "create", "peer": "P1", "doc_id": None}, "doc_id must be a non-empty string"),
    (_EDIT, "edit requires fields ['verb']"),
    (dict(_EDIT, verb="read", obligations=[]), "edit does not accept fields ['obligations']"),
    (dict(_EDIT, verb="read", peer=["P1"]), "peer must be a non-empty string"),
    (dict(_EDIT, verb="read", doc_id=""), "doc_id must be a non-empty string"),
    (dict(_EDIT, verb=3), "an edit verb must be a string"),
    (dict(_EDIT, verb="launch"), "unknown verb 'launch'"),
    (dict(_EDIT, verb="READ"), "unknown verb 'READ'"),
    (dict(_EDIT, verb="create"), "create is not allowed as an edit verb"),
    (dict(_EDIT, verb="share"), "share is not allowed as an edit verb"),
    (dict(_EDIT, verb="read", ignore_obligations="yes"), "ignore_obligations must be a boolean"),
    (dict(_EDIT, verb="read", ignore_obligations=1), "ignore_obligations must be a boolean"),
    (_BATCH, "batch requires fields ['verbs']"),
    (dict(_BATCH, verbs=["read"], verb="read"), "batch does not accept fields ['verb']"),
    (dict(_BATCH, verbs="read"), "verbs must be a non-empty array"),
    (dict(_BATCH, verbs=[]), "verbs must be a non-empty array"),
    (dict(_BATCH, verbs=[3]), "a batch verb must be a string"),
    (dict(_BATCH, verbs=["launch"]), "unknown verb 'launch'"),
    (dict(_BATCH, verbs=["share"]), "share is not allowed as a batch verb"),
    (dict(_BATCH, verbs=["read", None]), "a batch verb after the first must be a string"),
    (dict(_BATCH, verbs=["read", "launch"]), "unknown verb 'launch'"),
    (dict(_BATCH, verbs=["read", "create"]),
     "create is not allowed as a batch verb after the first"),
    (dict(_BATCH, verbs=["read", "read"]), "batch verbs must be distinct"),
    (dict(_BATCH, verbs=["create", "comment", "comment"]), "batch verbs must be distinct"),
    (dict(_BATCH, verbs=["read"], ignore_obligations=0), "ignore_obligations must be a boolean"),
    (dict(_BATCH, verbs=["read"], peer=""), "peer must be a non-empty string"),
    (dict(_BATCH, verbs=["read"], doc_id=5), "doc_id must be a non-empty string"),
    ({k: v for k, v in _SHARE.items() if k != "obligations"},
     "share requires fields ['obligations']"),
    (dict(_SHARE, ignore_obligations=True), "share does not accept fields ['ignore_obligations']"),
    (dict(_SHARE, obligations=_READ_OK), "obligations must be an array"),
    (dict(_SHARE, obligations=None), "obligations must be an array"),
    (_obl("read"), "each obligation must be {verb, allow}"),
    (_obl({"verb": "read"}), "each obligation must be {verb, allow}"),
    (_obl(dict(_READ_OK, by="P1")), "each obligation must be {verb, allow}"),
    (_obl({"verb": "read", "allow": "yes"}), "obligation allow must be a boolean"),
    (_obl({"verb": "read", "allow": 1}), "obligation allow must be a boolean"),
    (_obl({"verb": 3, "allow": True}), "an obligation verb must be a string"),
    (_obl({"verb": "launch", "allow": True}), "unknown verb 'launch'"),
    (_obl({"verb": "create", "allow": True}), "create is not allowed as an obligation verb"),
    (_obl(_READ_OK, _READ_OK), "duplicate obligation atoms"),
    (_obl(_READ_OK, {"verb": "read", "allow": False}),
     "set grants and forbids the same verb(s): read"),
    (_obl(_READ_OK, {"verb": "comment", "allow": True}, {"verb": "comment", "allow": False},
          {"verb": "read", "allow": False}),
     "set grants and forbids the same verb(s): comment, read"),
    (dict(_SHARE, **{"from": ""}), "from must be a non-empty string"),
    (dict(_SHARE, to=None), "to must be a non-empty string"),
    (dict(_SHARE, to="P1"), "cannot share with oneself"),
    (dict(_SHARE, doc_id=""), "doc_id must be a non-empty string"),
    # the obligations are checked before the peers
    (dict(_obl({"verb": "read", "allow": None}), to="P1"), "obligation allow must be a boolean"),
    ({k: v for k, v in _DELIVER.items() if k != "to"}, "deliver requires fields ['to']"),
    (dict(_DELIVER, obligations=[]), "deliver does not accept fields ['obligations']"),
    (dict(_DELIVER, **{"from": 1}), "from must be a non-empty string"),
    (dict(_DELIVER, to=""), "to must be a non-empty string"),
    (dict(_DELIVER, doc_id=[]), "doc_id must be a non-empty string"),
    ({"op": "audit", "doc_id": "d"}, "audit requires fields ['peer']"),
    (dict(_AUDIT, mode="prose"), "audit does not accept fields ['mode']"),
    (dict(_AUDIT, peer=""), "peer must be a non-empty string"),
    (dict(_AUDIT, doc_id=False), "doc_id must be a non-empty string"),
]


@pytest.mark.parametrize("raw, message", COMMAND_REJECTIONS)
def test_parse_command_rejections_are_pinned(raw, message):
    with pytest.raises(Exception) as caught:
        parse_command(raw)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


# Lists with several faults: the first check in parse_command's order names one.
FIRST_FAULTS = [
    (_obl({"verb": "read", "allow": "yes"}, {"verb": "launch", "allow": True}),
     "unknown verb 'launch'"),
    (_obl(_READ_OK, {"verb": "read", "allow": False}, _READ_OK),
     "set grants and forbids the same verb(s): read"),
    (_obl("read", {"verb": "launch", "allow": True}), "each obligation must be {verb, allow}"),
    (dict(_BATCH, verbs=["read", "read", "launch"]), "unknown verb 'launch'"),
]


@pytest.mark.parametrize("raw, message", FIRST_FAULTS)
def test_parse_command_names_the_first_fault_in_check_order(raw, message):
    with pytest.raises(Exception) as caught:
        parse_command(raw)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


# -- parse_command and the library check the same arguments ----------------

_VERB_NAMES = [verb.value for verb in Verb] + ["launch"]
_OBLIGATION_NAMES = {"read", "comment", "delete_comment", "share"}
_EDIT_NAMES = {"read", "comment", "delete_comment"}


class RecordingSimulation(Simulation):
    """A ``Simulation`` that records the canonical arguments of its op bodies."""

    def __init__(self):
        super().__init__()
        self.bodies = []

    def _batch(self, peer, doc_id, ordered):
        self.bodies.append(list(ordered))
        return super()._batch(peer, doc_id, ordered)

    def _share(self, state, recipient, pairs):
        self.bodies.append(list(pairs))
        return super()._share(state, recipient, pairs)


def _engine():
    """P1 holds ``d``, received from P2, so it may send it back without obligations."""
    sim = RecordingSimulation()
    sim.create_doc("P2", "d")
    sim.share("P2", "d", "P1", READ_OK)
    sim.deliver("P1", "P2", "d")
    sim.bodies.clear()
    return sim


def _outcome(call):
    """``("ok", None)`` if ``call()`` returns, else ``("rejected", message)``."""
    try:
        call()
    except (LogTrustError, ValueError) as exc:
        return "rejected", str(exc)
    return "ok", None


def _as_verb(name):
    """The verb ``name`` names, or ``name`` itself, which the library rejects."""
    return Verb(name) if name in _VERB_NAMES[:-1] else name


# Each list is drawn one of three ways: valid, in any order; known verbs
# that may repeat or conflict; or any value at any place.
_obligation_lists = st.one_of(
    st.dictionaries(st.sampled_from(sorted(_OBLIGATION_NAMES)), st.booleans()).map(
        lambda allows: [{"verb": verb, "allow": allow} for verb, allow in allows.items()]
    ),
    st.lists(st.fixed_dictionaries({
        "verb": st.sampled_from(sorted(_OBLIGATION_NAMES)), "allow": st.booleans(),
    }), max_size=6),
    st.lists(st.fixed_dictionaries({
        "verb": st.sampled_from(_VERB_NAMES),
        "allow": st.sampled_from([True, False, 1, 0, None, "yes"]),
    }), max_size=6),
)
_batch_lists = st.one_of(
    st.tuples(st.booleans(), st.lists(st.sampled_from(sorted(_EDIT_NAMES)), unique=True)).map(
        lambda drawn: ["create"] * drawn[0] + drawn[1]
    ).filter(bool),
    st.lists(st.sampled_from(sorted(_EDIT_NAMES | {"create"})), min_size=1, max_size=6),
    st.lists(st.sampled_from(_VERB_NAMES), min_size=1, max_size=6),
)


@given(_obligation_lists)
def test_a_share_is_checked_alike_by_parse_command_and_the_library(obligations):
    """``parse_command`` accepts a share exactly when ``Simulation.share``
    accepts its atoms; with known obligation verbs only, a rejection has
    the same message on both paths; and ``apply_command`` gives the op
    body the library's canonical order."""
    command = _obl(*obligations)
    library = _engine()
    atoms = [ObligationAtom(_as_verb(o["verb"]), o["allow"]) for o in obligations]
    expected = _outcome(lambda: library.share("P1", "d", "P2", atoms))
    got = _outcome(lambda: parse_command(command))
    assert got[0] == expected[0]
    if all(o["verb"] in _OBLIGATION_NAMES for o in obligations):
        assert got == expected
    if got[0] == "ok":
        stepped = _engine()
        apply_command(stepped, parse_command(command))
        assert stepped.bodies == library.bodies
        assert stepped.peer_state("P1", "d") == library.peer_state("P1", "d")


@given(_batch_lists)
def test_a_batch_is_checked_alike_by_parse_command_and_the_library(names):
    """``parse_command`` accepts a batch exactly when ``Simulation.batch``
    accepts its verbs and ``create``, if present, comes first, as a
    scenario requires (the library sorts it first); with a known verb at
    each place, a rejection has the same message on both paths; and
    ``apply_command`` gives the op body the library's canonical order."""
    doc_id = "e" if "create" in names else "d"
    command = dict(_BATCH, doc_id=doc_id, verbs=names)
    library = _engine()
    expected = _outcome(lambda: library.batch("P1", doc_id, [_as_verb(n) for n in names]))
    got = _outcome(lambda: parse_command(command))
    assert got[0] == ("rejected" if "create" in names[1:] else expected[0])
    if names[0] in _EDIT_NAMES | {"create"} and set(names[1:]) <= _EDIT_NAMES:
        assert got == expected
    if got[0] == "ok":
        stepped = _engine()
        apply_command(stepped, parse_command(command))
        assert stepped.bodies == library.bodies
        assert stepped.peer_state("P1", doc_id) == library.peer_state("P1", doc_id)


def test_parse_scenario_reports_command_index():
    data = {"commands": [{"op": "create", "peer": "P1", "doc_id": "d"}, {"op": "bogus"}]}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(data)
    assert "command 1" in str(exc.value)


def test_parse_scenario_checks_declared_peers():
    data = {
        "peers": ["P1"],
        "commands": [{"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
                      "obligations": [{"verb": "read", "allow": True}]}],
    }
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(data)
    assert "P2" in str(exc.value)


@pytest.mark.parametrize("peers", [[""], [5], "P1", ["P1", ""]])
def test_parse_scenario_rejects_a_bad_peers_list(peers):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({"peers": peers, "commands": []})
    assert exc.value.index is None
    assert str(exc.value) == "peers must be an array of non-empty strings"


def test_parse_scenario_rejects_a_name_that_is_no_string():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({"name": 5, "commands": []})
    assert exc.value.index is None
    assert str(exc.value) == "name must be a string"


def test_run_scenario_wraps_runtime_errors_with_index():
    data = {
        "commands": [
            {"op": "create", "peer": "P1", "doc_id": "d"},
            {"op": "deliver", "from": "P1", "to": "P2", "doc_id": "d"},
        ]
    }
    with pytest.raises(ScenarioError) as exc:
        run_scenario(data)
    assert "command 1" in str(exc.value)


def test_run_scenario_validates_everything_before_running():
    data = {
        "commands": [
            {"op": "create", "peer": "P1", "doc_id": "d"},
            {"op": "edit", "peer": "P1", "doc_id": "d", "verb": "launch"},
        ]
    }
    with pytest.raises(ScenarioError):
        run_scenario(data)


def test_ignore_obligations_is_annotation_only():
    command = parse_command(
        {
            "op": "edit",
            "peer": "P2",
            "doc_id": "d",
            "verb": "comment",
            "ignore_obligations": True,
        }
    )
    assert command["ignore_obligations"] is True

    # the flag never blocks anything: the same scenario with and without
    # it produces identical logs
    base = {
        "commands": [
            {"op": "create", "peer": "P1", "doc_id": "d"},
            {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
             "obligations": [{"verb": "comment", "allow": False}]},
            {"op": "deliver", "from": "P1", "to": "P2", "doc_id": "d"},
            {"op": "edit", "peer": "P2", "doc_id": "d", "verb": "comment"},
        ]
    }
    flagged = json.loads(json.dumps(base))
    flagged["commands"][3]["ignore_obligations"] = True
    plain_states = final_states(run_scenario(base))
    flagged_states = final_states(run_scenario(flagged))
    assert plain_states == flagged_states

    with pytest.raises(ScenarioError):
        parse_scenario(
            {"commands": [
                {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
                 "obligations": [{"verb": "read", "allow": True}],
                 "ignore_obligations": True},
            ]}
        )


def test_scenario_trace_is_deterministic(paper_scenario):
    first = run_scenario(paper_scenario).to_dict()
    second = run_scenario(paper_scenario).to_dict()
    assert first == second


def test_paper_scenario_reports_single_violation(paper_scenario):
    trace = run_scenario(paper_scenario)
    assert len(trace.reports) == 1
    report = trace.reports[0]
    assert report.assessor == "P3"
    assert [(v.offender, v.verb, v.action_clock) for v in report.violations] == [
        ("P2", Verb.COMMENT, 2)
    ]
