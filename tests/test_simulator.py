import json

import pytest

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
    with pytest.raises(InternallyConflictingSetError):
        sim.share("P1", "d", "P2", [A(Verb.READ, True), A(Verb.READ, False)])
    with pytest.raises(MissingObligationError):
        sim.share("P1", "d", "P2", [])


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


def test_channels_are_fifo():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", READ_OK)
    sim.edit("P1", "d", Verb.COMMENT)
    sim.share("P1", "d", "P2", [A(Verb.COMMENT, True)])
    sim.deliver("P2", "P1", "d")
    state = sim.peer_state("P2", "d")
    # only the first message arrived: no comment obligation yet
    assert not any(
        isinstance(e, Obligation) and e.verb is Verb.COMMENT for e in state.comm_log
    )
    sim.deliver("P2", "P1", "d")
    state = sim.peer_state("P2", "d")
    assert any(
        isinstance(e, Obligation) and e.verb is Verb.COMMENT for e in state.comm_log
    )


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


def test_parse_command_rejects_malformed():
    bad_commands = [
        "not an object",
        {"op": "destroy"},
        {"op": "create", "peer": "P1"},
        {"op": "create", "peer": "P1", "doc_id": "d", "verb": "read"},
        {"op": "edit", "peer": "P1", "doc_id": "d", "verb": "create"},
        {"op": "edit", "peer": "P1", "doc_id": "d", "verb": "share"},
        {"op": "batch", "peer": "P1", "doc_id": "d", "verbs": []},
        {"op": "batch", "peer": "P1", "doc_id": "d", "verbs": ["read", "create"]},
        {"op": "batch", "peer": "P1", "doc_id": "d", "verbs": ["read", "read"]},
        {"op": "share", "from": "P1", "to": "P1", "doc_id": "d", "obligations": []},
        {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
         "obligations": [{"verb": "create", "allow": True}]},
        {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
         "obligations": [{"verb": "read", "allow": True}, {"verb": "read", "allow": False}]},
        {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
         "obligations": [{"verb": "read", "allow": "yes"}]},
        {"op": "deliver", "from": "P1", "doc_id": "d"},
        {"op": "audit", "peer": "", "doc_id": "d"},
    ]
    for raw in bad_commands:
        with pytest.raises(ValueError):
            parse_command(raw)


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
    assert command.ignore_obligations is True
    assert command.describe()["ignore_obligations"] is True

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
    plain_states = run_scenario(base).snapshots[-1].states
    flagged_states = run_scenario(flagged).snapshots[-1].states
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
