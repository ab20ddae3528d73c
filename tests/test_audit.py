import pytest

from logtrust import (
    AuditMode,
    Document,
    FixedStepTrust,
    Log,
    LogRole,
    MixedRolesError,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    UnknownCreatorError,
    Verb,
    Violation,
    derive_creator,
    detect_violations,
    empty_log,
    local_trust_assessment,
    parse_audit_mode,
    report_to_dict,
)


def obl(clock, verb, allow, by="P1", to="P2", share_clock=None):
    share_clock = clock if share_clock is None else share_clock
    return Obligation(clock, verb, allow, by, to, OriginKey(by, to, share_clock))


def edit_log(*events):
    return Log.from_events(LogRole.EDIT, events)


def comm_log(*events):
    return Log.from_events(LogRole.COMM, events)


BASE_EDIT = edit_log(
    PerformedEdit(1, Verb.CREATE, "P1"),
    PerformedEdit(2, Verb.COMMENT, "P2"),
)


def test_forbidden_action_is_flagged_with_source_details():
    comm = comm_log(obl(1, Verb.COMMENT, False))
    violations = detect_violations(BASE_EDIT, comm)
    assert len(violations) == 1
    v = violations[0]
    assert (v.offender, v.verb, v.action_clock) == ("P2", Verb.COMMENT, 2)
    assert v.forbid_clock == 1
    assert v.grantor == "P1"
    assert v.origin == OriginKey("P1", "P2", 1)


def test_permitted_and_unspecified_actions_pass():
    permitted = comm_log(obl(1, Verb.COMMENT, True))
    assert detect_violations(BASE_EDIT, permitted) == ()
    assert detect_violations(BASE_EDIT, empty_log(LogRole.COMM)) == ()


def test_creator_is_exempt():
    edit = edit_log(
        PerformedEdit(1, Verb.CREATE, "P1"),
        PerformedEdit(3, Verb.COMMENT, "P1"),
    )
    comm = comm_log(obl(2, Verb.COMMENT, False, by="P2", to="P1"))
    assert detect_violations(edit, comm) == ()


def test_forbidden_share_is_flagged():
    comm = comm_log(
        obl(1, Verb.SHARE, False),
        PerformedShare(2, "P2", "P3"),
    )
    violations = detect_violations(edit_log(PerformedEdit(1, Verb.CREATE, "P1")), comm)
    assert [(v.offender, v.verb, v.action_clock) for v in violations] == [
        ("P2", Verb.SHARE, 2)
    ]


def test_empty_edit_log_with_benign_comm_log_is_clean():
    comm = comm_log(obl(1, Verb.COMMENT, False), obl(2, Verb.READ, True))
    assert detect_violations(empty_log(LogRole.EDIT), comm) == ()


def test_empty_edit_log_still_audits_shares():
    comm = comm_log(obl(1, Verb.SHARE, False), PerformedShare(2, "P2", "P3"))
    violations = detect_violations(empty_log(LogRole.EDIT), comm)
    assert [(v.offender, v.verb) for v in violations] == [("P2", Verb.SHARE)]


def test_nonempty_edit_log_without_create_is_rejected():
    edit = edit_log(PerformedEdit(1, Verb.READ, "P2"))
    with pytest.raises(UnknownCreatorError):
        detect_violations(edit, empty_log(LogRole.COMM))
    assert derive_creator(empty_log(LogRole.EDIT)) is None
    assert derive_creator(BASE_EDIT) == "P1"


def test_document_creator_overrides_derivation():
    edit = edit_log(PerformedEdit(1, Verb.READ, "P2"))
    comm = comm_log(obl(1, Verb.READ, False, by="P1", to="P2"))
    assert detect_violations(edit, comm, Document("d", "P2")) == ()
    flagged = detect_violations(edit, comm, Document("d", "P1"))
    assert len(flagged) == 0  # obligation at clock 1 is not before clock 1
    edit2 = edit_log(PerformedEdit(2, Verb.READ, "P2"))
    assert len(detect_violations(edit2, comm, Document("d", "P1"))) == 1


def test_role_arguments_are_checked():
    with pytest.raises(MixedRolesError):
        detect_violations(empty_log(LogRole.COMM), empty_log(LogRole.COMM))
    with pytest.raises(MixedRolesError):
        detect_violations(empty_log(LogRole.EDIT), empty_log(LogRole.EDIT))


def test_violations_ordered_by_offender_clock_verb():
    edit = edit_log(
        PerformedEdit(1, Verb.CREATE, "P1"),
        PerformedEdit(3, Verb.COMMENT, "P3"),
        PerformedEdit(2, Verb.READ, "P2"),
        PerformedEdit(2, Verb.COMMENT, "P2"),
    )
    comm = comm_log(
        obl(1, Verb.COMMENT, False),
        obl(1, Verb.READ, False, share_clock=2),
        obl(1, Verb.COMMENT, False, to="P3"),
        obl(1, Verb.SHARE, False, share_clock=3),
        PerformedShare(2, "P2", "P4"),
        PerformedShare(1, "P3", "P4"),
    )
    violations = detect_violations(edit, comm)
    assert [(v.offender, v.action_clock, v.verb) for v in violations] == [
        ("P2", 2, Verb.READ),
        ("P2", 2, Verb.COMMENT),
        ("P2", 2, Verb.SHARE),
        ("P3", 3, Verb.COMMENT),
    ]


def test_prose_override_forgives_literal_does_not():
    comm = comm_log(
        obl(1, Verb.COMMENT, False),
        obl(3, Verb.COMMENT, True, share_clock=4),
    )
    edit = edit_log(
        PerformedEdit(1, Verb.CREATE, "P1"),
        PerformedEdit(4, Verb.COMMENT, "P2"),
    )
    assert detect_violations(edit, comm, mode=AuditMode.PROSE) == ()
    flagged = detect_violations(edit, comm, mode=AuditMode.LITERAL)
    assert [(v.offender, v.forbid_clock) for v in flagged] == [("P2", 1)]


def test_parse_audit_mode():
    assert parse_audit_mode("prose") is AuditMode.PROSE
    assert parse_audit_mode("LITERAL") is AuditMode.LITERAL
    with pytest.raises(ValueError):
        parse_audit_mode("strict")


def test_assessment_decrements_trust_per_instance():
    edit = edit_log(
        PerformedEdit(1, Verb.CREATE, "P1"),
        PerformedEdit(2, Verb.COMMENT, "P2"),
        PerformedEdit(3, Verb.COMMENT, "P2"),
    )
    comm = comm_log(obl(1, Verb.COMMENT, False))
    report = local_trust_assessment(edit, comm, Document("d", "P1"), "P3")
    assert len(report.violations) == 2
    assert report.trust == {"P1": 1.0, "P2": 0.25, "P3": 1.0}
    assert report.assessor == "P3"
    assert report.doc_id == "d"


def test_assessment_with_prior_trust_and_fixed_model():
    edit = edit_log(
        PerformedEdit(1, Verb.CREATE, "P1"),
        PerformedEdit(2, Verb.COMMENT, "P2"),
    )
    comm = comm_log(obl(1, Verb.COMMENT, False))
    report = local_trust_assessment(
        edit,
        comm,
        Document("d", "P1"),
        "P1",
        FixedStepTrust(0.2),
        prior_trust={"P2": 0.5},
    )
    assert report.trust["P2"] == pytest.approx(0.3)
    assert report.trust["P1"] == 1.0


@pytest.mark.parametrize(
    "value", [7.0, -0.1, 1.0000001, float("nan"), float("inf"), "1", True, False]
)
def test_prior_trust_outside_the_model_range_is_rejected(value):
    with pytest.raises(ValueError, match="prior trust in 'P2'"):
        local_trust_assessment(
            BASE_EDIT, empty_log(LogRole.COMM), Document("d", "P1"), "P1",
            prior_trust={"P2": value},
        )
    report = local_trust_assessment(
        BASE_EDIT, empty_log(LogRole.COMM), Document("d", "P1"), "P1",
        prior_trust={"P2": 0.0, "P3": 1},
    )
    assert report.trust["P2"] == 0.0 and report.trust["P3"] == 1


def test_an_empty_assessor_is_not_a_peer_in_the_trust_table():
    comm = comm_log(obl(1, Verb.COMMENT, False))
    report = local_trust_assessment(BASE_EDIT, comm, Document("d", "P1"))
    assert report.assessor == ""
    assert report.trust == {"P1": 1.0, "P2": 0.5}


def test_the_trust_table_names_every_peer_the_logs_name():
    # P3 and P4 are named only by an obligation, P5 only as a recipient,
    # and the creator P1 by its own actions, which are not audited.
    edit = edit_log(PerformedEdit(1, Verb.CREATE, "P1"), PerformedEdit(4, Verb.READ, "P6"))
    comm = comm_log(obl(2, Verb.READ, True, "P3", "P4"), PerformedShare(3, "P1", "P5"))
    report = local_trust_assessment(edit, comm, Document("d", "P1"), "P7")
    assert report.trust == dict.fromkeys(["P1", "P3", "P4", "P5", "P6", "P7"], 1.0)


def test_report_to_dict_shape():
    comm = comm_log(obl(1, Verb.COMMENT, False))
    report = local_trust_assessment(BASE_EDIT, comm, Document("d", "P1"), "P1")
    data = report_to_dict(report)
    assert data["assessor"] == "P1"
    assert data["mode"] == "prose"
    assert data["violations"] == [
        {
            "offender": "P2",
            "verb": "comment",
            "action_clock": 2,
            "forbid_clock": 1,
            "grantor": "P1",
            "origin": {"grantor": "P1", "grantee": "P2", "share_clock": 1},
        }
    ]
    assert list(data["trust"]) == sorted(data["trust"])


FORBID = obl(3, Verb.COMMENT, False)
NOT_A_FORBID = "a violation's governing obligation must be a forbid"
NOT_GOVERNED = "the forbid must govern the offender's verb"
NOT_AFTER = "the action must come after the forbid that condemns it"


@pytest.mark.parametrize(
    "offender, verb, action_clock, forbid, message",
    [
        *(
            ("P2", Verb.COMMENT, 5, forbid, NOT_A_FORBID)
            for forbid in (None, ("P1", "P2"), obl(3, Verb.COMMENT, True))
        ),
        *((offender, Verb.COMMENT, 5, FORBID, NOT_GOVERNED) for offender in (7, "P1", "P3")),
        *(("P2", verb, 5, FORBID, NOT_GOVERNED) for verb in ("comment", Verb.READ)),
        *(("P2", Verb.COMMENT, c, FORBID, NOT_AFTER) for c in (3, 2, True, 4.0, 5.5, "5", None)),
    ],
)
def test_violation_holds_only_what_an_audit_can_find(offender, verb, action_clock, forbid, message):
    with pytest.raises(Exception) as caught:
        Violation(offender, verb, action_clock, forbid)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
