import copy
import dataclasses
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, strategies as st

from logtrust import (
    Document,
    DuplicateEventError,
    Log,
    LogRole,
    MixedRolesError,
    Obligation,
    ObligationAtom,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Simulation,
    UnorderedLogError,
    Verb,
    dedup_key,
    empty_log,
    event_from_dict,
    event_to_dict,
    generate_scenario,
    log_from_dict,
    log_to_dict,
    merge_logs,
    parse_scenario,
    receive_log,
    run_scenario,
    sort_key,
)
from logtrust import events as events_module
from logtrust.events import _Channel, _insert_events, _outbound, _received
from logtrust.simulator import apply_command
from oracle import _canonical, _same_event, oracle_receive

ORG = OriginKey("P1", "P2", 2)


def check_log(log):
    """Each entry's cached keys are those of a freshly built equal event, and
    ``log``'s key set (if it holds one) holds their identities, exactly so
    when it has the log's size."""
    for e in log.entries:
        fresh = dataclasses.replace(e)
        assert (e._key, e._id) == (sort_key(fresh), dedup_key(fresh))
    identities = {dedup_key(e) for e in log.entries}
    assert log._keys is None or log._keys >= identities
    if log._keys is not None and len(log._keys) == len(log):
        assert log._keys == identities


def obl(clock, verb=Verb.READ, allow=True, by="P1", to="P2", share_clock=2):
    return Obligation(clock, verb, allow, by, to, OriginKey(by, to, share_clock))


def test_peer_clock_counts_from_one():
    sim = Simulation()
    assert sim.clock("P1") == 0
    clocks = [
        sim.create_doc("P1", "d"),
        sim.edit("P1", "d", Verb.READ),
        sim.edit("P1", "d", Verb.READ),
    ]
    assert clocks == [1, 2, 3]
    assert [e.clock for e in sim.peer_state("P1", "d").edit_log.entries] == [1, 2, 3]


def test_event_validation():
    with pytest.raises(ValueError):
        PerformedEdit(0, Verb.READ, "P1")
    with pytest.raises(ValueError):
        PerformedEdit(1, Verb.SHARE, "P1")
    with pytest.raises(ValueError):
        PerformedShare(1, "P1", "P1")
    with pytest.raises(ValueError):
        OriginKey("P1", "P1", 1)
    with pytest.raises(ValueError):
        Obligation(1, Verb.READ, True, "P1", "P3", ORG)
    # values of the wrong type, which a log or the log file format cannot hold
    for build in (
        lambda: PerformedEdit(1, "read", "P1"),  # a Log over it raised KeyError
        lambda: PerformedEdit(True, Verb.READ, "P1"),
        lambda: PerformedEdit(1.5, Verb.READ, "P1"),
        lambda: PerformedShare(1, "P1", 2),
        lambda: Obligation(1, Verb.READ, 1, "P1", "P2", ORG),
        lambda: Obligation(1, "read", True, "P1", "P2", ORG),
        lambda: OriginKey("P1", "P2", True),
        lambda: OriginKey(1, 2, 3),
        lambda: OriginKey("", "P2", 3),
        lambda: OriginKey("P1", None, 3),
        # an AttributeError on ``origin.grantor`` before
        lambda: Obligation(1, Verb.READ, True, "P1", "P2", ("P1", "P2", 2)),
    ):
        with pytest.raises(ValueError):
            build()


def test_document_requires_string_ids():
    assert Document("d", "P1").comments == frozenset()
    for doc_id, creator, message in (
        ("", "P1", "doc_id must be non-empty"),
        (7, "P1", "doc_id must be non-empty"),
        ("d", "", "creator must be non-empty"),
        ("d", 5, "creator must be non-empty"),
        ("d", None, "creator must be non-empty"),
    ):
        with pytest.raises(ValueError, match=message):
            Document(doc_id, creator)


def test_sort_key_orders_obligations_before_shares_before_edits():
    obligation = obl(1)
    share = PerformedShare(1, "P1", "P2")
    edit = PerformedEdit(1, Verb.READ, "P1")
    keys = sorted([sort_key(edit), sort_key(share), sort_key(obligation)])
    assert keys == [sort_key(obligation), sort_key(share), sort_key(edit)]


def test_sort_key_clock_dominates_actor():
    early = PerformedEdit(1, Verb.READ, "Z")
    late = PerformedEdit(2, Verb.READ, "A")
    assert sort_key(early) < sort_key(late)


def test_dedup_key_ignores_obligation_clock():
    # Receipt re-stamping changes the clock but not the identity.
    assert dedup_key(obl(1)) == dedup_key(obl(7))
    assert dedup_key(obl(1, allow=True)) != dedup_key(obl(1, allow=False))
    assert dedup_key(obl(1, share_clock=2)) != dedup_key(obl(1, share_clock=3))


def test_log_role_enforced():
    with pytest.raises(MixedRolesError):
        Log(LogRole.EDIT, (PerformedShare(1, "P1", "P2"),))
    with pytest.raises(MixedRolesError):
        Log(LogRole.COMM, (PerformedEdit(1, Verb.READ, "P1"),))


def test_log_rejects_entries_that_are_not_events():
    # Even one that carries an event's sort key.
    first = PerformedEdit(1, Verb.READ, "P1")
    for entry in ("P1", SimpleNamespace(_key=(2, "P1", 2, 1, 0, "", 0), _id=None)):
        with pytest.raises(TypeError, match=f"^{type(entry).__name__} is not a log event$"):
            Log(LogRole.EDIT, (first, entry))


def test_from_events_sorts_and_rejects_duplicates():
    a = PerformedEdit(2, Verb.READ, "P1")
    b = PerformedEdit(1, Verb.COMMENT, "P1")
    log = Log.from_events(LogRole.EDIT, [a, b])
    assert log.entries == (b, a)
    with pytest.raises(DuplicateEventError):
        Log.from_events(LogRole.EDIT, [a, a])


def test_constructor_rejects_out_of_order_entries():
    create, edit = PerformedEdit(1, Verb.CREATE, "P1"), PerformedEdit(5, Verb.READ, "P1")
    with pytest.raises(UnorderedLogError, match=r"events\[1\] is out of order"):
        Log(LogRole.EDIT, (edit, create))
    assert Log(LogRole.EDIT, (create, edit)).entries == (create, edit)


def test_constructor_rejects_duplicate_identities():
    create, edit = PerformedEdit(1, Verb.CREATE, "P1"), PerformedEdit(5, Verb.READ, "P1")
    with pytest.raises(DuplicateEventError, match=r"events\[2\] duplicates"):
        Log(LogRole.EDIT, (create, edit, edit))
    # one obligation at two receipt clocks is still one identity
    with pytest.raises(DuplicateEventError):
        Log(LogRole.COMM, (obl(1), obl(7)))


def test_added_events_land_at_their_positions_and_duplicates_are_rejected():
    events = [
        PerformedEdit(1, Verb.READ, "P1"),
        PerformedEdit(2, Verb.COMMENT, "P1"),
        PerformedEdit(1, Verb.READ, "P2"),  # another peer's, at an earlier clock
    ]
    log = empty_log(LogRole.EDIT)
    for event in events:
        log = _insert_events(log, [event])
    assert [e.by for e in log] == ["P1", "P2", "P1"]
    assert log == Log.from_events(LogRole.EDIT, reversed(events))
    again = PerformedEdit(2, Verb.COMMENT, "P1")
    with pytest.raises(DuplicateEventError):
        _insert_events(log, [again])
    with pytest.raises(DuplicateEventError):
        Log.from_events(LogRole.EDIT, [*events, again])
    # one peer's events at one clock go in together, in any order
    tick = [PerformedEdit(3, Verb.COMMENT, "P1"), PerformedEdit(3, Verb.READ, "P1")]
    assert _insert_events(log, tick).entries[3:] == tuple(reversed(tick))


def test_merge_requires_same_role():
    with pytest.raises(MixedRolesError):
        merge_logs(empty_log(LogRole.EDIT), empty_log(LogRole.COMM))
    with pytest.raises(MixedRolesError):
        receive_log(empty_log(LogRole.EDIT), empty_log(LogRole.COMM), "P2", 1)


def test_merge_unions_and_deduplicates():
    shared = PerformedEdit(1, Verb.CREATE, "P1")
    left = Log.from_events(LogRole.EDIT, [shared, PerformedEdit(2, Verb.READ, "P1")])
    right = Log.from_events(LogRole.EDIT, [shared, PerformedEdit(1, Verb.READ, "P2")])
    merged = merge_logs(left, right)
    assert len(merged) == 3
    assert merge_logs(merged, merged) == merged
    assert merge_logs(left, right) == merge_logs(right, left)


def test_merge_keeps_local_copy_on_identity_collision():
    # The grantor holds the obligation at its own share clock; a grantee
    # holds the same obligation at its receipt clock.  Whoever merges
    # keeps their settled copy.
    grantor_side = Log(LogRole.COMM, (obl(2),))
    grantee_side = Log(LogRole.COMM, (obl(1),))
    assert merge_logs(grantor_side, grantee_side).entries == (obl(2),)
    assert merge_logs(grantee_side, grantor_side).entries == (obl(1),)


def test_log_ops_return_their_input_when_nothing_changes():
    log = Log.from_events(LogRole.COMM, [obl(2), PerformedShare(2, "P1", "P2")])
    assert merge_logs(log, log) is log
    assert merge_logs(log, empty_log(LogRole.COMM)) is log
    assert receive_log(log, log, "P2", 9) is log


def test_receive_log_with_a_receiver_restamps_nothing_in_an_edit_log():
    # an edit log holds no obligations: its events keep their clocks and
    # are the received objects themselves
    local = Log.from_events(LogRole.EDIT, [PerformedEdit(1, Verb.CREATE, "P1")])
    edits = [PerformedEdit(2, Verb.COMMENT, "P1"), PerformedEdit(3, Verb.READ, "P2")]
    received = Log.from_events(LogRole.EDIT, [local.entries[0], *edits])
    merged = receive_log(local, received, "P2", 9)
    assert merged == merge_logs(local, received)
    assert merged.entries == (local.entries[0], *edits)
    assert all(a is b for a, b in zip(merged.entries[1:], edits))


def serialized(log):
    return log_to_dict(log, "d")["events"]


def expected_receive(local, received, receiver, clock):
    """What the oracle says ``receive_log`` gives, as serialized events."""
    return oracle_receive(serialized(local), serialized(received), receiver, clock)


RECEIVE_PEERS = ("P1", "P2", "P3")


@st.composite
def comm_events(draw):
    # Few identities and many clocks, so two logs drawn independently
    # often hold one identity at different clocks.
    by = draw(st.sampled_from(RECEIVE_PEERS))
    to = draw(st.sampled_from([p for p in RECEIVE_PEERS if p != by]))
    clock = draw(st.integers(1, 6))
    if draw(st.integers(0, 3)) == 0:
        return PerformedShare(clock, by, to)
    return Obligation(
        clock,
        draw(st.sampled_from((Verb.READ, Verb.SHARE))),
        draw(st.booleans()),
        by,
        to,
        OriginKey(by, to, draw(st.integers(1, 2))),
    )


def comm_log(events):
    unique = {}
    for event in events:
        unique.setdefault(dedup_key(event), event)
    return Log.from_events(LogRole.COMM, unique.values())


@given(
    st.lists(comm_events(), max_size=12),
    st.lists(comm_events(), max_size=12),
    st.sampled_from(("independent", "empty", "same")),
    st.sampled_from(RECEIVE_PEERS),
    st.integers(1, 9),
)
def test_receive_log_matches_reference(local_events, received_events, case, receiver, clock):
    received = comm_log(received_events)
    local = {
        "independent": comm_log(local_events),
        "empty": empty_log(LogRole.COMM),
        "same": received,
    }[case]
    got = receive_log(local, received, receiver, clock)
    want = expected_receive(local, received, receiver, clock)
    assert serialized(got) == want
    check_log(got)
    if len(want) == len(local):
        assert got is local
    else:
        # a receive into empty logs too appends to the local log's lineage
        assert got is not local and got is not received
        assert got._lineage is not received._lineage


def insert_rejection(log, events):
    """The error ``_insert_events(log, events)`` must raise, or None."""
    held = {dedup_key(e) for e in log}
    for event in events:
        if isinstance(event, PerformedEdit) is not (log.role is LogRole.EDIT):
            return MixedRolesError
        if dedup_key(event) in held:
            return DuplicateEventError
        held.add(dedup_key(event))
    return None


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("insert", "receive", "merge")),
            st.integers(0, 99),
            st.lists(
                st.one_of(comm_events(), st.just(PerformedEdit(1, Verb.READ, "P1"))),
                max_size=4,
            ),
            st.sampled_from(RECEIVE_PEERS),
            st.integers(1, 9),
        ),
        max_size=12,
    )
)
def test_chained_log_ops_hand_the_key_set_on(steps):
    # Each step derives a log from an earlier version, often not the
    # latest, so two logs derived from one parent are common.
    versions = [empty_log(LogRole.COMM)]
    for op, pick, events, receiver, clock in steps:
        base = versions[pick % len(versions)]
        if op == "insert":
            error = insert_rejection(base, events)
            keys, entries = base._keys, base.entries
            held = None if keys is None else set(keys)
            if error is not None:
                with pytest.raises(error):
                    _insert_events(base, events)
                assert base.entries == entries and base._keys is keys
                assert keys is None or keys == held
                check_log(base)
                continue
            got = _insert_events(base, events)
            assert got == Log.from_events(LogRole.COMM, [*base, *events])
        else:
            received = versions[(pick // 7) % len(versions)]
            if events and not any(isinstance(e, PerformedEdit) for e in events):
                received = comm_log(events)
            if op == "merge":
                got = merge_logs(base, received)
                want = expected_receive(base, received, None, 0)
            else:
                got = receive_log(base, received, receiver, clock)
                want = expected_receive(base, received, receiver, clock)
            assert serialized(got) == want
        versions.append(got)
        for log in {id(log): log for log in versions}.values():
            check_log(log)


def test_a_derived_log_shares_and_grows_its_parents_key_set():
    first, second, third = (PerformedEdit(c, Verb.READ, "P1") for c in (1, 2, 3))
    parent = _insert_events(empty_log(LogRole.EDIT), [first])
    keys = parent._keys
    child = _insert_events(parent, [second])
    # the set was grown rather than rebuilt, and the child holds the
    # parent's event objects rather than copies
    assert child._keys is keys and parent._keys is keys
    assert keys == {dedup_key(first), dedup_key(second)}
    assert child.entries[0] is parent.entries[0] is first
    assert merge_logs(child, Log.from_events(LogRole.EDIT, [third]))._keys is keys
    # the parent's set is now larger than the parent, so a second
    # derivation from the parent builds a new one
    sibling = _insert_events(parent, [third])
    assert sibling._keys is not keys
    assert sibling._keys == {dedup_key(first), dedup_key(third)}
    for log in (parent, child, sibling):
        check_log(log)


def test_a_rejected_insert_leaves_the_log_and_its_key_set():
    share = PerformedShare(2, "P1", "P2")
    for log in (
        Log.from_events(LogRole.COMM, [share, obl(2)]),
        _insert_events(Log(LogRole.COMM), [share, obl(2)]),
    ):
        keys = log._keys
        held = None if keys is None else set(keys)
        for bad in (
            [obl(9)],
            [PerformedShare(3, "P1", "P3"), obl(9)],
            [PerformedShare(3, "P1", "P3"), PerformedShare(3, "P1", "P3")],
            [PerformedEdit(3, Verb.READ, "P1")],
        ):
            with pytest.raises((DuplicateEventError, MixedRolesError)):
                _insert_events(log, bad)
            assert log.entries == (obl(2), share)
            assert log._keys is keys and (keys is None or keys == held)
        for event, error in (
            (share, DuplicateEventError),
            (PerformedEdit(1, Verb.READ, "P1"), MixedRolesError),
        ):
            with pytest.raises(error):
                _insert_events(log, [event])
            assert log.entries == (obl(2), share)
            assert log._keys is keys and (keys is None or keys == held)
            check_log(log)
        # the rejected inserts added nothing, so a new event still goes in
        late = _insert_events(log, [PerformedShare(2, "P1", "P3")])
        assert late.entries == (obl(2), share, PerformedShare(2, "P1", "P3"))
        check_log(late)


def test_a_rejected_insert_leaves_the_lineage_for_the_next_op():
    first, second = PerformedEdit(1, Verb.READ, "P1"), PerformedEdit(2, Verb.READ, "P1")
    log = _insert_events(empty_log(LogRole.EDIT), [first, second])
    lineage, keys = log._lineage, log._keys
    fresh = PerformedEdit(3, Verb.COMMENT, "P1")
    # each rejected batch starts with an event that could go in alone
    for bad, error in (
        ([fresh, second], DuplicateEventError),
        ([fresh, PerformedShare(3, "P1", "P2")], MixedRolesError),
    ):
        with pytest.raises(error):
            _insert_events(log, bad)
        assert lineage.events == [first, second]
        assert keys == {dedup_key(first), dedup_key(second)}
    # the next op appends to the same list and grows the same set: it
    # neither forks nor rebuilds, as if the rejected calls never happened
    third = PerformedEdit(3, Verb.READ, "P1")
    inserted = _insert_events(log, [third])
    assert inserted._lineage is lineage and inserted._keys is keys
    assert lineage.events == [first, second, third] and len(keys) == 3
    check_log(inserted)


def test_log_takes_a_tuple_of_its_entries():
    first, second = PerformedEdit(1, Verb.READ, "P1"), PerformedEdit(2, Verb.READ, "P1")
    events = [first, second]
    log = Log(LogRole.EDIT, events)
    assert log.entries == (first, second) and type(log.entries) is tuple
    assert log == Log(LogRole.EDIT, (first, second))
    assert hash(log) == hash(Log(LogRole.EDIT, (first, second)))
    # the caller's list is not the log's: changing it after the check
    # cannot reorder or grow the log
    events.reverse()
    events.append(PerformedEdit(3, Verb.READ, "P1"))
    assert log.entries == (first, second) and len(log) == 2
    Log(LogRole.EDIT, log.entries)  # still passes its own check
    assert Log(LogRole.EDIT, iter([first])).entries == (first,)


def test_a_log_is_immutable():
    log = Log(LogRole.EDIT, (PerformedEdit(1, Verb.READ, "P1"),))
    for name in ("role", "entries"):
        with pytest.raises(AttributeError):
            setattr(log, name, None)
        with pytest.raises(AttributeError):
            delattr(log, name)
    with pytest.raises(AttributeError):
        log.size = 2  # a log has no attributes besides its own
    match log:
        case Log(LogRole.EDIT, entries):
            assert entries == log.entries
        case _:
            raise AssertionError("a log matches on its role and entries")
    assert repr(log) == (
        "Log(role=<LogRole.EDIT: 'edit'>, entries=(PerformedEdit(clock=1,"
        " verb=<Verb.READ: 'read'>, by='P1'),))"
    )


@given(
    st.lists(
        st.tuples(st.integers(0, 99), st.integers(1, 6), st.sampled_from(RECEIVE_PEERS)),
        max_size=16,
    )
)
def test_every_version_of_a_lineage_reads_its_own_entries(steps):
    # Versions are derived from earlier ones at random, so some extend
    # their lineage and some fork; each reads its entries in a random
    # order, forward from the lineage's sorted cache or behind it.
    versions = [(empty_log(LogRole.EDIT), [])]
    for pick, clock, by in steps:
        base, events = versions[pick % len(versions)]
        event = PerformedEdit(clock, Verb.READ, by)
        if event in events:
            continue
        versions.append((_insert_events(base, [event]), [*events, event]))
    for pick, _, _ in reversed(steps):
        log, events = versions[pick % len(versions)]
        assert log.entries == Log.from_events(LogRole.EDIT, events).entries
        assert len(log) == len(events)
    for log, events in versions:
        assert log == Log.from_events(LogRole.EDIT, events)
        check_log(log)


def test_a_deliver_reads_past_the_last_delivered_message():
    sim = Simulation()
    sim.create_doc("P1", "d")
    sim.share("P1", "d", "P2", [ObligationAtom(Verb.READ, True)])
    sim.edit("P1", "d", Verb.COMMENT)
    sim.share("P1", "d", "P2", [ObligationAtom(Verb.COMMENT, True)])
    first, second = sim.pending("P1", "P2", "d")
    # the sender's copy and the channel each extend one lineage per log, so
    # a later message extends the logs of the one before
    for old, new in ((first.edit_log, second.edit_log), (first.comm_log, second.comm_log)):
        assert new._lineage is old._lineage and len(old) < len(new)
    channel = sim._channels["P1", "P2", "d"]
    assert (channel.edit_n, channel.comm_n) == (0, 0)  # nothing delivered yet
    sim.deliver("P2", "P1", "d")
    assert (channel.edit_n, channel.comm_n) == (len(first.edit_log), len(first.comm_log))
    held = sim.peer_state("P2", "d")
    sim.deliver("P2", "P1", "d")
    assert (channel.edit_n, channel.comm_n) == (len(second.edit_log), len(second.comm_log))
    state = sim.peer_state("P2", "d")
    assert state.edit_log == merge_logs(held.edit_log, second.edit_log)
    assert state.comm_log == receive_log(held.comm_log, second.comm_log, "P2", 2)
    # ``local`` lacks a1 and a2, so what a receive adds shows what it read
    a1, a2, a3 = (PerformedEdit(c, Verb.READ, "P1") for c in (1, 2, 3))
    later = _insert_events(_insert_events(empty_log(LogRole.EDIT), [a1, a2]), [a3])
    local = Log(LogRole.EDIT, (PerformedEdit(1, Verb.READ, "P2"),))
    assert _received(local, later, None, 0, 2)[1] == [a3]
    assert sorted(_received(local, later, None, 0)[1], key=sort_key) == [a1, a2, a3]


def test_logs_extended_outside_the_engine_leave_its_channels_as_they_were(monkeypatch):
    # Merging into a held log or a message's log through the public API
    # moves its lineage past it, so the engine's next op on it forks a new
    # lineage.  A fork copies the log's events in arrival order, so a
    # channel's marks count the same events on it, and no state differs
    # from a run that nothing touched.
    forks = []
    fork = events_module._fork
    monkeypatch.setattr(events_module, "_fork", lambda log: forks.append(log) or fork(log))

    def state(sim):
        return sorted(sim._held.values()), sorted(sim._queues.items())

    tick = 0
    for seed in range(6):
        _, commands = parse_scenario(generate_scenario(seed, max_peers=5, max_commands=60))
        quiet, touched = Simulation(), Simulation()
        for command in commands:
            apply_command(quiet, command)
            apply_command(touched, command)
            messages = [m for queue in touched._queues.values() for m in queue]
            for held in [*touched._held.values(), *messages]:
                tick += 1
                merge_logs(held.edit_log, Log(LogRole.EDIT, (PerformedEdit(tick, Verb.READ, "X"),)))
                merge_logs(held.comm_log, Log(LogRole.COMM, (PerformedShare(tick, "X", "Y"),)))
            assert state(touched) == state(quiet), (seed, command)
    assert forks


def test_an_outbound_filters_only_what_its_source_added():
    grant = obl(2, by="P1", to="P3", share_clock=2)  # to a third peer: dropped
    theirs = obl(3, by="P2", to="P1", share_clock=3)
    events = [PerformedShare(1, "P1", "P2"), obl(1, by="P1", to="P2", share_clock=1)]
    comm = _insert_events(empty_log(LogRole.COMM), events)
    channel = _Channel()
    first = _outbound(comm, "P1", "P2", channel)  # nothing dropped, yet the channel's own
    assert first.entries == comm.entries and first._lineage is not comm._lineage
    assert channel.read == len(comm)
    grown = _insert_events(comm, [grant, PerformedShare(2, "P1", "P3"), theirs])
    second = _outbound(grown, "P1", "P2", channel)
    assert second.entries == (*comm.entries, theirs)
    assert second._lineage is first._lineage  # appended to the channel's lineage
    assert first.entries == comm.entries  # which leaves the earlier message as it was
    assert channel.read == len(grown)
    # a drop with nothing kept leaves the channel's log as it is
    base = _insert_events(empty_log(LogRole.COMM), events)
    channel = _Channel()
    sent = _outbound(base, "P1", "P2", channel)
    dropped = _insert_events(base, [grant])
    assert _outbound(dropped, "P1", "P2", channel) is sent
    later = _insert_events(dropped, [theirs])
    appended = _outbound(later, "P1", "P2", channel)
    assert appended.entries == (*base.entries, theirs) and appended._lineage is sent._lineage
    for out in (sent, appended):
        assert out._lineage is not base._lineage
        check_log(out)


def test_copies_and_the_original_derive_alike():
    first, second = (PerformedEdit(c, Verb.READ, "P1") for c in (1, 2))
    log = _insert_events(empty_log(LogRole.EDIT), [first])
    assert log._keys is not None
    for copied in (copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
        assert copied == log
        check_log(copied)
        for parent in (copied, log):
            derived = _insert_events(parent, [second])
            assert derived.entries == (first, second)
            check_log(derived)
        check_log(log)


@given(
    st.sampled_from(
        [
            PerformedEdit(3, Verb.COMMENT, "P1"),
            PerformedEdit(1, Verb.CREATE, "P2"),
            PerformedShare(4, "P2", "P3"),
            obl(5, Verb.SHARE, False, "P2", "P3", share_clock=4),
            obl(1, Verb.DELETE_COMMENT, True),
        ]
    )
)
def test_event_json_round_trip(event):
    assert event_from_dict(event_to_dict(event)) == event


def test_event_from_dict_rejects_malformed():
    good = event_to_dict(obl(1))
    for mutate in (
        lambda d: d.update(kind="bogus"),
        lambda d: d.update(verb="destroy"),
        lambda d: d.update(clock=0),
        lambda d: d.update(clock=True),
        lambda d: d.update(allow="yes"),
        lambda d: d.pop("origin"),
        lambda d: d.update(extra=1),
        lambda d: d.update(origin={"grantor": "P1"}),
    ):
        bad = {k: (dict(v) if isinstance(v, dict) else v) for k, v in good.items()}
        mutate(bad)
        with pytest.raises(ValueError):
            event_from_dict(bad)


def test_log_file_round_trip():
    log = Log.from_events(
        LogRole.COMM, [obl(1), obl(1, Verb.COMMENT, False), PerformedShare(2, "P1", "P2")]
    )
    doc_id, parsed = log_from_dict(log_to_dict(log, "d"))
    assert doc_id == "d"
    assert parsed == log


def test_log_from_dict_validates_file():
    with pytest.raises(ValueError):
        log_from_dict({"doc_id": "d", "role": "weird", "events": []})
    with pytest.raises(ValueError):
        log_from_dict({"doc_id": "", "role": "edit", "events": []})
    with pytest.raises(ValueError):
        log_from_dict({"doc_id": "d", "events": []})
    out_of_order = {
        "doc_id": "d",
        "role": "edit",
        "events": [
            event_to_dict(PerformedEdit(2, Verb.READ, "P1")),
            event_to_dict(PerformedEdit(1, Verb.CREATE, "P1")),
        ],
    }
    with pytest.raises(UnorderedLogError, match=r"^f\.json: events\[1\] is out of order$"):
        log_from_dict(out_of_order, where="f.json")
    duplicated = {
        "doc_id": "d",
        "role": "edit",
        "events": [event_to_dict(PerformedEdit(1, Verb.READ, "P1"))] * 2,
    }
    with pytest.raises(
        DuplicateEventError, match=r"^f\.json: events\[1\] duplicates an earlier event$"
    ):
        log_from_dict(duplicated, where="f.json")


def _random_event_pool(rng, size=30):
    """Distinct-identity events; one fixed event per identity."""
    pool = []
    seen = set()
    while len(pool) < size:
        kind = rng.choice(("edit", "share", "obl"))
        by = rng.choice(("P1", "P2", "P3"))
        clock = rng.randint(1, 9)
        if kind == "edit":
            event = PerformedEdit(clock, rng.choice((Verb.READ, Verb.COMMENT)), by)
        else:
            to = rng.choice([p for p in ("P1", "P2", "P3") if p != by])
            if kind == "share":
                event = PerformedShare(clock, by, to)
            else:
                event = Obligation(
                    clock,
                    rng.choice((Verb.READ, Verb.COMMENT, Verb.SHARE)),
                    rng.random() < 0.5,
                    by,
                    to,
                    OriginKey(by, to, rng.randint(1, 9)),
                )
        key = dedup_key(event)
        if key not in seen:
            seen.add(key)
            pool.append(event)
    return pool


def _key_test_events():
    """Per case, its events: each seed's random pool, then the events of the
    final held copies of generated seeds 0-59, re-stamped obligations included."""
    cases = [_random_event_pool(random.Random(seed)) for seed in range(60)]
    for seed in range(60):
        held = run_scenario(generate_scenario(seed)).snapshots[-1].held
        found = {id(e): e for copy_ in held for log in (copy_.edit_log, copy_.comm_log) for e in log}
        cases.append(list(found.values()))
    return cases


def test_event_keys_match_the_oracle():
    for events in _key_test_events():
        raws = [event_to_dict(e) for e in events]
        for e, raw in zip(events, raws):
            assert sort_key(e) == _canonical(raw)
        for a, raw_a in zip(events, raws):
            for b, raw_b in zip(events, raws):
                assert (dedup_key(a) == dedup_key(b)) == _same_event(raw_a, raw_b)


def test_event_keys_survive_copies_and_replace():
    for events in _key_test_events():
        for e in events:
            for copied in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
                assert (copied._key, copied._id) == (e._key, e._id)
            moved = dataclasses.replace(e, clock=e.clock + 1)
            assert sort_key(moved) == _canonical(event_to_dict(moved))
            assert dedup_key(moved) == (e._id if isinstance(e, Obligation) else sort_key(moved))


def test_event_keys_leave_repr_equality_hash_and_match_args():
    for event, text in (
        (PerformedEdit(3, Verb.COMMENT, "P1"), "PerformedEdit(clock=3, verb=<Verb.COMMENT: 'comment'>, by='P1')"),
        (PerformedShare(4, "P2", "P3"), "PerformedShare(clock=4, by='P2', to='P3')"),
        (
            obl(5, Verb.SHARE, False, "P2", "P3", share_clock=4),
            "Obligation(clock=5, verb=<Verb.SHARE: 'share'>, allow=False, by='P2', to='P3',"
            " origin=OriginKey(grantor='P2', grantee='P3', share_clock=4))",
        ),
    ):
        assert repr(event) == text
        names = {
            PerformedEdit: ("clock", "verb", "by"),
            PerformedShare: ("clock", "by", "to"),
            Obligation: ("clock", "verb", "allow", "by", "to", "origin"),
        }[type(event)]
        assert type(event).__match_args__ == names
        values = tuple(getattr(event, name) for name in names)
        assert hash(event) == hash(values)
        twin = type(event)(*values)
        assert twin == event and twin is not event
        # an event equal to another but for its keys is still equal to it
        object.__setattr__(twin, "_key", ())
        assert twin == event and hash(twin) == hash(event)


def test_merge_algebra_on_random_subsets():
    # Logs drawing from one pool agree on shared identities, which is
    # the situation normal exchange produces.
    for seed in range(60):
        rng = random.Random(seed)
        pool = [e for e in _random_event_pool(rng) if not isinstance(e, PerformedEdit)]
        a = Log.from_events(LogRole.COMM, rng.sample(pool, rng.randint(0, len(pool))))
        b = Log.from_events(LogRole.COMM, rng.sample(pool, rng.randint(0, len(pool))))
        ab = merge_logs(a, b)
        assert merge_logs(a, a) == a
        assert ab == merge_logs(b, a)
        assert merge_logs(ab, b) == ab
        assert merge_logs(ab, a) == ab


GOOD_EVENT = {
    "edit": {"clock": 4, "kind": "edit", "verb": "read", "by": "P2"},
    "share": {"clock": 4, "kind": "share", "verb": "share", "by": "P1", "to": "P2"},
    "obligation": {
        "clock": 4,
        "kind": "obligation",
        "verb": "comment",
        "allow": False,
        "by": "P1",
        "to": "P2",
        "origin": {"grantor": "P1", "grantee": "P2", "share_clock": 3},
    },
}
DROP = object()


def bad_event(template, /, **changes):
    """GOOD_EVENT[template] with fields replaced, or removed where the value is DROP."""
    event = {k: dict(v) if isinstance(v, dict) else v for k, v in GOOD_EVENT[template].items()}
    for name, value in changes.items():
        if value is DROP:
            del event[name]
        else:
            event[name] = value
    return event


def bad_origin(**changes):
    origin = dict(GOOD_EVENT["obligation"]["origin"])
    for name, value in changes.items():
        if value is DROP:
            del origin[name]
        else:
            origin[name] = value
    return bad_event("obligation", origin=origin)


ORIGIN_SHAPE = "origin must carry grantor, grantee, share_clock"

# (event at events[1], message after "f.json: events[1]: "); events[0] is
# a valid event of the log's role, so the position is checked too.
EVENT_REJECTIONS = [
    *((raw, "expected an object") for raw in (5, "edit", None, [], [GOOD_EVENT["edit"]])),
    (bad_event("edit", kind=DROP), "unknown kind None"),
    (bad_event("edit", kind="bogus"), "unknown kind 'bogus'"),
    (bad_event("edit", kind="Edit"), "unknown kind 'Edit'"),
    (bad_event("edit", kind=5), "unknown kind 5"),
    (bad_event("edit", kind=[]), "unknown kind []"),
    (bad_event("edit", kind={}), "unknown kind {}"),
    (bad_event("edit", by=DROP), "missing fields ['by']"),
    (bad_event("obligation", to=DROP, allow=DROP), "missing fields ['allow', 'to']"),
    (bad_event("edit", to="P1"), "unexpected fields ['to']"),
    (bad_event("share", allow=True, note=""), "unexpected fields ['allow', 'note']"),
    (bad_event("share", to=DROP, note=""), "missing fields ['to']"),
    *(
        (bad_event(kind, clock=clock), "clock must be a positive integer")
        for kind in ("edit", "share", "obligation")
        for clock in (0, -3, True, False, 1.5, 4.0, "1", None, [])
    ),
    *(
        (bad_event(kind, verb=verb), f"unknown verb {verb!r}")
        for kind in ("edit", "share", "obligation")
        for verb in ([], {}, "destroy", "READ", None, 2)
    ),
    *(
        (bad_event(kind, by=by), "by must be a non-empty string")
        for kind in ("edit", "share", "obligation")
        for by in ("", 5, None, [])
    ),
    *(
        (bad_event(kind, to=to), "to must be a non-empty string")
        for kind in ("share", "obligation")
        for to in ("", 5, None, {})
    ),
    (bad_event("share", to="P1"), "cannot share with oneself"),
    (bad_event("obligation", to="P1"), "grantor and grantee must differ"),
    (bad_origin(grantee="P1"), "grantor and grantee must differ"),
    (
        bad_event("obligation", to="P1", origin={"grantor": "P1", "grantee": "P1", "share_clock": 3}),
        "grantor and grantee must differ",
    ),
    *((bad_event("share", verb=verb), "share events must carry verb 'share'") for verb in ("read", "create")),
    *(
        (bad_event("obligation", allow=allow), "allow must be a boolean")
        for allow in (1, 0, "true", None, [])
    ),
    *(
        (bad_event("obligation", origin=origin), ORIGIN_SHAPE)
        for origin in (None, 5, "P1", [], ["P1", "P2", 3])
    ),
    (bad_origin(grantor=DROP), ORIGIN_SHAPE),
    (bad_origin(note=1), ORIGIN_SHAPE),
    (bad_origin(grantor=1), ORIGIN_SHAPE),
    (bad_origin(grantee=None), ORIGIN_SHAPE),
    *((bad_origin(share_clock=c), ORIGIN_SHAPE) for c in (True, False, "3", 3.0, None)),
    *((bad_origin(share_clock=c), "share_clock must be >= 1") for c in (0, -1)),
    (bad_origin(grantor="P3"), "origin does not match grantor/grantee"),
    (bad_origin(grantee="P3"), "origin does not match grantor/grantee"),
    (bad_event("edit", verb="share"), "share actions belong in the communication log"),
]


@pytest.mark.parametrize("raw, message", EVENT_REJECTIONS)
def test_log_file_event_rejections_are_pinned(raw, message):
    role = "edit" if isinstance(raw, dict) and raw.get("kind") == "edit" else "comm"
    first = dict(GOOD_EVENT["edit" if role == "edit" else "share"], clock=1)
    data = {"doc_id": "d", "role": role, "events": [first, raw]}
    with pytest.raises(Exception) as caught:
        log_from_dict(data, where="f.json")
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"f.json: events[1]: {message}"
    with pytest.raises(Exception) as caught:
        event_from_dict(raw, where="e")
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"e: {message}"


FILE_REJECTIONS = [
    (5, ValueError, "f.json: expected an object"),
    ([], ValueError, "f.json: expected an object"),
    (
        {"doc_id": "d", "events": []},
        ValueError,
        "f.json: expected exactly the fields ['doc_id', 'events', 'role']",
    ),
    (
        {"doc_id": "d", "role": "edit", "events": [], "x": 1},
        ValueError,
        "f.json: expected exactly the fields ['doc_id', 'events', 'role']",
    ),
    *(
        ({"doc_id": doc_id, "role": "edit", "events": []}, ValueError,
         "f.json: doc_id must be a non-empty string")
        for doc_id in ("", 5, None)
    ),
    *(
        ({"doc_id": "d", "role": role, "events": []}, ValueError,
         "f.json: role must be 'edit' or 'comm'")
        for role in ("Edit", None, 1, [], {})
    ),
    *(
        ({"doc_id": "d", "role": "edit", "events": events}, ValueError,
         "f.json: events must be an array")
        for events in ({}, None, "[]")
    ),
    (
        {"doc_id": "d", "role": "edit", "events": [GOOD_EVENT["share"]]},
        MixedRolesError,
        "f.json: events[0]: PerformedShare does not belong in a edit log",
    ),
    (
        {"doc_id": "d", "role": "comm", "events": [GOOD_EVENT["obligation"], GOOD_EVENT["edit"]]},
        MixedRolesError,
        "f.json: events[1]: PerformedEdit does not belong in a comm log",
    ),
    (
        {"doc_id": "d", "role": "comm", "events": [GOOD_EVENT["share"], GOOD_EVENT["obligation"]]},
        UnorderedLogError,
        "f.json: events[1] is out of order",
    ),
    (
        {"doc_id": "d", "role": "comm", "events": [GOOD_EVENT["obligation"], GOOD_EVENT["share"]] * 2},
        DuplicateEventError,
        "f.json: events[2] duplicates an earlier event",
    ),
    (
        {
            "doc_id": "d",
            "role": "comm",
            "events": [GOOD_EVENT["obligation"], dict(GOOD_EVENT["obligation"], clock=9)],
        },
        DuplicateEventError,
        "f.json: events[1] duplicates an earlier event",
    ),
]


@pytest.mark.parametrize("data, error, message", FILE_REJECTIONS)
def test_log_file_rejections_are_pinned(data, error, message):
    with pytest.raises(Exception) as caught:
        log_from_dict(data, where="f.json")
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_obligations_cannot_govern_create():
    # No share can carry such an obligation (OBLIGATION_VERBS), so a log
    # holding one is bad input, like an edit whose verb is share.
    with pytest.raises(ValueError, match="^obligations cannot govern create$"):
        obl(1, Verb.CREATE)
    raw = bad_event("obligation", verb="create")
    with pytest.raises(ValueError, match=r"^e: obligations cannot govern create$"):
        event_from_dict(raw, where="e")
    data = {"doc_id": "d", "role": "comm", "events": [dict(GOOD_EVENT["share"], clock=1), raw]}
    with pytest.raises(ValueError, match=r"^f\.json: events\[1\]: obligations cannot govern create$"):
        log_from_dict(data, where="f.json")


CLOCK_SHIFT = 2**31


def shifted(event, by=CLOCK_SHIFT):
    """The event with its clock, and an obligation's share clock, moved up by ``by``."""
    if isinstance(event, Obligation):
        o = event.origin
        origin = OriginKey(o.grantor, o.grantee, o.share_clock + by)
        return dataclasses.replace(event, clock=event.clock + by, origin=origin)
    return dataclasses.replace(event, clock=event.clock + by)


def rejection(build):
    """(error class, message) of what ``build()`` raises."""
    with pytest.raises(Exception) as caught:
        build()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("role", list(LogRole))
@pytest.mark.parametrize("shift", [0, CLOCK_SHIFT])
def test_log_file_round_trip_on_random_logs(role, shift):
    for seed in range(150):
        rng = random.Random(seed)
        pool = [
            shifted(e, shift)
            for e in _random_event_pool(rng)
            if isinstance(e, PerformedEdit) == (role is LogRole.EDIT)
        ]
        log = Log.from_events(role, rng.sample(pool, rng.randint(0, len(pool))))
        doc_id, parsed = log_from_dict(log_to_dict(log, "d"))
        assert (doc_id, parsed) == ("d", log)
        check_log(parsed)
        assert [(e._key, e._id) for e in parsed] == [(e._key, e._id) for e in log]

        broken = []
        if len(log) >= 2:
            i = rng.randrange(len(log) - 1)
            swapped = list(log.entries)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            broken.append(swapped)
        if log:
            j = rng.randrange(len(log))
            duplicated = list(log.entries)
            duplicated.insert(rng.randint(j, len(log)), log.entries[j])
            broken.append(duplicated)
        for entries in broken:
            error, message = rejection(lambda: Log(role, tuple(entries)))
            assert error in (DuplicateEventError, UnorderedLogError)
            data = {"doc_id": "d", "role": role.value, "events": list(map(event_to_dict, entries))}
            assert rejection(lambda: log_from_dict(data, where="f.json")) == (
                error,
                f"f.json: {message}",
            )


PEER_VALUES = st.sampled_from(["P1", "P2", ""])


# The verbs a raw event of each kind may carry.
KIND_VERBS = {
    "edit": ["create", "read", "comment", "delete_comment"],
    "share": ["share"],
    "obligation": ["read", "comment", "delete_comment", "share"],
}


@st.composite
def raw_events(draw):
    # Right shape per kind.  Three draws in four take every value from
    # those that pass its check, so most are events the parser accepts;
    # the rest draw each value on its own, near every check's boundary.
    kind = draw(st.sampled_from(["edit", "share", "obligation"]))
    valid = draw(st.integers(0, 3)) > 0
    raw = {
        "clock": draw(st.sampled_from([1, 7] if valid else [0, 1, 7, True])),
        "kind": kind,
        "verb": draw(st.sampled_from(KIND_VERBS[kind] if valid else [v.value for v in Verb])),
    }
    if valid:
        by, to = draw(st.permutations(["P1", "P2"]))
    else:
        by, to = draw(PEER_VALUES), draw(PEER_VALUES)
    raw["by"] = by
    if kind != "edit":
        raw["to"] = to
    if kind == "obligation":
        raw["allow"] = draw(st.booleans())
        raw["origin"] = {
            "grantor": by if valid else draw(PEER_VALUES),
            "grantee": to if valid else draw(PEER_VALUES),
            "share_clock": draw(st.sampled_from([1, 3] if valid else [0, 1, 3])),
        }
    return raw


@given(raw_events())
def test_parsed_events_pass_their_own_checks(raw):
    # Every event the parser accepts passes the constructors' checks
    # again, compares equal when rebuilt and serializes back to its input.
    try:
        event = event_from_dict(raw)
    except ValueError:
        return
    if isinstance(event, Obligation):
        o = event.origin
        assert dataclasses.replace(event, origin=OriginKey(o.grantor, o.grantee, o.share_clock)) == event
    else:
        assert dataclasses.replace(event) == event
    assert event_to_dict(event) == raw


def well_shaped(raw):
    """Whether ``raw`` has the JSON shape of an event: only its values can be at fault."""
    if not isinstance(raw, dict) or raw.get("kind") not in list(GOOD_EVENT):
        return False
    kind = raw["kind"]
    if raw.keys() != GOOD_EVENT[kind].keys() or raw["verb"] not in [v.value for v in Verb]:
        return False
    if kind != "obligation":
        return kind == "edit" or raw["verb"] == "share"
    origin = raw["origin"]
    return isinstance(origin, dict) and origin.keys() == GOOD_EVENT[kind]["origin"].keys()


def constructed(raw):
    """``raw`` built by the constructors, as a caller of the library would."""
    clock, verb, by = raw["clock"], Verb(raw["verb"]), raw["by"]
    if raw["kind"] == "edit":
        return PerformedEdit(clock, verb, by)
    if raw["kind"] == "share":
        return PerformedShare(clock, by, raw["to"])
    o = raw["origin"]
    origin = OriginKey(o["grantor"], o["grantee"], o["share_clock"])
    return Obligation(clock, verb, raw["allow"], by, raw["to"], origin)


VALUE_FAULTS = [(raw, message) for raw, message in EVENT_REJECTIONS if well_shaped(raw)]


def test_value_faults_cover_every_value_check():
    assert len(VALUE_FAULTS) == 68
    assert len({message for _, message in VALUE_FAULTS}) == 10


@pytest.mark.parametrize("raw, message", VALUE_FAULTS)
def test_constructors_reject_value_faults_with_the_parsers_message(raw, message):
    with pytest.raises(Exception) as caught:
        constructed(raw)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def slot_values(value):
    """Every slot of ``value``, keys and origin included, with its exact class."""
    if dataclasses.is_dataclass(value):
        return [(f.name, slot_values(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [slot_values(item) for item in value]
    return (type(value), value)


class Name(str):
    pass


class Raw(dict):
    pass


@example(GOOD_EVENT["edit"])
@example(GOOD_EVENT["share"])
@example(GOOD_EVENT["obligation"])
@example({**GOOD_EVENT["obligation"], "allow": True})
# Values the parser's exact-class guard leaves to the constructors.
@example(Raw(GOOD_EVENT["edit"]))
@example({**GOOD_EVENT["share"], "to": Name("P2")})
@example({**GOOD_EVENT["obligation"], "by": Name("P1")})
@example({**GOOD_EVENT["obligation"], "origin": Raw(GOOD_EVENT["obligation"]["origin"])})
@example({**GOOD_EVENT["obligation"], "origin": {**GOOD_EVENT["obligation"]["origin"], "grantee": Name("P2")}})
@example({**GOOD_EVENT["obligation"], "origin": {**GOOD_EVENT["obligation"]["origin"], "share_clock": True}})
@example({**GOOD_EVENT["obligation"], "allow": 1})
@given(raw_events())
def test_constructors_and_parser_agree_on_raw_events(raw):
    assume(well_shaped(raw))
    try:
        event = event_from_dict(raw, where="e")
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            constructed(raw)
        assert f"e: {caught.value}" == str(exc)
    else:
        assert slot_values(event) == slot_values(constructed(raw))


def make_event(kind, clock, verb, allow, by, to, share_clock):
    if kind == "edit":
        return PerformedEdit(clock, verb, by)
    if kind == "share":
        return PerformedShare(clock, by, to)
    return Obligation(clock, verb, allow, by, to, OriginKey(by, to, share_clock))


CLOCK_VALUES = st.one_of(st.integers(-1, 3), st.booleans(), st.sampled_from([1.0, 1.5, "1", None]))
NAME_VALUES = st.one_of(st.sampled_from(["P1", "P2", ""]), st.sampled_from([1, None, b"P1"]))


@given(
    st.sampled_from(["edit", "share", "obligation"]),
    CLOCK_VALUES,
    st.one_of(st.sampled_from(Verb), st.sampled_from(["read", "share", None])),
    st.one_of(st.booleans(), st.sampled_from([0, 1, "yes", None])),
    NAME_VALUES,
    NAME_VALUES,
    CLOCK_VALUES,
)
def test_constructed_events_round_trip(kind, clock, verb, allow, by, to, share_clock):
    # The converse of the test above: the constructors reject with a
    # ValueError every value that a log, or the log file format, cannot hold.
    try:
        event = make_event(kind, clock, verb, allow, by, to, share_clock)
    except ValueError:
        return
    assert event_from_dict(event_to_dict(event)) == event
    role = LogRole.EDIT if kind == "edit" else LogRole.COMM
    assert log_from_dict(log_to_dict(Log(role, (event,)), "d")) == ("d", Log(role, (event,)))

