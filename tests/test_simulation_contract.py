"""Stateful contract test over ``Simulation``.

Hypothesis drives random create, edit, batch, share, deliver and audit
steps over a few peers and documents, and runs each one on
``tests/oracle.py``'s reference engine too.  After every step each held
and in-flight log must re-validate as a ``Log``, hold entries whose cached
keys equal those of a freshly built equal event and a key set (if any)
holding their identities, exactly so at the log's size, and serialize to
the reference engine's list; every clock, channel and comment set must
match it; and
every audit must equal ``oracle_report`` over the reference engine's
logs, order and trust included, and the same audit built over the full
logs at once (``local_trust_assessment``); ``detect_violations`` in the
other audit mode must equal the oracle's violations too.  The logs only
grow: no held copy loses an event, nor replaces one it held with a new
object, each message on a channel holds every event of the one before
it, a deliver leaves the recipient holding every event of the message,
and the edits of an author that any copy holds are
a clock prefix of those in the author's own copy.  The audit
mode and trust model are reassigned between steps, as a caller may do.
The machine's sizes are the ``machine`` hypothesis profile's, or the
``long`` one's under ``--hypothesis-profile=long`` (``tests/conftest.py``).
"""

import dataclasses

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from logtrust import (
    EDIT_VERBS,
    OBLIGATION_VERBS,
    AuditMode,
    Document,
    FixedStepTrust,
    Log,
    MissingObligationError,
    MultiplicativeTrust,
    ObligationAtom,
    Simulation,
    Verb,
    dedup_key,
    detect_violations,
    local_trust_assessment,
    log_to_dict,
    sort_key,
)
from oracle import oracle_comments, oracle_engine, oracle_report, violation_tuple

PEERS = ("P1", "P2", "P3", "P4")
DOCS = ("d", "e")
EDITS = tuple(v for v in Verb if v in EDIT_VERBS)
GRANTS = tuple(v for v in Verb if v in OBLIGATION_VERBS)
# Each trust model with its ``oracle_trust`` arguments
MODELS = (
    (MultiplicativeTrust(), ("multiplicative", 0.5)),
    (FixedStepTrust(), ("fixed", 0.2)),
    (MultiplicativeTrust(0.25), ("multiplicative", 0.25)),
)


def check_log(log):
    Log(log.role, log.entries)  # raises unless sorted, distinct and of one role
    for e in log.entries:
        fresh = dataclasses.replace(e)  # an equal event whose keys are computed anew
        assert (e._key, e._id) == (sort_key(fresh), dedup_key(fresh))
    held = identities(log)
    keys = log._lineage.keys
    assert keys is None or keys >= held
    if keys is not None and len(keys) == len(log):
        assert keys == held  # a key set of the log's size is exact


def events(log, doc):
    return log_to_dict(log, doc)["events"]


def identities(log):
    return {dedup_key(e) for e in log}


class SimulationMachine(RuleBasedStateMachine):
    @initialize(mode=st.sampled_from(AuditMode), model=st.sampled_from(MODELS))
    def start(self, mode, model):
        self.sim = Simulation(mode=mode, trust_model=model[0])
        self.oracle_model = model[1]
        self.oracle = {"clocks": {}, "held": {}, "queues": {}}
        self.held_ids = {}  # (peer, doc) -> its logs' identities after the last step
        self.held_logs = {}  # (peer, doc) -> its logs after the last step

    @rule(mode=st.sampled_from(AuditMode), model=st.sampled_from(MODELS))
    def reconfigure(self, mode, model):
        """Switch the audit mode and trust model, then audit every held copy."""
        self.sim.mode = mode
        self.sim.trust_model = model[0]
        self.oracle_model = model[1]
        for peer, doc in self.holders():
            self.check_audit(peer, doc)

    def both(self, command, call):
        """``call()`` on the engine, ``command`` on the reference engine."""
        assert call() == oracle_engine(self.oracle, command)

    def holders(self):
        return [(p, d) for p in PEERS for d in DOCS if self.sim.holds(p, d)]

    def channels(self):
        return [
            (s, r, d)
            for s in PEERS
            for r in PEERS
            for d in DOCS
            if self.sim.pending(s, r, d)
        ]

    @precondition(lambda self: len(self.sim.documents()) < len(DOCS))
    @rule(
        peer=st.sampled_from(PEERS),
        extras=st.lists(st.sampled_from(EDITS), max_size=2, unique=True),
        data=st.data(),
    )
    def create(self, peer, extras, data):
        doc = data.draw(st.sampled_from([d for d in DOCS if d not in self.sim.documents()]))
        if extras:
            verbs = [Verb.CREATE, *extras]
            command = {"op": "batch", "peer": peer, "doc_id": doc, "verbs": [v.value for v in verbs]}
            self.both(command, lambda: self.sim.batch(peer, doc, verbs))
        else:
            command = {"op": "create", "peer": peer, "doc_id": doc}
            self.both(command, lambda: self.sim.create_doc(peer, doc))

    @precondition(lambda self: self.holders())
    @rule(verb=st.sampled_from(EDITS), data=st.data())
    def edit(self, verb, data):
        peer, doc = data.draw(st.sampled_from(self.holders()))
        command = {"op": "edit", "peer": peer, "doc_id": doc, "verb": verb.value}
        self.both(command, lambda: self.sim.edit(peer, doc, verb))

    @precondition(lambda self: self.holders())
    @rule(
        verbs=st.lists(st.sampled_from(EDITS), min_size=1, max_size=3, unique=True),
        data=st.data(),
    )
    def batch(self, verbs, data):
        peer, doc = data.draw(st.sampled_from(self.holders()))
        command = {"op": "batch", "peer": peer, "doc_id": doc, "verbs": [v.value for v in verbs]}
        self.both(command, lambda: self.sim.batch(peer, doc, verbs))

    @precondition(lambda self: self.holders())
    @rule(
        grants=st.dictionaries(st.sampled_from(GRANTS), st.booleans(), max_size=3),
        data=st.data(),
    )
    def share(self, grants, data):
        sender, doc = data.draw(st.sampled_from(self.holders()))
        recipient = data.draw(st.sampled_from([p for p in PEERS if p != sender]))
        atoms = [ObligationAtom(verb, allow) for verb, allow in grants.items()]
        command = {
            "op": "share",
            "from": sender,
            "to": recipient,
            "doc_id": doc,
            "obligations": [{"verb": a.verb.value, "allow": a.allow} for a in atoms],
        }
        try:
            self.both(command, lambda: self.sim.share(sender, doc, recipient, atoms))
        except MissingObligationError:
            assert not atoms  # only a share that is not a send-back needs them
            with pytest.raises(ValueError, match="must carry obligations"):
                oracle_engine(self.oracle, command)

    @precondition(lambda self: self.holders())
    @rule(
        op=st.sampled_from(("batch", "share")),
        bad=st.sampled_from((None, 3, Verb.READ, ObligationAtom(Verb.READ, True))),
        data=st.data(),
    )
    def reject_what_cannot_be_iterated(self, op, bad, data):
        peer, doc = data.draw(st.sampled_from(self.holders()))
        recipient = data.draw(st.sampled_from([p for p in PEERS if p != peer]))
        with pytest.raises(ValueError, match="must be iterable"):
            if op == "batch":
                self.sim.batch(peer, doc, bad)
            else:
                self.sim.share(peer, doc, recipient, bad)

    @precondition(lambda self: self.channels())
    @rule(data=st.data())
    def deliver(self, data):
        sender, recipient, doc = data.draw(st.sampled_from(self.channels()))
        message = self.sim.pending(sender, recipient, doc)[0]
        command = {"op": "deliver", "from": sender, "to": recipient, "doc_id": doc}
        self.both(command, lambda: self.sim.deliver(recipient, sender, doc))
        state = self.sim.peer_state(recipient, doc)
        assert identities(message.edit_log) <= identities(state.edit_log)
        assert identities(message.comm_log) <= identities(state.comm_log)

    @precondition(lambda self: self.holders())
    @rule(data=st.data())
    def audit(self, data):
        self.check_audit(*data.draw(st.sampled_from(self.holders())))

    def check_audit(self, peer, doc):
        report = self.sim.audit(peer, doc)
        state = self.sim.peer_state(peer, doc)
        document = Document(doc, state.creator)
        assert report == local_trust_assessment(
            state.edit_log,
            state.comm_log,
            document,
            peer,
            self.sim.trust_model,
            mode=self.sim.mode,
        )
        held = self.oracle["held"][peer, doc]
        for mode in AuditMode:
            violations, trust = oracle_report(
                held["edit"], held["comm"], held["creator"], peer, mode.value, *self.oracle_model
            )
            if mode is self.sim.mode:
                assert [violation_tuple(v) for v in report.violations] == violations
                assert report.trust == trust
            else:
                found = detect_violations(state.edit_log, state.comm_log, document, mode=mode)
                assert [violation_tuple(v) for v in found] == violations

    @invariant()
    def engine_matches_the_reference(self):
        clocks = self.oracle["clocks"]
        assert {p: self.sim.clock(p) for p in PEERS} == {p: clocks.get(p, 0) for p in PEERS}
        logs = []
        assert set(self.holders()) == set(self.oracle["held"])
        for (peer, doc), want in self.oracle["held"].items():
            state = self.sim.peer_state(peer, doc)
            assert events(state.edit_log, doc) == want["edit"]
            assert events(state.comm_log, doc) == want["comm"]
            assert state.creator == want["creator"]
            comments = sorted(map(list, state.document.comments))
            assert comments == oracle_comments(want["edit"])
            logs += [state.edit_log, state.comm_log]
        assert set(self.channels()) == set(self.oracle["queues"])
        for (sender, recipient, doc), want in self.oracle["queues"].items():
            messages = self.sim.pending(sender, recipient, doc)
            assert [
                {"edit": events(m.edit_log, doc), "comm": events(m.comm_log, doc), "creator": m.creator}
                for m in messages
            ] == want
            logs += [log for m in messages for log in (m.edit_log, m.comm_log)]
        for log in {id(log): log for log in logs}.values():
            check_log(log)

    @invariant()
    def held_copies_and_channels_only_grow(self):
        held_ids = {}
        held_logs = {}
        for peer, doc in self.holders():
            state = self.sim.peer_state(peer, doc)
            held_ids[peer, doc] = identities(state.edit_log), identities(state.comm_log)
            held_logs[peer, doc] = state.edit_log, state.comm_log
        for key, (edit, comm) in self.held_ids.items():
            assert edit <= held_ids[key][0] and comm <= held_ids[key][1]
        # a derived log shares its parent's event objects
        for key, logs in self.held_logs.items():
            for before, after in zip(logs, held_logs[key]):
                assert set(map(id, before)) <= set(map(id, after))
        self.held_ids = held_ids
        self.held_logs = held_logs
        for channel in self.channels():
            messages = self.sim.pending(*channel)
            for before, after in zip(messages, messages[1:]):
                assert identities(before.edit_log) <= identities(after.edit_log)
                assert identities(before.comm_log) <= identities(after.comm_log)

    @invariant()
    def held_edits_are_a_clock_prefix_of_their_authors(self):
        for peer, doc in self.holders():
            held = self.sim.peer_state(peer, doc).edit_log
            for author in {e.by for e in held} - {peer}:
                own = self.sim.peer_state(author, doc).edit_log
                theirs = [e for e in held if e.by == author]
                top = theirs[-1].clock
                assert theirs == [e for e in own if e.by == author and e.clock <= top]


_profile = "long" if settings.get_current_profile_name() == "long" else "machine"
SimulationMachine.TestCase.settings = settings.get_profile(_profile)
TestSimulationContract = SimulationMachine.TestCase
