"""Stateful contract test over ``Simulation``.

Hypothesis drives random create, edit, batch, share, deliver and audit
steps over a few peers and documents.  After every step each held and
in-flight log must re-validate as a ``Log`` and carry cached rows equal
to its entries' keys, each held comment set must equal the oracle's
replay of its edit log, and every audit must agree with
``tests/oracle.py`` in both audit modes.
"""

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
    Log,
    MissingObligationError,
    ObligationAtom,
    Simulation,
    Verb,
    dedup_key,
    detect_violations,
    event_to_dict,
    sort_key,
)
from oracle import oracle_comments, oracle_trust, oracle_violations, violation_tuple

PEERS = ("P1", "P2", "P3", "P4")
DOCS = ("d", "e")
EDITS = tuple(v for v in Verb if v in EDIT_VERBS)
GRANTS = tuple(v for v in Verb if v in OBLIGATION_VERBS)


def check_log(log):
    Log(log.role, log.entries)  # raises unless sorted, distinct and of one role
    if log.entries:
        assert log._rows == tuple((sort_key(e), dedup_key(e), e) for e in log.entries)


class SimulationMachine(RuleBasedStateMachine):
    @initialize(mode=st.sampled_from(AuditMode))
    def start(self, mode):
        self.sim = Simulation(mode=mode)

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
            self.sim.batch(peer, doc, [Verb.CREATE, *extras])
        else:
            self.sim.create_doc(peer, doc)

    @precondition(lambda self: self.holders())
    @rule(verb=st.sampled_from(EDITS), data=st.data())
    def edit(self, verb, data):
        self.sim.edit(*data.draw(st.sampled_from(self.holders())), verb)

    @precondition(lambda self: self.holders())
    @rule(
        verbs=st.lists(st.sampled_from(EDITS), min_size=1, max_size=3, unique=True),
        data=st.data(),
    )
    def batch(self, verbs, data):
        self.sim.batch(*data.draw(st.sampled_from(self.holders())), verbs)

    @precondition(lambda self: self.holders())
    @rule(
        grants=st.dictionaries(st.sampled_from(GRANTS), st.booleans(), max_size=3),
        data=st.data(),
    )
    def share(self, grants, data):
        sender, doc = data.draw(st.sampled_from(self.holders()))
        recipient = data.draw(st.sampled_from([p for p in PEERS if p != sender]))
        atoms = [ObligationAtom(verb, allow) for verb, allow in grants.items()]
        try:
            self.sim.share(sender, doc, recipient, atoms)
        except MissingObligationError:
            assert not atoms  # only a share that is not a send-back needs them

    @precondition(lambda self: self.channels())
    @rule(data=st.data())
    def deliver(self, data):
        sender, recipient, doc = data.draw(st.sampled_from(self.channels()))
        self.sim.deliver(recipient, sender, doc)

    @precondition(lambda self: self.holders())
    @rule(data=st.data())
    def audit(self, data):
        peer, doc = data.draw(st.sampled_from(self.holders()))
        report = self.sim.audit(peer, doc)
        state = self.sim.peer_state(peer, doc)
        edit = [event_to_dict(e) for e in state.edit_log]
        comm = [event_to_dict(e) for e in state.comm_log]
        for mode in AuditMode:
            if mode is self.sim.mode:
                found = report.violations
            else:
                found = detect_violations(
                    state.edit_log, state.comm_log, state.document, mode=mode
                )
            want = oracle_violations(edit, comm, state.document.creator, mode.value)
            assert sorted(map(violation_tuple, found)) == sorted(want)
        peers = {e["by"] for e in edit + comm} | {e["to"] for e in comm} | {peer}
        offenders = [v.offender for v in report.violations]
        assert report.trust == oracle_trust(offenders, sorted(peers), "multiplicative", 0.5)

    @invariant()
    def logs_are_valid_and_keyed(self):
        for peer, doc in self.holders():
            state = self.sim.peer_state(peer, doc)
            check_log(state.edit_log)
            check_log(state.comm_log)
            comments = sorted(map(list, state.document.comments))
            assert comments == oracle_comments(map(event_to_dict, state.edit_log))
        for channel in self.channels():
            for message in self.sim.pending(*channel):
                check_log(message.edit_log)
                check_log(message.comm_log)


SimulationMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestSimulationContract = SimulationMachine.TestCase
