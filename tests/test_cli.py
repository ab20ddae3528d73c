import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import logtrust
from logtrust import (
    OBLIGATION_VERBS,
    AuditMode,
    AuditReport,
    Document,
    FixedStepTrust,
    Log,
    LogRole,
    MultiplicativeTrust,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Verb,
    Violation,
    dedup_key,
    generate_scenario,
    parse_trust_model,
    run_scenario,
)
from logtrust import simulator
from logtrust.audit import _report_pieces, derive_creator, local_trust_assessment, report_to_dict
from logtrust.cli import main
from logtrust.events import _PADS, _log_json, log_from_dict, log_to_dict

from conftest import SCENARIOS
from oracle import oracle_event_dict
from test_trace_equivalence import assert_same_text, eager_trace_dict

PAPER = str(SCENARIOS / "paper_example.json")
EMPTY = str(SCENARIOS / "empty.json")

OVERRIDE_SCENARIO = {
    "name": "forgiven-comment",
    "commands": [
        {"op": "create", "peer": "P1", "doc_id": "d"},
        {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
         "obligations": [{"verb": "comment", "allow": False}]},
        {"op": "deliver", "from": "P1", "to": "P2", "doc_id": "d"},
        {"op": "share", "from": "P1", "to": "P2", "doc_id": "d",
         "obligations": [{"verb": "comment", "allow": True}]},
        {"op": "deliver", "from": "P1", "to": "P2", "doc_id": "d"},
        {"op": "edit", "peer": "P2", "doc_id": "d", "verb": "comment"},
        {"op": "audit", "peer": "P2", "doc_id": "d"},
    ],
}


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_run_table_reports_violation(capsys):
    # violations found by a scenario's audits are data, not a failure
    assert main(["run", PAPER]) == 0
    out = capsys.readouterr().out
    assert "violations=1" in out
    assert "P2 performed comment at clock 2" in out


def test_run_json_trace(capsys):
    assert main(["run", PAPER, "--format", "json"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert len(trace["snapshots"]) == 12
    report = trace["snapshots"][-1]["report"]
    assert report["trust"] == {"P1": 1.0, "P2": 0.5, "P3": 1.0}


def test_run_from_seed(capsys):
    assert main(["run", "--seed", "42", "--format", "json"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace["name"] == "generated-42"


def test_run_rejects_file_and_seed_together():
    with pytest.raises(SystemExit) as exc:
        main(["run", PAPER, "--seed", "1"])
    assert exc.value.code == 2


def test_run_missing_file(capsys):
    assert main(["run", "no_such_scenario.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_os_errors_name_the_path_and_the_reason(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "no_such.json"]) == 2
    assert capsys.readouterr() == ("", "error: no_such.json: No such file or directory\n")
    blocker = tmp_path / "f"
    blocker.write_text("a regular file", encoding="utf-8")
    assert main(["run", PAPER, "--export-logs", str(blocker / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {blocker / 'out'}: cannot export logs: Not a directory\n")
    # a file that cannot be written is named itself
    (tmp_path / "logs" / "P1_d_edit.json").mkdir(parents=True)
    assert main(["run", PAPER, "--export-logs", str(tmp_path / "logs")]) == 2
    where = tmp_path / "logs" / "P1_d_edit.json"
    assert capsys.readouterr() == ("", f"error: {where}: cannot export logs: Is a directory\n")


def test_run_invalid_scenario(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"commands": [{"op": "bogus"}]})
    assert main(["run", path]) == 2
    assert "command 0" in capsys.readouterr().err


def test_run_and_validate_reject_a_bare_list(tmp_path, capsys):
    path = write_json(tmp_path / "list.json", [])
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: scenario must be an object\n")
    assert main(["validate", path]) == 2
    capsys.readouterr()
    # Only an object holding "events" is a log file, not an array or a string that holds it.
    for payload in (["events"], "events"):
        path = write_json(tmp_path / "events.json", payload)
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            f"error: {path}: neither a scenario (commands) nor a log (events) file\n",
        )


def test_run_invalid_json_is_line_anchored(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"commands": [\n  {"op" "create"}\n]}', encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2:" in err


def test_mode_flag_changes_outcome(tmp_path, capsys):
    path = write_json(tmp_path / "override.json", OVERRIDE_SCENARIO)

    def last_report(mode):
        assert main(["run", path, "--mode", mode, "--format", "json"]) == 0
        trace = json.loads(capsys.readouterr().out)
        return trace["snapshots"][-1]["report"]

    assert last_report("prose")["violations"] == []
    assert len(last_report("literal")["violations"]) == 1


def test_trust_model_flag(tmp_path, capsys):
    assert main(["run", PAPER, "--trust-model", "fixed:0.2", "--format", "json"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace["snapshots"][-1]["report"]["trust"]["P2"] == pytest.approx(0.8)


def test_trust_model_that_cannot_lower_trust_is_bad_input(capsys):
    # 1.0 - 1e-17 == 1.0, so P2's violation would leave it at full trust
    assert main(["run", PAPER, "--trust-model", "fixed:1e-17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid trust model 'fixed:1e-17': delta must be at least")


def test_export_then_audit_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "logs"
    assert main(["run", PAPER, "--export-logs", str(out_dir)]) == 0
    capsys.readouterr()
    edit_path = out_dir / "P3_d_edit.json"
    comm_path = out_dir / "P3_d_comm.json"
    assert edit_path.exists() and comm_path.exists()

    code = main(
        ["audit", str(edit_path), str(comm_path), "--assessor", "P3", "--format", "json"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [
        {
            "offender": "P2",
            "verb": "comment",
            "action_clock": 2,
            "forbid_clock": 1,
            "grantor": "P1",
            "origin": {"grantor": "P1", "grantee": "P2", "share_clock": 2},
        }
    ]
    assert report["trust"]["P2"] == 0.5


def test_parsing_and_auditing_an_exported_pair_run_no_checking_constructor(
    tmp_path, capsys, monkeypatch
):
    # The parser builds a log file's events, and a first audit fold its
    # violations, through the slot setters once their checks have passed;
    # a checking constructor called here would check each value twice.
    out_dir = tmp_path / "logs"
    assert main(["run", PAPER, "--export-logs", str(out_dir)]) == 0
    capsys.readouterr()
    files = [json.loads((out_dir / f"P3_d_{role}.json").read_text()) for role in ("edit", "comm")]
    calls = []
    for cls in (PerformedEdit, PerformedShare, Obligation, OriginKey, Violation):
        def counted(self, *args, __init__=cls.__init__):
            calls.append(type(self).__name__)
            __init__(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    (_, edit_log), (_, comm_log) = (log_from_dict(data) for data in files)
    assert calls == []
    assert {type(e) for e in (*edit_log, *comm_log)} == {PerformedEdit, PerformedShare, Obligation}
    report = local_trust_assessment(edit_log, comm_log, None, "P3")
    assert calls == []
    assert report.violations
    v = report.violations[0]
    assert Violation(v.offender, v.verb, v.action_clock, v.forbid) == v
    assert calls == ["Violation"]  # the counter sees a constructor call


def test_export_to_an_unwritable_directory_is_an_input_error(tmp_path, capsys):
    blocker = tmp_path / "f"
    blocker.write_text("a regular file", encoding="utf-8")
    target = blocker / "out"
    assert main(["run", PAPER, "--export-logs", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {target}: cannot export logs:")


def test_audit_rejects_mismatched_documents(tmp_path, capsys):
    edit = write_json(
        tmp_path / "edit.json",
        {"doc_id": "d", "role": "edit", "events": []},
    )
    comm = write_json(
        tmp_path / "comm.json",
        {"doc_id": "other", "role": "comm", "events": []},
    )
    assert main(["audit", edit, comm, "--assessor", "P1"]) == 2
    assert "different documents" in capsys.readouterr().err


def test_audit_of_logs_without_a_create_is_an_input_error(tmp_path, capsys, monkeypatch):
    # The logs parse, but the audit cannot tell who created the document.
    monkeypatch.chdir(tmp_path)
    edit = write_json(
        Path("e.json"),
        {"doc_id": "d", "role": "edit", "events": [{"clock": 1, "kind": "edit", "verb": "read", "by": "P1"}]},
    )
    comm = write_json(Path("c.json"), {"doc_id": "d", "role": "comm", "events": []})
    assert main(["audit", edit, comm, "--assessor", "P1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: e.json: edit log has entries but no create event\n")


def test_run_and_validate_reject_a_scenario_name_that_is_no_string(tmp_path, capsys):
    path = write_json(tmp_path / "name.json", {"name": 5, "commands": []})
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: name must be a string\n")


def test_audit_rejects_wrong_role(tmp_path, capsys):
    comm_only = write_json(
        tmp_path / "c.json", {"doc_id": "d", "role": "comm", "events": []}
    )
    assert main(["audit", comm_only, comm_only, "--assessor", "P1"]) == 2
    assert "expected a edit log" in capsys.readouterr().err


def test_validate_scenario_and_log(tmp_path, capsys):
    assert main(["validate", PAPER]) == 0
    assert "valid scenario" in capsys.readouterr().out
    log = write_json(
        tmp_path / "log.json", {"doc_id": "d", "role": "comm", "events": []}
    )
    assert main(["validate", log]) == 0
    assert "valid comm log" in capsys.readouterr().out
    neither = write_json(tmp_path / "x.json", {"stuff": 1})
    assert main(["validate", neither]) == 2


def test_validate_reports_bad_log_events(tmp_path, capsys):
    log = write_json(
        tmp_path / "log.json",
        {
            "doc_id": "d",
            "role": "edit",
            "events": [{"clock": 1, "kind": "edit", "verb": "launch", "by": "P1"}],
        },
    )
    assert main(["validate", log]) == 2
    assert "events[0]" in capsys.readouterr().err


def test_obligation_over_create_is_an_input_error(tmp_path, capsys):
    # A forbid on create to P2, then a second create by P2: no share can
    # carry such an obligation, so the log is bad input, not a violation.
    edit = write_json(
        tmp_path / "edit.json",
        {
            "doc_id": "d",
            "role": "edit",
            "events": [
                {"clock": 1, "kind": "edit", "verb": "create", "by": "P1"},
                {"clock": 5, "kind": "edit", "verb": "create", "by": "P2"},
            ],
        },
    )
    comm = write_json(
        tmp_path / "comm.json",
        {
            "doc_id": "d",
            "role": "comm",
            "events": [
                {"clock": 2, "kind": "share", "verb": "share", "by": "P1", "to": "P2"},
                {
                    "clock": 3,
                    "kind": "obligation",
                    "verb": "create",
                    "allow": False,
                    "by": "P1",
                    "to": "P2",
                    "origin": {"grantor": "P1", "grantee": "P2", "share_clock": 2},
                },
            ],
        },
    )
    expected = f"error: {comm}: events[1]: obligations cannot govern create\n"
    for argv in (["audit", edit, comm, "--assessor", "P1"], ["validate", comm]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected)


def shift_clocks(path, shift):
    payload = json.loads(path.read_text(encoding="utf-8"))
    for event in payload["events"]:
        event["clock"] += shift
        if "origin" in event:
            event["origin"]["share_clock"] += shift
    return write_json(path, payload)


def test_audit_handles_clocks_beyond_32_bits(tmp_path, capsys):
    out_dir = tmp_path / "logs"
    assert main(["run", PAPER, "--export-logs", str(out_dir)]) == 0
    capsys.readouterr()
    shift = 2**31
    edit = shift_clocks(out_dir / "P3_d_edit.json", shift)
    comm = shift_clocks(out_dir / "P3_d_comm.json", shift)
    for mode in ("prose", "literal"):
        code = main(
            ["audit", edit, comm, "--assessor", "P3", "--format", "json", "--mode", mode]
        )
        assert code == 1
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [
            (v["offender"], v["action_clock"], v["forbid_clock"], v["origin"]["share_clock"])
            for v in violations
        ] == [("P2", shift + 2, shift + 1, shift + 2)]


def test_forbidden_shares_at_one_clock_are_one_violation_each(tmp_path, capsys):
    # The engine draws a fresh clock per command, but an exported log may
    # hold two shares by one peer at one clock, to different recipients.
    edit = Log.from_events(LogRole.EDIT, [PerformedEdit(1, Verb.CREATE, "P1")])
    comm = Log.from_events(
        LogRole.COMM,
        [
            PerformedShare(1, "P1", "P2"),
            Obligation(1, Verb.SHARE, False, "P1", "P2", OriginKey("P1", "P2", 1)),
            PerformedShare(3, "P2", "P3"),
            PerformedShare(3, "P2", "P4"),
        ],
    )
    report = local_trust_assessment(edit, comm, None, "P1")
    assert [(v.offender, v.verb, v.action_clock) for v in report.violations] == [
        ("P2", Verb.SHARE, 3),
        ("P2", Verb.SHARE, 3),
    ]
    assert report.trust == {"P1": 1.0, "P2": 0.25, "P3": 1.0, "P4": 1.0}
    edit_path = write_json(tmp_path / "edit.json", log_to_dict(edit, "d"))
    comm_path = write_json(tmp_path / "comm.json", log_to_dict(comm, "d"))
    assert main(["audit", edit_path, comm_path, "--assessor", "P1", "--format", "json"]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert len(printed["violations"]) == 2
    assert printed["trust"]["P2"] == 0.25


def test_deeply_nested_json_is_invalid_input(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert main(["validate", str(deep)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    comm = write_json(tmp_path / "c.json", {"doc_id": "d", "role": "comm", "events": []})
    assert main(["audit", str(deep), comm, "--assessor", "P1"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_utf8_input_names_the_file(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"commands": [], "name": "caf\xe9"}')
    edit = write_json(tmp_path / "e.json", {"doc_id": "d", "role": "edit", "events": []})
    comm = write_json(tmp_path / "c.json", {"doc_id": "d", "role": "comm", "events": []})
    for argv in (
        ["run", str(bad)],
        ["validate", str(bad)],
        ["audit", str(bad), comm, "--assessor", "P1"],
        ["audit", edit, str(bad), "--assessor", "P1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: invalid UTF-8: byte 0xe9 (invalid continuation byte)\n"


def test_export_rejects_names_that_leave_the_directory(tmp_path, capsys):
    out_dir = tmp_path / "logs"
    for bad in ("../escaped", "/abs", "a\\b", "nul\0", ".", ".."):
        scenario = write_json(
            tmp_path / "s.json",
            {"commands": [{"op": "create", "peer": bad, "doc_id": "d"}]},
        )
        assert main(["run", scenario, "--export-logs", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {out_dir}: cannot export logs: peer id")
    scenario = write_json(
        tmp_path / "s.json",
        {"commands": [{"op": "create", "peer": "P1", "doc_id": "../d"}]},
    )
    assert main(["run", scenario, "--export-logs", str(out_dir)]) == 2
    assert "doc id '../d'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_export_rejects_colliding_file_names(tmp_path, capsys):
    scenario = write_json(
        tmp_path / "s.json",
        {
            "commands": [
                {"op": "create", "peer": "A", "doc_id": "B_c"},
                {"op": "create", "peer": "A_B", "doc_id": "c"},
            ]
        },
    )
    out_dir = tmp_path / "logs"
    assert main(["run", scenario, "--export-logs", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'A' holding 'B_c' and 'A_B' holding 'c' both write A_B_c_*.json" in captured.err
    assert not out_dir.exists()


SPECIAL_STRINGS = ["", "é\u2028\U0001f600", "\x00\x1f\x7f", '"quoted"', "back\\slash", "\t\r\n"]
peer_ids = st.sampled_from([s for s in SPECIAL_STRINGS if s]) | st.text(min_size=1)
any_text = st.sampled_from(SPECIAL_STRINGS) | st.text()


@st.composite
def logs(draw):
    """A log of either role, with ids from ``peer_ids`` and clocks past 64 bits."""
    role = draw(st.sampled_from(LogRole))
    clocks = st.integers(min_value=1, max_value=2**64)
    events = {}
    for _ in range(draw(st.integers(0, 4))):
        by, to = draw(st.lists(peer_ids, min_size=2, max_size=2, unique=True))
        if role is LogRole.EDIT:
            verb = draw(st.sampled_from([v for v in Verb if v is not Verb.SHARE]))
            event = PerformedEdit(draw(clocks), verb, by)
        elif draw(st.booleans()):
            event = PerformedShare(draw(clocks), by, to)
        else:
            verb = draw(st.sampled_from(sorted(OBLIGATION_VERBS, key=lambda v: v.value)))
            origin = OriginKey(by, to, draw(clocks))
            event = Obligation(draw(clocks), verb, draw(st.booleans()), by, to, origin)
        events.setdefault(dedup_key(event), event)
    return Log.from_events(role, events.values())


@given(logs(), st.integers(min_value=0, max_value=7))
def test_log_writer_matches_json_dumps_indent_2(log, depth):
    # The event and log templates of ``run --format json`` and
    # ``--export-logs``, at every depth a trace or a log file nests a log.
    # Nested, ``json.dumps`` output differs only in its indent, because
    # every control character in a string is escaped.
    expected = json.dumps([oracle_event_dict(e) for e in log.entries], indent=2)
    assert _log_json(log, depth) == expected.replace("\n", _PADS[depth])


EDIT_VERB_VALUES = ["read", "comment", "delete_comment"]


@st.composite
def scenarios(draw):
    """A scenario that runs, over peers and documents named from
    ``peer_ids``, with batches and ``ignore_obligations`` edits."""
    peers = draw(st.lists(peer_ids, min_size=2, max_size=3, unique=True))
    docs = draw(st.lists(peer_ids, min_size=1, max_size=2, unique=True))
    edit_verbs = st.lists(st.sampled_from(EDIT_VERB_VALUES), unique=True)
    holders = {}  # per created document, the peers holding it
    pending = {}  # per channel, its number of pending messages
    commands = []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        uncreated = [doc for doc in docs if doc not in holders]
        held = [(peer, doc) for doc, peers_of in holders.items() for peer in peers_of]
        ready = [channel for channel, count in pending.items() if count]
        op = draw(st.sampled_from(
            ["create"] * bool(uncreated)
            + ["edit", "batch", "share", "audit"] * bool(held)
            + ["deliver"] * bool(ready)
        ))
        if op == "create":
            doc, peer = draw(st.sampled_from(uncreated)), draw(st.sampled_from(peers))
            holders[doc] = [peer]
            command = {"op": "create", "peer": peer, "doc_id": doc}
            if draw(st.booleans()):
                command = {**command, "op": "batch", "verbs": ["create", *draw(edit_verbs)]}
        elif op == "deliver":
            sender, recipient, doc = channel = draw(st.sampled_from(ready))
            pending[channel] -= 1
            if recipient not in holders[doc]:
                holders[doc].append(recipient)
            command = {"op": "deliver", "from": sender, "to": recipient, "doc_id": doc}
        elif op == "share":
            sender, doc = draw(st.sampled_from(held))
            recipient = draw(st.sampled_from([p for p in peers if p != sender]))
            verbs = st.lists(st.sampled_from([*EDIT_VERB_VALUES, "share"]), min_size=1, unique=True)
            obligations = [{"verb": verb, "allow": draw(st.booleans())} for verb in draw(verbs)]
            command = {"op": "share", "from": sender, "to": recipient, "doc_id": doc}
            command["obligations"] = obligations
            pending[sender, recipient, doc] = pending.get((sender, recipient, doc), 0) + 1
        else:
            peer, doc = draw(st.sampled_from(held))
            command = {"op": op, "peer": peer, "doc_id": doc}
            if op == "edit":
                command["verb"] = draw(st.sampled_from(EDIT_VERB_VALUES))
            elif op == "batch":
                command["verbs"] = draw(edit_verbs.filter(bool))
            if op != "audit" and draw(st.booleans()):
                command["ignore_obligations"] = True
        commands.append(command)
    return {"name": draw(any_text), "commands": commands}


@settings(deadline=None)
@given(scenarios())
def test_run_json_writer_matches_the_eager_trace(scenario):
    # The writer against the eager reference, on ids that need escaping.
    with tempfile.TemporaryDirectory() as directory:
        path = write_json(Path(directory) / "scenario.json", scenario)
        for mode in ("prose", "literal"):
            for model in ("multiplicative:0.5", "fixed:0.2"):
                eager = eager_trace_dict(
                    scenario, mode=AuditMode(mode), trust_model=parse_trust_model(model)
                )
                argv = ["run", path, "--format", "json", "--mode", mode, "--trust-model", model]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                assert (code, out.getvalue()) == (0, json.dumps(eager, indent=2) + "\n")


def test_run_json_builds_no_trace_dict(paper_scenario, capsys, monkeypatch):
    # the trace is written from the engine's objects; a refactor back to
    # a dict tree fails here
    cases = [([PAPER], paper_scenario), (["--seed", "5"], generate_scenario(5))]
    expected = [json.dumps(eager_trace_dict(s), indent=2) + "\n" for _, s in cases]
    assert all('"report": {' in text for text in expected)

    def no_dict(*args):
        raise AssertionError("run --format json built a dict")

    monkeypatch.setattr(simulator.ScenarioTrace, "to_dict", no_dict)
    for module in (logtrust.events, logtrust.audit, simulator, logtrust.cli):
        for name in ("event_to_dict", "report_to_dict"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_dict)
    for (args, _), text in zip(cases, expected):
        assert main(["run", *args, "--format", "json"]) == 0
        assert capsys.readouterr().out == text


@pytest.mark.parametrize("mode", ["prose", "literal"])
def test_run_json_output_equals_json_dumps(mode, capsys):
    audit_mode = AuditMode(mode)
    cases = [
        ([path], json.loads(Path(path).read_text(encoding="utf-8"))) for path in (PAPER, EMPTY)
    ]
    cases += [(["--seed", str(seed)], generate_scenario(seed)) for seed in range(30)]
    for args, scenario in cases:
        assert main(["run", *args, "--format", "json", "--mode", mode]) == 0
        expected = json.dumps(run_scenario(scenario, mode=audit_mode).to_dict(), indent=2)
        assert capsys.readouterr().out == expected + "\n", args


@pytest.mark.parametrize("mode", ["prose", "literal"])
def test_run_json_output_equals_the_eager_trace(mode, capsys):
    # The cases of the test above, against the eager reference.
    cases = [
        ([path], json.loads(Path(path).read_text(encoding="utf-8"))) for path in (PAPER, EMPTY)
    ]
    cases += [(["--seed", str(seed)], generate_scenario(seed)) for seed in range(30)]
    for args, scenario in cases:
        assert main(["run", *args, "--format", "json", "--mode", mode]) == 0
        expected = json.dumps(eager_trace_dict(scenario, mode=AuditMode(mode)), indent=2)
        assert_same_text(capsys.readouterr().out, expected + "\n", args)


def audit_report_dict(edit_path, comm_path, assessor, mode):
    doc_id, edit_log = log_from_dict(json.loads(edit_path.read_text(encoding="utf-8")))
    _, comm_log = log_from_dict(json.loads(comm_path.read_text(encoding="utf-8")))
    creator = derive_creator(edit_log)
    doc = Document(doc_id, creator) if creator else None
    report = local_trust_assessment(edit_log, comm_log, doc, assessor, mode=AuditMode(mode))
    return report_to_dict(dataclasses.replace(report, doc_id=doc_id))


def test_audit_json_output_equals_json_dumps(tmp_path, capsys):
    audited = violations = 0
    for k, source in enumerate([[PAPER]] + [["--seed", str(seed)] for seed in range(6)]):
        out_dir = tmp_path / str(k)
        assert main(["run", *source, "--export-logs", str(out_dir)]) == 0
        capsys.readouterr()
        for edit_path in sorted(out_dir.glob("*_edit.json")):
            comm_path = edit_path.with_name(edit_path.name.replace("_edit.", "_comm."))
            assessor = edit_path.name.split("_")[0]
            for mode in ("prose", "literal"):
                expected = audit_report_dict(edit_path, comm_path, assessor, mode)
                code = main(
                    ["audit", str(edit_path), str(comm_path), "--assessor", assessor,
                     "--format", "json", "--mode", mode]
                )
                assert code == (1 if expected["violations"] else 0)
                assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
                audited += 1
                violations += bool(expected["violations"])
    assert audited > 20 and violations > 0


def test_audit_json_builds_no_violation_dict(tmp_path, capsys, monkeypatch):
    # the report is written from the violations themselves; a refactor
    # back to one dict per violation, which only ``report_to_dict`` builds,
    # fails here
    out_dir = tmp_path / "logs"
    assert main(["run", PAPER, "--export-logs", str(out_dir)]) == 0
    capsys.readouterr()
    edit, comm = out_dir / "P3_d_edit.json", out_dir / "P3_d_comm.json"
    expected = audit_report_dict(edit, comm, "P3", "prose")
    assert expected["violations"]

    def no_dict(report):
        raise AssertionError("audit --format json built the report's dict")

    monkeypatch.setattr("logtrust.audit.report_to_dict", no_dict)
    code = main(["audit", str(edit), str(comm), "--assessor", "P3", "--format", "json"])
    assert code == 1
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


@st.composite
def forbids(draw, governed):
    """A forbid for an (offender, verb) drawn from ``governed``."""
    offender, verb = draw(governed)
    grantor = draw(peer_ids.filter(lambda peer: peer != offender))
    forbid_clock = draw(st.integers(min_value=1, max_value=2**63 - 1))
    origin = OriginKey(grantor, offender, draw(st.integers(min_value=1, max_value=2**63)))
    return Obligation(forbid_clock, verb, False, grantor, offender, origin)


@st.composite
def violations(draw):
    """Violations that share forbids, over forbids that share an (offender, verb)."""
    verbs = st.sampled_from(sorted(OBLIGATION_VERBS, key=lambda v: v.value))
    governed = draw(st.lists(st.tuples(peer_ids, verbs), min_size=1, max_size=3))
    pool = draw(st.lists(forbids(st.sampled_from(governed)), min_size=1, max_size=4))
    drawn = []
    for forbid in draw(st.lists(st.sampled_from(pool), max_size=8)):
        action_clock = draw(st.integers(min_value=forbid.clock + 1, max_value=2**63))
        drawn.append(Violation(forbid.to, forbid.verb, action_clock, forbid))
    return tuple(drawn)


@st.composite
def audit_reports(draw):
    # MultiplicativeTrust(max_value=1) starts every peer at the int 1
    models = [MultiplicativeTrust(), FixedStepTrust(), MultiplicativeTrust(max_value=1)]
    model = draw(st.sampled_from(models))
    ladder = [model.max_value]
    while len(ladder) < 12:
        ladder.append(model.on_violation(ladder[-1]))
    return AuditReport(
        draw(any_text),
        draw(any_text),
        draw(st.sampled_from(AuditMode)),
        draw(violations()),
        draw(st.dictionaries(any_text, st.sampled_from(ladder), max_size=4)),
    )


@given(audit_reports())
@example(AuditReport("", "", AuditMode.PROSE, (), {}))
@example(AuditReport("P1", "d", AuditMode.LITERAL, (), {"P1": 1, "P2": 0.5}))
def test_report_writer_matches_json_dumps_indent_2(report):
    expected = json.dumps(report_to_dict(report), indent=2)
    assert "".join(_report_pieces(report)) == expected
    # a trace nests its reports at depth 3
    assert "".join(_report_pieces(report, 3)) == expected.replace("\n", _PADS[3])


def test_a_report_is_written_without_its_whole_text():
    forbid = Obligation(1, Verb.COMMENT, False, "P1", "P2", OriginKey("P1", "P2", 1))
    violations = tuple(Violation("P2", Verb.COMMENT, clock, forbid) for clock in range(2, 20_002))
    report = AuditReport("P1", "d", AuditMode.PROSE, violations, {"P1": 1.0, "P2": 0.0})
    size = sum(map(len, _report_pieces(report)))
    tracemalloc.start()
    try:
        for piece in _report_pieces(report):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 4_000_000
    assert peak < size / 2, (peak, size)


@pytest.mark.large
@pytest.mark.parametrize("mode", ["prose", "literal"])
def test_run_json_output_equals_json_dumps_on_large_scenarios(mode, tmp_path, capsys):
    # messages carry long logs here, so many logs and events first met in
    # a held copy are re-indented where a message carries them
    for seed in range(3):
        scenario = generate_scenario(seed, max_peers=8, max_commands=200)
        path = write_json(tmp_path / f"{seed}.json", scenario)
        assert main(["run", path, "--format", "json", "--mode", mode]) == 0
        expected = json.dumps(eager_trace_dict(scenario, mode=AuditMode(mode)), indent=2)
        assert_same_text(capsys.readouterr().out, expected + "\n", seed)


# SHA-256 over the exit code and stdout of ``run`` (both formats and modes)
# on the two scenario files and seeds 0-59, the files ``--export-logs``
# writes for them, and ``audit`` (both formats and modes) on every
# exported pair.
CLI_OUTPUT_SHA256 = "553f963771ff676ac6936010070560ed35d64e7c7e1685d4be30b010de6c8a9f"


def test_cli_output_is_byte_identical(tmp_path, capsys):
    # Pins the table, JSON and log-file writers: any change that moves
    # one byte of what the CLI prints or exports fails here.
    digest = hashlib.sha256()

    def record(argv):
        code = main(argv)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())

    sources = [[PAPER], [EMPTY]] + [["--seed", str(seed)] for seed in range(60)]
    for k, source in enumerate(sources):
        out_dir = tmp_path / str(k)
        for mode in ("prose", "literal"):
            for fmt in ("table", "json"):
                export = ["--export-logs", str(out_dir)] if (mode, fmt) == ("prose", "table") else []
                record(["run", *source, "--mode", mode, "--format", fmt, *export])
        for path in sorted(out_dir.glob("*.json")):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
        for edit_path in sorted(out_dir.glob("*_edit.json")):
            comm_path = edit_path.with_name(edit_path.name.replace("_edit.", "_comm."))
            assessor = edit_path.name.split("_")[0]
            for mode in ("prose", "literal"):
                for fmt in ("table", "json"):
                    record(
                        ["audit", str(edit_path), str(comm_path), "--assessor", assessor,
                         "--mode", mode, "--format", fmt]
                    )
    assert digest.hexdigest() == CLI_OUTPUT_SHA256
