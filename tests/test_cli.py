import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from logtrust import (
    AuditMode,
    Document,
    Log,
    LogRole,
    Obligation,
    OriginKey,
    PerformedEdit,
    PerformedShare,
    Verb,
    generate_scenario,
    run_scenario,
)
from logtrust.audit import derive_creator, local_trust_assessment, report_to_dict
from logtrust.cli import _dumps, main
from logtrust.events import log_from_dict, log_to_dict

from conftest import SCENARIOS

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
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63) - 1, max_value=2**63 + 1)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(SPECIAL_STRINGS)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text() | st.sampled_from(SPECIAL_STRINGS), children, max_size=4),
    max_leaves=30,
)


def shared_containers(obj):
    """Ids of the dicts, lists and tuples reached more than once in ``obj``.

    The reference for what ``ScenarioTrace.to_dict_and_shared`` declares:
    a walk of the whole object that does not descend into a container
    twice.
    """
    seen = set()
    shared = set()
    stack = [obj] if isinstance(obj, (dict, list, tuple)) else []
    while stack:
        o = stack.pop()
        if id(o) in seen:
            shared.add(id(o))
            continue
        seen.add(id(o))
        for child in o.values() if isinstance(o, dict) else o:
            if isinstance(child, (dict, list, tuple)):
                stack.append(child)
    return shared


@given(json_values)
@example(None)
@example([True, False, None, 2**63, -(2**63), -0.0, 1e16, 1e-7])
@example([float("nan"), float("inf"), float("-inf")])
@example({"": [], "a": {}, "b": [[], {}], "c": {"d": [{}]}})
@example(SPECIAL_STRINGS)
@example({k: k for k in SPECIAL_STRINGS})
def test_dumps_matches_json_dumps_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)
    # one sub-object aliased at several depths and twice at the same depth
    aliased = {"a": value, "b": [value, {"c": value}], "d": (value, value), "e": [value]}
    for obj in (aliased, [aliased, aliased]):
        expected = json.dumps(obj, indent=2)
        assert _dumps(obj) == expected
        assert _dumps(obj, shared_containers(obj)) == expected


@pytest.mark.parametrize("mode", ["prose", "literal"])
def test_trace_declares_exactly_the_containers_it_shares(paper_scenario, mode):
    scenarios = [paper_scenario] + [generate_scenario(seed) for seed in range(60)]
    declared_any = False
    for k, scenario in enumerate(scenarios):
        data, shared = run_scenario(scenario, mode=AuditMode(mode)).to_dict_and_shared()
        assert shared == shared_containers(data), k
        declared_any |= bool(shared)
    assert declared_any


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


def test_to_dict_shares_unchanged_held_copies(paper_scenario):
    # the JSON writer renders a shared state dict once, so to_dict must
    # hand out the same dict exactly when a held copy did not change
    trace = run_scenario(paper_scenario)
    snapshots = trace.to_dict()["snapshots"]
    shared = 0
    for i in range(1, len(trace.snapshots)):
        before = {
            held[:2]: (held, state)
            for held, state in zip(trace.snapshots[i - 1].held, snapshots[i - 1]["states"])
        }
        for held, state in zip(trace.snapshots[i].held, snapshots[i]["states"]):
            if held[:2] not in before:
                continue
            old_held, old_state = before[held[:2]]
            unchanged = all(a is b for a, b in zip(old_held, held))
            assert (state is old_state) == unchanged
            shared += unchanged
    assert shared > 0


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
