import json

import pytest

from logtrust.cli import main

from conftest import SCENARIOS

PAPER = str(SCENARIOS / "paper_example.json")

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


def test_deeply_nested_json_is_invalid_input(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert main(["validate", str(deep)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    comm = write_json(tmp_path / "c.json", {"doc_id": "d", "role": "comm", "events": []})
    assert main(["audit", str(deep), comm, "--assessor", "P1"]) == 2
    assert "invalid JSON" in capsys.readouterr().err
