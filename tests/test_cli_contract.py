"""The CLI exit-code contract on mutated inputs.

Exported logs and generated scenarios are mutated at random: fields and
events are dropped or duplicated, values are swapped for wrong types,
huge clocks or NaN.  Whatever the input, ``audit``, ``validate`` and
``run`` must exit 0, 1 or 2, and only ``audit`` may exit 1, when it
reports at least one violation.  A traceback fails the test.  So does
any exit code but 2 when writing the output fails: a closed pipe, a full
disk or no memory.
"""

import copy
import errno
import gc
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import logtrust
from logtrust import event_to_dict, generate_scenario, run_scenario
from logtrust.cli import _parser, _write, main

from conftest import SCENARIOS

# Values swapped in for a field or an element.
STRANGE = (
    None, True, False, 0, -1, 1.5, 2**63, float("nan"), float("inf"),
    "", "x", "edit", "comm", "share", [], {}, [1], {"kind": "edit"},
)


def mutate(value, rng):
    """A copy of ``value`` with one random node dropped, duplicated or replaced."""
    value = copy.deepcopy(value)
    containers = []

    def walk(node):
        if isinstance(node, dict) and node:
            containers.append(node)
            for child in node.values():
                walk(child)
        elif isinstance(node, list) and node:
            containers.append(node)
            for child in node:
                walk(child)

    walk(value)
    if not containers:
        return rng.choice(STRANGE)
    node = rng.choice(containers)
    key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
    action = rng.randrange(5)
    if action == 0:
        del node[key]
    elif action == 1 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    elif action == 1:
        node[key + "_"] = node[key]
    elif action == 2 and key in ("clock", "share_clock"):
        node[key] = rng.choice((2**63, float("nan"), 0, -(2**63), "1"))
    elif action == 2 and isinstance(node, list) and len(node) > 1:
        other = rng.randrange(len(node))
        node[key], node[other] = node[other], node[key]
    else:
        node[key] = rng.choice(STRANGE)
    return value


def exported_pairs():
    """(edit, comm) log payloads every peer holds at the end of a few scenarios."""
    pairs = []
    for seed in range(4):
        trace = run_scenario(generate_scenario(seed, max_peers=4, max_commands=30))
        for peer, doc, edit, comm, _ in trace.snapshots[-1].held:
            pairs.append(
                tuple(
                    {"doc_id": doc, "role": log.role.value, "events": [event_to_dict(e) for e in log]}
                    for log in (edit, comm)
                )
            )
    return pairs


def call(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert argv[0] == "audit", (argv, code)
        assert json.loads(out)["violations"], argv
    return code


def write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_exit_codes_hold_on_mutated_inputs(tmp_path, capsys):
    rng = random.Random(4)
    pairs = exported_pairs()
    scenarios = [generate_scenario(seed, max_peers=4, max_commands=12) for seed in range(8)]
    codes = set()
    for case in range(150):
        edit, comm = rng.choice(pairs)
        if rng.random() < 0.5:
            edit = mutate(edit, rng)
        if rng.random() < 0.7:
            comm = mutate(comm, rng)
        edit_path = write(tmp_path / "edit.json", edit)
        comm_path = write(tmp_path / "comm.json", comm)
        for mode in ("prose", "literal"):
            argv = ["audit", edit_path, comm_path, "--assessor", "P1", "--mode", mode]
            codes.add(call(capsys, argv + ["--format", "json"]))
        codes.add(call(capsys, ["validate", edit_path]))
        codes.add(call(capsys, ["validate", comm_path]))

        scenario = mutate(rng.choice(scenarios), rng)
        if rng.random() < 0.3:
            scenario = mutate(scenario, rng)
        scenario_path = write(tmp_path / "scenario.json", scenario)
        codes.add(call(capsys, ["validate", scenario_path]))
        codes.add(call(capsys, ["run", scenario_path]))
        codes.add(call(capsys, ["run", scenario_path, "--mode", "literal", "--format", "json"]))
    # the mutations reach every outcome, so the contract is not met vacuously
    assert codes == {0, 1, 2}


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="needs an int digit limit (Python 3.11+, not disabled)",
)
def test_a_clock_past_the_int_digit_limit_is_invalid_json_of_its_file(tmp_path, capsys):
    edit, comm = exported_pairs()[0]
    edit_path = write(tmp_path / "edit.json", edit)
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    comm_text = re.sub(r'"clock": \d+', f'"clock": {digits}', json.dumps(comm), count=1)
    assert digits in comm_text
    comm_path = tmp_path / "comm.json"
    comm_path.write_text(comm_text, encoding="utf-8")
    for argv in (
        ["audit", edit_path, str(comm_path), "--assessor", "P1"],
        ["validate", str(comm_path)],
        ["run", str(comm_path)],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {comm_path}: invalid JSON: Exceeds the limit"), err
        assert err.count("\n") == 1, err


class FailingStdout(io.StringIO):
    """A stdout that takes ``limit`` characters, then raises ``error`` on every write."""

    def __init__(self, limit, error):
        super().__init__()
        self.limit, self.error = limit, error

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            raise self.error
        return super().write(text)


WRITE_ERRORS = (
    BrokenPipeError(errno.EPIPE, "Broken pipe"),
    OSError(errno.ENOSPC, "No space left on device"),
    MemoryError(),
)


def test_a_failed_write_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    assert main(["run", str(SCENARIOS / "paper_example.json"), "--export-logs", str(tmp_path)]) == 0
    pair = [str(tmp_path / f"P1_d_{role}.json") for role in ("edit", "comm")]
    violating = [str(tmp_path / f"P2_d_{role}.json") for role in ("edit", "comm")]
    commands = [
        (["run", "--seed", "5"], 0),
        (["run", "--seed", "5", "--format", "json"], 0),
        (["audit", *pair, "--assessor", "P1"], 0),
        (["audit", *pair, "--assessor", "P1", "--format", "json"], 0),
        (["audit", *violating, "--assessor", "P2"], 1),
        (["audit", *violating, "--assessor", "P2", "--format", "json"], 1),
        (["validate", pair[0]], 0),
    ]
    capsys.readouterr()
    for argv, code in commands:
        assert main(argv) == code, argv
        size = len(capsys.readouterr().out)
        for limit in (0, 4096):
            for error in WRITE_ERRORS:
                monkeypatch.setattr(sys, "stdout", FailingStdout(limit, error))
                got = main(argv)
                monkeypatch.undo()
                err = capsys.readouterr().err
                if size <= limit:  # the whole output fits, so nothing fails
                    assert (got, err) == (code, ""), (argv, limit, error)
                    continue
                assert got == 2, (argv, limit, error)
                assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)


def test_an_error_line_that_cannot_be_written_still_exits_2(tmp_path, monkeypatch):
    closed = io.StringIO()
    closed.close()
    for stderr in (FailingStdout(0, OSError(errno.EIO, "Input/output error")), closed):
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["validate", str(tmp_path / "missing.json")]) == 2
        monkeypatch.setattr(sys, "stdout", FailingStdout(0, OSError(errno.ENOSPC, "No space")))
        assert main(["run", "--seed", "5"]) == 2
        monkeypatch.undo()


class RecordingStdout(io.StringIO):
    """A stdout that keeps each piece of text it is given."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def test_output_is_written_in_pieces_of_at_most_1_mib(tmp_path, monkeypatch):
    # One write of more than 2 GiB can be cut short without an error, so
    # the CLI never hands a stream more than 1 MiB of text at once.
    scenario = generate_scenario(2, max_peers=8, max_commands=100)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    text = "".join(run_scenario(scenario).json_pieces())
    assert len(text) > 2 << 20  # three pieces and the newline
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["run", str(path), "--format", "json"]) == 0
    monkeypatch.undo()
    assert max(map(len, stdout.pieces)) <= 1 << 20
    assert "".join(stdout.pieces) == text + "\n"
    # a piece longer than 1 MiB is sliced
    stdout = RecordingStdout()
    _write(stdout, ["a", "b" * ((2 << 20) + 1), "c"])
    assert list(map(len, stdout.pieces)) == [1, 1 << 20, 1 << 20, 1, 1, 1]
    assert stdout.getvalue() == "a" + "b" * ((2 << 20) + 1) + "c\n"


def test_a_text_stream_takes_a_1_mib_write_whole(tmp_path):
    # ``_write`` hands a stream at most 1 MiB at a time.  A text stream's
    # ``write`` of that much returns its full length and loses no byte, to
    # a regular file and to a pipe, whose reader drains it meanwhile.
    pieces = [chr(ord("a") + k) * (1 << 20) for k in range(5)]
    expected = "".join(pieces).encode()
    path = tmp_path / "out"
    with open(path, "w", encoding="utf-8") as stream:
        assert [stream.write(piece) for piece in pieces] == [1 << 20] * 5
    assert path.read_bytes() == expected

    read_end, write_end = os.pipe()
    received = []

    def drain():
        with open(read_end, "rb") as reader:
            received.extend(iter(lambda: reader.read(1 << 16), b""))

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        with open(write_end, "w", encoding="utf-8") as stream:
            assert [stream.write(piece) for piece in pieces] == [1 << 20] * 5
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert b"".join(received) == expected


class CountingStdout(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def test_run_json_never_holds_the_whole_trace(tmp_path, monkeypatch):
    # The trace is written one snapshot at a time, from texts rendered once
    # per object, so memory stays far below the size of the output.
    scenario = generate_scenario(2, max_peers=8, max_commands=292)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    tracemalloc.start()
    try:
        code = main(["run", str(path), "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert code == 0
    assert stdout.size > 50_000_000
    assert peak < stdout.size / 4, (peak, stdout.size)


def _cli(*argv, **kwargs):
    """Start ``logtrust`` in a new process over this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(logtrust.__file__).parents[1]))
    command = [sys.executable, "-m", "logtrust.cli", *argv]
    return subprocess.Popen(command, env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_clean_audit_to_a_full_disk_exits_2(tmp_path, capsys):
    assert main(["run", str(SCENARIOS / "paper_example.json"), "--export-logs", str(tmp_path)]) == 0
    capsys.readouterr()
    pair = [str(tmp_path / f"P1_d_{role}.json") for role in ("edit", "comm")]
    assert main(["audit", *pair, "--assessor", "P1"]) == 0
    with open("/dev/full", "w") as full:
        proc = _cli("audit", *pair, "--assessor", "P1", stdout=full)
        err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert err == "error: cannot write output: No space left on device\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="needs POSIX pipes")
def test_run_into_a_closed_pipe_exits_2():
    proc = _cli("run", "--seed", "5", "--format", "json", stdout=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 2
    assert err == "error: cannot write output: Broken pipe\n"


@pytest.fixture
def paper_logs(tmp_path, capsys):
    """The paper example's exported logs: P1's pair audits clean, P3's finds P2."""
    assert main(["run", str(SCENARIOS / "paper_example.json"), "--export-logs", str(tmp_path)]) == 0
    capsys.readouterr()
    return {peer: [str(tmp_path / f"{peer}_d_{role}.json") for role in ("edit", "comm")]
            for peer in ("P1", "P3")}


@pytest.mark.parametrize("enabled", [True, False])
def test_main_puts_back_the_callers_collector_setting(enabled, paper_logs, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    commands = [
        (["audit", *paper_logs["P1"], "--assessor", "P1"], 0),
        (["audit", *paper_logs["P3"], "--assessor", "P3"], 1),
        (["validate", str(bad)], 2),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, expected in commands:
            assert main(argv) == expected, argv
            assert gc.isenabled() is enabled, argv
        for argv in (["run"], ["frobnicate"], ["--help"]):  # argparse exits
            with pytest.raises(SystemExit):
                main(argv)
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_commands_leave_no_reference_cycles(paper_logs, tmp_path, capsys):
    # main pauses the cyclic collector, which is free only while the engine
    # makes no cycles: whatever a command leaves must be freed by reference
    # counts alone.
    bad = tmp_path / "bad.json"
    bad.write_text('{"commands": [{"op": "fly"}]}', encoding="utf-8")
    paper = str(SCENARIOS / "paper_example.json")
    commands = [
        ["run", paper],
        ["run", paper, "--format", "json"],
        ["run", "--seed", "7", "--mode", "literal"],
        ["run", "--seed", "3", "--format", "json", "--export-logs", str(tmp_path / "out")],
        ["validate", paper],
        ["validate", paper_logs["P3"][0]],
        ["validate", str(bad)],
    ]
    for mode in ("prose", "literal"):
        for fmt in ("table", "json"):
            commands.append(["audit", *paper_logs["P3"], "--assessor", "P3", "--mode", mode,
                             "--format", fmt])
    was = gc.isenabled()
    gc.disable()
    try:
        # Building the parser, once per process, leaves 49 objects in cycles.
        _parser()
        gc.collect()
        codes = [main(argv) for argv in commands]
        capsys.readouterr()
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert codes == [0, 0, 0, 0, 0, 0, 2, 1, 1, 1, 1]
