"""The benchmark workloads and the oracle gate that checks their outputs.

Each workload is a closed loop with one caller: it runs a pool of items
(scenario files, library session scripts, exported log pairs) one at a
time, in process, and waits for each call.  One pass runs every item of
the pool once.  ``verify`` runs an item once and checks everything it
produced against ``tests/oracle.py``; ``run`` runs it for timing and
returns the per-operation latencies plus a digest of the output, which
must equal the digest of the verified pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import re
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import logtrust
import logtrust.cli as cli
import oracle

import inputs

# Pools are sized for a pass of 2-5 s at the seed commit, so a run
# makes several passes and the gate, which runs one, stays cheap.
# Scenario lengths are in equal ratios.  Run time grows with the cube of
# the length, so a narrow range with many short scenarios keeps the pass
# short while the latency percentiles still have many neighbours.
RUN_TABLE_LENGTHS = inputs.ladder(120, 160, 32)
# JSON output grows quadratically with the scenario, hence shorter ones.
RUN_JSON_LENGTHS = inputs.ladder(40, 60, 40)
SESSION_COMMANDS = 600
SESSIONS = 16
# Events per exported log pair, doubling every six steps: 1k to 8k.  The
# scan is quadratic, so this pool's pass is about 5 s; fewer pairs would
# leave too few operations for a tail above the median.
AUDIT_SIZES = inputs.ladder(1000, 8000, 19)
AUDIT_MODES = ("prose", "literal")

TRUST_MODEL = ("multiplicative", 0.5)  # the CLI and Simulation default


@dataclass
class Item:
    """One pool entry: a CLI call, or a whole library session."""

    key: str
    commands: int  # commands completed per run
    events: int = 0  # log events audited per run, counted by the oracle gate
    argv: list[str] = field(default_factory=list)
    source: str = ""  # scenario file of a session
    mode: str = "prose"
    shifted: bool = False
    digest: str = ""  # output digest of the verified pass
    calls: list[tuple[str, tuple]] = field(default_factory=list, repr=False)


def save_items(items: list[Item], workdir: Path) -> None:
    """Write the pool's manifest, with what the gate verified, for the timed process."""
    manifest = [dataclasses.asdict(dataclasses.replace(i, calls=[])) for i in items]
    (workdir / "items.json").write_text(json.dumps(manifest))


def load_items(workdir: Path) -> list[Item]:
    items = [Item(**entry) for entry in json.loads((workdir / "items.json").read_text())]
    for item in items:
        if item.source:
            item.calls = session_calls(json.loads(Path(item.source).read_text()))
    return items


def digest(code: Any, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def call_cli(argv: list[str]) -> tuple[float, int, str]:
    """One ``logtrust`` invocation in process: (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


# -- oracle helpers ------------------------------------------------------

def creator_of(edit_events: list[dict]) -> Optional[str]:
    return next((e["by"] for e in edit_events if e["verb"] == "create"), None)


def oracle_violations(edit_events: list[dict], comm_events: list[dict], mode: str) -> set:
    """``oracle.oracle_violations``, called once per (peer, verb).

    The oracle judges an action only by the obligations addressed to its
    actor for its verb, so splitting both logs by (peer, verb) keeps its
    result and spares it a scan of every obligation for every action.
    """
    creator = creator_of(edit_events)
    groups: defaultdict = defaultdict(lambda: ([], []))
    for e in edit_events:
        groups[(e["by"], e["verb"])][0].append(e)
    for e in comm_events:
        actor = e["to"] if e["kind"] == "obligation" else e["by"]
        groups[(actor, e["verb"])][1].append(e)
    found: set = set()
    for edit, comm in groups.values():
        found |= oracle.oracle_violations(edit, comm, creator, mode)
    return found


def expected_report(
    edit_events: list[dict], comm_events: list[dict], assessor: str, mode: str
) -> tuple[set, dict[str, float]]:
    """The oracle's violations and trust table for one audit."""
    violations = oracle_violations(edit_events, comm_events, mode)
    peers = (
        {e["by"] for e in edit_events}
        | {e["by"] for e in comm_events}
        | {e["to"] for e in comm_events}
        | {assessor}
    ) - {""}
    trust = oracle.oracle_trust(
        [v[0] for v in sorted(violations)], sorted(peers), *TRUST_MODEL
    )
    return violations, trust


def violation_key(v: dict) -> tuple:
    return (
        v["offender"],
        v["verb"],
        v["action_clock"],
        v["forbid_clock"],
        v["grantor"],
        v["origin"]["share_clock"],
    )


def check_report(report: dict, expected: tuple[set, dict], mode: str, where: str) -> list[str]:
    """Problems with one serialized audit report, judged by the oracle."""
    want, trust = expected
    got = [violation_key(v) for v in report["violations"]]
    problems = []
    if report["mode"] != mode:
        problems.append(f"{where}: mode {report['mode']} instead of {mode}")
    if len(set(got)) != len(got) or set(got) != want:
        problems.append(
            f"{where}: {len(got)} violations reported, the oracle finds {len(want)}"
            f" ({len(set(got) - want)} extra, {len(want - set(got))} missing)"
        )
    if report["trust"] != trust:
        problems.append(f"{where}: trust {report['trust']} instead of {trust}")
    return problems


def check_golden(root: Path) -> list[str]:
    """``scenarios/paper_example.json`` must reproduce the golden trace."""
    golden = json.loads((root / "tests/data/paper_example_golden.json").read_text())
    _, code, text = call_cli(
        ["run", str(root / "scenarios/paper_example.json"), "--format", "json"]
    )
    if code != 0:
        return [f"golden: run exited {code}"]
    snapshots = json.loads(text)["snapshots"]
    problems = []
    for checkpoint in golden["checkpoints"]:
        snapshot = snapshots[checkpoint["after"]]
        for want in checkpoint.get("states", ()):
            got = [
                s
                for s in snapshot["states"]
                if (s["peer"], s["doc"]) == (want["peer"], want["doc"])
            ]
            if not got or any(got[0][part] != want[part] for part in ("edit", "comm", "comments")):
                problems.append(f"golden: state of {want['peer']} after {checkpoint['after']}")
        for want in checkpoint.get("queues", ()):
            key = (want["from"], want["to"], want["doc"])
            got = [q for q in snapshot["queues"] if (q["from"], q["to"], q["doc"]) == key]
            if not got or got[0]["messages"] != want["messages"]:
                problems.append(f"golden: queue {key} after {checkpoint['after']}")
    if snapshots[-1]["report"] != golden["final_report"]:
        problems.append("golden: final report")
    return problems


# -- library sessions ----------------------------------------------------

def session_calls(data: dict[str, Any]) -> list[tuple[str, tuple]]:
    """Scenario commands as ``Simulation`` method calls."""
    Verb, Atom = logtrust.Verb, logtrust.ObligationAtom
    calls: list[tuple[str, tuple]] = []
    for c in data["commands"]:
        op = c["op"]
        ignore = c.get("ignore_obligations", False)
        if op == "create":
            calls.append(("create_doc", (c["peer"], c["doc_id"])))
        elif op == "edit":
            calls.append(("edit", (c["peer"], c["doc_id"], Verb(c["verb"]), ignore)))
        elif op == "batch":
            verbs = [Verb(v) for v in c["verbs"]]
            calls.append(("batch", (c["peer"], c["doc_id"], verbs, ignore)))
        elif op == "share":
            atoms = [Atom(Verb(a["verb"]), a["allow"]) for a in c["obligations"]]
            calls.append(("share", (c["from"], c["doc_id"], c["to"], atoms)))
        elif op == "deliver":
            calls.append(("deliver", (c["to"], c["from"], c["doc_id"])))
        else:
            calls.append(("audit", (c["peer"], c["doc_id"])))
    return calls


def run_session(calls, on_audit=None) -> tuple[list[float], str]:
    """Replay a script on a fresh ``Simulation``, timing each method call.

    ``on_audit(sim, args, report)`` runs after each audit, outside the
    timed region.
    """
    sim = logtrust.Simulation()
    latencies = []
    results = []
    for name, args in calls:
        method = getattr(sim, name)
        start = time.perf_counter()
        result = method(*args)
        latencies.append(time.perf_counter() - start)
        results.append(result)
        if on_audit is not None and name == "audit":
            on_audit(sim, args, result)
    text = json.dumps(
        [r if isinstance(r, int) else logtrust.report_to_dict(r) for r in results]
    )
    return latencies, digest(0, text)


def held_events(sim, peer: str, doc_id: str) -> tuple[list[dict], list[dict]]:
    state = sim.peer_state(peer, doc_id)
    return (
        logtrust.log_to_dict(state.edit_log, doc_id)["events"],
        logtrust.log_to_dict(state.comm_log, doc_id)["events"],
    )


# -- workloads -----------------------------------------------------------

class Workload:
    name = ""
    why = ""
    pass_s = 4.0  # a pass's operation time at the seed commit, at reference speed

    def items(self, seed: int, workdir: Path) -> list[Item]:
        raise NotImplementedError

    def verify(self, item: Item) -> tuple[float, list[str]]:
        """Run once, record the digest and the events audited, check against the oracle:
        (op seconds, problems)."""
        raise NotImplementedError

    def run(self, item: Item) -> tuple[list[float], str, int]:
        """Run for timing: (operation latencies, output digest, output bytes)."""
        elapsed, code, text = call_cli(item.argv)
        return [elapsed], digest(code, text), len(text)


class RunWorkload(Workload):
    """``logtrust run <file>`` over generated scenarios with 8 peers."""

    def __init__(self, name: str, lengths: list[int], output_format: str, why: str, pass_s: float = 4.0):
        self.name = name
        self.why = why
        self.lengths = lengths
        self.output_format = output_format
        self.pass_s = pass_s

    def items(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        scenarios = [inputs.scenario(rng, n) for n in self.lengths]
        rng.shuffle(scenarios)
        items = []
        for i, data in enumerate(scenarios):
            path = workdir / f"scenario-{i:02d}.json"
            path.write_text(json.dumps(data, indent=2))
            argv = ["run", str(path)]
            if self.output_format == "json":
                argv += ["--format", "json"]
            items.append(Item(path.name, len(data["commands"]), argv=argv))
        return items

    def verify(self, item):
        data = json.loads(Path(item.argv[1]).read_text())
        elapsed, code, text = call_cli(item.argv)
        item.digest = digest(code, text)
        if code != 0:
            return elapsed, [f"{item.key}: run exited {code}"]
        if self.output_format == "json":
            return elapsed, self._check_json(item, data, text)
        return elapsed, self._check_table(item, data, text)

    def _check_json(self, item, data, text):
        snapshots = json.loads(text)["snapshots"]
        if len(snapshots) != len(data["commands"]):
            return [f"{item.key}: {len(snapshots)} snapshots for {len(data['commands'])} commands"]
        # The events this workload handles are the ones it writes out: few
        # audits fall in a short scenario, so its audited events vary too
        # much from pool to pool to measure speed by.
        item.events = sum(len(s["edit"]) + len(s["comm"]) for snap in snapshots for s in snap["states"])
        problems = []
        for snapshot in snapshots:
            report = snapshot["report"]
            if report is None:
                continue
            state = next(
                s
                for s in snapshot["states"]
                if (s["peer"], s["doc"]) == (report["assessor"], report["doc_id"])
            )
            expected = expected_report(state["edit"], state["comm"], report["assessor"], "prose")
            problems += check_report(report, expected, "prose", f"{item.key}[{snapshot['index']}]")
        return problems

    def _check_table(self, item, data, text):
        """Match every report block of the table against the oracle.

        The logs an audit saw come from replaying the scenario on the
        library, which also checks that the CLI and the library agree.
        """
        audited = []

        def on_audit(sim, args, _report):
            audited.append((args[0], *held_events(sim, *args)))

        run_session(session_calls(data), on_audit)
        item.events = sum(len(edit) + len(comm) for _, edit, comm in audited)
        reports = parse_table_reports(text)
        if len(reports) != len(audited):
            return [f"{item.key}: {len(reports)} report blocks for {len(audited)} audits"]
        problems = []
        for n, (report, (assessor, edit, comm)) in enumerate(zip(reports, audited)):
            want, trust = expected_report(edit, comm, assessor, "prose")
            where = f"{item.key} audit {n}"
            if report["assessor"] != assessor or report["mode"] != "prose":
                problems.append(f"{where}: header {report}")
            got = report["violations"]
            if report["count"] != len(got) or len(set(got)) != len(got) or set(got) != want:
                problems.append(f"{where}: violations differ from the oracle")
            if report["trust"] != {p: f"{v:g}" for p, v in trust.items()}:
                problems.append(f"{where}: trust {report['trust']}")
        return problems


_HEADER = re.compile(r"^\s+assessor=(\S+) doc=(\S+) mode=(\S+) violations=(\d+)$")
_VIOLATION = re.compile(
    r"^\s+(\S+) performed (\S+) at clock (\d+) against a forbid from (\S+)"
    r" \(forbid clock (\d+), granted at share clock (\d+)\)$"
)
_TRUST = re.compile(r"^\s+trust: (.*)$")


def parse_table_reports(text: str) -> list[dict]:
    """Report blocks of ``logtrust run`` table output, in order."""
    reports: list[dict] = []
    for line in text.splitlines():
        if m := _HEADER.match(line):
            reports.append(
                {"assessor": m[1], "doc": m[2], "mode": m[3], "count": int(m[4]),
                 "violations": [], "trust": None}
            )
        elif reports and (m := _VIOLATION.match(line)):
            offender, verb, clock, grantor, forbid, share = m.groups()
            reports[-1]["violations"].append(
                (offender, verb, int(clock), int(forbid), grantor, int(share))
            )
        elif reports and (m := _TRUST.match(line)):
            reports[-1]["trust"] = dict(pair.split("=", 1) for pair in m[1].split())
    return reports


class SessionWorkload(Workload):
    name = "session_lib"
    why = "long Simulation sessions with audits among the writes: log append, merge and remap dominate"
    pass_s = 4.2

    def items(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for i in range(SESSIONS):
            data = inputs.scenario(rng, SESSION_COMMANDS)
            path = workdir / f"session-{i}.json"
            path.write_text(json.dumps(data, indent=2))
            calls = session_calls(data)
            items.append(Item(path.name, len(calls), source=str(path), calls=calls))
        return items

    def verify(self, item):
        problems: list[str] = []
        item.events = 0

        def on_audit(sim, args, report):
            edit, comm = held_events(sim, *args)
            item.events += len(edit) + len(comm)
            expected = expected_report(edit, comm, args[0], "prose")
            where = f"{item.key} audit {args[0]}@{len(edit) + len(comm)}"
            problems.extend(check_report(logtrust.report_to_dict(report), expected, "prose", where))

        latencies, item.digest = run_session(item.calls, on_audit)
        return sum(latencies), problems

    def run(self, item):
        return (*run_session(item.calls), 0)


def _shift_violations(violations: set, shift: int) -> set:
    return {(o, v, a + shift, f + shift, g, c + shift) for o, v, a, f, g, c in violations}


class AuditWorkload(Workload):
    name = "audit_logs"
    why = "logtrust audit on exported log pairs of 1k-8k events in both modes: the scan and log parsing dominate"
    pass_s = 5.1

    def items(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for j, size in enumerate(AUDIT_SIZES):
            clean = j % 5 == 2
            shifted = j % 4 == 3
            edit, comm = inputs.log_pair(rng, size, clean=clean)
            if shifted:
                edit, comm = inputs.shift_clocks(edit), inputs.shift_clocks(comm)
            assessor = f"P{rng.randint(1, inputs.PEERS)}"
            paths = []
            for payload in (edit, comm):
                path = workdir / f"pair-{j:02d}-{payload['role']}.json"
                path.write_text(json.dumps(payload, indent=2) + "\n")
                paths.append(str(path))
            events = len(edit["events"]) + len(comm["events"])
            for mode in AUDIT_MODES:
                argv = ["audit", *paths, "--assessor", assessor, "--format", "json", "--mode", mode]
                items.append(
                    Item(f"pair-{j:02d}-{mode}", 1, events, argv=argv, mode=mode, shifted=shifted)
                )
        return items

    def verify(self, item):
        edit, comm = (json.loads(Path(p).read_text()) for p in item.argv[1:3])
        problems = []
        for payload in (edit, comm):
            try:
                logtrust.log_from_dict(payload)
            except ValueError as exc:
                problems.append(f"{item.key}: generated log rejected: {exc}")
        elapsed, code, text = call_cli(item.argv)
        item.digest = digest(code, text)
        assessor = item.argv[item.argv.index("--assessor") + 1]
        if item.shifted:
            # Expected: the violations of the same history at low clocks, shifted.
            edit, comm = (inputs.shift_clocks(p, -inputs.CLOCK_SHIFT) for p in (edit, comm))
        want, trust = expected_report(edit["events"], comm["events"], assessor, item.mode)
        if item.shifted:
            want = _shift_violations(want, inputs.CLOCK_SHIFT)
        if code != (1 if want else 0):
            problems.append(f"{item.key}: audit exited {code}, oracle finds {len(want)} violations")
        if code in (0, 1):
            problems += check_report(json.loads(text), (want, trust), item.mode, item.key)
        return elapsed, problems


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        RunWorkload(
            "run_table",
            RUN_TABLE_LENGTHS,
            "table",
            "default CLI path on 120-160 command scenarios: per-command snapshot capture dominates",
            pass_s=2.95,
        ),
        RunWorkload(
            "run_json",
            RUN_JSON_LENGTHS,
            "json",
            "run --format json on 40-60 command scenarios: every snapshot is serialized",
            pass_s=3.7,
        ),
        SessionWorkload(),
        AuditWorkload(),
    )
}
