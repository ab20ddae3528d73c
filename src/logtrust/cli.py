"""Command line interface.

Three subcommands: ``run`` executes a scenario (from a file or generated
from a seed), ``audit`` assesses a pair of exported log files, and
``validate`` checks a scenario or log file without executing anything.

Exit codes: ``run`` and ``validate`` exit 0 on success and 2 on any
error; violations found by a scenario's audits are data, not errors.
``audit`` exits 0 when the assessment finds no violations, 1 when it
finds at least one, and 2 on any error, so scripts can branch on it.
Failing to write the output (a closed pipe, a full disk, no memory) is
an error too: it exits 2, never 0 or 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import AbstractSet, Any, Optional, TextIO

from .audit import AuditReport, _report_json, local_trust_assessment, parse_audit_mode
from .errors import LogTrustError, ScenarioError
from .events import LogRole, log_from_dict, log_to_dict
from .scengen import generate_scenario
from .simulator import PeerDocState, parse_scenario, run_scenario
from .trust import DEFAULT_TRUST_MODEL, parse_trust_model


class _CliError(Exception):
    """Internal: message already formatted for stderr."""


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise _CliError(f"{path}: invalid UTF-8: byte 0x{byte:02x} ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise _CliError(f"{path}: invalid JSON: nested too deeply") from None


def _write(stream: TextIO, text: str) -> None:
    """Write ``text`` and a newline in pieces of at most 1 MiB of text: one
    ``write`` of more than 2 GiB can be cut short without an error."""
    for start in range(0, len(text), 1 << 20):
        stream.write(text[start : start + (1 << 20)])
    stream.write("\n")


def _dumps(obj: Any, shared: AbstractSet[int] = frozenset()) -> str:
    """Render ``obj`` as ``json.dumps`` does with ``indent=2``.

    Dict keys must be strings.  CPython's C encoder does not run with
    ``indent`` before 3.13, and a trace holds the same log, state and
    message objects in many snapshots, so each container whose id is in
    ``shared`` is rendered once, at the depth where it is first met, and
    its text reused.  At another depth the text differs only in its
    indent: each ``"\\n"`` gains (or loses) two spaces per level, which
    one ``str.replace`` does.  That rewrites nothing else, because a
    raw newline in the text only ever opens an indented line: strings
    are written through ``encode_basestring_ascii``, which escapes every
    control character, and a text rendered at depth ``a`` indents every
    line by at least ``2 * a`` spaces.  ``shared`` must name only
    containers that stay alive and unchanged while ``obj`` is written.
    """
    # Per shared container, the depth it was first met at and its text there.
    texts: dict[int, tuple[int, str]] = {}
    # Per depth, the newline and indent that open its lines.
    newlines: list[str] = []
    # Per dict key, its text with the ": " that follows it.
    keys: dict[str, str] = {}
    encode = encode_basestring_ascii

    def value(o: Any, depth: int, out: list[str]) -> None:
        if isinstance(o, str):
            out.append(encode(o))
        elif type(o) is int:  # the common case; bools and other ints below
            out.append(int.__repr__(o))
        elif o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, float):
            out.append(json.dumps(o))
        elif isinstance(o, (dict, list, tuple)):
            if id(o) not in shared:
                container(o, depth, out)
                return
            entry = texts.get(id(o))
            if entry is None:
                parts: list[str] = []
                container(o, depth, parts)
                text = "".join(parts)
                texts[id(o)] = (depth, text)
            else:
                first, text = entry
                if first < depth:
                    text = text.replace("\n", "\n" + "  " * (depth - first))
                elif first > depth:
                    text = text.replace("\n" + "  " * (first - depth), "\n")
            out.append(text)
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def container(o: Any, depth: int, out: list[str]) -> None:
        is_dict = isinstance(o, dict)
        if not o:
            out.append("{}" if is_dict else "[]")
            return
        while len(newlines) < depth + 2:
            newlines.append("\n" + "  " * len(newlines))
        newline = newlines[depth + 1]
        separator = "," + newline
        out.append("{" if is_dict else "[")
        out.append(newline)
        if is_dict:
            for name, item in o.items():
                text = keys.get(name)
                if text is None:
                    text = keys[name] = encode(name) + ": "
                out.append(text)
                value(item, depth + 1, out)
                out.append(separator)
        else:
            for item in o:
                value(item, depth + 1, out)
                out.append(separator)
        out[-1] = newlines[depth] + ("}" if is_dict else "]")

    out: list[str] = []
    value(obj, 0, out)
    return "".join(out)


def _format_trust(trust: dict[str, float]) -> str:
    return "  ".join(f"{peer}={trust[peer]:g}" for peer in sorted(trust))


def _print_report_table(report: AuditReport, indent: str = "") -> None:
    print(
        f"{indent}assessor={report.assessor}"
        f" doc={report.doc_id}"
        f" mode={report.mode.value}"
        f" violations={len(report.violations)}"
    )
    for v in report.violations:
        print(
            f"{indent}  {v.offender} performed {v.verb.value} at clock"
            f" {v.action_clock} against a forbid from {v.grantor}"
            f" (forbid clock {v.forbid_clock},"
            f" granted at share clock {v.origin.share_clock})"
        )
    print(f"{indent}  trust: {_format_trust(report.trust)}")


def _describe_command(command: dict[str, Any]) -> str:
    op = command["op"]
    if op in ("create", "audit"):
        return f"{op} {command['peer']} {command['doc_id']}"
    if op == "edit":
        suffix = " (ignoring obligations)" if command.get("ignore_obligations") else ""
        return f"edit {command['peer']} {command['doc_id']} {command['verb']}{suffix}"
    if op == "batch":
        suffix = " (ignoring obligations)" if command.get("ignore_obligations") else ""
        return (
            f"batch {command['peer']} {command['doc_id']}"
            f" [{', '.join(command['verbs'])}]{suffix}"
        )
    if op == "share":
        atoms = ", ".join(
            f"{a['verb']}{'+' if a['allow'] else '-'}" for a in command["obligations"]
        )
        return f"share {command['from']} -> {command['to']} {command['doc_id']} {{{atoms}}}"
    return f"deliver {command['to']} <- {command['from']} {command['doc_id']}"


def _export_logs(trace, directory: str) -> list[str]:
    """Write every peer's final logs as importable log files.

    Every name is checked before anything is written: a peer or doc id
    that could leave the directory, or two held copies whose files would
    overwrite each other, is an input error.
    """
    held = trace.snapshots[-1].held if trace.snapshots else ()
    owners: dict[str, PeerDocState] = {}
    for copy in held:
        for what, part in (("peer", copy.peer), ("doc", copy.doc_id)):
            if part in (".", "..") or any(c in part for c in "/\\\0"):
                raise _CliError(
                    f"{directory}: cannot export logs: {what} id {part!r} is not a file name part"
                )
        name = f"{copy.peer}_{copy.doc_id}"
        other = owners.get(name)
        if other is not None:
            raise _CliError(
                f"{directory}: cannot export logs: {other.peer!r} holding {other.doc_id!r}"
                f" and {copy.peer!r} holding {copy.doc_id!r} both write {name}_*.json"
            )
        owners[name] = copy
    out_dir = Path(directory)
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, copy in owners.items():
            for log in (copy.edit_log, copy.comm_log):
                path = out_dir / f"{name}_{log.role.value}.json"
                with path.open("w", encoding="utf-8") as handle:
                    _write(handle, _dumps(log_to_dict(log, copy.doc_id)))
                written.append(str(path))
    except OSError as exc:
        where = exc.filename or directory
        raise _CliError(f"{where}: cannot export logs: {exc.strerror or exc}") from None
    return written


def cmd_run(args: argparse.Namespace) -> int:
    """Execute a scenario file (or a generated one) and print its trace.

    Exits 0 whenever the scenario executes, whether or not its audits
    found violations.
    """
    mode, trust_model = parse_audit_mode(args.mode), parse_trust_model(args.trust_model)
    if args.seed is not None:
        scenario = generate_scenario(args.seed)
        source = f"seed {args.seed}"
    else:
        scenario = _load_json(args.scenario)
        source = args.scenario
    try:
        trace = run_scenario(scenario, mode=mode, trust_model=trust_model)
    except ScenarioError as exc:
        raise _CliError(f"{source}: {exc}") from None

    if args.export_logs:
        written = _export_logs(trace, args.export_logs)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)

    if args.format == "json":
        _write(sys.stdout, _dumps(*trace.to_dict_and_shared()))
    else:
        name = trace.name or source
        print(
            f"scenario: {name} ({len(trace.snapshots)} commands,"
            f" mode={trace.mode.value}, trust={trace.trust_model})"
        )
        for snapshot in trace.snapshots:
            line = f"[{snapshot.index:2d}] {_describe_command(snapshot.command)}"
            if snapshot.command["op"] != "audit":
                line += f"  clock={snapshot.clock}"
            print(line)
            if snapshot.report is not None:
                _print_report_table(snapshot.report, indent="     ")
    return 0


def _load_log(path: str, expected_role: LogRole):
    data = _load_json(path)
    try:
        doc_id, log = log_from_dict(data, where=path)
    except (LogTrustError, ValueError) as exc:
        raise _CliError(str(exc)) from None
    if log.role is not expected_role:
        raise _CliError(f"{path}: expected a {expected_role.value} log, got {log.role.value}")
    return doc_id, log


def cmd_audit(args: argparse.Namespace) -> int:
    """Assess a pair of exported logs and print the audit report.

    Exits 0 with no violations, 1 with violations, 2 on input errors.
    """
    mode, trust_model = parse_audit_mode(args.mode), parse_trust_model(args.trust_model)
    edit_doc, edit_log = _load_log(args.edit_log, LogRole.EDIT)
    comm_doc, comm_log = _load_log(args.comm_log, LogRole.COMM)
    if edit_doc != comm_doc:
        raise _CliError(f"logs describe different documents: {edit_doc!r} vs {comm_doc!r}")
    try:
        report = local_trust_assessment(
            edit_log, comm_log, None, args.assessor, trust_model, mode=mode
        )
    except LogTrustError as exc:
        raise _CliError(f"{args.edit_log}: {exc}") from None
    report = dataclasses.replace(report, doc_id=edit_doc)
    if args.format == "json":
        _write(sys.stdout, _report_json(report))
    else:
        _print_report_table(report)
    return 1 if report.violations else 0


def cmd_validate(path: str) -> int:
    """Check a scenario or log file without executing anything."""
    data = _load_json(path)
    if isinstance(data, dict) and "commands" in data:
        try:
            _, commands = parse_scenario(data)
        except ScenarioError as exc:
            raise _CliError(f"{path}: {exc}") from None
        print(f"{path}: valid scenario ({len(commands)} commands)")
        return 0
    if isinstance(data, dict) and "events" in data:
        try:
            doc_id, log = log_from_dict(data, where=path)
        except (LogTrustError, ValueError) as exc:
            raise _CliError(str(exc)) from None
        print(
            f"{path}: valid {log.role.value} log for {doc_id!r}"
            f" ({len(log)} events)"
        )
        return 0
    raise _CliError(f"{path}: neither a scenario (commands) nor a log (events) file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logtrust",
        description="Audit obligation compliance in decentrally shared document logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--mode",
        default="prose",
        choices=("prose", "literal"),
        help="violation rule: latest obligation governs (prose) or any prior forbid condemns (literal)",
    )
    common.add_argument(
        "--trust-model",
        default=DEFAULT_TRUST_MODEL.describe(),
        metavar="MODEL",
        help="multiplicative[:factor] or fixed[:delta] (default %(default)s)",
    )
    common.add_argument(
        "--format",
        default="table",
        choices=("table", "json"),
        help="output format (default %(default)s)",
    )

    run = sub.add_parser("run", parents=[common], help="execute a scenario")
    run.add_argument("scenario", nargs="?", help="scenario JSON file")
    run.add_argument("--seed", type=int, help="generate the scenario from a seed instead")
    run.add_argument(
        "--export-logs",
        metavar="DIR",
        help="write every peer's final logs to DIR as JSON files",
    )

    audit = sub.add_parser("audit", parents=[common], help="audit exported log files")
    audit.add_argument("edit_log", help="edit log JSON file")
    audit.add_argument("comm_log", help="communication log JSON file")
    audit.add_argument("--assessor", required=True, help="peer performing the assessment")

    validate = sub.add_parser("validate", help="check a scenario or log file")
    validate.add_argument("path", help="JSON file to validate")
    return parser


# ``main`` builds the parser once per process: building it costs far more
# than one ``parse_args``, which leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "run" and (args.scenario is None) == (args.seed is None):
        parser.error("run needs a scenario file or --seed, but not both")
    try:
        if args.command == "run":
            code = cmd_run(args)
        elif args.command == "audit":
            code = cmd_audit(args)
        else:
            code = cmd_validate(args.path)
        sys.stdout.flush()
        return code
    except (_CliError, ValueError) as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory"
    except OSError as exc:  # input errors arrive as _CliError: a write failed
        message = f"cannot write output: {exc.strerror or exc}"
        # Python flushes stdout again at exit; point it at os.devnull first.
        try:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # a stdout without a file descriptor of its own
    try:
        print(f"error: {message}", file=sys.stderr)
    except (OSError, ValueError):
        pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
