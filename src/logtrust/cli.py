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
import functools
import gc
import json
import os
import sys
from pathlib import Path
from typing import Any, Iterable, Optional, TextIO

from .audit import AuditReport, _report_pieces, local_trust_assessment, parse_audit_mode
from .errors import LogTrustError, ScenarioError
from .events import LogRole, _log_file_pieces, log_from_dict
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
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise _CliError(f"{path}: invalid JSON: {exc}") from None


def _write(stream: TextIO, pieces: Iterable[str]) -> None:
    """Write each of ``pieces`` as it comes, then a newline, in slices of at
    most 1 MiB: one ``write`` of over 2 GiB can be cut short without error."""
    write = stream.write
    for piece in pieces:
        if len(piece) <= 1 << 20:
            write(piece)
        else:
            for start in range(0, len(piece), 1 << 20):
                write(piece[start : start + (1 << 20)])
    write("\n")


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
                    _write(handle, _log_file_pieces(log, copy.doc_id))
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
        _write(sys.stdout, trace.json_pieces())
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
    report = AuditReport(report.assessor, edit_doc, report.mode, report.violations, report.trust)
    if args.format == "json":
        _write(sys.stdout, _report_pieces(report))
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
    """Run one command with the cyclic collector paused, which would free
    nothing: the engine makes no reference cycles.  The caller's setting is
    put back on every exit, argparse's ``SystemExit`` included."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: Optional[list[str]]) -> int:
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
