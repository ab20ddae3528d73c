"""Run the logtrust benchmark.

From the root of a logtrust checkout:

    python3 perfbench/run.py --workload run_table --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Each workload first makes its input pool and runs it once through an
oracle gate, in a child process, which checks every output against
``tests/oracle.py`` and records its digest.  Then it times a fixed
number of whole passes over the pool, about ``--seconds`` of operation
time at the seed commit, and checks each output against the verified
digest.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs untraced and traced passes and reports the per-layer
metrics, including the tracing overhead, and writes the spans under
``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
exits non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUIRED = ("src/logtrust/__init__.py", "tests/oracle.py", "scenarios/paper_example.json")

# End-to-end metrics and their units, reported with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "commands_per_s": "1/s",
    "events_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# Speed reference.  A shared machine's speed drifts: on the one the
# baseline comes from, by up to 2x within seconds.  So the run times a
# small fixed chunk of pure-Python work, which like the program builds,
# sorts and serializes records, before each operation (or after each
# REFERENCE_EVERY_S of operation time, for short ones).  Each latency is
# divided by its slowdown: the mean time of the chunks within
# REFERENCE_WINDOW_S of the operation's start over REFERENCE_CHUNK_S,
# the chunk's time on that machine when it runs fast.  The reported times
# are therefore at that speed, and runs made at different moments
# compare.  The raw numbers are printed as well.  The chunks run in the
# measured process, because a helper process's timings follow the
# program's far less closely there, and they add well under 1 MB to
# peak_rss_mb.
REFERENCE_CHUNK_S = 0.0048
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW_S = 1.0
SETUP_RUNS = 15
SETUP_CHUNKS = 10
IMPORTTIME_RUNS = 5
# Import the CLI and build its parser: what every ``logtrust`` call pays
# before it does any work.  Then time the speed reference in the same
# fresh interpreter, which tracks its speed far better than the parent can.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import logtrust.cli as cli
getattr(cli, "build_parser", lambda: None)()
took = time.perf_counter() - start
sys.path.insert(0, {here!r})
from run import reference_chunk
print(took, sum(reference_chunk() for _ in range({chunks})) / {chunks})
"""


def child_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def reference_chunk() -> float:
    """Seconds one chunk of the speed reference takes now; see REFERENCE_CHUNK_S."""
    start = time.perf_counter()
    rows = [{"clock": i, "by": f"P{i % 8}", "to": f"P{i % 5}", "verb": ("read", "comment")[i % 2]}
            for i in range(2000)]
    rows.sort(key=lambda r: (r["by"], r["clock"]))
    json.dumps(rows)
    return time.perf_counter() - start


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import the CLI and build its
    parser, each at reference speed: divided by the slowdown the speed
    reference shows in that interpreter right after the import."""
    code = SETUP_CODE.format(here=str(HERE), chunks=SETUP_CHUNKS)
    samples = []
    for _ in range(SETUP_RUNS + 1):
        done = run_child(["-c", code], timeout=60)
        done.check_returncode()
        took, chunk = map(float, done.stdout.split()[-2:])
        samples.append(took * REFERENCE_CHUNK_S / chunk)
    return statistics.median(samples[1:])  # the first run also writes bytecode caches


def import_times() -> tuple[dict[str, float], list[str]]:
    """Median cumulative import seconds per module, and the modules never imported."""
    import tracing

    samples: dict[str, list[float]] = {m: [] for m in tracing.IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        done = run_child(["-X", "importtime", "-c", "import logtrust.cli"], timeout=60)
        done.check_returncode()
        seen = tracing.parse_importtime(done.stderr)
        for module in samples:
            if module in seen:
                samples[module].append(seen[module])
    absent = [m for m, values in samples.items() if not values]
    metrics = {
        tracing.import_metric(m): statistics.median(values) if values else 0.0
        for m, values in samples.items()
    }
    return metrics, absent


@dataclass
class Tally:
    """What the timed passes did."""

    passes: int = 0
    attempted: int = 0
    failed: int = 0
    commands: int = 0
    events: int = 0
    output_bytes: int = 0
    raw: list[tuple[float, list[float]]] = field(default_factory=list)  # (start, latencies) per item run
    raw_seconds: float = 0.0
    chunks: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds) of reference chunks
    since_reference: float = float("inf")
    problems: list[str] = field(default_factory=list)
    # Set by finish(): latencies and their sum at reference speed.
    latencies: list[float] = field(default_factory=list)
    op_seconds: float = 0.0
    slowdowns: list[float] = field(default_factory=list)

    def finish(self) -> "Tally":
        """Divide every latency by the slowdown around it; see REFERENCE_CHUNK_S."""
        self.chunks.append((time.perf_counter(), reference_chunk()))
        starts = [start for start, _ in self.chunks]
        for start, latencies in self.raw:
            lo = bisect.bisect_left(starts, start - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(starts, start + REFERENCE_WINDOW_S)
            near = self.chunks[lo:hi] or [min(self.chunks, key=lambda c: abs(c[0] - start))]
            slowdown = sum(seconds for _, seconds in near) / (len(near) * REFERENCE_CHUNK_S)
            self.slowdowns.append(slowdown)
            self.latencies += [x / slowdown for x in latencies]
            self.op_seconds += sum(latencies) / slowdown
        return self


def record(tally: Tally, workload, item) -> None:
    """Run one item for timing and add what it did to the tally."""
    if tally.since_reference >= REFERENCE_EVERY_S:
        tally.chunks.append((time.perf_counter(), reference_chunk()))
        tally.since_reference = 0.0
    start = time.perf_counter()
    try:
        latencies, out_digest, nbytes = workload.run(item)
    except (Exception, SystemExit) as exc:  # a failed operation, counted here
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(f"{item.key}: {exc!r}")
        return
    tally.attempted += len(latencies)
    if out_digest != item.digest:
        tally.failed += len(latencies)
        tally.problems.append(f"{item.key}: output differs from the verified pass")
        return
    tally.raw.append((start, latencies))
    tally.raw_seconds += sum(latencies)
    tally.since_reference += sum(latencies)
    tally.commands += item.commands
    tally.events += item.events
    tally.output_bytes += nbytes


def measure(workload, items, passes: int) -> Tally:
    tally = Tally(passes=passes)
    gc.collect()
    for _ in range(passes):
        for item in items:
            record(tally, workload, item)
    return tally.finish()


def measure_traced(workload, items, passes: int, tracer) -> tuple[Tally, Tally]:
    """Run every item untraced and traced, back to back, in alternating order.

    The pairs see the same inputs at nearly the same moment, so their
    difference is the tracing overhead.  Wrappers are installed only
    around the traced runs.
    """
    plain, traced = Tally(passes=passes), Tally(passes=passes)
    gc.collect()
    for n in range(passes):
        for i, item in enumerate(items):
            for with_trace in (False, True) if (n + i) % 2 == 0 else (True, False):
                if not with_trace:
                    record(plain, workload, item)
                    continue
                tracer.install()
                try:
                    record(traced, workload, item)
                finally:
                    tracer.uninstall()
    return plain.finish(), traced.finish()


def count_pass(workload, items, counter) -> Tally:
    """One pass with the count-only wrappers installed; its times are not used."""
    counter.install()
    try:
        return measure(workload, items, 1)
    finally:
        counter.uninstall()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def gate(workload, seed: int, workdir: Path) -> dict:
    """Make the pool and verify every item once against the oracle.

    Runs in a child process, so neither the input generation nor the
    oracle counts toward the timed process's memory.  The items, with
    the digests and audited event counts of this verified pass, are
    written to the pool's manifest.
    """
    import workloads

    items = workload.items(seed, workdir)
    problems = workloads.check_golden(ROOT)
    attempted, failed = 1, int(bool(problems))
    for item in items:
        attempted += 1
        try:
            found = workload.verify(item)[1]
        except (Exception, SystemExit) as exc:  # a failed operation, counted below
            found = [f"{item.key}: {exc!r}"]
        if found:
            failed += 1
            problems += found
    workloads.save_items(items, workdir)
    return {"attempted": attempted, "failed": failed, "problems": problems[:20]}


def run_gate(args, workdir: Path) -> dict:
    argv = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--gate", str(workdir)]
    done = run_child(argv, timeout=170)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"attempted": 1, "failed": 1,
                "problems": [f"gate exited {done.returncode}: {done.stderr[-2000:]}"]}


def describe(args) -> str:
    import logtrust

    backend = getattr(logtrust, "backend_name", None)
    return (
        f"perfbench: workload={args.workload} seed={args.seed}"
        f" python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}"
        f" backend={backend() if backend else 'absent'}"
    )


def result(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_workload(args) -> int:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.gate:
        print(json.dumps(gate(workload, args.seed, Path(args.gate))))
        return 0
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print(describe(args))
        checked = run_gate(args, workdir)
        for problem in checked["problems"]:
            print(f"perfbench: FAILED {problem}")
        if checked["failed"]:
            print(result(False, checked["attempted"], checked["failed"], {}))
            return 1
        items = workloads.load_items(workdir)

        def passes(seconds: float) -> int:
            # A fixed run length: the number of passes depends on --seconds
            # alone, so the tail percentile does not move with the program's speed.
            return max(1, round(seconds / workload.pass_s))

        if args.trace:
            tracer = tracing.Tracer(tracing.SPAN_TARGETS)
            counter = tracing.Tracer(tracing.COUNT_TARGETS)
            tallies = (
                count_pass(workload, items, counter),
                *measure_traced(workload, items, passes(args.seconds / 2), tracer),
            )
        else:
            setup_s = measure_setup()
            tallies = (measure(workload, items, passes(args.seconds)),)
        attempted = checked["attempted"] + sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        for problem in [p for t in tallies for p in t.problems][:20]:
            print(f"perfbench: FAILED {problem}")
        print(f"perfbench: failed_ratio={failed / attempted:g} ({failed} of {attempted} operations)")
        if failed:
            print(result(False, attempted, failed, {}))
            return 1

        if args.trace:
            _, plain, traced = tallies
            absent = tracer.absent + counter.absent
            tracer.write(OUT / f"spans-{args.workload}.jsonl",
                         {"workload": args.workload, "seed": args.seed, "counts": counter.counts})
            units = tracing.per_layer_metrics()
            values = counter.metrics(1)
            values.update(tracer.metrics(traced.passes))
            values["cli.output_bytes"] = traced.output_bytes / len(traced.latencies)
            values["trace.overhead_ratio"] = traced.op_seconds / plain.op_seconds - 1
            imports, missing = import_times()
            values.update(imports)
            print(f"perfbench: {traced.passes} passes, each item untraced and traced, and one"
                  f" counting pass; {len(tracer.names)} spans; absent: {', '.join(absent + missing) or 'none'}")
        else:
            (timed,) = tallies
            percentile, slow = tail(timed.latencies)
            values = {
                "setup_s": setup_s,
                "commands_per_s": timed.commands / timed.op_seconds,
                "events_per_s": timed.events / timed.op_seconds,
                "latency_ms_p50": statistics.median(timed.latencies) * 1e3,
                "latency_ms_tail": slow * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            print(f"perfbench: {timed.passes} passes of {timed.op_seconds / timed.passes:.3f} s"
                  f" at reference speed, {len(timed.latencies)} operations;"
                  f" latency_ms_tail is p{percentile:.2f} of the {len(timed.latencies)} samples")
            print(f"perfbench: speed reference {len(timed.chunks)} chunks, slowdown median"
                  f" {statistics.median(timed.slowdowns):.3f}, range {min(timed.slowdowns):.3f}-"
                  f"{max(timed.slowdowns):.3f}; raw commands_per_s={timed.commands / timed.raw_seconds:.6g}")
        print(result(True, attempted, 0, {name: (values[name], unit) for name, unit in units.items()}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, each in its own process; prints one summary line each."""
    import workloads

    code = 0
    summary = {}
    for name in workloads.WORKLOADS:
        argv = [str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = run_child(argv, timeout=900)
        sys.stdout.write(done.stdout)
        code = code or done.returncode
        lines = done.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(summary))
    return code


class Terminated(BaseException):
    """Raised in the run by SIGTERM."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the logtrust benchmark.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gate", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: child processes are killed and waited
    # for, and the input files are removed.  Terminated is not an
    # Exception or SystemExit, so no failed-operation handler stops it.
    def terminate(signum, frame):
        raise Terminated(128 + signum)

    signal.signal(signal.SIGTERM, terminate)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a logtrust checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}, all")
    return run_workload(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as stop:
        sys.exit(stop.args[0])
