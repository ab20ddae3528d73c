"""Self-tests of the benchmark: inputs, oracle gate and span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import random
import time

import pytest

from logtrust import log_from_dict, parse_scenario

import inputs
import run
import tracing
import workloads


def _pool(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(parents=True)
    items = workloads.WORKLOADS[name].items(seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return items, files


@pytest.mark.parametrize("name", ["run_table", "session_lib", "audit_logs"])
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first, first_files = _pool(name, 3, tmp_path)
    second, second_files = _pool(name, 3, tmp_path / "again")
    _, other_files = _pool(name, 4, tmp_path / "other")
    assert first_files == second_files
    assert [i.calls for i in first] == [i.calls for i in second]
    assert first_files != other_files


def test_generated_scenarios_parse():
    rng = random.Random(7)
    for length in (150, 300):
        data = inputs.scenario(rng, length)
        name, commands = parse_scenario(data)
        assert len(commands) == length
        assert len(data["peers"]) == inputs.PEERS


@pytest.mark.parametrize("clean", [False, True])
def test_generated_log_pairs_parse(clean):
    rng = random.Random(11)
    for size in (50, 1000):
        for payload in inputs.log_pair(rng, size, clean=clean):
            for shifted in (payload, inputs.shift_clocks(payload)):
                doc_id, log = log_from_dict(shifted)
                assert doc_id == "d" and len(log) == len(payload["events"])


def test_log_pairs_include_forbid_then_permit():
    edit, comm = inputs.log_pair(random.Random(5), 1000)
    history = {}
    for e in comm["events"]:
        if e["kind"] == "obligation":
            history.setdefault((e["to"], e["verb"]), []).append(e["allow"])
    assert any(
        not a and b for grants in history.values() for a, b in zip(grants, grants[1:])
    )
    prose = workloads.expected_report(edit["events"], comm["events"], "", "prose")[0]
    literal = workloads.expected_report(edit["events"], comm["events"], "", "literal")[0]
    assert prose != literal


@pytest.mark.parametrize("mode", ["prose", "literal"])
def test_grouped_oracle_matches_the_whole_oracle(mode):
    import oracle

    edit, comm = inputs.log_pair(random.Random(9), 600)
    edit, comm = edit["events"], comm["events"]
    whole = oracle.oracle_violations(edit, comm, workloads.creator_of(edit), mode)
    assert whole and workloads.oracle_violations(edit, comm, mode) == whole


def _audit_item(tmp_path):
    items = workloads.AuditWorkload().items(1, tmp_path)
    return next(i for i in items if i.shifted and i.mode == "prose")


def test_gate_passes_a_correct_audit(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "AUDIT_SIZES", [300] * 4)
    item = _audit_item(tmp_path)
    elapsed, problems = workloads.AuditWorkload().verify(item)
    assert problems == [] and elapsed > 0 and item.digest


def test_gate_flags_a_corrupted_report(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "AUDIT_SIZES", [300] * 4)
    item = _audit_item(tmp_path)
    real_call = workloads.call_cli

    def corrupted(argv):
        elapsed, code, text = real_call(argv)
        report = json.loads(text)
        report["violations"] = report["violations"][1:]
        return elapsed, code, json.dumps(report)

    monkeypatch.setattr(workloads, "call_cli", corrupted)
    _, problems = workloads.AuditWorkload().verify(item)
    assert any("oracle finds" in p for p in problems)


def test_gate_flags_a_corrupted_table_trust(tmp_path, monkeypatch):
    workload = workloads.RunWorkload("run_small", [40], "table", "")
    (item,) = workload.items(1, tmp_path)
    assert workload.verify(item)[1] == []
    real_call = workloads.call_cli

    def corrupted(argv):
        elapsed, code, text = real_call(argv)
        return elapsed, code, text.replace("=1  ", "=0.5  ", 1)

    monkeypatch.setattr(workloads, "call_cli", corrupted)
    assert any("trust" in p for p in workload.verify(item)[1])


def test_table_report_parsing():
    text = (
        "[ 3] audit P2 d\n"
        "     assessor=P2 doc=d mode=prose violations=1\n"
        "       P3 performed comment at clock 4 against a forbid from P1"
        " (forbid clock 2, granted at share clock 2)\n"
        "       trust: P1=1  P2=1  P3=0.5\n"
    )
    (report,) = workloads.parse_table_reports(text)
    assert report["violations"] == [("P3", "comment", 4, 2, "P1", 2)]
    assert report["trust"] == {"P1": "1", "P2": "1", "P3": "0.5"}


def test_golden_trace_check_passes():
    assert workloads.check_golden(run.ROOT) == []


def test_self_time_on_a_hand_built_span_tree():
    # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] overlap inside it; 3: [7, 9];
    # 4: [2, 3] nested in 1.
    starts = [0.0, 1.0, 3.0, 7.0, 2.0]
    ends = [10.0, 4.0, 6.0, 9.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 3.0, 2.0, 1.0]


def test_slope_of_a_quadratic():
    points = [(n, 1e-6 * n * n) for n in (100, 200, 400, 800)]
    assert tracing.loglog_slope(points) == pytest.approx(2.0)
    assert tracing.loglog_slope([(100, 1.0), (100, 2.0)]) == 0.0


def test_tracer_wraps_only_while_installed():
    import logtrust.simulator

    original = logtrust.simulator.merge_logs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert logtrust.simulator.merge_logs is not original
        workloads.run_session(
            workloads.session_calls(inputs.scenario(random.Random(2), 60))
        )
    finally:
        tracer.uninstall()
    assert logtrust.simulator.merge_logs is original
    assert tracer.absent == []
    metrics = tracer.metrics(1)
    assert metrics["simulator.Simulation.deliver.calls"] > 0
    assert metrics["events.merge_logs.calls"] > 0
    assert set(metrics) <= set(tracing.per_layer_metrics())


def test_tracer_reports_missing_names_as_absent():
    tracer = tracing.Tracer((tracing.Target("kernel.no_such_scan"), tracing.Target("nomodule.f")))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["kernel.no_such_scan", "nomodule.f"]
    assert tracer.metrics(1)["kernel.no_such_scan.calls"] == 0


def test_latencies_are_divided_by_the_slowdown_around_them():
    base = time.perf_counter() - 100
    r = run.REFERENCE_CHUNK_S
    tally = run.Tally(
        chunks=[(base, 2 * r), (base + 0.5, 4 * r), (base + 10, r)],
        raw=[(base + 0.2, [0.3, 0.3]), (base + 10.5, [1.0])],
    )
    tally.finish()
    assert tally.latencies == pytest.approx([0.1, 0.1, 1.0])
    assert tally.op_seconds == pytest.approx(1.2)


def test_tail_percentile_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(100)]
    percentile, value = run.tail(latencies)
    assert percentile == 90.0
    assert sum(x > value for x in latencies) == 10


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_setup_and_import_time_children_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_RUNS", 1)
    assert 0 < run.measure_setup() < 10
    metrics, absent = run.import_times()
    assert absent == []
    assert metrics["setup.import.logtrust_s"] >= metrics["setup.import.events_s"] > 0
