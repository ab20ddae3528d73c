"""The CLI exit-code contract on mutated inputs.

Exported logs and generated scenarios are mutated at random: fields and
events are dropped or duplicated, values are swapped for wrong types,
huge clocks or NaN.  Whatever the input, ``audit``, ``validate`` and
``run`` must exit 0, 1 or 2, and only ``audit`` may exit 1, when it
reports at least one violation.  A traceback fails the test.
"""

import copy
import json
import random

from logtrust import event_to_dict, generate_scenario, run_scenario
from logtrust.cli import main

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
