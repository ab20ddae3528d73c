"""Spans around calls into logtrust's public functions, for the traced run.

The tracer wraps each target where its callers look it up: the package
modules use ``from .x import y``, so a function is replaced in every
loaded ``logtrust`` module that binds it, and a method is replaced on
its class.  Wrappers exist only between ``install`` and ``uninstall``.
Spans (name, start, end, parent) are kept in memory and written out when
the run ends.  A target that the program no longer has is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional


def _scenario_size(args, kwargs) -> int:
    data = args[0]
    return len(data["commands"]) if isinstance(data, dict) else len(data)


def _scan_size(args, kwargs) -> int:
    return len(args[0]) + len(args[4])


def _scan_extra(args, kwargs, result) -> dict[str, float]:
    return {"pairs": len(args[0]) * len(args[4])}


def _merge_extra(args, kwargs, result) -> dict[str, float]:
    local, received = args[0], args[1]
    return {"received": len(received), "duplicates": len(local) + len(received) - len(result)}


def _log_size(args, kwargs) -> int:
    return len(args[0]["events"])


def _guarded(fn, *args):
    """A size or count from the call's arguments; None if their shape changed."""
    try:
        return fn(*args)
    except (TypeError, KeyError, IndexError, AttributeError):
        return None


@dataclass(frozen=True)
class Target:
    """One callable to trace, named ``<module>.<qualified name>``."""

    name: str
    size: Optional[Callable[[tuple, dict], int]] = None  # input size, for .slope
    extra: Optional[Callable[[tuple, dict, Any], dict[str, float]]] = None
    count_only: bool = False  # count calls without a span

    @property
    def module(self) -> str:
        return "logtrust." + self.name.split(".", 1)[0]

    @property
    def path(self) -> list[str]:
        return self.name.split(".")[1:]


SIMULATION_OPS = ("create_doc", "edit", "batch", "share", "deliver", "audit")

TARGETS = (
    Target("cli.main"),
    Target("simulator.run_scenario", size=_scenario_size),
    Target("simulator.ScenarioTrace.to_dict"),
    *(Target(f"simulator.Simulation.{op}") for op in SIMULATION_OPS),
    Target("events.merge_logs", extra=_merge_extra),
    Target("events._insert_events"),
    Target("events.remap_obligations_on_receipt"),
    Target("events.log_from_dict", size=_log_size),
    Target("events.event_to_dict", count_only=True),
    Target("kernel.scan_governing", size=_scan_size, extra=_scan_extra),
    Target("audit.detect_violations"),
    Target("audit.local_trust_assessment"),
    Target("trust.apply_violations"),
    Target("obligations.validate_set"),
)
# Spans are timed in the traced passes.  Count-only targets are called so
# often that even counting them costs time, so they are counted in a
# separate pass whose times are not used.
SPAN_TARGETS = tuple(t for t in TARGETS if not t.count_only)
COUNT_TARGETS = tuple(t for t in TARGETS if t.count_only)

# Cumulative import time of these modules, from ``python -X importtime``.
IMPORT_MODULES = (
    "logtrust",
    "logtrust.cli",
    "logtrust.simulator",
    "logtrust.events",
    "logtrust.audit",
    "logtrust.kernel",
    "logtrust.obligations",
    "logtrust.trust",
    "numpy",
)


def import_metric(module: str) -> str:
    return f"setup.import.{module.rsplit('.', 1)[-1]}_s"


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names: dict[str, str] = {}
    for target in TARGETS:
        names[f"{target.name}.calls"] = "count"
        if target.count_only:
            continue
        names[f"{target.name}.busy_s"] = "s"
        names[f"{target.name}.self_s"] = "s"
        if target.size is not None:
            names[f"{target.name}.slope"] = "log-log"
    names["events.merge_logs.dup_ratio"] = "ratio"
    names["kernel.scan_governing.pairs"] = "count"
    names["cli.output_bytes"] = "B"
    names["trace.overhead_ratio"] = "ratio"
    for module in IMPORT_MODULES:
        names[import_metric(module)] = "s"
    return names


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((starts[c], ends[c]) for c in children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0 without two sizes."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: dict[int, int] = {}
        self.counts: Counter = Counter()
        self.extra: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        counts = self.counts
        if target.count_only:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, sizes, extra = self._stack, self.sizes, self.extra

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if target.size is not None:
                sizes[index] = _guarded(target.size, args, kwargs)
            stack.append(index)
            starts[index] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()
            if target.extra is not None:
                for key, value in (_guarded(target.extra, args, kwargs, result) or {}).items():
                    extra[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                owner = None
            *outer, attr = target.path
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if outer:  # a method: replace it on its class
                self._replace(owner, attr, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] != "logtrust":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer numbers per pass over the workload's pool."""
        own = self_times(self.starts, self.ends, self.parents)
        calls: Counter = Counter(self.counts)
        busy: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        points: defaultdict = defaultdict(list)
        for index, name in enumerate(self.names):
            calls[name] += 1
            busy[name] += self.ends[index] - self.starts[index]
            self_s[name] += own[index]
            if self.sizes.get(index) is not None:
                points[name].append((self.sizes[index], self.ends[index] - self.starts[index]))
        out: dict[str, float] = {}
        for target in self.targets:
            name = target.name
            out[f"{name}.calls"] = calls[name] / passes
            if target.count_only:
                continue
            out[f"{name}.busy_s"] = busy[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
            if target.size is not None:
                out[f"{name}.slope"] = loglog_slope(points[name])
            if name == "events.merge_logs":
                received = self.extra[f"{name}.received"]
                out[f"{name}.dup_ratio"] = self.extra[f"{name}.duplicates"] / received if received else 0.0
            elif name == "kernel.scan_governing":
                out[f"{name}.pairs"] = self.extra[f"{name}.pairs"] / passes
        return out

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the spans as JSON lines: a header, then [id, parent, name, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(meta, absent=self.absent)) + "\n")
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps([index, self.parents[index], name, self.starts[index], self.ends[index]])
                    + "\n"
                )


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        out[fields[2].strip()] = int(fields[1]) / 1e6
    return out
