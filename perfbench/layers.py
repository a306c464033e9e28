"""Spans around the public functions of each mottreg layer.

The tracer wraps module-level functions from outside the package: every
mottreg module attribute that is the original function object is replaced by
a wrapper that records a span (name, start, end, parent) and a few counters
read from the call's arguments and result.  Spans stay in memory until the
run ends.  A function that a later version of the package no longer has is
skipped, and its metrics read 0.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# a span counted under another layer than the module that defines it:
# resolved_config_echo lives in budget, but only the CLI's reports call it
HOMES = {"cli.resolved_config_echo": ("budget", "resolved_config_echo")}


def per_layer_units() -> dict[str, str]:
    """per_layer metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def targets(metric_names) -> dict[str, tuple[str, str]]:
    """Span name -> (module, function) for each `<layer>.<function>.<stat>`
    metric; a name that is no function of the module (cli.import) is skipped
    at install time."""
    found = {}
    for metric in metric_names:
        parts = metric.split(".")
        if len(parts) == 3:
            span = parts[0] + "." + parts[1]
            found[span] = HOMES.get(span, (parts[0], parts[1]))
    return found


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self):
        metrics = per_layer_units()
        self.targets = targets(metrics)
        # functions whose first argument is the integrand or residual: count its calls
        self.eval_counted = {m[:-len(".evals")] for m in metrics if m.endswith(".evals")}
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def add_span(self, name: str, start: float, end: float):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, self.count
        count_evals = name in self.eval_counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_evals and args:
                inner = args[0]

                def counted(*a, **k):
                    count(name + ".evals")
                    return inner(*a, **k)
                args = (counted,) + args[1:]
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            count(name + ".calls")
            if name == "numerics.integrate_ode":
                count(name + ".steps", int(getattr(result, "n_steps", 0)))
                count(name + ".rhs_calls", int(getattr(result, "n_rhs", 0)))
            elif name == "cli.emit" and isinstance(result, str):
                count(name + ".bytes", len(result.encode("utf-8")))
            return result
        return traced

    def install(self):
        """Replace every mottreg module reference to a target function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mottreg" or n.startswith("mottreg."))]
        for name, (module_name, attr) in self.targets.items():
            home = sys.modules.get("mottreg." + module_name)
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._originals):
            setattr(module, key, original)
        self._originals.clear()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def merge(exports) -> dict:
    """Join span lists from several processes into one, re-basing parents."""
    spans, counts = [], {}
    for part in exports:
        base = len(spans)
        spans.extend([n, s, e, p + base if p >= 0 else -1] for n, s, e, p in part["spans"])
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"spans": spans, "counts": counts}


def layer_metrics(trace: dict, operations: int) -> dict:
    """Per-operation inclusive times, module self times and counts."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        totals[layer + ".self_ms"] = (totals.get(layer + ".self_ms", 0.0)
                                      + duration - child_time[i])
        # inclusive time counts the outermost span of a recursive call only
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[name + ".ms"] = totals.get(name + ".ms", 0.0) + duration
    metrics = {}
    for key, unit in per_layer_units().items():
        if key.startswith(("trace.", "host.")):   # set by run.py
            continue
        if unit == "ms":
            value = totals.get(key, 0.0) * 1e3 / operations
        else:
            value = trace["counts"].get(key, 0) / operations
        metrics[key] = {"value": value, "unit": unit}
    return metrics
