"""Span tracing of ipower's layers, installed from outside the library.

Each traced callable is wrapped and the wrapper is rebound in every
``ipower.*`` namespace that holds the original (``ipower.estimation.tensor``,
``ipower.tensor``, ...), or on its class for methods.  ``uninstall`` puts the
originals back, so untraced jobs run the library exactly as shipped.

A span records (name, start, end, parent span, item id) in flat arrays kept in
memory; :meth:`Tracer.summary` derives counts, total and self times from them
and :meth:`Tracer.write_spans` saves them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import sys
import time
from array import array

LAYERS = ("linalg", "states", "probes", "correlations", "estimation", "sampling", "cli")

# Validation helpers that run inside nearly every other linalg/states call;
# their time is folded into the caller's self time, which keeps tracing cheap.
FOLDED = frozenset({"linalg.as_square_complex", "linalg.dagger", "linalg.is_hermitian"})

# The cli layer is traced at its entry point only, so cli.main's self time
# covers argument parsing, dataset rendering and file writes.
CLI_ENTRY = "cli.main"


def traced_callables() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every traced public callable.

    Public module-level functions of each layer, and public methods and
    classmethods of the classes it defines, minus ``FOLDED`` and every cli
    function but ``CLI_ENTRY``.
    """
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"ipower.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found.append((f"{layer}.{attr}", module, attr, value))
            elif inspect.isclass(value):
                for member_name, member in vars(value).items():
                    if member_name.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, classmethod):
                        found.append((f"{layer}.{attr}.{member_name}", value, member_name, member))
    return [
        t for t in found
        if t[0] not in FOLDED and (not t[0].startswith("cli.") or t[0] == CLI_ENTRY)
    ]


class Tracer:
    """Records nested spans of the traced callables while installed."""

    def __init__(self):
        self.targets = traced_callables()
        self.names = [t[0] for t in self.targets]
        self.item = -1
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.items = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Drop the recorded spans."""
        for spans in (self.name_ids, self.starts, self.ends, self.parents, self.items):
            del spans[:]
        self._stack.clear()

    def _wrap(self, name_id: int, fn):
        clock = time.perf_counter
        stack, name_ids, starts, ends = self._stack, self.name_ids, self.starts, self.ends
        parents, items = self.parents, self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items()) if n == "ipower" or n.startswith("ipower.")]
        for name_id, (_, owner, attr, original) in enumerate(self.targets):
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name_id, original.__func__)))
                self._undo.append((owner, attr, original))
            elif inspect.isclass(owner):
                setattr(owner, attr, self._wrap(name_id, original))
                self._undo.append((owner, attr, original))
            else:
                wrapper = self._wrap(name_id, original)
                for module in namespaces:
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, bound_name, wrapper)
                            self._undo.append((module, bound_name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, span durations, and child-call counts."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        child_calls: dict[str, int] = {}
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
                key = f"{self.names[self.name_ids[parent]]}>{self.names[self.name_ids[i]]}"
                child_calls[key] = child_calls.get(key, 0) + 1
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []} for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.name_ids[i]]]
            entry["calls"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - child_time[i]
            entry["durations"].append(durations[i])
        return {"spans": n, "functions": stats, "child_calls": child_calls}

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped CSV: index,name,start_s,end_s,parent,item."""
        origin = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,item\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i},{self.names[self.name_ids[i]]},{self.starts[i] - origin:.9f},"
                    f"{self.ends[i] - origin:.9f},{self.parents[i]},{self.items[i]}\n"
                )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """Flat per-layer metrics of one traced job.

    ``<name>.calls``, ``<name>.self_s`` and ``<name>.total_s`` for every traced
    callable, the latency percentiles of ``run_experiment``, and the ratios
    ``make_probe`` calls per protocol run, ``skew_information`` calls per LQU
    and population-model evaluations per least-squares fit.
    """
    functions, child_calls = summary["functions"], summary["child_calls"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
    out = {}
    for name, entry in functions.items():
        for key in ("calls", "self_s", "total_s"):
            out[f"{name}.{key}"] = entry[key]
    runs = functions.get("estimation.run_experiment", empty)
    out["estimation.run_experiment.p50_ms"] = percentile(runs["durations"], 50) * 1e3
    out["estimation.run_experiment.p90_ms"] = percentile(runs["durations"], 90) * 1e3
    out["probes.make_probe.per_run"] = _ratio(
        functions.get("probes.make_probe", empty)["calls"], runs["calls"]
    )
    out["correlations.skew_information.per_lqu"] = _ratio(
        child_calls.get("correlations.local_quantum_uncertainty>correlations.skew_information", 0),
        functions.get("correlations.local_quantum_uncertainty", empty)["calls"],
    )
    out["estimation.evals_per_fit"] = _ratio(
        child_calls.get("estimation.least_squares_estimate>estimation.theory_populations", 0),
        functions.get("estimation.least_squares_estimate", empty)["calls"],
    )
    return out


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by the inclusive method; 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
