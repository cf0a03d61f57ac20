"""Spans around the calls into each layer of halpha_sim, recorded from outside.

While a ``Tracer`` is installed, every binding of a layer's function in the
``halpha_sim`` modules is replaced by a wrapper that records a span: layer,
start and end (perf_counter nanoseconds), parent span, experiment id and one
count taken from the call's arguments or result. Spans stay in memory until
``write`` is called. A layer whose function cannot be found, or whose count
cannot be taken, is reported as absent instead of failing the run.
"""

from __future__ import annotations

import csv
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _aggregate_bytes(args, kwargs, result) -> int:
    runs = args[0]
    return len(runs) * len(runs[0].periods) * runs[0].periods[0].h_alpha.nbytes


# (layer, module, candidate attribute names, count taken as count(args, kwargs, result)).
# The count's name is given by COUNT_NAMES; run_experiment records CPU seconds instead.
LAYERS = [
    ("cli.parse_config", "cli", ("parse_config",), None),
    ("cli.run_and_report", "cli", ("run_and_report",), None),
    ("engine.run_experiment", "engine", ("run_experiment",), None),
    ("engine.init_state", "engine", ("init_state",), None),
    ("engine.step_period", "engine", ("step_period",), None),
    ("engine.select_collaborators", "engine", ("select_collaborators",), None),
    ("engine.form_teams", "engine", ("form_teams",), None),
    ("engine.publish", "engine", ("publish",), lambda a, k, r: a[0].shape[0]),
    ("engine.cite_papers", "engine", ("cite_papers",), None),
    ("distributions.draw_counts", "distributions", ("draw_counts",), lambda a, k, r: np.size(r)),
    (
        "engine.recompute_indices",
        "engine",
        ("recompute_indices", "_recompute_indices"),
        lambda a, k, r: a[0].n_agents * a[0].agent_papers.shape[1],
    ),
    (
        "engine.reassign_alpha_authors",
        "engine",
        ("reassign_alpha_authors", "_reassign_alpha_authors"),
        lambda a, k, r: a[0].n_papers,
    ),
    ("analysis.split_groups", "analysis", ("split_groups",), lambda a, k, r: a[0].nbytes),
    ("analysis.aggregate", "analysis", ("aggregate",), _aggregate_bytes),
    ("analysis.export_csv", "analysis", ("export_csv",), lambda a, k, r: len(r)),
]
COUNT_NAMES = {
    "engine.publish": "papers",
    "distributions.draw_counts": "draws",
    "engine.recompute_indices": "cells",
    "engine.reassign_alpha_authors": "papers",
    "analysis.split_groups": "bytes",
    "analysis.aggregate": "bytes",
    "analysis.export_csv": "bytes",
}
CALLS = ("engine.init_state", "engine.step_period", "engine.recompute_indices")
_CPU_LAYER = "engine.run_experiment"


def rebind(old, new) -> list:
    """Point every ``halpha_sim`` module attribute bound to ``old`` at ``new``.

    Returns (module, attribute, old) triples for ``restore``.
    """
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "halpha_sim" or name.startswith("halpha_sim.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                changed.append((module, attr, old))
    return changed


def restore(changed: list) -> None:
    for module, attr, old in reversed(changed):
        setattr(module, attr, old)


class Tracer:
    """In-memory span recorder for the layers in ``LAYERS``."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[tuple] = []  # (layer, start_ns, end_ns, parent, experiment, count)
        self.experiment = -1
        self.absent: set[str] = set()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: int, fn, count):
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter_ns
        name = LAYERS[layer][0]
        cpu = name == _CPU_LAYER

        def traced(*args, **kwargs):
            stack = stack_of()
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            cpu0 = _cpu_seconds() if cpu else 0.0
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = 0
                if cpu:
                    value = _cpu_seconds() - cpu0
                elif count is not None:
                    try:
                        value = count(args, kwargs, result)
                    except Exception:  # the layer changed shape; report, keep running
                        self.absent.add(f"{name}.{COUNT_NAMES[name]}")
                spans[me] = (layer, start, end, parent, self.experiment, value)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        changed = []
        try:
            for layer, (name, module, attrs, count) in enumerate(LAYERS):
                mod = getattr(self.package, module, None)
                fn = next((getattr(mod, a) for a in attrs if callable(getattr(mod, a, None))), None)
                if fn is None:
                    self.absent.add(name)
                    continue
                changed += rebind(fn, self._wrap(layer, fn, count))
            yield self
        finally:
            restore(changed)

    def summary(self, experiments: int) -> dict[str, float]:
        """Per-experiment self seconds, calls and counts of every layer."""
        spans = self.spans  # parents index this list, so every span must be closed
        n_layers = len(LAYERS)
        if spans:
            layer, start, end, parent, _, value = (np.array(c) for c in zip(*spans))
        else:
            layer = parent = np.zeros(0, dtype=np.int64)
            start = end = value = np.zeros(0)
        duration = (end - start).astype(float) / 1e9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], duration[has_parent], minlength=len(spans))
        self_s = np.bincount(layer, duration - covered, minlength=n_layers)
        wall = np.bincount(layer, duration, minlength=n_layers)
        calls = np.bincount(layer, minlength=n_layers)
        counts = np.bincount(layer, value.astype(float), minlength=n_layers)
        index = {name: i for i, (name, *_) in enumerate(LAYERS)}

        per = max(experiments, 1)
        out = {}
        for name, i in index.items():
            if name != "engine.reassign_alpha_authors":
                out[f"{name}.self_s"] = self_s[i] / per
            if name in COUNT_NAMES:
                out[f"{name}.{COUNT_NAMES[name]}"] = counts[i] / per
        for name in CALLS:
            out[f"{name}.calls"] = calls[index[name]] / per
        run = index[_CPU_LAYER]
        out["engine.run_experiment.cpu_per_wall"] = counts[run] / wall[run] if wall[run] else 0.0
        # A layer that never runs on a workload has no self time to compare
        # between runs, so this one is given as a share of engine wall time.
        out["engine.reassign_alpha_authors.self_share"] = (
            100.0 * self_s[index["engine.reassign_alpha_authors"]] / wall[run] if wall[run] else 0.0
        )
        draws = index["distributions.draw_counts"]
        out["distributions.draw_counts.ns_per_draw"] = (
            1e9 * self_s[draws] / counts[draws] if counts[draws] else 0.0
        )
        cite = index["engine.cite_papers"]
        from_cite = has_parent & (layer == draws)
        from_cite[from_cite] = layer[parent[from_cite]] == cite
        out["engine.cite_papers.live_papers"] = value[from_cite].sum() / per
        return {k: float(v) for k, v in out.items()}

    def write(self, path) -> None:
        """Write the recorded spans as CSV, one row per span."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "start_ns", "end_ns", "parent", "experiment", "count"])
            for span in self.spans:
                if span is not None:
                    writer.writerow((LAYERS[span[0]][0],) + span[1:])
