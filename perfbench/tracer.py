"""Outside-in span tracer for the qswarm package.

``Tracer.install`` replaces each traced public function with a timing
wrapper wherever callers look it up: in the defining module, in every
``qswarm`` module that imported it by name, and on the class for methods.
No file of the package is changed and ``uninstall`` restores the originals.

Each call records a span (name, start, end, parent) in flat in-memory
columns. Self time is a span's duration minus the durations of its direct
children. Counting work the benchmark adds (pairs within epsilon, tie rows,
bytes written) runs in its own ``trace.count`` span so no layer is charged
for it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

COUNT_SPAN = "trace.count"

# (module, attribute or Class.method, span name); span name None = count only.
TARGETS = (
    ("qswarm.harness", "run_to_dir", "harness.run_to_dir"),
    ("qswarm.harness", "run_experiment", "harness.run_experiment"),
    ("qswarm.harness", "write_trace_csv", "harness.write_trace_csv"),
    ("qswarm.harness", "write_summary_json", "harness.write_summary_json"),
    ("qswarm.harness", "write_snapshot_csv", "harness.write_snapshot_csv"),
    ("qswarm.harness", "write_decisions_csv", "harness.write_decisions_csv"),
    ("qswarm.config", "dump_config", "config.dump_config"),
    ("qswarm.config", "config_to_dict", "config.config_to_dict"),
    ("qswarm.core", "pairwise_distances", "core.pairwise_distances"),
    ("qswarm.core", "positions_array", "core.positions_array"),
    ("qswarm.mql", "MqlEngine.tick", "mql.tick"),
    ("qswarm.mql", "apply_action", "mql.apply_action"),
    ("qswarm.qlearning", "QTable.epsilon_greedy_action", "qlearning.select"),
    ("qswarm.qlearning", "QTable.greedy_action", None),
    ("qswarm.qlearning", "QTable.update", "qlearning.update"),
    ("qswarm.pso", "PsoEngine.tick", "pso.tick"),
    ("qswarm.pso", "pso_step", "pso.pso_step"),
    ("qswarm.pso", "velocity_update", "pso.velocity_update"),
    ("qswarm.metrics", "drift_onset", "metrics.drift_onset"),
    ("qswarm.metrics", "cumulative_reward", "metrics.cumulative_reward"),
    ("qswarm.metrics", "connectivity_components", "metrics.connectivity_components"),
    ("qswarm.metrics", "connected_fraction", "metrics.connected_fraction"),
    ("qswarm.metrics", "dispersion", "metrics.dispersion"),
    ("qswarm.metrics", "classify_decisions", "metrics.classify_decisions"),
)

TICK_SPANS = ("mql.tick", "pso.tick")
COUNTS = ("core.pairwise_distances.bytes_computed", "core.pairs_computed",
          "core.pairs_within_epsilon", "harness.write_trace_csv.bytes",
          "qlearning.select.tie_draws")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        # sensing radius of the run in progress, for the pairs-within count
        self.epsilon = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._counters = {
            "core.pairwise_distances": self._count_pairs,
            "harness.write_trace_csv": self._count_trace_bytes,
            "QTable.greedy_action": self._count_ties,
        }

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay in place."""
        for col in (self.name_col, self.parent_col, self.start_col, self.end_col):
            del col[:]
        self.stack.clear()
        self.counts = dict.fromkeys(COUNTS, 0)

    # --- counters, run inside a trace.count span --------------------------------

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def _count_pairs(self, args, result) -> None:
        m = result.shape[0]
        self._add("core.pairwise_distances.bytes_computed", 24 * m * m)
        self._add("core.pairs_computed", m * (m - 1))
        self._add("core.pairs_within_epsilon", int((result < self.epsilon).sum()) - m)

    def _count_trace_bytes(self, args, result) -> None:
        self._add("harness.write_trace_csv.bytes", os.path.getsize(args[1]))

    def _count_ties(self, args, result) -> None:
        row = args[0].values[int(args[1])]
        if int((row == row.max()).sum()) > 1:
            self._add("qlearning.select.tie_draws", 1)

    # --- wrapping -----------------------------------------------------------------

    def _wrap(self, span_name, fn, counter):
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self.stack
        clock = time.perf_counter
        count_id = self._id(COUNT_SPAN)

        def count(args, result):
            t0 = clock()
            counter(args, result)
            names.append(count_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(t0)
            ends.append(clock())

        if span_name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, result)
                return result
            return counted

        span_id = self._id(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                count(args, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target that exists; a target a later engine removed is skipped."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "qswarm" or name.startswith("qswarm.")]
        for module_name, attr, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            key = span_name if span_name is not None else attr
            wrapper = self._wrap(span_name, original, self._counters.get(key))
            if outer:
                self._patch(owner, leaf, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # --- analysis -----------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Span columns with each span's self time."""
        n = len(self.end_col)
        name = np.frombuffer(self.name_col, dtype=np.intc).copy()
        parent = np.frombuffer(self.parent_col, dtype=np.intc).copy()
        start = np.frombuffer(self.start_col, dtype=np.float64).copy()
        end = np.frombuffer(self.end_col, dtype=np.float64).copy()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        return {"name": name, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child}

    def summarise(self) -> dict[str, float]:
        """Per-span-name calls and self_s, tick-latency percentiles in ms, the
        counts, and the sum of all self times and of root span durations."""
        sp = self.spans()
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        self_s = np.bincount(sp["name"], weights=sp["self"], minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        for name in TICK_SPANS:
            durs = sp["dur"][sp["name"] == self._ids.get(name, -1)]
            p50, p90 = np.percentile(durs, [50, 90]) * 1e3 if durs.size else (0.0, 0.0)
            out[f"{name}.ms_p50"] = float(p50)
            out[f"{name}.ms_p90"] = float(p90)
        out.update(self.counts)
        out["trace.self_sum_s"] = float(sp["self"].sum())
        out["trace.root_s"] = float(sp["dur"][sp["parent"] < 0].sum())
        return out

    def write_spans(self, path) -> None:
        sp = self.spans()
        t0 = sp["start"].min() if sp["start"].size else 0.0
        rows = ["name,start_s,end_s,parent,self_s"]
        for n, p, s, e, own in zip(sp["name"].tolist(), sp["parent"].tolist(),
                                   (sp["start"] - t0).tolist(), (sp["end"] - t0).tolist(),
                                   sp["self"].tolist()):
            rows.append(f"{self.names[n]},{s:.9f},{e:.9f},{p},{own:.9f}")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            f.write("\n".join(rows) + "\n")
        os.replace(tmp, path)
