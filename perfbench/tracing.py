"""In-memory call tracing around simcol's public functions.

The tracer replaces selected module-level functions with wrappers, in
every simcol namespace that binds them, so calls made inside the package
(``run_chain`` calling through ``dynamics``' globals, ``flip_exact_drift``
reaching ``threshold_ratio`` through ``coupling``' import) are seen too.
Nothing under ``src/simcol/`` is edited; ``restore`` puts the originals
back.

Three kinds of target:

* ``SPAN``: every call is kept as a span ``(name, start, end, parent)``.
* ``AGG``: calls are timed and summed but not kept one by one; used for
  the tens of thousands of ``color_rate`` and ``match_color_moves`` calls.
* ``COUNT``: calls are only counted (``flip_step`` during burn-in,
  ``compute_cluster``), so hot loops pay one increment per call.

Self time of a call is its duration minus the time of the traced calls
it made; a module's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

SPAN = "span"
AGG = "agg"
COUNT = "count"


# (module, function, kind, labelled): a labelled call's name gets the
# workload's current label (the chain kind, the oracle mode) as a suffix.
TARGETS = (
    ("graphs", "random_graph_pair", SPAN, False),
    ("graphs", "build_union_line_graph", SPAN, False),
    ("dynamics", "run_chain", SPAN, True),
    ("dynamics", "greedy_coloring", SPAN, False),
    ("dynamics", "compute_cluster", COUNT, False),
    ("matching", "match_color_moves", AGG, False),
    ("certify", "color_rate", AGG, False),
    ("certify", "rate_maxima", SPAN, False),
    ("certify", "threshold_ratio", SPAN, False),
    ("certify", "certify_report", SPAN, False),
    ("coupling", "sample_adjacent_pairs", SPAN, False),
    ("coupling", "flip_exact_drift", SPAN, False),
    ("coupling", "flip_move_law", SPAN, False),
    ("coupling", "_assemble_flip_table", SPAN, False),
    ("oracle", "build_transition_matrix", SPAN, True),
    ("oracle", "stationary_check", SPAN, True),
    ("oracle", "tv_mixing_time", SPAN, True),
    ("cli", "main", SPAN, False),
)


class Tracer:
    """Spans, per-name call statistics and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.module_self: Counter = Counter()
        self.counts: Counter = Counter()
        self.label: str | None = None  # set by the workload around labelled calls
        self._stack: list[list] = []  # [child_time, span_id of the frame or its parent]
        self._patched: list[tuple[dict, str, object]] = []

    def _timed(self, fn, base: str, module: str, kind: str, labelled: bool):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{base}.{self.label}" if labelled and self.label else base
            parent = stack[-1][1] if stack else None
            span_id = None
            if kind == SPAN:
                span_id = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent))
            frame = [0.0, span_id if span_id is not None else parent]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += own
                self.module_self[module] += own
                if span_id is not None:
                    self.spans[span_id] = (name, start, end, parent)

        return wrapper

    def _counted(self, fn, base: str):
        counts = self.counts
        key = f"{base}_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, namespace: dict, fname: str, wrapper) -> None:
        self._patched.append((namespace, fname, namespace[fname]))
        namespace[fname] = wrapper

    def install(self) -> None:
        """Wrap every target in every simcol namespace that binds it."""
        namespaces = {name: mod.__dict__ for name, mod in sys.modules.items()
                      if name == "simcol" or name.startswith("simcol.")}
        for module, fname, kind, labelled in TARGETS:
            original = namespaces[f"simcol.{module}"][fname]
            base = f"{module}.{fname.lstrip('_')}"
            if kind == COUNT:
                wrapper = self._counted(original, base)
            else:
                wrapper = self._timed(original, base, module, kind, labelled)
            if hasattr(original, "cache_clear"):
                wrapper.cache_clear = original.cache_clear
            for ns in namespaces.values():
                if ns.get(fname) is original:
                    self._patch(ns, fname, wrapper)

        coupling = namespaces["simcol.coupling"]
        # flip_step is counted where burn-in calls it; run_chain's own calls
        # stay unwrapped, so the sample chains pay nothing for it
        self._patch(coupling, "flip_step",
                    self._counted(coupling["flip_step"], "dynamics.flip_step"))
        # the size of every coupling table, around the timed wrapper
        assemble = coupling["_assemble_flip_table"]

        @functools.wraps(assemble)
        def tally_entries(*args, **kwargs):
            table, per_color = assemble(*args, **kwargs)
            self.counts["coupling.table_entries"] += len(table.entries)
            return table, per_color

        self._patch(coupling, "_assemble_flip_table", tally_entries)

    def restore(self) -> None:
        for namespace, fname, original in reversed(self._patched):
            namespace[fname] = original
        self._patched.clear()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        """Dump spans and statistics as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [{"id": i, "name": n, "start": s - t0, "end": e - t0,
                       "parent": p} for i, (n, s, e, p) in enumerate(self.spans)],
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "module_self_s": dict(self.module_self),
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
