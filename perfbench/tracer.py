"""Per-layer spans for the traced run, recorded from outside ``zdyn``.

The tracer replaces every public function and public method of the
layer modules with a wrapper, wherever the function is looked up: in
its own module, in the modules that bring it in with a from-import, and
on its class.  A span records its name, start, end, parent span and op
id.  Spans are kept in flat arrays while the run lasts and written out
when it ends.  Outside an op the wrappers only forward the call.
"""

from __future__ import annotations

import array
import functools
import json
import time
import types

LAYERS = ("cli", "graphs", "coverings", "bratteli", "stationary", "substitution")

# The per-layer metrics, each per op: (span name, statistic).
SPANS = [
    ("bratteli.level_edges", "calls"),
    ("bratteli.in_edges", "calls"),
    ("bratteli.in_edges", "self_ms"),
    ("bratteli.minimal_path", "self_ms"),
    ("bratteli.vershik_successor", "self_ms"),
    ("bratteli.vershik_predecessor", "self_ms"),
    ("bratteli.path_index", "self_ms"),
    ("bratteli.path_count", "calls"),
    ("bratteli.successor_values", "calls"),
    ("bratteli.weighted_to_bv", "self_ms"),
    ("coverings.level_graph", "calls"),
    ("coverings.floor_paths", "calls"),
    ("coverings.floor_paths", "self_ms"),
    ("coverings.all_paths", "self_ms"),
    ("coverings.krieger_markers", "self_ms"),
    ("coverings.krieger_coverage", "self_ms"),
    ("coverings.periodic_orbits", "self_ms"),
    ("coverings.find_cover_isomorphism", "self_ms"),
    ("stationary.in_edges", "calls"),
    ("stationary.check_continuity", "calls"),
    ("stationary.check_continuity", "self_ms"),
    ("stationary.analyze_self_cover", "self_ms"),
    ("stationary.check_overlap", "self_ms"),
    ("substitution.check_recoding", "self_ms"),
    ("substitution.language", "self_ms"),
    ("graphs.check_cover", "self_ms"),
    ("graphs.compose_covers", "calls"),
    ("graphs.enumerate_circuits", "self_ms"),
    ("cli.load_document", "self_ms"),
    ("cli.dump_document", "self_ms"),
    ("cli.main", "self_ms"),
]

REUSED = "coverings.floor_paths"


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps each layer name to its imported module."""
        self.labels: list[str] = []
        self.label_id: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack: list[int] = []
        self.current = 0
        self.seen: set = set()
        self.reused = 0
        self._install(modules)

    # -- installation --------------------------------------------------------

    def _install(self, modules: dict) -> None:
        owners = {mod.__name__: layer for layer, mod in modules.items()}
        wrappers: dict[int, object] = {}

        def wrapper(fn, owner):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, f"{owners[owner]}.{fn.__name__}")
            return wrappers[id(fn)]

        classes = set()
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None)
                if attr.startswith("_") or owner not in owners:
                    continue
                if isinstance(obj, type):
                    if obj not in classes:
                        classes.add(obj)
                        for m, f in list(vars(obj).items()):
                            if not m.startswith("_") and isinstance(f, types.FunctionType):
                                setattr(obj, m, wrapper(f, owner))
                elif callable(obj):
                    setattr(mod, attr, wrapper(obj, owner))

    def _wrap(self, fn, label: str):
        nid = self.label_id.setdefault(label, len(self.labels))
        if nid == len(self.labels):
            self.labels.append(label)
        name, parent, op = self.name, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self
        counts_reuse = label == REUSED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.current:
                return fn(*args, **kwargs)
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current)
            start.append(0)
            end.append(0)
            if counts_reuse:
                key = (args, tuple(sorted(kwargs.items())))
                if key in tracer.seen:
                    tracer.reused += 1
                else:
                    tracer.seen.add(key)
            stack.append(i)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    # -- ops -------------------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.current = op_id
        self.seen.clear()

    def finish(self) -> None:
        self.current = 0
        self.stack.clear()

    # -- results ---------------------------------------------------------------

    def totals(self) -> tuple[list[int], list[int]]:
        """Calls and self time in ns per span name."""
        n = len(self.name)
        covered = array.array("q", bytes(8 * n))
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.labels)
        self_ns = [0] * len(self.labels)
        for i in range(n):
            calls[name[i]] += 1
            self_ns[name[i]] += end[i] - start[i] - covered[i]
        return calls, self_ns

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, each as a mean per op."""
        calls, self_ns = self.totals()
        by_label = {x: (calls[i], self_ns[i]) for i, x in enumerate(self.labels)}
        out = {}
        for layer in LAYERS:
            mine = [v for k, v in by_label.items() if k.startswith(layer + ".")]
            out[f"{layer}.self_ms"] = (sum(v[1] for v in mine) / 1e6 / ops, "ms")
            out[f"{layer}.calls"] = (sum(v[0] for v in mine) / ops, "count")
        for label, stat in SPANS:
            c, t = by_label.get(label, (0, 0))
            out[f"{label}.{stat}"] = (c / ops, "count") if stat == "calls" else (t / 1e6 / ops, "ms")
        reuse_base = by_label.get(REUSED, (0, 0))[0]
        out[f"{REUSED}.reuse_ratio"] = (self.reused / reuse_base if reuse_base else 0.0, "ratio")
        return out

    def dump(self, stem: str) -> None:
        """Write the spans: a JSON index and the raw arrays after it."""
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "labels": self.labels,
                    "spans": len(self.name),
                    "arrays": ["name:i32", "parent:i32", "op:i32", "start_ns:i64", "end_ns:i64"],
                },
                handle,
            )
        with open(stem + ".bin", "wb") as handle:
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(handle)
