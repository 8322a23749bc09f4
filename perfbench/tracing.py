"""Per-layer tracing by rebinding coverplan's public functions.

Each traced function is replaced, in every coverplan module that binds it,
by a wrapper that records a span (id, parent id, name, start, end). Names
imported with ``from ... import`` are rebound in the importing module too,
because the search is by object identity over every loaded module.
Self time is accumulated as each span closes: its duration minus the
durations of its direct children. Spans are kept in memory, up to a cap,
and written out once at the end; calls and self time cover every span,
kept or not.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array

# (layer name, defining module, attribute). The layer name is the module
# a reader looks for the call in: ``descend`` lives in cover, but only the
# online connect path calls it, so its layer is ``online.descend``.
# ``PotentialStateIndex`` is a class; its constructor is what is timed.
LAYERS = (
    ("cspace.is_valid", "cspace", "is_valid"),
    ("cspace.successors", "cspace", "successors"),
    ("cspace.navigation_value", "cspace", "navigation_value"),
    ("cspace.lattice_neighbors", "cspace", "lattice_neighbors"),
    ("cspace.heuristic", "cspace", "heuristic"),
    ("cspace.region_configs", "cspace", "region_configs"),
    ("cover.construct_neighborhood", "cover", "construct_neighborhood"),
    ("cover.greedy_step", "cover", "greedy_step"),
    ("cover.save_library", "cover", "save_library"),
    ("cover.load_library", "cover", "load_library"),
    ("online.PotentialStateIndex", "online", "PotentialStateIndex.__init__"),
    ("online.find_rep_path", "online", "find_rep_path"),
    ("online.connect", "online", "connect"),
    ("online.descend", "cover", "descend"),
    ("online.path_home_to", "online", "path_home_to"),
    ("online.update_potential_index", "online", "update_potential_index"),
    ("search.anytime_refine", "search", "anytime_refine"),
    ("search.astar", "search", "astar"),
    ("search.ara_star", "search", "ara_star"),
    ("bench.run_trial", "bench", "run_trial"),
    ("bench.summarize", "bench", "summarize"),
)

MAX_SPANS = 100_000
_SPAN_FIELDS = 5  # id, parent id (-1 for a root), name index, start ns, end ns


class Tracer:
    """Install with ``install()``, always ``uninstall()`` (use try/finally)."""

    package = "coverplan"

    def __init__(self):
        self.layers = LAYERS
        self.names: list[str] = [name for name, _, _ in LAYERS]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.spans = array("q")
        self.dropped = 0
        self.t_origin = time.perf_counter_ns()
        self._stack: list[list[int]] = []  # open spans: [span id, child ns]
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, idx: int):
        stack = self._stack
        ids = self._ids
        calls = self.calls
        self_ns = self.self_ns
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self
        cap = MAX_SPANS * _SPAN_FIELDS

        def traced(*args, **kwargs):
            frame = [next(ids), 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[idx] += dur - frame[1]
                calls[idx] += 1
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                if len(spans) < cap:
                    spans.extend((frame[0], parent, idx, t0, t1))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str, fn):
        """Wrap a benchmark-side callable as a root span (one per operation)."""
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return self._wrap(fn, len(self.names) - 1)

    def install(self) -> None:
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for idx, (_, module_name, attr) in enumerate(self.layers):
            owner = sys.modules[f"{self.package}.{module_name}"]
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self._wrap(original, idx))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, idx)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """Layer name -> (calls, self ns), for the traced library layers only."""
        return {
            name: (self.calls[i], self.self_ns[i]) for i, name in enumerate(self.names[: len(self.layers)])
        }

    def dump(self, path, header: dict) -> None:
        """Write kept spans (times relative to tracer creation) and per-name totals."""
        s = self.spans
        rows = [
            [s[i], s[i + 1], s[i + 2], s[i + 3] - self.t_origin, s[i + 4] - self.t_origin]
            for i in range(0, len(s), _SPAN_FIELDS)
        ]
        payload = dict(header)
        payload.update(
            {
                "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
                "names": self.names,
                "spans": rows,
                "spans_dropped": self.dropped,
                "totals": {
                    name: {"calls": self.calls[i], "self_ns": self.self_ns[i]}
                    for i, name in enumerate(self.names)
                },
            }
        )
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
