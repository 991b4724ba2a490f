"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of grpn's layers from outside the
package; nothing under ``src/`` is edited.  ``from x import y`` copies a
function into the importing module, so a wrapped function is replaced in
every ``grpn`` module that binds it, which is where callers look it up.
Spans live in flat arrays until the run ends, then get summarised per
boundary or written out.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import factorial

# Boundary names double as metric prefixes; each is "<layer>.<operation>".
BOUNDARIES = (
    "_kernels.theorem_stats",
    "group.enumerate_group",
    "group.parse_element",
    "group.one_dim",
    "tableaux.StandardTableau",
    "tableaux.stats",
    "tableaux.standard_multitableaux",
    "rs.rs_map",
    "rs.rs_inverse",
    "rs.admissible",
    "rs.ascending_representative",
    "signs.pi",
    "signs.verify_theorem",
    "signs.verify_membership",
    "signs.verify_admissible",
    "cli.main",
)
GENERATORS = ("group.enumerate_group", "tableaux.standard_multitableaux")


class Tracer:
    """Records nested spans (name, start, end, parent, request) and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.counts: Counter = Counter()
        self.inputs: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._request = -1
        self._requests = 0
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(self._request)
        self.span_end.append(0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def request(self, name: str):
        """Root span of one request; every span opened inside shares its id."""
        self._request = self._requests
        self._requests += 1
        sid = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(sid)
            self._request = -1

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn, note=None):
        nid, counts, calls = self._id(name), self.counts, name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            if note is not None:
                note(*args, **kwargs)
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def wrap_generator(self, name: str, fn, candidates=None):
        """Each ``next()`` on the wrapped generator is one span."""
        nid, counts = self._id(name), self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            if candidates is not None:
                counts[name + ".candidates"] += candidates(*args, **kwargs)
            it = fn(*args, **kwargs)
            while True:
                sid = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                counts[name + ".yielded"] += 1
                yield item

        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_function(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every loaded grpn module."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "grpn" or modname.startswith("grpn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def _child_ns(self) -> list[int]:
        """Per span, the time covered by its child spans; children of one
        span never overlap, because the run has one thread."""
        child = [0] * len(self.span_name)
        for sid, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += self.span_end[sid] - self.span_start[sid]
        return child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: spans, busy_s and self_s (busy minus child spans)."""
        n = len(self.span_name)
        child = self._child_ns()
        busy = [0] * len(self.names)
        own = [0] * len(self.names)
        spans = [0] * len(self.names)
        for sid in range(n):
            d = self.span_end[sid] - self.span_start[sid]
            k = self.span_name[sid]
            busy[k] += d
            own[k] += d - child[sid]
            spans[k] += 1
        return {
            name: {"spans": spans[k], "busy_s": busy[k] / 1e9, "self_s": own[k] / 1e9}
            for k, name in enumerate(self.names)
        }

    def request_times(self) -> dict[int, tuple[float, float]]:
        """Per request id: (wall_s of its root span, sum of self_s of its spans)."""
        n = len(self.span_name)
        child = self._child_ns()
        out: dict[int, list[int]] = {}
        for sid in range(n):
            rid = self.span_request[sid]
            if rid < 0:
                continue
            entry = out.setdefault(rid, [0, 0])
            d = self.span_end[sid] - self.span_start[sid]
            if self.span_parent[sid] < 0:
                entry[0] = d
            entry[1] += d - child[sid]
        return {rid: (wall / 1e9, own / 1e9) for rid, (wall, own) in out.items()}

    def dump(self, path) -> None:
        """Write every span as gzip'd JSON columns, times in ns from the first."""
        t0 = self.span_start[0] if len(self.span_start) else 0
        data = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_ns": [t - t0 for t in self.span_start],
            "end_ns": [t - t0 for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "request": self.span_request.tolist(),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


def instrument(tracer: Tracer, grpn) -> None:
    """Wrap the public functions of every layer; undo with ``tracer.restore()``.

    ``grpn`` is a namespace holding the imported modules group, tableaux,
    rs, signs and cli.
    """
    group, tableaux, rs, signs, cli = grpn.group, grpn.tableaux, grpn.rs, grpn.signs, grpn.cli
    t = tracer

    get_kernel = signs.get_kernel
    t.patch(
        signs,
        "get_kernel",
        lambda backend=None: t.wrap("_kernels.theorem_stats", get_kernel(backend)),
    )

    t.replace_function(
        group.enumerate_group,
        t.wrap_generator(
            "group.enumerate_group",
            group.enumerate_group,
            candidates=lambda params, *a, **k: params.r**params.n * factorial(params.n),
        ),
    )
    t.replace_function(
        tableaux.standard_multitableaux,
        t.wrap_generator("tableaux.standard_multitableaux", tableaux.standard_multitableaux),
    )
    seen = t.inputs["rs.rs_map"]
    t.replace_function(
        rs.rs_map,
        t.wrap("rs.rs_map", rs.rs_map, note=lambda w: seen.add((w.perm, w.colors, w.params.r))),
    )
    for name, fn in (
        ("group.parse_element", group.parse_element),
        ("rs.rs_inverse", rs.rs_inverse),
        ("rs.admissible", rs.left_admissible),
        ("rs.admissible", rs.right_admissible),
        ("rs.ascending_representative", rs.ascending_representative),
        ("signs.pi", signs.pi),
        ("signs.verify_theorem", signs.verify_theorem),
        ("signs.verify_membership", signs.verify_membership),
        ("signs.verify_admissible", signs.verify_admissible),
        ("cli.main", cli.main),
    ):
        t.replace_function(fn, t.wrap(name, fn))

    for owner, attr, name in (
        (group.GroupElement, "one_dim", "group.one_dim"),
        (tableaux.StandardTableau, "__init__", "tableaux.StandardTableau"),
        (tableaux.Multitableau, "inversions", "tableaux.stats"),
        (tableaux.Multitableau, "even_row_boxes", "tableaux.stats"),
        (tableaux.Multitableau, "twice_spin", "tableaux.stats"),
    ):
        t.patch(owner, attr, t.wrap(name, getattr(owner, attr)))
