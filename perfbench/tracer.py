"""Per-layer tracing from outside the program.

The tracer replaces selected bruhatkit functions at run time with timing
wrappers, in every bruhatkit module namespace that holds them, so a
caller sees the wrapper whichever way it looks the function up
(``forcing.factor_deletion`` as seen by ``forces_factor``,
``bruhat.interval`` as seen by ``bruhat.ideal``).  Nothing under ``src/``
changes.

Three kinds of wrapper:

* spanned: each call records a span (name, start, end, parent span,
  operation id).  Spans stay in memory and are written out at the end.
* iterated: for generators, each ``next()`` is one span.
* counted: functions called millions of times get a call counter (and,
  for ``iter_reduced_words``, summed busy time) but no spans.

Self time is a span's duration minus the time of its children, counted
and iterated children included.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.child: list[float] = []
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []
        self._by_name: dict[str, list[int]] = {}
        self._indexed = 0

    # --- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        t = _now()
        self.end[i] = t
        self.stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def _charge(self, name: str, dur: float) -> None:
        """Busy time of a counted call, billed to the enclosing span."""
        self.busy[name] += dur
        if self.stack:
            self.child[self.stack[-1]] += dur

    # --- installing wrappers -------------------------------------------

    def _replace(self, old, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "bruhatkit" or mod_name.startswith("bruhatkit.")
            ):
                continue
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, old))

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._undo):
            setattr(mod, attr, old)
        self._undo.clear()

    def spanned(self, fn, name, label=None, measure=None) -> None:
        """Span every call; ``label(args)`` may rename the span and
        ``measure(result)`` adds to the counter ``<span name>.out``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(args) if label else name
            i = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if measure is not None:
                tracer.counts[span + ".out"] += measure(result)
            return result

        self._replace(fn, wrapper)

    def iterated(self, fn, name) -> None:
        """Span each ``next()`` on the generator ``fn`` returns."""
        tracer = self

        class Timed:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                i = tracer.open(name)
                try:
                    value = next(self.it)
                finally:
                    tracer.close(i)
                tracer.counts[name + ".yielded"] += 1
                return value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return Timed(fn(*args, **kwargs))

        self._replace(fn, wrapper)

    def counted_iter(self, fn, name) -> None:
        """Count and time the ``next()`` calls without spans."""
        tracer = self
        counts = self.counts

        class Counted:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                t = _now()
                try:
                    value = next(self.it)
                finally:
                    tracer._charge(name, _now() - t)
                counts[name + ".yielded"] += 1
                return value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = _now()
            try:
                return Counted(fn(*args, **kwargs))
            finally:
                tracer._charge(name, _now() - t)

        self._replace(fn, wrapper)

    def counted(self, fn, name) -> None:
        """Count calls only; for functions called millions of times."""
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        self._replace(fn, wrapper)

    # --- results -------------------------------------------------------

    def spans_named(self, name: str) -> list[int]:
        if self._indexed != len(self.names):
            self._by_name = defaultdict(list)
            for i, n in enumerate(self.names):
                self._by_name[n].append(i)
            self._indexed = len(self.names)
        return self._by_name.get(name, [])

    def durations(self, name: str) -> list[float]:
        return [self.end[i] - self.start[i] for i in self.spans_named(name)]

    def self_s(self, name: str) -> float:
        return sum(
            self.end[i] - self.start[i] - self.child[i]
            for i in self.spans_named(name)
        ) + self.busy.get(name, 0.0)

    def write(self, path, header: dict) -> None:
        """Spans as gzip'd JSON: one [name, start, end, self, parent, op]
        row per span, with names interned in ``names``."""
        names = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(names)}
        t0 = min(self.start, default=0.0)
        rows = [
            [
                ids[self.names[i]],
                round(self.start[i] - t0, 7),
                round(self.end[i] - t0, 7),
                round(self.end[i] - self.start[i] - self.child[i], 7),
                self.parent[i],
                self.op[i],
            ]
            for i in range(len(self.names))
        ]
        body = dict(header, names=names, counts=dict(self.counts),
                    busy_s=dict(self.busy), spans=rows)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(body, fh, separators=(",", ":"))
