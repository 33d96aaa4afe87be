"""In-memory spans around the program's layer boundaries.

Each wrapper replaces a name where its caller looks it up (for example
`fuzz.eval_fold`, which `differential_check` calls, not `interp.eval_fold`)
and records one span: name, start, end and the enclosing span. Spans are kept
in flat arrays until the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import copy
import functools
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = Counter()  # named counts, summed over traced ops
        self.ops = 0             # traced ops
        self._stack = [-1]
        self._patches = []       # (owner, attr, original), newest last

    # -- spans

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index):
        self.end[index] = perf_counter()
        self._stack.pop()

    def op(self, fn):
        """Run one op under a root span named `op`."""
        self.ops += 1
        index = self._open("op")
        try:
            return fn()
        finally:
            self._close(index)

    def wrap(self, name, fn, count=None):
        """`fn` recording a span; `count(counts, args, result)` adds to the
        named counts after each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    # -- installing wrappers

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def count_deepcopy(self, module, name):
        """Count top-level `copy.deepcopy` calls made by `module`."""
        counts = self.counts

        class _CountingCopy:
            @staticmethod
            def deepcopy(x, memo=None):
                counts[name] += 1
                return copy.deepcopy(x, memo)

        self._patches.append((module, "copy", module.copy))
        module.copy = _CountingCopy

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def self_ms(self):
        """{span name: (total self time in ms, number of spans)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            ms, k = totals.get(name, (0.0, 0))
            totals[name] = (ms + (self.end[i] - self.start[i] - child[i]) * 1e3,
                            k + 1)
        return totals
