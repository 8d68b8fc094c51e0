"""Outside-in tracer for sglab: wraps public functions without editing them.

Each wrapped function records a span per call (per ``next`` for a
generator).  Spans are folded into per-function totals as they close,
so memory stays flat over millions of calls: call count, self time
(span duration minus the time covered by its child spans) and calls per
calling span.  Optional observers see each call's arguments and result,
to count distinct inputs.

The wrapper replaces the function in every loaded ``sglab.*`` namespace
that holds it, because modules import one another's functions by name
(``sweep``, ``congruences`` and ``permutative`` each hold their own
``separator``).  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, {calling span name: calls}]
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.seen: defaultdict = defaultdict(set)  # distinct inputs, filled by observers
        self._stack: list[list] = [[None, 0.0]]
        self._undo: list[tuple[object, str, object]] = []

    def calls(self, name: str, parent: str | None = None) -> int:
        """Closed spans of ``name``, or only those directly inside ``parent``."""
        calls, _, parents = self.stats.get(name, (0, 0.0, {}))
        return calls if parent is None else parents.get(parent, 0)

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, {}))[1]

    def _span(self, name, fn, observe):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, {}])
        parents = stat[2]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt - frame[1]
                parent[1] += dt
                p = parent[0]
                parents[p] = parents.get(p, 0) + 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _generator_span(self, name, fn):
        step = self._span(name, next, None)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                counts[name + ".yielded"] += 1
                yield item

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def function(self, module, attr, name, *, generator=False, observe=None):
        """Trace module-level function ``module.attr`` under ``name``,
        rebinding it wherever an sglab module imported it by name."""
        orig = getattr(module, attr)
        new = self._generator_span(name, orig) if generator else self._span(name, orig, observe)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "sglab":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, key, new)

    def method(self, cls, attr, name, *, observe=None, count_only=False):
        """Trace ``cls.attr``; with count_only, count calls without a span."""
        orig = cls.__dict__[attr]
        new = self._counter(name, orig) if count_only else self._span(name, orig, observe)
        self._replace(cls, attr, new)

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
