"""In-memory spans around the public functions of iontrap's layers.

The tracer replaces a function (or a class method) with a wrapper that
records a span: name, start, end, the span that was open when it was called,
the operation it belongs to, the process high-water RSS when it ended, and a
few counts taken from the call's arguments and result. Nothing inside the
package is edited; the wrappers are installed on the module or class
attributes and removed again by `uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "maxrss_mb", "counts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.maxrss_mb = 0.0
        self.counts = {}

    @property
    def s(self):
        return self.end - self.start

    def as_tuple(self):
        return (self.name, self.start, self.end, self.parent, self.op,
                self.maxrss_mb, self.counts)


def maxrss_mb():
    """Process high-water resident set size in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans for every wrapped call; `op` tags the current operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name, fn, args, kwargs, count=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.end = self.clock()
            self._stack.pop()
            sp.maxrss_mb = maxrss_mb()
        if count is not None:
            sp.counts = count(args, kwargs, result)
        return result

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr with a traced wrapper.

        For a module-level function, every loaded iontrap module that bound
        the same object by name (`from .pseudo import pseudo_map`) gets the
        wrapper too, so the call is traced whichever name the caller uses.
        count(bound_arguments, result) returns a dict of counts for the span.
        """
        orig = getattr(owner, attr)
        sig = inspect.signature(orig)
        counter = None
        if count is not None:
            def counter(args, kwargs, result):
                return count(sig.bind(*args, **kwargs).arguments, result)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return self.span(name, orig, args, kwargs, counter)

        if inspect.ismodule(owner):
            holders = [m for key, m in list(sys.modules.items())
                       if key.split(".")[0] == "iontrap"
                       and getattr(m, attr, None) is orig]
        else:
            holders = [owner]
        for holder in holders:
            # keep the raw attribute (a staticmethod, say) to put it back
            self._undo.append((holder, attr, vars(holder)[attr]))
            setattr(holder, attr, traced)

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    def children(self):
        """Child span indices of every span, in call order."""
        kids = [[] for _ in self.spans]
        for i, sp in enumerate(self.spans):
            if sp.parent is not None:
                kids[sp.parent].append(i)
        return kids

    def self_times(self):
        """Each span's duration minus the part of it its children cover.

        Children of one span run one after another on one thread, so the
        covered part is the sum of their durations, clipped to the parent.
        """
        kids = self.children()
        out = []
        for i, sp in enumerate(self.spans):
            covered = sum(min(self.spans[c].end, sp.end)
                          - max(self.spans[c].start, sp.start)
                          for c in kids[i])
            out.append(sp.s - covered)
        return out

    def dump(self):
        return [sp.as_tuple() for sp in self.spans]
