"""In-memory spans around calls into softrgg's layers.

``Tracer.installed(targets)`` rebinds the public names that softrgg's own
callers look up (a module global such as ``softrgg.mc.sample_graph``, or a
method such as ``AdjacencySample.to_dense``) to timing wrappers, and puts
the originals back when the block ends.  Nothing under ``src/`` changes.

A span is (name, start_ns, end_ns, parent, size).  ``parent`` is the index
of the enclosing span, or -1.  ``size`` is an optional number a target
measures on the call (bytes returned, peak-RSS growth).  Self time is a
span's duration minus the time its children cover; over a tree that hangs
from one root span the self times add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    size: float = 0.0

    @property
    def ns(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One name to rebind.

    ``cold_key(args, kwargs)``, when given, keys calls: the first call per
    key records a span named ``name + ".cold"`` whose size is the growth of
    the process's peak RSS over the call, in bytes.  ``size(result)``, when
    given, records a number measured on the returned value.
    """

    owner: Any
    attr: str
    name: str
    cold_key: Callable | None = None
    size: Callable | None = None


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # (name, key) pairs already called, shared by every target of one
        # name so that two rebindings of one function agree on "first".
        self._seen: set = set()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the Span."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter_ns(), 0, parent)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter_ns()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            name = target.name
            rss0 = None
            if target.cold_key is not None:
                key = (name, target.cold_key(args, kwargs))
                if key not in self._seen:
                    self._seen.add(key)
                    name += ".cold"
                    rss0 = peak_rss_bytes()
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if rss0 is not None:
                s.size = peak_rss_bytes() - rss0
            elif target.size is not None:
                s.size = target.size(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        saved = []
        try:
            for t in targets:
                raw = vars(t.owner)[t.attr] if isinstance(t.owner, type) else getattr(t.owner, t.attr)
                saved.append((t, raw))
                if isinstance(raw, classmethod):
                    setattr(t.owner, t.attr, classmethod(self._wrap(t, raw.__func__)))
                else:
                    setattr(t.owner, t.attr, self._wrap(t, raw))
            yield self
        finally:
            for t, raw in reversed(saved):
                setattr(t.owner, t.attr, raw)

    # -- analysis -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        out = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.ns
        return out

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and every span below it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def outermost(self, indices, names) -> list[Span]:
        """Spans in ``indices`` named in ``names`` with no ancestor also named
        in ``names``: their durations add without double counting."""
        names = set(names)
        out = []
        for i in indices:
            s = self.spans[i]
            p = s.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if s.name in names and p < 0:
                out.append(s)
        return out

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self milliseconds."""
        selfs = self.self_ns()
        rows: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, selfs):
            r = rows.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            r["calls"] += 1
            r["total_ms"] += s.ns / 1e6
            r["self_ms"] += own / 1e6
        return rows
