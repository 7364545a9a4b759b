"""Span tracing from outside the package.

A span is one call of a wrapped function.  Wrappers are installed on module
attributes, where the calling code looks the name up, so a call made inside
the package is traced exactly when it crosses a wrapped name.

Spans nest on a stack.  When a span ends, its duration is charged to its
parent's child time, so a name's self time is its span time minus the time
of its child spans, and the self times of all spans under one root add up to
the root's duration.  Spans are folded into per-name totals as they end
instead of being kept, because one ``minblock`` pass makes millions of them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Stat:
    """Totals for one span name, or for one (parent, child) edge."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    hits: int = 0
    work: int = 0
    errors: dict = field(default_factory=dict)


class Tracer:
    """Folds nested spans into per-name, per-edge and per-size totals.

    ``stats[name]`` holds calls, span time, self time, ``hits`` (calls whose
    result met the target's outcome test) and raised exceptions by class
    name.  ``edges[(parent, child)]`` holds calls and span time of ``child``
    spans opened directly under a ``parent`` span.  ``sized[(name, tag)]``
    holds calls, self time and work units split by a size tag such as the
    block size.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(Stat)
        self.edges = defaultdict(Stat)
        self.sized = defaultdict(Stat)
        self._stack = []

    def begin(self, name: str) -> None:
        self._stack.append([name, 0.0, self.clock()])

    def end(self, hit: bool = False, error: str = None, size=None) -> None:
        now = self.clock()
        name, child_s, start = self._stack.pop()
        span_s = now - start
        self_s = span_s - child_s
        stat = self.stats[name]
        stat.calls += 1
        stat.total_s += span_s
        stat.self_s += self_s
        if hit:
            stat.hits += 1
        if error is not None:
            stat.errors[error] = stat.errors.get(error, 0) + 1
        if size is not None:
            tag, work = size
            sized = self.sized[(name, tag)]
            sized.calls += 1
            sized.self_s += self_s
            sized.work += work
        if self._stack:
            parent = self._stack[-1]
            parent[1] += span_s
            edge = self.edges[(parent[0], name)]
            edge.calls += 1
            edge.total_s += span_s


def traced(tracer: Tracer, name: str, fn, outcome=None, size=None):
    """Wrap ``fn`` so each call is one span called ``name``.

    ``outcome(result)`` marks a call as a hit; ``size(*args, **kwargs)``
    returns ``(tag, work)`` for the per-size totals.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(error=type(exc).__name__)
            raise
        tracer.end(
            hit=outcome(result) if outcome is not None else False,
            size=size(*args, **kwargs) if size is not None else None,
        )
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap every ``(module, attribute, span name, options)`` target.

    The original attributes are restored on exit, also after an error.
    """
    saved = []
    try:
        for module, attr, name, options in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, traced(tracer, name, original, **options))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
