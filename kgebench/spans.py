"""In-memory span recorder that traces ``kgedistill`` from the outside.

A :class:`Tracer` replaces chosen module attributes and methods with thin
wrappers while it is installed, and puts the originals back when it is
removed. Each call through a wrapper records one span: id, name, start and
end (``perf_counter_ns``), the id of the span that was open when it
started, and an optional size (the row count of a forward call). Spans stay
in memory until the run ends. Nothing in the package itself is edited.

Self time is a span's duration minus the durations of its child spans;
:func:`self_times` computes it for every span.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from statistics import median


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    size: int | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans for every call made through the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name_of):
        """Wrap ``fn``; ``name_of(args, kwargs)`` gives (name, size) per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, size = name_of(args, kwargs)
            span = Span(len(self.spans), name, 0, 0, self._open[-1] if self._open else None, size)
            self.spans.append(span)
            self._open.append(span.id)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._open.pop()

        return traced

    def patch(self, owner, attr: str, name_of) -> None:
        """Route ``owner.attr`` through a wrapper until :meth:`remove`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name_of))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def fixed(name: str):
    """A ``name_of`` callback that always gives ``name``."""
    return lambda args, kwargs: (name, None)


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    """Map each span id to the spans opened directly inside it."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return children


def self_times(spans: list[Span], children: dict[int, list[Span]] | None = None) -> dict[int, int]:
    """Self time (ns) of every span: its duration minus its children's.

    The wrappers run on one thread and keep a stack of open spans, so a
    span's children never overlap and always end inside it.
    """
    if children is None:
        children = children_of(spans)
    return {s.id: s.duration - sum(c.duration for c in children.get(s.id, ())) for s in spans}


def step_buckets(spans: list[Span], root_name: str, step_start: str) -> tuple[list[dict], list[dict]]:
    """Split each ``root_name`` span into steps and sum self time per name.

    A step begins at each direct child named ``step_start`` and runs to the
    next one (or the root's end). Each child's self time goes to the step
    in which it started; the root's own self time within a step is filed
    under ``root_name``. Children before the first step form the root's
    prologue. Returns (steps, prologues), each a list of {name: ns}.
    """
    by_parent = children_of(spans)
    selfs = self_times(spans, by_parent)
    steps, prologues = [], []
    for root in (s for s in spans if s.name == root_name):
        kids = sorted(by_parent.get(root.id, ()), key=lambda c: c.start)
        cuts = [c.start for c in kids if c.name == step_start]
        bounds = [root.start] + cuts + [root.end]
        buckets = [dict() for _ in range(len(bounds) - 1)]
        for kid in kids:
            index = sum(1 for cut in cuts if cut <= kid.start)
            bucket = buckets[index]
            bucket[kid.name] = bucket.get(kid.name, 0) + selfs[kid.id]
            # Descendants of this child count toward its bucket too.
            for sub in _descendants(kid, by_parent):
                bucket[sub.name] = bucket.get(sub.name, 0) + selfs[sub.id]
        for bucket, lo, hi in zip(buckets, bounds, bounds[1:]):
            covered = sum(v for v in bucket.values())
            bucket[root_name] = (hi - lo) - covered
        prologues.append(buckets[0])
        steps.extend(buckets[1:])
    return steps, prologues


def _descendants(span: Span, by_parent: dict) -> list[Span]:
    out, todo = [], list(by_parent.get(span.id, ()))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(by_parent.get(s.id, ()))
    return out


def median_ms(buckets: list[dict], names: tuple[str, ...]) -> float:
    """Median over buckets of the summed self time of ``names``, in ms."""
    if not buckets:
        return 0.0
    return median(sum(b.get(n, 0) for n in names) for b in buckets) / 1e6
