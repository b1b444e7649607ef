"""Timing spans recorded by wrappers set on module attributes from outside the program.

A `Tracer` replaces named functions with wrappers that record a span (name,
start, end, parent span, pass id) per call, keeps the spans in memory and
puts the original functions back when the pass ends. Counts computed from a
call's arguments and result are stored on its span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

# counter(args, kwargs, result) -> {count name: value}
Counter = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span in Tracer.spans
    pass_id: int = 0
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    owner: object  # module or class whose attribute is wrapped
    attr: str
    metric: str  # layer metric charged with the span's self time
    counter: Counter | None = None

    @property
    def name(self) -> str:
        return f"{self.owner.__name__}.{self.attr}"


class Tracer:
    # counting is recorded as a span of its own, beside the span it counts,
    # so that no layer is charged with it
    COUNT_SPAN = "tracer.count"

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pass_id = 0

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None, pass_id=self._pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(target.name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if target.counter is not None:
                counting = self._open(self.COUNT_SPAN)
                try:
                    span.counts = target.counter(args, kwargs, result)
                finally:
                    self._close(counting)
            return result
        return wrapper

    @contextmanager
    def tracing(self, pass_id: int):
        """Install every wrapper for the duration of one pass."""
        self._pass_id = pass_id
        originals = []
        try:
            for target in self.targets:
                original = getattr(target.owner, target.attr)
                originals.append((target, original))
                setattr(target.owner, target.attr, self._wrap(target, original))
            yield
        finally:
            for target, original in reversed(originals):
                setattr(target.owner, target.attr, original)
            self._stack.clear()

    def pass_spans(self, pass_id: int) -> tuple[list[Span], list[float]]:
        """The spans of one pass and their self times."""
        selves = self_times(self.spans)
        picked = [i for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        return [self.spans[i] for i in picked], [selves[i] for i in picked]

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its child spans' durations. The calls run
    on one thread, so children never overlap one another."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]
