"""In-memory spans and counters recorded around calls into the layers.

A :class:`Tracer` keeps every span of a run in memory: its name, start,
end, parent span and the repetition it belongs to. Counters are plain
named sums. :func:`instrument` swaps the functions a caller looks up
(for example ``repro.eval.harness.assign_left_bmf_fast``) for wrappers
that open a span around the call, and restores the originals on exit.
Nothing under ``src/`` is edited; an untraced run never installs a
wrapper.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    rep: int
    parent: Optional[int]
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one run, grouped by repetition."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.rep = 0
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.rep, parent, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[self.rep][name] += amount

    def set(self, name: str, value: float) -> None:
        self.counts[self.rep][name] = value

    # -- per-repetition summaries --------------------------------------------
    def rep_spans(self, rep: int) -> List[Span]:
        return [s for s in self.spans if s.rep == rep]

    def total(self, rep: int, name: str) -> float:
        """Summed duration of the spans called ``name`` in one repetition."""
        return sum(s.seconds for s in self.rep_spans(rep) if s.name == name)

    def self_time(self, rep: int, name: str) -> float:
        """Duration of the ``name`` spans minus their direct children."""
        ids = {i for i, s in enumerate(self.spans) if s.rep == rep and s.name == name}
        own = sum(self.spans[i].seconds for i in ids)
        kids = sum(s.seconds for s in self.spans if s.parent in ids)
        return own - kids


class NullTracer:
    """Stand-in for untraced runs: spans and counters cost nothing."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def add(self, name: str, amount: float = 1.0) -> None:
        pass

    def set(self, name: str, value: float) -> None:
        pass


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    """Wrap ``fn`` in a span. ``before(args, kwargs)`` runs before the span
    opens and ``after(result, args, kwargs)`` after it closes, so counting
    is never charged to the layer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, args, kwargs)
        return out

    return wrapper


@contextlib.contextmanager
def instrument(patches: Dict[tuple, Callable]) -> Iterator[None]:
    """Install ``{(module, attribute): replacement}`` for the duration of
    the block and put the originals back afterwards."""
    saved = {(mod, attr): getattr(mod, attr) for mod, attr in patches}
    try:
        for (mod, attr), repl in patches.items():
            setattr(mod, attr, repl)
        yield
    finally:
        for (mod, attr), orig in saved.items():
            setattr(mod, attr, orig)
