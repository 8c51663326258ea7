"""Span tracing of the program's layers, installed from outside at run time.

The benchmark never edits the program.  :class:`Tracer` replaces public
functions and methods of each layer with timing wrappers, in the module or
class where their callers look them up, and restores the originals on
:meth:`Tracer.uninstall`.  Every call becomes a span (name, start, end,
parent span, thread); spans are kept in memory and written out when the
run ends.

A span's *self time* is its duration minus the time its direct child spans
cover.  Each per-layer ``*_s`` metric is the sum of the self times of that
layer's spans, so the layer metrics never count the same second twice.
Call counts count only the outermost span of a layer (a nested call of
the same layer, such as ``optimize_chunk_size`` into
``ChunkSizeOptimizer.optimize``, is one call).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class _Span:
    __slots__ = (
        "name", "metric", "call", "start", "end", "parent", "thread", "phase", "children_s"
    )

    def __init__(self, name, metric, call, parent, phase):
        self.name = name
        self.metric = metric
        self.call = call
        self.parent = parent
        self.thread = threading.get_ident()
        self.phase = phase
        self.children_s = 0.0
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: Counts recorded by exit hooks, per (phase, metric).
        self.tallies: dict[tuple[str, str], float] = defaultdict(float)
        #: Distinct identities seen per metric (e.g. classify inputs).
        self.distinct: dict[str, set] = defaultdict(set)

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, metric: str, call: bool = True) -> _Span:
        stack = self._stack()
        span = _Span(name, metric, call, stack[-1] if stack else None, self.phase)
        stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.end - span.start
        with self._lock:
            self.spans.append(span)

    def tally(self, metric: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the current phase's count of ``metric``."""
        with self._lock:
            self.tallies[(self.phase, metric)] += amount

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, metric: str, on_exit=None, before=None) -> None:
        """Time every call of ``owner.attr`` as a ``metric`` span.

        ``on_exit(span, args, kwargs, result, token)`` runs after the call
        returns, outside the span, to record counts; ``token`` is what
        ``before()`` returned just before the call (``None`` without it).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            token = before() if before is not None else None
            span = tracer._open(name, metric)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_exit is not None:
                on_exit(span, args, kwargs, result, token)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_generator(self, owner, attr: str, metric: str, on_item=None) -> None:
        """Time a generator function: one span per resumption.

        Only the time spent inside the generator counts; the consumer's work
        between two items is not charged to the layer.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            first = True
            try:
                while True:
                    span = tracer._open(name, metric, call=first)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    first = False
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def layer_totals(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (phase, metric): summed self time and outermost-call count."""
        totals: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0}
        )
        for span in self.spans:
            entry = totals[(span.phase, span.metric)]
            entry["self_s"] += (span.end - span.start) - span.children_s
            nested = span.parent is not None and span.parent.metric == span.metric
            if span.call and not nested:
                entry["calls"] += 1
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line (name, start, end, parent, thread)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "metric": span.metric,
                            "call": span.call,
                            "phase": span.phase,
                            "start": span.start,
                            "end": span.end,
                            "parent": index.get(id(span.parent)),
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )
