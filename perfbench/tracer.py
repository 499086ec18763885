"""Outside-in span tracing for the traced run.

The program is not edited: a :class:`Tracer` replaces a layer's public
function *at the call site* — the name bound in the module that calls
it — with a wrapper that records a span, and restores every
replacement when the traced region ends.  Spans nest on one stack, so a
layer's self time is its duration minus the durations of the spans it
caused.  The traced region itself (:meth:`Tracer.root`) is not a layer:
whatever its direct children do not cover is reported as unattributed.

Only one thread may run traced code (the traced workloads run the
program in-process on the calling thread).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        #: span name -> accumulated self seconds
        self.self_s: Dict[str, float] = defaultdict(float)
        #: span name -> completed calls
        self.calls: Dict[str, int] = defaultdict(int)
        #: free-form counters recorded at the same boundaries
        self.counts: Dict[str, float] = defaultdict(float)
        #: wall seconds of the traced regions
        self.root_s = 0.0
        #: open spans: each frame accumulates its children's durations
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------
    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span named ``name``."""
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            stack.pop()
            self.self_s[name] += dt - frame[0]
            self.calls[name] += 1
            if stack:
                stack[-1][0] += dt

    def root(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the traced region; returns ``(result, wall)``."""
        if self._stack:
            raise RuntimeError("traced regions do not nest")
        frame = [0.0]
        self._stack.append(frame)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = _clock() - t0
            self._stack.pop()
            self.root_s += wall
        return result, wall

    @property
    def named_s(self) -> float:
        """Self time of every named span (the root excluded)."""
        return sum(self.self_s.values())

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # -- wrappers ------------------------------------------------------------
    def traced(self, name: str, fn: Callable,
               after: Callable = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args)`` may record
        counters from the call's result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def traced_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: each ``next`` is one span, so the
        consumer's loop body is not charged to the producer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = tracer.call(name, next, it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def traced_subclass(self, cls: type, methods: Dict[str, str]) -> type:
        """A subclass of ``cls`` whose listed methods are spans."""
        namespace = {
            meth: self.traced(span, getattr(cls, meth))
            for meth, span in methods.items()
        }
        return type("Traced" + cls.__name__, (cls,), namespace)

    # -- patching --------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Bind ``owner.attr`` (a module global or a class attribute
        defined on ``owner`` itself) to ``replacement`` until
        :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             after: Callable = None) -> None:
        self.patch(owner, attr, self.traced(name, getattr(owner, attr),
                                            after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
