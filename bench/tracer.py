"""Outside-in tracer: wraps public functions of imported modules and records spans.

The tracer patches a function everywhere it is bound, not only in its defining
module: modules that did ``from .operators import shadow_expand`` hold their
own reference, so every module attribute that *is* the original object is
replaced by the same wrapper and put back by ``restore``.

Spans are kept in memory as ``[label, start, end, parent]`` lists, where
``parent`` is the index of the enclosing span or -1.  A label's self time is
the sum of its spans' durations minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans of the wrapped functions while ``paused`` is false.

    Installed wrappers start paused, so a caller enables recording around the
    operations it times and leaves checks and oracles untraced.
    """

    def __init__(self):
        self.paused = True
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._targets = []      # (owner, attr, label, on_call)
        self._patched = []      # (obj, attr, original)
        self._stack = []        # [span index, child seconds]

    def add(self, owner, attr, label, on_call=None):
        """Trace ``owner.attr`` under ``label``.

        ``on_call(tracer, args, result)`` runs after each call, outside the
        span, so it can record counts such as bytes moved.
        """
        self._targets.append((owner, attr, label, on_call))

    def install(self, modules):
        """Patch every target in its owner and in each of ``modules`` that
        binds the same object by name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, label, on_call in self._targets:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, label, on_call)
            holders = [owner] + [m for m in modules
                                 if m is not owner and m.__dict__.get(attr) is original]
            for obj in holders:
                self._patched.append((obj, attr, original))
                setattr(obj, attr, wrapper)

    def restore(self):
        """Put back every original, in reverse order of patching."""
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, label, on_call):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            span = [label, clock(), 0.0, parent]
            spans.append(span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                duration = end - span[1]
                self.calls[label] += 1
                self.self_s[label] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced
