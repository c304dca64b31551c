"""Spans recorded from outside a program, by wrapping the functions it calls.

A span is (name, start, end, parent): clock readings in nanoseconds and the
index of the enclosing span, -1 at the top. Spans stay in memory until
:meth:`Tracer.write`. A wrapped function is replaced at every name a caller
looks it up by, and :meth:`Tracer.restore` puts every original back. Counts
are kept beside the spans, by hooks on the wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable


def self_times(spans) -> dict[str, int]:
    """Summed self time per span name: each span's duration minus its children's.

    Calls are synchronous, so a span's children are disjoint and lie inside it.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, int] = defaultdict(int)
    for span, t in zip(spans, own):
        totals[span[0]] += t
    return dict(totals)


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[tuple[int, dict]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name, hook: Callable | None = None) -> Callable:
        """`fn` recording one span per call.

        `name` is a string, or a function of the call's bound arguments and
        those of the enclosing wrapped call (None at the top). `hook` gets the
        counters, the bound arguments and the result after each call.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            parent, parent_args = self._open[-1] if self._open else (-1, None)
            label = name(bound, parent_args) if callable(name) else name
            span = [label, self.clock(), 0, parent]
            self._open.append((len(self.spans), bound))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if hook:
                hook(self.counts, bound, result)
            return result

        return traced

    def patch_function(self, module, attr: str, name, hook: Callable | None = None) -> None:
        """Wrap a module-level function wherever its package's modules bind it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, hook)
        package = module.__name__.partition(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls: type, attr: str, name, hook: Callable | None = None) -> None:
        """Wrap a method or classmethod on its class."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            traced = classmethod(self.wrap(original.__func__, name, hook))
        else:
            traced = self.wrap(original, name, hook)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, traced)

    def patch_counter(self, cls: type, attr: str, hook: Callable) -> None:
        """Wrap a method without recording spans: after each call, `hook` gets
        the counters, the name of the innermost open span (None at the top)
        and the result."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            inside = self.spans[self._open[-1][0]][0] if self._open else None
            hook(self.counts, inside, result)
            return result

        self._patches.append((cls, attr, original))
        setattr(cls, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, **meta) -> None:
        """Write the spans as JSON: one [name, start_ns, end_ns, parent] row each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, clock="perf_counter_ns", spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
