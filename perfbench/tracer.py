"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` swaps each listed function for a wrapper in every
``matchreg`` module that holds a reference to it, so calls made through
``from .x import f`` bindings are caught too; ``uninstall`` puts the
originals back. A wrapper records one span per call: its name, start, end,
the span that was open when it started, and its self time (duration minus
the time covered by its child spans). Spans stay in memory; ``self_seconds``
turns them into per-name totals.

Peak memory comes from ``tracemalloc`` and is taken only for leaf spans,
because ``tracemalloc`` keeps one process-wide peak that each measurement
has to reset.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span in Tracer.spans
    self_s: float


@dataclass
class Probe:
    """One function to wrap: ``module.attr``, reported under ``name``.

    ``peak`` measures the tracemalloc peak of the call (leaf functions
    only). ``on_result`` receives the tracer's counter and the call's return
    value, for counts taken where the work happens.
    """

    name: str
    module: object
    attr: str
    peak: bool = False
    on_result: Callable[[Counter, object], None] | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    peaks: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _open: list[list] = field(default_factory=list)  # [span index, child seconds]
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self, probes: list[Probe]) -> None:
        tracemalloc.start()
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "matchreg" or name.startswith("matchreg.")
        ]
        for probe in probes:
            original = getattr(probe.module, probe.attr)
            wrapper = self._wrap(probe, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        tracemalloc.stop()

    def _wrap(self, probe: Probe, fn):
        spans, counts, peaks, open_stack = self.spans, self.counts, self.peaks, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_stack[-1][0] if open_stack else None
            frame = [len(spans), 0.0]
            spans.append(None)  # reserve the index so children can name it
            open_stack.append(frame)
            if probe.peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_stack.pop()
                spans[frame[0]] = Span(probe.name, start, end, parent, end - start - frame[1])
                if open_stack:
                    open_stack[-1][1] += end - start
                if probe.peak:
                    peaks[probe.name] = max(
                        peaks[probe.name], tracemalloc.get_traced_memory()[1] - base
                    )
            counts[probe.name + ".calls"] += 1
            if probe.on_result is not None:
                probe.on_result(counts, result)
            return result

        return traced

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return totals

    def self_seconds_under(self, root: str) -> float:
        """Self time of all spans whose outermost enclosing span is called ``root``."""
        top: list[int] = []
        total = 0.0
        for i, span in enumerate(self.spans):
            top.append(i if span.parent is None else top[span.parent])
            if self.spans[top[i]].name == root:
                total += span.self_s
        return total
