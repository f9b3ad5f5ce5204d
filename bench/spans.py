"""In-memory spans for the traced run, and their per-layer summary.

A span is (name, start, end, parent); names are ``<module>.<what>`` after the
dynwire module whose public function the span times.  Spans are only ever
opened around calls the benchmark makes itself or around callables it hands
to the library, so tracing patches nothing inside ``dynwire``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYERS = ("fileio", "modelspec", "dynam", "sim", "wiring", "cset", "finset")


class Tracer:
    """Spans and counters of one traced pass, kept in parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.step_us: list[float] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self) -> None:
        t = perf_counter()
        self.end[self.stack.pop()] = t

    def add(self, counter: str, value: float = 1.0) -> None:
        self.counts[counter] += value

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call."""

        def timed(*args):
            self.begin(name)
            try:
                return fn(*args)
            finally:
                self.finish()

        return timed

    def record_steps(self, first_span: int, run_span: int, steps: int) -> None:
        """Per-step wall times of one trajectory, from outside the loop.

        A step starts when the first composite evaluation of that step starts
        (Euler makes one evaluation per step, RK4 four), so consecutive starts
        bracket everything the loop does per step.
        """
        starts = [
            self.start[i]
            for i in range(first_span, len(self.names))
            if self.names[i] == "dynam.step" and self.parent[i] == run_span
        ]
        if not starts or steps < 1:
            return
        per = len(starts) // steps
        marks = starts[::per][:steps] + [self.end[run_span]]
        self.step_us.extend((b - a) * 1e6 for a, b in zip(marks, marks[1:]))

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({
                "fields": ["name", "start", "end", "parent"],
                "spans": [
                    [n, s, e, p] for n, s, e, p in zip(self.names, self.start, self.end, self.parent)
                ],
                "counts": dict(self.counts),
            }) + "\n",
            encoding="utf-8",
        )


def call(tr: Tracer | None, name: str, fn: Callable, *args):
    """``fn(*args)``, inside a span when tracing."""
    if tr is None:
        return fn(*args)
    tr.begin(name)
    try:
        return fn(*args)
    finally:
        tr.finish()


def summarize(tr: Tracer, wall: float) -> dict[str, float]:
    """Total and self seconds per span name and per layer, plus the remainder.

    A span's self time is its duration minus the durations of its children;
    ``uncovered_s`` is the part of ``wall`` that no top-level span covers.
    """
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child: list[float] = [0.0] * len(tr.names)
    top = 0.0
    for i, name in enumerate(tr.names):
        d = tr.end[i] - tr.start[i]
        total[name] += d
        calls[name] += 1
        p = tr.parent[i]
        if p >= 0:
            child[p] += d
        else:
            top += d
    self_layer: dict[str, float] = defaultdict(float)
    self_name: dict[str, float] = defaultdict(float)
    for i, name in enumerate(tr.names):
        s = (tr.end[i] - tr.start[i]) - child[i]
        self_name[name] += s
        self_layer[name.split(".", 1)[0]] += s
    out: dict[str, float] = {}
    for name in total:
        out[f"{name}_s"] = total[name]
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_self_s"] = self_name[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_layer.get(layer, 0.0)
    out["trace.uncovered_s"] = wall - top
    return out
