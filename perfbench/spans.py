"""Spans and counters recorded around calls into demtrack, from outside it.

A :class:`Tracer` replaces module-level names (and a few class attributes)
with wrappers that record a span (name, start, end, parent, run id) or bump
a counter, and puts the originals back on :meth:`Tracer.restore`. Only names
the library looks up at call time can be wrapped this way. Per-step plugin
calls are deliberately left alone: wrapping them doubles the cost of the
simulation loop they sit in.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store; spans of one iteration share ``run``."""

    def __init__(self):
        self.spans: list[tuple | None] = []   # (name, start, end, parent, run)
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run = 0
        self._open: list[tuple[int, str]] = []
        self._patched: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._open[-1][1] if self._open else None

    def add(self, name: str, value: float = 1) -> None:
        self.counts[(self.run, name)] += value

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            idx = len(self.spans)
            self.spans.append(None)
            self._open.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[idx] = (name, start, end, parent, self.run)
            if on_return is not None:
                on_return(result)
            return result

        self._replace(owner, attr, traced)

    def count(self, owner, attr: str, name: str, on_return=None) -> None:
        """Count the calls of ``owner.attr`` under ``name`` without a span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[(self.run, name)] += 1
            result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        self._replace(owner, attr, counted)

    def _replace(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans and counters as JSON."""
        doc = {
            "spans": [
                dict(zip(("name", "start", "end", "parent", "run"), s))
                for s in self.spans
                if s is not None
            ],
            "counts": [
                {"run": run, "name": name, "value": value}
                for (run, name), value in sorted(self.counts.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def run_summary(tracer: Tracer, run: int) -> dict[str, float]:
    """Total seconds (``<span>.s``) and calls (``<span>.calls``) per span name.

    Also gives ``verify.self_s``: the time inside verify-module spans that no
    span of another module covers. For every top-level verify span, the
    outermost non-verify spans below it plus its verify self time add up to
    its duration; a ``ValueError`` is raised if they do not, or if a span
    does not lie inside its parent, or if siblings overlap.
    """
    spans = tracer.spans
    idx = [i for i, s in enumerate(spans) if s is not None and s[4] == run]
    children: dict[int | None, list[int]] = defaultdict(list)
    for i in idx:
        children[spans[i][3]].append(i)

    def duration(i: int) -> float:
        return spans[i][2] - spans[i][1]

    totals: dict[str, float] = defaultdict(float)
    for i in idx:
        name, start, end = spans[i][:3]
        totals[f"{name}.s"] += end - start
        totals[f"{name}.calls"] += 1
        prev_end = start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            if spans[j][1] < prev_end or spans[j][2] > end:
                raise ValueError(f"span {spans[j][0]} is not nested in {name}")
            prev_end = spans[j][2]

    verify_self = 0.0
    for top in children[None]:
        if _module(spans[top][0]) != "verify":
            continue
        own = covered = 0.0
        pending = [top]
        while pending:
            i = pending.pop()
            own += duration(i) - sum(duration(j) for j in children[i])
            for j in children[i]:
                if _module(spans[j][0]) == "verify":
                    pending.append(j)
                else:
                    covered += duration(j)
        if abs(covered + own - duration(top)) > 1e-6 * max(1.0, duration(top)):
            raise ValueError(f"child spans and self time do not add up to {spans[top][0]}")
        verify_self += own
    totals["verify.self_s"] = verify_self
    return dict(totals)
