"""Spans around the simulator's public layer functions, recorded from the
benchmark's own files.

A :class:`Tracer` replaces each chosen function with a timing wrapper at
every place a caller looks it up (the defining module, every module that
imported the name, and the class for methods), keeps one span per call in
compact in-memory columns, and puts every original back on :meth:`restore`.
Nothing in the simulator queues or waits: it is one synchronous thread, so
spans carry busy time only.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Sequence

# Phase codes stored with each span.
PHASES = ("setup", "train", "eval", "centralized")
# Attribute set on every wrapper, so leftovers can be found after restore.
TRACED_MARK = "__bench_traced__"


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals (children may nest further or overlap one another)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        kids = children.get(i)
        covered = (
            union_length(((start[c], end[c]) for c in kids), start[i], end[i]) if kids else 0.0
        )
        out.append((end[i] - start[i]) - covered)
    return out


class Tracer:
    """In-memory span recorder with install/restore of function wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase = array("b")
        self.ctx = array("i")  # round id in training, repeat id in eval, else -1
        self.value = array("d")  # per-call measurement, NaN when none
        self.phase_code = 0
        self.ctx_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def set_phase(self, phase: str) -> None:
        self.phase_code = PHASES.index(phase)
        self.ctx_id = -1

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Callable | None = None,
        measure: Callable | None = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``before(args, kwargs)`` may update the context id before the span is
        opened; ``measure(args, kwargs, result)`` stores one number with it.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.phase.append(self.phase_code)
            self.ctx.append(self.ctx_id)
            self.value.append(math.nan)
            self.end.append(0.0)
            stack.append(i)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if measure is not None:
                self.value[i] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        setattr(traced, TRACED_MARK, True)
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` wherever a module of the same package holds
        that same function object under any name."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **hooks)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, key, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_id]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ms, self_ms, us_per_call."""
        selfs = self_times(self.start, self.end, self.parent)
        table: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for n in self.names
        }
        for i, nid in enumerate(self.name_id):
            row = table[self.names[nid]]
            row["calls"] += 1
            row["total_ms"] += (self.end[i] - self.start[i]) * 1e3
            row["self_ms"] += selfs[i] * 1e3
        for row in table.values():
            row["us_per_call"] = row["total_ms"] * 1e3 / row["calls"] if row["calls"] else 0.0
        return table

    def by_parent(self, child: str, parents: Iterable[str]) -> list[int]:
        """Indices of spans named ``child`` whose direct parent is one of
        ``parents``."""
        cid = self._name_ids.get(child)
        pids = {self._name_ids[p] for p in parents if p in self._name_ids}
        return [
            i
            for i, nid in enumerate(self.name_id)
            if nid == cid and self.parent[i] >= 0 and self.name_id[self.parent[i]] in pids
        ]

    def columns(self) -> dict[str, list]:
        """The spans as plain columns, for writing out when the run ends."""
        return {
            "names": list(self.names),
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "phase": [PHASES[p] for p in self.phase],
            "ctx": list(self.ctx),
            "value": [None if math.isnan(v) else v for v in self.value],
        }
