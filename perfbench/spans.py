"""Outside-in spans around lincomp's layers.

The tracer wraps each layer's public function in every lincomp module that
holds it, which is where its callers look it up, so the program itself is
unchanged. Each span records its parent span, its solve, its start and end
(perf_counter seconds) and the field operations counted while it was open,
through an OpCounter of its own (nested counters fold into their parent,
so lincomp's own totals are unaffected). Spans stay in memory until the run
ends.

A function that a refactor removes or renames is reported as a missing span;
the run goes on without it.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _decompose_budget(s, plan, *args, **kwargs) -> int:
    return 3 * (plan.u - 1) * plan.N


def _ggc_budget(s, *args, **kwargs) -> int:
    return 2 * s.spec.p**2 * len(s)


# (home module, function, span name, paper budget from the call's arguments)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("lincomp.cli", "parse_sequence_file", "cli.parse", None),
    ("lincomp.reduction", "plan_reduction", "reduction.plan", None),
    ("lincomp.reduction", "decompose", "reduction.decompose", _decompose_budget),
    ("lincomp.reduction", "compose", "reduction.compose", None),
    ("lincomp.algorithms", "ggc_complexity", "algorithms.ggc", _ggc_budget),
    ("lincomp.poly", "poly_pow", "poly.pow", None),
    ("lincomp.algorithms", "berlekamp_massey", "algorithms.bm", None),
    ("lincomp.sequence", "oracle_lincomp", "sequence.oracle", None),
    ("lincomp.sequence", "verify_recurrence", "sequence.verify_recurrence", None),
)


@dataclass
class Span:
    name: str
    solve: int
    parent: int | None
    start: float
    end: float = 0.0
    ops: int = 0
    budget: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        from lincomp.opcount import OpCounter

        self._counter = OpCounter
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, solve: int, budget: int | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, solve, parent, 0.0, budget=budget)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            with self._counter() as ctr:
                rec.start = perf_counter()
                try:
                    yield rec
                finally:
                    rec.end = perf_counter()
            rec.ops = ctr.total
        finally:
            self._stack.pop()

    def _wrap(self, fn, name: str, budget_of: Callable | None):
        def traced(*args, **kwargs):
            budget = None
            if budget_of is not None:
                try:
                    budget = budget_of(*args, **kwargs)
                except (AttributeError, TypeError):
                    budget = None
            solve = self.spans[self._stack[-1]].solve if self._stack else -1
            with self.span(name, solve, budget):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "lincomp" or key.startswith("lincomp."))
        ]
        try:
            for home, attr, name, budget_of in TARGETS:
                try:
                    original = getattr(importlib.import_module(home), attr, None)
                except ImportError:
                    original = None
                if original is None:
                    self.missing.add(name)
                    continue
                wrapper = self._wrap(original, name, budget_of)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
            yield self
        finally:
            while self._patched:
                mod, attr, original = self._patched.pop()
                setattr(mod, attr, original)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out
