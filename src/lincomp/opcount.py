"""Field-operation accounting.

Counters are context-local: entering an OpCounter makes it the active
accumulator for the current task, and on exit its tally is folded into
whatever counter was active around it (merge by summation). There is no
global running tally, so concurrent tasks each accumulate independently.
"""

from __future__ import annotations

from contextvars import ContextVar

_ACTIVE: ContextVar["OpCounter | None"] = ContextVar("lincomp_op_counter", default=None)


class OpCounter:
    """Counts field operations executed while it is the active scope."""

    __slots__ = ("total", "_outer", "_token")

    def __init__(self) -> None:
        self.total = 0

    def __enter__(self) -> "OpCounter":
        self._outer = _ACTIVE.get()
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.reset(self._token)
        if self._outer is not None:
            self._outer.total += self.total

    def __repr__(self) -> str:
        return f"OpCounter(total={self.total})"


def tally(n: int = 1) -> None:
    """Report n field operations to the active counter, if there is one."""
    counter = _ACTIVE.get()
    if counter is not None:
        counter.total += n
