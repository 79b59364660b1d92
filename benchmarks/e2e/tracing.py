"""Timers that observe the program's layers from outside.

Nothing here patches the program.  The benchmark either times a call to
a layer's public function itself (:meth:`Ledger.timed`), or hands the
program a thin duck-typed proxy in place of one of its public protocol
objects -- an online detector, the incremental sessionizer, the
adjudicator, a batch detector, a record frame, the gateway -- and the
proxy times the methods the program calls on it.

Work done inside forked shard workers is recorded through a
:class:`SpanLog`: the proxies the workers inherit append each timed call
to a file, which the parent reads after the join.  ``time.perf_counter``
is the system-wide monotonic clock on Linux, so parent and worker spans
share one time axis.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator


class Ledger:
    """Busy seconds and call counts per layer key, in one process."""

    def __init__(self) -> None:
        self._slots: dict[str, list[float]] = {}

    def _slot(self, key: str) -> list[float]:
        return self._slots.setdefault(key, [0.0, 0])

    @property
    def seconds(self) -> dict[str, float]:
        return {key: slot[0] for key, slot in self._slots.items()}

    @property
    def calls(self) -> dict[str, int]:
        return {key: int(slot[1]) for key, slot in self._slots.items()}

    def wrap(self, key: str, method: Callable[..., Any]) -> Callable[..., Any]:
        """``method``, accumulating its busy time and calls under ``key``."""
        slot = self._slot(key)
        clock = time.perf_counter

        def call(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return method(*args, **kwargs)
            finally:
                slot[0] += clock() - started
                slot[1] += 1

        return call

    @contextmanager
    def timed(self, key: str) -> Iterator[None]:
        slot = self._slot(key)
        started = time.perf_counter()
        try:
            yield
        finally:
            slot[0] += time.perf_counter() - started
            slot[1] += 1

    def total(self, *prefixes: str) -> float:
        """Seconds summed over every key starting with one of ``prefixes``."""
        return sum(slot[0] for key, slot in self._slots.items() if key.startswith(prefixes))


class Durations(list):
    """The duration of every call, in call order."""

    def wrap(self, key: str, method: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        append = self.append

        def call(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return method(*args, **kwargs)
            finally:
                append(clock() - started)

        return call


class SpanLog:
    """Timed calls appended to a file, so forked workers can report them."""

    def __init__(self, path: str) -> None:
        self.path = path

    def wrap(self, key: str, method: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter

        def call(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return method(*args, **kwargs)
            finally:
                ended = clock()
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps([os.getpid(), key, started, ended]) + "\n")

        return call

    def read(self) -> list[tuple[int, str, float, float]]:
        """Every span recorded so far, in file order, as ``(pid, key, start, end)``."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as handle:
            return [tuple(json.loads(line)) for line in handle if line.strip()]


class TimedProxy:
    """Stand in for ``target``, timing the named methods as ``prefix.method``.

    ``sink`` is a :class:`Ledger`, :class:`Durations` or :class:`SpanLog`.
    Every other attribute read or write goes straight to the target.  The
    timed methods, and the target's ``name`` (read on every call by the
    stream engine), are bound once at construction, so the hot path skips
    the delegation lookup.
    """

    def __init__(self, target: Any, methods: Iterable[str], sink: Any, prefix: str) -> None:
        object.__setattr__(self, "_target", target)
        if hasattr(target, "name"):
            object.__setattr__(self, "name", target.name)
        for name in methods:
            object.__setattr__(self, name, sink.wrap(f"{prefix}.{name}", getattr(target, name)))

    def __getattr__(self, name: str) -> Any:
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)

    def __bool__(self) -> bool:
        return bool(object.__getattribute__(self, "_target"))

    def __len__(self) -> int:
        return len(object.__getattribute__(self, "_target"))
