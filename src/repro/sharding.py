"""One executor for visitor-sharded work, batch and stream alike.

Every stateful signal the detectors compute is keyed by visitor, so a
run partitions cleanly by client IP: :func:`shard_of` places each
visitor on one shard, and :func:`run_shards` runs one task per shard and
returns the results in shard order.

With ``workers > 1`` and ``fork`` available, each shard runs in its own
forked process.  The task -- a closure over inputs the caller
partitioned beforehand -- reaches the children through one module
global set just before the forks and cleared after, so the inputs are
inherited copy-on-write and only the results travel back, each over its
own one-way pipe.  Otherwise the shards run one after another in the
calling process; the results are the same.

A shard that raises, or a worker that exits without a result (killed by
a signal, out of memory), fails the whole run with a
:class:`~repro.exceptions.ShardError` naming the shard, and no worker is
left running.  Workers share nothing with the parent's metrics
registry, profiler or metrics server: a task that wants telemetry
records into its own registry and returns the snapshot with its result.
"""

from __future__ import annotations

import multiprocessing
import traceback
import zlib
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Callable, TypeVar, cast

from repro.exceptions import ShardError

T = TypeVar("T")

#: The task of the run in flight, inherited by the forked workers.
_TASK: Callable[[int], object] | None = None


def shard_of(client_ip: str, shards: int) -> int:
    """The shard a visitor belongs to (stable across processes and runs).

    ``zlib.crc32`` rather than ``hash()`` because the latter is salted
    per process, which would scatter one visitor across shards between
    the parent and forked workers.
    """
    return zlib.crc32(client_ip.encode("utf-8")) % shards


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def forks(workers: int) -> bool:
    """Whether :func:`run_shards` runs ``workers`` shards in forked processes."""
    return workers > 1 and fork_available()


def run_shards(task: Callable[[int], T], workers: int) -> list[T]:
    """``[task(0), ..., task(workers - 1)]``, one forked worker per shard when possible.

    Raises :class:`~repro.exceptions.ShardError` when a shard fails.
    """
    if workers < 1:
        raise ShardError(f"workers must be at least 1, got {workers}")
    if forks(workers):
        return _run_forked(task, workers)
    results: list[T] = []
    for index in range(workers):
        try:
            results.append(task(index))
        except Exception as exc:
            raise ShardError(f"shard {index} failed: {exc!r}") from exc
    return results


def _run_forked(task: Callable[[int], T], workers: int) -> list[T]:
    global _TASK
    context = multiprocessing.get_context("fork")
    processes: list[BaseProcess] = []
    receivers: list[Connection] = []
    _TASK = task
    try:
        for index in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_serve, args=(index, sender), name=f"repro-shard-{index}"
            )
            process.start()
            # The worker now holds the only write end: its death reads as
            # EOF on the receiver.
            sender.close()
            processes.append(process)
            receivers.append(receiver)
        results: dict[int, T] = {}
        while len(results) < workers:
            ready = wait([receivers[i] for i in range(workers) if i not in results])
            for index, receiver in enumerate(receivers):
                if receiver in ready:
                    results[index] = cast(T, _receive(index, receiver, processes[index]))
        return [results[index] for index in range(workers)]
    except BaseException:
        for process in processes:
            if process.is_alive():
                process.kill()
        raise
    finally:
        _TASK = None
        for process in processes:
            process.join()
        for receiver in receivers:
            receiver.close()


def _receive(index: int, receiver: Connection, process: BaseProcess) -> object:
    """One worker's result, or the :class:`ShardError` its failure becomes."""
    try:
        reply: tuple[bool, object, str] = receiver.recv()
    except EOFError:
        process.join()
        raise ShardError(f"shard {index} worker died (exit code {process.exitcode})") from None
    ok, payload, remote_traceback = reply
    if not ok:
        error = ShardError(f"shard {index} failed: {payload}")
        error.add_note(remote_traceback)
        raise error
    return payload


def _serve(index: int, sender: Connection) -> None:
    """A worker's body: run the inherited task and send back one reply."""
    assert _TASK is not None
    try:
        reply: tuple[bool, object, str] = (True, _TASK(index), "")
    except Exception as exc:
        reply = (False, repr(exc), traceback.format_exc())
    sender.send(reply)
