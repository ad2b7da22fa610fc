"""The self-healing process pool (``repro.runtime.pool``).

``ProcessPoolExecutor`` is fail-stop: one worker that dies abruptly
(segfault, OOM kill, ``os._exit``) breaks the whole executor, and every
pending future raises ``BrokenProcessPool``.  :class:`HealingPool` owns
the one recovery ladder that candidate planning, batch mode and
``repro serve`` share:

1. **rebuild** — the first loss seen on an executor replaces it, once:
   a generation counter under a lock keeps the other losses of the
   same executor from rebuilding again;
2. **re-dispatch** — every task the dead executor held is submitted
   to the new one with one strike, as the loss of its future comes in
   (a broken executor fails them all at once, in submission order);
3. **rescue** — a task lost twice is not tried a third time: its
   future fails with :class:`WorkerLost`, and the caller solves it in
   its own process.  The rescue stays with the caller because the
   tracer is a ``ContextVar`` and the budget and the ambient cache
   belong to the caller's thread.

Callers get :class:`PoolFuture` objects that the pool resolves itself,
from whichever thread sees the worker's result; sync callers block on
``.result()``, asyncio callers ``await asyncio.wrap_future(...)``.

Every dispatch, re-dispatches included, consults the caller-named
``fault_site`` in the parent process: a ``worker_crash`` fault there
sends a call that ``os._exit``\\ s the worker picking it up — the same
break a segfault would cause.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from concurrent.futures import Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from .faults import WorkerCrashFault, fault_point

__all__ = ["HealingPool", "PoolFuture", "WorkerLost"]

#: a task lost this many times fails with :class:`WorkerLost`.
_STRIKES = 2


class WorkerLost(RuntimeError):
    """A task's worker died on both of its dispatches, or the pool was
    shut down under it; the caller decides what happens to the task."""


class PoolFuture(Future):
    """The caller's handle on one task, plus how the task has run."""

    def __init__(self) -> None:
        super().__init__()
        #: pool dispatches so far (the first one plus re-dispatches).
        self.attempts = 0
        #: workers lost while running (or holding) this task.
        self.losses = 0
        #: ``time.monotonic()`` of the latest dispatch.
        self.dispatched_at: Optional[float] = None


def _die() -> None:
    os._exit(13)  # uncatchable, no cleanup: what a segfault looks like


class _Task:
    __slots__ = ("fn", "args", "site", "future", "generation")

    def __init__(self, fn: Callable[..., Any], args: Tuple[Any, ...], site: Optional[str]):
        self.fn = fn
        self.args = args
        self.site = site
        self.future = PoolFuture()
        #: the executor generation of the latest dispatch.
        self.generation = 0


def _lost(inner: Future) -> bool:
    return inner.cancelled() or isinstance(inner.exception(), BrokenProcessPool)


def _deliver(future: Future, inner: Future) -> None:
    with contextlib.suppress(InvalidStateError):  # the caller cancelled it
        if inner.exception() is None:
            future.set_result(inner.result())
        else:
            future.set_exception(inner.exception())


def _fail(future: Future, why: str) -> None:
    with contextlib.suppress(InvalidStateError):
        future.set_exception(WorkerLost(why))


def _kill(executor: Optional[ProcessPoolExecutor]) -> None:
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        with contextlib.suppress(Exception):
            process.kill()


class HealingPool:
    """A :class:`ProcessPoolExecutor` of ``workers`` processes that
    heals itself (see the module docstring).

    The executor starts lazily, at the first :meth:`submit` or
    :meth:`warm`.  ``on_rebuild`` is called once per rebuild, from the
    thread that saw the loss, so callers keep their own recovery
    counters.
    """

    def __init__(
        self,
        workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        on_rebuild: Optional[Callable[[], None]] = None,
    ) -> None:
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self._on_rebuild = on_rebuild
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        #: side effects that must run outside the lock (callbacks that
        #: may fire at once, future settling, ``on_rebuild``).
        self._after: List[Callable[[], None]] = []
        self._closed = False

    @property
    def executor(self) -> Optional[ProcessPoolExecutor]:
        """The live executor, or None before the first dispatch, between
        a rebuild and the next dispatch, and after shutdown."""
        return self._executor

    # ------------------------------------------------------------------
    def submit(
        self, fn: Callable[..., Any], *args: Any, fault_site: Optional[str] = None
    ) -> PoolFuture:
        """Run ``fn(*args)`` in a worker; raises RuntimeError after
        :meth:`shutdown`."""
        task = _Task(fn, args, fault_site)
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a HealingPool after shutdown")
            self._dispatch(task)
        self._flush()
        return task.future

    def warm(self) -> None:
        """Start the executor and its workers now, not at the first task."""
        with self._lock:
            executor = self._ensure()
            for _ in range(self.workers):
                executor.submit(os.getpid)

    def kill_workers(self) -> None:
        """SIGKILL every worker.  While the pool is open this heals like
        any crash; once :meth:`shutdown` has begun, the tasks it strands
        fail with :class:`WorkerLost` and nothing is re-dispatched."""
        _kill(self._executor)

    def shutdown(self, wait: bool = True, kill: bool = False) -> None:
        """Close the pool and its executor, cancelling queued tasks.

        ``kill=True`` kills the workers first, so a stuck task cannot
        hold the shutdown; ``wait=True`` joins every worker.
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if kill:
            _kill(executor)
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    # ------------------------------------------------------------------
    # internals: the lock is held in every method below except _flush
    # and _on_done, which take it.
    # ------------------------------------------------------------------
    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._executor

    def _dispatch(self, task: _Task) -> None:
        fn, args = task.fn, task.args
        if task.site is not None:
            try:
                fault_point(task.site)
            except WorkerCrashFault:
                fn, args = _die, ()
        while True:
            try:
                inner = self._ensure().submit(fn, *args)
                break
            except BrokenProcessPool:
                # broken before its futures failed: heal, then retry
                self._rebuild()
        task.generation = self._generation
        task.future.attempts += 1
        task.future.dispatched_at = time.monotonic()
        self._after.append(partial(inner.add_done_callback, partial(self._on_done, task)))

    def _rebuild(self) -> None:
        """Replace the current, broken executor (the next dispatch
        starts a fresh one)."""
        self._generation += 1
        broken, self._executor = self._executor, None
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        if self._on_rebuild is not None:
            self._after.append(self._on_rebuild)

    def _on_done(self, task: _Task, inner: Future) -> None:
        with self._lock:
            if not _lost(inner):
                self._after.append(partial(_deliver, task.future, inner))
            elif self._closed:
                self._after.append(partial(_fail, task.future, "pool shut down"))
            else:
                # the first loss seen on an executor replaces it; the
                # other tasks it held come here with an older generation
                if task.generation == self._generation:
                    self._rebuild()
                task.future.losses += 1
                if task.future.losses >= _STRIKES:
                    self._after.append(partial(_fail, task.future, "worker lost twice"))
                else:
                    self._dispatch(task)
        self._flush()

    def _flush(self) -> None:
        while True:
            with self._lock:
                actions, self._after = self._after, []
            if not actions:
                return
            for action in actions:
                action()
