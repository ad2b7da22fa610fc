"""``repro.runtime.pool.HealingPool``: the one self-healing process pool.

Trivial picklable tasks only — no synthesis — so each test shows the
ladder itself: one rebuild per broken executor, eager re-dispatch of
everything in flight, a strike per loss, :class:`WorkerLost` after the
second, and no healing once shutdown has begun.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runtime import FaultInjector, FaultSpec
from repro.runtime.pool import HealingPool, WorkerLost


def _double(x, delay=0.0):
    time.sleep(delay)
    return 2 * x


def _fail(message):
    raise ValueError(message)


def _crash(times, after=0):
    """A plan that poisons ``times`` dispatches at site ``t``, once
    ``after`` dispatches went through clean."""
    return FaultInjector([FaultSpec(site="t", kind="worker_crash", times=times, after=after)])


@pytest.fixture
def rebuilt():
    return []


@pytest.fixture
def pool(rebuilt):
    healing = HealingPool(2, on_rebuild=lambda: rebuilt.append(1))
    yield healing
    healing.shutdown(wait=True)


def test_results_and_task_errors_pass_through(pool, rebuilt):
    assert pool.submit(_double, 21).result(timeout=60) == 42
    with pytest.raises(ValueError, match="boom"):
        pool.submit(_fail, "boom").result(timeout=60)
    assert rebuilt == []


def test_one_dead_worker_costs_one_rebuild_and_no_result(rebuilt):
    # three workers, so all three tasks run at once; the last one
    # dispatched dies, so every task is in flight when the executor breaks
    pool = HealingPool(3, on_rebuild=lambda: rebuilt.append(1))
    try:
        with _crash(1, after=2):
            futures = [pool.submit(_double, x, 2.0, fault_site="t") for x in (1, 2, 3)]
            assert [f.result(timeout=60) for f in futures] == [2, 4, 6]
    finally:
        pool.shutdown(wait=True)
    assert rebuilt == [1]
    assert [(f.attempts, f.losses) for f in futures] == [(2, 1)] * 3


def test_task_poisoned_on_both_dispatches_fails_with_worker_lost(pool, rebuilt):
    with _crash(2):
        future = pool.submit(_double, 5, fault_site="t")
        with pytest.raises(WorkerLost):
            future.result(timeout=60)
    assert (future.attempts, future.losses) == (2, 2)
    assert rebuilt == [1, 1]
    # the pool itself is healthy again
    assert pool.submit(_double, 4).result(timeout=60) == 8


def test_submit_to_an_already_broken_executor_heals(pool, rebuilt):
    pool.warm()
    broken = pool.executor
    pool.kill_workers()
    deadline = time.monotonic() + 30
    while not broken._broken:
        assert time.monotonic() < deadline, "killed executor never broke"
        time.sleep(0.01)
    future = pool.submit(_double, 7)
    assert future.result(timeout=60) == 14
    assert rebuilt == [1] and pool.executor is not broken
    assert (future.attempts, future.losses) == (1, 0)


def test_workers_killed_during_shutdown_are_never_redispatched(pool, rebuilt):
    futures = [pool.submit(_double, x, 30.0) for x in range(3)]
    time.sleep(0.2)  # let the workers pick tasks up
    started = time.monotonic()
    pool.shutdown(wait=False, kill=True)
    for future in futures:
        with pytest.raises(WorkerLost):
            future.result(timeout=60)
    assert time.monotonic() - started < 25  # nobody sat out the 30 s task
    assert rebuilt == [] and pool.executor is None
    assert all(f.attempts == 1 for f in futures)
    with pytest.raises(RuntimeError):
        pool.submit(_double, 1)


def test_shutdown_with_wait_leaves_no_worker_alive(pool):
    pids = {pool.submit(os.getpid).result(timeout=60) for _ in range(4)}
    processes = list(pool.executor._processes.values())
    assert pids and pids <= {p.pid for p in processes}
    pool.shutdown(wait=True)
    for process in processes:
        assert not process.is_alive()
        with pytest.raises(ProcessLookupError):
            os.kill(process.pid, 0)
