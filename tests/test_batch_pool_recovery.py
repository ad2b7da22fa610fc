"""Batch mode's pool ladder: a dead worker never costs a result.

``run_batch(jobs=N)`` solves through a
:class:`~repro.runtime.pool.HealingPool` whose dispatches consult the
parent-side ``batch.dispatch`` fault site; a ``worker_crash`` fault
there kills the worker that picks the instance up.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.batch import discover_corpus, run_batch, stable_result_dict
from repro.batch.stream import load_stream_records
from repro.core import synthesize
from repro.io import load_instance, save_instance
from repro.netgen import clustered_graph, two_tier_library
from repro.obs import Tracer, tracing
from repro.runtime import FaultInjector, FaultSpec


def _corpus(directory: Path, count: int):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        graph = clustered_graph(
            n_clusters=2, ports_per_cluster=3, n_arcs=4, separation=100.0, seed=i
        )
        save_instance(directory / f"inst{i:02d}.json", graph, two_tier_library())
    return discover_corpus(directory)


def _results(path: Path):
    """Each streamed record's name, status and stable result dict."""
    return [(r["name"], r["status"], r["result"]) for r in load_stream_records(path)]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return _corpus(tmp_path_factory.mktemp("batch-crash"), 3)


@pytest.fixture(scope="module")
def clean(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("clean") / "results.jsonl"
    summary = run_batch(corpus, jobs=2, results_path=path)
    assert summary.ok and summary.worker_recoveries == 0
    return _results(path)


def test_crashed_worker_streams_the_clean_records(corpus, clean, tmp_path):
    path = tmp_path / "results.jsonl"
    tracer = Tracer(label="batch-crash")
    spec = FaultSpec(site="batch.dispatch", kind="worker_crash", times=1)
    with tracing(tracer), FaultInjector([spec]):
        summary = run_batch(corpus, jobs=2, results_path=path)
    assert summary.ok and summary.completed == len(corpus)
    assert _results(path) == clean
    assert summary.worker_recoveries >= 1
    assert tracer.local_counters["batch.worker_recoveries"] == summary.worker_recoveries


def test_twice_lost_instance_is_rescued_in_process(corpus, tmp_path):
    one = corpus[:1]
    spec = FaultSpec(site="batch.dispatch", kind="worker_crash", times=2)
    with FaultInjector([spec]):
        summary = run_batch(one, jobs=2, results_path=tmp_path / "results.jsonl")
    (record,) = summary.records
    assert record["status"] == "ok"
    assert summary.worker_recoveries == 2
    graph, library = load_instance(one[0].path)
    assert record["result"] == stable_result_dict(synthesize(graph, library))
