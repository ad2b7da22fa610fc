"""Planning-chunk boundaries and the deterministic placement counters.

Chunk boundaries are a function of an arity's group count alone, so a
serial and a pool run cut identical chunks: journals replay across
``jobs`` settings, and per-chunk work counters (Weiszfeld iterations,
scalar-tail stragglers, iteration-cap hits) add up to the same totals.
"""

from __future__ import annotations

import pytest

from repro import CheckpointJournal, generate_candidates
from repro.core.candidates import _chunked, _plan_chunk_size
from repro.domains import wan_library
from repro.netgen import clustered_graph
from repro.obs import Tracer, tracing

PLACEMENT_COUNTERS = (
    "placement.weiszfeld.iterations",
    "placement.stragglers",
    "placement.max_iter_hits",
)


@pytest.fixture(scope="module")
def island():
    return clustered_graph(
        n_clusters=1, n_arcs=24, separation=0.0, seed=11, ports_per_cluster=12,
        cluster_spread=5.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0,
    )


def _groups(n, tag):
    return [(f"{tag}{i}", f"{tag}{i + 1}") for i in range(n)]


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 255, 510, 4096, 5000])
def test_boundaries_depend_only_on_group_count(n):
    first = _chunked(_groups(n, "a"))
    second = _chunked(list(reversed(_groups(n, "z"))))
    assert [len(c) for c in first] == [len(c) for c in second]
    assert sum(len(c) for c in first) == n
    assert all(32 <= _plan_chunk_size(n) <= 512 for _ in first)


def test_510_groups_give_several_chunks():
    assert len(_chunked(_groups(510, "g"))) >= 2


def _fingerprint(cs):
    return [(c.arc_names, c.cost, c.plan) for c in cs.all]


@pytest.mark.parametrize("first_jobs,second_jobs", [(1, 2), (2, 1)])
def test_journal_replays_every_chunk_across_jobs(island, tmp_path, first_jobs, second_jobs):
    options = dict(max_arity=2, polish_placement=False)
    path = tmp_path / "j.ckpt"
    journal = CheckpointJournal.open(path, "fp")
    fresh = generate_candidates(island, wan_library(), jobs=first_jobs, journal=journal, **options)
    recorded = journal.chunks_recorded
    journal.close()
    assert recorded >= 2

    journal = CheckpointJournal.open(path, "fp", resume=True)
    resumed = generate_candidates(
        island, wan_library(), jobs=second_jobs, journal=journal, **options
    )
    journal.close()
    assert resumed.stats.chunks_replayed == recorded
    assert _fingerprint(resumed) == _fingerprint(fresh)
    assert resumed.stats.survivors_by_k == fresh.stats.survivors_by_k


def _placement_counters(graph, jobs):
    tracer = Tracer(label=f"jobs={jobs}")
    with tracing(tracer):
        generate_candidates(graph, wan_library(), max_arity=2, polish_placement=False, jobs=jobs)
    return {name: tracer.counters.get(name, 0) for name in PLACEMENT_COUNTERS}


def test_placement_counters_identical_serial_parallel_and_repeated(island):
    serial = _placement_counters(island, None)
    assert serial["placement.weiszfeld.iterations"] > 0
    assert _placement_counters(island, 2) == serial
    assert _placement_counters(island, None) == serial
