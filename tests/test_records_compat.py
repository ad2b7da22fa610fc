"""On-disk record formats stay byte-compatible.

``tests/fixtures/records/`` holds a checkpoint journal, a persistent
cache directory and a batch results stream written by the code that
predates :mod:`repro.io.records` (each module framed its own lines
then).  They must still load, whole, through the public APIs.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro import CheckpointJournal, synthesize
from repro.batch.stream import load_completed
from repro.core.cache import PersistentCache, persistent_cache
from repro.domains import wan_example
from repro.io.records import frame, parse_record

FIXTURES = Path(__file__).parent / "fixtures" / "records"


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURES / "expected.json").read_text())


def test_old_journal_resumes_whole(tmp_path, expected):
    path = tmp_path / "journal.ckpt"
    shutil.copy(FIXTURES / "journal.ckpt", path)
    journal = CheckpointJournal.open(path, expected["journal_fingerprint"], resume=True)
    try:
        assert journal.tail_report is None
        assert journal.solution is not None
        assert journal.solution.weight == pytest.approx(expected["wan_cost"], rel=1e-12)
    finally:
        journal.close()
    # resuming neither truncated nor rewrote a byte
    assert path.read_bytes() == (FIXTURES / "journal.ckpt").read_bytes()


def test_old_cache_serves_without_discards(tmp_path):
    directory = tmp_path / "cache"
    shutil.copytree(FIXTURES / "cache", directory)
    stored = sum(
        len(path.read_bytes().splitlines()) for path in directory.glob("*.jsonl")
    )
    graph, library = wan_example()
    with persistent_cache(PersistentCache(directory)) as store:
        synthesize(graph, library)
        assert store.stats.corrupt_discarded == 0
        assert store.stats.entries_loaded == stored > 0
        assert store.stats.hits > 0
        store.close()


def test_old_results_stream_loads(expected):
    done = load_completed(FIXTURES / "results.jsonl", require=True)
    assert {r["name"]: r["cost"] for r in done.values()} == expected["results"]


def test_reframing_an_old_line_reproduces_its_bytes():
    for path in [FIXTURES / "journal.ckpt", *sorted((FIXTURES / "cache").glob("*.jsonl"))]:
        for raw in path.read_bytes().splitlines(keepends=True):
            assert frame(parse_record(raw)).encode("utf-8") == raw


def test_integer_keys_of_ten_and_more_survive_a_round_trip():
    # result dicts key candidate counts by arity; arities >= 10 sort
    # differently as integers (when written) and as strings (when read)
    record = {"counts": {2: 20, 9: 10, 10: 1}, "name": "wide"}
    parsed = parse_record(frame(record).encode("utf-8"))
    assert parsed == {"counts": {"2": 20, "9": 10, "10": 1}, "name": "wide"}
