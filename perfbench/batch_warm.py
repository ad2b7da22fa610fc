"""batch-warm: ``run_batch`` over a corpus whose cache set-up filled.

Set-up writes the corpus (instances of two pinned 40-arc islands each)
and runs one cold ``run_batch`` pass into a fresh persistent cache, so
cache writes land in ``setup_s``.  The timed passes re-run the same
corpus with one worker per core against that cache: placement is
served from it, while cache loading, covering, and the batch pool and
result stream still run.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import InstanceRef, SynthesisOptions, Tracer, run_batch, synthesize
from repro.domains import wan_library
from repro.io import save_instance
from repro.obs import tracing

from . import instances, layers
from .common import OUT_DIR, Outcome, cost_matches, median, nproc, peak_rss_mb, percentile

#: set-up (corpus + cold cache fill) is repeated this often; the last
#: repetition's cache serves the timed passes.
SETUP_REPEATS = 2
OPTIONS = SynthesisOptions(strategy="decompose", max_arity=2, polish_placement=False)


class _ProgressClock:
    """A ``progress`` stream for ``run_batch`` that notes when each
    instance's one-line report arrives (its record is in the stream)."""

    def __init__(self) -> None:
        self.times: List[float] = []

    def write(self, text: str) -> int:
        self.times.extend(time.perf_counter() for _ in range(text.count("\n")))
        return len(text)

    def flush(self) -> None:
        pass


def _write_corpus(seed: int, rep: int, directory: Path) -> Tuple[List[InstanceRef], Dict[str, float]]:
    directory.mkdir(parents=True, exist_ok=True)
    refs, expected = [], {}
    for name, graph, cost in instances.batch_corpus(seed, rep):
        path = directory / f"{name}.json"
        save_instance(path, graph, wan_library())
        refs.append(InstanceRef(name, path))
        expected[name] = cost
    return refs, expected


def _check(outcome: Outcome, summary, expected: Dict[str, float]) -> None:
    for record in summary.records:
        outcome.attempted += 1
        name = record["name"]
        decomposition = (record.get("result") or {}).get("decomposition") or {}
        if record["status"] != "ok":
            # "ok" also means the Definition 2.4 validator passed: the
            # batch solves with validate_result=True and a validation
            # error turns the record into a failure.
            outcome.fail(f"{name}: status {record['status']}: {record.get('error')}")
        elif not decomposition.get("certified") or decomposition.get("gap_bound") != 0.0:
            outcome.fail(f"{name}: decomposition not certified with gap_bound 0")
        elif not cost_matches(record.get("cost"), expected[name]):
            outcome.fail(f"{name}: cost {record.get('cost')!r} != pinned {expected[name]!r}")


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    outcome = Outcome()
    jobs = nproc()
    work = OUT_DIR / f"work-batch-warm-{os.getpid()}"
    try:
        return _run(outcome, work, jobs, seed, seconds, trace, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(outcome, work, jobs, seed, seconds, trace, import_s) -> Outcome:
    started = time.perf_counter()
    synthesize(instances.warmup_graph(), wan_library(), OPTIONS)
    warmup_s = time.perf_counter() - started

    fills = []
    for rep in range(SETUP_REPEATS):
        rep_dir = work / f"rep{rep}"
        started = time.perf_counter()
        refs, expected = _write_corpus(seed, rep, rep_dir / "corpus")
        summary = run_batch(refs, options=OPTIONS, jobs=jobs, cache_dir=rep_dir / "cache",
                            results_path=rep_dir / "cold.jsonl")
        fills.append(time.perf_counter() - started)
        _check(outcome, summary, expected)
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(rep_dir, ignore_errors=True)
    setup_s = import_s + warmup_s + median(fills)
    cache = rep_dir / "cache"

    walls, elapsed, pass_means, latencies = [], [], [], []
    cache_counts: Dict[str, float] = {}
    recoveries = 0
    cost = p2p = 0.0
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        clock = _ProgressClock()
        started = time.perf_counter()
        summary = run_batch(refs, options=OPTIONS, jobs=jobs, cache_dir=cache,
                            results_path=rep_dir / f"warm{passes}.jsonl", progress=clock)
        walls.append(time.perf_counter() - started)
        _check(outcome, summary, expected)
        latencies.extend(1000.0 * (t - started) for t in clock.times)
        elapsed.extend(r["elapsed_s"] for r in summary.records)
        pass_means.append(sum(r["elapsed_s"] for r in summary.records) / len(summary.records))
        recoveries += summary.worker_recoveries
        layers.add_into(cache_counts, {k: float(v) for k, v in summary.cache.items()})
        for record in summary.records:
            result = record.get("result") or {}
            cost += result.get("total_cost", 0.0)
            p2p += result.get("point_to_point_cost", 0.0)
        passes += 1

    if not trace:
        outcome.metrics = {
            "setup_s": setup_s,
            "solve_s": median(pass_means),
            "instances_per_s": median([len(refs) / w for w in walls]),
            "latency_p50_ms": median(latencies),
            "latency_p95_ms": percentile(latencies, 95),
            "design_cost_ratio": cost / p2p,
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome

    # traced: the same corpus in-process, untraced then traced, so the
    # synthesize spans land in the benchmark's tracer.
    started = time.perf_counter()
    summary = run_batch(refs, options=OPTIONS, jobs=1, cache_dir=cache,
                        results_path=rep_dir / "serial.jsonl")
    untraced_s = time.perf_counter() - started
    _check(outcome, summary, expected)
    tracer = Tracer(label="batch-warm serial pass")
    with tracing(tracer):
        start_ns = time.perf_counter_ns()
        summary = run_batch(refs, options=OPTIONS, jobs=1, cache_dir=cache,
                            results_path=rep_dir / "traced.jsonl")
        end_ns = time.perf_counter_ns()
    _check(outcome, summary, expected)
    traced_s = (end_ns - start_ns) / 1e9
    covered = layers.covered_s(tracer, os.getpid(), threading.get_ident(), start_ns, end_ns)

    metrics = layers.finish_layer_metrics(layers.tracer_metrics(tracer), 1)
    hits, misses = cache_counts.get("hits", 0.0), cache_counts.get("misses", 0.0)
    metrics.update(layers.cache_probe(cache, [wan_library()]))
    metrics.update({
        "cache.hits": hits / passes,
        "cache.misses": misses / passes,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "batch.instance_s_p50": median(elapsed),
        "batch.instance_s_max": max(elapsed),
        "batch.idle_frac": 1.0 - sum(elapsed) / (jobs * sum(walls)),
        "batch.worker_recoveries": recoveries / passes,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_frac": 1.0 - covered / traced_s,
    })
    outcome.metrics = metrics
    outcome.layer_table = layers.span_table([tracer])
    outcome.notes = {"passes": passes, "corpus": len(refs), "jobs": jobs}
    return outcome
