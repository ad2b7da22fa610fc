"""decompose-cold: in-process ``synthesize(strategy="decompose")`` calls.

Each call solves a fresh placement of the pinned 50-arc islands
(``instances.DECOMPOSE_ISLANDS``) with a fresh library object and no
persistent cache, so every placement solve runs.  The candidates worker
pool runs with one worker per core.
"""

from __future__ import annotations

import os
import threading
import time

from repro import SynthesisOptions, Tracer, compute_matrices, synthesize
from repro.core import certified_partition
from repro.core.exceptions import ValidationError
from repro.core.validation import validate
from repro.domains import wan_library

from . import instances, layers
from .common import Outcome, cost_matches, median, nproc, peak_rss_mb, percentile

#: the repeatable part of set-up (instance generation) is timed this often.
SETUP_REPEATS = 3


def _options() -> SynthesisOptions:
    return SynthesisOptions(strategy="decompose", max_arity=2, polish_placement=False, jobs=nproc())


def _check(outcome: Outcome, graph, result, expected: float) -> None:
    outcome.attempted += 1
    report = result.decomposition
    try:
        validate(result.implementation, graph)
    except ValidationError as exc:
        outcome.fail(f"{graph.name}: Definition 2.4 validation failed: {exc}")
        return
    if report is None or not report.certified or report.gap_bound != 0.0:
        outcome.fail(f"{graph.name}: decomposition not certified with gap_bound 0")
    elif not cost_matches(result.total_cost, expected):
        outcome.fail(f"{graph.name}: cost {result.total_cost!r} != pinned {expected!r}")


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    outcome = Outcome()
    options = _options()

    started = time.perf_counter()
    synthesize(instances.warmup_graph(), wan_library(), options)
    warmup_s = time.perf_counter() - started
    generation = []
    for call in range(SETUP_REPEATS):
        started = time.perf_counter()
        instances.decompose_instance(seed, call)
        generation.append(time.perf_counter() - started)
    setup_s = import_s + warmup_s + median(generation)

    walls, traced_walls, covered = [], [], 0.0
    layer_total: dict = {}
    tracers = []
    partition_s = 0.0
    cost = p2p = 0.0
    deadline = time.perf_counter() + seconds
    call = 0
    while call == 0 or time.perf_counter() < deadline:
        graph, expected = instances.decompose_instance(seed, call)
        # traced runs alternate which of the pair goes first, so the
        # pair's first-call effects do not bias trace.overhead_frac
        order = ((False, True) if call % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            tracer = Tracer(label=f"decompose-cold call {call}") if traced else None
            start_ns = time.perf_counter_ns()
            result = synthesize(graph, wan_library(), options, trace=tracer or False)
            end_ns = time.perf_counter_ns()
            _check(outcome, graph, result, expected)
            if not traced:
                walls.append((end_ns - start_ns) / 1e9)
                cost += result.total_cost
                p2p += result.point_to_point_cost
                continue
            traced_walls.append((end_ns - start_ns) / 1e9)
            covered += layers.covered_s(tracer, os.getpid(), threading.get_ident(), start_ns, end_ns)
            layers.add_into(layer_total, layers.tracer_metrics(tracer))
            tracers.append(tracer)
            matrices = compute_matrices(graph)
            library = wan_library()
            started = time.perf_counter()
            labels, _, _ = certified_partition(matrices, library)
            partition_s += time.perf_counter() - started
            if len(set(labels.tolist())) != result.decomposition.n_clusters:
                outcome.fail(f"{graph.name}: certified_partition disagrees with the run's clusters")
        call += 1

    if not trace:
        outcome.metrics = {
            "setup_s": setup_s,
            "solve_s": median(walls),
            "instances_per_s": len(walls) / sum(walls),
            "latency_p50_ms": 1000.0 * median(walls),
            "latency_p95_ms": 1000.0 * percentile(walls, 95),
            "design_cost_ratio": cost / p2p,
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome
    metrics = layers.finish_layer_metrics(layer_total, call)
    metrics["decompose.partition_s"] = partition_s / call
    metrics["trace.overhead_frac"] = sum(traced_walls) / sum(walls) - 1.0
    metrics["trace.unattributed_frac"] = 1.0 - covered / sum(traced_walls)
    outcome.metrics = metrics
    outcome.layer_table = layers.span_table(tracers)
    outcome.notes = {"calls": call, "arcs_per_call": len(graph)}
    return outcome
