"""Per-layer figures from the ``repro.obs`` spans and counters a run collected.

The program already opens a span at each layer boundary; this module
only reads them.  Layers, by span name:

- partition: ``decompose.partition``
- point-to-point: ``candidates.p2p``
- pruning: ``candidates.prune``
- placement: ``candidates.plan``
- covering: ``covering.build``, ``covering.solve``
- materialize/validate: ``materialize``, ``validate``

These spans never nest in one another, so the share of a call's wall
time that none of them covers is the time no layer accounts for.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import PersistentCache
from repro.obs import metrics_dict

LAYER_SPANS = (
    "decompose.partition",
    "candidates.p2p",
    "candidates.prune",
    "candidates.plan",
    "covering.build",
    "covering.solve",
    "materialize",
    "validate",
)

#: per-layer metric -> span whose wall time it reports.
_SPAN_METRICS = {
    "decompose.partition_s": "decompose.partition",
    "candidates.p2p_s": "candidates.p2p",
    "candidates.prune_s": "candidates.prune",
    "placement.plan_s": "candidates.plan",
    "covering.build_s": "covering.build",
    "covering.solve_s": "covering.solve",
    "materialize_s": "materialize",
    "validate_s": "validate",
}
#: the per-layer metrics that are layer-span wall times.
LAYER_METRICS = tuple(_SPAN_METRICS)
#: per-layer metric -> deterministic counter it reports.
_COUNTER_METRICS = {
    "candidates.subsets_enumerated": "candidates.subsets.enumerated",
    "candidates.pruned_lemma_3_2": "candidates.pruned.lemma_3_2",
    "placement.plans_built": "candidates.plans.built",
    "covering.ilp_lp_solves": "covering.ilp.lp_solves",
    "covering.bnb_nodes": "covering.bnb.nodes",
}
#: per-layer metric -> gauge it reports (one value per synthesize call).
_GAUGE_METRICS = {
    "decompose.clusters": "decompose.clusters",
    "covering.columns": "covering.columns",
}


def call_metrics(metrics: Mapping[str, Any]) -> Dict[str, float]:
    """Layer figures of one synthesize call, from its
    :func:`repro.obs.metrics_dict` block (also what ``repro serve``
    returns for a request sent with ``"trace": true``)."""
    walls: Dict[str, float] = defaultdict(float)
    for span in metrics.get("spans", ()):
        walls[span["name"]] += span["wall_s"]
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    out = {name: walls.get(span, 0.0) for name, span in _SPAN_METRICS.items()}
    out.update({name: float(counters.get(c, 0)) for name, c in _COUNTER_METRICS.items()})
    out.update({name: float(gauges.get(g, 0.0)) for name, g in _GAUGE_METRICS.items()})
    return out


def tracer_metrics(tracer) -> Dict[str, float]:
    """Layer figures summed over every synthesize call ``tracer`` saw.

    Gauges keep only their last value, so with several calls on one
    tracer the per-call gauges are rebuilt from span records instead:
    one ``decompose.cluster`` span per cluster, and the covering
    columns are the candidates each ``candidates.generate`` produced.
    """
    out = call_metrics(metrics_dict(tracer))
    records = tracer.records
    out["decompose.clusters"] = float(sum(r.name == "decompose.cluster" for r in records))
    columns = 0
    for rec in records:
        if rec.name == "candidates.generate":
            args = dict(rec.args)
            columns += args.get("point_to_point", 0) + args.get("mergings", 0)
    out["covering.columns"] = float(columns)
    return out


def add_into(total: Dict[str, float], part: Mapping[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def finish_layer_metrics(total: Mapping[str, float], operations: int) -> Dict[str, float]:
    """Per-operation means of summed call figures, plus ``ms_per_plan``."""
    n = max(1, operations)
    out = {key: value / n for key, value in total.items()}
    plans = total.get("placement.plans_built", 0.0)
    out["placement.ms_per_plan"] = (
        1000.0 * total.get("placement.plan_s", 0.0) / plans if plans else 0.0
    )
    return out


def _self_times(records: Sequence) -> List[Tuple[Any, int]]:
    """``(record, self_ns)``: wall minus the walls of direct children,
    nesting recovered per process and thread from the intervals."""
    by_thread: Dict[Tuple[int, int], List] = defaultdict(list)
    for rec in records:
        by_thread[(rec.pid, rec.tid)].append(rec)
    out = []
    for recs in by_thread.values():
        recs.sort(key=lambda r: (r.start_ns, r.depth))
        children_ns: Dict[int, int] = defaultdict(int)
        stack: List = []
        for rec in recs:
            while stack and stack[-1].start_ns + stack[-1].wall_ns <= rec.start_ns:
                stack.pop()
            if stack:
                children_ns[id(stack[-1])] += rec.wall_ns
            stack.append(rec)
        out.extend((rec, rec.wall_ns - children_ns[id(rec)]) for rec in recs)
    return out


def span_table(tracers: Iterable) -> List[Dict[str, Any]]:
    """Calls, wall and self time per span name over every traced call."""
    rows: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for tracer in tracers:
        for rec, self_ns in _self_times(tracer.records):
            row = rows.get(rec.name)
            if row is None:
                row = rows[rec.name] = {"span": rec.name, "calls": 0, "wall_s": 0.0, "self_s": 0.0}
                order.append(rec.name)
            row["calls"] += 1
            row["wall_s"] += rec.wall_ns / 1e9
            row["self_s"] += self_ns / 1e9
    return [rows[name] for name in order]


def covered_s(tracer, pid: int, tid: int, start_ns: int, end_ns: int) -> float:
    """Seconds of ``[start_ns, end_ns]`` on one thread that some layer span covers."""
    spans = sorted(
        (max(r.start_ns, start_ns), min(r.start_ns + r.wall_ns, end_ns))
        for r in tracer.records
        if r.name in LAYER_SPANS and r.pid == pid and r.tid == tid
    )
    covered, reach = 0, start_ns
    for lo, hi in spans:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered / 1e9


def cache_probe(directory: Path, libraries: Sequence, spaces=("p2p", "merge")) -> Dict[str, float]:
    """Load a whole cache store into a fresh handle: one timed first
    ``PersistentCache.lookup`` per (space, library)."""
    store = PersistentCache(directory)
    started = time.perf_counter()
    for library in libraries:
        for space in spaces:
            store.lookup(space, library, ["perfbench-probe"])
    load_s = time.perf_counter() - started
    store.close()
    return {
        "cache.load_s": load_s,
        "cache.entries_loaded": float(store.stats.entries_loaded),
        "cache.bytes": float(sum(p.stat().st_size for p in Path(directory).glob("*.jsonl"))),
    }


def format_table(title: str, rows: Sequence[Mapping[str, Any]], metrics: Mapping[str, float],
                 env: Optional[Mapping[str, Any]] = None) -> str:
    """The human-readable layer table printed at the end of a traced run."""
    lines = [title]
    if env:
        lines.append("  " + ", ".join(f"{k}={v}" for k, v in env.items()))
    lines.append(f"  {'span':<34} {'calls':>7} {'wall_s':>10} {'self_s':>10}")
    for row in rows:
        self_s = row.get("self_s")
        self_txt = f"{self_s:>10.4f}" if self_s is not None else f"{'-':>10}"
        lines.append(f"  {row['span']:<34} {row['calls']:>7} {row['wall_s']:>10.4f} {self_txt}")
    lines.append(f"  {'metric':<34} {'value':>18}")
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:>18.6g}")
    return "\n".join(lines)
