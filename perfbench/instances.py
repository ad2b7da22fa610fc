"""Seeded inputs for the three workloads.

Solve time on random clustered instances is heavy-tailed: one 50-arc
island may cover in 0.05 s and the next in 10 s.  A run that drew fresh
islands from the seed would measure which islands it drew, not the
program.  So every workload is built from *pinned pools* of islands,
and the seed decides where each island sits:

- an island is ``clustered_graph(n_clusters=1, ...)`` for a pool seed;
- the benchmark seed rotates it about its centre and places it on a
  ring (a rigid motion), and renames its ports and arcs.

A rigid motion keeps every distance, so the optimum cost of an
instance is the sum of its islands' pinned costs (``expected.json``),
while every coordinate, and so every cache key, is new.  Arc order
inside an island is kept, so the work done is the same on every seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import ConstraintGraph, Point
from repro.domains.conformance import CONFORMANCE_CASES
from repro.io import constraint_graph_to_dict, library_to_dict
from repro.netgen import clustered_graph, two_tier_library

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: decompose-cold: every call solves these pool islands together.
DECOMPOSE_ISLANDS = (0, 1, 2)
DECOMPOSE_ARCS = 50
#: batch-warm: instance i of the corpus holds islands 2i and 2i+1.
BATCH_INSTANCES = 6
BATCH_ARCS = 40
#: serve-mixed: fresh (cold) exact instances cycle through this pool.
FRESH_POOL = tuple(range(20))
#: pool seed of every warm-up instance: outside all pools above.
WARMUP_SEED = 1000

_ISLAND = dict(
    ports_per_cluster=12, cluster_spread=5.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0
)
#: island centres sit on a ring this far from the origin (km, as in
#: the WAN library) - far enough that no merging spans two islands.
_RING_RADIUS = 500.0
#: serve-mixed fresh instances: small enough for the exact strategy.
_FRESH = dict(n_clusters=2, ports_per_cluster=3, n_arcs=8, separation=100.0)
FRESH_MAX_ARITY = 3


def island(pool_seed: int, arcs: int) -> ConstraintGraph:
    """One pinned island, centred on the origin."""
    return clustered_graph(n_clusters=1, n_arcs=arcs, separation=0.0, seed=pool_seed, **_ISLAND)


def fresh_graph(pool_seed: int) -> ConstraintGraph:
    """One pinned small instance of the serve-mixed fresh pool."""
    return clustered_graph(seed=pool_seed, **_FRESH)


def _place(
    out: ConstraintGraph, graph: ConstraintGraph, prefix: str, angle: float, centre: Point
) -> None:
    """Copy ``graph`` into ``out`` rotated by ``angle`` about the origin,
    shifted to ``centre``, with ``prefix`` on every port and arc name."""
    cos, sin = math.cos(angle), math.sin(angle)
    for port in graph.ports:
        x, y = port.position.x, port.position.y
        out.add_port(
            prefix + port.name,
            Point(centre.x + cos * x - sin * y, centre.y + sin * x + cos * y),
            module=prefix + (port.module or ""),
        )
    for arc in graph.arcs:
        out.add_channel(
            prefix + arc.name, prefix + arc.source.name, prefix + arc.target.name,
            bandwidth=arc.bandwidth,
        )


def compose_islands(
    name: str, pool_seeds: Sequence[int], arcs: int, rng: np.random.Generator
) -> ConstraintGraph:
    """The pool islands ``pool_seeds`` as one instance, placed by ``rng``."""
    out = ConstraintGraph(name=name)
    base = float(rng.uniform(0.0, 2.0 * math.pi))
    for j, pool_seed in enumerate(pool_seeds):
        phi = base + 2.0 * math.pi * j / len(pool_seeds)
        centre = Point(_RING_RADIUS * math.cos(phi), _RING_RADIUS * math.sin(phi))
        spin = float(rng.uniform(0.0, 2.0 * math.pi))
        _place(out, island(pool_seed, arcs), f"i{j}", spin, centre)
    return out


def moved_fresh(name: str, pool_seed: int, rng: np.random.Generator) -> ConstraintGraph:
    """A fresh-pool instance under a seeded rigid motion."""
    out = ConstraintGraph(name=name)
    spin = float(rng.uniform(0.0, 2.0 * math.pi))
    shift = Point(float(rng.uniform(-1e3, 1e3)), float(rng.uniform(-1e3, 1e3)))
    _place(out, fresh_graph(pool_seed), "", spin, shift)
    return out


def load_expected() -> Dict[str, Dict[str, float]]:
    """Pinned optimum costs of every pool member (see ``record_expected.py``)."""
    return json.loads(EXPECTED_PATH.read_text())


def decompose_instance(seed: int, call: int) -> Tuple[ConstraintGraph, float]:
    """The instance of one timed decompose-cold call, and its optimum cost."""
    rng = np.random.default_rng([seed, call])
    expected = load_expected()["islands50"]
    graph = compose_islands(f"dc-s{seed}-c{call}", DECOMPOSE_ISLANDS, DECOMPOSE_ARCS, rng)
    return graph, sum(expected[str(s)] for s in DECOMPOSE_ISLANDS)


def batch_corpus(seed: int, rep: int) -> List[Tuple[str, ConstraintGraph, float]]:
    """The batch-warm corpus: ``(name, graph, optimum cost)`` per instance.

    ``rep`` numbers the set-up repetitions of one run: each gets new
    placements, so no repetition finds another's entries in a cache.
    """
    expected = load_expected()["islands40"]
    corpus = []
    for i in range(BATCH_INSTANCES):
        rng = np.random.default_rng([seed, rep, i])
        seeds = (2 * i, 2 * i + 1)
        name = f"bw-s{seed}-r{rep}-i{i}"
        graph = compose_islands(name, seeds, BATCH_ARCS, rng)
        corpus.append((name, graph, sum(expected[str(s)] for s in seeds)))
    return corpus


def warmup_graph() -> ConstraintGraph:
    """A small decompose instance from a seed outside every pool."""
    return compose_islands("warmup", (WARMUP_SEED,), 30, np.random.default_rng(WARMUP_SEED))


def instance_doc(graph: ConstraintGraph, library) -> Dict:
    """The ``instance`` object of a ``POST /v1/synthesize`` body."""
    return {"constraint_graph": constraint_graph_to_dict(graph), "library": library_to_dict(library)}


def conformance_docs() -> Dict[str, Dict]:
    """name -> submission body for each of the eight conformance instances."""
    docs = {}
    for name, (builder, max_arity) in CONFORMANCE_CASES.items():
        graph, library = builder()
        options = {} if max_arity is None else {"max_arity": max_arity}
        docs[name] = {"instance": instance_doc(graph, library), "options": options}
    return docs


def fresh_doc(name: str, pool_seed: int, rng: np.random.Generator) -> Dict:
    """Submission body of one fresh (cold) exact instance."""
    graph = moved_fresh(name, pool_seed, rng)
    return {
        "instance": instance_doc(graph, two_tier_library()),
        "options": {"strategy": "exact", "max_arity": FRESH_MAX_ARITY},
    }

