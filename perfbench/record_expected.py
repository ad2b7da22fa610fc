"""Pin the optimum cost of every pool member in ``expected.json``.

Run from the repository root after a change that is *meant* to change
costs, review the diff, and commit it with the change::

    python3 perfbench/record_expected.py

Islands are solved with the exact strategy (no partition involved) and
the result is cross-checked against the decompose strategy the
workloads use; each pool member is also solved once more under a rigid
motion, which must reproduce the pinned cost to rel 1e-9.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from repro import SynthesisOptions, synthesize  # noqa: E402
from repro.domains import wan_library  # noqa: E402
from repro.netgen import two_tier_library  # noqa: E402

from perfbench import instances  # noqa: E402

REL = 1e-9


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL)


def _island_cost(pool_seed: int, arcs: int) -> float:
    graph = instances.island(pool_seed, arcs)
    exact = synthesize(
        graph, wan_library(), SynthesisOptions(strategy="exact", max_arity=2, ucp_solver="ilp")
    )
    options = SynthesisOptions(strategy="decompose", max_arity=2, polish_placement=False)
    moved = instances.compose_islands(
        "check", (pool_seed,), arcs, np.random.default_rng(pool_seed)
    )
    for graph_ in (graph, moved):
        got = synthesize(graph_, wan_library(), options).total_cost
        if not _same(got, exact.total_cost):
            raise SystemExit(f"island {pool_seed}/{arcs}: decompose {got} != exact {exact.total_cost}")
    return exact.total_cost


def _fresh_cost(pool_seed: int) -> float:
    options = SynthesisOptions(strategy="exact", max_arity=instances.FRESH_MAX_ARITY)
    cost = synthesize(instances.fresh_graph(pool_seed), two_tier_library(), options).total_cost
    moved = instances.moved_fresh("check", pool_seed, np.random.default_rng(pool_seed))
    got = synthesize(moved, two_tier_library(), options).total_cost
    if not _same(got, cost):
        raise SystemExit(f"fresh {pool_seed}: moved copy costs {got}, pinned {cost}")
    return cost


def main() -> int:
    expected = {
        "islands50": {
            str(s): _island_cost(s, instances.DECOMPOSE_ARCS) for s in instances.DECOMPOSE_ISLANDS
        },
        "islands40": {
            str(s): _island_cost(s, instances.BATCH_ARCS)
            for s in range(2 * instances.BATCH_INSTANCES)
        },
        "fresh8": {str(s): _fresh_cost(s) for s in instances.FRESH_POOL},
    }
    instances.EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {instances.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
