"""The closed-form merge cost bound and the placement skip it drives.

``MergeCostBound`` must never exceed the cost of a plan the placement
layer actually builds — on every domain library, every built-in norm,
with hop penalties, and on the degenerate geometries that pin the merge
or split point.  Skipping by it must not change any candidate that can
matter to an optimal cover, nor the cover itself.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import (
    CHEBYSHEV,
    EUCLIDEAN,
    MANHATTAN,
    ConstraintGraph,
    Point,
    SynthesisOptions,
    generate_candidates,
    synthesize,
)
from repro.core.merging import MergeCostBound, build_merging_plan, provably_dominated
from repro.core.validation import validate
from repro.domains import soc_example, wan_library
from repro.domains.conformance import CONFORMANCE_CASES
from repro.netgen import clustered_graph
from repro.obs import Tracer, tracing

#: one (library, length scale, bandwidths) per conformance domain; the
#: bandwidths are the domain's own plus values either side of every
#: link capacity, so members of one merge can need different link types
DOMAINS = {}
for _name, (_builder, _) in CONFORMANCE_CASES.items():
    _graph, _library = _builder()
    DOMAINS[_name] = (
        _library,
        float(np.median([a.distance for a in _graph.arcs])),
        sorted(
            {a.bandwidth for a in _graph.arcs}
            | {f * link.bandwidth for link in _library.links for f in (0.5, 1.5)}
        ),
    )

SHAPES = ("random", "collinear", "coincident", "shared-source", "shared-sink")


def island(seed: int, arcs: int, **kwargs) -> ConstraintGraph:
    """A dense single-cluster instance, as in the decompose benchmark."""
    return clustered_graph(
        n_clusters=1, n_arcs=arcs, separation=0.0, seed=seed, ports_per_cluster=12,
        cluster_spread=5.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0, **kwargs,
    )


def _merge_graph(data, norm, scale, bandwidths, k, shape) -> ConstraintGraph:
    coord = st.floats(0.0, 1.0, allow_nan=False)

    def point() -> Point:
        return Point(data.draw(coord) * scale, data.draw(coord) * scale)

    graph = ConstraintGraph(norm=norm)
    if shape == "collinear":
        angle = data.draw(st.floats(0.0, 3.2))
        direction = Point(np.cos(angle), np.sin(angle))
        for i in range(k):
            graph.add_port(f"u{i}", direction * (data.draw(coord) * scale))
            graph.add_port(f"v{i}", direction * (data.draw(coord) * scale))
    else:
        shared_u, shared_v = point(), point()
        for i in range(k):
            same_u = shape in ("coincident", "shared-source")
            same_v = shape in ("coincident", "shared-sink")
            graph.add_port(f"u{i}", shared_u if same_u else point())
            graph.add_port(f"v{i}", shared_v if same_v else point())
    for i in range(k):
        graph.add_channel(f"a{i}", f"u{i}", f"v{i}", bandwidth=data.draw(st.sampled_from(bandwidths)))
    return graph


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bound_never_exceeds_planned_cost(domain, data):
    library, scale, bandwidths = DOMAINS[domain]
    norm = data.draw(st.sampled_from((EUCLIDEAN, EUCLIDEAN, MANHATTAN, CHEBYSHEV)))
    k = data.draw(st.sampled_from((2, 2, 3)))
    shape = data.draw(st.sampled_from(SHAPES))
    hop_penalty = data.draw(st.sampled_from((0.0, 0.0, 0.5 * scale)))
    graph = _merge_graph(data, norm, scale, bandwidths, k, shape)
    names = [a.name for a in graph.arcs]
    plan = build_merging_plan(
        graph, names, library, polish_placement=data.draw(st.booleans())
    )
    if plan is None:
        return  # e.g. the summed trunk bandwidth is beyond the library
    bound = MergeCostBound(graph.arcs, library, norm, hop_penalty=hop_penalty)
    lb = float(bound.lower_bounds(np.array([range(k)]))[0])
    cost = plan.cost + hop_penalty * plan.max_hops
    assert lb <= cost * (1 + 1e-12) + 1e-12, (domain, shape, lb, cost)


def test_bound_is_zero_without_mux(two_arc_graph):
    from repro import CommunicationLibrary, Link

    lib = CommunicationLibrary("no-mux")
    lib.add_link(Link("slow", bandwidth=11.0, cost_per_unit=2.0))
    bound = MergeCostBound(two_arc_graph.arcs, lib, EUCLIDEAN)
    assert bound.lower_bounds(np.array([[0, 1]])).tolist() == [0.0]


def test_skip_margin_is_strict():
    weights = np.array([10.0, 10.0, 10.0])
    lbs = np.array([10.0, 10.0 * (1 + 1e-10), 10.0 * (1 + 1e-8)])
    assert provably_dominated(lbs, weights).tolist() == [False, False, True]


def _assert_skip_sound(graph, library, **options) -> int:
    """``skip_dominated`` removes only merges costlier than their
    singletons, ``drop_dominated`` keeps exactly the merges that cost
    less, bit for bit, and the bound stays below every planned cost;
    returns how many merges the bound skipped."""
    full = generate_candidates(graph, library, **options)
    skip_only = generate_candidates(graph, library, skip_dominated=True, **options)
    skipped = generate_candidates(graph, library, drop_dominated=True, **options)
    weight = {c.arc_names[0]: c.cost for c in full.point_to_point}

    def singletons(c):
        return sum(weight[a] for a in c.arc_names)

    kept = {c.arc_names for c in skip_only.mergings}
    assert [(c.arc_names, c.cost) for c in skip_only.mergings] == [
        (c.arc_names, c.cost) for c in full.mergings if c.arc_names in kept
    ]
    assert all(c.cost > singletons(c) for c in full.mergings if c.arc_names not in kept)
    assert len(full.mergings) - len(kept) == skip_only.stats.pruned_cost_bound
    useful = [(c.arc_names, c.cost) for c in full.mergings if c.cost < singletons(c) - 1e-12]
    assert [(c.arc_names, c.cost) for c in skipped.mergings] == useful
    bound = MergeCostBound(
        graph.arcs, library, graph.norm, hop_penalty=options.get("hop_penalty", 0.0)
    )
    index = {a.name: i for i, a in enumerate(graph.arcs)}
    for k in sorted(full.stats.survivors_by_k):
        merges = full.mergings_of_arity(k)
        if not merges:
            continue
        lbs = bound.lower_bounds(np.array([[index[a] for a in c.arc_names] for c in merges]))
        costs = np.array([c.cost for c in merges])
        assert np.all(lbs <= costs * (1 + 1e-12))
    assert skipped.stats.pruning_survivors_by_k == full.stats.pruning_survivors_by_k
    assert skipped.stats.retired_at_k == full.stats.retired_at_k
    return skipped.stats.pruned_cost_bound


def test_skip_sound_under_manhattan_norm():
    graph = island(3, 20, norm=MANHATTAN)
    _assert_skip_sound(graph, wan_library(), max_arity=3, polish_placement=False)


def test_skip_sound_on_soc_fixed_cost_library():
    graph, library = soc_example()
    _assert_skip_sound(graph, library, max_arity=3)


def test_skip_sound_with_hop_penalty():
    skipped = _assert_skip_sound(
        island(4, 20), wan_library(), max_arity=2, polish_placement=False, hop_penalty=50.0
    )
    assert skipped > 0


def test_skip_sound_with_heterogeneous_point_to_point():
    _assert_skip_sound(
        island(5, 20), wan_library(), max_arity=2, polish_placement=False, heterogeneous=True
    )


def test_skip_sound_on_euclidean_triples():
    skipped = _assert_skip_sound(island(6, 16), wan_library(), max_arity=3, polish_placement=False)
    assert skipped > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_skip_keeps_useful_candidates_and_cover_on_pinned_islands(seed):
    graph = island(seed, 50)
    options = dict(max_arity=2, polish_placement=False)
    plain = synthesize(graph, wan_library(), SynthesisOptions(**options))
    skipping = synthesize(graph, wan_library(), SynthesisOptions(drop_dominated=True, **options))
    weight = {c.arc_names[0]: c.cost for c in plain.candidates.point_to_point}

    def useful(result):
        return [
            (c.arc_names, c.cost)
            for c in result.candidates.mergings
            if c.cost < sum(weight[a] for a in c.arc_names) - 1e-12
        ]

    assert useful(skipping) == useful(plain)
    assert skipping.candidates.stats.pruned_cost_bound > 0
    assert skipping.total_cost == pytest.approx(plain.total_cost, rel=1e-12)
    validate(plain.implementation, graph)
    validate(skipping.implementation, graph)


def test_decompose_accounting_balances():
    graph = clustered_graph(
        n_clusters=2, n_arcs=40, separation=200.0, seed=7, ports_per_cluster=10,
        cluster_spread=5.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0,
    )
    tracer = Tracer(label="accounting")
    with tracing(tracer):
        result = synthesize(
            graph, wan_library(),
            SynthesisOptions(strategy="decompose", max_arity=2, polish_placement=False),
        )
    counters = tracer.counters
    stats = result.candidates.stats
    assert result.decomposition.n_clusters == 2
    assert stats.pruned_cost_bound > 0
    assert counters["candidates.pruned.cost_bound"] == stats.pruned_cost_bound
    assert counters["candidates.plans.built"] + stats.pruned_cost_bound == sum(
        stats.pruning_survivors_by_k.values()
    )
    exact = synthesize(graph, wan_library(), SynthesisOptions(max_arity=2, polish_placement=False))
    assert result.total_cost == pytest.approx(exact.total_cost, rel=1e-9)
