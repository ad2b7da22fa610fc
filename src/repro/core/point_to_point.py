"""Optimum point-to-point arc implementations (Definitions 2.6 / 2.7).

Given one constraint arc with distance ``d`` and bandwidth ``b`` and a
communication library, ``findBestPointToPointImplementation`` (the
paper's step (1)-(4) recipe after Definition 2.7) evaluates, for every
library link type ``l``:

1. **arc matching** — one instance when ``d(l) >= d`` and ``b(l) >= b``;
2. **K-way arc segmentation** — ``K = ceil(d / d(l))`` instances in
   series joined by ``K-1`` repeaters when only the distance fails;
3. **K-way arc duplication** — ``M = ceil(b / b(l))`` instances in
   parallel behind a mux/demux pair when only the bandwidth fails;
4. the **combination** — ``M`` parallel branches of ``K`` segments each
   when both fail;

and returns the cheapest feasible plan as a :class:`PointToPointPlan`.
Plans are pure descriptions — materializing one into an
:class:`~repro.core.implementation.ImplementationGraph` is
:func:`materialize_plan`'s job, so candidate generation can cost
thousands of alternatives without building graphs.

The module also hosts :func:`check_assumption`, the Assumption 2.1
verifier (cost positive and monotone nondecreasing in ``(d, b)`` over
the arcs of a constraint graph).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..obs import current_tracer
from .cache import current_persistent_cache
from .constraint_graph import Arc, ConstraintGraph
from .exceptions import AssumptionViolation, InfeasibleError, LibraryError
from .geometry import Point
from .implementation import ArcImplementationKind, ImplementationGraph, Path
from .library import CommunicationLibrary, Link, NodeKind, NodeSpec

__all__ = [
    "PointToPointPlan",
    "best_point_to_point",
    "point_to_point_cost",
    "make_cost_oracle",
    "materialize_plan",
    "check_assumption",
]


@dataclass(frozen=True)
class PointToPointPlan:
    """A costed recipe implementing one (distance, bandwidth) requirement.

    ``branches`` parallel chains, each made of ``segments`` instances of
    ``link`` in series; ``segments - 1`` repeaters per chain; one
    mux/demux pair when ``branches >= 2``.  ``kind`` names the structure
    per Definition 2.7.
    """

    link: Link
    segments: int
    branches: int
    distance: float
    bandwidth: float
    repeater: Optional[NodeSpec]
    mux: Optional[NodeSpec]
    demux: Optional[NodeSpec]
    cost: float

    @property
    def kind(self) -> ArcImplementationKind:
        """Structural classification (Definition 2.7)."""
        if self.branches == 1:
            return (
                ArcImplementationKind.MATCHING
                if self.segments == 1
                else ArcImplementationKind.SEGMENTATION
            )
        if self.segments == 1:
            return ArcImplementationKind.DUPLICATION
        return ArcImplementationKind.GENERAL

    @property
    def segment_length(self) -> float:
        """Span of each individual link instance (uniform subdivision)."""
        return self.distance / self.segments

    @property
    def branch_bandwidth(self) -> float:
        """Traffic reserved on each parallel branch (balanced split)."""
        return self.bandwidth / self.branches

    @property
    def repeater_count(self) -> int:
        """Total repeaters across all branches."""
        return self.branches * (self.segments - 1)

    @property
    def link_count(self) -> int:
        """Total link instances across all branches."""
        return self.branches * self.segments

    @property
    def max_hops(self) -> int:
        """Communication vertices on one branch's path (a latency
        proxy): interior repeaters, plus the mux/demux pair when the
        plan duplicates."""
        hops = self.segments - 1
        if self.branches > 1:
            hops += 2
        return hops


def _plan_for_link(
    link: Link,
    distance: float,
    bandwidth: float,
    library: CommunicationLibrary,
) -> Optional[PointToPointPlan]:
    """Best plan using only ``link``; ``None`` when structurally infeasible
    (a needed repeater or mux/demux type is absent from the library)."""
    if distance < 0 or bandwidth <= 0:
        raise InfeasibleError(f"degenerate requirement d={distance}, b={bandwidth}")

    if distance == 0.0 or link.can_span(distance):
        segments = 1
    else:
        if math.isinf(link.max_length):  # pragma: no cover - can_span(inf) is always true
            segments = 1
        else:
            segments = int(math.ceil(distance / link.max_length - 1e-12))

    if link.can_carry(bandwidth):
        branches = 1
    else:
        branches = int(math.ceil(bandwidth / link.bandwidth - 1e-12))

    repeater = library.cheapest_node(NodeKind.REPEATER) if segments > 1 else None
    if segments > 1 and repeater is None:
        return None
    mux = library.cheapest_node(NodeKind.MUX) if branches > 1 else None
    demux = library.cheapest_node(NodeKind.DEMUX) if branches > 1 else None
    if branches > 1 and (mux is None or demux is None):
        return None

    per_chain = segments * link.cost_of(distance / segments)
    if repeater is not None:
        per_chain += (segments - 1) * repeater.cost
    cost = branches * per_chain
    if branches > 1:
        cost += mux.cost + demux.cost

    return PointToPointPlan(
        link=link,
        segments=segments,
        branches=branches,
        distance=distance,
        bandwidth=bandwidth,
        repeater=repeater,
        mux=mux,
        demux=demux,
        cost=cost,
    )


def best_point_to_point(
    distance: float,
    bandwidth: float,
    library: CommunicationLibrary,
) -> PointToPointPlan:
    """The minimum-cost point-to-point plan over all library link types.

    Raises :class:`InfeasibleError` when no link type yields a feasible
    structure (e.g. segmentation needed but the library has no
    repeater).  Ties break toward fewer components, then link name, so
    results are deterministic.

    Results are memoized per ``(distance, bandwidth)`` on the library's
    version-keyed :meth:`~repro.core.library.CommunicationLibrary.derived_cache`
    — every merging plan makes ``2K + 1`` calls with heavily repeated
    arguments, and the memo is dropped automatically when the library
    mutates.  Plans are frozen, so sharing one instance is safe.
    """
    cache = library.derived_cache("p2p_plans")
    key = (distance, bandwidth)
    cached = cache.get(key)
    # Hit rates are process-local: parallel workers start with cold
    # memos, so these go to the local (non-deterministic) counters.
    if cached is not None:
        current_tracer().count_local("cache.p2p.hit")
        return cached
    current_tracer().count_local("cache.p2p.miss")
    # cross-run persistent store (repro.core.cache), consulted only on
    # an in-memory memo miss; a hit is the pickled original plan, so
    # cached and recomputed runs are byte-identical.
    store = current_persistent_cache()
    if store is not None:
        found, stored = store.lookup("p2p", library, [distance, bandwidth])
        if found and stored is not None:
            cache[key] = stored
            return stored
    library.validate()
    plans = [
        plan
        for plan in (_plan_for_link(l, distance, bandwidth, library) for l in library.links)
        if plan is not None
    ]
    if not plans:
        raise InfeasibleError(
            f"library {library.name!r} cannot implement a channel with "
            f"d={distance}, b={bandwidth}: every link type needs a repeater or "
            f"mux/demux the library does not provide"
        )
    best = min(plans, key=lambda p: (p.cost, p.link_count, p.link.name))
    if store is not None:
        store.put("p2p", library, [distance, bandwidth], best)
    cache[key] = best
    return best


def point_to_point_cost(distance: float, bandwidth: float, library: CommunicationLibrary) -> float:
    """Cost of the best point-to-point plan (Lemma 2.1's C(P(a)))."""
    return best_point_to_point(distance, bandwidth, library).cost


def make_cost_oracle(bandwidth: float, library: CommunicationLibrary):
    """A fast ``cost(distance)`` closure at fixed bandwidth.

    Algebraically equivalent to
    ``best_point_to_point(d, bandwidth, library).cost`` — note that a
    K-segment chain of an affine-cost link costs
    ``K·cost_fixed + cost_per_unit·d + (K-1)·c(repeater)`` — but avoids
    constructing plan objects, which matters inside the placement
    optimizer's objective (thousands of evaluations per candidate).
    Raises :class:`InfeasibleError` immediately when no link type can
    serve the bandwidth at any distance.
    """
    library.validate()
    repeater = library.cheapest_node(NodeKind.REPEATER)
    mux = library.cheapest_node(NodeKind.MUX)
    demux = library.cheapest_node(NodeKind.DEMUX)
    rep_cost = None if repeater is None else repeater.cost
    muxdemux = None if (mux is None or demux is None) else mux.cost + demux.cost

    # (branches M, duplication overhead, cost_fixed, cost_per_unit,
    #  max_length or None, feasible-without-repeater) per link.
    params = []
    for link in library.links:
        if link.can_carry(bandwidth):
            branches = 1
            overhead = 0.0
        else:
            if muxdemux is None:
                continue
            branches = int(math.ceil(bandwidth / link.bandwidth - 1e-12))
            overhead = muxdemux
        max_len = None if math.isinf(link.max_length) else link.max_length
        params.append((branches, overhead, link.cost_fixed, link.cost_per_unit, max_len))
    if not params:
        raise InfeasibleError(
            f"library {library.name!r} cannot carry bandwidth {bandwidth} at any distance"
        )

    def cost(distance: float) -> float:
        best = math.inf
        for branches, overhead, cf, cu, max_len in params:
            if max_len is None or distance <= max_len * (1 + 1e-12):
                segments = 1
            else:
                if rep_cost is None:
                    continue
                segments = int(math.ceil(distance / max_len - 1e-12))
            per_chain = segments * cf + cu * distance
            if segments > 1:
                per_chain += (segments - 1) * rep_cost
            total = branches * per_chain + overhead
            if total < best:
                best = total
        if math.isinf(best):
            raise InfeasibleError(
                f"no link structure spans distance {distance} at bandwidth {bandwidth}"
            )
        return best

    return cost


def linear_minorant_slope(bandwidth: float, library: CommunicationLibrary) -> float:
    """A slope ``m`` with ``best_point_to_point(d, bandwidth).cost >= m·d``
    for every distance ``d >= 0``.

    Every plan runs ``M`` parallel chains of one link type over the
    whole distance, so it pays at least ``M · cost_per_unit · d``; its
    fixed, repeater and mux/demux costs are nonnegative (the library
    validates them).  The minimum over link types is therefore a linear
    minorant of the cheapest plan.  ``M`` never shrinks as bandwidth
    grows, so neither does the slope: a merging's trunk, which carries
    the summed bandwidth, is bounded below by any member's slope.
    """
    return min(
        (
            (1 if link.can_carry(bandwidth) else math.ceil(bandwidth / link.bandwidth - 1e-12))
            * link.cost_per_unit
            for link in library.links
        ),
        default=0.0,
    )


def materialize_plan(
    graph: ImplementationGraph,
    plan: PointToPointPlan,
    source_name: str,
    target_name: str,
) -> List[Path]:
    """Instantiate ``plan`` between two existing vertices of ``graph``.

    Creates the repeater vertices (evenly spaced on the straight
    source→target segment — uniform subdivision preserves per-segment
    length under any homogeneous norm) and the mux/demux cost-carrying
    vertices for duplication, then returns the list of paths (one per
    branch).  The caller registers the paths against a constraint arc.
    """
    u = graph.vertex(source_name)
    v = graph.vertex(target_name)

    if plan.branches > 1:
        # Definition 2.7 models duplication as parallel direct paths; the
        # mux/demux pair sits at the endpoints as pure cost carriers.
        graph.add_communication_vertex(plan.mux, u.position)
        graph.add_communication_vertex(plan.demux, v.position)

    paths: List[Path] = []
    for _branch in range(plan.branches):
        waypoint_names = [source_name]
        for k in range(1, plan.segments):
            t = k / plan.segments
            pos = Point(
                u.position.x + (v.position.x - u.position.x) * t,
                u.position.y + (v.position.y - u.position.y) * t,
            )
            rep = graph.add_communication_vertex(plan.repeater, pos)
            waypoint_names.append(rep.name)
        waypoint_names.append(target_name)

        arc_names = []
        for a, b in zip(waypoint_names, waypoint_names[1:]):
            inst = graph.add_link_instance(
                plan.link, a, b, bandwidth=plan.branch_bandwidth
            )
            arc_names.append(inst.name)
        paths.append(Path(tuple(arc_names)))
    return paths


def check_assumption(
    graph: ConstraintGraph,
    library: CommunicationLibrary,
    strict: bool = False,
) -> List[str]:
    """Verify Assumption 2.1 over the arcs of ``graph``.

    Checks, for every arc, that the optimum point-to-point cost is
    strictly positive, and for every *comparable* pair of arcs
    (``d(a) <= d(a')`` and ``b(a) <= b(a')``) that costs are ordered the
    same way.  Returns the list of human-readable violations; with
    ``strict=True`` a nonempty list raises
    :class:`AssumptionViolation` instead.
    """
    violations: List[str] = []
    costs = {}
    for arc in graph.arcs:
        c = point_to_point_cost(arc.distance, arc.bandwidth, library)
        costs[arc.name] = c
        if c <= 0:
            violations.append(f"arc {arc.name}: C(P(a)) = {c} is not strictly positive")

    for a, b in itertools.combinations(graph.arcs, 2):
        pairs = ((a, b), (b, a))
        for lo, hi in pairs:
            if lo.distance <= hi.distance and lo.bandwidth <= hi.bandwidth:
                if costs[lo.name] > costs[hi.name] + 1e-9:
                    violations.append(
                        f"arcs {lo.name} <= {hi.name} in (d, b) but "
                        f"C(P({lo.name})) = {costs[lo.name]:.6g} > "
                        f"C(P({hi.name})) = {costs[hi.name]:.6g}"
                    )
    if strict and violations:
        raise AssumptionViolation("; ".join(violations))
    return violations
