"""Merge/split-point placement — the paper's "simple nonlinear
optimization problem".

For every candidate K-way merging the exact structure (mux and demux
positions) and hence the cost is obtained by minimizing

    F(s, t) = Σ_i f_i(||u_i - s||) + g(||s - t||) + Σ_i h_i(||t - v_i||)

over the merge point ``s`` and split point ``t``, where ``f_i``, ``g``
and ``h_i`` are the point-to-point cost functions of the feeder,
trunk and distributor stages (each the library's cheapest way to carry
that stage's bandwidth over that distance).

Two regimes:

- **Linear costs** (per-unit-priced, unbounded-length links — the WAN
  example): F is jointly convex in (s, t), and we solve it with an
  alternating Weiszfeld iteration (each half-step is a weighted
  Fermat–Weber problem) — fast and accurate to ~1e-9.
- **General costs** (fixed-cost links, segmentation steps — the SoC
  example): F is piecewise-constant/nonconvex; we run multi-start
  Nelder–Mead (scipy) seeded at the anchor points and centroids, using
  the exact cost for evaluation.

Degenerate anchors are honoured: when every source coincides the merge
point is pinned there (no feeders), and symmetrically for the split
point — this is exactly the paper's Example 1, where a4, a5, a6 all
terminate on node D and the demux degenerates into D itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from ..kernels import current_kernels
from ..obs import current_tracer
from .geometry import EUCLIDEAN, Norm, Point, centroid

__all__ = [
    "StageCost",
    "linear_stage",
    "PlacementResult",
    "PlacementProblem",
    "weiszfeld",
    "optimize_two_points",
    "optimize_two_points_batch",
]

#: convergence tolerance for Weiszfeld iterations, relative to the
#: anchor-coordinate spread (so km-scale and mm-scale instances behave
#: identically).  Position error maps at worst quadratically into cost
#: near an interior optimum, so 1e-9 · spread is far below any cost
#: tolerance the synthesis cares about.
_WEISZFELD_RTOL = 1e-9
#: iteration cap of one Weiszfeld solve; every solve that reaches it is
#: counted in the ``placement.max_iter_hits`` obs counter.
_WEISZFELD_MAX_ITER = 2_000
#: smoothing added under square roots to avoid the Weiszfeld singularity
#: when an iterate lands exactly on an anchor.
_EPS = 1e-12


@dataclass(frozen=True)
class StageCost:
    """Cost of one pipeline stage as a function of its length.

    ``fn(d)`` is the exact cost; ``slope`` is the linear coefficient
    when ``is_linear`` (then ``fn(d) == slope * d`` for all d >= 0).
    """

    fn: Callable[[float], float]
    is_linear: bool
    slope: float = 0.0

    def __call__(self, d: float) -> float:
        return self.fn(d)


def linear_stage(slope: float) -> StageCost:
    """A purely per-unit-priced stage."""
    return StageCost(fn=lambda d: slope * d, is_linear=True, slope=slope)


@dataclass(frozen=True)
class PlacementResult:
    """Optimized positions and the exact objective value there."""

    merge_point: Point
    split_point: Point
    cost: float
    iterations: int
    method: str


def _weiszfeld_setup(
    anchors: Sequence[Point],
    weights: Sequence[float],
    start: Optional[Point],
) -> Tuple[Optional[Point], Optional[tuple]]:
    """Shared Weiszfeld preamble: filter, shortcuts, scaling.

    Returns ``(point, None)`` when the problem is solved outright (one
    effective anchor, or an anchor satisfies the exact Fermat–Weber
    optimality condition) or ``(None, task)`` with the iterate-loop
    task tuple for the kernel backend.  Common to the single and
    batched paths, so both see identical shortcut decisions.
    """
    pts = [p for p, w in zip(anchors, weights) if w > 0]
    ws = [w for w in weights if w > 0]
    if not pts:
        raise ValueError("weiszfeld needs at least one positively weighted anchor")
    if len(pts) == 1:
        return pts[0], None

    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    w = np.array(ws, dtype=float)

    anchor = _optimal_anchor(xs, ys, w)
    if anchor is not None:
        return anchor, None

    if start is None:
        cx = float(np.average(xs, weights=w))
        cy = float(np.average(ys, weights=w))
    else:
        cx, cy = start.x, start.y

    spread = max(xs.max() - xs.min(), ys.max() - ys.min(), 1.0)
    tol = _WEISZFELD_RTOL * spread
    smoothing = (_EPS * spread) ** 2
    # Anchor counts are tiny (one per merged arc plus the coupled
    # facility), so the task ships plain float lists: scalar backends
    # iterate them directly, vectorized backends pad them into a batch.
    return None, (xs.tolist(), ys.tolist(), w.tolist(), cx, cy, tol, smoothing)


def weiszfeld(
    anchors: Sequence[Point],
    weights: Sequence[float],
    start: Optional[Point] = None,
) -> Tuple[Point, int]:
    """Weighted Fermat–Weber point: argmin_s Σ w_i ||x_i - s||_2.

    Classic Weiszfeld iteration with ε-smoothing; returns the point and
    the number of iterations used.  Zero-weight anchors are ignored; a
    single effective anchor returns that anchor directly.  The iterate
    loop runs on the active :mod:`repro.kernels` backend (bit-identical
    across backends by contract).
    """
    point, task = _weiszfeld_setup(anchors, weights, start)
    if point is not None:
        return point, 0
    cx, cy, iterations = current_kernels().weiszfeld_run(*task, _WEISZFELD_MAX_ITER)
    return Point(cx, cy), iterations


def _optimal_anchor(xs: np.ndarray, ys: np.ndarray, w: np.ndarray) -> Optional[Point]:
    """Check the Fermat–Weber anchor-optimality condition.

    Anchor ``a_i`` is the optimum iff the pull of the other anchors,
    ``R_i = || Σ_{j: a_j ≠ a_i} w_j (a_j - a_i)/||a_j - a_i|| ||``, does
    not exceed the (coincident-summed) weight at ``a_i``.  Weiszfeld
    converges only sublinearly onto anchor optima, so detecting them
    up front is a large practical speedup (and exact).
    """
    n = xs.size
    # All pairwise rows at once; every entry is the same elementwise
    # expression the per-row formulation computes (no reductions are
    # moved, so the masked sums below keep their exact rounding).
    DX = xs[None, :] - xs[:, None]
    DY = ys[None, :] - ys[:, None]
    DIST = np.sqrt(DX * DX + DY * DY)
    thr = 1e-15 * np.maximum(1.0, DIST.max(axis=1))
    for i in range(n):
        dx = DX[i]
        dy = DY[i]
        dist = DIST[i]
        here = dist <= thr[i]
        weight_here = float(w[here].sum())
        away = ~here
        if not away.any():
            return Point(float(xs[i]), float(ys[i]))
        px = float(np.sum(w[away] * dx[away] / dist[away]))
        py = float(np.sum(w[away] * dy[away] / dist[away]))
        if math.hypot(px, py) <= weight_here * (1 + 1e-12):
            return Point(float(xs[i]), float(ys[i]))
    return None


def _record_weiszfeld_work(iterations: int, max_iter_hits: int, stragglers: int = 0) -> None:
    """Count placement work on the deterministic obs counters.

    Every figure depends only on the problems solved and on how they
    were chunked — never on the worker layout — so serial and ``jobs=N``
    runs report the same totals.  ``stragglers`` are the rows a
    vectorised pump handed to its scalar tail.
    """
    tracer = current_tracer()
    for name, value in (
        ("placement.weiszfeld.iterations", iterations),
        ("placement.max_iter_hits", max_iter_hits),
        ("placement.stragglers", stragglers),
    ):
        if value:
            tracer.count(name, value)


def _objective(
    norm: Norm,
    sources: Sequence[Point],
    sinks: Sequence[Point],
    feeder_costs: Sequence[StageCost],
    trunk_cost: StageCost,
    distributor_costs: Sequence[StageCost],
) -> Callable[[Point, Point], float]:
    def F(s: Point, t: Point) -> float:
        total = trunk_cost(norm.distance(s, t))
        for u, fc in zip(sources, feeder_costs):
            total += fc(norm.distance(u, s))
        for v, hc in zip(sinks, distributor_costs):
            total += hc(norm.distance(t, v))
        return total

    return F


def _all_same(points: Sequence[Point]) -> Optional[Point]:
    first = points[0]
    for p in points[1:]:
        if not first.is_close(p):
            return None
    return first


def optimize_two_points(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    feeder_costs: Sequence[StageCost],
    trunk_cost: StageCost,
    distributor_costs: Sequence[StageCost],
    norm: Norm = EUCLIDEAN,
    polish: bool = True,
) -> PlacementResult:
    """Minimize the merged-implementation cost over (merge, split) points.

    Dispatches on the stage-cost structure: the fully linear Euclidean
    case runs alternating Weiszfeld (convex, certified by a final exact
    evaluation); everything else places with a linear surrogate and,
    when ``polish`` is true (default), refines with Nelder–Mead on the
    exact cost.  ``polish=False`` skips the refinement — much faster on
    floor-style cost surfaces, at a small cost-quality risk — and never
    affects the linear path.  The returned ``cost`` is always the
    *exact* objective at the returned points.
    """
    if not sources or not sinks:
        raise ValueError("need at least one source and one sink")
    if len(sources) != len(feeder_costs) or len(sinks) != len(distributor_costs):
        raise ValueError("one stage-cost per source/sink required")

    F = _objective(norm, sources, sinks, feeder_costs, trunk_cost, distributor_costs)

    pinned_s = _all_same(list(sources))
    pinned_t = _all_same(list(sinks))
    if pinned_s is not None and pinned_t is not None:
        return PlacementResult(pinned_s, pinned_t, F(pinned_s, pinned_t), 0, "degenerate")

    all_linear = (
        trunk_cost.is_linear
        and all(c.is_linear for c in feeder_costs)
        and all(c.is_linear for c in distributor_costs)
    )
    if all_linear and norm.name == "euclidean":
        return _alternating_weiszfeld(
            sources, sinks, feeder_costs, trunk_cost, distributor_costs, F, pinned_s, pinned_t
        )

    # General costs: place with a linear surrogate (slope = average cost
    # density at the instance's own length scale), then polish with
    # Nelder-Mead from that point and a couple of centroid seeds.
    scale = _typical_scale(list(sources) + list(sinks), norm)
    surrogate = _alternating_weiszfeld(
        sources,
        sinks,
        [_linearize(c, scale) for c in feeder_costs],
        _linearize(trunk_cost, scale),
        [_linearize(c, scale) for c in distributor_costs],
        F,
        pinned_s,
        pinned_t,
    )
    if not polish:
        # exact evaluation at the surrogate optimum, no refinement
        return PlacementResult(
            surrogate.merge_point,
            surrogate.split_point,
            F(surrogate.merge_point, surrogate.split_point),
            surrogate.iterations,
            "surrogate",
        )
    return _nelder_mead(
        sources,
        sinks,
        F,
        norm,
        pinned_s,
        pinned_t,
        extra_seeds=[(surrogate.merge_point, surrogate.split_point)],
    )


def _typical_scale(points: Sequence[Point], norm: Norm) -> float:
    """A representative inter-anchor distance for surrogate slopes."""
    if len(points) < 2:
        return 1.0
    total = 0.0
    count = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            total += norm.distance(points[i], points[j])
            count += 1
    mean = total / count
    return mean if mean > 0 else 1.0


def _linearize(cost: StageCost, scale: float) -> StageCost:
    """Linear surrogate of a general stage cost: slope = cost(scale)/scale."""
    if cost.is_linear:
        return cost
    slope = cost(scale) / scale if scale > 0 else 0.0
    if slope <= 0:
        slope = _EPS
    return linear_stage(slope)


def _alternating_weiszfeld(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    feeder_costs: Sequence[StageCost],
    trunk_cost: StageCost,
    distributor_costs: Sequence[StageCost],
    F: Callable[[Point, Point], float],
    pinned_s: Optional[Point],
    pinned_t: Optional[Point],
) -> PlacementResult:
    """Block-coordinate descent on the jointly convex linear objective.

    Each half-step is a weighted Fermat–Weber problem: optimizing ``s``
    for fixed ``t`` sees anchors ``u_i`` (weights = feeder slopes) plus
    ``t`` (weight = trunk slope), and symmetrically for ``t``.
    """
    s = pinned_s if pinned_s is not None else centroid(list(sources))
    t = pinned_t if pinned_t is not None else centroid(list(sinks))
    total_iters = 0
    hits = 0
    prev = F(s, t)
    for _ in range(60):
        if pinned_s is None:
            anchors = list(sources) + [t]
            weights = [c.slope for c in feeder_costs] + [trunk_cost.slope]
            s, it1 = weiszfeld(anchors, weights, start=s)
            total_iters += it1
            hits += it1 >= _WEISZFELD_MAX_ITER
        if pinned_t is None:
            anchors = list(sinks) + [s]
            weights = [c.slope for c in distributor_costs] + [trunk_cost.slope]
            t, it2 = weiszfeld(anchors, weights, start=t)
            total_iters += it2
            hits += it2 >= _WEISZFELD_MAX_ITER
        cur = F(s, t)
        if prev - cur < 1e-12 * max(1.0, abs(prev)):
            break
        prev = cur
    _record_weiszfeld_work(total_iters, hits)
    return PlacementResult(s, t, F(s, t), total_iters, "weiszfeld")


@dataclass(frozen=True)
class PlacementProblem:
    """One :func:`optimize_two_points` call, as data — the unit of
    :func:`optimize_two_points_batch`."""

    sources: Tuple[Point, ...]
    sinks: Tuple[Point, ...]
    feeder_costs: Tuple[StageCost, ...]
    trunk_cost: StageCost
    distributor_costs: Tuple[StageCost, ...]
    norm: Norm = EUCLIDEAN
    polish: bool = True


def optimize_two_points_batch(
    problems: Sequence[PlacementProblem],
) -> List[PlacementResult]:
    """Solve many independent placement problems, batching where it pays.

    Result ``i`` is **bit-identical** to
    ``optimize_two_points(*problems[i])``: problems on the fully-linear
    Euclidean path run their alternating-Weiszfeld rounds in *lockstep*
    (each round's Fermat–Weber half-steps across all still-active
    problems form one kernel batch — the per-problem iterate map is
    unchanged, so the trajectories are the solo ones); every other
    problem (nonlinear costs, non-Euclidean norms, degenerate pinned
    pairs) falls through to the serial solver unchanged.
    """
    results: List[Optional[PlacementResult]] = [None] * len(problems)
    lockstep: List[Tuple[int, tuple]] = []
    for i, p in enumerate(problems):
        if not p.sources or not p.sinks:
            raise ValueError("need at least one source and one sink")
        if len(p.sources) != len(p.feeder_costs) or len(p.sinks) != len(p.distributor_costs):
            raise ValueError("one stage-cost per source/sink required")
        pinned_s = _all_same(list(p.sources))
        pinned_t = _all_same(list(p.sinks))
        all_linear = (
            p.trunk_cost.is_linear
            and all(c.is_linear for c in p.feeder_costs)
            and all(c.is_linear for c in p.distributor_costs)
        )
        if (
            all_linear
            and p.norm.name == "euclidean"
            and not (pinned_s is not None and pinned_t is not None)
        ):
            F = _objective(
                p.norm, p.sources, p.sinks, p.feeder_costs, p.trunk_cost,
                p.distributor_costs,
            )
            lockstep.append((i, (p, F, pinned_s, pinned_t)))
        else:
            results[i] = optimize_two_points(
                p.sources, p.sinks, p.feeder_costs, p.trunk_cost,
                p.distributor_costs, norm=p.norm, polish=p.polish,
            )

    if lockstep:
        solved = _alternating_weiszfeld_lockstep([item for _, item in lockstep])
        for (i, _), res in zip(lockstep, solved):
            results[i] = res
    return results  # type: ignore[return-value]


def _alternating_weiszfeld_lockstep(
    items: Sequence[tuple],
) -> List[PlacementResult]:
    """Run many alternating-Weiszfeld descents through one kernel pump.

    ``items`` are ``(problem, F, pinned_s, pinned_t)`` tuples, all on
    the fully-linear Euclidean path.  Each problem is an independent
    state machine (s half-step → t half-step → round convergence
    check); whenever a half-step needs the iterate loop, its task goes
    into a shared :meth:`~repro.kernels.base.KernelBackend.weiszfeld_pump`
    and the *next* half-step is submitted the moment the previous one
    finishes.  Problems therefore never wait for each other at round
    boundaries — a vectorized backend keeps one wide batch busy instead
    of draining a thinning batch per round — while each problem runs
    the exact serial sequence of half-steps on the exact serial
    iterates: what any single problem computes never changes, only
    which problems happen to iterate together.
    """
    backend = current_kernels()
    m = len(items)
    s: List[Point] = []
    t: List[Point] = []
    prev: List[float] = []
    iters = [0] * m
    rounds = [0] * m
    for p, F, pinned_s, pinned_t in items:
        s.append(pinned_s if pinned_s is not None else centroid(list(p.sources)))
        t.append(pinned_t if pinned_t is not None else centroid(list(p.sinks)))
        prev.append(F(s[-1], t[-1]))

    pump = backend.weiszfeld_pump(_WEISZFELD_MAX_ITER)

    def drive(i: int, phase: str) -> None:
        """Advance problem ``i`` until it submits a pump task or its
        descent converges.  ``phase`` is the next thing to do: "s"/"t"
        half-step or the end-of-round convergence "check"."""
        p, F, pinned_s, pinned_t = items[i]
        while True:
            if phase == "s":
                phase = "t"
                if pinned_s is None:
                    anchors = list(p.sources) + [t[i]]
                    weights = [c.slope for c in p.feeder_costs] + [p.trunk_cost.slope]
                    point, task = _weiszfeld_setup(anchors, weights, s[i])
                    if point is None:
                        pump.inject((i, "s"), task)
                        return
                    s[i] = point
            elif phase == "t":
                phase = "check"
                if pinned_t is None:
                    anchors = list(p.sinks) + [s[i]]
                    weights = [c.slope for c in p.distributor_costs] + [p.trunk_cost.slope]
                    point, task = _weiszfeld_setup(anchors, weights, t[i])
                    if point is None:
                        pump.inject((i, "t"), task)
                        return
                    t[i] = point
            else:  # end of round: the serial convergence test
                rounds[i] += 1
                cur = F(s[i], t[i])
                if prev[i] - cur < 1e-12 * max(1.0, abs(prev[i])) or rounds[i] >= 60:
                    return
                prev[i] = cur
                phase = "s"

    hits = 0
    for i in range(m):
        drive(i, "s")
    while pump.in_flight:
        for (i, side), x, y, it in pump.pump():
            iters[i] += it
            hits += it >= _WEISZFELD_MAX_ITER
            if side == "s":
                s[i] = Point(x, y)
                drive(i, "t")
            else:
                t[i] = Point(x, y)
                drive(i, "check")
    _record_weiszfeld_work(sum(iters), hits, pump.stragglers)

    return [
        PlacementResult(s[i], t[i], items[i][1](s[i], t[i]), iters[i], "weiszfeld")
        for i in range(m)
    ]


def _nelder_mead(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    F: Callable[[Point, Point], float],
    norm: Norm,
    pinned_s: Optional[Point],
    pinned_t: Optional[Point],
    extra_seeds: Optional[Sequence[Tuple[Point, Point]]] = None,
) -> PlacementResult:
    """Multi-start Nelder–Mead over the free coordinates.

    Seeds: the caller-provided warm starts (e.g. the linear-surrogate
    optimum) plus side and global centroids — enough to escape the
    plateaus of floor-style cost functions at the paper's scales while
    keeping the start count small.
    """
    seed_pairs: List[Tuple[Point, Point]] = [
        (
            pinned_s if pinned_s is not None else centroid(list(sources)),
            pinned_t if pinned_t is not None else centroid(list(sinks)),
        )
    ]
    for pair in extra_seeds or []:
        s, t = pair
        seed_pairs.insert(0, (pinned_s or s, pinned_t or t))

    best: Optional[Tuple[float, Point, Point]] = None
    evals = 0

    def pack(s: Point, t: Point) -> np.ndarray:
        coords: List[float] = []
        if pinned_s is None:
            coords += [s.x, s.y]
        if pinned_t is None:
            coords += [t.x, t.y]
        return np.array(coords)

    def unpack(x: np.ndarray) -> Tuple[Point, Point]:
        i = 0
        if pinned_s is None:
            s = Point(x[i], x[i + 1])
            i += 2
        else:
            s = pinned_s
        t = Point(x[i], x[i + 1]) if pinned_t is None else pinned_t
        return s, t

    def fun(x: np.ndarray) -> float:
        s, t = unpack(x)
        return F(s, t)

    for s0, t0 in seed_pairs:
        x0 = pack(s0, t0)
        if x0.size == 0:  # both pinned — handled by caller, defensive here
            cand = (F(s0, t0), s0, t0)
        else:
            res = optimize.minimize(
                fun,
                x0,
                method="Nelder-Mead",
                options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 600},
            )
            evals += int(res.nfev)
            s1, t1 = unpack(res.x)
            cand = (F(s1, t1), s1, t1)
        if best is None or cand[0] < best[0]:
            best = cand

    assert best is not None
    return PlacementResult(best[1], best[2], best[0], evals, "nelder-mead")
