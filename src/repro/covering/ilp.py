"""Exact 0-1 ILP over the covering formulation.

The paper observes that the synthesis optimization "can be seen as a
special case of 0-1 integer linear programming".  This module makes
that concrete: it states the covering instance as

    minimize    w·x
    subject to  A x >= 1   (one inequality per row)
                x ∈ {0,1}^n

and hands it whole to the HiGHS MIP solver (:func:`scipy.optimize.milp`)
with ``mip_rel_gap=0``, so a completed solve is proven optimal to
within HiGHS's absolute objective tolerance, which the weight scaling
in :func:`solve_ilp` makes ~2e-12 of the largest column weight.  It is
intentionally *library-agnostic* of the covering reductions — it serves
as an independently-implemented cross-check of
:mod:`repro.covering.bnb`, as the engine for large decompose clusters,
and as the "plain ILP" arm of the UCP ablation benchmark.

The matrix is built in declaration order (rows as ``problem.rows``,
columns as ``problem.columns``, row indices sorted within a column) and
HiGHS is deterministic on a given matrix, so among several optima of
equal weight the selection is a function of the problem alone.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
from scipy import optimize, sparse

from ..core.exceptions import BudgetExceeded, CoveringError
from ..obs import current_tracer
from ..runtime.budget import Budget, BudgetTracker, as_tracker
from ..runtime.checkpoint import CheckpointJournal
from .matrix import CoverSolution, CoveringProblem

__all__ = ["solve_ilp"]


def solve_ilp(
    problem: CoveringProblem,
    max_nodes: int = 200_000,
    budget: Union[Budget, BudgetTracker, None] = None,
    journal: Optional[CheckpointJournal] = None,
) -> CoverSolution:
    """Solve the covering instance as a 0-1 ILP; exact.

    Raises :class:`CoveringError` on infeasibility.  When ``max_nodes``,
    the budget's node cap or its deadline stops HiGHS early,
    :class:`BudgetExceeded` carries the best feasible cover known (if
    any) as ``.partial``.  ``stats`` holds HiGHS's ``nodes``, its dual
    bound as ``lower_bound`` and its relative ``gap``.

    ``journal`` seeds the solve from the best recorded incumbent and
    records the cover HiGHS returns when it strictly improves on it,
    mirroring :func:`repro.covering.bnb.solve_cover`.
    """
    problem.validate_coverable()
    tracker = as_tracker(budget)
    tracer = current_tracer()
    cols = problem.columns
    if not cols:
        if problem.n_rows == 0:
            return CoverSolution(column_names=(), weight=0.0, optimal=True)
        raise CoveringError("no columns")
    names = [c.name for c in cols]
    n = len(cols)
    row_index = {r: i for i, r in enumerate(problem.rows)}
    weights = np.array([c.weight for c in cols], dtype=float)
    indices = [sorted(row_index[r] for r in c.rows) for c in cols]
    indptr = np.cumsum([0] + [len(ix) for ix in indices])
    a = sparse.csc_array(
        (np.ones(indptr[-1]), np.concatenate(indices), indptr), shape=(problem.n_rows, n)
    )
    # HiGHS ends a MIP within an absolute 1e-6 of the optimum.  Scaling
    # by a power of two (exact in floating point) so the largest weight
    # lies in [2**19, 2**20) makes that tolerance ~2e-12 of it.
    peak = float(weights.max())
    scale = 2.0 ** (20 - np.frexp(peak)[1]) if peak > 0 else 1.0

    best: Optional[CoverSolution] = None
    if journal is not None and journal.best_incumbent is not None:
        # Seed from the journal of a killed run: the strict-improvement
        # test below guarantees the served solution matches an
        # uninterrupted run's despite the warmer start.
        weight, columns, _stage = journal.best_incumbent
        seeded = CoverSolution(column_names=tuple(sorted(columns)), weight=weight, optimal=False)
        try:
            problem.check_solution(seeded)
        except CoveringError:
            pass  # stale record: ignore, solve cold
        else:
            best = seeded

    nodes = 0
    with tracer.span("covering.ilp", rows=problem.n_rows, columns=n) as ilp_span:
        tracker.checkpoint("ilp.start")
        try:
            try:
                tracker.charge_node("ilp.node")  # the MIP's root node
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    str(exc), reason=exc.reason, partial=exc.partial or best
                ) from exc
            left = tracker.nodes_left()
            options = {
                "mip_rel_gap": 0.0,
                "node_limit": max_nodes if left is None else min(max_nodes, 1 + left),
            }
            remaining = tracker.remaining_s()
            if remaining != float("inf"):
                options["time_limit"] = max(0.0, remaining)
            res = optimize.milp(
                weights * scale,
                integrality=np.ones(n),
                bounds=optimize.Bounds(0, 1),
                constraints=optimize.LinearConstraint(a, lb=1),
                options=options,
            )
            nodes = int(res.mip_node_count or 0)
            tracker.book_nodes(max(0, nodes - 1))
        finally:
            tracer.count("covering.ilp.nodes", nodes)
            ilp_span.set("nodes", nodes)

    if res.status == 2:
        raise CoveringError("ILP found no integral solution")
    if res.x is not None:
        xi = np.round(res.x).astype(int)
        weight = float(weights @ xi)
        if best is None or weight < best.weight:
            best = CoverSolution(
                column_names=tuple(sorted(names[j] for j in range(n) if xi[j] == 1)),
                weight=weight,
                optimal=False,
            )
            if journal is not None:
                journal.record_incumbent("ilp", best.column_names, weight)
    if best is not None:
        dual = res.mip_dual_bound
        lower = min(dual / scale if dual is not None else -np.inf, best.weight)
        if res.status == 0:
            gap = float(res.mip_gap)
        else:
            gap = (best.weight - lower) / best.weight if best.weight > 0 else 0.0
        best = CoverSolution(
            column_names=best.column_names,
            weight=best.weight,
            optimal=res.status == 0,
            stats={"nodes": nodes, "lower_bound": float(lower), "gap": gap},
        )
        problem.check_solution(best)
    if res.status != 0:
        raise BudgetExceeded(
            f"HiGHS MIP stopped early: {res.message}",
            reason="deadline" if res.status == 1 else "nodes",
            partial=best,
        )
    return best
