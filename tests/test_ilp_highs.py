"""The 0-1 ILP cover on the HiGHS MIP solver (:func:`repro.covering.solve_ilp`).

- ties: among optima of equal weight the selection is a function of
  the problem alone — the same in repeated calls and in a fresh process;
- optimality statement: ``stats`` carries a ``lower_bound`` no larger
  than the weight and a ``gap`` that is 0 whenever ``optimal``; the
  weight is the optimum to within ~2e-12 of the largest column weight
  (HiGHS's absolute 1e-6 stopping tolerance, after ``solve_ilp``
  scales the weights);
- budgets: a deadline or node limit that stops HiGHS degrades the
  answer (``BudgetExceeded.partial``, decompose's degrade path) and
  never fails a supervised run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import Budget, SynthesisOptions, synthesize
from repro.core.decompose import ILP_CUTOVER_COLUMNS
from repro.core.exceptions import BudgetExceeded
from repro.core.validation import validate
from repro.covering import Column, CoveringProblem, solve_cover, solve_exhaustive, solve_ilp
from repro.domains import wan_library
from repro.netgen import clustered_graph
from repro.obs import tracing

from .test_differential_covering import random_instance

_ROOT = Path(__file__).resolve().parents[1]


def tied_instance() -> CoveringProblem:
    """Four rows, every pair a column of weight 1: the three perfect
    matchings are optima of equal weight 2; singletons cost 1.5."""
    rows = ["r0", "r1", "r2", "r3"]
    pairs = [("r0", "r1"), ("r2", "r3"), ("r0", "r2"), ("r1", "r3"), ("r0", "r3"), ("r1", "r2")]
    columns = [Column(f"p_{a}{b}", frozenset({a, b}), 1.0) for a, b in pairs]
    columns += [Column(f"s_{r}", frozenset({r}), 1.5) for r in rows]
    return CoveringProblem(rows, columns)


_FRESH_PROCESS = """
import json
from tests.test_ilp_highs import tied_instance
from repro.covering import solve_ilp
print(json.dumps(list(solve_ilp(tied_instance()).column_names)))
"""


def test_equal_weight_optima_resolve_the_same_every_call():
    problem = tied_instance()
    first = solve_ilp(problem)
    assert first.weight == pytest.approx(solve_exhaustive(problem).weight, rel=1e-12)
    assert first.weight == pytest.approx(solve_cover(problem).weight, rel=1e-12)
    for _ in range(5):
        assert solve_ilp(problem).column_names == first.column_names


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_equal_weight_optima_resolve_the_same_in_a_fresh_process(hash_seed):
    # frozenset iteration order follows PYTHONHASHSEED; the selection must not
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(_ROOT / "src"), str(_ROOT)])
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert tuple(json.loads(out.stdout)) == solve_ilp(tied_instance()).column_names


@st.composite
def covering_instances(draw):
    """Random feasible weighted covers (<= 8 rows, <= 12 columns)."""
    n_rows = draw(st.integers(min_value=1, max_value=8))
    rows = [f"r{i}" for i in range(n_rows)]
    columns = []
    for j in range(draw(st.integers(min_value=1, max_value=12))):
        members = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=n_rows, unique=True))
        weight = draw(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
        columns.append(Column(f"c{j}", frozenset(members), weight))
    columns.append(Column("full", frozenset(rows), draw(st.floats(min_value=1.0, max_value=1e5))))
    return CoveringProblem(rows, columns)


@settings(max_examples=60, deadline=None)
@given(covering_instances())
def test_optimality_statement_holds(problem):
    solution = solve_ilp(problem)
    assert solution.optimal
    assert solution.stats["lower_bound"] <= solution.weight
    assert solution.stats["gap"] == 0
    optimum = solve_exhaustive(problem).weight
    slack = 1e-11 * max(c.weight for c in problem.columns)
    assert solution.weight == pytest.approx(optimum, rel=1e-9, abs=slack)
    assert solution.stats["lower_bound"] <= optimum * (1 + 1e-9) + slack


def _frozen_budget(deadline_s: float):
    """A deadline only HiGHS's own timer can see: the tracker's clock
    never advances, so every cooperative checkpoint passes and the
    remaining time handed to HiGHS is exactly ``deadline_s``."""
    return Budget(deadline_s=deadline_s).start(clock=lambda: 0.0)


class _SeededJournal:
    """The two members of a checkpoint journal that solve_ilp uses."""

    def __init__(self, weight, columns):
        self.best_incumbent = (weight, tuple(columns), "bnb")
        self.recorded = []

    def record_incumbent(self, stage, column_names, weight):
        self.recorded.append((stage, tuple(column_names), weight))


def _singletons_cover(problem):
    names = [f"s_{r}" for r in problem.rows]
    return problem.weight_of(names), names


def test_deadline_stop_serves_the_journal_incumbent():
    problem = tied_instance()
    weight, names = _singletons_cover(problem)
    with pytest.raises(BudgetExceeded) as info:
        solve_ilp(problem, budget=_frozen_budget(0.0), journal=_SeededJournal(weight, names))
    assert info.value.reason == "deadline"
    partial = info.value.partial
    assert partial is not None and not partial.optimal
    assert partial.column_names == tuple(sorted(names))
    assert partial.stats["lower_bound"] <= partial.weight
    problem.check_solution(partial)


def test_journal_records_a_strict_improvement_only():
    problem = tied_instance()
    weight, names = _singletons_cover(problem)
    journal = _SeededJournal(weight, names)
    solution = solve_ilp(problem, journal=journal)
    assert solution.weight == pytest.approx(2.0)
    assert journal.recorded == [("ilp", solution.column_names, solution.weight)]
    tied = _SeededJournal(solution.weight, solution.column_names)
    assert solve_ilp(problem, journal=tied).column_names == solution.column_names
    assert tied.recorded == []


def test_nodes_are_booked_against_the_global_budget():
    tracker = Budget(max_nodes=1000).start()
    solution = solve_ilp(tied_instance(), budget=tracker)
    assert tracker.nodes_used == max(1, solution.stats["nodes"])
    assert tracker.nodes_left() == 1000 - tracker.nodes_used


def test_near_zero_deadline_degrades_a_large_decompose_cluster():
    # one 30-arc island: a single decompose cluster whose covering
    # matrix is past the ILP cutover, so HiGHS covers it
    graph = clustered_graph(
        n_clusters=1, n_arcs=30, separation=0.0, seed=0, ports_per_cluster=12,
        cluster_spread=5.0, bandwidth_range=(1.0, 3.0), intra_fraction=1.0,
    )
    options = SynthesisOptions(strategy="decompose", max_arity=2)
    with tracing() as t:
        result = synthesize(graph, wan_library(), options, budget=_frozen_budget(1e-9))
    ilp_spans = [dict(r.args) for r in t.records if r.name == "covering.ilp"]
    assert ilp_spans and ilp_spans[0]["columns"] >= ILP_CUTOVER_COLUMNS
    assert result.degradation is not None and result.degradation.degraded
    assert not result.decomposition.certified
    assert not result.cover.optimal
    result.covering.check_solution(result.cover)
    validate(result.implementation, graph)
    optimum = synthesize(graph, wan_library(), options)
    assert result.total_cost >= optimum.total_cost - 1e-9


@pytest.mark.parametrize("factor", [1e-9, 1e-3, 1e6])
def test_optimum_is_invariant_under_weight_scaling(factor):
    # HiGHS stops within an absolute 1e-6 of the objective; at 1e-9
    # scale every cover of these instances would fall inside that
    # tolerance unless the weights are rescaled before the solve
    for seed in range(12):
        problem = random_instance(seed)
        scaled = CoveringProblem(
            problem.rows,
            [Column(c.name, c.rows, c.weight * factor) for c in problem.columns],
        )
        reference = solve_ilp(problem)
        solution = solve_ilp(scaled)
        assert solution.weight == pytest.approx(reference.weight * factor, rel=1e-9)
        assert solution.stats["lower_bound"] <= solution.weight
