"""Unit tests for the exact minimum-I/O pebbling search."""

import collections

import pytest

from repro.lattice.geometry import OrthogonalLattice
from repro.pebbling.bounds import io_moves_lower_bound
from repro.pebbling.graph import ComputationGraph
from repro.pebbling.optimal import minimum_io, optimal_pebbling
from repro.pebbling.schedules import (
    measure_schedule,
    per_site_schedule,
    row_cache_schedule,
    row_cache_storage_needed,
)


def uniform_cost_io(graph, storage):
    """Oracle: plain uniform-cost search (0-1 BFS) over the game rules.

    No heuristic and none of the search's move merging: removals (rule
    1, red only — removing a blue never saves I/O) and computations
    (rule 4) cost 0, reads and writes (rules 2, 3) cost 1, and a red
    pebble is placed only while fewer than ``storage`` are down.
    """
    n = graph.num_vertices
    preds = [sum(1 << int(u) for u in graph.predecessors(v)) for v in range(n)]
    outputs = sum(1 << int(v) for v in graph.outputs())
    start = (0, sum(1 << int(v) for v in graph.inputs()))
    dist = {start: 0}
    queue = collections.deque([(0, start)])
    while queue:
        cost, (red, blue) = queue.popleft()
        if dist[red, blue] != cost:
            continue
        if blue & outputs == outputs:
            return cost
        room = red.bit_count() < storage
        moves = [(red & ~(1 << v), blue, 0) for v in range(n) if red >> v & 1]
        for v in range(n):
            bit = 1 << v
            if red & bit:
                if not blue & bit:
                    moves.append((red, blue | bit, 1))  # rule 3: write
            elif room and blue & bit:
                moves.append((red | bit, blue, 1))  # rule 2: read
            elif room and preds[v] and red & preds[v] == preds[v]:
                moves.append((red | bit, blue, 0))  # rule 4: compute
        for nred, nblue, step in moves:
            if dist.get((nred, nblue), cost + 2) > cost + step:
                dist[nred, nblue] = cost + step
                push = queue.appendleft if step == 0 else queue.append
                push((cost + step, (nred, nblue)))
    raise AssertionError("no complete computation within the budget")


@pytest.fixture(scope="module")
def tiny():
    """1-D lattice, 4 sites, 2 generations: 12 vertices."""
    return ComputationGraph(OrthogonalLattice.cube(1, 4), generations=2)


class TestValidation:
    def test_rejects_large_graph(self):
        g = ComputationGraph(OrthogonalLattice.cube(1, 10), generations=2)
        with pytest.raises(ValueError, match="capped"):
            optimal_pebbling(g, 8)

    def test_rejects_insufficient_storage(self, tiny):
        with pytest.raises(ValueError, match="in-degree"):
            optimal_pebbling(tiny, 3)

    def test_rejects_zero_storage(self, tiny):
        with pytest.raises(ValueError):
            optimal_pebbling(tiny, 0)


class TestExactValues:
    def test_generous_storage_floor_is_inputs_plus_outputs(self, tiny):
        """With S >= all vertices, the only unavoidable I/O is reading
        every input once and writing every output once."""
        assert minimum_io(tiny, 12) == tiny.num_sites * 2  # 4 + 4

    def test_monotone_in_storage(self, tiny):
        q4 = minimum_io(tiny, 4)
        q6 = minimum_io(tiny, 6)
        q8 = minimum_io(tiny, 8)
        assert q4 >= q6 >= q8

    def test_tight_budget_costs_more(self, tiny):
        assert minimum_io(tiny, 4) > minimum_io(tiny, 8)

    def test_exact_against_lemma_bound(self, tiny):
        """The exact optimum respects (and dominates) the Lemma 1/2 lower
        bound."""
        for s in (4, 6, 8):
            assert minimum_io(tiny, s) >= io_moves_lower_bound(tiny, s)

    def test_single_generation_line(self):
        """3-site, 1-generation path: Q* = 3 reads + 3 writes with room,
        since every input must enter and every output must leave."""
        g = ComputationGraph(OrthogonalLattice.cube(1, 3), generations=1)
        assert minimum_io(g, 6) == 6


class TestAgainstUniformCostSearch:
    def test_astar_matches_plain_search(self, tiny):
        """A* returns the optimum plain uniform-cost search finds, on both
        graphs above.  On ``tiny`` the oracle runs the two tightest
        budgets only: at 8 and 12 reds it expands about 400k states (7 s
        apiece).  The optimum at 12 reds is pinned to inputs + outputs
        by the floor test above."""
        line = ComputationGraph(OrthogonalLattice.cube(1, 3), generations=1)
        for graph, budgets in ((tiny, (4, 6)), (line, (4, 5, 6))):
            for storage in budgets:
                assert minimum_io(graph, storage) == uniform_cost_io(graph, storage)


class TestSchedulesVsOptimal:
    def test_row_cache_is_optimal_at_depth_t(self, tiny):
        """The paper's pipeline schedule with k = T matches the exact
        optimum Q* = inputs + outputs (reads each input once, writes
        each output once, nothing else)."""
        moves = row_cache_schedule(tiny, depth=2)
        report = measure_schedule(
            tiny, moves, row_cache_storage_needed(tiny, 2), "rc"
        )
        assert report.io_moves == minimum_io(tiny, report.max_red)

    def test_per_site_is_far_from_optimal(self, tiny):
        report = measure_schedule(tiny, per_site_schedule(tiny), 4, "ps")
        q_star = minimum_io(tiny, 4)
        assert report.io_moves > 2 * q_star

    def test_search_diagnostics(self, tiny):
        res = optimal_pebbling(tiny, 6)
        assert res.states_expanded > 0
        assert res.storage == 6
