"""Exact minimum-I/O pebbling for small graphs.

The paper's closing agenda: "A further goal would be to discover an
optimal pebbling for any problem in this class, and thereby discover an
architecture which is optimal with regard to input/output complexity."
Optimal pebbling is intractable in general (PSPACE-hard for related
games), but for *small* computation graphs the minimum I/O is computable
exactly by shortest-path search over game configurations — enough to

* calibrate how far the constructive schedules sit from true optimal,
* sandwich the Lemma 1/2 lower bound from above with the real optimum.

The search is A* over states ``(red set, blue set)`` encoded as
bitmasks: rule-1 removals and rule-4 computations cost 0, rule-2/3 I/O
moves cost 1.  The heap is ordered by ``cost + h``, where ``h`` is the
number of outputs not yet blue.  ``h`` is *admissible*: every output
that is not blue still needs its own rule-3 write, which costs 1, so
``h`` never exceeds the remaining cost.  It is also *consistent*: blue
pebbles are never removed, and only a rule-3 write adds one, so a move
of cost 0 (rules 1, 4) or a rule-2 read (cost 1) leaves ``h``
unchanged, and a rule-3 write (cost 1) lowers it by at most 1; every
move therefore has ``h(s) <= cost(s, s') + h(s')``.  With a consistent
heuristic the first goal state popped is optimal, exactly as in
uniform-cost search (ties between equal ``cost + h`` may go either
way), while states whose estimate exceeds the optimum are never
expanded.  Two standard prunings keep the state space small and the
search exact:

* blue pebbles are never removed (removing one can never reduce I/O);
* a red pebble is only removed when the budget forces it (removal is
  deferred into the moves that need space, which preserves optimality
  because removal is free and unrestricted).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.pebbling.graph import ComputationGraph
from repro.util.validation import check_positive

__all__ = ["OptimalPebbling", "minimum_io", "optimal_pebbling"]

_MAX_VERTICES = 16


@dataclass(frozen=True)
class OptimalPebbling:
    """Result of the exact search.

    Attributes
    ----------
    io_moves:
        Q(S) — the minimum I/O moves of any complete computation.
    storage:
        The red-pebble budget searched under.
    states_expanded:
        Search-effort diagnostic.
    """

    io_moves: int
    storage: int
    states_expanded: int


def _bit(i: int) -> int:
    return 1 << i


def minimum_io(graph: ComputationGraph, storage: int) -> int:
    """Q(S): exact minimum I/O moves to compute ``graph`` with S reds."""
    return optimal_pebbling(graph, storage).io_moves


def optimal_pebbling(graph: ComputationGraph, storage: int) -> OptimalPebbling:
    """Exact min-I/O search (see module docstring).

    Raises
    ------
    ValueError
        If the graph exceeds the tractable size (16 vertices) or no
        complete computation exists within the budget (S smaller than
        the maximum in-degree + 1).
    """
    storage = check_positive(storage, "storage", integer=True)
    n = graph.num_vertices
    if n > _MAX_VERTICES:
        raise ValueError(
            f"graph has {n} vertices; exact search is capped at {_MAX_VERTICES}"
        )
    max_indeg = max(
        (graph.in_degree(v) for v in range(graph.num_sites, n)), default=0
    )
    if storage < max_indeg + 1:
        raise ValueError(
            f"storage={storage} cannot compute a vertex with {max_indeg} "
            "predecessors (need in-degree + 1 red pebbles)"
        )

    preds_mask = [0] * n
    for v in range(n):
        m = 0
        for u in graph.predecessors(v):
            m |= _bit(int(u))
        preds_mask[v] = m
    outputs_mask = 0
    for v in graph.outputs():
        outputs_mask |= _bit(int(v))
    inputs_mask = 0
    for v in graph.inputs():
        inputs_mask |= _bit(int(v))

    start = (0, inputs_mask)  # (red, blue)
    dist: dict[tuple[int, int], int] = {start: 0}
    # (cost + h, -cost, red, blue), h = outputs not yet blue.  Among
    # equal estimates the costlier state, nearer a goal, goes first.
    heap = [(outputs_mask.bit_count(), 0, 0, inputs_mask)]
    expanded = 0

    while heap:
        _, neg_cost, red, blue = heapq.heappop(heap)
        cost = -neg_cost
        if dist.get((red, blue), -1) != cost:
            continue
        if blue & outputs_mask == outputs_mask:
            return OptimalPebbling(
                io_moves=cost, storage=storage, states_expanded=expanded
            )
        expanded += 1
        red_count = red.bit_count()

        def push(nred: int, nblue: int, ncost: int) -> None:
            key = (nred, nblue)
            if dist.get(key, 1 << 60) > ncost:
                dist[key] = ncost
                h = (outputs_mask & ~nblue).bit_count()
                heapq.heappush(heap, (ncost + h, -ncost, nred, nblue))

        # Rule 4 (free): compute any vertex whose preds are all red.
        for v in range(n):
            bv = _bit(v)
            if red & bv or preds_mask[v] == 0:
                continue
            if red & preds_mask[v] == preds_mask[v]:
                if red_count < storage:
                    push(red | bv, blue, cost)
                else:
                    # slide: evict one red (not a pred of v) to make room
                    evictable = red & ~preds_mask[v]
                    e = evictable
                    while e:
                        low = e & -e
                        push((red & ~low) | bv, blue, cost)
                        e &= e - 1

        # Rule 2 (I/O): read a blue value into a red pebble.
        readable = blue & ~red
        r = readable
        while r:
            low = r & -r
            if red_count < storage:
                push(red | low, blue, cost + 1)
            else:
                evictable = red
                e = evictable
                while e:
                    el = e & -e
                    push((red & ~el) | low, blue, cost + 1)
                    e &= e - 1
            r &= r - 1

        # Rule 3 (I/O): write a red value to blue.
        writable = red & ~blue
        w = writable
        while w:
            low = w & -w
            push(red, blue | low, cost + 1)
            w &= w - 1

        # Rule 1 (free): plain removals — useful before several reads.
        e = red
        while e:
            low = e & -e
            push(red & ~low, blue, cost)
            e &= e - 1

    raise ValueError("search exhausted without reaching the goal (unexpected)")
