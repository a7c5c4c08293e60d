"""The letter graphs read off LOG edges and the forest test with its cycle
witness, kept (but for their names) as differential oracles for
:func:`npicheck.logs.graph_T`, :func:`npicheck.logs.graph_I` and
:func:`npicheck.logs.is_forest`.

A LOG edge (i, lambda, t) is the relator t^-1 lambda^-1 i lambda, which is
u v^-1 with u = i lambda and v = lambda t, so its T-edge is {i, lambda} and
its I-edge {lambda, t} without normalizing.  The package builds the letter
graphs from the Adian form only.  ``forest_check`` returns, when the graph
is not a forest, the edges of one cycle: the first edge that closes one,
after the path that joined its ends in the forest accepted so far.
"""

from __future__ import annotations

from typing import NamedTuple

from npicheck.logs import Log, Multigraph


def log_graph_T(log: Log) -> Multigraph:
    """Edges {i, lambda}, the first letters of u = i lambda and v = lambda t."""
    return _log_letter_graph(log, 0)


def log_graph_I(log: Log) -> Multigraph:
    """Edges {lambda, t}, the last letters of u = i lambda and v = lambda t."""
    return _log_letter_graph(log, -1)


def _log_letter_graph(log: Log, end: int) -> Multigraph:
    ends = [((i, lam)[end], (lam, t)[end]) for i, lam, t in log.edges]
    return Multigraph(len(log.vertices), tuple(tuple(sorted(pair)) for pair in ends))


class ForestCheck(NamedTuple):
    ok: bool
    cycle: tuple[tuple[int, int], ...] | None  # witness edges when not a forest


def forest_check(graph: Multigraph) -> ForestCheck:
    """Union-find acyclicity; loops and parallel edges count as cycles."""
    parent = list(range(graph.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adjacency: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for edge in graph.edges:
        a, b = edge
        if a == b:
            return ForestCheck(False, (edge,))
        ra, rb = find(a), find(b)
        if ra == rb:
            # walk the accepted forest from a to b for the witness path
            path = _forest_path(adjacency, a, b)
            return ForestCheck(False, tuple(path + [edge]))
        parent[ra] = rb
        adjacency.setdefault(a, []).append((b, edge))
        adjacency.setdefault(b, []).append((a, edge))
    return ForestCheck(True, None)


def _forest_path(adjacency, start: int, goal: int) -> list[tuple[int, int]]:
    prev: dict[int, tuple[int, tuple[int, int]]] = {start: (start, (start, start))}
    queue = [start]
    while queue:
        v = queue.pop(0)
        if v == goal:
            break
        for w, edge in adjacency.get(v, []):
            if w not in prev:
                prev[w] = (v, edge)
                queue.append(w)
    path = []
    v = goal
    while v != start:
        v, edge = prev[v]
        path.append(edge)
    path.reverse()
    return path
