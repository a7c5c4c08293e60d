"""Exhaustive collapse search, kept as a differential oracle for
``complexes.collapsible``.

This is the memoised backtracking search over every collapse order that
greedy collapse replaced, verbatim, with the exception it raises when its
state budget runs out.  ``tests/scan_oracle.py`` uses it, so that the scan
oracle does not depend on the collapse test it checks.
"""

from __future__ import annotations

from collections import Counter

from npicheck.complexes import TwoComplex, is_connected


class SearchBudgetExceeded(RuntimeError):
    """The collapsibility backtracking search ran out of budget."""


def collapsible(complex_: TwoComplex, budget: int = 200_000) -> bool:
    """Exhaustive backtracking over elementary collapses.

    A free edge is traversed exactly once across all faces; collapsing
    removes it with its face.  Once no faces remain the complex collapses
    to a point iff the residual graph is a tree.  Memoization is on exact
    alive-cell states; the budget turns pathological searches into a loud
    SearchBudgetExceeded instead of a guess.
    """
    face_paths = [path for _, path in complex_.faces]
    vertex_count = complex_.vertex_count
    all_edges = frozenset(range(len(complex_.edges)))
    all_faces = frozenset(range(len(face_paths)))
    memo: dict[tuple, bool] = {}
    steps = [0]

    def residual_is_tree(alive_edges: frozenset) -> bool:
        return len(alive_edges) == vertex_count - 1 and is_connected(
            TwoComplex(vertex_count, tuple(complex_.edges[e] for e in alive_edges), ())
        )

    def search(alive_e: frozenset, alive_f: frozenset) -> bool:
        key = (alive_e, alive_f)
        if key in memo:
            return memo[key]
        steps[0] += 1
        if steps[0] > budget:
            raise SearchBudgetExceeded(f"collapse search exceeded {budget} states")
        if not alive_f:
            result = residual_is_tree(alive_e)
        else:
            usage = Counter(
                e for f in alive_f for e, _ in face_paths[f] if e in alive_e
            )
            result = False
            tried = set()
            for f in alive_f:
                for e, _ in face_paths[f]:
                    if usage[e] == 1 and (e, f) not in tried:
                        tried.add((e, f))
                        if search(alive_e - {e}, alive_f - {f}):
                            result = True
                            break
                if result:
                    break
        memo[key] = result
        return result

    return search(all_edges, all_faces)
