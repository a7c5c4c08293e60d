"""Bounded brute-force enumeration of immersions into a presentation
complex, plus the non-positive-immersion dichotomy scan.

A complex is a labeled directed multigraph plus faces; a face is a closed
edge path spelling one relator exactly, position by position.  Folded
graphs are rigid: at each vertex the incident edge ends carry pairwise
distinct (label, direction) types, so breadth-first search from a fixed
start vertex is deterministic and a canonical form is the minimum BFS
serialization over start vertices.

The scan exploits two facts recorded in the design notes: faces spelling
cyclically reduced relators never traverse pendant edges, and adding a
pendant tree changes neither the Euler characteristic nor collapsibility.
Candidates are therefore exactly pendant-tree decorations of candidates
whose graph has minimum degree >= 2 ("cores").
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .words import Presentation, letter_gen, validate

SCAN_MAX_EDGES = 10
SCAN_MAX_FACES = 5


class SearchBudgetExceeded(RuntimeError):
    """The collapsibility backtracking search ran out of budget."""


@dataclass(frozen=True)
class TwoComplex:
    """Vertices 0..V-1, directed labeled edges, relator-spelling faces."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]  # (src, dst, generator index)
    faces: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]  # (relator, ((edge, dir), ...))

    def to_dict(self, pres: Presentation) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": [[s, d, pres.generators[g]] for s, d, g in self.edges],
            "faces": [
                {"relator": rel, "path": [[e, d] for e, d in path]}
                for rel, path in self.faces
            ],
        }


def presentation_complex(pres: Presentation) -> TwoComplex:
    """The standard complex: one vertex, a loop per generator, a face per relator."""
    edges = tuple((0, 0, g) for g in range(len(pres.generators)))
    faces = []
    for i, rel in enumerate(pres.relators):
        path = tuple((letter_gen(x), 1 if x > 0 else -1) for x in rel)
        faces.append((i, path))
    return TwoComplex(1, edges, tuple(faces))


def check_faces(pres: Presentation, complex_: TwoComplex) -> None:
    """Assert every face path is closed and spells its relator exactly."""
    for rel, path in complex_.faces:
        word = pres.relators[rel]
        if len(path) != len(word):
            raise AssertionError("face length differs from relator length")
        pos = None
        start = None
        for (e, d), x in zip(path, word):
            s, t, g = complex_.edges[e]
            if g != letter_gen(x) or d != (1 if x > 0 else -1):
                raise AssertionError("face does not spell its relator")
            frm, to = (s, t) if d == 1 else (t, s)
            if pos is None:
                start = frm
            elif pos != frm:
                raise AssertionError("face path is not an edge path")
            pos = to
        if path and pos != start:
            raise AssertionError("face path is not closed")


def is_folded(complex_: TwoComplex) -> bool:
    """No vertex has two edge ends with equal (label, direction)."""
    seen = set()
    for s, d, g in complex_.edges:
        if (s, g, "out") in seen or (d, g, "in") in seen:
            return False
        seen.add((s, g, "out"))
        seen.add((d, g, "in"))
    return True


def link_injective(complex_: TwoComplex) -> bool:
    """No vertex carries two distinct face corners with the same image.

    The corner at boundary position t sits at the start vertex of step t
    and maps to (relator, t); with foldedness this makes the label-induced
    map an immersion.
    """
    seen = set()
    for rel, path in complex_.faces:
        for t, (e, d) in enumerate(path):
            s, dst, _ = complex_.edges[e]
            vertex = s if d == 1 else dst
            key = (vertex, rel, t)
            if key in seen:
                return False
            seen.add(key)
    return True


def euler_characteristic(complex_: TwoComplex) -> int:
    return complex_.vertex_count - len(complex_.edges) + len(complex_.faces)


def is_connected(complex_: TwoComplex) -> bool:
    if complex_.vertex_count == 0:
        return False
    adj: dict[int, list[int]] = {v: [] for v in range(complex_.vertex_count)}
    for s, d, _ in complex_.edges:
        adj[s].append(d)
        adj[d].append(s)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == complex_.vertex_count


def _ends_of(edges, vertex):
    """Sorted (label, direction, other endpoint, edge index) ends at a vertex."""
    out = []
    for idx, (s, d, g) in enumerate(edges):
        if s == vertex:
            out.append((g, 0, d, idx))
        if d == vertex:
            out.append((g, 1, s, idx))
    out.sort()
    return out


def _bfs_positions(ends, start: int) -> dict[int, int]:
    """Vertex -> position in the breadth-first order from start, taking
    each vertex's edge ends in their sorted order."""
    pos = {start: 0}
    order = [start]
    for v in order:
        for _, _, other, _ in ends[v]:
            if other not in pos:
                pos[other] = len(order)
                order.append(other)
    return pos


def canonical_graph(vertex_count: int, edges) -> tuple:
    """Minimum deterministic-BFS serialization over start vertices.

    Requires a folded connected graph; foldedness makes the (label,
    direction) keys at each vertex distinct, so the BFS order from a fixed
    start is well defined and isomorphic graphs serialize identically.
    """
    ends = [_ends_of(edges, v) for v in range(vertex_count)]
    best = None
    for start in range(vertex_count):
        pos = _bfs_positions(ends, start)
        relabeled = tuple(sorted((pos[s], pos[d], g) for s, d, g in edges))
        cand = (vertex_count, relabeled)
        if best is None or cand < best:
            best = cand
    return best if best is not None else (vertex_count, ())


def canonical_complex(complex_: TwoComplex) -> tuple:
    """Canonical form including faces (minimum over BFS vertex orderings)."""
    edges = complex_.edges
    ends = [_ends_of(edges, v) for v in range(complex_.vertex_count)]
    best = None
    for start in range(complex_.vertex_count):
        pos = _bfs_positions(ends, start)
        triples = [(pos[s], pos[d], g) for s, d, g in edges]
        sorted_triples = tuple(sorted(triples))
        index_of = {t: i for i, t in enumerate(sorted_triples)}
        new_faces = tuple(
            sorted(
                (rel, tuple((index_of[triples[e]], d) for e, d in path))
                for rel, path in complex_.faces
            )
        )
        cand = (complex_.vertex_count, sorted_triples, new_faces)
        if best is None or cand < best:
            best = cand
    return best if best is not None else (complex_.vertex_count, (), ())


def from_canonical(canon: tuple) -> TwoComplex:
    vertex_count, edges, faces = canon
    return TwoComplex(vertex_count, tuple(edges), tuple(faces))


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
        if len(alive_edges) != vertex_count - 1:
            return False
        adj: dict[int, list[int]] = {v: [] for v in range(vertex_count)}
        for e in alive_edges:
            s, d, _ = complex_.edges[e]
            adj[s].append(d)
            adj[d].append(s)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == vertex_count

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


def _children(vertex_count, edges, n_gens, out_used, in_used):
    """Folded one-edge extensions: to a fresh vertex or between existing ones."""
    for v in range(vertex_count):
        for g in range(n_gens):
            if (v, g) not in out_used:
                yield vertex_count + 1, edges + ((v, vertex_count, g),)
                for w in range(vertex_count):
                    if (w, g) not in in_used:
                        yield vertex_count, edges + ((v, w, g),)
            if (v, g) not in in_used:
                yield vertex_count + 1, edges + ((vertex_count, v, g),)


def _grow_graphs(n_gens, max_edges, rank_cap=None, core_prune=False):
    """All connected folded graphs with at most max_edges edges, up to iso.

    rank_cap prunes states whose cycle rank already exceeds the cap (rank
    never decreases under growth).  core_prune keeps only states that can
    still reach minimum degree two within the edge budget: each added edge
    lowers the total degree deficit by at most two.
    """
    start = (1, ())
    seen = {canonical_graph(*start)}
    level = [start]
    yield start
    for e_count in range(1, max_edges + 1):
        nxt = []
        for vertex_count, edges in level:
            out_used = {(s, g) for s, _, g in edges}
            in_used = {(d, g) for _, d, g in edges}
            for child_v, child_edges in _children(
                vertex_count, edges, n_gens, out_used, in_used
            ):
                rank = e_count - child_v + 1
                if rank_cap is not None and rank > rank_cap:
                    continue
                if core_prune:
                    degree = Counter()
                    for s, d, _ in child_edges:
                        degree[s] += 1
                        degree[d] += 1
                    deficit = sum(
                        max(0, 2 - degree[v]) for v in range(child_v)
                    )
                    if deficit > 2 * (max_edges - e_count):
                        continue
                canon = canonical_graph(child_v, child_edges)
                if canon in seen:
                    continue
                seen.add(canon)
                state = (canon[0], canon[1])
                nxt.append(state)
                yield state
        level = nxt


def _face_candidates(vertex_count, edges, pres: Presentation):
    """All faces attachable to a folded graph: unique label-walks that close."""
    out_map = {}
    in_map = {}
    for idx, (s, d, g) in enumerate(edges):
        out_map[(s, g)] = idx
        in_map[(d, g)] = idx
    found = []
    for rel_idx, rel in enumerate(pres.relators):
        if not rel:
            continue
        for v0 in range(vertex_count):
            v = v0
            path = []
            for x in rel:
                g = letter_gen(x)
                if x > 0:
                    e = out_map.get((v, g))
                    if e is None:
                        path = None
                        break
                    path.append((e, 1))
                    v = edges[e][1]
                else:
                    e = in_map.get((v, g))
                    if e is None:
                        path = None
                        break
                    path.append((e, -1))
                    v = edges[e][0]
            if path is not None and v == v0:
                found.append((rel_idx, tuple(path)))
    return found


def enumerate_immersions(pres: Presentation, max_edges: int, max_faces: int):
    """All connected folded link-injective complexes within the bounds.

    One representative per isomorphism class, emitted in canonical-form
    order.  Desk scale is enforced; full enumeration is exponential and
    meant for small bounds (the dichotomy scan uses a pruned strategy).
    """
    if max_edges > SCAN_MAX_EDGES or max_faces > SCAN_MAX_FACES:
        raise ValueError(
            f"bounds capped at {SCAN_MAX_EDGES} edges / {SCAN_MAX_FACES} faces"
        )
    _require_valid(pres)
    return _enumerate_immersions(pres, max_edges, max_faces)


def _enumerate_immersions(pres: Presentation, max_edges: int, max_faces: int):
    results = {}
    for vertex_count, edges in _grow_graphs(len(pres.generators), max_edges):
        faces_avail = _face_candidates(vertex_count, edges, pres)
        max_here = min(max_faces, len(faces_avail))
        for size in range(0, max_here + 1):
            for combo in itertools.combinations(faces_avail, size):
                complex_ = TwoComplex(vertex_count, edges, combo)
                if not link_injective(complex_):
                    continue
                canon = canonical_complex(complex_)
                if canon in results:
                    continue
                assert is_folded(complex_) and is_connected(complex_)
                check_faces(pres, complex_)
                results[canon] = None
    for canon in sorted(results):
        yield from_canonical(canon)


@dataclass(frozen=True)
class ImmersionReport:
    complex: TwoComplex
    chi: int
    classification: str  # "neg-or-zero-chi" | "collapsible" | "candidate"
    note: str = ""


def _require_valid(pres: Presentation) -> None:
    diags = validate(pres)
    if diags:
        raise ValueError("invalid presentation: " + "; ".join(map(str, diags)))


def _min_degree_two(vertex_count, edges) -> bool:
    degree = Counter()
    for s, d, _ in edges:
        degree[s] += 1
        degree[d] += 1
    return all(degree[v] >= 2 for v in range(vertex_count))


def _decorate_with_trees(pres, base: TwoComplex, max_edges: int):
    """All pendant-tree decorations of a complex within the edge budget."""
    seen = {canonical_complex(base)}
    level = [base]
    while level:
        nxt = []
        for cur in level:
            if len(cur.edges) >= max_edges:
                continue
            out_used = {(s, g) for s, _, g in cur.edges}
            in_used = {(d, g) for _, d, g in cur.edges}
            for v in range(cur.vertex_count):
                for g in range(len(pres.generators)):
                    grown = []
                    if (v, g) not in out_used:
                        grown.append((v, cur.vertex_count, g))
                    if (v, g) not in in_used:
                        grown.append((cur.vertex_count, v, g))
                    for edge in grown:
                        child = TwoComplex(
                            cur.vertex_count + 1, cur.edges + (edge,), cur.faces
                        )
                        canon = canonical_complex(child)
                        if canon not in seen:
                            seen.add(canon)
                            nxt.append(child)
                            yield child
        level = nxt


def npi_scan(pres: Presentation, max_edges: int, max_faces: int, budget: int = 200_000):
    """Candidates for the non-positive-immersion dichotomy within bounds.

    Emits every immersion with chi >= 1 that the collapse search cannot
    contract, one per isomorphism class, in canonical order.  An empty
    result means every enumerated immersion has chi <= 0 or collapses; a
    candidate is evidence for inspection, never a refutation, since
    collapsibility is sufficient but not necessary for contractibility.
    """
    if max_edges > SCAN_MAX_EDGES or max_faces > SCAN_MAX_FACES:
        raise ValueError(
            f"bounds capped at {SCAN_MAX_EDGES} edges / {SCAN_MAX_FACES} faces"
        )
    _require_valid(pres)
    if max_faces <= 2:
        graphs = _grow_graphs(
            len(pres.generators), max_edges, rank_cap=max_faces, core_prune=True
        )
        core_only = True
    else:
        graphs = _grow_graphs(len(pres.generators), max_edges, rank_cap=max_faces)
        core_only = False

    found: dict[tuple, ImmersionReport] = {}
    for vertex_count, edges in graphs:
        if core_only and not _min_degree_two(vertex_count, edges):
            continue
        rank = len(edges) - vertex_count + 1
        faces_avail = _face_candidates(vertex_count, edges, pres)
        for size in range(max(rank, 0), max_faces + 1):
            chi = vertex_count - len(edges) + size
            if chi < 1 or size > len(faces_avail):
                continue
            for combo in itertools.combinations(faces_avail, size):
                complex_ = TwoComplex(vertex_count, edges, combo)
                if not link_injective(complex_):
                    continue
                canon = canonical_complex(complex_)
                if canon in found:
                    continue
                if size == 0 and rank == 0:
                    continue  # trees always collapse
                try:
                    if collapsible(complex_, budget):
                        continue
                    note = ""
                except SearchBudgetExceeded:
                    note = "collapse search budget exceeded"
                assert is_folded(complex_) and is_connected(complex_)
                found[canon] = ImmersionReport(
                    from_canonical(canon), chi, "candidate", note
                )

    if core_only:
        for canon in list(found):
            base = found[canon].complex
            for decorated in _decorate_with_trees(pres, base, max_edges):
                dcanon = canonical_complex(decorated)
                if dcanon not in found:
                    found[dcanon] = ImmersionReport(
                        decorated, euler_characteristic(decorated), "candidate",
                        found[canon].note,
                    )

    return [found[c] for c in sorted(found)]
