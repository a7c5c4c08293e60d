"""Graph-first references for ``complexes.npi_scan``, kept as differential
oracles; this is the only graph-first enumerator.

``enumerate_immersions`` lists every connected folded link-injective
complex within the bounds, faceless ones included: it grows every
connected folded graph one edge at a time and attaches faces afterwards.

``oracle_canonical_complex`` is the former ``canonical_complex``
verbatim: it relabels the faces for every start vertex, where the current
one does so only for the starts whose edge triples tie for the least.

``oracle_scan`` is the exhaustive search that the face-first scan
replaced: grow every connected folded graph of cycle rank at most
``max_faces`` (chi >= 1 needs rank <= faces), attach every link-injective
set of closing relator walks, and keep the non-collapsible classes with
chi >= 1.  It is the former
``max_faces >= 3`` path verbatim.  The former ``max_faces <= 2`` shortcut
(minimum-degree-two cores plus pendant trees) is left out: it assumed that
faces never cross a pendant edge, which fails for relators with a
cancelling wrap pair.  It lists every candidate, fully faced or not; the
scan now lists only the fully faced ones, so the tests compare the scan
with that part of its list.

``decorated_scan_oracle.decorated_npi_scan`` keeps the face-first scan as
it was before it dropped the candidates with face-free edges: the tests
check that the scan's list is exactly the fully faced part of that one.
"""

from __future__ import annotations

import itertools

from collapse_oracle import collapsible
from npicheck.complexes import (
    SCAN_MAX_EDGES,
    SCAN_MAX_FACES,
    ImmersionReport,
    TwoComplex,
    _check_bounds,
    _require_valid,
    _spell,
    canonical_complex,
    canonical_graph,
    check_faces,
    from_canonical,
    is_connected,
    is_folded,
    link_injective,
)


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


def oracle_canonical_complex(complex_: TwoComplex) -> tuple:
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


def _closed_walk(word, v0, out, into, edges):
    """The edge path spelling ``word`` (a list of (label, forward) letters)
    from v0 along existing edges, or None if an edge is missing or the walk
    does not close; ``out`` and ``into`` map (vertex, label) to an edge."""
    v = v0
    path = []
    for g, forward in word:
        e = (out if forward else into).get((v, g))
        if e is None:
            return None
        path.append((e, 1 if forward else -1))
        s, d, _ = edges[e]
        v = d if forward else s
    return tuple(path) if v == v0 else None


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


def grow_graphs(n_gens, max_edges, rank_cap):
    """All connected folded graphs with at most max_edges edges and cycle
    rank at most rank_cap, up to isomorphism (rank never falls as a graph
    grows)."""
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
                if e_count - child_v + 1 > rank_cap:
                    continue
                canon = canonical_graph(child_v, child_edges)
                if canon in seen:
                    continue
                seen.add(canon)
                state = (canon[0], canon[1])
                nxt.append(state)
                yield state
        level = nxt


def face_candidates(vertex_count, edges, pres):
    """All faces attachable to a folded graph: unique label-walks that close."""
    out = {(s, g): i for i, (s, _, g) in enumerate(edges)}
    into = {(d, g): i for i, (_, d, g) in enumerate(edges)}
    found = []
    for rel_idx, rel in enumerate(pres.relators):
        if not rel:
            continue
        word = _spell(rel)
        for v0 in range(vertex_count):
            path = _closed_walk(word, v0, out, into, edges)
            if path is not None:
                found.append((rel_idx, path))
    return found


def enumerate_immersions(pres, max_edges, max_faces):
    """All connected folded link-injective complexes within the bounds, one
    representative per isomorphism class, in canonical-form order.
    Exponential; meant for small bounds."""
    _check_bounds(max_edges, max_faces)
    _require_valid(pres)
    results = {}
    # A graph with E edges has cycle rank at most E: no cap.
    for vertex_count, edges in grow_graphs(len(pres.generators), max_edges, max_edges):
        faces_avail = face_candidates(vertex_count, edges, pres)
        for size in range(0, min(max_faces, len(faces_avail)) + 1):
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
    return [from_canonical(canon) for canon in sorted(results)]


def oracle_scan(pres, max_edges, max_faces):
    if max_edges > SCAN_MAX_EDGES or max_faces > SCAN_MAX_FACES:
        raise ValueError(
            f"bounds capped at {SCAN_MAX_EDGES} edges / {SCAN_MAX_FACES} faces"
        )
    _require_valid(pres)
    found: dict[tuple, ImmersionReport] = {}
    for vertex_count, edges in grow_graphs(len(pres.generators), max_edges, max_faces):
        rank = len(edges) - vertex_count + 1
        faces_avail = face_candidates(vertex_count, edges, pres)
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
                if collapsible(complex_):
                    continue
                assert is_folded(complex_) and is_connected(complex_)
                found[canon] = ImmersionReport(from_canonical(canon), chi)
    return [found[c] for c in sorted(found)]
