"""The non-positive-immersion dichotomy scan: a bounded search for
immersions into a presentation complex that could refute NPI.

A complex is a labeled directed multigraph plus faces; a face is a closed
edge path spelling one relator exactly, position by position.  Folded
graphs are rigid: at each vertex the incident edge ends carry pairwise
distinct (label, direction) types, so breadth-first search from a fixed
start vertex is deterministic and a canonical form is the minimum BFS
serialization over start vertices.

``npi_scan`` wants only candidates (chi >= 1 and not collapsible, which
greedy collapse decides exactly: see ``collapsible``) and builds them
face first, by moves that keep a state connected, folded and
link-injective.  An edge is *faced* if some face crosses it, and a
complex is *fully faced* if every edge is.  A relator with a cancelling
wrap pair (``c^-1 ... c``) has faces that cross an edge out and back, so
a faced edge may end at a vertex of degree one; nothing below assumes
otherwise.  The scan lists the fully faced candidates only, and within
the bounds there is a candidate iff there is a fully faced one.  Let C
be a candidate within the bounds with a face-free edge e.  A subcomplex
of an immersion is an immersion, and each case below has fewer edges and
no more faces, so it is within the bounds too.

1. Pendant edges.  If e ends at a vertex of degree one, C - e is a
   candidate: no collapse uses e, and the residual graph is a tree with
   it iff without it, so neither chi nor collapsibility changes.
2. Cycle edges.  If e lies on a cycle, C - e is connected with chi one
   higher.  A connected 2-complex with chi >= 2 has b2 = chi - 1 + b1 >= 1,
   so C - e is not contractible: it is a candidate.
3. Bridges.  Otherwise C - e has two components A and B, each holding
   whole faces, with chi(A) + chi(B) = chi(C) + 1 >= 2.  If both collapse
   to a point, so does C: collapse both, and what is left is a tree.  So
   one of them, say A, does not collapse.  If chi(A) >= 1, A is a
   candidate; otherwise chi(B) >= 2, so B has b2 >= 1 and is one.

By induction on edges, C reduces to a fully faced candidate within the
bounds, so it is enough to reach every one of those.  A connected, fully
faced complex is built one face at a time, each face sharing a vertex
with the faces before it.  A face move reads the relator from that
vertex: where the face's next edge is already built the state has it,
and where it is not, foldedness of the complex says the state has no edge
of that label and direction at the current vertex, so the move adds it,
to the right existing vertex or to a fresh one.

4. Pruning.  Every state on these routes is a connected, folded,
   link-injective subcomplex of C with no more edges or faces.  A face
   move raises chi by one less its *joins* (new edges ending at existing
   vertices).  So chi(C) <= chi_now + (max_faces - faces_now), no route
   passes a state where this is below one, and a face move makes at most
   chi_now + max_faces - faces_now - 1 joins.
5. Tracing each face once.  Which face extensions a trace finds does not
   depend on the order in which it builds them: a face's joins number its
   new edges less its new vertices, and the corner and landing tests are
   per position.  Two reductions follow, neither of which misses a class.
   - The start state's first face.  Reading a relator from position t at
     the one vertex gives the same complexes, renumbered, as reading it
     from position 0 at the vertex of the position-0 corner; so position 0
     alone is read.  These are the relator's *single faces*.  The start
     state's join cap max_faces and room max_edges are the largest any
     state has (each face raises chi by at most one), so they are traced
     once per scan and kept for point 7.
   - A face from a vertex of the state.  If it lies on state edges, the
     folded graph leaves one walk spelling the relator from the vertex of
     its position-0 corner, and that walk finds it.  Otherwise a cyclic
     run of its new edges starts at a vertex of the state: the end of the
     state edge before the run, or, when every edge is new, a state vertex
     the face passes through.  A trace is started only at such a corner,
     one whose first edge is missing from the state.
6. Cutting traces that cannot close; no cut loses a class.
   - Least corner.  A face with a new edge is built by the trace from each
     corner (u, t) at a state vertex u whose edge at t is not a state
     edge, so a trace stops at such a corner before its own start.
   - Walk-only tails.  Once no room is left, the rest of the word is
     walked; the last step adds no fresh vertex, since it lands on v0.
   - The core.  Let c be the number of letters that cancel across the
     relator's end, so that positions c .. L - c - 1 are its cyclically
     reduced core.  At a core position a trace adds a fresh vertex only
     while a join and two edges of room remain.  A fresh vertex has one
     edge end, and the next letter is not the inverse of this one (inside
     the word it is freely reduced, and across the end c = 0 there), so
     the next step adds an edge too.  Until the run of added edges makes
     a join, the path stays in the tree of vertices it made fresh, and
     turns back only where two letters cancel: across the word's end.
     That walk back retraces only the c tail letters, to a vertex that
     the run made fresh, and the next letter again needs a new edge.  So
     the run ends only in a join (the last step's landing on v0 counts as
     one), which needs an edge of room and a join of the cap.  A fresh
     vertex at a tail position needs no join: the walk back across the
     end may return from it to the state.
   - Canonical form.  Forms compare on their sorted edge triples first, so
     only starts whose triples tie for the least relabel faces.
7. Corner fits.  The edges a new face crosses form a connected folded
   graph of at most max_edges edges, of cycle rank at most b1(S) plus the
   trace's joins <= b1(S) + join_cap = max_faces (a walk: at most b1(S)).
   So the face is one of the relator's single faces, its position-t corner
   vertex x at the start v0, and the state's edges at v0 stay: each loop at
   x lands on slots of v0 free or holding a loop, each other edge end on a
   slot free or holding a non-loop edge.  A trace or walk starts only at a
   corner where some single face passes this test.

States are deduplicated by ``canonical_complex``, so each class is
expanded once.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import Presentation, _wrap_length, letter_gen, validate

SCAN_MAX_EDGES = 10
SCAN_MAX_FACES = 5


class TwoComplex(NamedTuple):
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


def _tail(edges, e: int, d: int) -> int:
    """The vertex that crossing edge e in direction d starts from."""
    s, dst, _ = edges[e]
    return s if d == 1 else dst


def link_injective(complex_: TwoComplex) -> bool:
    """No vertex carries two distinct face corners with the same image.

    The corner at boundary position t sits at the start vertex of step t
    and maps to (relator, t); with foldedness this makes the label-induced
    map an immersion.
    """
    seen = set()
    for rel, path in complex_.faces:
        for t, (e, d) in enumerate(path):
            key = (_tail(complex_.edges, e, d), rel, t)
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


def _bfs_positions(ends, start: int) -> dict[int, int]:
    """Vertex -> position in the breadth-first order from start, taking
    each vertex's edge ends in their sorted order."""
    pos = {start: 0}
    order = [start]
    for v in order:
        for _, _, other in ends[v]:
            if other not in pos:
                pos[other] = len(order)
                order.append(other)
    return pos


# perfbench/run.py reads calls["complexes.canonical_graph"] in layer_metrics.
def canonical_graph(vertex_count: int, edges) -> tuple:
    """Minimum deterministic-BFS serialization over start vertices.

    Requires a folded connected graph; foldedness makes the (label,
    direction) keys at each vertex distinct, so the BFS order from a fixed
    start is well defined and isomorphic graphs serialize identically.
    This is :func:`canonical_complex` of the faceless complex.
    """
    return canonical_complex(TwoComplex(vertex_count, tuple(edges), ()))[:2]


def canonical_complex(complex_: TwoComplex) -> tuple:
    """Canonical form including faces (minimum over BFS vertex orderings)."""
    edges = complex_.edges
    ends: list[list] = [[] for _ in range(complex_.vertex_count)]
    for s, d, g in edges:
        ends[s].append((g, 0, d))
        ends[d].append((g, 1, s))
    for at in ends:
        at.sort()
    best, ties = None, []
    for start in range(complex_.vertex_count):
        pos = _bfs_positions(ends, start)
        triples = [(pos[s], pos[d], g) for s, d, g in edges]
        key = sorted(triples)
        if best is None or key < best:
            best, ties = key, [triples]
        elif key == best:
            ties.append(triples)
    if best is None:
        return (complex_.vertex_count, (), ())
    index_of = {t: i for i, t in enumerate(best)}
    faces = min(
        tuple(sorted((rel, tuple((index_of[triples[e]], d) for e, d in path))
                     for rel, path in complex_.faces))
        for triples in ties
    )
    return (complex_.vertex_count, tuple(best), faces)


def from_canonical(canon: tuple) -> TwoComplex:
    vertex_count, edges, faces = canon
    return TwoComplex(vertex_count, tuple(edges), tuple(faces))


def collapsible(complex_: TwoComplex) -> bool:
    """Whether the complex collapses to a point, decided by greedy collapse.

    An elementary collapse removes a face together with a *free* edge of
    it: one that the face crosses exactly once and no other face crosses.
    Crossings are counted with multiplicity, so an edge that one face
    crosses twice is never free.  Collapsing a face only lowers the
    crossing counts of other edges, and the edge it uses belongs to no
    other face, so a face that can collapse stays collapsible until it
    does.  Hence collapses commute: the faces left once none can collapse
    do not depend on the order.  Each collapse removes one edge and one
    face, keeping chi and connectivity, so when no face is left the
    residual graph is a tree iff the complex is connected with chi = 1.
    """
    crossings: list[list[int]] = [[] for _ in complex_.edges]  # edge -> faces
    for f, (_, path) in enumerate(complex_.faces):
        for e, _ in path:
            crossings[e].append(f)
    faces_left = len(complex_.faces)
    free = list(range(len(crossings)))  # edges to look at
    while free:
        e = free.pop()
        if len(crossings[e]) != 1:
            continue
        (f,) = crossings[e]
        faces_left -= 1
        for d, _ in complex_.faces[f][1]:
            crossings[d].remove(f)
            free.append(d)
    return faces_left == 0 and euler_characteristic(complex_) == 1 and is_connected(complex_)


def _spell(rel) -> list[tuple[int, bool]]:
    """A relator as (label, forward) letters."""
    return [(letter_gen(x), x > 0) for x in rel]


def _slot_masks(vertex_count: int, edges) -> tuple[list[int], list[int]]:
    """Each vertex's slots holding a loop and slots holding another edge,
    as bit masks: bit 2g is the out-slot of label g, bit 2g + 1 the in-slot."""
    loops, others = [0] * vertex_count, [0] * vertex_count
    for s, d, g in edges:
        if s == d:
            loops[s] |= 3 << 2 * g
        else:
            others[s] |= 1 << 2 * g
            others[d] |= 2 << 2 * g
    return loops, others


def _check_bounds(max_edges: int, max_faces: int) -> None:
    if max_edges < 0 or max_faces < 0:
        raise ValueError(f"bounds ({max_edges}, {max_faces}) must be non-negative")
    if max_edges > SCAN_MAX_EDGES or max_faces > SCAN_MAX_FACES:
        raise ValueError(
            f"bounds capped at {SCAN_MAX_EDGES} edges / {SCAN_MAX_FACES} faces"
        )


class ImmersionReport(NamedTuple):
    complex: TwoComplex
    chi: int


def _require_valid(pres: Presentation) -> None:
    diags = validate(pres)
    if diags:
        raise ValueError("invalid presentation: " + "; ".join(map(str, diags)))


class _Moves:
    """The moves of the face-first scan out of one state.

    The state's folded graph is grown and shrunk in place: ``out`` and
    ``into`` map the slot ``vertex * n_gens + label`` to the edge leaving
    or entering the vertex with that label, and ``corners[rel]`` holds
    ``vertex * len(relator) + position`` for the corners of the state's
    faces of that relator.  A move pushes edges, takes a snapshot while
    they are in place, and pops them again.  ``wraps[rel]`` is the number
    of letters of relator ``rel`` that cancel across its end
    (``words._wrap_length``), and ``scan`` the per-scan dict of each
    relator's single faces and corner fits (``_single_faces``).
    """

    def __init__(self, state: TwoComplex, spelled, wraps, n_gens, max_edges, max_faces, scan):
        self.state = state
        self.spelled = spelled
        self.wraps = wraps
        self.n_gens = n_gens
        self.max_edges = max_edges
        self.max_faces = max_faces
        self.scan = scan
        self.vertex_count = state.vertex_count
        self.edges = list(state.edges)
        self.out = {s * n_gens + g: i for i, (s, _, g) in enumerate(state.edges)}
        self.into = {d * n_gens + g: i for i, (_, d, g) in enumerate(state.edges)}
        self.corners: list[set[int]] = [set() for _ in spelled]
        for rel, path in state.faces:
            for t, (e, d) in enumerate(path):
                self.corners[rel].add(_tail(state.edges, e, d) * len(path) + t)

    def _attach(self, v: int, g: int, forward: bool, w: int) -> int:
        """Push the edge labelled g that leaves v for w (or enters v from w)."""
        s, d = (v, w) if forward else (w, v)
        idx = len(self.edges)
        self.out[s * self.n_gens + g] = idx
        self.into[d * self.n_gens + g] = idx
        self.edges.append((s, d, g))
        return idx

    def _pop(self) -> None:
        s, d, g = self.edges.pop()
        del self.out[s * self.n_gens + g]
        del self.into[d * self.n_gens + g]

    def _snapshot(self, new_face) -> TwoComplex:
        faces = self.state.faces + (new_face,)
        return TwoComplex(self.vertex_count, tuple(self.edges), faces)

    def _trace(self, rel: int, start: int, v0: int, join_cap: int) -> list[TwoComplex]:
        """Snapshots with one more face: relator ``rel`` read from position
        ``start`` at ``v0``.  An edge the word needs is followed if it
        exists; otherwise it is added, as a join to an existing vertex (at
        most ``join_cap`` joins) or to a fresh one, while room is left.  The
        last step must land on ``v0``, and no corner may repeat one of the
        state's.  If the start corner's edge exists, the trace only walks.
        Otherwise the cuts of point 6 of the module docstring apply."""
        spelled = self.spelled[rel]
        length = len(spelled)
        wrap = self.wraps[rel]
        core_end = length - wrap  # positions wrap .. core_end - 1 are the core
        n = self.n_gens
        out, into, edges = self.out, self.into, self.edges
        corners = self.corners[rel]
        first = v0 * length + start  # the start corner, ranked like ``corners``
        state_edges = len(edges)
        g, forward = spelled[start]
        path = [None] * length
        found: list[TwoComplex] = []

        def follow(k, v):
            # Follow existing edges from step k at v: the step and vertex
            # where an edge must be added, (length, v0) once the face has
            # closed, or (-1, v) where the trace stops.
            while k < length:
                pos = (start + k) % length
                corner = v * length + pos
                if corner in corners:
                    return -1, v
                g, forward = spelled[pos]
                e = (out if forward else into).get(v * n + g)
                if corner < first and (e is None or e >= state_edges):
                    return -1, v  # a trace from that corner finds this face
                if e is None:
                    return k, v
                s, d, _ = edges[e]
                v = d if forward else s
                if k == length - 1 and v != v0:
                    return -1, v
                path[k] = (e, 1 if forward else -1)
                k += 1
            return k, v

        def snapshot():
            cut = (length - start) % length  # path[cut] is position 0
            found.append(self._snapshot((rel, tuple(path[cut:] + path[:cut]))))

        if v0 * n + g in (out if forward else into):
            # From a corner whose edge exists the trace adds no edge: it walks.
            if follow(0, v0)[0] == length:
                snapshot()
            return found

        def step(k, v, joins):
            # Each open call below the first holds one pushed edge, popped
            # when it returns, and the state never holds more than
            # max_edges edges, so the depth is at most max_edges + 1
            # however long the relator.
            k, v = follow(k, v)
            if k < 0:
                return
            if k == length:
                snapshot()
                return
            room = self.max_edges - len(edges)
            if room < 1:
                return
            pos = (start + k) % length
            g, forward = spelled[pos]
            sign = 1 if forward else -1
            last = k == length - 1
            if joins < join_cap:
                near, far = (out, into) if forward else (into, out)
                walk = last or room == 1
                slot, idx = v * n + g, len(edges)
                path[k] = (idx, sign)
                for w in (v0,) if last else range(self.vertex_count):
                    far_slot = w * n + g
                    if far_slot in far:
                        continue
                    near[slot] = far[far_slot] = idx
                    edges.append((v, w, g) if forward else (w, v, g))
                    if not walk:
                        step(k + 1, w, joins + 1)
                    elif follow(k + 1, w)[0] == length:
                        snapshot()
                    edges.pop()
                    del near[slot], far[far_slot]
            # A fresh vertex in the core needs a later join (point 6).
            if not last and (joins < join_cap and room > 1 or not wrap <= pos < core_end):
                w = self.vertex_count
                self.vertex_count += 1
                path[k] = (self._attach(v, g, forward, w), sign)
                step(k + 1, w, joins)
                self._pop()
                self.vertex_count -= 1

        step(0, v0, 0)
        return found

    def _single_faces(self, rel: int):
        """Relator ``rel``'s single faces within the bounds and their corner
        fits, traced once per scan, on first use.  The faces are what
        ``_trace`` returns from position 0 in the one-vertex start state (join
        cap ``max_faces``), the position-0 corner at vertex 0.  ``fits[t]``
        holds the least demanding (loop, other-edge) masks of their
        position-t corner vertices (point 7)."""
        if rel not in self.scan:
            start = _Moves(TwoComplex(1, (), ()), self.spelled, self.wraps, self.n_gens,
                           self.max_edges, self.max_faces, self.scan)
            faces = start._trace(rel, 0, 0, self.max_faces)
            corners = set()
            for c in faces:
                loops, others = _slot_masks(c.vertex_count, c.edges)
                for t, (e, d) in enumerate(c.faces[0][1]):
                    x = _tail(c.edges, e, d)
                    corners.add((t, loops[x], others[x]))
            # Fewest bits first, so a pair is kept unless one kept asks less.
            fits = [[] for _ in self.spelled[rel]]
            for t, lx, ox in sorted(corners, key=lambda k: (k[1] | k[2]).bit_count()):
                if all(ly & ~lx or oy & ~ox for ly, oy in fits[t]):
                    fits[t].append((lx, ox))
            self.scan[rel] = (faces, fits)
        return self.scan[rel]

    def face_moves(self):
        """One new face traced from a vertex of the state."""
        state = self.state
        if len(state.faces) >= self.max_faces:
            return
        rels = range(len(self.spelled))
        if not state.faces:
            # The start state, the only faceless one: one face at its vertex.
            for rel in rels:
                yield from self._single_faces(rel)[0]
            return
        # Each later face raises chi by at most one.
        join_cap = euler_characteristic(state) + self.max_faces - len(state.faces) - 1
        # Position 0 is read at every vertex as a walk where its edge exists;
        # any position where its edge is missing, as a trace that adds it;
        # both only where a single face fits the corner (point 7).
        has_room = len(state.edges) < self.max_edges
        fits = [self._single_faces(rel)[1] for rel in rels]
        loops, others = _slot_masks(state.vertex_count, state.edges)
        for v in range(state.vertex_count):
            lv, ov = loops[v], others[v]
            for rel, word in enumerate(self.spelled):
                for t, (g, forward) in enumerate(word):
                    missing = v * self.n_gens + g not in (self.out if forward else self.into)
                    if not (has_room if missing else t == 0):
                        continue
                    for lx, ox in fits[rel][t]:
                        if not (lx & ov or ox & lv):
                            yield from self._trace(rel, t, v, join_cap)
                            break


def npi_scan(pres: Presentation, max_edges: int, max_faces: int):
    """Candidates for the non-positive-immersion dichotomy within bounds.

    Emits every fully faced immersion (a face crosses each edge) with
    chi >= 1 that does not collapse (see :func:`collapsible`), one per
    isomorphism class, in canonical order, each as its class's canonical
    representative.  An empty result means every immersion within the
    bounds has chi <= 0 or collapses; a candidate is evidence for
    inspection, never a refutation, since collapsibility is sufficient but
    not necessary for contractibility.  The search is face-first; the
    module docstring gives the argument that it misses no fully faced
    class, and that a bound with any candidate has a fully faced one.
    """
    _check_bounds(max_edges, max_faces)
    _require_valid(pres)
    n_gens = len(pres.generators)
    spelled = [_spell(rel) for rel in pres.relators]
    wraps = [_wrap_length(rel) for rel in pres.relators]
    scan: dict[int, tuple] = {}
    start = TwoComplex(1, (), ())
    states = {canonical_complex(start): start}
    stack = [start]
    while stack:
        state = stack.pop()
        moves = _Moves(state, spelled, wraps, n_gens, max_edges, max_faces, scan)
        for child in moves.face_moves():
            canon = canonical_complex(child)
            if canon not in states:
                states[canon] = child
                stack.append(child)

    # Graphs (no faces) with chi >= 1 are trees, which collapse.
    found = sorted(
        canon for canon, state in states.items()
        if euler_characteristic(state) >= 1 and state.faces and not collapsible(state)
    )
    reports = [ImmersionReport(from_canonical(c), euler_characteristic(states[c])) for c in found]
    for r in reports:
        assert is_folded(r.complex) and is_connected(r.complex)
        assert link_injective(r.complex)
        check_faces(pres, r.complex)
        faced = {e for _, path in r.complex.faces for e, _ in path}
        assert len(faced) == len(r.complex.edges)
    return reports
