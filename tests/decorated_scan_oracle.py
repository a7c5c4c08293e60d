"""The scan that also grew face-free edges, kept as a differential oracle
for ``complexes.npi_scan``.

These are the former moves and scan verbatim.  Face moves traced a face
from a vertex of the state, as now, or grafted a relator's single face
at the end of a new face-free bridge path, as the first face of a new
blob.  A second run added face-free ears to every state of chi >= 2, and
a third grew pendant trees on every candidate by leaf moves.  So the
former scan listed every candidate within the bounds, where the current
one lists only the fully faced ones; the ``complexes`` module docstring
gives the argument that a bound has a candidate iff it has a fully faced
one.  The per-scan dict this scan fills holds each single face with its
join count and edge-end masks, which the grafts read.
"""

from __future__ import annotations

import itertools

from npicheck.complexes import (
    ImmersionReport,
    TwoComplex,
    _check_bounds,
    _Moves,
    _require_valid,
    _slot_masks,
    _spell,
    _tail,
    canonical_complex,
    check_faces,
    collapsible,
    euler_characteristic,
    from_canonical,
    is_connected,
    is_folded,
    link_injective,
)
from npicheck.words import _wrap_length


class DecoratedMoves(_Moves):
    """``_Moves`` with the former face moves, ears and leaves."""

    def _snapshot(self, new_face=None) -> TwoComplex:
        faces = self.state.faces + ((new_face,) if new_face else ())
        return TwoComplex(self.vertex_count, tuple(self.edges), faces)

    def _fresh_paths(self, x: int, max_len: int):
        """Ends of the folded paths of 1..max_len edges from x through fresh
        vertices; each path stays in place while its end is yielded."""

        def extend(v, length):
            if length:
                yield v
            if length >= max_len:
                return
            for g in range(self.n_gens):
                for forward in (True, False):
                    if v * self.n_gens + g in (self.out if forward else self.into):
                        continue
                    w = self.vertex_count
                    self.vertex_count += 1
                    self._attach(v, g, forward, w)
                    yield from extend(w, length + 1)
                    self._pop()
                    self.vertex_count -= 1

        yield from extend(x, 0)

    def _single_faces(self, rel: int):
        """Relator ``rel``'s single faces within the bounds and their corner
        fits, traced once per scan, on first use.  The faces are what
        ``_trace`` yields from position 0 in the one-vertex start state (join
        cap ``max_faces``), as (complex, joins, slots): the position-0 corner
        is at vertex 0, joins is E - V + 1, and slots[v] masks the edge ends
        at v.  ``fits[t]`` holds the least demanding (loop, other-edge)
        masks of their position-t corner vertices (point 7)."""
        if rel not in self.scan:
            start = _Moves(TwoComplex(1, (), ()), self.spelled, self.wraps, self.n_gens,
                           self.max_edges, self.max_faces, self.scan)
            faces, corners = [], set()
            for c in start._trace(rel, 0, 0, self.max_faces):
                loops, others = _slot_masks(c.vertex_count, c.edges)
                slots = [a | b for a, b in zip(loops, others)]
                faces.append((c, len(c.edges) - c.vertex_count + 1, slots))
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

    def _grafts(self, rel: int, u: int, join_cap: int):
        """Snapshots with a first face of relator ``rel`` in a new blob at
        the end u of the bridge just pushed: each single face within the
        join cap and the room left, rooted at u by any vertex whose edge
        ends leave free the one the bridge's last edge takes at u.  The
        face's other vertices are numbered after u, the last vertex."""
        s, _, g = self.edges[-1]
        taken = 1 << 2 * g + (s != u)
        room = self.max_edges - len(self.edges)
        first = len(self.edges)
        for c, joins, slots in self._single_faces(rel)[0]:
            if joins > join_cap or len(c.edges) > room:
                continue
            (_, path), = c.faces
            face = (rel, tuple((first + e, d) for e, d in path))
            for root in range(c.vertex_count):
                if slots[root] & taken:
                    continue
                at = [u if v == root else u + v + (v < root) for v in range(c.vertex_count)]
                edges = tuple(self.edges) + tuple((at[a], at[b], h) for a, b, h in c.edges)
                yield TwoComplex(u + c.vertex_count, edges, self.state.faces + (face,))

    def face_moves(self):
        """One new face traced from a vertex of the state, or grafted at the
        end of a new face-free bridge path as the first face of a new blob."""
        state = self.state
        if len(state.faces) >= self.max_faces:
            return
        rels = range(len(self.spelled))
        if not state.faces:
            # The start state, the only faceless one: one face at its vertex.
            for rel in rels:
                yield from (c for c, _, _ in self._single_faces(rel)[0])
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
        for x in range(state.vertex_count):
            for u in self._fresh_paths(x, self.max_edges - len(state.edges) - 1):
                for rel in rels:
                    yield from self._grafts(rel, u, join_cap)

    def ear_moves(self):
        """One face-free ear: a folded path from a vertex of the state
        through fresh vertices (possibly none), closed by an edge to any
        vertex; it lowers chi by one.  Only from chi >= 2, so that the
        result keeps chi >= 1."""
        room = self.max_edges - len(self.edges)
        if room < 1 or euler_characteristic(self.state) < 2:
            return
        for x in range(self.state.vertex_count):
            for v in itertools.chain((x,), self._fresh_paths(x, room - 1)):
                for g in range(self.n_gens):
                    for forward in (True, False):
                        if v * self.n_gens + g in (self.out if forward else self.into):
                            continue
                        far_slot = self.into if forward else self.out
                        for w in range(self.vertex_count):
                            if w * self.n_gens + g not in far_slot:
                                self._attach(v, g, forward, w)
                                yield self._snapshot()
                                self._pop()

    def leaf_moves(self):
        """One face-free edge from a vertex of the state to a fresh vertex,
        while room is left; it keeps chi."""
        if len(self.edges) >= self.max_edges:
            return
        for x in range(self.state.vertex_count):
            for _ in self._fresh_paths(x, 1):
                yield self._snapshot()


def decorated_npi_scan(pres, max_edges: int, max_faces: int):
    """The former ``complexes.npi_scan``: every immersion with chi >= 1
    that does not collapse, one per class, in canonical order, fully faced
    or not."""
    _check_bounds(max_edges, max_faces)
    _require_valid(pres)
    n_gens = len(pres.generators)
    spelled = [_spell(rel) for rel in pres.relators]
    wraps = [_wrap_length(rel) for rel in pres.relators]
    scan: dict[int, tuple] = {}

    def explore(stack, moves, seen):
        while stack:
            state = stack.pop()
            for child in moves(DecoratedMoves(state, spelled, wraps, n_gens, max_edges, max_faces, scan)):
                canon = canonical_complex(child)
                if canon not in seen:
                    seen[canon] = child
                    stack.append(child)

    start = TwoComplex(1, (), ())
    states = {canonical_complex(start): start}
    explore([start], DecoratedMoves.face_moves, states)
    explore(list(states.values()), DecoratedMoves.ear_moves, states)

    # Graphs (no faces) with chi >= 1 are trees, which collapse.
    found = {
        canon: state for canon, state in states.items()
        if euler_characteristic(state) >= 1 and state.faces and not collapsible(state)
    }
    explore(list(found.values()), DecoratedMoves.leaf_moves, found)

    reports = [
        ImmersionReport(from_canonical(c), euler_characteristic(found[c])) for c in sorted(found)
    ]
    for r in reports:
        assert is_folded(r.complex) and is_connected(r.complex)
        assert link_injective(r.complex)
        check_faces(pres, r.complex)
    return reports
