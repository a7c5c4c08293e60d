"""Face moves that trace every relator from every position, kept as a
differential oracle for ``complexes._Moves.face_moves``.

These are the former ``face_moves`` and ``_trace`` verbatim, less the
traces from the ends of face-free bridge paths, which the scan no longer
builds, and the ``low`` bound that confined those: every rotation of every
relator is traced from every vertex of the state.  The current moves
trace each relator's single faces once per scan and start a state-vertex
trace only at a corner whose first edge is missing and where one of those
faces fits; the module docstring of ``complexes`` gives the argument that
they reach the same classes.
"""

from __future__ import annotations

from npicheck import complexes
from npicheck.complexes import _Moves, euler_characteristic


class OracleMoves(_Moves):
    """``_Moves`` with the former face moves; the per-scan tables it is
    handed go unused."""

    def _trace(self, rel: int, start: int, v0: int, join_cap: int):
        """Snapshots with one more face: relator ``rel`` read from position
        ``start`` at ``v0``.  An edge the word needs is followed if it
        exists; otherwise it is added, to a fresh vertex or, as a join, to
        an existing one (at most ``join_cap`` joins).  The last step must
        land on ``v0``, and no corner may repeat one of the state's."""
        spelled = self.spelled[rel]
        length = len(spelled)
        path = [None] * length

        def step(k, v, joins):
            if k == length:
                if v == v0:
                    cut = (length - start) % length  # path[cut] is position 0
                    yield self._snapshot((rel, tuple(path[cut:] + path[:cut])))
                return
            pos = (start + k) % length
            if v * length + pos in self.corners[rel]:
                return
            g, forward = spelled[pos]
            sign = 1 if forward else -1
            last = k == length - 1
            e = (self.out if forward else self.into).get(v * self.n_gens + g)
            if e is not None:
                s, d, _ = self.edges[e]
                w = d if forward else s
                if w == v0 or not last:
                    path[k] = (e, sign)
                    yield from step(k + 1, w, joins)
                return
            if len(self.edges) >= self.max_edges:
                return
            far_slot = self.into if forward else self.out
            if joins < join_cap:
                for w in (v0,) if last else range(self.vertex_count):
                    if w * self.n_gens + g not in far_slot:
                        path[k] = (self._attach(v, g, forward, w), sign)
                        yield from step(k + 1, w, joins + 1)
                        self._pop()
            if not last:
                w = self.vertex_count
                self.vertex_count += 1
                path[k] = (self._attach(v, g, forward, w), sign)
                yield from step(k + 1, w, joins)
                self._pop()
                self.vertex_count -= 1

        yield from step(0, v0, 0)

    def face_moves(self):
        """One new face traced from a vertex of the state."""
        state = self.state
        if len(state.faces) >= self.max_faces:
            return
        # Each later face raises chi by at most one.
        join_cap = euler_characteristic(state) + self.max_faces - len(state.faces) - 1
        starts = [(rel, t) for rel, word in enumerate(self.spelled) for t in range(len(word))]
        for v in range(state.vertex_count):
            for rel, t in starts:
                yield from self._trace(rel, t, v, join_cap)


def oracle_npi_scan(pres, max_edges, max_faces):
    """``complexes.npi_scan`` run with the face moves above."""
    current = complexes._Moves
    complexes._Moves = OracleMoves
    try:
        return complexes.npi_scan(pres, max_edges, max_faces)
    finally:
        complexes._Moves = current
