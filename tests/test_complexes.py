import itertools
import random
import time
from collections import Counter

import pytest

import collapse_oracle
from npicheck import complexes
from decorated_scan_oracle import decorated_npi_scan
from face_moves_oracle import OracleMoves, oracle_npi_scan
from npicheck.complexes import (
    TwoComplex,
    _Moves,
    _slot_masks,
    _spell,
    canonical_complex,
    check_faces,
    collapsible,
    euler_characteristic,
    from_canonical,
    is_connected,
    is_folded,
    link_injective,
    npi_scan,
)
from npicheck.textio import parse_presentation
from npicheck.words import _wrap_length, letter_gen, rotate_word, validate
from helpers import flip_generator, make_presentation, presentation_complex
from samples import sample_a, sample_b, sample_braid, torsion_presentation
from scan_oracle import enumerate_immersions, oracle_canonical_complex, oracle_scan


# ---------------------------------------------------------------------------
# Naive generate-and-filter oracle, independent of the production enumerator:
# raw tuples, brute-force face walks, and permutation-based isomorphism.


def naive_connected(n_vertices, edges):
    if n_vertices == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for s, d, _ in edges:
            for a, b in ((s, d), (d, s)):
                if a == v and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return len(seen) == n_vertices


def naive_folded(edges):
    outs = [(s, g) for s, _, g in edges]
    ins = [(d, g) for _, d, g in edges]
    return len(set(outs)) == len(outs) and len(set(ins)) == len(ins)


def naive_faces(n_vertices, edges, pres):
    """All closed paths spelling a relator, by brute force over edge steps."""
    steps = []
    for idx, (s, d, g) in enumerate(edges):
        steps.append((idx, 1, s, d, g))
        steps.append((idx, -1, d, s, g))
    faces = []
    for rel_idx, rel in enumerate(pres.relators):
        if not rel:
            continue
        for seq in itertools.product(steps, repeat=len(rel)):
            ok = True
            for (x, (idx, direction, frm, to, g)) in zip(rel, seq):
                if g != letter_gen(x) or direction != (1 if x > 0 else -1):
                    ok = False
                    break
            if not ok:
                continue
            for t in range(len(seq)):
                if seq[t][3] != seq[(t + 1) % len(seq)][2]:
                    ok = False
                    break
            if ok:
                faces.append((rel_idx, tuple((idx, d) for idx, d, _, _, _ in seq)))
    return faces


def naive_link_injective(edges, faces):
    corners = set()
    for rel, path in faces:
        for t, (e, d) in enumerate(path):
            vertex = edges[e][0] if d == 1 else edges[e][1]
            if (vertex, rel, t) in corners:
                return False
            corners.add((vertex, rel, t))
    return True


def naive_isomorphic(c1, c2):
    if c1.vertex_count != c2.vertex_count or len(c1.edges) != len(c2.edges):
        return False
    if len(c1.faces) != len(c2.faces):
        return False
    for perm in itertools.permutations(range(c1.vertex_count)):
        mapping = {}
        image_edges = []
        ok = True
        for idx, (s, d, g) in enumerate(c1.edges):
            image_edges.append((perm[s], perm[d], g))
        try:
            edge_map = [c2.edges.index(e) for e in image_edges]
        except ValueError:
            continue
        if len(set(edge_map)) != len(edge_map):
            continue
        mapped_faces = sorted(
            (rel, tuple((edge_map[e], d) for e, d in path)) for rel, path in c1.faces
        )
        if mapped_faces == sorted(c2.faces):
            return True
    return False


def naive_enumerate(pres, max_edges, max_faces):
    """Generate-and-filter over raw edge tuples; dedup by permutation search."""
    n_gens = len(pres.generators)
    classes = []
    for n_vertices in range(1, max_edges + 2):
        universe = [
            (s, d, g)
            for s in range(n_vertices)
            for d in range(n_vertices)
            for g in range(n_gens)
        ]
        for n_edges in range(0, max_edges + 1):
            for edges in itertools.combinations(universe, n_edges):
                touched = {v for s, d, _ in edges for v in (s, d)}
                if n_vertices > 1 and len(touched) < n_vertices:
                    continue
                if not naive_folded(edges) or not naive_connected(n_vertices, edges):
                    continue
                all_faces = naive_faces(n_vertices, edges, pres)
                for size in range(0, min(max_faces, len(all_faces)) + 1):
                    for combo in itertools.combinations(all_faces, size):
                        if not naive_link_injective(edges, combo):
                            continue
                        cand = TwoComplex(n_vertices, tuple(edges), tuple(combo))
                        if not any(naive_isomorphic(cand, c) for c in classes):
                            classes.append(cand)
    return classes


# ---------------------------------------------------------------------------


def test_is_folded():
    assert is_folded(TwoComplex(1, ((0, 0, 0),), ()))
    assert not is_folded(TwoComplex(1, ((0, 0, 0), (0, 0, 0)), ()))
    assert not is_folded(TwoComplex(2, ((0, 1, 0), (0, 1, 0)), ()))


def test_link_injective():
    k = presentation_complex(sample_a())
    assert link_injective(k)
    face = ((0, 1), (0, 1))
    doubled = TwoComplex(1, ((0, 0, 0),), ((0, face), (0, face)))
    assert not link_injective(doubled)
    graph = TwoComplex(2, ((0, 1, 0),), ())
    assert link_injective(graph)


def test_euler_characteristic():
    assert euler_characteristic(presentation_complex(torsion_presentation())) == 1
    assert euler_characteristic(TwoComplex(1, ((0, 0, 0),), ())) == 0
    assert euler_characteristic(TwoComplex(1, (), ())) == 1


def test_collapsible():
    # disk attached along a a^-1 over two parallel edges: one edge is free
    disk = TwoComplex(2, ((0, 1, 0), (0, 1, 0)), ((0, ((0, 1), (1, -1))),))
    assert collapsible(disk)
    assert not collapsible(presentation_complex(torsion_presentation()))
    tree = TwoComplex(3, ((0, 1, 0), (1, 2, 0)), ())
    assert collapsible(tree)
    # RP^2 with 12 bigon disks wedged at its vertex: each bigon collapses
    # through either edge, so a search over collapse orders meets 3^12
    # states (the former budgeted search gave up after ~8 s).
    edges = [(0, 0, 0)]
    faces = [(0, ((0, 1), (0, 1)))]
    for i in range(12):
        edges += [(0, i + 1, 0), (0, i + 1, 0)]
        faces.append((0, ((2 * i + 1, 1), (2 * i + 2, -1))))
    wedge = TwoComplex(13, tuple(edges), tuple(faces))
    start = time.perf_counter()
    assert not collapsible(wedge)
    assert time.perf_counter() - start < 0.1


AB = make_presentation(["a", "b"], [(1, 2)])


def test_check_faces_accepts_a_closed_face():
    check_faces(AB, TwoComplex(2, ((0, 1, 0), (1, 0, 1)), ((0, ((0, 1), (1, 1))),)))


@pytest.mark.parametrize("complex_, why", [
    # a then b on the edges 0 -> 1 -> 2: the letters are right, the path open
    (TwoComplex(3, ((0, 1, 0), (1, 2, 1)), ((0, ((0, 1), (1, 1))),)), "not closed"),
    # b leaves vertex 2, but a ends at vertex 1
    (TwoComplex(3, ((0, 1, 0), (2, 0, 1)), ((0, ((0, 1), (1, 1))),)), "not an edge path"),
    # the second step is labelled a
    (TwoComplex(2, ((0, 1, 0), (1, 0, 0)), ((0, ((0, 1), (1, 1))),)), "does not spell"),
    # the second step crosses b backwards
    (TwoComplex(2, ((0, 1, 0), (0, 1, 1)), ((0, ((0, 1), (1, -1))),)), "does not spell"),
    # one step for a relator of two letters
    (TwoComplex(1, ((0, 0, 0),), ((0, ((0, 1),)),)), "length differs"),
])
def test_check_faces_rejects(complex_, why):
    with pytest.raises(AssertionError, match=why):
        check_faces(AB, complex_)


def test_enumerate_free_group_graphs():
    free = make_presentation(["a"], [])
    got = list(enumerate_immersions(free, 2, 0))
    naive = naive_enumerate(free, 2, 0)
    assert len(got) == len(naive) == 5


def test_enumerate_includes_presentation_complex():
    pres = torsion_presentation()
    found = list(enumerate_immersions(pres, 1, 1))
    target = canonical_complex(presentation_complex(pres))
    assert target in [canonical_complex(c) for c in found]


def test_enumerate_counts_match_naive_oracle():
    for pres in (
        make_presentation(["a", "b"], [(1, 2, -1, -2)]),
        make_presentation(["a", "b"], [(1, 1, 2)]),
    ):
        for max_e, max_f in ((2, 1), (3, 1)):
            got = list(enumerate_immersions(pres, max_e, max_f))
            naive = naive_enumerate(pres, max_e, max_f)
            assert len(got) == len(naive), (pres, max_e, max_f)


def test_enumerate_dedup():
    pres = make_presentation(["a", "b"], [(1, 2, -1, -2)])
    got = list(enumerate_immersions(pres, 3, 1))
    canons = [canonical_complex(c) for c in got]
    assert len(canons) == len(set(canons))
    for c1, c2 in itertools.combinations(got[:12], 2):
        assert not naive_isomorphic(c1, c2)


def test_npi_scan_examples():
    reports = npi_scan(torsion_presentation(), 1, 1)
    assert len(reports) == 1
    report = reports[0]
    assert report.chi == 1
    assert canonical_complex(report.complex) == canonical_complex(
        presentation_complex(torsion_presentation())
    )
    free = make_presentation(["a"], [])
    assert npi_scan(free, 4, 2) == []


def test_npi_scan_monotone_in_bounds():
    pres = torsion_presentation()
    small = {canonical_complex(r.complex) for r in npi_scan(pres, 1, 1)}
    bigger = {canonical_complex(r.complex) for r in npi_scan(pres, 3, 2)}
    assert small <= bigger


def _fully_faced(complex_):
    """Whether a face crosses every edge: what the scan lists."""
    _, edges, faces = complex_
    return {e for _, path in faces for e, _ in path} == set(range(len(edges)))


def test_npi_scan_agrees_with_full_enumeration():
    pres = torsion_presentation()
    expected = []
    for y in enumerate_immersions(pres, 3, 2):
        if euler_characteristic(y) >= 1 and len(y.faces) + (
            len(y.edges) - y.vertex_count + 1
        ) > 0:
            if not collapsible(y) and _fully_faced(y):
                expected.append(canonical_complex(y))
    got = [canonical_complex(r.complex) for r in npi_scan(pres, 3, 2)]
    assert sorted(got) == sorted(expected)


def test_scan_bounds_enforced():
    with pytest.raises(ValueError):
        npi_scan(torsion_presentation(), 11, 1)
    with pytest.raises(ValueError):
        enumerate_immersions(torsion_presentation(), 2, 6)


@pytest.mark.parametrize("bounds", [(-1, 2), (3, -1), (-1, -1)])
def test_negative_bounds_rejected(bounds):
    for scan in (npi_scan, enumerate_immersions):
        with pytest.raises(ValueError, match=rf"bounds \({bounds[0]}, {bounds[1]}\)"):
            scan(torsion_presentation(), *bounds)


# The second relator reads a b b a^-1: its first and last letters cancel
# cyclically, so its faces cross an edge out and back.
WRAP_TEXT = "gens: a b\nrel: a b^2 a^-1\n"
# Nested wrap pairs: two letters cancel cyclically across the wrap.
NESTED_WRAP_TEXTS = (
    "gens: a b c\nrel: c^-1 b^-1 a^2 b c\n",
    "gens: a b\nrel: b^-1 a^-1 b^2 a b\n",
)


def _scan_key(reports):
    return [(canonical_complex(r.complex), r.chi) for r in reports]


def _within(key, max_edges, max_faces):
    # Candidacy does not depend on the bounds, so a scan at smaller bounds
    # is the part of the larger scan that fits them.
    return [k for k in key if len(k[0][1]) <= max_edges and len(k[0][2]) <= max_faces]


def test_npi_scan_wrap_pair_relator():
    # A search over minimum-degree-two cores plus pendant trees misses all
    # of these at F <= 2: their faces cross the a-edge out and back.
    pres = parse_presentation(WRAP_TEXT)
    assert len(npi_scan(pres, 2, 2)) == len(npi_scan(pres, 2, 3)) == 1
    assert len(npi_scan(pres, 3, 2)) == 1
    for max_e in range(5):
        for max_f in range(3):
            fewer = set(_scan_key(npi_scan(pres, max_e, max_f)))
            assert fewer <= set(_scan_key(npi_scan(pres, max_e, max_f + 1)))


def _random_word(rng, n_gens, length, wrap):
    letters = [g for g in range(1, n_gens + 1)] + [-g for g in range(1, n_gens + 1)]
    word = [rng.choice(letters)]
    while len(word) < length:
        x = rng.choice(letters)
        if x != -word[-1]:
            word.append(x)
    if wrap and length >= 3 and word[-2] != word[0]:
        word[-1] = -word[0]  # a cancelling wrap pair
    return tuple(word)


def _differential_presentations():
    yield sample_a()
    yield sample_b()
    yield sample_braid()
    yield torsion_presentation()
    yield parse_presentation(WRAP_TEXT)
    yield from map(parse_presentation, NESTED_WRAP_TEXTS)
    yield parse_presentation("gens: a b\nrel: a^2\nrel: b^2\n")
    yield parse_presentation("gens: a b\nrel: a^3\nrel: a b a^-1 b^-1\n")
    rng = random.Random(2024)
    made = 0
    while made < 16:
        rels = [
            _random_word(rng, 2, rng.randint(1, 4), wrap=rng.random() < 0.5)
            for _ in range(rng.randint(1, 2))
        ]
        pres = make_presentation(["a", "b"], rels)
        if not validate(pres):
            made += 1
            yield pres


def test_npi_scan_matches_graph_first_oracle():
    # The scan lists the fully faced part of the exhaustive search.
    wraps = dropped = 0
    for pres in _differential_presentations():
        wraps += any(len(r) > 1 and r[0] == -r[-1] for r in pres.relators)
        expected = _scan_key(oracle_scan(pres, 4, 3))
        for max_e in range(5):
            for max_f in range(4):
                within = _within(expected, max_e, max_f)
                faced = [k for k in within if _fully_faced(k[0])]
                got = _scan_key(npi_scan(pres, max_e, max_f))
                assert got == faced, (pres, max_e, max_f)
                dropped += len(within) - len(faced)
    assert wraps >= 5
    assert dropped > 0


def test_npi_scan_is_the_fully_faced_part_of_the_decorated_scan():
    # The former scan also grew face-free bridges, ears and pendant trees.
    # Within the same bounds the scan lists exactly its fully faced
    # candidates, and finds one exactly where it found one.
    dropped = 0
    for pres in _differential_presentations():
        for max_e in range(7):
            for max_f in range(4):
                old = decorated_npi_scan(pres, max_e, max_f)
                new = npi_scan(pres, max_e, max_f)
                faced = [r for r in old if _fully_faced(r.complex)]
                assert new == faced, (pres, max_e, max_f)
                assert bool(new) == bool(old), (pres, max_e, max_f)
                dropped += len(old) - len(new)
    assert dropped > 0


def _face_move_cases():
    for pres in _differential_presentations():
        for max_e in range(6):
            for max_f in range(4):
                yield pres, max_e, max_f
    yield sample_a(), 6, 2


def _face_move_states(pres, max_e, max_f):
    """Every state the face moves reach, with the snapshots of its moves."""
    spelled = [_spell(rel) for rel in pres.relators]
    wraps = [_wrap_length(rel) for rel in pres.relators]
    n_gens = len(pres.generators)
    scan = {}
    start = TwoComplex(1, (), ())
    seen = {canonical_complex(start)}
    stack = [start]
    while stack:
        state = stack.pop()
        children = list(_Moves(state, spelled, wraps, n_gens, max_e, max_f, scan).face_moves())
        yield state, children
        for child in children:
            canon = canonical_complex(child)
            if canon not in seen:
                seen.add(canon)
                stack.append(from_canonical(canon))


def test_face_moves_match_trace_everywhere_oracle():
    # From every state the face moves reach, the moves and the oracle's reach
    # the same classes, so they reach the same states; the scans agree.
    for pres, max_e, max_f in _face_move_cases():
        spelled = [_spell(rel) for rel in pres.relators]
        wraps = [_wrap_length(rel) for rel in pres.relators]
        n_gens = len(pres.generators)
        for state, children in _face_move_states(pres, max_e, max_f):
            got = {canonical_complex(c) for c in children}
            want = {
                canonical_complex(c)
                for c in OracleMoves(state, spelled, wraps, n_gens, max_e, max_f, {}).face_moves()
            }
            assert got == want, (pres, max_e, max_f, state)
        assert npi_scan(pres, max_e, max_f) == oracle_npi_scan(pres, max_e, max_f)


def _fits_corner(single, t, kinds):
    """Whether the position-t corner vertex of a single-face complex can sit
    at a state vertex whose slots ``kinds`` maps, (label, leaves) -> whether
    the edge there is a loop: a loop only on slots free or holding a loop,
    another edge end only on slots free or holding a non-loop edge."""
    e, d = single.faces[0][1][t]
    x = single.edges[e][0 if d == 1 else 1]
    for s, dst, g in single.edges:
        for end, leaves in ((s, True), (dst, False)):
            kind = kinds.get((g, leaves))
            if end == x and kind is not None and kind != (s == dst):
                return False
    return True


def test_corners_no_single_face_fits_trace_nothing():
    # Point 7 of the complexes docstring: a trace or walk starts only at a
    # corner where one of the relator's single faces fits.  The masks decide
    # exactly that fit, and every start they reject, traced anyway with
    # the join cap face_moves uses, yields nothing.
    rejected = 0
    a52 = (sample_a(), 5, 2)
    second = Counter()  # fits at the starts of sample A's second relator at (5, 2)
    for pres, max_e, max_f in _face_move_cases():
        spelled = [_spell(rel) for rel in pres.relators]
        wraps = [_wrap_length(rel) for rel in pres.relators]
        n_gens = len(pres.generators)
        scan = {}
        for state, _ in _face_move_states(pres, max_e, max_f):
            if not state.faces or len(state.faces) >= max_f:
                continue
            moves = _Moves(state, spelled, wraps, n_gens, max_e, max_f, scan)
            join_cap = euler_characteristic(state) + max_f - len(state.faces) - 1
            loops, others = _slot_masks(state.vertex_count, state.edges)
            for v in range(state.vertex_count):
                kinds = {}
                for s, d, g in state.edges:
                    for end, leaves in ((s, True), (d, False)):
                        if end == v:
                            kinds[g, leaves] = s == d
                for rel, word in enumerate(spelled):
                    singles, fits = moves._single_faces(rel)
                    for t, letter in enumerate(word):
                        if not (len(state.edges) < max_e if letter not in kinds else t == 0):
                            continue
                        fit = any(not (lx & others[v] or ox & loops[v]) for lx, ox in fits[t])
                        assert fit == any(_fits_corner(c, t, kinds) for c in singles)
                        if rel == 1 and (pres, max_e, max_f) == a52:
                            second[fit] += 1
                        if not fit:
                            rejected += 1
                            assert not list(moves._trace(rel, t, v, join_cap)), (
                                pres, max_e, max_f, state, rel, t, v,
                            )
    assert rejected > 0
    assert second[False] > 0 and second[True] == 0


def _new_face(state, snapshot):
    """The face a move adds, as its relator and the vertices of its corners
    from position 0, the vertices it creates numbered in order of visit."""
    rel, path = snapshot.faces[-1]
    fresh = {}
    corners = []
    for e, d in path:
        v = snapshot.edges[e][0 if d == 1 else 1]
        if v >= state.vertex_count:
            v = fresh.setdefault(v, state.vertex_count + len(fresh))
        corners.append(v)
    return rel, tuple(corners)


def test_traced_faces_are_never_repeated():
    # Every face a move adds passes through a vertex of the state and is
    # traced from its least corner only, so no two snapshots of one state
    # carry the same face.
    traced = 0
    for pres, max_e, max_f in _face_move_cases():
        for state, children in _face_move_states(pres, max_e, max_f):
            faces = [_new_face(state, c) for c in children]
            assert len(faces) == len(set(faces)), (pres, max_e, max_f, state)
            traced += len(faces)
    assert traced > 1000


def test_canonical_complex_matches_the_oracle_on_every_scanned_state(monkeypatch):
    # Every complex the scan puts into canonical form: the children of face
    # moves.
    current = complexes.canonical_complex
    forms = []

    def checked(complex_):
        forms.append(current(complex_))
        assert forms[-1] == oracle_canonical_complex(complex_), complex_
        return forms[-1]

    monkeypatch.setattr(complexes, "canonical_complex", checked)
    for pres in _differential_presentations():
        npi_scan(pres, 8, 3)
    npi_scan(sample_a(), 10, 4)
    assert len(forms) > 4000


def _isomorphic_twins(pres):
    """Presentations with an isomorphic complex: one relator rotated
    cyclically (where that keeps it valid), or one generator inverted."""
    for i, rel in enumerate(pres.relators):
        for k in range(1, len(rel)):
            rels = list(pres.relators)
            rels[i] = rotate_word(rel, k)
            twin = make_presentation(pres.generators, rels)
            if not validate(twin):
                yield twin
    for g in range(len(pres.generators)):
        yield flip_generator(pres, g)


def test_scan_counts_invariant_under_rotation_and_inversion():
    for pres in _differential_presentations():
        twins = list(_isomorphic_twins(pres))
        for max_e in range(6):
            for max_f in range(4):
                counts = Counter(r.chi for r in npi_scan(pres, max_e, max_f))
                for twin in twins:
                    got = Counter(r.chi for r in npi_scan(twin, max_e, max_f))
                    assert got == counts, (pres, twin, max_e, max_f)


def _random_unfolded_complex(rng):
    """Random edges, faces that are random closed walks: not folded, at
    times disconnected, with faces that may cross an edge twice."""
    vertex_count = rng.randint(1, 4)
    edges = [(rng.randrange(v), v, 0) for v in range(1, vertex_count)]
    if edges and rng.random() < 0.2:
        edges.pop(rng.randrange(len(edges)))
    extra = rng.randint(0, 3)
    edges += [(rng.randrange(vertex_count), rng.randrange(vertex_count), 0) for _ in range(extra)]
    steps = [(e, 1, s, d) for e, (s, d, _) in enumerate(edges)]
    steps += [(e, -1, d, s) for e, (s, d, _) in enumerate(edges)]
    faces = []
    for _ in range(extra + rng.randint(-1, 1)):  # chi near 1
        for _ in range(20):
            start = v = rng.randrange(vertex_count)
            path = []
            for _ in range(rng.randint(1, 5)):
                out = [step for step in steps if step[2] == v]
                if not out:
                    break
                e, d, _, v = rng.choice(out)
                path.append((e, d))
            if path and v == start:
                faces.append((0, tuple(path)))
                break
    return TwoComplex(vertex_count, tuple(edges), tuple(faces))


def test_collapsible_matches_search_oracle():
    # Greedy collapse against the exhaustive search over collapse orders.
    complexes = [TwoComplex(0, (), ())]
    for pres in _differential_presentations():
        complexes += enumerate_immersions(pres, 3, 2)
    rng = random.Random(7)
    complexes += [_random_unfolded_complex(rng) for _ in range(4000)]
    outcomes = Counter()
    for c in complexes:
        verdict = collapsible(c)
        assert verdict == collapse_oracle.collapsible(c), c
        crossed_twice = any(
            count > 1 for _, path in c.faces for count in Counter(e for e, _ in path).values()
        )
        outcomes[verdict, crossed_twice, is_connected(c)] += 1
    assert outcomes[True, False, True] >= 300 and outcomes[False, False, True] >= 300
    assert outcomes[True, True, True] >= 100 and outcomes[False, True, True] >= 100
    assert sum(n for (_, _, connected), n in outcomes.items() if not connected) >= 100


def test_connectivity_helper():
    assert is_connected(TwoComplex(1, (), ()))
    assert not is_connected(TwoComplex(2, (), ()))
