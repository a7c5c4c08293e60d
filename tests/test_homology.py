import itertools
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import npicheck
from npicheck.homology import (
    NoSurjection,
    _all_ones_coordinates,
    _kernel_basis,
    _weight_stream,
    exponent_matrix,
    h1_structure,
    is_generalized_wirtinger,
    smith_normal_form,
)
from npicheck.logs import log_to_presentation
from npicheck.textio import parse_presentation
from helpers import (
    find_weight_homomorphisms,
    flip_generator,
    insert_free_generators,
    integer_kernel_basis,
    lof_random,
    make_presentation,
    random_valid_presentation,
)
from dense_h1_oracle import dense_h1, dense_weight_stream
from samples import sample_a, sample_braid, torsion_presentation
from smith_oracle import (
    all_ones_coordinates_oracle,
    exponent_matrix_oracle,
    integer_det,
    mat_mul,
    smith_normal_form_oracle,
)
from weight_search_oracle import full_box_weight_homomorphisms, relator_part_weight_homomorphisms


def cofactor_det(rows, cols, matrix, memo):
    """Independent determinant for the minor-gcd oracle (Laplace expansion)."""
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if not rows:
        return 1
    r = rows[-1]
    total = 0
    for pos, c in enumerate(cols):
        entry = matrix[r][c]
        if entry:
            sub = cofactor_det(rows[:-1], cols[:pos] + cols[pos + 1 :], matrix, memo)
            sign = 1 if (len(cols) - 1 - pos) % 2 == 0 else -1
            total += sign * entry * sub
    memo[key] = total
    return total


def minor_gcds(matrix):
    """gcd of all i x i minors, for every i."""
    k = len(matrix)
    n = len(matrix[0]) if k else 0
    memo = {}
    out = []
    for size in range(1, min(k, n) + 1):
        g = 0
        for rows in itertools.combinations(range(k), size):
            for cols in itertools.combinations(range(n), size):
                g = math.gcd(g, abs(cofactor_det(rows, cols, matrix, memo)))
        out.append(g)
    return out


def smith_form_checked_by_the_oracle(rows, ncols: int = 0):
    """The Smith form of ``rows``, after asserting that its D and V are the
    full-search oracle's, whose U @ M @ V = D check runs on the same matrix
    (so U @ M @ V = D holds for the form with the oracle's U), and that
    V @ s is all-ones."""
    snf = smith_normal_form(rows, ncols)
    oracle = smith_normal_form_oracle(rows, ncols)
    oracle.check()
    assert snf.matrix == oracle.matrix, rows
    assert snf.diagonal == oracle.diagonal() and snf.right == oracle.right, rows
    assert all(sum(map(operator.mul, row, snf.ones)) == 1 for row in snf.right), rows
    return snf


def test_exponent_matrix_examples():
    mat = exponent_matrix(sample_a())
    assert mat == [[-1, 1, 0], [0, -1, 1]]
    assert exponent_matrix(make_presentation(["a"], [])) == []
    assert exponent_matrix(make_presentation(["a"], [(1, 1)])) == [[2]]


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == [1, 1]
    snf = smith_form_checked_by_the_oracle([[2, 4], [6, 8]])
    assert snf.diagonal == [2, 4]
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == [0, 0]


def test_snf_property_suite():
    rng = random.Random(20)
    for _ in range(1000):
        k = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(k)]
        diag = smith_form_checked_by_the_oracle(rows).diagonal
        oracle = minor_gcds(rows)
        prod = 1
        for i, g in enumerate(oracle):
            prod *= diag[i]
            assert prod == g, f"minor gcd mismatch at size {i + 1} for {rows}"


def _wlot(n: int, length: int, rng: random.Random):
    """A word-labelled oriented tree on x_0 ... x_{n-1}: one relator
    x_j^-1 w^-1 x_i w per tree edge i < j, w a freely reduced word of
    ``length`` letters."""
    rels = []
    for j in range(1, n):
        i = rng.randrange(j)
        w: list[int] = []
        while len(w) < length:
            x = rng.choice([1, -1]) * rng.randrange(1, n + 1)
            if not w or w[-1] != -x:
                w.append(x)
        rels.append((-(j + 1), *(-x for x in reversed(w)), i + 1, *w))
    return make_presentation([f"x{g}" for g in range(n)], rels)


def test_exponent_matrix_matches_the_per_generator_oracle():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(1, 8)
        rels = [
            # Letters outside the generator list (0 and beyond n) count for none.
            tuple(rng.choice([1, -1]) * rng.randrange(0, n + 3) for _ in range(rng.randrange(0, 9)))
            for _ in range(rng.randrange(0, 6))
        ]
        pres = make_presentation([f"g{i}" for i in range(n)], rels)
        assert exponent_matrix(pres) == exponent_matrix_oracle(pres)
        wlot = _wlot(n, rng.randrange(1, 4), rng)
        assert exponent_matrix(wlot) == exponent_matrix_oracle(wlot)


def test_smith_form_matches_the_full_search_oracle():
    # The unit-pivot search and the skipped divisibility scan must leave
    # D and V exactly as the whole-block search left them, on the exponent
    # matrices the reports see and on matrices whose pivots are not units;
    # the carried s must be V^-1 @ 1.
    rng = random.Random(18)
    cases = []
    for _ in range(150):
        n = rng.randrange(3, 10)
        lof = log_to_presentation(lof_random(n, rng.randrange(1, n), rng))
        cases.append((exponent_matrix(lof), n))
        cases.append((exponent_matrix(_wlot(n, rng.randrange(1, 4), rng)), n))
    entries = [0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, 12, -15]
    for _ in range(800):
        k, n = rng.randrange(0, 6), rng.randrange(1, 6)
        pool = entries + [1, -1] if rng.random() < 0.3 else entries
        cases.append(([[rng.choice(pool) for _ in range(n)] for _ in range(k)], n))
    seen = {"torsion": 0, "non-unit pivot": 0}
    for rows, n in cases:
        diag = smith_form_checked_by_the_oracle(rows, n).diagonal
        seen["torsion"] += any(d > 1 for d in diag)
        seen["non-unit pivot"] += bool(diag) and diag[0] > 1
    assert seen["torsion"] >= 300 and seen["non-unit pivot"] >= 100, seen


def test_h1_examples():
    assert h1_structure(sample_a())[:2] == h1_structure(sample_braid())[:2]
    h1 = h1_structure(sample_a())
    assert h1.free_rank == 1 and h1.torsion == ()
    ht = h1_structure(torsion_presentation())
    assert ht.free_rank == 0 and ht.torsion == (2,)


def test_is_generalized_wirtinger():
    assert is_generalized_wirtinger(sample_a()).ok
    bad = is_generalized_wirtinger(torsion_presentation())
    assert not bad.ok and "torsion" in bad.reason
    free2 = is_generalized_wirtinger(make_presentation(["a", "b"], []))
    assert free2.ok and free2.h1.free_rank == 2


def test_integer_kernel_basis():
    basis = integer_kernel_basis(exponent_matrix(sample_a()))
    assert len(basis) == 1
    vec = basis[0]
    assert vec in ((1, 1, 1), (-1, -1, -1))
    assert integer_kernel_basis([], 2) == [(1, 0), (0, 1)]
    assert integer_kernel_basis([[2]]) == []


def test_find_weight_homomorphisms():
    homs = find_weight_homomorphisms(sample_a())
    assert homs[0].weights == (1, 1, 1)
    braid_homs = find_weight_homomorphisms(sample_braid())
    assert [h.weights for h in braid_homs] == [(1, 1, 1)]
    with pytest.raises(NoSurjection):
        find_weight_homomorphisms(torsion_presentation())


def test_weight_vectors_satisfy_invariants():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(2, 5)
        k = rng.randrange(0, n)
        rels = []
        for _ in range(k):
            rels.append(
                tuple(
                    rng.choice([1, -1]) * rng.randrange(1, n + 1)
                    for _ in range(rng.randrange(1, 8))
                )
            )
        pres = make_presentation([f"g{i}" for i in range(n)], rels)
        mat = exponent_matrix(pres)
        try:
            homs = find_weight_homomorphisms(pres, 2)
        except NoSurjection:
            continue
        for hom in homs:
            assert math.gcd(*[abs(w) for w in hom.weights]) == 1
            for i in range(k):
                assert sum(mat[i][j] * hom.weights[j] for j in range(n)) == 0
            # One of each pair +-v: the first nonzero weight is positive.
            assert next(w for w in hom.weights if w) > 0


def _has_free_generator(pres) -> bool:
    return len({abs(x) for rel in pres.relators for x in rel}) < len(pres.generators)


def test_half_box_search_matches_full_box_oracle():
    # The search walks the box of the relator part, so the oracle runs on
    # that part, with weight 1 on the generators no relator uses; with no
    # such generator that is the full-box oracle itself.
    rng = random.Random(2024)
    outcomes = {"maps": 0, "none": 0, "free": 0}
    bounds_seen = set()
    for _ in range(1200):
        n = rng.randrange(1, 7)
        k = rng.randrange(max(0, n - 4), n + 2)
        rels = [
            tuple(rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(rng.randrange(1, 7)))
            for _ in range(k)
        ]
        pres = make_presentation([f"g{i}" for i in range(n)], rels)
        rank = len(integer_kernel_basis(exponent_matrix(pres), n))
        # Keep the oracle's (2B + 1)^rank walk small.
        bound = rng.randint(1, 3 if rank <= 4 else 2 if rank == 5 else 1)
        bounds_seen.add(bound)
        free = _has_free_generator(pres)
        outcomes["free"] += free
        try:
            expected = relator_part_weight_homomorphisms(pres, bound)
        except NoSurjection:
            with pytest.raises(NoSurjection):
                find_weight_homomorphisms(pres, bound)
            outcomes["none"] += 1
            continue
        if not free:
            assert expected == full_box_weight_homomorphisms(pres, bound)
        assert find_weight_homomorphisms(pres, bound) == expected
        outcomes["maps"] += 1
    assert bounds_seen == {1, 2, 3}
    assert outcomes["none"] >= 100 and outcomes["maps"] >= 500 and outcomes["free"] >= 100
    # Forests of H1 rank 4, as the benchmark draws them, at the default
    # bound: the odometer sums up to four levels of partial sums (fewer
    # when an isolated vertex leaves a generator out of every relator).
    for _ in range(12):
        n = rng.randrange(6, 9)
        pres = log_to_presentation(lof_random(n, n - 4, rng))
        assert len(integer_kernel_basis(exponent_matrix(pres), n)) == 4
        assert find_weight_homomorphisms(pres) == relator_part_weight_homomorphisms(pres)


# All-ones is in ker M, but its kernel coordinates are (-2, -1, 1): outside
# the box at bound 1, first of the box at bound 2.
EDGE_TEXT = "gens: a b c d e\nrel: a^-1 b^2 c^-1 d^2 e^-2\nrel: a^3 c^-1 d^3 e^-5\n"


def test_all_ones_outside_the_box_is_not_listed():
    pres = parse_presentation(EDGE_TEXT)
    ones = (1,) * 5
    assert all(sum(row) == 0 for row in exponent_matrix(pres))
    small = full_box_weight_homomorphisms(pres, 1)
    assert len(small) == 13 and ones not in [h.weights for h in small]
    large = full_box_weight_homomorphisms(pres, 2)
    assert len(large) == 49 and large[0].weights == ones
    assert find_weight_homomorphisms(pres, 1) == small
    assert find_weight_homomorphisms(pres, 2) == large


def test_zero_sum_family_matches_full_box_oracle():
    """Every relator has exponent sum 0, so all-ones is always in ker M;
    at bound 1 it is in the box only when its kernel coordinates are
    within 1."""
    rng = random.Random(11)
    outside = 0
    for _ in range(1000):
        n = rng.randrange(3, 7)
        k = rng.randrange(1, n)
        rows = []
        while len(rows) < k:
            row = [rng.randint(-3, 3) for _ in range(n)]
            if any(row) and not sum(row):
                rows.append(row)
        rels = [
            tuple(j + 1 if e > 0 else -(j + 1) for j, e in enumerate(row) for _ in range(abs(e)))
            for row in rows
        ]
        pres = make_presentation([f"g{i}" for i in range(n)], rels)
        expected = relator_part_weight_homomorphisms(pres, 1)
        if not _has_free_generator(pres):
            assert expected == full_box_weight_homomorphisms(pres, 1)
        assert find_weight_homomorphisms(pres, 1) == expected
        outside += (1,) * n not in [h.weights for h in expected]
    assert outside >= 10


def test_all_ones_coordinates_match_the_gram_oracle():
    # The coordinates read off the carried s must be the Gram/Cramer
    # solve's, None included, on the exponent matrices of the presentations
    # the reports see (free generators included, as zero columns) and on
    # integer matrices with and without M * 1 = 0.
    rng = random.Random(35)
    cases = []
    for _ in range(200):
        n = rng.randrange(3, 9)
        lof = log_to_presentation(lof_random(n, rng.randrange(1, n), rng))
        wlot = _wlot(n, rng.randrange(1, 4), rng)
        pres = random_valid_presentation(rng)
        for p in (lof, wlot, pres, insert_free_generators(pres, rng.randrange(1, 3), rng)):
            cases.append(smith_normal_form(exponent_matrix(p), len(p.generators)))
    for _ in range(600):
        k, n = rng.randrange(0, 6), rng.randrange(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.5:
            for row in rows:
                row[rng.randrange(n)] -= sum(row)
        cases.append(smith_normal_form(rows, n))
    seen = {"in kernel": 0, "not in kernel": 0, "no kernel": 0}
    for snf in cases:
        assert all(sum(map(operator.mul, row, snf.ones)) == 1 for row in snf.right), snf
        basis = _kernel_basis(snf)
        if not basis:
            seen["no kernel"] += 1
            continue
        coords = _all_ones_coordinates(snf, basis)
        assert coords == all_ones_coordinates_oracle(snf.matrix, basis), snf
        seen["not in kernel" if coords is None else "in kernel"] += 1
    assert min(seen.values()) >= 100, seen


def _knot_like(n: int, rng: random.Random):
    """A Wirtinger-style cycle of arcs x_0 ... x_{n-1}: one relator
    x_(k+1)^-1 x_i^-1 x_k x_i per arc k, indices mod n, each i drawn at
    random.  Every column has two users, so nothing peels."""
    rels = []
    for k in range(n):
        i = rng.randrange(n)
        rels.append((-((k + 1) % n + 1), -(i + 1), k + 1, i + 1))
    return make_presentation([f"x{g}" for g in range(n)], rels)


def _from_rows(rows: list[list[int]], n: int):
    """The presentation on g_0 ... g_(n-1) whose exponent matrix is ``rows``."""
    rels = [
        tuple(j + 1 if e > 0 else -(j + 1) for j, e in enumerate(row) for _ in range(abs(e)))
        for row in rows
    ]
    return make_presentation([f"g{i}" for i in range(n)], rels)


def test_peeled_h1_matches_the_dense_oracle():
    # H1 and every weight map of the peeling equal those of the Smith form
    # of the whole relator part, NoSurjection included, on trees that peel
    # completely, on cycles and non-unit rows that leave a residual, and on
    # inputs whose peel leaves a kernel of rank >= 2 for the dense path.
    rng = random.Random(36)
    cases = [make_presentation(["a", "b"], []), make_presentation([], [])]
    for _ in range(60):
        cases.append(_wlot(rng.randrange(2, 41), rng.randrange(1, 4), rng))
    for _ in range(60):
        n = rng.randrange(3, 12)
        cases.append(log_to_presentation(lof_random(n, n - 1, rng)))
        cases.append(_knot_like(n, rng))
    for _ in range(120):
        # A tree with one relator made a non-unit row x_i^d x_j^-d, which
        # stays in the residual (torsion Z/d, kernel rank 1), or with a
        # relator x_i^d added (kernel rank 0).
        n, d = rng.randrange(2, 10), rng.randrange(2, 4)
        tree = _wlot(n, 1, rng)
        i, j = rng.sample(range(1, n + 1), 2)
        rels = list(tree.relators)
        if rng.random() < 0.5:
            rels[rng.randrange(len(rels))] = (i,) * d + (-j,) * d
        else:
            rels.append((i,) * d)
        cases.append(make_presentation(tree.generators, rels))
    for _ in range(300):
        pres = random_valid_presentation(rng)
        cases.append(pres)
        cases.append(insert_free_generators(pres, rng.randrange(1, 3), rng))
    for _ in range(300):
        n = rng.randrange(1, 7)
        k = rng.randrange(max(n - 1, 0), n + 2)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(k)]
        cases.append(_from_rows(rows, n))
    seen = {"peeled rank 1": 0, "peeled with torsion": 0, "zero kernel": 0, "dense": 0}
    for pres in cases:
        h1 = h1_structure(pres)
        free_rank, torsion, _, _ = dense_h1(pres)
        assert (h1.free_rank, h1.torsion) == (free_rank, torsion), pres
        for bound in (1, 3):
            try:
                expected = dense_weight_stream(pres, bound)
            except NoSurjection:
                with pytest.raises(NoSurjection):
                    _weight_stream(h1, bound)
                continue
            assert list(_weight_stream(h1, bound)) == expected, pres
        if h1.smith is not None:
            seen["dense"] += 1
        elif not h1.kernel:
            seen["zero kernel"] += 1
        else:
            seen["peeled rank 1"] += 1
            seen["peeled with torsion"] += bool(h1.torsion)
    assert min(seen.values()) >= 30, seen


def test_h1_invariance_under_reordering_and_flips():
    p = sample_a()
    reordered = make_presentation(p.generators, (p.relators[1], p.relators[0]))
    assert h1_structure(p)[:2] == h1_structure(reordered)[:2]
    for g in range(3):
        assert h1_structure(flip_generator(p, g))[:2] == h1_structure(p)[:2]


def test_integer_det():
    assert integer_det([[2, 0], [0, 3]]) == 6
    assert integer_det([[0, 1], [1, 0]]) == -1
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        memo = {}
        assert integer_det(rows) == cofactor_det(
            tuple(range(n)), tuple(range(n)), rows, memo
        )


def test_mat_mul_exactness():
    a = [[10**30, 1], [0, 1]]
    b = [[1, 0], [10**30, 1]]
    prod = mat_mul(a, b)
    assert prod == [[2 * 10**30, 1], [10**30, 1]]


def test_import_leaves_numpy_unloaded():
    code = "import sys, npicheck; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(npicheck.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
