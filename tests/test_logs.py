import random

import pytest

from npicheck.homology import h1_structure
from npicheck.logs import (
    Log,
    Multigraph,
    NotAdian,
    adian_normalize,
    graph_I,
    graph_T,
    is_forest,
    log_is_reduced,
    log_to_presentation,
    underlying_forest,
)
from npicheck.minima import MAX, MIN, check_presentation
from npicheck.orders import IntTarget, TargetAssignment
from npicheck.textio import parse_presentation
from npicheck.words import rotate_word, validate
from helpers import adian_npi_check, lof_random, make_presentation
from adian_normalize_oracle import adian_normalize_oracle


def test_log_to_presentation():
    single = Log(("a", "b", "c"), ((0, 1, 2),))
    assert log_to_presentation(single).relators == ((-3, -2, 1, 2),)
    two = Log(("a", "b", "c"), ((0, 2, 1), (1, 0, 2)))
    assert log_to_presentation(two).relators == ((-2, -3, 1, 3), (-3, -1, 2, 1))
    degenerate = Log(("a", "b"), ((0, 0, 1),))
    pres = log_to_presentation(degenerate)
    assert pres.relators == ((-2, -1, 1, 1),)
    assert [d.code for d in validate(pres)] == ["not-cyclically-reduced"]


def test_log_is_reduced():
    assert log_is_reduced(Log(("a", "b", "c"), ((0, 1, 2),)))[0]
    ok, diags = log_is_reduced(Log(("a", "b"), ((0, 0, 1),)))
    assert not ok and diags == [(0, "label-equals-initial")]
    ok, diags = log_is_reduced(Log(("a", "b"), ((0, 1, 1),)))
    assert not ok and diags == [(0, "label-equals-terminal")]


def test_graphs_from_log_and_artin():
    log = Log(("a", "b", "c"), ((0, 1, 2),))
    assert graph_I(log).edges == ((1, 2),)
    assert graph_T(log).edges == ((0, 1),)
    artin = adian_normalize(make_presentation(["s", "t"], [(1, 2, 1, -2, -1, -2)]))
    assert graph_I(artin).edges == graph_T(artin).edges == ((0, 1),)
    empty = Log(("a", "b"), ())
    assert graph_I(empty).edges == () and graph_T(empty).edges == ()


def test_log_letter_graphs_match_the_normalized_presentation():
    # A LOG's letter graphs are read off its edges without normalizing;
    # they are those of its Adian form, reduced or not.
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        edges = tuple(tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(0, 6)))
        log = Log(tuple("abcde"[:n]), edges)
        form = adian_normalize(log_to_presentation(log))
        assert graph_I(log) == graph_I(form) and graph_T(log) == graph_T(form), log


def test_is_forest():
    assert is_forest(Multigraph(3, ((0, 1), (1, 2)))).ok
    loop = is_forest(Multigraph(1, ((0, 0),)))
    assert not loop.ok and loop.cycle == ((0, 0),)
    parallel = is_forest(Multigraph(2, ((0, 1), (0, 1))))
    assert not parallel.ok and parallel.cycle is not None
    triangle = is_forest(Multigraph(3, ((0, 1), (1, 2), (0, 2))))
    assert not triangle.ok and len(triangle.cycle) == 3


def test_adian_normalize():
    form = adian_normalize(make_presentation(["a", "b", "c"], [(-3, -2, 1, 2)]))
    pair = form.pairs[0]
    assert pair.u == (1, 2) and pair.v == (2, 3)  # a b = b c
    form2 = adian_normalize(make_presentation(["a", "b"], [(-1, 2)]))
    assert form2.pairs[0].u == (2,) and form2.pairs[0].v == (1,)
    with pytest.raises(NotAdian):
        adian_normalize(make_presentation(["a", "b"], [(1, 2, 1, 2)]))


def test_adian_normalize_matches_the_rotation_oracle():
    # Seeded words: any signs, and u v^-1 with u, v positive, rotated; the
    # runs must give the rotation oracle's form or its NotAdian message.
    rng = random.Random(64)
    adian = 0
    for _ in range(3000):
        if rng.random() < 0.5:
            word = [rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(rng.randrange(0, 9))]
        else:
            u = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
            v = [-rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
            word = rotate_word(u + v, rng.randrange(len(u) + len(v)))
        pres = make_presentation(["a", "b", "c"], [(1, -2), tuple(word)])
        try:
            want = adian_normalize_oracle(pres)
        except NotAdian as exc:
            with pytest.raises(NotAdian) as got:
                adian_normalize(pres)
            assert str(got.value) == str(exc)
            continue
        assert adian_normalize(pres) == want
        adian += 1
    assert adian >= 1000


def test_adian_npi_check_examples():
    lot = log_to_presentation(Log(("a", "b", "c"), ((0, 1, 2),)))
    verdict = adian_npi_check(lot)
    assert verdict.status == "npi"
    assert verdict.t_forest.ok and verdict.i_forest.ok
    assert verdict.min_check.status == "concatenable"
    assert verdict.max_check.status == "concatenable"

    # The braid relation s t s = t s t.
    braid = parse_presentation("gens: s t\nrel: s t s t^-1 s^-1 t^-1\n")
    assert validate(braid) == []
    assert adian_npi_check(braid).status == "npi"

    # both letter graphs cyclic: ab = cd and aab = ccd give parallel edges
    # in T ({a,c} twice) and in I ({b,d} twice), with H1 free of rank n - k
    cyclic = make_presentation(
        ["a", "b", "c", "d"],
        [(1, 2, -4, -3), (1, 1, 2, -4, -3, -3)],
    )
    verdict = adian_npi_check(cyclic)
    assert verdict.status == "not-decided"
    assert not verdict.t_forest.ok and not verdict.i_forest.ok


def test_artin_even_label_fails_rank_check():
    # s t = t s: H1 has rank 2, not n - k = 1.
    even = parse_presentation("gens: s t\nrel: s t s^-1 t^-1\n")
    assert adian_npi_check(even).status == "hypothesis-failure"


def test_lof_random_golden_and_degenerate():
    rng = random.Random(42)
    log = lof_random(5, 3, rng)
    assert log == Log(
        ("a", "b", "c", "d", "e"), ((2, 4, 0), (4, 2, 1), (4, 0, 3))
    )
    assert log_is_reduced(log)[0]
    with pytest.raises(ValueError):
        lof_random(2, 1, random.Random(0))
    with pytest.raises(ValueError):
        lof_random(4, 5, random.Random(0))
    assert lof_random(3, 1, random.Random(1)).edges


def test_lof_homology_is_wedge_of_circles():
    rng = random.Random(50)
    for _ in range(100):
        n = rng.randrange(3, 9)
        k = rng.randrange(1, n)
        log = lof_random(n, k, rng)
        h1 = h1_structure(log_to_presentation(log))
        assert h1.free_rank == n - k and h1.torsion == ()
        assert underlying_forest(log)


def test_forest_modes_cross_check():
    # T-forest forces Min-mode concatenability, I-forest Max-mode; the
    # adian_npi_check asserts this internally on every call.
    rng = random.Random(51)
    z = IntTarget()
    seen_t, seen_i = 0, 0
    for _ in range(200):
        n = rng.randrange(3, 9)
        k = rng.randrange(1, n)
        log = lof_random(n, k, rng)
        pres = log_to_presentation(log)
        verdict = adian_npi_check(pres)
        ones = TargetAssignment.all_ones(pres)
        if verdict.t_forest.ok:
            seen_t += 1
            assert check_presentation(pres, z, ones, MIN).status == "concatenable"
        if verdict.i_forest.ok:
            seen_i += 1
            assert check_presentation(pres, z, ones, MAX).status == "concatenable"
    assert seen_t and seen_i


def test_non_forest_letter_graph_breaks_matching_mode():
    # Two edges sharing initial vertex and label: T has parallel edges, so
    # Min mode fails, while I stays a path and Max mode succeeds.
    log = Log(("a", "b", "c", "d"), ((0, 1, 2), (0, 1, 3)))
    pres = log_to_presentation(log)
    assert not is_forest(graph_T(log)).ok
    assert is_forest(graph_I(log)).ok
    z = IntTarget()
    ones = TargetAssignment.all_ones(pres)
    assert check_presentation(pres, z, ones, MIN).status == "not-concatenable"
    assert check_presentation(pres, z, ones, MAX).status == "concatenable"
    assert adian_npi_check(pres).status == "npi"
