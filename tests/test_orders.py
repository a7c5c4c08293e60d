import random
from collections import Counter

import pytest

from npicheck import orders
from npicheck.orders import (
    EQ,
    GT,
    LT,
    NEGATIVE,
    POSITIVE,
    TRIVIAL,
    BadTargetSpec,
    BraidTarget,
    HandleReductionBudget,
    IntTarget,
    LexTarget,
    TargetAssignment,
    UnassignedGenerator,
    braid_sign,
    handle_reduce,
    parse_target_spec,
)
import braid_order_oracle
from helpers import evaluate_word, verify_assignment
from samples import B4_RELATORS, sample_a, sample_braid


def random_braid_word(rng, n=4, max_len=12):
    return tuple(
        rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(rng.randrange(0, max_len + 1))
    )


def is_handle_free(word):
    last = {}
    for t, x in enumerate(word):
        i = abs(x)
        s = last.get(i)
        if s is not None and word[s] == -x:
            if all(abs(word[p]) != i - 1 for p in range(s + 1, t)):
                return False
        last[i] = t
    return True


def test_handle_reduce_trivial_handle():
    assert handle_reduce((1, -1), 4) == ()


def test_handle_reduce_braid_relation():
    # sigma1 sigma2 sigma1 (sigma2 sigma1 sigma2)^-1 is the braid relation
    assert handle_reduce((1, 2, 1, -2, -1, -2), 4) == ()


def test_handle_reduce_already_handle_free():
    # sigma2 sigma1 sigma2^-1 contains no handle (the interior letter has
    # index i-1) and its lowest generator is positive.
    word = (2, 1, -2)
    assert handle_reduce(word, 4) == word
    assert braid_sign(word, 4) == POSITIVE


def test_handle_reduce_output_is_handle_free():
    rng = random.Random(11)
    for _ in range(500):
        w = random_braid_word(rng)
        out = handle_reduce(w, 4)
        assert is_handle_free(out)
        # the reduced word represents the same braid
        assert braid_sign(tuple(-x for x in reversed(out)) + w, 4) == TRIVIAL


def test_braid_sign_examples():
    assert braid_sign((1,), 4) == POSITIVE
    assert braid_sign((), 4) == TRIVIAL
    for rel in B4_RELATORS:
        assert braid_sign(rel, 4) == TRIVIAL


def test_braid_trichotomy():
    rng = random.Random(12)
    for _ in range(1000):
        w = random_braid_word(rng)
        s = braid_sign(w, 4)
        s_inv = braid_sign(tuple(-x for x in reversed(w)), 4)
        if s == TRIVIAL:
            assert s_inv == TRIVIAL
        else:
            assert {s, s_inv} == {POSITIVE, NEGATIVE}


def _sign_or_error(sign, word, n):
    try:
        return sign(word, n)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_braid_sign_matches_the_handle_reduction_oracle():
    # The sign is read without handle reduction when the lowest generator
    # occurs with one sign only.  Seeded words on 3, 4 and 5 strands: random
    # ones, conjugates of a short word by a relator-stuffed one (trivial when
    # the short word is empty), and some with a letter outside
    # sigma_1..sigma_{n-1}, which must raise the same error.  compare on
    # braid:n and braid:n:opp reads the same sign.
    rng = random.Random(2028)
    outcomes = Counter()
    for n in (3, 4, 5):
        relators = [r for r in B4_RELATORS if max(map(abs, r)) < n]
        braids = [BraidTarget(n), BraidTarget(n, opposite=True)]
        for _ in range(1500):
            w = random_braid_word(rng, n, 10)
            kind = rng.randrange(4)
            if kind == 1 and relators:
                pos = rng.randrange(len(w) + 1)
                stuffed = w[:pos] + rng.choice(relators) + w[pos:]
                w = tuple(-x for x in reversed(stuffed)) + random_braid_word(rng, n, 2) + w
            elif kind == 2 and w:
                pos = rng.randrange(len(w))
                w = w[:pos] + (rng.choice([0, n, -n, n + 1]),) + w[pos + 1 :]
            got = _sign_or_error(braid_sign, w, n)
            want = _sign_or_error(braid_order_oracle.braid_sign, w, n)
            assert got == want, (w, n)
            reduced = orders.freely_reduce(w)
            mixed = bool(reduced) and len(orders._main_signs(reduced)) == 2
            outcomes[want.split(":")[0], mixed] += 1
            if not want.startswith("ValueError"):
                g = random_braid_word(rng, n, 4)
                h = orders.freely_reduce(g + w)
                for braid in braids:
                    base = {POSITIVE: LT, NEGATIVE: GT, TRIVIAL: EQ}[want]
                    assert braid.compare(g, h) == (-base if braid.opposite else base)
    assert outcomes[POSITIVE, False] > 300 and outcomes[NEGATIVE, False] > 300
    assert outcomes[POSITIVE, True] > 300 and outcomes[NEGATIVE, True] > 300
    assert outcomes[TRIVIAL, True] > 100 and outcomes["ValueError", False] > 100


def test_compare_examples():
    assert IntTarget().compare(-2, -1) == LT
    b = BraidTarget(4)
    assert b.compare(b.identity(), (3,)) == LT
    bo = BraidTarget(4, opposite=True)
    assert bo.compare(bo.identity(), (3,)) == GT


def test_left_invariance_samples():
    rng = random.Random(13)
    z = IntTarget()
    for _ in range(1000):
        g, a, b = (rng.randrange(-50, 50) for _ in range(3))
        assert z.compare(z.multiply(g, a), z.multiply(g, b)) == z.compare(a, b)
    lex = LexTarget(3)
    for _ in range(1000):
        g, a, b = (
            tuple(rng.randrange(-9, 10) for _ in range(3)) for _ in range(3)
        )
        assert lex.compare(lex.multiply(g, a), lex.multiply(g, b)) == lex.compare(a, b)
    braid = BraidTarget(4)
    for _ in range(200):
        g, a, b = (random_braid_word(rng, max_len=6) for _ in range(3))
        assert braid.compare(braid.multiply(g, a), braid.multiply(g, b)) == braid.compare(a, b)


def test_representative_independence():
    rng = random.Random(14)
    braid = BraidTarget(4)
    for _ in range(300):
        a = random_braid_word(rng, max_len=8)
        b = random_braid_word(rng, max_len=8)
        base = braid.compare(a, b)
        rel = random.Random(rng.random()).choice(B4_RELATORS)
        pos = rng.randrange(0, len(a) + 1)
        stuffed = a[:pos] + rel + a[pos:]
        assert braid.compare(stuffed, b) == base


def test_handle_reduction_budget(monkeypatch):
    monkeypatch.setattr(orders, "HANDLE_REDUCTION_MAX_STEPS", 1)
    with pytest.raises(HandleReductionBudget):
        handle_reduce((1, 2, -1, 2, 1, -2, -1, -2, 1, 2), 4)


def test_evaluate_word():
    p = sample_a()
    z = IntTarget()
    ones = TargetAssignment.all_ones(p)
    assert evaluate_word(z, ones, p.relators[0]) == 0
    assert evaluate_word(z, ones, ()) == 0
    braid = BraidTarget(4)
    named = TargetAssignment.named_braid(sample_braid(), braid)
    # x z x^-1 z^-1 is a defining relation: the image is the trivial braid
    assert braid.equals(evaluate_word(braid, named, (1, 3, -1, -3)), braid.identity())
    with pytest.raises(UnassignedGenerator):
        evaluate_word(z, TargetAssignment(z, {0: 1}), (2,))


def test_verify_assignment():
    pb = sample_braid()
    braid = BraidTarget(4, opposite=True)
    assert verify_assignment(braid, TargetAssignment.named_braid(pb, braid), pb)
    pa = sample_a()
    z = IntTarget()
    assert verify_assignment(z, TargetAssignment.all_ones(pa), pa)
    skew = TargetAssignment.from_weights(pa, (1, 2, 1))
    assert not verify_assignment(z, skew, pa)


def test_parse_target_spec():
    assert isinstance(parse_target_spec("z"), IntTarget)
    lex = parse_target_spec("zlex:3")
    assert isinstance(lex, LexTarget) and lex.dim == 3
    braid = parse_target_spec("braid:4:opp")
    assert isinstance(braid, BraidTarget) and braid.opposite
    assert not parse_target_spec("braid:5").opposite
    for bad in ("q", "zlex:x", "braid:4:rev", "braid:one"):
        with pytest.raises(BadTargetSpec):
            parse_target_spec(bad)
